//! The `serve-mixed` workload: `Server::run` on a Unix socket over the
//! serial online engine, driven by one client thread on two connections.
//!
//! * Writes: `SESSION` requests on their own connection, open loop at a
//!   fixed rate below the shed knee, for the whole run.
//! * Reads: `LOOKUP` requests on the other connection, for programs and
//!   neighborhoods drawn from a small hot set so the response cache hits.
//!   They run open loop at the nominal rate, then at a ladder of stepped
//!   rates, then closed loop with a fixed number outstanding.
//!
//! Open-loop requests are timed from their scheduled send time, so a
//! stalled generator or server shows up in every request it delays.
//! Percentiles come from the raw samples.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cablevod_cache::{StrategyFactory, StrategySpec};
use cablevod_serve::{ServeStats, Server, ServerConfig, WallClock};
use cablevod_sim::{serve_serial, OnlineSpec, SimConfig, SimReport};
use cablevod_trace::record::Trace;
use cablevod_trace::synth::{generate, SynthConfig};

use crate::spans::{Ledger, SharedLedger, TracedFactory, TracedOnline};
use crate::stats::{
    peak_rss_mb, process_cpu_s, quantile, repeated_setup, reset_peak_rss, thread_cpu_s, PaceClock,
    SplitMix,
};
use crate::{Args, Outcome};

/// The plant is shaped like the paper's full population.
const USERS: u32 = 41_698;
const CATALOG: u32 = 8_278;
/// `SESSION` requests per second, below the queue's shed knee (the
/// 1,024-deep queue drains once per simulated second).
const SESSION_RATE: f64 = 400.0;
/// The nominal `LOOKUP` rate the lookup latency metrics are taken at.
const LOOKUP_RATE: f64 = 2_000.0;
/// The stepped `LOOKUP` rates `serve.sustained_rps` searches.
const LADDER: [f64; 8] = [
    5_000.0, 10_000.0, 20_000.0, 40_000.0, 80_000.0, 160_000.0, 320_000.0, 640_000.0,
];
/// Lookups kept outstanding in the closed-loop phase.
const WINDOW: usize = 256;
/// The latency limits a ladder step must meet (p99).
const LOOKUP_LIMIT_MS: f64 = 10.0;
const SESSION_LIMIT_MS: f64 = 1_500.0;
/// Hot set of the lookup mix.
const HOT_NEIGHBORHOODS: u64 = 8;
const HOT_PROGRAMS: u64 = 64;
/// Requests are generated only while a connection holds less unwritten
/// output than this, so a generator running ahead of the server queues
/// due times, not bytes. Latency still runs from each request's due time.
const OUT_CAP: usize = 64 * 1024;
/// How long the client waits for outstanding replies after the last
/// request before counting them as missing.
const REPLY_GRACE: Duration = Duration::from_secs(5);

/// What one request is for, and which part of the run it belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Nominal,
    Step(usize),
    Closed,
}

struct Sent {
    /// Scheduled send time (open loop) or actual send time (closed loop),
    /// in nanoseconds since the client's origin.
    due_ns: u64,
    phase: Phase,
}

/// One of the client's connections: requests written, replies owed.
struct Line {
    stream: UnixStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    owed: VecDeque<Sent>,
    closed: bool,
}

impl Line {
    fn connect(path: &Path) -> Result<Line, String> {
        let stream = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        Ok(Line {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            owed: VecDeque::new(),
            closed: false,
        })
    }

    /// Writes as much of the pending output as the socket takes.
    fn flush(&mut self) -> bool {
        let mut wrote = false;
        while !self.out.is_empty() && !self.closed {
            match self.stream.write(&self.out) {
                Ok(0) => self.closed = true,
                Ok(n) => {
                    self.out.drain(..n);
                    wrote = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.closed = true,
            }
        }
        wrote
    }

    /// Reads what has arrived; returns whether anything did.
    fn fill(&mut self) -> bool {
        let mut got = false;
        let mut buf = [0u8; 16 * 1024];
        while !self.closed {
            match self.stream.read(&mut buf) {
                Ok(0) => self.closed = true,
                Ok(n) => {
                    self.inbuf.extend_from_slice(&buf[..n]);
                    got = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.closed = true,
            }
        }
        got
    }

    /// Pops every complete reply line, paired with its request.
    fn replies(&mut self, mut each: impl FnMut(Option<Sent>, &str)) {
        let mut start = 0;
        while let Some(len) = self.inbuf[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.inbuf[start..start + len]);
            each(self.owed.pop_front(), line.trim_end());
            start += len + 1;
        }
        self.inbuf.drain(..start);
    }
}

/// What one ladder step measured.
#[derive(Default)]
struct Step {
    lookup_ms: Vec<f64>,
    session_ms: Vec<f64>,
    failed: u64,
    completed: u64,
}

/// Everything the client measured.
#[derive(Default)]
struct ClientReport {
    sent: u64,
    failed: u64,
    problems: Vec<String>,
    admitted: u64,
    session_ms: Vec<f64>,
    lookup_ms: Vec<f64>,
    steps: Vec<Step>,
    step_secs: f64,
    closed_replies: u64,
    closed_secs: f64,
    late_max_ms: f64,
    outstanding_max: usize,
    /// Host seconds from the client's origin to the last `ADMITTED`.
    admitting_secs: f64,
}

/// The client's timetable, as offsets from its origin.
struct Plan {
    nominal_end: f64,
    ladder_end: f64,
    closed_end: f64,
}

impl Plan {
    fn new(run: Duration) -> Plan {
        let s = run.as_secs_f64();
        Plan {
            nominal_end: 0.35 * s,
            ladder_end: 0.8 * s,
            closed_end: s,
        }
    }

    fn step_secs(&self) -> f64 {
        (self.ladder_end - self.nominal_end) / LADDER.len() as f64
    }

    /// The open-loop lookup phase and rate at `t`, or `None` once the
    /// open-loop part is over.
    fn lookup_phase(&self, t: f64) -> Option<(Phase, f64)> {
        if t < self.nominal_end {
            Some((Phase::Nominal, LOOKUP_RATE))
        } else if t < self.ladder_end {
            let step = ((t - self.nominal_end) / self.step_secs()) as usize;
            let step = step.min(LADDER.len() - 1);
            Some((Phase::Step(step), LADDER[step]))
        } else {
            None
        }
    }
}

fn secs_ns(s: f64) -> u64 {
    (s * 1e9) as u64
}

/// Drives both connections until every request of the plan has its
/// reply (or the grace period runs out), then raises `term`.
fn run_client(
    mut sessions: Line,
    mut lookups: Line,
    neighborhoods: u64,
    seed: u64,
    run: Duration,
    term: &AtomicBool,
) -> ClientReport {
    let plan = Plan::new(run);
    // One stream per connection, so each request sequence depends on the
    // seed alone, not on how the two interleave.
    let mut session_rng = SplitMix::new(seed ^ 0x5E55_1015);
    let mut lookup_rng = SplitMix::new(seed ^ 0x100C_0F00);
    // Sample vectors are sized up front: their growth would otherwise
    // step the process's peak RSS by whole doublings.
    let samples = |rate: f64, secs: f64| Vec::with_capacity((rate * secs * 1.1) as usize + 64);
    let step_secs = plan.step_secs();
    let mut report = ClientReport {
        session_ms: samples(SESSION_RATE, plan.closed_end),
        lookup_ms: samples(LOOKUP_RATE, plan.nominal_end),
        steps: LADDER
            .iter()
            .map(|&rate| Step {
                lookup_ms: samples(rate, step_secs),
                session_ms: samples(SESSION_RATE, step_secs),
                ..Step::default()
            })
            .collect(),
        step_secs,
        closed_secs: plan.closed_end - plan.ladder_end,
        ..ClientReport::default()
    };
    let hot_nbhds = HOT_NEIGHBORHOODS.min(neighborhoods.max(1));
    let origin = Instant::now();
    let now_ns = || u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut next_session = 0u64;
    let mut next_lookup = 0u64;
    let mut last_gidx: Option<u64> = None;
    let mut last_epoch = 0u64;
    let end_ns = secs_ns(plan.closed_end);
    let ladder_end_ns = secs_ns(plan.ladder_end);
    let mut done_at: Option<Instant> = None;

    loop {
        let now = now_ns();
        let mut busy = false;

        // Open-loop sessions for the whole run.
        while next_session < end_ns && next_session <= now && sessions.out.len() < OUT_CAP {
            let rng = &mut session_rng;
            let user = rng.below(u64::from(USERS));
            // Skewed towards low program ids (the product of two uniforms).
            let program =
                rng.below(u64::from(CATALOG)) * rng.below(u64::from(CATALOG)) / u64::from(CATALOG);
            let duration = 300 + rng.below(3_300);
            writeln!(sessions.out, "SESSION {user} {program} {duration}").expect("vec write");
            let phase = plan
                .lookup_phase(next_session as f64 / 1e9)
                .map_or(Phase::Closed, |(p, _)| p);
            sessions.owed.push_back(Sent {
                due_ns: next_session,
                phase,
            });
            report.late_max_ms = report.late_max_ms.max((now - next_session) as f64 / 1e6);
            report.sent += 1;
            next_session += secs_ns(1.0 / SESSION_RATE);
            busy = true;
        }

        // Open-loop lookups, then the closed loop.
        let lookup = |line: &mut Line, due_ns: u64, phase: Phase, rng: &mut SplitMix| {
            let nbhd = rng.below(hot_nbhds);
            let program = rng.below(HOT_PROGRAMS);
            writeln!(line.out, "LOOKUP {nbhd} {program}").expect("vec write");
            line.owed.push_back(Sent { due_ns, phase });
        };
        while next_lookup < ladder_end_ns && next_lookup <= now && lookups.out.len() < OUT_CAP {
            let (phase, rate) = plan
                .lookup_phase(next_lookup as f64 / 1e9)
                .expect("inside the open-loop part");
            lookup(&mut lookups, next_lookup, phase, &mut lookup_rng);
            report.late_max_ms = report.late_max_ms.max((now - next_lookup) as f64 / 1e6);
            report.sent += 1;
            next_lookup += secs_ns(1.0 / rate);
            busy = true;
        }
        if now >= ladder_end_ns && now < end_ns {
            while lookups.owed.len() < WINDOW {
                lookup(&mut lookups, now, Phase::Closed, &mut lookup_rng);
                report.sent += 1;
                busy = true;
            }
        }
        report.outstanding_max = report
            .outstanding_max
            .max(sessions.owed.len() + lookups.owed.len());

        busy |= sessions.flush() | lookups.flush();
        busy |= sessions.fill() | lookups.fill();
        let received = now_ns();
        let ms = |sent: &Sent| (received.saturating_sub(sent.due_ns)) as f64 / 1e6;

        sessions.replies(|sent, text| {
            let Some(sent) = sent else {
                report
                    .problems
                    .push(format!("unsolicited session reply {text:?}"));
                return;
            };
            let latency = ms(&sent);
            let ok = match text.strip_prefix("ADMITTED ") {
                Some(gidx) => match gidx.parse::<u64>() {
                    Ok(gidx) if last_gidx.is_none_or(|last| gidx > last) => {
                        last_gidx = Some(gidx);
                        report.admitted += 1;
                        report.admitting_secs = received as f64 / 1e9;
                        true
                    }
                    _ => {
                        report
                            .problems
                            .push(format!("session reply {text:?} out of order"));
                        false
                    }
                },
                None => false,
            };
            if ok {
                report.session_ms.push(latency);
            } else {
                report.failed += 1;
            }
            if let Phase::Step(k) = sent.phase {
                let step = &mut report.steps[k];
                step.session_ms.push(latency);
                if ok {
                    step.completed += 1;
                } else {
                    step.failed += 1;
                }
            }
        });
        lookups.replies(|sent, text| {
            let Some(sent) = sent else {
                report
                    .problems
                    .push(format!("unsolicited lookup reply {text:?}"));
                return;
            };
            let epoch = text
                .strip_prefix("PLACED ")
                .or_else(|| text.strip_prefix("ABSENT "))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok());
            let ok = match epoch {
                Some(epoch) if epoch >= last_epoch => {
                    last_epoch = epoch;
                    true
                }
                Some(_) => {
                    report
                        .problems
                        .push(format!("lookup reply {text:?} out of order"));
                    false
                }
                None => false,
            };
            if !ok {
                report.failed += 1;
                if let Phase::Step(k) = sent.phase {
                    report.steps[k].failed += 1;
                }
                return;
            }
            let latency = ms(&sent);
            match sent.phase {
                Phase::Nominal => report.lookup_ms.push(latency),
                Phase::Step(k) => {
                    report.steps[k].lookup_ms.push(latency);
                    report.steps[k].completed += 1;
                }
                Phase::Closed => {
                    if received <= end_ns {
                        report.closed_replies += 1;
                    }
                }
            }
        });

        if now >= end_ns {
            let done = *done_at.get_or_insert_with(Instant::now);
            let settled = sessions.owed.is_empty() && lookups.owed.is_empty();
            let broken = sessions.closed || lookups.closed;
            if settled || broken || done.elapsed() > REPLY_GRACE {
                break;
            }
        }
        if !busy {
            std::thread::yield_now();
        }
    }
    let missing = (sessions.owed.len() + lookups.owed.len()) as u64;
    if missing > 0 {
        report.failed += missing;
        report
            .problems
            .push(format!("{missing} requests got no reply"));
    }
    term.store(true, Ordering::SeqCst);
    report
}

/// The plant's shape, the bound server, and the client's two connections.
struct Rig {
    shape: Trace,
    server: Server,
    sessions: Line,
    lookups: Line,
}

fn set_up(
    path: &Path,
    seed: u64,
    config: &SimConfig,
    factory: &dyn StrategyFactory,
) -> Result<Rig, String> {
    let _ = std::fs::remove_file(path);
    let shape = generate(&SynthConfig {
        users: USERS,
        programs: CATALOG,
        days: 1,
        seed,
        ..SynthConfig::powerinfo()
    });
    // Build (and drain) the online engine once, so set-up pays for the
    // plant and engine construction the served run repeats.
    serve_serial(&spec_of(&shape), config, factory, |_| Ok(())).map_err(|e| e.to_string())?;
    let server = Server::unix(path).map_err(|e| format!("bind: {e}"))?;
    let sessions = Line::connect(path)?;
    let lookups = Line::connect(path)?;
    Ok(Rig {
        shape,
        server,
        sessions,
        lookups,
    })
}

fn spec_of(shape: &Trace) -> OnlineSpec<'_> {
    OnlineSpec {
        catalog: shape.catalog(),
        user_count: shape.user_count(),
        days: 1,
        capacity: 1 << 20,
        schedule_records: None,
    }
}

/// What the served run measured on the server's side.
struct Served {
    stats: ServeStats,
    report: SimReport,
    client: ClientReport,
    wall: f64,
    server_cpu: f64,
    online: Ledger,
}

fn serve(rig: Rig, args: &Args, factory: &dyn StrategyFactory) -> Result<Served, String> {
    let Rig {
        shape,
        server,
        sessions,
        lookups,
    } = rig;
    let config = SimConfig::default();
    let term = AtomicBool::new(false);
    let mut measured = None;
    let (stats, report) = serve_serial(&spec_of(&shape), &config, factory, |engine| {
        let neighborhoods = engine.neighborhoods() as u64;
        std::thread::scope(|scope| {
            let client = scope
                .spawn(|| run_client(sessions, lookups, neighborhoods, args.seed, args.run, &term));
            let mut clock = WallClock::default();
            let server_config = ServerConfig::default();
            let cpu = thread_cpu_s();
            let started = Instant::now();
            let (stats, online) = if args.traced {
                let mut traced = TracedOnline::new(engine);
                let stats = server.run(&mut traced, &mut clock, &term, &server_config);
                (stats, traced.into_ledger())
            } else {
                let stats = server.run(engine, &mut clock, &term, &server_config);
                (stats, Ledger::default())
            };
            let wall = started.elapsed().as_secs_f64();
            let server_cpu = thread_cpu_s() - cpu;
            // A failed server never raises `term`; the client then stops
            // at its grace deadline.
            let client = client.join().expect("the serve client panicked");
            measured = Some((client, wall, server_cpu, online));
            stats
        })
    })
    .map_err(|e| e.to_string())?;
    let (client, wall, server_cpu, online) = measured.expect("the serve callback ran");
    Ok(Served {
        stats,
        report,
        client,
        wall,
        server_cpu,
        online,
    })
}

/// Per-span cost of the decorators' two clock reads, for the traced
/// run's overhead estimate.
fn span_cost_s() -> f64 {
    const N: u32 = 100_000;
    let started = Instant::now();
    for _ in 0..N {
        std::hint::black_box(Instant::now().elapsed());
    }
    started.elapsed().as_secs_f64() / f64::from(N)
}

pub fn serve_mixed(args: &Args) -> Result<Outcome, String> {
    let path = args.workdir.join("serve.sock");
    let config = SimConfig::default();
    let ledger = SharedLedger::default();
    let factory: Arc<dyn StrategyFactory> = if args.traced {
        Arc::new(TracedFactory::new(
            StrategySpec::Lru.factory(),
            ledger.clone(),
        ))
    } else {
        StrategySpec::Lru.factory()
    };
    // The pace clock's thread runs only through set-up: the served run
    // needs both cores, for the server and the client.
    let pace = PaceClock::start();
    let (rig, setup_s, setup_wall) = repeated_setup(&pace, || {
        set_up(&path, args.seed, &config, factory.as_ref())
    })?;
    drop(pace);
    ledger.take();
    reset_peak_rss();
    let cpu = process_cpu_s();
    let served = serve(rig, args, factory.as_ref())?;
    let cpu = process_cpu_s() - cpu;
    let peak_rss = peak_rss_mb();
    let _ = std::fs::remove_file(&path);

    let Served {
        stats,
        report,
        mut client,
        wall,
        server_cpu,
        online,
    } = served;
    let mut out = Outcome {
        attempted: client.sent,
        failed: client.failed,
        problems: std::mem::take(&mut client.problems),
        ..Outcome::default()
    };
    out.check(report.sessions == client.admitted, || {
        format!(
            "the drained report has {} sessions, the client saw {} ADMITTED",
            report.sessions, client.admitted
        )
    });
    out.check(stats.admitted == client.admitted, || {
        format!(
            "the server admitted {}, the client saw {} ADMITTED",
            stats.admitted, client.admitted
        )
    });

    if !args.traced {
        out.set(
            "sessions_per_s",
            client.admitted as f64 / client.admitting_secs.max(1e-9),
        );
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", peak_rss);
        return Ok(out);
    }

    let cache = ledger.take();
    let session_samples = client.session_ms.len() as f64;
    let lookup_samples = client.lookup_ms.len() as f64;
    out.set(
        "serve.session_p50_ms",
        quantile(&mut client.session_ms, 0.5),
    );
    out.set(
        "serve.session_p99_ms",
        quantile(&mut client.session_ms, 0.99),
    );
    out.set("serve.session_samples", session_samples);
    out.set("serve.lookup_p50_ms", quantile(&mut client.lookup_ms, 0.5));
    out.set("serve.lookup_p99_ms", quantile(&mut client.lookup_ms, 0.99));
    out.set("serve.lookup_samples", lookup_samples);
    let mut sustained = 0.0;
    for (k, step) in client.steps.iter_mut().enumerate() {
        let lookup_p99 = quantile(&mut step.lookup_ms, 0.99);
        let session_p99 = quantile(&mut step.session_ms, 0.99);
        let passed =
            step.failed == 0 && lookup_p99 <= LOOKUP_LIMIT_MS && session_p99 <= SESSION_LIMIT_MS;
        eprintln!(
            "perfbench: serve-mixed step {k}: {} lookups/s offered, lookup p99 {lookup_p99:.3} ms, \
             session p99 {session_p99:.1} ms, {} failed: {}",
            LADDER[k],
            step.failed,
            if passed { "met" } else { "missed" }
        );
        if passed {
            sustained = step.completed as f64 / client.step_secs;
        }
    }
    out.set("serve.sustained_rps", sustained);
    out.set(
        "serve.lookup_peak_rps",
        client.closed_replies as f64 / client.closed_secs.max(1e-9),
    );
    out.set("serve.client_late_ms", client.late_max_ms);
    out.set("serve.outstanding_max", client.outstanding_max as f64);
    out.set("serve.server_cpu_s", server_cpu);
    let online_s = online.submit.secs() + online.advance_to.secs() + online.lookup.secs();
    out.set("serve.wire_cpu_s", (server_cpu - online_s).max(0.0));
    out.set(
        "serve.cache_hit_ratio",
        stats.cache_hits as f64 / stats.lookups.max(1) as f64,
    );
    out.set("serve.cache_stale", stats.cache_stale as f64);
    out.set("serve.shed", stats.shed as f64);

    out.set("sim.online.submit.calls", online.submit.calls as f64);
    out.set("sim.online.submit.s", online.submit.secs());
    out.set(
        "sim.online.advance_to.calls",
        online.advance_to.calls as f64,
    );
    out.set("sim.online.advance_to.s", online.advance_to.secs());
    out.set("sim.online.lookup.calls", online.lookup.calls as f64);
    out.set("sim.online.lookup.s", online.lookup.secs());
    out.set("sim.online.epochs", online.epochs as f64);
    out.set("sim.run.s", wall);
    let cache_s = cache.child_ns() as f64 / 1e9;
    out.set("sim.self_s", (online_s - cache_s).max(0.0));
    out.set("sim.cpu_share", cpu / (2.0 * wall));

    out.set("cache.on_access.calls", cache.on_access.calls as f64);
    out.set("cache.on_access.s", cache.on_access.secs());
    out.set(
        "cache.on_access.ns_per_call",
        cache.on_access.ns as f64 / cache.on_access.calls.max(1) as f64,
    );
    out.set("cache.on_access.share", cache.on_access.secs() / wall);
    out.set("cache.ops", cache.on_access.items as f64);
    out.set("cache.prepare.s", cache.prepare.secs());
    let c = &report.cache;
    let misses = c.miss_uncached + c.miss_not_materialized + c.miss_peer_busy;
    out.set(
        "cache.hit_rate",
        c.hits as f64 / (c.hits + misses).max(1) as f64,
    );

    out.check(online_s <= wall, || {
        format!("decision-tier spans ({online_s:.3} s) exceed the server span ({wall:.3} s)")
    });
    out.check(cache_s <= online_s, || {
        format!("cache spans ({cache_s:.3} s) exceed the decision-tier spans ({online_s:.3} s)")
    });
    let spans = online.submit.calls
        + online.advance_to.calls
        + online.lookup.calls
        + cache.on_access.calls
        + cache.prepare.calls;
    out.set(
        "tracing.overhead",
        spans as f64 * span_cost_s() / server_cpu.max(1e-9),
    );
    out.set("tracing.layer_sum_share", online_s / wall);
    out.set("tracing.traced_runs", 1.0);
    out.set("host.pace_ratio", setup_s / setup_wall);
    Ok(out)
}
