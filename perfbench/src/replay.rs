//! The offline workload, `replay-serial` (why it exists: `README.md`).
//!
//! It builds its input from the seed, replays it once untimed, then
//! replays it again and again until the run's time is up. Every replay's
//! canonical report bytes must equal the first replay's, and — for the
//! seeds in `recorded.txt` — the digest recorded for that seed. A traced run interleaves
//! plain and traced replays, so the tracing overhead and the byte
//! identity of traced reports are measured on the same input.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cablevod_cache::{StrategyFactory, StrategySpec};
use cablevod_sim::{report_to_json_string, RunOutcome, SimConfig, SimReport, Simulation};
use cablevod_trace::columnar::DEFAULT_CHUNK_SIZE;
use cablevod_trace::source::TraceSource;
use cablevod_trace::synth::{generate_to_disk, SynthConfig};
use cablevod_trace::ColumnarReader;

use crate::spans::{Ledger, SharedLedger, TracedFactory, TracedSource};
use crate::stats::{
    fnv64, median, peak_rss_mb, repeated_setup, reset_peak_rss, thread_cpu_s, PaceClock,
};
use crate::{Args, Outcome};

/// The paper's full subscriber population and catalog (§V-B).
const FULL_USERS: u32 = 41_698;
const CATALOG: u32 = 8_278;
/// One week of sessions.
const DAYS: u64 = 7;
const NEIGHBORHOOD: u32 = 500;

/// Digests of canonical report bytes, recorded per workload and seed.
const RECORDED: &str = include_str!("../recorded.txt");

fn synth(users: u32, seed: u64) -> SynthConfig {
    SynthConfig {
        users,
        programs: CATALOG,
        days: DAYS,
        seed,
        ..SynthConfig::powerinfo()
    }
}

fn replay_config(strategy: StrategySpec) -> SimConfig {
    SimConfig::paper_default()
        .with_neighborhood_size(NEIGHBORHOOD)
        .with_warmup_days(2)
        .with_strategy(strategy)
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The digest recorded for `workload` at `seed`, if any.
fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        if fields.next()? != workload || fields.next()?.parse::<u64>().ok()? != seed {
            return None;
        }
        u64::from_str_radix(fields.next()?, 16).ok()
    })
}

/// A run's measuring time: another iteration starts only when one as
/// long as the longest so far still ends within the run, so a run
/// measures for at most its time (and at least one iteration).
struct Budget {
    started: Instant,
    run: Duration,
    longest: Duration,
    iteration: Instant,
}

impl Budget {
    fn new(run: Duration) -> Self {
        let now = Instant::now();
        Budget {
            started: now,
            run,
            longest: Duration::ZERO,
            iteration: now,
        }
    }

    /// Ends an iteration; returns whether to start another.
    fn another(&mut self) -> bool {
        self.longest = self.longest.max(self.iteration.elapsed());
        self.iteration = Instant::now();
        self.started.elapsed() + self.longest <= self.run
    }
}

/// One plain replay's duration (in seconds and in pace seconds) and its
/// own peak RSS.
struct Measured {
    wall: f64,
    paced: f64,
    peak_rss_mb: f64,
}

fn measured<T>(
    pace: &PaceClock,
    replay: impl FnOnce() -> Result<T, String>,
) -> Result<(T, Measured), String> {
    reset_peak_rss();
    let (started, mark) = (Instant::now(), pace.now());
    let value = replay()?;
    let wall = started.elapsed().as_secs_f64();
    let paced = pace.since(mark);
    Ok((
        value,
        Measured {
            wall,
            paced,
            peak_rss_mb: peak_rss_mb(),
        },
    ))
}

/// Checks a replay's canonical report bytes against the run's reference
/// (the first replay's) and the recorded digest.
struct ReportCheck {
    workload: &'static str,
    recorded: Option<u64>,
    reference: Option<String>,
    records: u64,
}

impl ReportCheck {
    fn new(workload: &'static str, seed: u64, records: u64) -> Self {
        ReportCheck {
            workload,
            recorded: recorded_digest(workload, seed),
            reference: None,
            records,
        }
    }

    /// Checks one replay's report and returns whether it matched.
    fn check(&mut self, report: &SimReport, out: &mut Outcome) -> bool {
        let mut ok = true;
        if report.sessions != self.records {
            out.problems.push(format!(
                "report has {} sessions, the trace {} records",
                report.sessions, self.records
            ));
            ok = false;
        }
        let bytes = report_to_json_string(report);
        match &self.reference {
            None => {
                let digest = fnv64(bytes.as_bytes());
                eprintln!("perfbench: {} report digest {digest:016x}", self.workload);
                if let Some(recorded) = self.recorded {
                    if recorded != digest {
                        out.problems.push(format!(
                            "report digest {digest:016x} differs from the recorded {recorded:016x}"
                        ));
                        ok = false;
                    }
                }
                self.reference = Some(bytes);
            }
            Some(reference) => {
                if *reference != bytes {
                    out.problems
                        .push("a replay's report bytes differ from the first replay's".into());
                    ok = false;
                }
            }
        }
        ok
    }
}

/// One traced replay's wall time, CPU time and spans.
struct TracedRun {
    wall: f64,
    cpu: f64,
    ledger: Ledger,
}

/// Folds the traced replays into the per-layer metrics. Each replay's
/// wall time is the parent span its child spans nest in.
fn layer_metrics(runs: &[TracedRun], plain_rate: &[f64], traced_rate: &[f64], out: &mut Outcome) {
    let n = runs.len().max(1) as f64;
    let wall: f64 = runs.iter().map(|r| r.wall).sum();
    let mut total = Ledger::default();
    for run in runs {
        let child_s = run.ledger.child_ns() as f64 / 1e9;
        out.check(child_s <= run.wall, || {
            format!(
                "child spans ({child_s:.3} s) exceed their replay's span ({:.3} s)",
                run.wall
            )
        });
        total.merge(&run.ledger);
    }
    let share = |s: f64| if wall > 0.0 { s / wall } else { 0.0 };
    out.set("trace.read_chunk.calls", total.read_chunk.calls as f64 / n);
    out.set("trace.read_chunk.s", total.read_chunk.secs() / n);
    out.set(
        "trace.read_chunk.records",
        total.read_chunk.items as f64 / n,
    );
    out.set("trace.read_chunk.share", share(total.read_chunk.secs()));
    out.set("cache.on_access.calls", total.on_access.calls as f64 / n);
    out.set("cache.on_access.s", total.on_access.secs() / n);
    out.set(
        "cache.on_access.ns_per_call",
        total.on_access.ns as f64 / total.on_access.calls.max(1) as f64,
    );
    out.set("cache.on_access.share", share(total.on_access.secs()));
    out.set("cache.ops", total.on_access.items as f64 / n);
    out.set("cache.prepare.s", total.prepare.secs() / n);
    let child_s = total.child_ns() as f64 / 1e9;
    out.set("sim.self_s", (wall - child_s) / n);
    out.set(
        "sim.cpu_share",
        share(runs.iter().map(|r| r.cpu).sum::<f64>()),
    );
    out.set("tracing.layer_sum_share", share(child_s));
    out.set("tracing.traced_runs", runs.len() as f64);
    out.set(
        "tracing.overhead",
        1.0 - median(traced_rate) / median(plain_rate).max(f64::EPSILON),
    );
}

fn hit_rate(report: &SimReport) -> f64 {
    let c = &report.cache;
    let misses = c.miss_uncached + c.miss_not_materialized + c.miss_peer_busy;
    c.hits as f64 / (c.hits + misses).max(1) as f64
}

/// Generates the week straight to a time-major `.cvtc` at `path`.
fn generate_file(config: &SynthConfig, path: &Path) -> Result<ColumnarReader, String> {
    generate_to_disk(config, path, DEFAULT_CHUNK_SIZE).map_err(io_err)?;
    ColumnarReader::open(path).map_err(io_err)
}

fn replay(
    source: &dyn TraceSource,
    config: &SimConfig,
    factory: Arc<dyn StrategyFactory>,
) -> Result<RunOutcome, String> {
    Simulation::over(source)
        .config(config.clone())
        .strategy_factory(factory)
        .serial()
        .run()
        .map_err(io_err)
}

/// `replay-serial`: the whole-plant serial streaming replay of the full
/// population's week under LFU.
pub fn replay_serial(args: &Args) -> Result<Outcome, String> {
    const WORKLOAD: &str = "replay-serial";
    let path = args.workdir.join("full-week.cvtc");
    let synth_config = synth(FULL_USERS, args.seed);
    let pace = PaceClock::start();
    let (reader, setup_s, _) = repeated_setup(&pace, || generate_file(&synth_config, &path))?;
    let mut out = Outcome::default();
    out.set("trace.generate_s", setup_s);

    let strategy = StrategySpec::default_lfu();
    let config = replay_config(strategy);
    let records = reader.record_count();
    let mut check = ReportCheck::new(WORKLOAD, args.seed, records);
    let ledger = SharedLedger::default();
    let traced_source = TracedSource::new(&reader, ledger.clone());
    let traced_factory: Arc<dyn StrategyFactory> =
        Arc::new(TracedFactory::new(strategy.factory(), ledger.clone()));

    // One untimed replay first, so the timed ones find the file's pages
    // cached and the heap grown. Its report is checked like the others.
    let warm = replay(&reader, &config, strategy.factory())?;
    out.attempted += records;
    if !check.check(&warm.report, &mut out) {
        out.failed += records;
    }
    drop(warm);

    let mut budget = Budget::new(args.run);
    let mut plain = Vec::new();
    let mut plain_rate = Vec::new();
    let mut traced_rate = Vec::new();
    let mut traced_runs = Vec::new();
    let mut last_report;
    let mut identical = 0u64;
    loop {
        let (outcome, m) = measured(&pace, || replay(&reader, &config, strategy.factory()))?;
        out.attempted += records;
        if !check.check(&outcome.report, &mut out) {
            out.failed += records;
        }
        plain_rate.push(outcome.report.sessions as f64 / m.wall);
        plain.push(m);
        out.set("trace.decode_bytes", outcome.telemetry.decode.bytes as f64);
        last_report = outcome.report;

        if args.traced {
            ledger.take();
            let cpu = thread_cpu_s();
            let started = Instant::now();
            let outcome = replay(&traced_source, &config, traced_factory.clone())?;
            let wall = started.elapsed().as_secs_f64();
            let cpu = thread_cpu_s() - cpu;
            out.attempted += records;
            if check.check(&outcome.report, &mut out) {
                identical += 1;
            } else {
                out.failed += records;
            }
            traced_rate.push(outcome.report.sessions as f64 / wall);
            traced_runs.push(TracedRun {
                wall,
                cpu,
                ledger: ledger.take(),
            });
        }
        if !budget.another() {
            break;
        }
    }

    if args.traced {
        layer_metrics(&traced_runs, &plain_rate, &traced_rate, &mut out);
        let walls: Vec<f64> = traced_runs.iter().map(|r| r.wall).collect();
        out.set("sim.run.s", median(&walls));
        out.set("check.reports_identical", identical as f64);
        out.set("cache.hit_rate", hit_rate(&last_report));
        let speeds: Vec<f64> = plain.iter().map(|m| m.paced / m.wall).collect();
        out.set("host.pace_ratio", median(&speeds));
    } else {
        let paced_rate: Vec<f64> = plain.iter().map(|m| records as f64 / m.paced).collect();
        let peaks: Vec<f64> = plain.iter().map(|m| m.peak_rss_mb).collect();
        eprintln!(
            "perfbench: {WORKLOAD}: {} replays, sessions/pace-s {paced_rate:.0?}, \
             sessions/s {plain_rate:.0?}, peak RSS MiB {peaks:.1?}",
            plain.len()
        );
        out.set("sessions_per_s", median(&paced_rate));
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", median(&peaks));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cablevod_hfc::units::SimDuration;
    use cablevod_trace::rechunk::rechunk_by_neighborhood;

    fn small(seed: u64) -> SynthConfig {
        SynthConfig {
            users: 1_200,
            programs: 200,
            days: 3,
            seed,
            ..SynthConfig::powerinfo()
        }
    }

    fn scratch_file(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("perfbench-{}-{name}", std::process::id()))
    }

    /// A missed forward in a decorator switches the driver path silently;
    /// the traced run must replay to the same bytes on the same path.
    #[test]
    fn traced_replays_match_plain_ones_on_the_same_path() {
        let time_major = scratch_file("tm.cvtc");
        let nbhd_major = scratch_file("nm.cvtc");
        let reader = generate_file(&small(7), &time_major).expect("generates");
        rechunk_by_neighborhood(&reader, &nbhd_major, 100, 4_096).expect("re-chunks");
        let grouped = ColumnarReader::open(&nbhd_major).expect("opens");
        let global = StrategySpec::GlobalLfu {
            history: SimDuration::from_days(7),
            lag: SimDuration::from_minutes(30),
        };
        // Oracle needs schedules (`needs_schedule`), staged by `prepare`.
        let cases = [
            (&reader, StrategySpec::default_lfu(), None),
            (&reader, StrategySpec::default_oracle(), None),
            (&grouped, global, Some(2)),
        ];
        for (source, strategy, workers) in cases {
            let config = replay_config(strategy).with_neighborhood_size(100);
            let run = |source: &dyn TraceSource, factory: Arc<dyn StrategyFactory>| {
                let sim = Simulation::over(source)
                    .config(config.clone())
                    .strategy_factory(factory);
                match workers {
                    Some(n) => sim.threads(n),
                    None => sim.serial(),
                }
                .run()
                .expect("replays")
            };
            let ledger = SharedLedger::default();
            let plain = run(source, strategy.factory());
            let traced = run(
                &TracedSource::new(source, ledger.clone()),
                Arc::new(TracedFactory::new(strategy.factory(), ledger.clone())),
            );
            let spans = ledger.take();
            assert_eq!(
                report_to_json_string(&traced.report),
                report_to_json_string(&plain.report)
            );
            assert_eq!(spans.on_access.calls, source.record_count());
            assert!(spans.read_chunk.calls > 0);
            assert_eq!(spans.prepare.calls, source.record_count());
            if workers.is_some() {
                assert!(plain.telemetry.fastpath && traced.telemetry.fastpath);
                let chunks = source.chunk_count() as u64;
                assert_eq!(traced.telemetry.decode.chunks, chunks);
                assert_eq!(plain.telemetry.decode.chunks, chunks);
                assert!(spans.sync_global.calls > 0);
            } else {
                assert_eq!(spans.sync_global.calls, 0);
            }
        }
        std::fs::remove_file(&time_major).ok();
        std::fs::remove_file(&nbhd_major).ok();
    }

    #[test]
    fn recorded_digests_parse() {
        assert_eq!(recorded_digest("no-such-workload", 1), None);
        for line in RECORDED.lines().filter(|l| !l.starts_with('#')) {
            let mut fields = line.split_whitespace();
            let (workload, seed) = (fields.next().expect("workload"), fields.next());
            let seed = seed.and_then(|s| s.parse().ok()).expect("seed");
            assert!(recorded_digest(workload, seed).is_some(), "{line}");
        }
    }
}
