//! Online-serve acceptance tests: loopback equivalence between the
//! clocked online engine and the offline replay, explicit overload
//! shedding and input framing at the socket ingress, and
//! epoch-correctness of the front tier's response cache.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use proptest::prelude::*;

use cablevod_cache::StrategySpec;
use cablevod_hfc::units::SimDuration;
use cablevod_serve::clock::AcceleratedClock;
use cablevod_serve::replay::replay_trace;
use cablevod_serve::server::{ServeStats, Server, ServerConfig, MAX_LINE};
use cablevod_serve::ResponseCache;
use cablevod_sim::engine::online::serve_serial;
use cablevod_sim::ThreadPolicy::Serial;
use cablevod_sim::{
    report_from_json_str, report_to_json_string, AdmissionMode, FaultPlan, OnlineSpec, RetryPolicy,
    SimConfig, SimReport,
};
use cablevod_tests::{simulate, tiny_config};
use cablevod_trace::synth::generate;

/// Every strategy family the decision tier can serve online without a
/// future schedule, plus Oracle (replay mode carries the records).
fn zoo() -> Vec<(&'static str, StrategySpec)> {
    vec![
        ("no_cache", StrategySpec::NoCache),
        ("lru", StrategySpec::Lru),
        (
            "lfu",
            StrategySpec::Lfu {
                history: SimDuration::from_days(2),
            },
        ),
        (
            "global_lfu",
            StrategySpec::GlobalLfu {
                history: SimDuration::from_days(2),
                lag: SimDuration::from_hours(6),
            },
        ),
        (
            "oracle",
            StrategySpec::Oracle {
                lookahead: SimDuration::from_days(2),
            },
        ),
    ]
}

/// An accelerated-clock serve run over a committed trace produces a
/// final report byte-identical to the offline replay, per strategy.
#[test]
fn loopback_matches_offline_replay() {
    let trace = generate(&tiny_config(300, 60, 4, 7));
    for (name, spec) in zoo() {
        let config = SimConfig::default().with_strategy(spec);
        let offline = simulate(&trace, &config, Serial);
        let offline_bytes = report_to_json_string(&offline);

        let mut clock = AcceleratedClock::default();
        let outcome = replay_trace(&trace, &config, spec.factory().as_ref(), &mut clock)
            .unwrap_or_else(|e| panic!("{name} serve run: {e}"));
        assert_eq!(
            outcome.report, offline,
            "{name}: online report diverged from offline"
        );
        assert_eq!(
            report_to_json_string(&outcome.report),
            offline_bytes,
            "{name}: canonical JSON bytes diverged"
        );
        assert_eq!(outcome.submitted, trace.len() as u64, "{name}");
        assert!(
            outcome.latency.count() == trace.len() as u64,
            "{name}: one latency sample per session"
        );
    }
}

/// Fault plans and enforcing admission/retry ride through the online
/// tier unchanged.
#[test]
fn loopback_matches_offline_under_faults() {
    let trace = generate(&tiny_config(240, 30, 3, 11));
    let neighborhoods = 240u32.div_ceil(60);
    let config = SimConfig::default()
        .with_strategy(StrategySpec::Lru)
        .with_faults(FaultPlan::seeded(
            42,
            neighborhoods,
            SimDuration::from_days(3),
            4,
            2,
        ))
        .with_admission(AdmissionMode::Enforcing)
        .with_retry(RetryPolicy::paper_default());
    let offline = simulate(&trace, &config, Serial);
    assert!(offline.degradation.is_some(), "fault plan must engage");

    let mut clock = AcceleratedClock::default();
    let outcome = replay_trace(
        &trace,
        &config,
        config.strategy().factory().as_ref(),
        &mut clock,
    )
    .expect("online serve run");
    assert_eq!(outcome.report, offline, "under faults");
}

/// The canonical report encoding round-trips (the serve bin's final
/// line must be parseable back into the same report).
#[test]
fn report_json_round_trips() {
    let trace = generate(&tiny_config(200, 40, 3, 3));
    let config = SimConfig::default();
    let report = simulate(&trace, &config, Serial);
    let text = report_to_json_string(&report);
    let back = report_from_json_str(&text).expect("parse back");
    assert_eq!(back, report);
}

/// A full ingress queue sheds with an explicit `OVERLOADED` reply —
/// deterministic counts, nothing blocked, nothing silently dropped —
/// and the shed/admitted split shows up in the final stats and report.
#[test]
fn overload_sheds_explicitly_and_drains_on_term() {
    const QUEUE_CAP: usize = 4;
    const EXTRA: usize = 3;

    let (path, term, server_thread) = spawn_server(
        "ovl",
        ServerConfig {
            queue_cap: QUEUE_CAP,
            max_sessions: None,
        },
    );

    // Wait for the socket to accept, then pin the first empty advance by
    // completing one STATS round-trip before any SESSION is sent.
    let stream = connect_with_retry(&path);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut stream = stream;
    let mut line = String::new();

    stream.write_all(b"STATS\n").expect("send STATS");
    reader.read_line(&mut line).expect("STATS reply");
    assert!(line.starts_with("STATS "), "unexpected: {line}");

    // Burst: the queue holds QUEUE_CAP, the rest must shed immediately.
    let mut burst = String::new();
    for i in 0..(QUEUE_CAP + EXTRA) {
        burst.push_str(&format!("SESSION {i} 0 600\n"));
    }
    stream.write_all(burst.as_bytes()).expect("send burst");

    // The shed count is observable while the queue is still parked
    // (never blocked indefinitely): poll STATS on a second connection.
    let mut stats = connect_with_retry(&path);
    let mut stats_reader = BufReader::new(stats.try_clone().expect("clone stream"));
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        stats.write_all(b"STATS\n").expect("poll STATS");
        let mut reply = String::new();
        stats_reader.read_line(&mut reply).expect("STATS reply");
        if reply.contains(&format!("\"shed\":{EXTRA}")) {
            assert!(
                reply.contains(&format!("\"queued\":{QUEUE_CAP}")),
                "queue should be parked full: {reply}"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shed count never reached {EXTRA}: {reply}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // SIGTERM equivalent: drain. Every queued session is admitted, every
    // shed one got its explicit reply, in request order.
    term.store(true, Ordering::SeqCst);
    let mut replies = Vec::new();
    for _ in 0..(QUEUE_CAP + EXTRA) {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("drain reply");
        replies.push(reply.trim().to_string());
    }
    let admitted = replies
        .iter()
        .filter(|r| r.starts_with("ADMITTED "))
        .count();
    let overloaded = replies
        .iter()
        .filter(|r| r.as_str() == "OVERLOADED")
        .count();
    assert_eq!(
        admitted, QUEUE_CAP,
        "all queued sessions admitted: {replies:?}"
    );
    assert_eq!(
        overloaded, EXTRA,
        "all overflow shed explicitly: {replies:?}"
    );

    let (stats, report) = server_thread.join().expect("server thread");
    assert_eq!(stats.shed, EXTRA as u64);
    assert_eq!(stats.admitted, QUEUE_CAP as u64);
    assert_eq!(
        report.sessions, QUEUE_CAP as u64,
        "shed sessions never reach the report"
    );
    let _ = std::fs::remove_file(&path);
}

/// Input framing against a real server: a line that outgrows
/// [`MAX_LINE`] without a `\n` is answered `ERR line too long` and its
/// connection closed, while a pipelined burst of well-formed requests on
/// another connection gets exactly one reply per request, in order.
#[test]
fn overlong_line_is_refused_while_other_connections_stay_in_order() {
    const GROUPS: usize = 400;

    let (path, term, server_thread) = spawn_server("frame", ServerConfig::default());

    // The hostile client never sends a newline.
    let mut hostile = connect_with_retry(&path);
    hostile
        .write_all(&vec![b'A'; 2 * MAX_LINE])
        .expect("send an unterminated line");
    let mut refused = String::new();
    hostile
        .read_to_string(&mut refused)
        .expect("reply, then the server closes");
    assert_eq!(refused, "ERR line too long\n");

    // A pipelined burst spanning several socket reads: each group is
    // STATS, a valid LOOKUP and an out-of-range LOOKUP. Every lookup
    // counts, so the k-th STATS reply must report exactly 2k lookups.
    let good = connect_with_retry(&path);
    let mut reader = BufReader::new(good.try_clone().expect("clone stream"));
    let mut good = good;
    good.write_all("STATS\nLOOKUP 0 0\nLOOKUP 99 0\n".repeat(GROUPS).as_bytes())
        .expect("send burst");
    let mut replies = (&mut reader).lines();
    for k in 0..GROUPS {
        let mut next = || replies.next().expect("a reply").expect("readable reply");
        let (stats, found, unknown) = (next(), next(), next());
        assert!(
            stats.starts_with("STATS ")
                && stats.contains(&format!("\"lookups\":{},", 2 * k))
                && (found.starts_with("ABSENT ") || found.starts_with("PLACED "))
                && unknown.starts_with("ERR "),
            "group {k}: {stats} | {found} | {unknown}"
        );
    }

    term.store(true, Ordering::SeqCst);
    let mut rest = String::new();
    reader
        .read_to_string(&mut rest)
        .expect("the server drains and closes");
    assert_eq!(rest, "", "no reply beyond one per request");
    let (stats, _) = server_thread.join().expect("server thread");
    assert_eq!(stats.lookups, 2 * GROUPS as u64);
    let _ = std::fs::remove_file(&path);
}

/// Binds a fresh Unix socket and serves it on a thread over a small LRU
/// plant. The accelerated clock is pinned: simulated "now" stays 0, so
/// once the first (empty) advance lands, the ingress queue can only
/// drain again at shutdown. Raise the returned flag to drain and stop.
fn spawn_server(
    tag: &str,
    config: ServerConfig,
) -> (
    PathBuf,
    Arc<AtomicBool>,
    JoinHandle<(ServeStats, SimReport)>,
) {
    let path =
        std::env::temp_dir().join(format!("cablevod-serve-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let term = Arc::new(AtomicBool::new(false));
    let server = Server::unix(&path).expect("bind unix socket");
    let server_term = Arc::clone(&term);
    let server_thread = std::thread::spawn(move || {
        let shape = generate(&tiny_config(120, 20, 2, 5));
        let spec = OnlineSpec {
            catalog: shape.catalog(),
            user_count: shape.user_count(),
            days: shape.days(),
            capacity: 1 << 16,
            schedule_records: None,
        };
        let strategy = StrategySpec::Lru.factory();
        serve_serial(&spec, &SimConfig::default(), strategy.as_ref(), |engine| {
            let mut clock = AcceleratedClock::default();
            server.run(engine, &mut clock, &server_term, &config)
        })
        .expect("serve run")
    });
    (path, term, server_thread)
}

/// Connects once the server listens, with a 30 s read timeout.
fn connect_with_retry(path: &std::path::Path) -> UnixStream {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("read timeout");
                return stream;
            }
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("connect {}: {e}", path.display()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Under randomized interleavings of lookups, inserts and placement
    /// changes, the response cache never serves an epoch-stale answer.
    #[test]
    fn response_cache_never_serves_stale(
        ops in prop::collection::vec((0u8..3, 0u32..6, 0u32..1_000), 1..120),
    ) {
        let mut cache: ResponseCache<u32, (u64, u32)> = ResponseCache::new();
        // Model: what was inserted per key, and at which epoch.
        let mut model: std::collections::HashMap<u32, (u64, u32)> =
            std::collections::HashMap::new();
        let mut epoch = 0u64;
        for (op, key, val) in ops {
            match op {
                // Placement changed: bump the epoch.
                0 => {
                    epoch += 1;
                    cache.advance_epoch(epoch);
                }
                // Decision-tier answer cached at the current epoch.
                1 => {
                    cache.insert(key, (epoch, val));
                    model.insert(key, (epoch, val));
                }
                // Front-tier lookup: a hit must be the value inserted at
                // the *current* epoch — never an older one.
                _ => {
                    if let Some((stamped, got)) = cache.get(&key) {
                        let (model_epoch, model_val) =
                            model.get(&key).copied().expect("hit implies insert");
                        prop_assert_eq!(stamped, epoch, "epoch-stale answer served");
                        prop_assert_eq!(model_epoch, epoch);
                        prop_assert_eq!(got, model_val);
                    }
                }
            }
        }
        prop_assert_eq!(cache.epoch(), epoch);
    }
}
