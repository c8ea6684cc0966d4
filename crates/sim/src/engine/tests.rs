//! Engine unit tests: physics invariants of the serial reference path,
//! equivalence of the sharded and streaming drivers, and lifecycle
//! internals (the active-session slab).

use super::lifecycle::ActiveSessions;
use super::*;
use cablevod_cache::StrategySpec;
use cablevod_hfc::ids::{ProgramId, UserId};
use cablevod_hfc::units::{BitRate, DataSize, SimDuration};
use cablevod_trace::record::Trace;
use cablevod_trace::source::ChunkedTrace;
use cablevod_trace::synth::{generate, SynthConfig};

use crate::simulation::ThreadPolicy::{self, Fixed, Serial};
use crate::Simulation;

/// One run through the [`Simulation`] front door: the serial driver, or
/// the sharded one over a fixed worker count.
fn try_simulate<S: TraceSource + ?Sized>(
    source: &S,
    config: &SimConfig,
    threads: ThreadPolicy,
) -> Result<SimReport, SimError> {
    Simulation::over(source)
        .config(config.clone())
        .thread_policy(threads)
        .run()
        .map(|outcome| outcome.report)
}

/// [`try_simulate`], panicking at the caller's line on failure.
#[track_caller]
fn simulate<S: TraceSource + ?Sized>(
    source: &S,
    config: &SimConfig,
    threads: ThreadPolicy,
) -> SimReport {
    try_simulate(source, config, threads).expect("simulation runs")
}

fn small_trace() -> Trace {
    generate(&SynthConfig {
        users: 600,
        programs: 150,
        days: 6,
        ..SynthConfig::smoke_test()
    })
}

fn base_config() -> SimConfig {
    SimConfig::paper_default()
        .with_neighborhood_size(200)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(2)
}

fn no_cache_config() -> SimConfig {
    base_config().with_strategy(StrategySpec::NoCache)
}

#[test]
fn no_cache_equals_offered_load() {
    let trace = small_trace();
    let report = simulate(&trace, &no_cache_config(), Serial);
    assert_eq!(report.cache.hits, 0);
    assert_eq!(report.hit_rate(), 0.0);
    // Server carries every watched second at the stream rate.
    let expected_bits = trace
        .records()
        .iter()
        .map(|r| {
            let len = trace.catalog().length(r.program).expect("valid");
            r.watched(len).as_secs() * BitRate::STREAM_MPEG2_SD.as_bps()
        })
        .sum::<u64>();
    assert_eq!(report.server_total.as_bits(), expected_bits);
    assert_eq!(report.sessions as usize, trace.len());
}

#[test]
fn caching_reduces_server_load() {
    let trace = small_trace();
    let none = simulate(&trace, &no_cache_config(), Serial);
    let lfu = simulate(&trace, &base_config(), Serial);
    assert!(lfu.cache.hits > 0, "cache must produce hits");
    assert!(
        lfu.server_total < none.server_total,
        "lfu {} vs none {}",
        lfu.server_total,
        none.server_total
    );
    assert!(lfu.server_peak.mean < none.server_peak.mean);
}

#[test]
fn coax_load_is_identical_with_and_without_cache() {
    // §VI-B: broadcast means every segment crosses the coax once no
    // matter who serves it.
    let trace = small_trace();
    let none = simulate(&trace, &no_cache_config(), Serial);
    let lfu = simulate(&trace, &base_config(), Serial);
    assert_eq!(none.coax_peak.mean, lfu.coax_peak.mean);
    assert_eq!(none.segment_requests, lfu.segment_requests);
}

#[test]
fn oracle_dominates_lfu_dominates_nothing() {
    let trace = small_trace();
    let none = simulate(&trace, &no_cache_config(), Serial);
    let lfu = simulate(&trace, &base_config(), Serial);
    let oracle = simulate(
        &trace,
        &base_config().with_strategy(StrategySpec::default_oracle()),
        Serial,
    );
    assert!(
        oracle.server_total <= lfu.server_total,
        "oracle must not lose to LFU"
    );
    assert!(lfu.server_total < none.server_total);
}

#[test]
fn deterministic_reports() {
    let trace = small_trace();
    let a = simulate(&trace, &base_config(), Serial);
    let b = simulate(&trace, &base_config(), Serial);
    assert_eq!(a, b);
}

#[test]
fn server_plus_peer_bytes_conserve_demand() {
    let trace = small_trace();
    let report = simulate(&trace, &base_config(), Serial);
    // Total coax bytes = total demand; server bytes = misses only.
    let coax_total: u64 = {
        // recompute demand from the trace
        trace
            .records()
            .iter()
            .map(|r| {
                let len = trace.catalog().length(r.program).expect("valid");
                r.watched(len).as_secs() * BitRate::STREAM_MPEG2_SD.as_bps()
            })
            .sum()
    };
    assert!(report.server_total.as_bits() <= coax_total);
    assert_eq!(
        report.cache.requests(),
        report.segment_requests,
        "every segment request is resolved exactly once"
    );
}

#[test]
fn global_lfu_runs_and_uses_feed() {
    let trace = small_trace();
    let config = base_config().with_strategy(StrategySpec::GlobalLfu {
        history: SimDuration::from_days(3),
        lag: SimDuration::from_minutes(30),
    });
    let report = simulate(&trace, &config, Serial);
    assert!(report.cache.hits > 0);
}

#[test]
fn seeking_sessions_request_interior_segments() {
    let trace = generate(&SynthConfig {
        users: 600,
        programs: 150,
        days: 6,
        seek_prob: 0.3,
        ..SynthConfig::smoke_test()
    });
    assert!(
        trace.iter().any(|r| r.offset.as_secs() > 0),
        "workload must contain seeks"
    );
    let none = simulate(&trace, &no_cache_config(), Serial);
    // Conservation still holds with seeks.
    let expected_bits: u64 = trace
        .records()
        .iter()
        .map(|r| {
            let len = trace.catalog().length(r.program).expect("valid");
            r.watched(len).as_secs() * BitRate::STREAM_MPEG2_SD.as_bps()
        })
        .sum();
    assert_eq!(none.server_total.as_bits(), expected_bits);
    // Caching still works on a seeking workload.
    let lfu = simulate(&trace, &base_config(), Serial);
    assert!(lfu.cache.hits > 0);
    assert!(lfu.server_total < none.server_total);
}

#[test]
fn replication_two_runs() {
    let trace = small_trace();
    let report = simulate(&trace, &base_config().with_replication(2), Serial);
    assert!(report.cache.hits > 0);
}

#[test]
fn parallel_matches_serial_on_every_strategy() {
    let trace = small_trace();
    for spec in [
        StrategySpec::NoCache,
        StrategySpec::Lru,
        StrategySpec::default_lfu(),
        StrategySpec::default_oracle(),
        StrategySpec::GlobalLfu {
            history: SimDuration::from_days(3),
            lag: SimDuration::from_minutes(30),
        },
    ] {
        let config = base_config().with_strategy(spec);
        let serial = simulate(&trace, &config, Serial);
        for threads in [1, 2, 8] {
            let parallel = simulate(&trace, &config, Fixed(threads));
            assert_eq!(parallel, serial, "strategy {spec:?}, threads {threads}");
        }
    }
}

#[test]
fn parallel_matches_serial_with_seeks_and_replication() {
    let trace = generate(&SynthConfig {
        users: 500,
        programs: 120,
        days: 5,
        seek_prob: 0.25,
        ..SynthConfig::smoke_test()
    });
    let config = base_config().with_replication(2);
    let serial = simulate(&trace, &config, Serial);
    let parallel = simulate(&trace, &config, Fixed(3));
    assert_eq!(parallel, serial);
}

#[test]
fn parallel_matches_serial_under_random_placement() {
    let trace = small_trace();
    let config = base_config().with_placement(PlacementPolicy::Random { seed: 7 });
    let serial = simulate(&trace, &config, Serial);
    let parallel = simulate(&trace, &config, Fixed(4));
    assert_eq!(parallel, serial);
}

#[test]
fn parallel_rejects_invalid_configs_like_serial() {
    let trace = small_trace();
    let config = base_config().with_neighborhood_size(0);
    assert!(try_simulate(&trace, &config, Fixed(2)).is_err());
}

#[test]
fn streaming_serial_matches_resident_on_every_strategy() {
    let trace = small_trace();
    for spec in [
        StrategySpec::NoCache,
        StrategySpec::Lru,
        StrategySpec::default_lfu(),
        StrategySpec::default_oracle(),
        StrategySpec::GlobalLfu {
            history: SimDuration::from_days(3),
            lag: SimDuration::from_minutes(30),
        },
    ] {
        let config = base_config().with_strategy(spec);
        let resident = simulate(&trace, &config, Serial);
        for chunk in [64usize, trace.len()] {
            let streamed = simulate(&ChunkedTrace::new(&trace, chunk), &config, Serial);
            assert_eq!(streamed, resident, "strategy {spec:?}, chunk {chunk}");
        }
    }
}

#[test]
fn streaming_parallel_matches_serial_with_watermark_feed() {
    let trace = small_trace();
    let config = base_config().with_strategy(StrategySpec::GlobalLfu {
        history: SimDuration::from_days(3),
        lag: SimDuration::from_minutes(30),
    });
    let serial = simulate(&trace, &config, Serial);
    for (chunk, threads) in [(1usize, 2usize), (64, 1), (64, 3), (trace.len(), 2)] {
        let source = ChunkedTrace::new(&trace, chunk);
        let streamed = simulate(&source, &config, Fixed(threads));
        assert_eq!(streamed, serial, "chunk {chunk}, threads {threads}");
    }
}

#[test]
fn streaming_rejects_invalid_configs() {
    let trace = small_trace();
    let source = ChunkedTrace::new(&trace, 64);
    let config = base_config().with_neighborhood_size(0);
    assert!(try_simulate(&source, &config, Serial).is_err());
    assert!(try_simulate(&source, &config, Fixed(2)).is_err());
}

fn slab_entry(i: u32) -> (cablevod_trace::record::SessionRecord, SessionCtx) {
    let rec = cablevod_trace::record::SessionRecord::new(
        UserId::new(i),
        ProgramId::new(i),
        SimTime::from_secs(u64::from(i)),
        SimDuration::from_secs(60),
    );
    let ctx = SessionCtx {
        nbhd: 0,
        home: cablevod_hfc::ids::PeerId::new(i),
        length: SimDuration::from_hours(1),
        watched: SimDuration::from_secs(60),
        offset: 0,
        first_seg: 0,
    };
    (rec, ctx)
}

#[test]
fn active_sessions_reuse_freed_slots() {
    let mut slab = ActiveSessions::default();
    let (r0, c0) = slab_entry(0);
    let (r1, c1) = slab_entry(1);
    let a = slab.insert(r0, c0);
    let b = slab.insert(r1, c1);
    assert_ne!(a, b);
    assert_eq!(slab.allocated(), 2);

    // Freeing then inserting must reuse the slot, not grow the slab.
    slab.remove(a);
    assert_eq!(slab.free_count(), 1);
    let (r2, c2) = slab_entry(2);
    let c = slab.insert(r2, c2);
    assert_eq!(c, a, "freed slot is reused");
    assert_eq!(slab.allocated(), 2, "slab did not grow");
    assert_eq!(slab.free_count(), 0);
    assert_eq!(slab.get(c).0, r2, "slot holds the new session");
    assert_eq!(slab.get(b).0, r1, "other slot untouched");
}

/// The ROADMAP "idle-neighborhood feed retention" item: a session-less
/// neighborhood must not pin the serial streaming feed's retained window.
/// The driver's idle sweep keeps every consumption cursor moving, so live
/// feed slots stay O(sweep stride), not O(trace), on a 100k-event stream
/// with one idle neighborhood.
#[test]
fn idle_neighborhood_does_not_pin_the_streaming_feed() {
    use cablevod_trace::catalog::{ProgramCatalog, ProgramInfo};
    use cablevod_trace::rechunk::neighborhood_groups;
    use cablevod_trace::record::SessionRecord;

    let users = 150u32;
    let nbhd_size = 50u32;
    // Users of neighborhood 1 (under the same §V-B shuffle the engine
    // uses) never appear in the workload.
    let groups = neighborhood_groups(users, nbhd_size).expect("groups");
    let active: Vec<u32> = (0..users).filter(|&u| groups[u as usize] != 1).collect();
    assert!(active.len() < users as usize, "one neighborhood is idle");

    let programs = 40u32;
    let catalog: ProgramCatalog = (0..programs)
        .map(|_| ProgramInfo {
            length: SimDuration::from_hours(1),
            introduced_day: 0,
        })
        .collect();
    let total = 100_000u64;
    let records: Vec<SessionRecord> = (0..total)
        .map(|i| {
            SessionRecord::new(
                UserId::new(active[i as usize % active.len()]),
                ProgramId::new((i % u64::from(programs)) as u32),
                SimTime::from_secs(i),
                SimDuration::from_secs(60),
            )
        })
        .collect();
    let trace = Trace::new(records, catalog, users, 2).expect("valid trace");

    let config = SimConfig::paper_default()
        .with_neighborhood_size(nbhd_size)
        .with_per_peer_storage(DataSize::from_gigabytes(1))
        .with_warmup_days(0)
        .with_strategy(StrategySpec::GlobalLfu {
            history: SimDuration::from_days(1),
            lag: SimDuration::ZERO,
        });

    let source = ChunkedTrace::new(&trace, 1_024);
    let factory = config.strategy().factory();
    let (report, peak) = run_streaming(&source, &config, factory.as_ref()).expect("streaming runs");
    let peak = peak.expect("global LFU consumes the feed");
    // Without the idle sweep, neighborhood 1's cursor floors reclamation
    // at zero and every one of the 100k slots stays live. With it, the
    // floor trails the head by at most the sweep stride plus segment
    // rounding.
    assert!(
        peak <= 8 * cablevod_cache::watermark::DEFAULT_SEGMENT_SLOTS,
        "idle neighborhood pinned the feed: {peak} live slots for a {total}-event stream"
    );
    // The sweep must not change results.
    assert_eq!(report, simulate(&trace, &config, Serial));
}

/// Spilled schedule lifecycle: the sidecar exists while windows read it,
/// feeds them the spilled events, and is removed when the last reference
/// drops.
#[test]
fn schedule_spill_cleans_up_its_sidecar() {
    use super::schedule::SidecarSpill;
    use cablevod_cache::ScheduleSource;
    use cablevod_hfc::ids::NeighborhoodId;

    let mut spill = SidecarSpill::create(2, vec![3, 5]).expect("create");
    for i in 0..10u64 {
        spill
            .push(
                (i % 2) as u32,
                SimTime::from_secs(i * 10),
                ProgramId::new((i % 2) as u32),
            )
            .expect("push");
    }
    let schedules = spill.into_schedules().expect("finish");
    let path = schedules.spill_path();
    assert!(path.exists(), "sidecar exists while schedules are live");

    let mut window = schedules
        .window(NeighborhoodId::new(0))
        .expect("window")
        .expect("spilled sources always carry a schedule");
    window
        .prefetch(SimTime::from_secs(1_000))
        .expect("prefetch");
    let mut seen = 0;
    while window.next_entering(SimTime::from_secs(1_000)).is_some() {
        seen += 1;
    }
    assert_eq!(seen, 5, "neighborhood 0 reads exactly its events");
    assert_eq!(
        window.cost(ProgramId::new(1)),
        5,
        "costs ride in the sidecar"
    );
    assert!(
        schedules.decode_stats().chunks > 0,
        "sidecar reads are counted"
    );

    drop(window);
    drop(schedules);
    assert!(!path.exists(), "sidecar removed with the last reference");
}

#[test]
fn active_sessions_bound_allocation_by_concurrency() {
    // Churning insert/remove pairs must keep the slab at the concurrency
    // high-water mark, not the total session count.
    let mut slab = ActiveSessions::default();
    let mut live = Vec::new();
    for i in 0..1_000u32 {
        let (r, c) = slab_entry(i);
        live.push(slab.insert(r, c));
        if live.len() == 4 {
            // retire the oldest three
            for slot in live.drain(..3) {
                slab.remove(slot);
            }
        }
    }
    assert!(
        slab.allocated() <= 4,
        "slab grew to {} slots for 4-concurrent sessions",
        slab.allocated()
    );
}
