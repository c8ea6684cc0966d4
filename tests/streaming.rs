//! Equivalence properties of the out-of-core trace pipeline: replaying a
//! workload through a chunked [`TraceSource`] — in memory or from a
//! columnar file on disk, time-major or neighborhood-major — must be
//! **bit-identical** to the classic resident engine, serial and sharded,
//! for every strategy, chunk size, chunk layout and shard count. Plus
//! decode-work bounds (a sharded neighborhood-major replay decodes each
//! chunk once) and streaming edge cases (empty traces, one-record chunks,
//! sessions straddling chunk boundaries).

use proptest::prelude::*;

use cablevod_cache::StrategySpec;
use cablevod_hfc::ids::{ProgramId, UserId};
use cablevod_hfc::units::{SimDuration, SimTime};
use cablevod_sim::Simulation;
use cablevod_sim::ThreadPolicy::{Fixed, Serial};
use cablevod_tests::{config_for, simulate, tiny_config};
use cablevod_trace::catalog::{ProgramCatalog, ProgramInfo};
use cablevod_trace::columnar::{write_trace, ColumnarReader};
use cablevod_trace::rechunk::{rechunk_by_neighborhood, rechunk_multi_index};
use cablevod_trace::record::{SessionRecord, Trace};
use cablevod_trace::source::{ChunkedTrace, TraceSource};
use cablevod_trace::synth::generate;

/// The strategy matrix the equivalence properties sweep: the paper's five
/// (Global LFU's feed consumption exercises the sharded streaming
/// watermark protocol) plus the literature four — ARC, TLRU, the
/// prior-storing server (prefetch hook, feed-carried) and the
/// delayed-hits-aware LFU (fetch-model accounting, merged counters).
fn strategy(pick: usize) -> StrategySpec {
    [
        StrategySpec::NoCache,
        StrategySpec::Lru,
        StrategySpec::default_lfu(),
        StrategySpec::default_oracle(),
        StrategySpec::GlobalLfu {
            history: SimDuration::from_days(3),
            lag: SimDuration::from_minutes(30),
        },
        StrategySpec::Arc { ghost: 0 },
        StrategySpec::Tlru {
            ttl: SimDuration::from_minutes(30),
        },
        StrategySpec::PriorStoring {
            horizon: SimDuration::from_days(1),
        },
        StrategySpec::DelayedLfu {
            history: SimDuration::from_days(3),
            latency_ms: 10_000,
        },
    ][pick]
}

/// Chunk sizes the issue calls out: one record per chunk (maximal chunk
/// churn), a small batch, and the whole trace in one chunk (streaming
/// machinery with resident-like staging).
fn chunk_sizes(trace_len: usize) -> [usize; 3] {
    [1, 64, trace_len.max(1)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Serial streaming replay equals the resident serial engine across
    /// strategies and chunk sizes.
    #[test]
    fn streaming_run_equals_resident_run(
        users in 60u32..220,
        nbhd in 25u32..120,
        gb in 1u64..5,
        strategy_pick in 0usize..9,
        seed in 0u64..500,
    ) {
        let trace = generate(&tiny_config(users, 30, 3, seed));
        let config = config_for(nbhd, gb, strategy(strategy_pick));
        let resident = simulate(&trace, &config, Serial);
        for chunk in chunk_sizes(trace.len()) {
            let streamed =
                simulate(&ChunkedTrace::new(&trace, chunk), &config, Serial);
            prop_assert_eq!(&streamed, &resident, "chunk size {}", chunk);
        }
    }

    /// The streaming-Oracle parity property: the windowed on-disk
    /// schedule path (sidecar spill + bounded `ScheduleWindow`s) is
    /// bit-identical to the resident Oracle across serial/parallel,
    /// chunk sizes and shard counts. Oracle is pinned — the general
    /// sweeps above only sample it — because it is the one strategy
    /// whose auxiliary state takes a different carrier when streaming.
    #[test]
    fn oracle_windowed_replay_equals_resident_oracle(
        users in 60u32..220,
        nbhd in 25u32..120,
        gb in 1u64..5,
        seed in 0u64..500,
    ) {
        let trace = generate(&tiny_config(users, 30, 3, seed));
        let config = config_for(nbhd, gb, StrategySpec::default_oracle());
        let resident = simulate(&trace, &config, Serial);
        let neighborhoods = users.div_ceil(nbhd) as usize;
        for chunk in chunk_sizes(trace.len()) {
            let source = ChunkedTrace::new(&trace, chunk);
            let streamed = simulate(&source, &config, Serial);
            prop_assert_eq!(&streamed, &resident, "serial, chunk {}", chunk);
            for threads in [1, 2, neighborhoods] {
                let sharded =
                    simulate(&source, &config, Fixed(threads));
                prop_assert_eq!(&sharded, &resident, "chunk {}, threads {}", chunk, threads);
            }
        }
    }

    /// Sharded streaming replay (watermark-ordered feed included) equals
    /// the serial resident engine across strategies, chunk sizes and
    /// shard-pool sizes.
    #[test]
    fn streaming_run_parallel_equals_serial_run(
        users in 60u32..220,
        nbhd in 25u32..120,
        gb in 1u64..5,
        strategy_pick in 0usize..9,
        seed in 0u64..500,
    ) {
        let trace = generate(&tiny_config(users, 30, 3, seed));
        let config = config_for(nbhd, gb, strategy(strategy_pick));
        let serial = simulate(&trace, &config, Serial);
        let neighborhoods = users.div_ceil(nbhd) as usize;
        for chunk in chunk_sizes(trace.len()) {
            let source = ChunkedTrace::new(&trace, chunk);
            for threads in [1, 2, neighborhoods] {
                let sharded =
                    simulate(&source, &config, Fixed(threads));
                prop_assert_eq!(&sharded, &serial, "chunk {}, threads {}", chunk, threads);
            }
        }
    }
}

/// On-disk columnar replay — the full out-of-core pipeline, file and all —
/// equals the resident engine, serial and sharded, for every strategy.
#[test]
fn columnar_file_replay_is_bit_identical() {
    let trace: Trace = generate(&tiny_config(300, 40, 4, 7));
    let mut path = std::env::temp_dir();
    path.push(format!("cvtc_streaming_test_{}.cvtc", std::process::id()));
    write_trace(&path, &trace, 128).expect("write columnar");
    let reader = ColumnarReader::open(&path).expect("open columnar");
    assert!(reader.resident_records().is_none(), "reader must stream");

    for pick in 0..9 {
        let config = config_for(60, 2, strategy(pick));
        let resident = simulate(&trace, &config, Serial);
        let from_disk = simulate(&reader, &config, Serial);
        assert_eq!(from_disk, resident, "serial, strategy {pick}");
        let sharded = simulate(&reader, &config, Fixed(3));
        assert_eq!(sharded, resident, "sharded, strategy {pick}");
    }
    std::fs::remove_file(&path).ok();
}

/// Neighborhood-major replay — matched, serial, and mismatched-size — is
/// bit-identical to the resident engine for every strategy.
#[test]
fn neighborhood_major_replay_is_bit_identical() {
    let trace: Trace = generate(&tiny_config(300, 40, 4, 11));
    let mut tm = std::env::temp_dir();
    tm.push(format!("cvtc_nm_equiv_tm_{}.cvtc", std::process::id()));
    let mut nm = std::env::temp_dir();
    nm.push(format!("cvtc_nm_equiv_nm_{}.cvtc", std::process::id()));
    write_trace(&tm, &trace, 128).expect("write time-major");
    let tm_reader = ColumnarReader::open(&tm).expect("open time-major");
    rechunk_by_neighborhood(&tm_reader, &nm, 60, 64).expect("rechunk");
    let reader = ColumnarReader::open(&nm).expect("open neighborhood-major");
    assert_eq!(
        reader
            .neighborhood_layout()
            .expect("indexed")
            .neighborhood_size,
        60
    );

    for pick in 0..9 {
        // Matched neighborhood size: shards read their own chunks only.
        let config = config_for(60, 2, strategy(pick));
        let resident = simulate(&trace, &config, Serial);
        let serial = simulate(&reader, &config, Serial);
        assert_eq!(serial, resident, "serial merge, strategy {pick}");
        for threads in [1usize, 3] {
            let sharded = simulate(&reader, &config, Fixed(threads));
            assert_eq!(sharded, resident, "matched sharded, strategy {pick}");
        }

        // Mismatched neighborhood size: the file's grouping disagrees with
        // the simulation's shuffle, so the engine falls back to pruned
        // per-group merges — results must not change.
        let config = config_for(45, 2, strategy(pick));
        let resident = simulate(&trace, &config, Serial);
        let serial = simulate(&reader, &config, Serial);
        assert_eq!(serial, resident, "mismatched serial, strategy {pick}");
        let sharded = simulate(&reader, &config, Fixed(2));
        assert_eq!(sharded, resident, "mismatched sharded, strategy {pick}");
    }
    std::fs::remove_file(&tm).ok();
    std::fs::remove_file(&nm).ok();
}

/// The ROADMAP "per-shard chunk scans" item, fixed structurally: a sharded
/// streaming run over a **matching** neighborhood-major file decodes each
/// chunk exactly once (counter-based), while the same run over the
/// time-major file pays ~`shards × file`.
#[test]
fn neighborhood_major_sharded_run_decodes_each_chunk_once() {
    let trace: Trace = generate(&tiny_config(400, 40, 4, 13));
    let mut tm = std::env::temp_dir();
    tm.push(format!("cvtc_decode_tm_{}.cvtc", std::process::id()));
    let mut nm = std::env::temp_dir();
    nm.push(format!("cvtc_decode_nm_{}.cvtc", std::process::id()));
    write_trace(&tm, &trace, 64).expect("write time-major");
    let tm_reader = ColumnarReader::open(&tm).expect("open time-major");
    rechunk_by_neighborhood(&tm_reader, &nm, 50, 64).expect("rechunk");
    let nm_reader = ColumnarReader::open(&nm).expect("open neighborhood-major");

    // LFU needs neither the feed nor Oracle schedules, so the matched
    // fast path does no pre-pass at all: replay decode work is the whole
    // story. 400 users / 50 = 8 shards.
    let config = config_for(50, 2, StrategySpec::default_lfu());

    let before = nm_reader.decode_stats();
    let nm_report = simulate(&nm_reader, &config, Fixed(4));
    let nm_decodes = nm_reader.decode_stats() - before;
    assert_eq!(
        nm_decodes.chunks,
        nm_reader.chunk_count() as u64,
        "each neighborhood-major chunk decoded exactly once"
    );
    assert!(nm_decodes.bytes > 0, "decode bytes are tracked");

    let before = tm_reader.decode_stats();
    let tm_report = simulate(&tm_reader, &config, Fixed(4));
    let tm_decodes = tm_reader.decode_stats() - before;
    assert_eq!(tm_report, nm_report, "layouts agree bit-for-bit");
    assert!(
        tm_decodes.chunks > 2 * tm_reader.chunk_count() as u64,
        "time-major shards rescan chunks ({} decodes of {} chunks); \
         neighborhood-major removes exactly this amplification",
        tm_decodes.chunks,
        tm_reader.chunk_count()
    );
    std::fs::remove_file(&tm).ok();
    std::fs::remove_file(&nm).ok();
}

/// Streaming Oracle decode accounting: the schedule pre-pass goes through
/// the source's counted chunk API, so `decode_stats` reports pre-pass +
/// replay — an Oracle run reads the file exactly twice, serial time-major
/// and matched-sharded neighborhood-major alike. (Guards against the
/// pre-pass silently under-reporting in the out_of_core example's decode
/// counters.)
#[test]
fn oracle_streaming_decode_counts_include_the_schedule_pre_pass() {
    let trace: Trace = generate(&tiny_config(300, 40, 4, 17));
    let mut tm = std::env::temp_dir();
    tm.push(format!("cvtc_oracle_decode_tm_{}.cvtc", std::process::id()));
    let mut nm = std::env::temp_dir();
    nm.push(format!("cvtc_oracle_decode_nm_{}.cvtc", std::process::id()));
    write_trace(&tm, &trace, 64).expect("write time-major");
    let tm_reader = ColumnarReader::open(&tm).expect("open time-major");
    rechunk_by_neighborhood(&tm_reader, &nm, 50, 64).expect("rechunk");
    let nm_reader = ColumnarReader::open(&nm).expect("open neighborhood-major");

    let config = config_for(50, 2, StrategySpec::default_oracle());
    let resident = simulate(&trace, &config, Serial);

    // Serial time-major: one pre-pass scan + one replay scan.
    let before = tm_reader.decode_stats();
    let report = simulate(&tm_reader, &config, Serial);
    assert_eq!(report, resident);
    let delta = tm_reader.decode_stats() - before;
    assert_eq!(
        delta.chunks,
        2 * tm_reader.chunk_count() as u64,
        "schedule pre-pass + replay must both be counted"
    );

    // Matched-sharded neighborhood-major: the pre-pass spills run by run
    // (each chunk once) and the replay hands each shard its own chunks
    // (each chunk once) — 2x the file, same as serial.
    let before = nm_reader.decode_stats();
    let report = simulate(&nm_reader, &config, Fixed(3));
    assert_eq!(report, resident);
    let delta = nm_reader.decode_stats() - before;
    assert_eq!(
        delta.chunks,
        2 * nm_reader.chunk_count() as u64,
        "matched sharded oracle reads the file exactly twice"
    );
    std::fs::remove_file(&tm).ok();
    std::fs::remove_file(&nm).ok();
}

/// Multi-index sweep bit-identity: a neighborhood-size sweep served by
/// one multi-index file through the decode-once fast path produces
/// reports byte-identical to the single-index merge/fallback path and to
/// the resident engine — serial and sharded alike — and the telemetry
/// flag confirms the fast path actually engaged at every indexed size.
#[test]
fn multi_index_sweep_fast_path_is_bit_identical() {
    let trace: Trace = generate(&tiny_config(300, 40, 4, 19));
    let mut tm = std::env::temp_dir();
    tm.push(format!("cvtc_multi_tm_{}.cvtc", std::process::id()));
    let mut nm = std::env::temp_dir();
    nm.push(format!("cvtc_multi_nm_{}.cvtc", std::process::id()));
    let mut multi = std::env::temp_dir();
    multi.push(format!("cvtc_multi_mi_{}.cvtc", std::process::id()));
    write_trace(&tm, &trace, 128).expect("write time-major");
    let tm_reader = ColumnarReader::open(&tm).expect("open time-major");
    // The merge-path reference: a single-index file at one of the sweep's
    // sizes (matched at 60, mismatched-merge at 100). The fast path: one
    // multi-index file carrying both sizes over the same shared columns.
    rechunk_by_neighborhood(&tm_reader, &nm, 60, 64).expect("single-index rechunk");
    rechunk_multi_index(&tm_reader, &multi, &[60, 100], 64).expect("multi-index rechunk");
    let nm_reader = ColumnarReader::open(&nm).expect("open single-index");
    let multi_reader = ColumnarReader::open(&multi).expect("open multi-index");

    for &(size, threads) in &[(60u32, 3usize), (100, 2)] {
        for pick in 0..5 {
            let config = config_for(size, 2, strategy(pick));
            let resident = simulate(&trace, &config, Serial);
            assert_eq!(
                simulate(&trace, &config, Fixed(threads)),
                resident,
                "resident sharded, size {size}, strategy {pick}"
            );
            assert_eq!(
                simulate(&nm_reader, &config, Serial),
                resident,
                "merge serial, size {size}, strategy {pick}"
            );
            assert_eq!(
                simulate(&nm_reader, &config, Fixed(threads)),
                resident,
                "merge sharded, size {size}, strategy {pick}"
            );
            assert_eq!(
                simulate(&multi_reader, &config, Serial),
                resident,
                "fast serial, size {size}, strategy {pick}"
            );
            assert_eq!(
                simulate(&multi_reader, &config, Fixed(threads)),
                resident,
                "fast sharded, size {size}, strategy {pick}"
            );
        }

        // Telemetry: the multi-index file serves this size through its
        // matching index; the single-index file only matches at 60.
        let config = config_for(size, 2, StrategySpec::default_lfu());
        let fast = Simulation::over(&multi_reader)
            .config(config.clone())
            .run()
            .expect("fast-path telemetry run");
        assert!(
            fast.telemetry.fastpath,
            "multi-index replay at size {size} must take the fast path"
        );
        let merge = Simulation::over(&nm_reader)
            .config(config)
            .run()
            .expect("merge-path telemetry run");
        assert_eq!(
            merge.telemetry.fastpath,
            size == 60,
            "single-index replay matches only its own size"
        );
        assert_eq!(fast.report, merge.report, "telemetry runs agree too");
    }
    std::fs::remove_file(&tm).ok();
    std::fs::remove_file(&nm).ok();
    std::fs::remove_file(&multi).ok();
}

fn hour_catalog(programs: u32) -> ProgramCatalog {
    (0..programs)
        .map(|_| ProgramInfo {
            length: SimDuration::from_hours(2),
            introduced_day: 0,
        })
        .collect()
}

fn rec(user: u32, program: u32, start: u64, dur: u64) -> SessionRecord {
    SessionRecord::new(
        UserId::new(user),
        ProgramId::new(program),
        SimTime::from_secs(start),
        SimDuration::from_secs(dur),
    )
}

/// An empty trace replays to an empty report through every path — the
/// streaming record supplies must handle zero chunks.
#[test]
fn empty_trace_streams_to_an_empty_report() {
    let trace = Trace::new(Vec::new(), hour_catalog(4), 50, 2).expect("empty trace is valid");
    let config = config_for(25, 1, StrategySpec::default_lfu());
    let resident = simulate(&trace, &config, Serial);
    assert_eq!(resident.sessions, 0);
    assert_eq!(resident.segment_requests, 0);
    let streamed = simulate(&ChunkedTrace::new(&trace, 8), &config, Serial);
    assert_eq!(streamed, resident);
    let sharded = simulate(&ChunkedTrace::new(&trace, 8), &config, Fixed(2));
    assert_eq!(sharded, resident);
}

/// Sessions whose continuation events outlive their chunk — including a
/// session spanning *every* later chunk — replay identically from
/// one-record chunks, in memory and from a one-record-chunk columnar file.
#[test]
fn sessions_straddling_chunk_boundaries_replay_exactly() {
    // User 0 watches two full hours: its segment continuations stay in the
    // heap while every later record (in later one-record chunks) arrives.
    let records = vec![
        rec(0, 0, 1_000, 7_200),
        rec(1, 1, 1_060, 600),
        rec(2, 2, 1_500, 1_800),
        rec(3, 1, 2_400, 900),
        rec(4, 3, 6_000, 3_600),
    ];
    let trace = Trace::new(records, hour_catalog(4), 5, 1).expect("valid trace");
    let config = config_for(3, 1, StrategySpec::default_lfu()).with_warmup_days(0);
    let resident = simulate(&trace, &config, Serial);
    assert_eq!(resident.sessions, 5);

    // One record per chunk: every session with >1 segment straddles.
    let single = ChunkedTrace::new(&trace, 1);
    assert_eq!(single.chunk_count(), 5);
    let streamed = simulate(&single, &config, Serial);
    assert_eq!(streamed, resident);
    let sharded = simulate(&single, &config, Fixed(2));
    assert_eq!(sharded, resident);

    // Same from disk, chunk size 1.
    let mut path = std::env::temp_dir();
    path.push(format!("cvtc_straddle_{}.cvtc", std::process::id()));
    write_trace(&path, &trace, 1).expect("write single-record chunks");
    let reader = ColumnarReader::open(&path).expect("open");
    assert_eq!(reader.chunk_count(), 5);
    assert_eq!(simulate(&reader, &config, Serial), resident);
    assert_eq!(simulate(&reader, &config, Fixed(2)), resident);
    std::fs::remove_file(&path).ok();
}
