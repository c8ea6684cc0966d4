//! Engine throughput benches: simulated sessions per second for each
//! strategy (serial, sharded-parallel, and out-of-core streaming from a
//! columnar disk trace), plus workload generation and trace scaling.
//! Every row runs through the [`Simulation`] builder, the one way to run.
//!
//! Set `BENCH_JSON=BENCH_engine.json` to append one JSON line per
//! measurement — CI uses this to track the serial-vs-parallel throughput
//! trajectory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cablevod_bench::bench_trace;
use cablevod_cache::StrategySpec;
use cablevod_hfc::units::DataSize;
use cablevod_serve::clock::AcceleratedClock;
use cablevod_serve::replay::replay_trace;
use cablevod_sim::{SimConfig, Simulation};
use cablevod_trace::columnar::{ColumnarReader, DEFAULT_CHUNK_SIZE};
use cablevod_trace::rechunk::{import_chunk_size, rechunk_by_neighborhood, rechunk_multi_index};
use cablevod_trace::scale;
use cablevod_trace::source::TraceSource;
use cablevod_trace::synth::{generate, generate_to_disk, SynthConfig};

fn engine_throughput(c: &mut Criterion) {
    let trace = bench_trace();
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    let base = SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3);
    for (name, spec) in [
        ("no_cache", StrategySpec::NoCache),
        ("lru", StrategySpec::Lru),
        ("lfu", StrategySpec::default_lfu()),
        ("oracle", StrategySpec::default_oracle()),
    ] {
        let config = base.clone().with_strategy(spec);
        group.bench_function(name, |b| {
            b.iter(|| {
                Simulation::over(trace)
                    .config(config.clone())
                    .run()
                    .expect("runs")
            })
        });
    }
    group.finish();
}

/// The sharded engine over worker-pool sizes, on the same workload and
/// config as the serial `engine` group so `engine/lfu` vs
/// `engine_parallel/threads/N` is a direct serial-vs-parallel comparison.
fn engine_parallel_throughput(c: &mut Criterion) {
    let trace = bench_trace();
    let mut group = c.benchmark_group("engine_parallel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    let config = SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3);
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| {
                Simulation::over(trace)
                    .config(config.clone())
                    .threads(threads)
                    .run()
                    .expect("runs")
            })
        });
    }
    group.finish();
}

/// The out-of-core pipeline: traces are generated straight to disk in the
/// columnar chunked format at 10x and 50x the in-memory bench user count,
/// then replayed through the streaming engine (serial and sharded) with
/// resident memory bounded by chunk size plus session concurrency — the
/// workloads this group runs never exist as an in-memory `Trace` at all.
fn engine_streaming_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_streaming");
    let config = SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3);
    // (label, user-count multiple of the in-memory bench workload).
    // Sample size stays at upstream criterion's minimum of 10 so the
    // vendored stand-in can be swapped back without source changes.
    for (scale_label, users) in [("10x", 15_000u32), ("50x", 75_000)] {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "cvtc_bench_{}_{scale_label}.cvtc",
            std::process::id()
        ));
        generate_to_disk(
            &SynthConfig {
                users,
                programs: 400,
                days: 6,
                ..SynthConfig::powerinfo()
            },
            &path,
            DEFAULT_CHUNK_SIZE,
        )
        .expect("disk workload generated");
        let reader = ColumnarReader::open(&path).expect("columnar file opens");
        group.sample_size(10);
        group.throughput(Throughput::Elements(reader.record_count()));
        group.bench_function(BenchmarkId::new("serial_disk", scale_label), |b| {
            b.iter(|| {
                Simulation::over(&reader)
                    .config(config.clone())
                    .run()
                    .expect("runs")
            })
        });
        group.bench_function(BenchmarkId::new("parallel_disk_4", scale_label), |b| {
            b.iter(|| {
                Simulation::over(&reader)
                    .config(config.clone())
                    .threads(4)
                    .run()
                    .expect("runs")
            })
        });
        // The windowed Oracle from disk: each iteration pays the honest
        // full cost of a streaming Oracle run — schedule pre-pass spilled
        // to the on-disk sidecar, then replay through bounded
        // ScheduleWindows. 10x scale only; the CI smoke gate requires
        // this row.
        if scale_label == "10x" {
            let oracle_config = config.clone().with_strategy(StrategySpec::default_oracle());
            group.bench_function(BenchmarkId::new("oracle_windowed", scale_label), |b| {
                b.iter(|| {
                    Simulation::over(&reader)
                        .config(oracle_config.clone())
                        .run()
                        .expect("runs")
                })
            });
        }
        // The neighborhood-major replay of the same workload: re-chunked
        // once at import, then each shard decodes only its own chunks —
        // `parallel_disk_4` vs `parallel_nbhd_major_4` is the decode-work
        // win in wall-clock terms.
        let mut nm_path = std::env::temp_dir();
        nm_path.push(format!(
            "cvtc_bench_nm_{}_{scale_label}.cvtc",
            std::process::id()
        ));
        let import_chunk =
            import_chunk_size(reader.user_count(), 500, DEFAULT_CHUNK_SIZE, 64 << 20);
        rechunk_by_neighborhood(&reader, &nm_path, 500, import_chunk)
            .expect("neighborhood-major rechunk");
        let nm_reader = ColumnarReader::open(&nm_path).expect("rechunked file opens");
        group.bench_function(
            BenchmarkId::new("parallel_nbhd_major_4", scale_label),
            |b| {
                b.iter(|| {
                    Simulation::over(&nm_reader)
                        .config(config.clone())
                        .threads(4)
                        .run()
                        .expect("runs")
                })
            },
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&nm_path).ok();
    }
    group.finish();
}

/// The chunk-decode layer in isolation, on a 50x-class on-disk workload:
/// every chunk of the file fetched and column-decoded through each
/// backing. `mmap_decode` borrows column bytes straight out of the
/// mapping and validates each chunk's CRC once (the per-chunk memo);
/// `pread_decode` is the portable fallback — a buffered positioned read
/// plus CRC per fetch. The pair is the zero-copy win with no simulation
/// work in the numerator.
fn chunk_decode_throughput(c: &mut Criterion) {
    let mut path = std::env::temp_dir();
    path.push(format!("cvtc_bench_decode_{}.cvtc", std::process::id()));
    generate_to_disk(
        &SynthConfig {
            users: 75_000,
            programs: 400,
            days: 6,
            ..SynthConfig::powerinfo()
        },
        &path,
        DEFAULT_CHUNK_SIZE,
    )
    .expect("disk workload generated");

    let mut group = c.benchmark_group("decode");
    group.sample_size(10);
    let sweep = |reader: &ColumnarReader| {
        let mut buf = Vec::new();
        let mut records = 0u64;
        for chunk in 0..reader.chunk_count() {
            reader.read_chunk(chunk, &mut buf).expect("chunk decodes");
            records += buf.len() as u64;
        }
        assert_eq!(records, reader.record_count(), "full file decoded");
    };
    let mmap_reader = ColumnarReader::open(&path).expect("mmap-backed open");
    group.throughput(Throughput::Elements(mmap_reader.record_count()));
    group.bench_function("mmap_decode", |b| b.iter(|| sweep(&mmap_reader)));
    let pread_reader = ColumnarReader::open_pread(&path).expect("pread-backed open");
    group.bench_function("pread_decode", |b| b.iter(|| sweep(&pread_reader)));
    group.finish();
    std::fs::remove_file(&path).ok();
}

/// Neighborhood-size sweeps over one on-disk workload (10x scale): the
/// multi-index file serves **every** swept size through its own chunk
/// index (sharded fast path, each chunk decoded once per cell run), while
/// the single-index file — rechunked for just one of the sizes, the
/// pre-multi-index workflow — serves the foreign size through the pruned
/// global merge. `sweep_fastpath` vs `sweep_merge` is the wall-clock win
/// of carrying per-size indexes over shared columns.
fn engine_sweep_throughput(c: &mut Criterion) {
    const SIZES: [u32; 2] = [300, 500];
    let mut path = std::env::temp_dir();
    path.push(format!("cvtc_bench_sweep_{}.cvtc", std::process::id()));
    generate_to_disk(
        &SynthConfig {
            users: 15_000,
            programs: 400,
            days: 6,
            ..SynthConfig::powerinfo()
        },
        &path,
        DEFAULT_CHUNK_SIZE,
    )
    .expect("disk workload generated");
    let reader = ColumnarReader::open(&path).expect("columnar file opens");
    let import_chunk =
        import_chunk_size(reader.user_count(), SIZES[0], DEFAULT_CHUNK_SIZE, 64 << 20);
    let mut multi_path = std::env::temp_dir();
    multi_path.push(format!("cvtc_bench_sweep_mi_{}.cvtc", std::process::id()));
    rechunk_multi_index(&reader, &multi_path, &SIZES, import_chunk).expect("multi-index rechunk");
    let mut single_path = std::env::temp_dir();
    single_path.push(format!("cvtc_bench_sweep_si_{}.cvtc", std::process::id()));
    rechunk_by_neighborhood(&reader, &single_path, SIZES[1], import_chunk)
        .expect("single-index rechunk");
    let multi_reader = ColumnarReader::open(&multi_path).expect("multi-index opens");
    let single_reader = ColumnarReader::open(&single_path).expect("single-index opens");

    let mut group = c.benchmark_group("engine_sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(
        reader.record_count() * SIZES.len() as u64,
    ));
    let base = SimConfig::paper_default()
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3);
    let sweep = |source: &ColumnarReader, expect_fast: &[bool]| {
        for (&size, &fast) in SIZES.iter().zip(expect_fast) {
            let outcome = Simulation::over(source)
                .config(base.clone().with_neighborhood_size(size))
                .threads(4)
                .run()
                .expect("sweep cell runs");
            assert_eq!(outcome.telemetry.fastpath, fast, "size {size}");
        }
    };
    group.bench_function("sweep_fastpath", |b| {
        b.iter(|| sweep(&multi_reader, &[true, true]))
    });
    group.bench_function("sweep_merge", |b| {
        b.iter(|| sweep(&single_reader, &[false, true]))
    });
    group.finish();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&multi_path).ok();
    std::fs::remove_file(&single_path).ok();
}

fn workload_generation(c: &mut Criterion) {
    let config = SynthConfig {
        users: 1_500,
        programs: 400,
        days: 6,
        ..SynthConfig::powerinfo()
    };
    let mut group = c.benchmark_group("generation");
    group.sample_size(10);
    group.throughput(Throughput::Elements(config.expected_sessions() as u64));
    group.bench_function("synthesize_trace", |b| b.iter(|| generate(&config)));
    let trace = bench_trace();
    group.bench_function("scale_users_x3", |b| {
        b.iter(|| scale::scale_users(trace, 3, 1).expect("valid factor"))
    });
    group.bench_function("scale_catalog_x3", |b| {
        b.iter(|| scale::scale_catalog(trace, 3, 1).expect("valid factor"))
    });
    group.finish();
}

/// The online tier under an accelerated clock: sustained requests/sec
/// through the full serve path (ingress stamping, feed publication,
/// cooperative stepping), plus the per-session decision-latency p99 from
/// one instrumented replay — the two rows ROADMAP item 2 trends next to
/// offline sessions/sec.
fn serve_online(c: &mut Criterion) {
    let trace = bench_trace();
    let config = SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3)
        .with_strategy(StrategySpec::Lru);
    let strategy = config.strategy().factory();
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("throughput", |b| {
        b.iter(|| {
            let mut clock = AcceleratedClock::default();
            replay_trace(trace, &config, strategy.as_ref(), &mut clock).expect("serve run")
        })
    });
    group.finish();

    let mut clock = AcceleratedClock::default();
    let outcome = replay_trace(trace, &config, strategy.as_ref(), &mut clock).expect("serve run");
    c.record_measurement(
        "serve",
        "decision_p99",
        u128::from(outcome.latency.p99_ns()),
        u128::from(outcome.latency.mean_ns()),
        None,
    );
}

criterion_group!(
    benches,
    engine_throughput,
    engine_parallel_throughput,
    engine_streaming_throughput,
    chunk_decode_throughput,
    engine_sweep_throughput,
    workload_generation,
    serve_online
);
criterion_main!(benches);
