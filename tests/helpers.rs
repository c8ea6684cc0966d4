//! Shared helpers for the cross-crate integration tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cablevod_cache::StrategySpec;
use cablevod_hfc::units::DataSize;
use cablevod_sim::{SimConfig, SimReport, Simulation, ThreadPolicy};
use cablevod_trace::record::Trace;
use cablevod_trace::source::TraceSource;
use cablevod_trace::synth::{generate, SynthConfig};

/// One run through the [`Simulation`] front door: `Serial` for the serial
/// driver, `Fixed(n)` for the sharded one over `n` workers. Panics, at
/// the caller's line, if the run fails.
#[track_caller]
pub fn simulate<S: TraceSource + ?Sized>(
    source: &S,
    config: &SimConfig,
    threads: ThreadPolicy,
) -> SimReport {
    Simulation::over(source)
        .config(config.clone())
        .thread_policy(threads)
        .run()
        .expect("simulation runs")
        .report
}

/// The paper's defaults at neighborhood size `nbhd`, `gb` GB per peer,
/// one warm-up day and strategy `spec` — the small-trace test shape.
pub fn config_for(nbhd: u32, gb: u64, spec: StrategySpec) -> SimConfig {
    SimConfig::paper_default()
        .with_neighborhood_size(nbhd)
        .with_per_peer_storage(DataSize::from_gigabytes(gb))
        .with_warmup_days(1)
        .with_strategy(spec)
}

/// A mid-sized deterministic workload shared by the integration tests:
/// big enough that caches, quantiles and placement all engage, small
/// enough to keep the suite fast.
pub fn medium_trace() -> Trace {
    generate(&SynthConfig {
        users: 2_000,
        programs: 500,
        days: 8,
        ..SynthConfig::powerinfo()
    })
}

/// A deliberately tiny workload for property tests that run many cases.
pub fn tiny_config(users: u32, programs: u32, days: u64, seed: u64) -> SynthConfig {
    SynthConfig {
        users,
        programs,
        days,
        seed,
        ..SynthConfig::powerinfo()
    }
}

/// A fresh path in the temp dir, unique within the process.
pub fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cablevod_{tag}_{}_{n}.tmp", std::process::id()))
}

/// A file removed from disk when the guard goes out of scope, so failed
/// cases do not litter the temp dir.
pub struct TempFile(pub PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}
