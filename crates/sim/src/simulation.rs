//! The front door: the [`Simulation`] builder and its [`RunOutcome`].
//!
//! Every way of running one simulation — serial or sharded, over a
//! resident [`Trace`](cablevod_trace::record::Trace) or streaming from an
//! on-disk columnar file — goes through one facade:
//!
//! ```
//! use cablevod_sim::{Simulation, SimConfig};
//! use cablevod_trace::synth::{generate, SynthConfig};
//!
//! let trace = generate(&SynthConfig { users: 300, programs: 60, days: 3,
//!     ..SynthConfig::smoke_test() });
//! let outcome = Simulation::over(&trace)
//!     .config(SimConfig::paper_default().with_neighborhood_size(100).with_warmup_days(1))
//!     .threads(2)
//!     .run()?;
//! assert!(outcome.report.sessions > 0);
//! println!("{:.0} sessions/s, strategy {}", outcome.sessions_per_sec(),
//!     outcome.telemetry.strategy);
//! # Ok::<(), cablevod_sim::SimError>(())
//! ```
//!
//! The builder is a zero-cost composition layer: it resolves the strategy
//! factory and the thread policy, calls the serial or sharded engine
//! driver, and wraps the [`SimReport`] together with the run telemetry
//! ([`RunTelemetry`]: wall time, trace decode work, peak RSS).
//!
//! The strategy comes from the config's [`StrategySpec`](cablevod_cache::StrategySpec)
//! unless [`Simulation::strategy_factory`] supplies a factory instance.
//! Out-of-tree strategies enter that way: resolve a name against a
//! [`StrategyRegistry`](cablevod_cache::StrategyRegistry) (as the
//! [`Scenario`](crate::Scenario) executors and the bins do) and hand the
//! factory to the builder — no engine or cache-crate change required.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cablevod_cache::StrategyFactory;
use cablevod_trace::source::{DecodeStats, TraceSource};

use crate::config::SimConfig;
use crate::engine;
use crate::error::SimError;
use crate::report::SimReport;
use crate::runner::default_threads;

use serde::{Deserialize, Serialize};

/// How many engine workers a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ThreadPolicy {
    /// The serial reference driver (one global event heap).
    #[default]
    Serial,
    /// The sharded driver with exactly this many workers.
    Fixed(usize),
    /// The sharded driver with one worker per available core.
    Auto,
}

impl ThreadPolicy {
    /// The worker count to hand the sharded driver, or `None` for the
    /// serial driver.
    pub fn worker_count(self) -> Option<usize> {
        match self {
            ThreadPolicy::Serial => None,
            ThreadPolicy::Fixed(n) => Some(n.max(1)),
            ThreadPolicy::Auto => Some(default_threads()),
        }
    }
}

/// Peak resident set of this process in kilobytes, from the kernel's
/// `VmHWM` line (Linux; `None` elsewhere). This is a process-lifetime
/// high-water mark: monotone across runs, so compare successive readings
/// rather than attributing one reading to one run.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// What one run measured about *itself* (the report measures the plant).
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// Wall-clock time of the run (excluding source materialization).
    pub wall: Duration,
    /// Chunk-decode work this run added to the source's counters —
    /// [`TraceSource::decode_stats`] after minus before. Zero for
    /// resident sources.
    pub decode: DecodeStats,
    /// Process peak RSS after the run (see [`peak_rss_kb`]).
    pub peak_rss_kb: Option<u64>,
    /// Resolved engine worker count (1 = the serial driver).
    pub threads: usize,
    /// Resolved strategy name ([`StrategyFactory::name`]).
    pub strategy: String,
    /// Whether the source carried a per-neighborhood chunk index matching
    /// the configured neighborhood size — the sweep fast path, where
    /// sharded streaming replays read each shard's chunks straight from
    /// the index with no pre-pass scan or filtering. Always `false` for
    /// resident sources (they decode no chunks).
    pub fastpath: bool,
}

/// A [`SimReport`] bundled with its [`RunTelemetry`].
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The measured simulation results (bit-identical across drivers and
    /// thread counts for the same inputs).
    pub report: SimReport,
    /// What the run itself cost.
    pub telemetry: RunTelemetry,
}

impl RunOutcome {
    /// Replay throughput: sessions simulated per wall-clock second.
    pub fn sessions_per_sec(&self) -> f64 {
        self.report.sessions as f64 / self.telemetry.wall.as_secs_f64().max(f64::EPSILON)
    }
}

/// The single entry-point builder over serial/parallel ×
/// resident/streaming simulation (see the module docs).
#[derive(Debug)]
pub struct Simulation<'a, S: TraceSource + ?Sized> {
    source: &'a S,
    config: SimConfig,
    threads: ThreadPolicy,
    /// An explicit factory; `None` builds the config's strategy.
    strategy: Option<Arc<dyn StrategyFactory>>,
}

impl<'a, S: TraceSource + ?Sized> Simulation<'a, S> {
    /// Starts a simulation over `source` with the paper's default
    /// configuration and the serial driver.
    pub fn over(source: &'a S) -> Self {
        Simulation {
            source,
            config: SimConfig::paper_default(),
            threads: ThreadPolicy::Serial,
            strategy: None,
        }
    }

    /// Sets the full simulation configuration.
    #[must_use]
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs sharded over exactly `threads` workers.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = ThreadPolicy::Fixed(threads);
        self
    }

    /// Runs the serial reference driver (the default).
    #[must_use]
    pub fn serial(mut self) -> Self {
        self.threads = ThreadPolicy::Serial;
        self
    }

    /// Sets the thread policy directly (spec-file plumbing).
    #[must_use]
    pub fn thread_policy(mut self, policy: ThreadPolicy) -> Self {
        self.threads = policy;
        self
    }

    /// Selects an explicit strategy factory instance, overriding the
    /// config's strategy spec.
    #[must_use]
    pub fn strategy_factory(mut self, factory: Arc<dyn StrategyFactory>) -> Self {
        self.strategy = Some(factory);
        self
    }

    /// Runs the simulation and returns the report with run telemetry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for invalid configurations (including
    /// traces beyond 2^32 records), and propagates trace-source failures
    /// and broken-invariant failures from the cache and plant layers.
    pub fn run(self) -> Result<RunOutcome, SimError> {
        let factory = self
            .strategy
            .unwrap_or_else(|| self.config.strategy().factory());
        let workers = self.threads.worker_count();
        let decode_before = self.source.decode_stats();
        let started = Instant::now();
        let report = match workers {
            None => engine::run_serial(self.source, &self.config, factory.as_ref())?,
            Some(n) => engine::run_sharded(self.source, &self.config, factory.as_ref(), n)?,
        };
        let wall = started.elapsed();
        let fastpath = self.source.resident_records().is_none()
            && engine::streaming_fastpath(self.source, &self.config);
        Ok(RunOutcome {
            report,
            telemetry: RunTelemetry {
                wall,
                decode: self.source.decode_stats() - decode_before,
                peak_rss_kb: peak_rss_kb(),
                threads: workers.unwrap_or(1),
                strategy: factory.name().to_string(),
                fastpath,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cablevod_cache::StrategySpec;
    use cablevod_hfc::units::DataSize;
    use cablevod_trace::source::ChunkedTrace;
    use cablevod_trace::synth::{generate, SynthConfig};

    fn smoke() -> cablevod_trace::record::Trace {
        generate(&SynthConfig {
            users: 300,
            programs: 60,
            days: 3,
            ..SynthConfig::smoke_test()
        })
    }

    fn config() -> SimConfig {
        SimConfig::paper_default()
            .with_neighborhood_size(100)
            .with_per_peer_storage(DataSize::from_gigabytes(2))
            .with_warmup_days(1)
    }

    #[test]
    fn all_four_drivers_agree_and_report_their_shape() {
        let trace = smoke();
        let config = config();
        let serial = Simulation::over(&trace)
            .config(config.clone())
            .run()
            .expect("serial");
        assert_eq!(serial.telemetry.threads, 1);
        assert_eq!(serial.telemetry.strategy, "LFU");

        let sharded = Simulation::over(&trace)
            .config(config.clone())
            .threads(3)
            .run()
            .expect("sharded");
        assert_eq!(sharded.report, serial.report);
        assert_eq!(sharded.telemetry.threads, 3);

        let chunked = ChunkedTrace::new(&trace, 64);
        let streamed = Simulation::over(&chunked)
            .config(config.clone())
            .run()
            .expect("streaming");
        assert_eq!(streamed.report, serial.report);

        let streamed_sharded = Simulation::over(&chunked)
            .config(config)
            .threads(2)
            .run()
            .expect("streaming sharded");
        assert_eq!(streamed_sharded.report, serial.report);
    }

    #[test]
    fn explicit_factory_overrides_the_config_strategy() {
        let trace = smoke();
        let by_spec = Simulation::over(&trace)
            .config(config().with_strategy(StrategySpec::Lru))
            .run()
            .expect("spec run");
        let by_factory = Simulation::over(&trace)
            .config(config())
            .strategy_factory(StrategySpec::Lru.factory())
            .run()
            .expect("factory run");
        assert_eq!(by_factory.report, by_spec.report);
        assert_eq!(by_factory.telemetry.strategy, "LRU");
    }

    #[test]
    fn thread_policy_resolves_workers() {
        assert_eq!(ThreadPolicy::Serial.worker_count(), None);
        assert_eq!(ThreadPolicy::Fixed(4).worker_count(), Some(4));
        assert_eq!(ThreadPolicy::Fixed(0).worker_count(), Some(1));
        assert!(ThreadPolicy::Auto.worker_count().unwrap_or(0) >= 1);
    }
}
