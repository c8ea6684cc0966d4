//! The high-level public API: assemble a cable VoD system and simulate it.

use cablevod_hfc::units::BitRate;
use cablevod_sim::{baseline, SimConfig, SimError, SimReport, Simulation};
use cablevod_trace::record::Trace;

/// A configured cable VoD deployment: the paper's architecture ready to be
/// evaluated against a workload.
///
/// `VodSystem` is a thin, stable façade over [`SimConfig`] plus the
/// baseline helpers a capacity planner needs.
///
/// # Examples
///
/// ```
/// use cablevod::VodSystem;
/// use cablevod_trace::synth::{generate, SynthConfig};
///
/// let trace = generate(&SynthConfig { users: 300, programs: 60, days: 3,
///     ..SynthConfig::smoke_test() });
/// let system = VodSystem::paper_default().with_neighborhood_size(100).with_warmup_days(1);
/// let outcome = system.evaluate(&trace)?;
/// println!("savings: {:.0}%", outcome.savings * 100.0);
/// # Ok::<(), cablevod_sim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VodSystem {
    config: SimConfig,
}

/// A simulation report paired with its no-cache baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The cooperative-cache simulation report.
    pub report: SimReport,
    /// Peak no-cache server load on the same trace and window.
    pub baseline_peak: BitRate,
    /// Fraction of peak server load removed by the cache.
    pub savings: f64,
}

impl VodSystem {
    /// The paper's baseline deployment (1,000-peer neighborhoods, 10 GB
    /// per peer, 2 stream slots, LFU).
    pub fn paper_default() -> Self {
        VodSystem {
            config: SimConfig::paper_default(),
        }
    }

    /// Creates a system from an explicit simulation config.
    pub fn from_config(config: SimConfig) -> Self {
        VodSystem { config }
    }

    /// The underlying simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the simulation and pairs it with the no-cache baseline — the
    /// "how much server capacity does the cache save" question.
    ///
    /// # Errors
    ///
    /// Propagates configuration and engine failures.
    pub fn evaluate(&self, trace: &Trace) -> Result<Evaluation, SimError> {
        let report = Simulation::over(trace)
            .config(self.config.clone())
            .run()?
            .report;
        let baseline = baseline::no_cache_peak(
            trace,
            self.config.stream_rate(),
            report.measured_from_day,
            report.measured_to_day,
        );
        let savings = report.savings_vs(baseline.mean);
        Ok(Evaluation {
            report,
            baseline_peak: baseline.mean,
            savings,
        })
    }
}

// Builder-style delegation so callers never need to name SimConfig.
macro_rules! delegate_builder {
    ($(#[$doc:meta] $name:ident: $ty:ty),* $(,)?) => {
        impl VodSystem {
            $(
                #[$doc]
                #[must_use]
                pub fn $name(mut self, value: $ty) -> Self {
                    self.config = self.config.$name(value);
                    self
                }
            )*
        }
    };
}

delegate_builder! {
    /// Sets the neighborhood size.
    with_neighborhood_size: u32,
    /// Sets the per-peer storage contribution.
    with_per_peer_storage: cablevod_hfc::units::DataSize,
    /// Sets the per-STB concurrent stream limit.
    with_stream_slots: u8,
    /// Sets the cache strategy.
    with_strategy: cablevod_cache::StrategySpec,
    /// Sets the placement policy.
    with_placement: cablevod_cache::PlacementPolicy,
    /// Sets the segment length.
    with_segment_len: cablevod_hfc::units::SimDuration,
    /// Sets the warm-up days excluded from measurement.
    with_warmup_days: u64,
    /// Sets the per-segment replication factor.
    with_replication: u8,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cablevod_cache::StrategySpec;
    use cablevod_hfc::units::DataSize;
    use cablevod_trace::synth::{generate, SynthConfig};

    #[test]
    fn evaluate_reports_positive_savings() {
        let trace = generate(&SynthConfig {
            users: 500,
            programs: 100,
            days: 5,
            ..SynthConfig::smoke_test()
        });
        let system = VodSystem::paper_default()
            .with_neighborhood_size(250)
            .with_per_peer_storage(DataSize::from_gigabytes(3))
            .with_warmup_days(2);
        let outcome = system.evaluate(&trace).expect("runs");
        assert!(
            outcome.savings > 0.0,
            "cache saves something: {}",
            outcome.savings
        );
        assert!(outcome.baseline_peak.as_bps() > 0);
        assert!(outcome.report.server_peak.mean < outcome.baseline_peak);
    }

    #[test]
    fn builder_delegation_reaches_config() {
        let system = VodSystem::paper_default()
            .with_neighborhood_size(400)
            .with_strategy(StrategySpec::Lru)
            .with_replication(2);
        assert_eq!(system.config().neighborhood_size(), 400);
        assert_eq!(system.config().strategy(), StrategySpec::Lru);
        assert_eq!(system.config().replication(), 2);
    }
}
