//! Clocked trace replay: feed a finished trace through the online
//! decision tier as if its sessions were arriving live.
//!
//! Against a [`WallClock`](crate::WallClock) this paces submissions in
//! real time; against an [`AcceleratedClock`](crate::AcceleratedClock)
//! the clock jumps straight to each arrival and the run goes as fast as
//! the engine can step — which is both the loopback-equivalence harness
//! (the final report must match the offline replay byte-for-byte) and
//! the `serve/*` bench.

use std::time::Instant;

use cablevod_cache::StrategyFactory;
use cablevod_sim::engine::online::{serve_serial, OnlineEngine, OnlineSpec};
use cablevod_sim::{SimConfig, SimError, SimReport};
use cablevod_trace::record::Trace;

use crate::clock::ClockSource;
use crate::hist::LatencyHistogram;

/// What a clocked replay produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The final report — byte-identical to the offline replay of the
    /// same trace.
    pub report: SimReport,
    /// Per-session decision latency (submit + advance, amortized over
    /// each same-instant batch).
    pub latency: LatencyHistogram,
    /// Sessions submitted.
    pub submitted: u64,
    /// The placement epoch after the last advance.
    pub epoch: u64,
}

/// Replays `trace` through the online decision tier ([`serve_serial`]:
/// one driver over the whole plant), pacing submissions with `clock`.
///
/// Each distinct arrival instant waits on the clock, submits every
/// session due at or before "now", then advances the engine to "now" —
/// so the engine observes exactly the offline event order, and the final
/// report is byte-identical to the offline replay's.
///
/// # Errors
///
/// As for [`serve_serial`] (invalid config/spec, lifecycle failures);
/// additionally the trace's records must be sorted by start time, which
/// every [`Trace`] guarantees.
pub fn replay_trace(
    trace: &Trace,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
    clock: &mut dyn ClockSource,
) -> Result<ReplayOutcome, SimError> {
    let spec = OnlineSpec::from_source(trace);
    let session = |engine: &mut dyn OnlineEngine| drive(trace, engine, clock);
    let ((latency, submitted, epoch), report) = serve_serial(&spec, config, strategy, session)?;
    Ok(ReplayOutcome {
        report,
        latency,
        submitted,
        epoch,
    })
}

fn drive(
    trace: &Trace,
    engine: &mut dyn OnlineEngine,
    clock: &mut dyn ClockSource,
) -> Result<(LatencyHistogram, u64, u64), SimError> {
    let mut latency = LatencyHistogram::new();
    let records = trace.records();
    let mut i = 0;
    while i < records.len() {
        clock.wait_until(records[i].start);
        let now = clock.now();
        let t0 = Instant::now();
        let mut batch: u64 = 0;
        while i < records.len() && records[i].start <= now {
            engine.submit(records[i])?;
            i += 1;
            batch += 1;
        }
        engine.advance_to(now)?;
        if batch > 0 {
            let per_session =
                u64::try_from(t0.elapsed().as_nanos() / u128::from(batch)).unwrap_or(u64::MAX);
            for _ in 0..batch {
                latency.record(per_session);
            }
        }
    }
    Ok((latency, engine.submitted(), engine.epoch()))
}
