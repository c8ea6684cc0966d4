//! The scenario grid executor: per-cell panic isolation, bounded retry
//! with exponential backoff, straggler timeouts, and checkpoint/resume
//! through [`checkpoint`](super::checkpoint).
//!
//! There is one grid loop and one cell body, and every executor runs
//! through them. [`Scenario::execute_resilient`] exposes all the knobs;
//! [`Scenario::execute`] and [`Scenario::execute_on`] run the same loop
//! with default [`ResilienceOptions`] and the built-in strategy registry,
//! then fold the cells into plain results. Cells fan out over up to
//! `sweep_width` workers of the shared pool, sharded-engine cells
//! included, and every cell is a bulkhead:
//!
//! * the cell body runs under `catch_unwind`, so a panicking strategy
//!   factory (or any other job-level panic) fails that one cell instead
//!   of tearing down the pool;
//! * a failed attempt retries up to [`JobRetry::max_retries`] times with
//!   doubling backoff — the executor-level mirror of the plant-level
//!   [`RetryPolicy`](crate::config::RetryPolicy);
//! * with a per-attempt timeout, the cell runs on a watchdog thread; an
//!   attempt that outlives the limit is marked failed and the straggler
//!   thread is abandoned (it owns clones of everything it touches, so
//!   abandonment is safe — it just burns its core until done);
//! * a completed cell is journaled *before* it is reported, so a crash
//!   after the journal append never re-runs that cell.
//!
//! Failure handling is all-or-each: by default an exhausted cell stops
//! the grid behind it (cells already in flight finish and are journaled;
//! cells later in grid order that have not started report
//! [`CellResult::Skipped`], while earlier ones still run, so the
//! lowest-index failure is always observed); with
//! `keep_going` every cell gets its chance and the failures are
//! collected side by side with the completed results in the returned
//! [`GridOutcome`].

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

use cablevod_cache::StrategyRegistry;
use cablevod_trace::record::Trace;
use cablevod_trace::source::TraceSource;

use super::checkpoint::{CellKey, CellRecord, CheckpointJournal, JournalHeader};
use super::{config_err, Job, OwnedSource, Scenario, SourceSpec};
use crate::error::SimError;
use crate::runner::{default_threads, run_indexed};
use crate::simulation::{RunOutcome, RunTelemetry, Simulation};

/// Bounded exponential backoff for failed *jobs* — the executor-level
/// mirror of the plant-level
/// [`RetryPolicy`](crate::config::RetryPolicy): `max_retries` additional
/// attempts after the first, waiting `base_backoff * 2^attempt` between
/// them. The default is no retries (panics are usually deterministic;
/// retry is for flaky environments — disk pressure, OOM-killed
/// stragglers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobRetry {
    max_retries: u8,
    base_backoff: Duration,
}

impl JobRetry {
    /// A policy with `max_retries` extra attempts and `base_backoff`
    /// before the first retry.
    pub fn new(max_retries: u8, base_backoff: Duration) -> Self {
        JobRetry {
            max_retries,
            base_backoff,
        }
    }

    /// No retries: one attempt per cell (the default).
    pub fn none() -> Self {
        JobRetry::default()
    }

    /// Extra attempts after the first.
    pub fn max_retries(&self) -> u8 {
        self.max_retries
    }

    /// Backoff before the first retry.
    pub fn base_backoff(&self) -> Duration {
        self.base_backoff
    }

    /// The wait before retry number `attempt` (zero-based):
    /// `base * 2^attempt`, saturating.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_backoff.saturating_mul(factor)
    }
}

/// Knobs of one [`Scenario::execute_resilient`] run.
#[derive(Debug, Clone, Default)]
pub struct ResilienceOptions {
    /// Journal completed cells here (and replay them on
    /// [`ResilienceOptions::resume`]). `None` runs without a journal —
    /// isolation, retry and timeout still apply.
    pub checkpoint: Option<PathBuf>,
    /// Replay cells already journaled at
    /// [`ResilienceOptions::checkpoint`] instead of re-running them. An
    /// absent journal file starts a fresh run; a journal written by a
    /// different scenario (fingerprint mismatch) is refused.
    pub resume: bool,
    /// Per-cell retry policy.
    pub retry: JobRetry,
    /// Per-attempt wall-clock limit; `None` waits forever. Timed-out
    /// attempts count as failures (and retry, if attempts remain).
    pub timeout: Option<Duration>,
    /// Keep running remaining cells after a cell exhausts its retries
    /// (default: stop scheduling new cells on the first failure).
    pub keep_going: bool,
}

/// Terminal state of one grid cell.
#[derive(Debug, Clone)]
pub enum CellResult {
    /// The cell has a report.
    Completed {
        /// The cell's run result (telemetry is zeroed for replayed
        /// cells — nothing ran). Boxed: a full report dwarfs the other
        /// variants.
        outcome: Box<RunOutcome>,
        /// Replayed from the checkpoint journal without running.
        replayed: bool,
        /// Live attempts spent (zero for replayed cells).
        attempts: u32,
    },
    /// Every attempt failed; the error text is from the last one.
    Failed {
        /// The last attempt's failure (panic message, timeout, or
        /// simulation error).
        error: String,
        /// Attempts spent.
        attempts: u32,
    },
    /// Never scheduled: an earlier cell failed without `keep_going`.
    Skipped,
}

/// One cell's identity, labels, and terminal state.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Stable grid identity.
    pub key: CellKey,
    /// Series-axis label.
    pub series: String,
    /// Point-axis label.
    pub point: String,
    /// What happened.
    pub result: CellResult,
}

/// Every cell of a resilient grid run, in job (point-major) order.
#[derive(Debug, Clone)]
pub struct GridOutcome {
    /// Per-cell outcomes, index `i` = cell
    /// `(i / series_len, i % series_len)`.
    pub cells: Vec<CellOutcome>,
}

impl GridOutcome {
    /// Whether every cell completed (live or replayed).
    pub fn is_complete(&self) -> bool {
        self.cells
            .iter()
            .all(|cell| matches!(cell.result, CellResult::Completed { .. }))
    }

    /// Cells that exhausted their retries, in grid order.
    pub fn failed(&self) -> impl Iterator<Item = &CellOutcome> {
        self.cells
            .iter()
            .filter(|cell| matches!(cell.result, CellResult::Failed { .. }))
    }

    /// Completed cells with their run outcomes, in grid order.
    pub fn completed(&self) -> impl Iterator<Item = (&CellOutcome, &RunOutcome)> {
        self.cells.iter().filter_map(|cell| match &cell.result {
            CellResult::Completed { outcome, .. } => Some((cell, outcome.as_ref())),
            _ => None,
        })
    }
}

/// The workload that cells without their own source run over.
pub(crate) enum Workload<'w> {
    /// The scenario's own materialized source (`None` when no live cell
    /// needs it). Owned, so a timed-out attempt's watchdog thread can
    /// hold it past the grid.
    Owned(Option<Arc<OwnedSource>>),
    /// A caller's resident trace ([`Scenario::execute_on`]). Borrowed,
    /// so it never rides a watchdog thread; only
    /// [`Scenario::execute_resilient`] sets a timeout.
    Borrowed(&'w Trace),
}

/// Why a cell's last attempt failed, kept typed until the executor
/// decides how to report it: [`Scenario::execute_resilient`] prints it
/// into [`CellResult::Failed`], while [`Scenario::execute`] returns the
/// error or resumes the panic.
pub(crate) enum Failure {
    /// The simulation (or the journal append) returned an error.
    Sim(SimError),
    /// The cell panicked; the payload is kept for `resume_unwind`.
    Panic(Box<dyn Any + Send>),
    /// The attempt timed out or its watchdog thread was lost.
    Lost(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Sim(e) => e.fmt(f),
            Failure::Panic(payload) => match payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            {
                Some(text) => write!(f, "job panicked: {text}"),
                None => f.write_str("job panicked"),
            },
            Failure::Lost(reason) => f.write_str(reason),
        }
    }
}

/// Journaled cells to replay and the journal to append new ones to —
/// both empty for the plain executors.
#[derive(Default)]
pub(crate) struct CellLog {
    replay: BTreeMap<CellKey, CellRecord>,
    journal: Option<Mutex<CheckpointJournal>>,
}

impl Scenario {
    /// Executes the grid with per-cell fault isolation and (optionally)
    /// a checkpoint journal — see the [module docs](self) and the
    /// crate's "Crash safety & resume" section.
    ///
    /// `progress` is called once per cell as it reaches a terminal
    /// state, from whichever worker finished it (concurrently under a
    /// parallel sweep).
    ///
    /// # Errors
    ///
    /// Fails *before running anything* for an unusable journal (corrupt,
    /// mid-journal damage, or written by a different scenario), an
    /// unresolvable strategy name, or a [`SourceSpec::Provided`] scenario
    /// source that a live cell actually needs. Per-cell failures do not
    /// error: they come back as [`CellResult::Failed`] /
    /// [`CellResult::Skipped`] in the [`GridOutcome`].
    pub fn execute_resilient(
        &self,
        registry: &StrategyRegistry,
        options: &ResilienceOptions,
        progress: &(dyn Fn(&CellOutcome) + Sync),
    ) -> Result<GridOutcome, SimError> {
        if options.resume && options.checkpoint.is_none() {
            return Err(config_err(
                "resume needs a checkpoint path (set ResilienceOptions::checkpoint)".into(),
            ));
        }
        let jobs = self.resolved_jobs(registry)?;
        let header = JournalHeader {
            scenario: self.name.clone(),
            fingerprint: self.fingerprint(),
            cells: jobs.len() as u32,
        };
        let mut replay: BTreeMap<CellKey, CellRecord> = BTreeMap::new();
        let journal = match &options.checkpoint {
            None => None,
            Some(path) if options.resume && path.exists() => {
                let loaded = CheckpointJournal::load(path)?;
                if *loaded.header() != header {
                    return Err(config_err(format!(
                        "checkpoint {} was written by a different scenario \
                         (fingerprint {:08x}, this spec is {:08x}) — delete the \
                         journal or restore the original spec",
                        path.display(),
                        loaded.header().fingerprint,
                        header.fingerprint
                    )));
                }
                for record in loaded.cells() {
                    let job = jobs
                        .iter()
                        .find(|job| job.cell == record.key)
                        .ok_or_else(|| {
                            config_err(format!(
                                "checkpoint {}: cell ({}) is outside the {}-cell grid",
                                path.display(),
                                record.key,
                                jobs.len()
                            ))
                        })?;
                    if job.series != record.series || job.point != record.point {
                        return Err(config_err(format!(
                            "checkpoint {}: cell ({}) was {:?} x {:?} when journaled \
                             but is {:?} x {:?} in this spec",
                            path.display(),
                            record.key,
                            record.series,
                            record.point,
                            job.series,
                            job.point
                        )));
                    }
                    replay.insert(record.key, record.clone());
                }
                Some(loaded)
            }
            Some(path) => Some(CheckpointJournal::create(path, header)?),
        };
        let log = CellLog {
            replay,
            journal: journal.map(Mutex::new),
        };
        let workload = Workload::Owned(self.shared_workload(&jobs, &log.replay)?);
        let cells = self.run_grid(&jobs, &workload, options, &log, progress);
        Ok(GridOutcome {
            cells: cells.into_iter().map(|(cell, _)| cell).collect(),
        })
    }

    /// Materializes the scenario's own source, but only when a live
    /// (non-replayed) cell needs it — either as its workload outright,
    /// or as the resident base of a `scaled` override — so a fully
    /// journaled resume rebuilds nothing at all.
    pub(crate) fn shared_workload(
        &self,
        jobs: &[Job],
        replay: &BTreeMap<CellKey, CellRecord>,
    ) -> Result<Option<Arc<OwnedSource>>, SimError> {
        let needs_shared = jobs.iter().any(|job| {
            !replay.contains_key(&job.cell)
                && (job.source.is_none() || matches!(job.source, Some(SourceSpec::Scaled { .. })))
        });
        if !needs_shared {
            return Ok(None);
        }
        if matches!(self.source, SourceSpec::Provided) {
            return Err(config_err(
                "a `provided` source has no workload of its own: \
                 run it through Scenario::execute_on, or give every \
                 axis point its own source"
                    .into(),
            ));
        }
        Ok(Some(Arc::new(self.source.materialize(None)?)))
    }

    /// The one grid loop: drives every cell to a terminal state over up
    /// to `sweep_width` workers of the shared pool and returns the cells
    /// in job (point-major) order, each with its last typed failure.
    /// Every cell — serial or sharded engine — is an independent job; a
    /// sharded cell's own workers draw from the same process-wide ledger
    /// as the sweep, so small cells pack around a big sharded job
    /// instead of the sweep serializing behind it.
    pub(crate) fn run_grid(
        &self,
        jobs: &[Job],
        workload: &Workload<'_>,
        options: &ResilienceOptions,
        log: &CellLog,
        progress: &(dyn Fn(&CellOutcome) + Sync),
    ) -> Vec<(CellOutcome, Option<Failure>)> {
        let width = self
            .sweep_width
            .unwrap_or_else(default_threads)
            .clamp(1, jobs.len().max(1));
        // The lowest failed job index so far (`usize::MAX`: none).
        let stop = AtomicUsize::new(usize::MAX);
        run_indexed(jobs.len(), width, |i| {
            let job = &jobs[i];
            let (mut result, failure) = run_cell(i, job, workload, options, log, &stop);
            // Decode counters live on the source; concurrent jobs over the
            // one shared source would each see the others' decode work in
            // their before/after delta, so per-job attribution only exists
            // when a job owns its source or ran alone — report zero, not
            // a wrong value.
            if let CellResult::Completed { outcome, .. } = &mut result {
                if width > 1 && job.source.is_none() {
                    outcome.telemetry.decode = Default::default();
                }
            }
            let outcome = CellOutcome {
                key: job.cell,
                series: job.series.clone(),
                point: job.point.clone(),
                result,
            };
            progress(&outcome);
            (outcome, failure)
        })
    }
}

/// Builds the [`RunOutcome`] of a journaled cell: the exact report, with
/// zeroed telemetry (nothing ran on resume).
fn replay_outcome(record: &CellRecord) -> Box<RunOutcome> {
    Box::new(RunOutcome {
        report: record.report.clone(),
        telemetry: RunTelemetry {
            wall: Duration::ZERO,
            decode: Default::default(),
            peak_rss_kb: None,
            threads: record.threads as usize,
            strategy: record.strategy.clone(),
            fastpath: false,
        },
    })
}

/// The cell body: drives one cell to a terminal state (replay, attempts
/// loop, journal append) — the bulkhead around one grid job.
fn run_cell(
    index: usize,
    job: &Job,
    workload: &Workload<'_>,
    options: &ResilienceOptions,
    log: &CellLog,
    stop: &AtomicUsize,
) -> (CellResult, Option<Failure>) {
    // Replay wins over the stop flag: journaled cells stay completed
    // even in a run that fails elsewhere, keeping resume monotone.
    if let Some(record) = log.replay.get(&job.cell) {
        let result = CellResult::Completed {
            outcome: replay_outcome(record),
            replayed: true,
            attempts: 0,
        };
        return (result, None);
    }
    if stop.load(Ordering::SeqCst) < index {
        return (CellResult::Skipped, None);
    }
    let fail = |failure: Failure, attempts: u32| {
        if !options.keep_going {
            stop.fetch_min(index, Ordering::SeqCst);
        }
        let result = CellResult::Failed {
            error: failure.to_string(),
            attempts,
        };
        (result, Some(failure))
    };
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match run_attempt(job, workload, options.timeout) {
            Ok(outcome) => {
                if let Some(journal) = &log.journal {
                    let record = CellRecord {
                        key: job.cell,
                        series: job.series.clone(),
                        point: job.point.clone(),
                        strategy: outcome.telemetry.strategy.clone(),
                        threads: outcome.telemetry.threads as u64,
                        report: outcome.report.clone(),
                    };
                    let appended = journal
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .append(record);
                    if let Err(e) = appended {
                        // A result that cannot reach the journal fails
                        // the cell: dropping checkpoint durability
                        // silently would void the crash-safety contract.
                        return fail(Failure::Sim(e), attempts);
                    }
                }
                let result = CellResult::Completed {
                    outcome: Box::new(outcome),
                    replayed: false,
                    attempts,
                };
                return (result, None);
            }
            Err(failure) => {
                if attempts > u32::from(options.retry.max_retries()) {
                    return fail(failure, attempts);
                }
                std::thread::sleep(options.retry.backoff(attempts - 1));
            }
        }
    }
}

/// One attempt: inline under `catch_unwind` without a timeout, on an
/// abandonable watchdog thread with one. The watchdog's parts are owned
/// clones (the job and the `Arc`'d workload), so abandoning it leaves no
/// dangling borrow.
fn run_attempt(
    job: &Job,
    workload: &Workload<'_>,
    timeout: Option<Duration>,
) -> Result<RunOutcome, Failure> {
    let (Some(limit), Workload::Owned(shared)) = (timeout, workload) else {
        return catch_run(job, workload);
    };
    let (tx, rx) = mpsc::channel();
    let name = format!("cell-{}x{}", job.cell.point, job.cell.series);
    let owned = (job.clone(), Workload::Owned(shared.clone()));
    let handle = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let (job, workload) = owned;
            let _ = tx.send(catch_run(&job, &workload));
        })
        .map_err(|e| Failure::Lost(format!("cannot spawn cell worker: {e}")))?;
    match rx.recv_timeout(limit) {
        Ok(result) => {
            let _ = handle.join();
            result
        }
        // The straggler keeps its owned clones alive; we just stop
        // waiting for it.
        Err(mpsc::RecvTimeoutError::Timeout) => Err(Failure::Lost(format!(
            "cell timed out after {:.1}s (straggler abandoned)",
            limit.as_secs_f64()
        ))),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Err(Failure::Lost("cell worker exited without a result".into()))
        }
    }
}

/// Runs the attempt body, keeping errors and panics typed — the bulkhead
/// wall itself.
fn catch_run(job: &Job, workload: &Workload<'_>) -> Result<RunOutcome, Failure> {
    match catch_unwind(AssertUnwindSafe(|| job.run(workload))) {
        Ok(result) => result.map_err(Failure::Sim),
        Err(payload) => Err(Failure::Panic(payload)),
    }
}

impl Job {
    /// Runs this job over its own source or the grid's workload — the
    /// one place a cell's [`Simulation`] is built.
    fn run(&self, workload: &Workload<'_>) -> Result<RunOutcome, SimError> {
        let sim = |source: &dyn TraceSource| {
            Simulation::over(source)
                .config(self.config.clone())
                .strategy_factory(self.factory.clone())
                .thread_policy(self.threads)
                .run()
        };
        let (shared, resident): (Option<&dyn TraceSource>, _) = match workload {
            Workload::Owned(owned) => (
                owned.as_deref().map(OwnedSource::source),
                owned.as_deref().and_then(OwnedSource::resident),
            ),
            Workload::Borrowed(trace) => (Some(*trace), Some(*trace)),
        };
        match &self.source {
            None => sim(shared.ok_or_else(|| {
                config_err("a cell without its own source needs the scenario workload".into())
            })?),
            // Materialized inside the attempt, dropped with it — override
            // sources never outlive their cell, so a sweep holds at most
            // one per worker.
            Some(spec) => sim(spec.materialize(resident)?.source()),
        }
    }
}
