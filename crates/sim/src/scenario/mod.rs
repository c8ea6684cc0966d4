//! Declarative experiment descriptions: [`Scenario`] specs and their
//! generic executor.
//!
//! A [`Scenario`] is data — a trace source ([`SourceSpec`]), a base
//! [`SimConfig`], two sweep axes ([`AxisPoint`]s for figure *series* and
//! *points*, each able to patch the config, switch the strategy, or even
//! swap the trace source), and a [`ThreadPolicy`]. One grid executor
//! ([`Scenario::execute_resilient`], folded into plain results by
//! [`Scenario::execute`] / [`Scenario::execute_on`]) turns any such
//! description into labelled [`RunOutcome`]s, which is how the paper's
//! experiment harnesses in
//! `cablevod::experiments` collapse into data plus one runner, and how
//! the `cablevod-scenario` binary runs an experiment from a spec file
//! end-to-end.
//!
//! # Execution model
//!
//! The job list is the cross product `points × series` (point-major, so
//! figure rows group naturally). With [`ThreadPolicy::Serial`] (the
//! default) jobs run **in parallel across cores**, each on the serial
//! engine — the classic sweep shape; with [`ThreadPolicy::Fixed`] /
//! [`ThreadPolicy::Auto`] jobs run one after another, each sharded over
//! the engine's worker pool. Either way results come back in job order
//! and are bit-identical to running each job by hand.
//!
//! A point that carries its own [`AxisPoint::source`] materializes that
//! source *inside its job* and drops it before the job returns — a sweep
//! over differently-scaled traces ([`SourceSpec::Scaled`], the Fig 15–16
//! shape) holds at most one scaled trace per in-flight job, never the
//! whole grid.
//!
//! # The spec-file format
//!
//! [`Scenario::to_spec_string`] / [`Scenario::from_spec_str`] round-trip
//! a scenario through a small line-based text format (written for the
//! offline build environment — the serde derives on these types are the
//! vendored markers):
//!
//! ```text
//! name = smoke
//! threads = serial            # serial | auto | engine:<n>
//! sweep_width = 2             # optional cap on concurrent sweep jobs
//!
//! [source]
//! kind = synth                # synth | synth-disk | columnar | csv | scaled | provided
//! preset = smoke_test         # synth presets: powerinfo | experiment_default | smoke_test
//! users = 400
//! days = 3
//!
//! [config]
//! strategy = lfu:7d           # StrategySpec::parse grammar (built-ins only here;
//!                             # axis entries may use strategy=@name for registry entries)
//! neighborhood_size = 100
//! per_peer_storage_gb = 2
//! warmup_days = 1
//! admission = enforcing       # counting (default) | enforcing; also an axis key
//! retry = 3x30s               # <max_retries>x<base_backoff_secs>s; also an axis key
//!
//! [faults]                    # optional degraded-plant plan (crate-level "Fault model" docs):
//! outage = start=3600 end=5400 nbhd=2      # seconds; omit nbhd= for plant-wide
//! derate = start=0 end=86400 permille=500 nbhd=0
//! seeded = seed=42 neighborhoods=4 outages=3 derates=2 horizon_days=3
//!                             # seeded entries expand to explicit events at parse
//!                             # time, so a re-rendered spec lists them explicitly
//!
//! [series]                    # one labelled axis entry per line:
//! LRU = strategy=lru          #   label = key=value ...  [| source key=value ...]
//! LFU = strategy=lfu:7d
//!
//! [points]
//! 1GB = per_peer_storage_gb=1
//! 2GB = per_peer_storage_gb=2
//! ```
//!
//! The `[config]` section covers the commonly swept knobs; fields it
//! cannot express (a custom coax envelope, exotic synth-generator
//! parameters) make [`Scenario::to_spec_string`] fail rather than
//! silently drop them — such scenarios stay programmatic.
//!
//! # Crash safety & resume
//!
//! [`Scenario::execute_resilient`] (the [`resilient`] submodule, driving
//! the `cablevod-scenario` `--checkpoint`/`--resume` flags) makes a grid
//! survive panics, stragglers, and hard kills:
//!
//! * **Cell-identity contract** — every job is one *cell* of the
//!   point-major cross product, identified by a stable, hashable
//!   [`CellKey`] `{point, series}`: indices into [`Scenario::points`] /
//!   [`Scenario::series`] in declaration order (implicit axes count as
//!   one entry at index 0). Cell `(p, s)` is job number
//!   `p * series_len + s`, and this mapping is part of the spec format's
//!   compatibility surface — reordering axis entries changes cell
//!   identities (and the spec fingerprint with them).
//! * **Journal record format** — the checkpoint journal is JSONL: one
//!   `CVJ1 <crc32-hex> <json>` line per record, a header first (scenario
//!   name, [`Scenario::fingerprint`], cell count), then one record per
//!   *completed* cell carrying its integer-exact
//!   [`SimReport`](crate::SimReport). The CRC-32 (same polynomial as the
//!   columnar trace format) covers the JSON body bytes.
//! * **CRC coverage & the torn-tail rule** — the journal is published by
//!   write-temp-then-rename so it is always absent or valid; on load, a
//!   corrupt *final* record (torn or bit-flipped tail) is detected and
//!   dropped — never trusted — while corruption *before* a valid record
//!   fails the whole load. Details in [`checkpoint`].
//! * **Isolation, retry, timeout** — each cell runs under
//!   `catch_unwind`, so one panicking job poisons only its own cell;
//!   failed cells retry with bounded exponential backoff
//!   ([`JobRetry`], the executor-level mirror of the plant-level
//!   [`RetryPolicy`]); an optional per-attempt wall-clock timeout marks
//!   stragglers as failed. Cells that exhaust retries are reported in
//!   the [`GridOutcome`] (and as `failed_cells` by the binary) while the
//!   rest of the grid completes.
//!
//! Because every report field is an exact integer, a resumed grid's
//! final report is **byte-identical** to an uninterrupted run — replayed
//! cells skip their jobs entirely, including [`SourceSpec::Scaled`]
//! trace builds.

pub mod checkpoint;
pub mod resilient;

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cablevod_cache::{
    FillPolicy, PlacementPolicy, StrategyFactory, StrategyRegistry, StrategySpec,
};
use cablevod_hfc::coax::CoaxSpec;
use cablevod_hfc::fault::{FaultEvent, FaultKind, FaultPlan};
use cablevod_hfc::ids::NeighborhoodId;
use cablevod_hfc::units::{BitRate, DataSize, SimDuration, SimTime};
use cablevod_trace::columnar::{ColumnarReader, DEFAULT_CHUNK_SIZE};
use cablevod_trace::io as trace_io;
use cablevod_trace::rechunk::{import_chunk_size, rechunk_multi_index};
use cablevod_trace::record::Trace;
use cablevod_trace::scale;
use cablevod_trace::source::TraceSource;
use cablevod_trace::synth::{generate, generate_to_disk, SynthConfig};
use serde::{Deserialize, Serialize};

use crate::config::{AdmissionMode, RetryPolicy, SimConfig};
use crate::error::SimError;
use crate::simulation::{RunOutcome, ThreadPolicy};

pub use checkpoint::{
    report_from_json_str, report_to_json_string, CellKey, CellRecord, CheckpointJournal,
    JournalHeader,
};
use resilient::{CellLog, Failure, Workload};
pub use resilient::{CellOutcome, CellResult, GridOutcome, JobRetry, ResilienceOptions};

/// A serializable description of a whole experiment (see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (reports and telemetry).
    pub name: String,
    /// Where the workload comes from.
    pub source: SourceSpec,
    /// The configuration every job starts from.
    pub base: SimConfig,
    /// The figure-series axis (strategies, fill modes, ...). Empty means
    /// one implicit series labelled after the base strategy.
    pub series: Vec<AxisPoint>,
    /// The figure-point (x) axis. Empty means one implicit point
    /// labelled `default`.
    pub points: Vec<AxisPoint>,
    /// How each job runs (see the module docs for sweep scheduling).
    pub threads: ThreadPolicy,
    /// Cap on concurrently running sweep jobs under
    /// [`ThreadPolicy::Serial`] (`None` = one per core). Points that
    /// materialize their own sources hold one workload per in-flight
    /// job, so a sweep over large per-point sources bounds its peak
    /// memory (and temp-disk footprint) with this knob — `Some(1)`
    /// reproduces a strict one-at-a-time sweep.
    pub sweep_width: Option<usize>,
}

/// One labelled entry on a scenario axis.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AxisPoint {
    /// Row/column label in figures and reports.
    pub label: String,
    /// Configuration overrides this entry applies on top of the base.
    pub patch: ConfigPatch,
    /// Strategy override (point-level wins over series-level).
    pub strategy: Option<StrategyRef>,
    /// Trace-source override: materialized inside the job and dropped
    /// with it (the Fig 15–16 scaled-trace shape).
    pub source: Option<SourceSpec>,
}

impl AxisPoint {
    /// A no-op entry with just a label.
    pub fn new(label: impl Into<String>) -> Self {
        AxisPoint {
            label: label.into(),
            ..AxisPoint::default()
        }
    }

    /// Sets the config patch.
    #[must_use]
    pub fn with_patch(mut self, patch: ConfigPatch) -> Self {
        self.patch = patch;
        self
    }

    /// Overrides the strategy with a built-in spec.
    #[must_use]
    pub fn with_strategy(mut self, spec: StrategySpec) -> Self {
        self.strategy = Some(StrategyRef::Spec(spec));
        self
    }

    /// Overrides the strategy with a registry name.
    #[must_use]
    pub fn with_strategy_named(mut self, name: impl Into<String>) -> Self {
        self.strategy = Some(StrategyRef::Named(name.into()));
        self
    }

    /// Overrides the trace source for this entry's jobs.
    #[must_use]
    pub fn with_source(mut self, source: SourceSpec) -> Self {
        self.source = Some(source);
        self
    }
}

/// How an axis entry names its strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StrategyRef {
    /// A built-in [`StrategySpec`].
    Spec(StrategySpec),
    /// A name resolved against the executor's
    /// [`StrategyRegistry`] (out-of-tree strategies).
    Named(String),
}

/// Optional overrides of the commonly swept [`SimConfig`] fields.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ConfigPatch {
    /// Overrides [`SimConfig::neighborhood_size`].
    pub neighborhood_size: Option<u32>,
    /// Overrides [`SimConfig::per_peer_storage`].
    pub per_peer_storage: Option<DataSize>,
    /// Overrides [`SimConfig::stream_slots`].
    pub stream_slots: Option<u8>,
    /// Overrides [`SimConfig::segment_len`].
    pub segment_len: Option<SimDuration>,
    /// Overrides [`SimConfig::warmup_days`].
    pub warmup_days: Option<u64>,
    /// Overrides [`SimConfig::replication`].
    pub replication: Option<u8>,
    /// Overrides [`SimConfig::placement`].
    pub placement: Option<PlacementPolicy>,
    /// Overrides the fill policy ([`SimConfig::with_fill_override`]).
    pub fill: Option<FillPolicy>,
    /// Overrides [`SimConfig::admission`].
    pub admission: Option<AdmissionMode>,
    /// Overrides [`SimConfig::retry`].
    pub retry: Option<RetryPolicy>,
}

macro_rules! patch_setters {
    ($(#[$doc:meta] $name:ident: $field:ident, $ty:ty),* $(,)?) => {
        impl ConfigPatch {
            $(
                #[$doc]
                #[must_use]
                pub fn $name(mut self, value: $ty) -> Self {
                    self.$field = Some(value);
                    self
                }
            )*
        }
    };
}

patch_setters! {
    /// Sets the neighborhood-size override.
    with_neighborhood_size: neighborhood_size, u32,
    /// Sets the per-peer-storage override.
    with_per_peer_storage: per_peer_storage, DataSize,
    /// Sets the stream-slots override.
    with_stream_slots: stream_slots, u8,
    /// Sets the segment-length override.
    with_segment_len: segment_len, SimDuration,
    /// Sets the warm-up-days override.
    with_warmup_days: warmup_days, u64,
    /// Sets the replication override.
    with_replication: replication, u8,
    /// Sets the placement override.
    with_placement: placement, PlacementPolicy,
    /// Sets the fill-policy override.
    with_fill: fill, FillPolicy,
    /// Sets the admission-mode override.
    with_admission: admission, AdmissionMode,
    /// Sets the retry-policy override.
    with_retry: retry, RetryPolicy,
}

impl ConfigPatch {
    /// Applies the set fields on top of `base`.
    pub fn apply(&self, mut base: SimConfig) -> SimConfig {
        if let Some(v) = self.neighborhood_size {
            base = base.with_neighborhood_size(v);
        }
        if let Some(v) = self.per_peer_storage {
            base = base.with_per_peer_storage(v);
        }
        if let Some(v) = self.stream_slots {
            base = base.with_stream_slots(v);
        }
        if let Some(v) = self.segment_len {
            base = base.with_segment_len(v);
        }
        if let Some(v) = self.warmup_days {
            base = base.with_warmup_days(v);
        }
        if let Some(v) = self.replication {
            base = base.with_replication(v);
        }
        if let Some(v) = self.placement {
            base = base.with_placement(v);
        }
        if let Some(v) = self.fill {
            base = base.with_fill_override(v);
        }
        if let Some(v) = self.admission {
            base = base.with_admission(v);
        }
        if let Some(v) = self.retry {
            base = base.with_retry(v);
        }
        base
    }
}

/// Where a scenario's workload comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SourceSpec {
    /// The caller supplies the source at execution time
    /// ([`Scenario::execute_on`]); [`Scenario::execute`] and
    /// [`Scenario::execute_resilient`] reject it when a job needs it.
    Provided,
    /// An in-memory synthetic workload.
    Synth(SynthConfig),
    /// A synthetic workload generated straight to a temporary columnar
    /// file and replayed through the streaming engine (never resident).
    /// The file lives in the process temp dir (honors `TMPDIR`) and is
    /// removed when the materialized source drops.
    SynthDisk {
        /// Generator configuration.
        synth: SynthConfig,
        /// Records per columnar chunk.
        chunk_records: u32,
        /// Neighborhood sizes to re-chunk the generated file
        /// neighborhood-major for (empty: replay time-major). Several
        /// sizes produce one multi-index file whose per-size indexes let
        /// a neighborhood-size sweep hit the decode-once fast path at
        /// every listed size.
        rechunk: Vec<u32>,
    },
    /// An existing columnar `.cvtc` file.
    Columnar {
        /// File path.
        path: String,
        /// Re-chunk neighborhood-major at these neighborhood sizes into
        /// a temporary file before replay (import-time optimization for
        /// sharded runs; empty: replay the file as-is). Several sizes
        /// produce one multi-index file — the spec form is
        /// `rechunk=60,100` — so a neighborhood-size sweep over exactly
        /// those sizes streams the shared columns through the fast path
        /// instead of the merge fallback.
        rechunk: Vec<u32>,
    },
    /// CSV record + catalog files (the PowerInfo import shape).
    Csv {
        /// Records CSV path.
        records: String,
        /// Catalog CSV path.
        catalog: String,
    },
    /// The enclosing scenario's trace scaled by the §V-A transforms —
    /// only meaningful as a per-point override, and requires the base
    /// source to be resident.
    Scaled {
        /// User-population factor.
        population: u32,
        /// Catalog factor.
        catalog: u32,
        /// Seed of the deterministic scaling transforms.
        seed: u64,
    },
}

/// A temporary file removed on drop.
#[derive(Debug)]
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let n = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cvsc_{tag}_{}_{n}.cvtc", std::process::id()))
}

/// Re-chunks `reader` neighborhood-major into a fresh temp file carrying
/// one chunk index per size in `sizes` (see
/// [`rechunk_multi_index`]). With the simulator's aligned placement the
/// finest size has the most cells, so it drives the per-cell buffer
/// budget.
fn rechunk_to_temp(reader: &ColumnarReader, sizes: &[u32]) -> Result<TempFile, SimError> {
    let nm = temp_path("rechunk");
    let finest = sizes.iter().copied().min().unwrap_or(1);
    let chunk = import_chunk_size(reader.user_count(), finest, DEFAULT_CHUNK_SIZE, 64 << 20);
    rechunk_multi_index(reader, &nm, sizes, chunk)?;
    Ok(TempFile(nm))
}

/// A materialized [`SourceSpec`]: owns the trace (or the open reader plus
/// any temporary files) for exactly as long as its jobs need it —
/// dropping it frees the workload and removes any temporary files.
pub struct OwnedSource {
    inner: OwnedInner,
}

enum OwnedInner {
    /// A fully resident trace.
    Resident(Trace),
    /// An open columnar reader, optionally over temporary files removed
    /// when this source drops.
    Columnar {
        reader: ColumnarReader,
        #[allow(dead_code)] // held for its Drop
        temp: Vec<TempFile>,
    },
}

impl OwnedSource {
    /// The trace-source view of this workload.
    pub fn source(&self) -> &dyn TraceSource {
        match &self.inner {
            OwnedInner::Resident(trace) => trace,
            OwnedInner::Columnar { reader, .. } => reader,
        }
    }

    /// The resident trace, when this source is in memory.
    pub fn resident(&self) -> Option<&Trace> {
        match &self.inner {
            OwnedInner::Resident(trace) => Some(trace),
            OwnedInner::Columnar { .. } => None,
        }
    }

    fn resident_from(trace: Trace) -> Self {
        OwnedSource {
            inner: OwnedInner::Resident(trace),
        }
    }

    fn columnar(reader: ColumnarReader, temp: Vec<TempFile>) -> Self {
        OwnedSource {
            inner: OwnedInner::Columnar { reader, temp },
        }
    }
}

fn open(path: &str) -> Result<BufReader<File>, SimError> {
    File::open(path)
        .map(BufReader::new)
        .map_err(|e| SimError::Config {
            reason: format!("cannot open {path}: {e}"),
        })
}

impl SourceSpec {
    /// Materializes this spec into an owned workload. `base` is the
    /// enclosing scenario's resident trace, needed only by
    /// [`SourceSpec::Scaled`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for [`SourceSpec::Provided`], for a
    /// scaled spec without a resident base, and propagates generation and
    /// I/O failures.
    pub fn materialize(&self, base: Option<&Trace>) -> Result<OwnedSource, SimError> {
        match self {
            SourceSpec::Provided => Err(SimError::Config {
                reason: "a `provided` source has no workload of its own: \
                         run it through Scenario::execute_on"
                    .into(),
            }),
            SourceSpec::Synth(config) => Ok(OwnedSource::resident_from(generate(config))),
            SourceSpec::SynthDisk {
                synth,
                chunk_records,
                rechunk,
            } => {
                let path = temp_path("synth");
                generate_to_disk(synth, &path, *chunk_records)?;
                let mut temp = vec![TempFile(path)];
                if !rechunk.is_empty() {
                    let reader = ColumnarReader::open(&temp[0].0)?;
                    temp.push(rechunk_to_temp(&reader, rechunk)?);
                }
                let reader = ColumnarReader::open(&temp.last().expect("non-empty").0)?;
                Ok(OwnedSource::columnar(reader, temp))
            }
            SourceSpec::Columnar { path, rechunk } if rechunk.is_empty() => Ok(
                OwnedSource::columnar(ColumnarReader::open(Path::new(path))?, Vec::new()),
            ),
            SourceSpec::Columnar { path, rechunk } => {
                let reader = ColumnarReader::open(Path::new(path))?;
                let temp = vec![rechunk_to_temp(&reader, rechunk)?];
                let reader = ColumnarReader::open(&temp[0].0)?;
                Ok(OwnedSource::columnar(reader, temp))
            }
            SourceSpec::Csv { records, catalog } => {
                let catalog = trace_io::read_catalog(open(catalog)?)?;
                Ok(OwnedSource::resident_from(trace_io::read_records(
                    open(records)?,
                    catalog,
                )?))
            }
            SourceSpec::Scaled {
                population,
                catalog,
                seed,
            } => {
                let base = base.ok_or_else(|| SimError::Config {
                    reason: "a `scaled` source needs a resident base trace \
                             (scenario-level source must be resident)"
                        .into(),
                })?;
                Ok(OwnedSource::resident_from(scale::scale(
                    base,
                    *population,
                    *catalog,
                    *seed,
                )?))
            }
        }
    }
}

/// One labelled result of a scenario sweep.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The series-axis label this job ran under.
    pub series: String,
    /// The point-axis label this job ran under.
    pub point: String,
    /// The run's report and telemetry.
    pub outcome: RunOutcome,
}

impl ScenarioOutcome {
    /// The job's simulation report.
    pub fn report(&self) -> &crate::report::SimReport {
        &self.outcome.report
    }
}

/// One resolved job of the cross product, tagged with its stable cell
/// identity (see the module docs' cell-identity contract).
#[derive(Clone)]
pub(crate) struct Job {
    pub(crate) cell: CellKey,
    pub(crate) series: String,
    pub(crate) point: String,
    pub(crate) config: SimConfig,
    pub(crate) factory: Arc<dyn StrategyFactory>,
    pub(crate) source: Option<SourceSpec>,
    pub(crate) threads: ThreadPolicy,
}

impl Scenario {
    /// A scenario with no axes over `source` and `base`.
    pub fn new(name: impl Into<String>, source: SourceSpec, base: SimConfig) -> Self {
        Scenario {
            name: name.into(),
            source,
            base,
            series: Vec::new(),
            points: Vec::new(),
            threads: ThreadPolicy::Serial,
            sweep_width: None,
        }
    }

    /// A scenario whose workload is supplied at execution time
    /// ([`Scenario::execute_on`]) — the shape the experiment harnesses
    /// use.
    pub fn provided(name: impl Into<String>, base: SimConfig) -> Self {
        Scenario::new(name, SourceSpec::Provided, base)
    }

    /// Sets the series axis.
    #[must_use]
    pub fn with_series(mut self, series: Vec<AxisPoint>) -> Self {
        self.series = series;
        self
    }

    /// Sets the point axis.
    #[must_use]
    pub fn with_points(mut self, points: Vec<AxisPoint>) -> Self {
        self.points = points;
        self
    }

    /// Sets the thread policy.
    #[must_use]
    pub fn with_threads(mut self, threads: ThreadPolicy) -> Self {
        self.threads = threads;
        self
    }

    /// Caps concurrently running sweep jobs (see
    /// [`Scenario::sweep_width`]).
    #[must_use]
    pub fn with_sweep_width(mut self, width: usize) -> Self {
        self.sweep_width = Some(width.max(1));
        self
    }

    /// Executes the scenario's own source with the built-in registry:
    /// the [`Scenario::execute_resilient`] grid with default options, folded
    /// into plain results in point-major order.
    ///
    /// # Errors
    ///
    /// Fails before running anything for a [`SourceSpec::Provided`]
    /// scenario source that some job actually needs (a scenario whose
    /// every point carries its own source runs fine). Otherwise returns
    /// the first failing cell's error in grid order; a failure stops
    /// scheduling the cells after it, and a panicking cell resumes its
    /// panic in the caller.
    pub fn execute(&self) -> Result<Vec<ScenarioOutcome>, SimError> {
        let jobs = self.resolved_jobs(&StrategyRegistry::builtin())?;
        let shared = self.shared_workload(&jobs, &Default::default())?;
        self.execute_default(&jobs, &Workload::Owned(shared))
    }

    /// [`Scenario::execute`] against a caller-provided resident trace
    /// (ignoring the scenario's own [`SourceSpec`]).
    ///
    /// # Errors
    ///
    /// As for [`Scenario::execute`], minus the `provided`-source check.
    pub fn execute_on(&self, trace: &Trace) -> Result<Vec<ScenarioOutcome>, SimError> {
        let jobs = self.resolved_jobs(&StrategyRegistry::builtin())?;
        self.execute_default(&jobs, &Workload::Borrowed(trace))
    }

    /// Runs the grid with default options and folds it: outcomes in job
    /// order, or the first failed cell's typed error (a panic resumes).
    fn execute_default(
        &self,
        jobs: &[Job],
        workload: &Workload<'_>,
    ) -> Result<Vec<ScenarioOutcome>, SimError> {
        let cells = self.run_grid(
            jobs,
            workload,
            &ResilienceOptions::default(),
            &CellLog::default(),
            &|_| {},
        );
        let mut outcomes = Vec::with_capacity(cells.len());
        for (cell, failure) in cells {
            // Only failed cells carry a failure, and a skipped cell always
            // comes after a failed one, so the first failure returns first.
            if let Some(failure) = failure {
                return Err(match failure {
                    Failure::Sim(e) => e,
                    Failure::Panic(payload) => std::panic::resume_unwind(payload),
                    lost @ Failure::Lost(_) => config_err(lost.to_string()),
                });
            }
            if let CellResult::Completed { outcome, .. } = cell.result {
                outcomes.push(ScenarioOutcome {
                    series: cell.series,
                    point: cell.point,
                    outcome: *outcome,
                });
            }
        }
        Ok(outcomes)
    }

    /// Resolves the point-major cross product into concrete jobs — the
    /// single source of truth for cell identity and ordering: job `i` is
    /// cell `(i / series_len, i % series_len)`, shared by the plain and
    /// the resilient executor so journaled cells always replay into the
    /// same grid slot.
    pub(crate) fn resolved_jobs(&self, registry: &StrategyRegistry) -> Result<Vec<Job>, SimError> {
        let implicit_series = [AxisPoint::new(self.base.strategy().label())];
        let implicit_point = [AxisPoint::new("default")];
        let series: &[AxisPoint] = if self.series.is_empty() {
            &implicit_series
        } else {
            &self.series
        };
        let points: &[AxisPoint] = if self.points.is_empty() {
            &implicit_point
        } else {
            &self.points
        };

        let mut jobs = Vec::with_capacity(series.len() * points.len());
        for (point_idx, point) in points.iter().enumerate() {
            for (series_idx, entry) in series.iter().enumerate() {
                let mut config = point.patch.apply(entry.patch.apply(self.base.clone()));
                let strategy_ref = point.strategy.as_ref().or(entry.strategy.as_ref());
                let factory = match strategy_ref {
                    None => config.strategy().factory(),
                    Some(StrategyRef::Spec(spec)) => {
                        config = config.with_strategy(*spec);
                        spec.factory()
                    }
                    Some(StrategyRef::Named(name)) => registry.resolve(name)?,
                };
                jobs.push(Job {
                    cell: CellKey {
                        point: point_idx as u32,
                        series: series_idx as u32,
                    },
                    series: entry.label.clone(),
                    point: point.label.clone(),
                    config,
                    factory,
                    source: point.source.clone().or_else(|| entry.source.clone()),
                    threads: self.threads,
                });
            }
        }
        Ok(jobs)
    }

    /// The number of grid cells this scenario resolves to: `points x
    /// series`, with empty axes counting as one implicit entry.
    pub fn job_count(&self) -> usize {
        self.points.len().max(1) * self.series.len().max(1)
    }

    /// A stable identity of this scenario description: the CRC-32 of its
    /// canonical spec rendering (or of its debug form for scenarios the
    /// spec format cannot express). Two scenarios with equal fingerprints
    /// have the same grid shape, cell identities, and per-cell
    /// configuration — which is what lets a checkpoint journal refuse to
    /// resume under a different spec.
    pub fn fingerprint(&self) -> u32 {
        let text = self
            .to_spec_string()
            .unwrap_or_else(|_| format!("{self:?}"));
        cablevod_trace::checksum::crc32(text.as_bytes())
    }
}

// ---------------------------------------------------------------------
// Spec-file format
// ---------------------------------------------------------------------

/// A named synth-preset constructor.
type SynthPreset = (&'static str, fn() -> SynthConfig);

/// The synth presets the spec format can name.
const SYNTH_PRESETS: [SynthPreset; 3] = [
    ("powerinfo", SynthConfig::powerinfo),
    ("experiment_default", SynthConfig::experiment_default),
    ("smoke_test", SynthConfig::smoke_test),
];

fn config_err(reason: String) -> SimError {
    SimError::Config { reason }
}

/// Rejects names/labels the line-based format cannot carry faithfully:
/// `#` starts a comment, the first `=` ends an axis label, `|` separates
/// an axis entry's source override, a leading `[` reads as a section
/// header, and surrounding whitespace would be trimmed away on load.
/// Erroring here keeps the "parses back to an equal value" contract
/// loud instead of silently corrupting on round-trip.
fn check_label(what: &str, text: &str) -> Result<(), SimError> {
    if text.is_empty()
        || text != text.trim()
        || text.starts_with('[')
        || text.contains(['#', '=', '|', '\n'])
    {
        return Err(config_err(format!(
            "{what} {text:?} is not expressible in the spec format \
             (no #, =, |, newlines, leading [, or surrounding whitespace)"
        )));
    }
    Ok(())
}

fn fmt_duration_secs(d: SimDuration) -> String {
    d.as_secs().to_string()
}

fn placement_string(policy: PlacementPolicy) -> String {
    match policy {
        PlacementPolicy::Balanced => "balanced".into(),
        PlacementPolicy::FirstFit => "first-fit".into(),
        PlacementPolicy::Random { seed } => format!("random:{seed}"),
    }
}

fn parse_placement(text: &str) -> Result<PlacementPolicy, SimError> {
    if let Some(seed) = text.strip_prefix("random:") {
        let seed = seed
            .parse()
            .map_err(|_| config_err(format!("bad random-placement seed {seed:?}")))?;
        return Ok(PlacementPolicy::Random { seed });
    }
    match text {
        "balanced" => Ok(PlacementPolicy::Balanced),
        "first-fit" => Ok(PlacementPolicy::FirstFit),
        other => Err(config_err(format!("unknown placement {other:?}"))),
    }
}

fn fill_string(fill: Option<FillPolicy>) -> &'static str {
    match fill {
        None => "default",
        Some(FillPolicy::OnBroadcast) => "on-broadcast",
        Some(FillPolicy::Prefetch) => "prefetch",
    }
}

fn parse_fill(text: &str) -> Result<Option<FillPolicy>, SimError> {
    match text {
        "default" => Ok(None),
        "on-broadcast" => Ok(Some(FillPolicy::OnBroadcast)),
        "prefetch" => Ok(Some(FillPolicy::Prefetch)),
        other => Err(config_err(format!("unknown fill policy {other:?}"))),
    }
}

fn strategy_ref_string(strategy: &StrategyRef) -> String {
    match strategy {
        StrategyRef::Spec(spec) => spec.compact(),
        StrategyRef::Named(name) => format!("@{name}"),
    }
}

fn parse_strategy_ref(text: &str) -> Result<StrategyRef, SimError> {
    if let Some(name) = text.strip_prefix('@') {
        return Ok(StrategyRef::Named(name.into()));
    }
    Ok(StrategyRef::Spec(StrategySpec::parse(text)?))
}

/// Writes a synth config as `preset=<name>` plus the overridden fields,
/// or errors when no preset + supported overrides reproduce it.
fn synth_kv(config: &SynthConfig, out: &mut Vec<(String, String)>) -> Result<(), SimError> {
    for (name, preset) in SYNTH_PRESETS {
        let candidate = SynthConfig {
            users: config.users,
            programs: config.programs,
            days: config.days,
            seed: config.seed,
            sessions_per_user_day: config.sessions_per_user_day,
            ..preset()
        };
        if &candidate == config {
            let base = preset();
            out.push(("preset".into(), name.into()));
            if config.users != base.users {
                out.push(("users".into(), config.users.to_string()));
            }
            if config.programs != base.programs {
                out.push(("programs".into(), config.programs.to_string()));
            }
            if config.days != base.days {
                out.push(("days".into(), config.days.to_string()));
            }
            if config.seed != base.seed {
                out.push(("seed".into(), config.seed.to_string()));
            }
            if config.sessions_per_user_day != base.sessions_per_user_day {
                out.push((
                    "sessions_per_user_day".into(),
                    config.sessions_per_user_day.to_string(),
                ));
            }
            return Ok(());
        }
    }
    Err(config_err(
        "synthetic source differs from every preset beyond the spec format's \
         users/programs/days/seed/sessions_per_user_day overrides — keep it programmatic"
            .into(),
    ))
}

fn parse_synth(pairs: &[(String, String)]) -> Result<SynthConfig, SimError> {
    let mut config = None;
    for (key, value) in pairs {
        if key == "preset" {
            let preset = SYNTH_PRESETS
                .iter()
                .find(|(name, _)| name == value)
                .ok_or_else(|| config_err(format!("unknown synth preset {value:?}")))?;
            config = Some(preset.1());
        }
    }
    let mut config = config.ok_or_else(|| config_err("synth source needs a preset".into()))?;
    for (key, value) in pairs {
        let bad = || config_err(format!("bad synth field {key} = {value:?}"));
        match key.as_str() {
            "preset" | "kind" | "chunk_records" | "rechunk" => {}
            "users" => config.users = value.parse().map_err(|_| bad())?,
            "programs" => config.programs = value.parse().map_err(|_| bad())?,
            "days" => config.days = value.parse().map_err(|_| bad())?,
            "seed" => config.seed = value.parse().map_err(|_| bad())?,
            "sessions_per_user_day" => {
                config.sessions_per_user_day = value.parse().map_err(|_| bad())?
            }
            _ => return Err(bad()),
        }
    }
    Ok(config)
}

/// Serializes a source spec as `kind=... key=value ...` pairs.
fn source_kv(source: &SourceSpec) -> Result<Vec<(String, String)>, SimError> {
    let mut out = Vec::new();
    match source {
        SourceSpec::Provided => out.push(("kind".into(), "provided".into())),
        SourceSpec::Synth(config) => {
            out.push(("kind".into(), "synth".into()));
            synth_kv(config, &mut out)?;
        }
        SourceSpec::SynthDisk {
            synth,
            chunk_records,
            rechunk,
        } => {
            out.push(("kind".into(), "synth-disk".into()));
            synth_kv(synth, &mut out)?;
            out.push(("chunk_records".into(), chunk_records.to_string()));
            if !rechunk.is_empty() {
                out.push(("rechunk".into(), rechunk_value(rechunk)));
            }
        }
        SourceSpec::Columnar { path, rechunk } => {
            out.push(("kind".into(), "columnar".into()));
            out.push(("path".into(), path.clone()));
            if !rechunk.is_empty() {
                out.push(("rechunk".into(), rechunk_value(rechunk)));
            }
        }
        SourceSpec::Csv { records, catalog } => {
            out.push(("kind".into(), "csv".into()));
            out.push(("records".into(), records.clone()));
            out.push(("catalog".into(), catalog.clone()));
        }
        SourceSpec::Scaled {
            population,
            catalog,
            seed,
        } => {
            out.push(("kind".into(), "scaled".into()));
            out.push(("population".into(), population.to_string()));
            out.push(("catalog".into(), catalog.to_string()));
            out.push(("seed".into(), seed.to_string()));
        }
    }
    Ok(out)
}

/// Joins rechunk sizes into the spec form `60,100` — a single size
/// serializes exactly as the old scalar field did, so pre-multi-index
/// spec files and their fingerprints are unchanged.
fn rechunk_value(sizes: &[u32]) -> String {
    sizes
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses `60` or `60,100` into a rechunk size list.
fn parse_rechunk(value: &str) -> Result<Vec<u32>, SimError> {
    value
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|_| config_err(format!("bad rechunk size {v:?}")))
        })
        .collect()
}

fn parse_source(pairs: &[(String, String)]) -> Result<SourceSpec, SimError> {
    let get = |key: &str| -> Option<&str> {
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    let require = |key: &str| {
        get(key).ok_or_else(|| config_err(format!("source is missing the {key} field")))
    };
    let parse_u32 = |key: &str| -> Result<u32, SimError> {
        require(key)?
            .parse()
            .map_err(|_| config_err(format!("bad source field {key}")))
    };
    match require("kind")? {
        "provided" => Ok(SourceSpec::Provided),
        "synth" => Ok(SourceSpec::Synth(parse_synth(pairs)?)),
        "synth-disk" => Ok(SourceSpec::SynthDisk {
            synth: parse_synth(pairs)?,
            chunk_records: match get("chunk_records") {
                Some(v) => v
                    .parse()
                    .map_err(|_| config_err("bad chunk_records".into()))?,
                None => DEFAULT_CHUNK_SIZE,
            },
            rechunk: get("rechunk")
                .map(parse_rechunk)
                .transpose()?
                .unwrap_or_default(),
        }),
        "columnar" => Ok(SourceSpec::Columnar {
            path: require("path")?.to_string(),
            rechunk: get("rechunk")
                .map(parse_rechunk)
                .transpose()?
                .unwrap_or_default(),
        }),
        "csv" => Ok(SourceSpec::Csv {
            records: require("records")?.to_string(),
            catalog: require("catalog")?.to_string(),
        }),
        "scaled" => Ok(SourceSpec::Scaled {
            population: parse_u32("population")?,
            catalog: parse_u32("catalog")?,
            seed: require("seed")?
                .parse()
                .map_err(|_| config_err("bad scaled seed".into()))?,
        }),
        other => Err(config_err(format!("unknown source kind {other:?}"))),
    }
}

/// Splits `k=v k=v ...` into pairs (whitespace-separated, values may not
/// contain spaces).
fn parse_kv_pairs(text: &str) -> Result<Vec<(String, String)>, SimError> {
    text.split_whitespace()
        .map(|pair| {
            pair.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or_else(|| config_err(format!("expected key=value, got {pair:?}")))
        })
        .collect()
}

fn kv_pairs_string(pairs: &[(String, String)]) -> String {
    pairs
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Serializes an axis entry's right-hand side:
/// `key=value ... [@ source key=value ...]`.
fn axis_rhs(point: &AxisPoint) -> Result<String, SimError> {
    let mut pairs: Vec<(String, String)> = Vec::new();
    if let Some(strategy) = &point.strategy {
        pairs.push(("strategy".into(), strategy_ref_string(strategy)));
    }
    let p = &point.patch;
    if let Some(v) = p.neighborhood_size {
        pairs.push(("neighborhood_size".into(), v.to_string()));
    }
    if let Some(v) = p.per_peer_storage {
        pairs.push(("per_peer_storage_bytes".into(), v.as_bytes().to_string()));
    }
    if let Some(v) = p.stream_slots {
        pairs.push(("stream_slots".into(), v.to_string()));
    }
    if let Some(v) = p.segment_len {
        pairs.push(("segment_len_secs".into(), fmt_duration_secs(v)));
    }
    if let Some(v) = p.warmup_days {
        pairs.push(("warmup_days".into(), v.to_string()));
    }
    if let Some(v) = p.replication {
        pairs.push(("replication".into(), v.to_string()));
    }
    if let Some(v) = p.placement {
        pairs.push(("placement".into(), placement_string(v)));
    }
    if let Some(v) = p.fill {
        pairs.push(("fill".into(), fill_string(Some(v)).to_string()));
    }
    if let Some(v) = p.admission {
        pairs.push(("admission".into(), admission_string(v).to_string()));
    }
    if let Some(v) = p.retry {
        pairs.push(("retry".into(), retry_string(v)));
    }
    let mut rhs = kv_pairs_string(&pairs);
    if let Some(source) = &point.source {
        let source_pairs = source_kv(source)?;
        if !rhs.is_empty() {
            rhs.push(' ');
        }
        let _ = write!(rhs, "| {}", kv_pairs_string(&source_pairs));
    }
    Ok(rhs)
}

fn parse_axis_entry(label: &str, rhs: &str) -> Result<AxisPoint, SimError> {
    let (patch_text, source_text) = match rhs.split_once('|') {
        Some((left, right)) => (left.trim(), Some(right.trim())),
        None => (rhs.trim(), None),
    };
    let mut point = AxisPoint::new(label);
    for (key, value) in parse_kv_pairs(patch_text)? {
        let bad = || config_err(format!("bad axis field {key} = {value:?}"));
        match key.as_str() {
            "strategy" => point.strategy = Some(parse_strategy_ref(&value)?),
            "neighborhood_size" => {
                point.patch.neighborhood_size = Some(value.parse().map_err(|_| bad())?)
            }
            "per_peer_storage_bytes" => {
                point.patch.per_peer_storage =
                    Some(DataSize::from_bytes(value.parse().map_err(|_| bad())?))
            }
            "per_peer_storage_gb" => {
                point.patch.per_peer_storage =
                    Some(DataSize::from_gigabytes(value.parse().map_err(|_| bad())?))
            }
            "stream_slots" => point.patch.stream_slots = Some(value.parse().map_err(|_| bad())?),
            "segment_len_secs" => {
                point.patch.segment_len =
                    Some(SimDuration::from_secs(value.parse().map_err(|_| bad())?))
            }
            "warmup_days" => point.patch.warmup_days = Some(value.parse().map_err(|_| bad())?),
            "replication" => point.patch.replication = Some(value.parse().map_err(|_| bad())?),
            "placement" => point.patch.placement = Some(parse_placement(&value)?),
            "fill" => point.patch.fill = parse_fill(&value)?,
            "admission" => point.patch.admission = Some(parse_admission(&value)?),
            "retry" => point.patch.retry = Some(parse_retry(&value)?),
            _ => return Err(bad()),
        }
    }
    if let Some(text) = source_text {
        point.source = Some(parse_source(&parse_kv_pairs(text)?)?);
    }
    Ok(point)
}

fn admission_string(mode: AdmissionMode) -> &'static str {
    match mode {
        AdmissionMode::Counting => "counting",
        AdmissionMode::Enforcing => "enforcing",
    }
}

fn parse_admission(text: &str) -> Result<AdmissionMode, SimError> {
    match text {
        "counting" => Ok(AdmissionMode::Counting),
        "enforcing" => Ok(AdmissionMode::Enforcing),
        other => Err(config_err(format!("unknown admission mode {other:?}"))),
    }
}

/// `3x30s` — three retries, 30-second base backoff.
fn retry_string(retry: RetryPolicy) -> String {
    format!(
        "{}x{}s",
        retry.max_retries(),
        retry.base_backoff().as_secs()
    )
}

fn parse_retry(text: &str) -> Result<RetryPolicy, SimError> {
    let bad = || config_err(format!("bad retry policy {text:?} (expected e.g. 3x30s)"));
    let (max, backoff) = text.split_once('x').ok_or_else(bad)?;
    let secs = backoff.strip_suffix('s').ok_or_else(bad)?;
    Ok(RetryPolicy::new(
        max.parse().map_err(|_| bad())?,
        SimDuration::from_secs(secs.parse().map_err(|_| bad())?),
    ))
}

/// Renders one fault event as a `[faults]` line (sans trailing newline).
fn fault_event_line(event: &FaultEvent) -> String {
    let mut line = match event.kind {
        FaultKind::Outage => format!(
            "outage = start={} end={}",
            event.start.as_secs(),
            event.end.as_secs()
        ),
        FaultKind::Derate { permille } => format!(
            "derate = start={} end={} permille={permille}",
            event.start.as_secs(),
            event.end.as_secs()
        ),
    };
    if let Some(nbhd) = event.scope {
        let _ = write!(line, " nbhd={}", nbhd.value());
    }
    line
}

/// Parses one `[faults]` line into explicit events (a `seeded` entry
/// expands eagerly, so parsed plans are always plain timed events).
fn parse_fault_entry(key: &str, value: &str) -> Result<Vec<FaultEvent>, SimError> {
    let pairs = parse_kv_pairs(value)?;
    let get = |name: &str| {
        pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    let num = |name: &str| -> Result<u64, SimError> {
        get(name)
            .ok_or_else(|| config_err(format!("fault entry missing {name}=")))?
            .parse()
            .map_err(|_| config_err(format!("bad fault field {name}")))
    };
    match key {
        "outage" | "derate" => {
            let kind = if key == "outage" {
                FaultKind::Outage
            } else {
                FaultKind::Derate {
                    permille: num("permille")?
                        .try_into()
                        .map_err(|_| config_err("bad fault field permille".into()))?,
                }
            };
            Ok(vec![FaultEvent {
                scope: get("nbhd")
                    .map(|v| {
                        v.parse()
                            .map(NeighborhoodId::new)
                            .map_err(|_| config_err("bad fault field nbhd".into()))
                    })
                    .transpose()?,
                start: SimTime::from_secs(num("start")?),
                end: SimTime::from_secs(num("end")?),
                kind,
            }])
        }
        "seeded" => {
            let neighborhoods = u32::try_from(num("neighborhoods")?)
                .map_err(|_| config_err("bad fault field neighborhoods".into()))?;
            let plan = FaultPlan::seeded(
                num("seed")?,
                neighborhoods,
                SimDuration::from_days(num("horizon_days")?),
                num("outages")? as u32,
                num("derates")? as u32,
            );
            Ok(plan.events().to_vec())
        }
        other => Err(config_err(format!("unknown fault entry {other:?}"))),
    }
}

fn threads_string(threads: ThreadPolicy) -> String {
    match threads {
        ThreadPolicy::Serial => "serial".into(),
        ThreadPolicy::Auto => "auto".into(),
        ThreadPolicy::Fixed(n) => format!("engine:{n}"),
    }
}

fn parse_threads(text: &str) -> Result<ThreadPolicy, SimError> {
    if let Some(n) = text.strip_prefix("engine:") {
        let n = n
            .parse()
            .map_err(|_| config_err(format!("bad engine worker count {n:?}")))?;
        return Ok(ThreadPolicy::Fixed(n));
    }
    match text {
        "serial" => Ok(ThreadPolicy::Serial),
        "auto" => Ok(ThreadPolicy::Auto),
        other => Err(config_err(format!("unknown thread policy {other:?}"))),
    }
}

impl Scenario {
    /// Renders the scenario in the spec-file format (see the module
    /// docs). [`Scenario::from_spec_str`] parses it back to an equal
    /// value.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when the scenario uses knobs the
    /// format cannot express (custom coax envelope, custom stream rate,
    /// exotic synth parameters).
    pub fn to_spec_string(&self) -> Result<String, SimError> {
        if *self.base.coax_spec() != CoaxSpec::paper_default() {
            return Err(config_err(
                "spec format cannot express a custom coax envelope".into(),
            ));
        }
        if self.base.stream_rate() != BitRate::STREAM_MPEG2_SD {
            return Err(config_err(
                "spec format cannot express a custom stream rate".into(),
            ));
        }
        check_label("scenario name", &self.name)?;
        for point in self.series.iter().chain(&self.points) {
            check_label("axis label", &point.label)?;
        }
        let mut out = String::new();
        let _ = writeln!(out, "# cablevod scenario spec (cablevod_sim::scenario)");
        let _ = writeln!(out, "name = {}", self.name);
        let _ = writeln!(out, "threads = {}", threads_string(self.threads));
        if let Some(width) = self.sweep_width {
            let _ = writeln!(out, "sweep_width = {width}");
        }
        let _ = writeln!(out, "\n[source]");
        for (key, value) in source_kv(&self.source)? {
            let _ = writeln!(out, "{key} = {value}");
        }
        let _ = writeln!(out, "\n[config]");
        let c = &self.base;
        let _ = writeln!(out, "strategy = {}", c.strategy().compact());
        let _ = writeln!(out, "neighborhood_size = {}", c.neighborhood_size());
        let _ = writeln!(
            out,
            "per_peer_storage_bytes = {}",
            c.per_peer_storage().as_bytes()
        );
        let _ = writeln!(out, "stream_slots = {}", c.stream_slots());
        let _ = writeln!(
            out,
            "segment_len_secs = {}",
            fmt_duration_secs(c.segment_len())
        );
        let _ = writeln!(out, "warmup_days = {}", c.warmup_days());
        let _ = writeln!(out, "replication = {}", c.replication());
        let _ = writeln!(out, "placement = {}", placement_string(c.placement()));
        let _ = writeln!(out, "fill = {}", fill_string(c.fill_override()));
        let _ = writeln!(out, "admission = {}", admission_string(c.admission()));
        let _ = writeln!(out, "retry = {}", retry_string(c.retry()));
        if !c.faults().is_empty() {
            let _ = writeln!(out, "\n[faults]");
            for event in c.faults().events() {
                let _ = writeln!(out, "{}", fault_event_line(event));
            }
        }
        for (header, axis) in [("series", &self.series), ("points", &self.points)] {
            if axis.is_empty() {
                continue;
            }
            let _ = writeln!(out, "\n[{header}]");
            for point in axis {
                let _ = writeln!(out, "{} = {}", point.label, axis_rhs(point)?);
            }
        }
        Ok(out)
    }

    /// Parses the spec-file format (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] with the offending line for any
    /// malformed input.
    pub fn from_spec_str(text: &str) -> Result<Scenario, SimError> {
        let mut scenario = Scenario::new("", SourceSpec::Provided, SimConfig::paper_default());
        let mut section = String::new();
        let mut source_pairs: Vec<(String, String)> = Vec::new();
        let mut fill = None;
        let mut fault_events: Vec<FaultEvent> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            // Every parse failure names the offending line — number AND
            // text — so a typo deep in a fault plan or an axis override
            // is a one-glance fix.
            let err = |reason: String| {
                config_err(format!(
                    "spec line {}: {reason} (line: {:?})",
                    lineno + 1,
                    raw.trim()
                ))
            };
            let at_line = |e: SimError| {
                err(match e {
                    SimError::Config { reason } => reason,
                    other => other.to_string(),
                })
            };
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                if !["source", "config", "faults", "series", "points"].contains(&section.as_str()) {
                    return Err(err(format!("unknown section [{section}]")));
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| err("expected key = value".into()))?;
            match section.as_str() {
                "" => match key {
                    "name" => scenario.name = value.to_string(),
                    "threads" => scenario.threads = parse_threads(value).map_err(at_line)?,
                    "sweep_width" => {
                        scenario.sweep_width = Some(
                            value
                                .parse::<usize>()
                                .ok()
                                .filter(|&w| w >= 1)
                                .ok_or_else(|| err(format!("bad sweep width {value:?}")))?,
                        )
                    }
                    other => return Err(err(format!("unknown top-level key {other:?}"))),
                },
                "source" => source_pairs.push((key.to_string(), value.to_string())),
                "config" => {
                    let bad = || err(format!("bad config value {key} = {value:?}"));
                    let c = &mut scenario.base;
                    *c = match key {
                        "strategy" => c.clone().with_strategy(
                            StrategySpec::parse(value).map_err(|e| at_line(e.into()))?,
                        ),
                        "neighborhood_size" => c
                            .clone()
                            .with_neighborhood_size(value.parse().map_err(|_| bad())?),
                        "per_peer_storage_bytes" => c.clone().with_per_peer_storage(
                            DataSize::from_bytes(value.parse().map_err(|_| bad())?),
                        ),
                        "per_peer_storage_gb" => c.clone().with_per_peer_storage(
                            DataSize::from_gigabytes(value.parse().map_err(|_| bad())?),
                        ),
                        "stream_slots" => c
                            .clone()
                            .with_stream_slots(value.parse().map_err(|_| bad())?),
                        "segment_len_secs" => c.clone().with_segment_len(SimDuration::from_secs(
                            value.parse().map_err(|_| bad())?,
                        )),
                        "warmup_days" => c
                            .clone()
                            .with_warmup_days(value.parse().map_err(|_| bad())?),
                        "replication" => c
                            .clone()
                            .with_replication(value.parse().map_err(|_| bad())?),
                        "placement" => c
                            .clone()
                            .with_placement(parse_placement(value).map_err(at_line)?),
                        "fill" => {
                            fill = parse_fill(value).map_err(at_line)?;
                            c.clone()
                        }
                        "admission" => c
                            .clone()
                            .with_admission(parse_admission(value).map_err(at_line)?),
                        "retry" => c.clone().with_retry(parse_retry(value).map_err(at_line)?),
                        other => return Err(err(format!("unknown config key {other:?}"))),
                    };
                }
                "faults" => fault_events.extend(parse_fault_entry(key, value).map_err(at_line)?),
                "series" => scenario
                    .series
                    .push(parse_axis_entry(key, value).map_err(at_line)?),
                "points" => scenario
                    .points
                    .push(parse_axis_entry(key, value).map_err(at_line)?),
                _ => unreachable!("sections are validated on entry"),
            }
        }
        if let Some(fill) = fill {
            scenario.base = scenario.base.with_fill_override(fill);
        }
        if !fault_events.is_empty() {
            scenario.base = scenario.base.with_faults(FaultPlan::new(fault_events)?);
        }
        if !source_pairs.is_empty() {
            scenario.source = parse_source(&source_pairs)?;
        }
        if scenario.name.is_empty() {
            return Err(config_err("spec is missing `name = ...`".into()));
        }
        Ok(scenario)
    }

    /// Reads a scenario from a spec file.
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse failures.
    pub fn load(path: impl AsRef<Path>) -> Result<Scenario, SimError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| config_err(format!("cannot read scenario {}: {e}", path.display())))?;
        Scenario::from_spec_str(&text)
    }

    /// Writes the scenario to a spec file.
    ///
    /// # Errors
    ///
    /// Propagates formatting ([`Scenario::to_spec_string`]) and I/O
    /// failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SimError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_spec_string()?)
            .map_err(|e| config_err(format!("cannot write scenario {}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use cablevod_trace::synth::generate;

    fn smoke_synth() -> SynthConfig {
        SynthConfig {
            users: 300,
            programs: 60,
            days: 3,
            ..SynthConfig::smoke_test()
        }
    }

    fn base_config() -> SimConfig {
        SimConfig::paper_default()
            .with_neighborhood_size(100)
            .with_per_peer_storage(DataSize::from_gigabytes(2))
            .with_warmup_days(1)
    }

    #[test]
    fn execute_matches_direct_runs_bit_for_bit() {
        let trace = generate(&smoke_synth());
        let scenario = Scenario::provided("direct", base_config()).with_points(vec![
            AxisPoint::new("lru").with_strategy(StrategySpec::Lru),
            AxisPoint::new("oracle").with_strategy(StrategySpec::default_oracle()),
        ]);
        let outcomes = scenario.execute_on(&trace).expect("runs");
        for o in &outcomes {
            let spec = match o.point.as_str() {
                "lru" => StrategySpec::Lru,
                _ => StrategySpec::default_oracle(),
            };
            let direct = Simulation::over(&trace)
                .config(base_config().with_strategy(spec))
                .run()
                .expect("runs");
            assert_eq!(o.report(), &direct.report, "point {}", o.point);
        }
    }

    #[test]
    fn scaled_points_materialize_inside_their_jobs() {
        let trace = generate(&smoke_synth());
        let scenario = Scenario::provided("scaling", base_config()).with_points(vec![
            AxisPoint::new("x1").with_source(SourceSpec::Scaled {
                population: 1,
                catalog: 1,
                seed: 7,
            }),
            AxisPoint::new("x2").with_source(SourceSpec::Scaled {
                population: 2,
                catalog: 1,
                seed: 7,
            }),
        ]);
        let outcomes = scenario.execute_on(&trace).expect("runs");
        assert_eq!(outcomes.len(), 2);
        assert!(
            outcomes[1].report().sessions > outcomes[0].report().sessions,
            "doubling the population must add sessions"
        );
        let scaled = scale::scale(&trace, 2, 1, 7).expect("scales");
        let direct = Simulation::over(&scaled)
            .config(base_config())
            .run()
            .expect("runs");
        assert_eq!(outcomes[1].report(), &direct.report);
    }

    /// A strategy whose factory panics, to poison a cell.
    #[derive(Debug)]
    struct BoomFactory;

    impl StrategyFactory for BoomFactory {
        fn name(&self) -> &str {
            "Boom"
        }
        fn build(
            &self,
            _: cablevod_cache::StrategyContext,
        ) -> Result<Box<dyn cablevod_cache::CacheStrategy>, cablevod_cache::CacheError> {
            panic!("boom: poisoned cell");
        }
    }

    /// The plain executors' contract over the shared grid loop: outcomes
    /// come back in point-major order, a `provided` source fails up front
    /// with `SimError::Config`, the first failing cell in grid order
    /// returns its typed error, and a panicking cell's panic reaches the
    /// caller.
    #[test]
    fn plain_executors_fold_the_grid() {
        let scenario = Scenario::new("grid", SourceSpec::Synth(smoke_synth()), base_config())
            .with_series(vec![
                AxisPoint::new("LRU").with_strategy(StrategySpec::Lru),
                AxisPoint::new("LFU").with_strategy(StrategySpec::default_lfu()),
            ])
            .with_points(vec![
                AxisPoint::new("1GB").with_patch(
                    ConfigPatch::default().with_per_peer_storage(DataSize::from_gigabytes(1)),
                ),
                AxisPoint::new("2GB").with_patch(
                    ConfigPatch::default().with_per_peer_storage(DataSize::from_gigabytes(2)),
                ),
            ]);
        let outcomes = scenario.execute().expect("runs");
        let labels: Vec<(&str, &str)> = outcomes
            .iter()
            .map(|o| (o.series.as_str(), o.point.as_str()))
            .collect();
        assert_eq!(
            labels,
            vec![
                ("LRU", "1GB"),
                ("LFU", "1GB"),
                ("LRU", "2GB"),
                ("LFU", "2GB")
            ]
        );
        // Jobs are real, distinct simulations of the same workload.
        assert!(outcomes.iter().all(|o| o.report().sessions > 0));
        assert_eq!(outcomes[0].report().sessions, outcomes[3].report().sessions);

        let err = Scenario::provided("nope", base_config())
            .execute()
            .expect_err("a provided source has no workload");
        assert!(matches!(err, SimError::Config { .. }), "{err}");

        let trace = generate(&smoke_synth());
        let missing = |ext: &str| {
            std::env::temp_dir()
                .join(format!("cvsc_missing_{}.{ext}", std::process::id()))
                .display()
                .to_string()
        };
        let failing = Scenario::provided("fails", base_config()).with_points(vec![
            AxisPoint::new("ok"),
            AxisPoint::new("no-cvtc").with_source(SourceSpec::Columnar {
                path: missing("cvtc"),
                rechunk: Vec::new(),
            }),
            AxisPoint::new("no-csv").with_source(SourceSpec::Csv {
                records: missing("csv"),
                catalog: missing("csv"),
            }),
        ]);
        let err = failing
            .execute_on(&trace)
            .expect_err("a cell without its file fails");
        assert!(
            matches!(err, SimError::Trace(_)),
            "the first failing cell (a missing columnar file) must win: {err}"
        );

        let mut registry = StrategyRegistry::builtin();
        registry.register("boom", Arc::new(BoomFactory));
        let poisoned = Scenario::provided("poisoned", base_config())
            .with_series(vec![AxisPoint::new("Boom").with_strategy_named("boom")]);
        let jobs = poisoned.resolved_jobs(&registry).expect("resolves");
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            poisoned.execute_default(&jobs, &Workload::Borrowed(&trace))
        }))
        .expect_err("the cell's panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom: poisoned cell"));
    }

    #[test]
    fn malformed_fault_entry_names_line_number_and_text() {
        let spec = "name = broken\n\n[faults]\noutage = start=10 end=never\n";
        let err = Scenario::from_spec_str(spec).expect_err("bad fault field");
        let text = err.to_string();
        assert!(text.contains("spec line 4"), "no line number in: {text}");
        assert!(
            text.contains("outage = start=10 end=never"),
            "no line text in: {text}"
        );
        assert!(text.contains("bad fault field end"), "no cause in: {text}");
    }

    #[test]
    fn bad_series_override_names_line_number_and_text() {
        let spec = "name = broken\n\n[series]\nLFU = warmup_days=threeish\n";
        let err = Scenario::from_spec_str(spec).expect_err("bad axis field");
        let text = err.to_string();
        assert!(text.contains("spec line 4"), "no line number in: {text}");
        assert!(
            text.contains("LFU = warmup_days=threeish"),
            "no line text in: {text}"
        );
        assert!(text.contains("bad axis field"), "no cause in: {text}");
    }

    #[test]
    fn spec_round_trips() {
        let scenario = Scenario::new(
            "round-trip",
            SourceSpec::Synth(smoke_synth()),
            base_config()
                .with_strategy(StrategySpec::default_oracle())
                .with_placement(PlacementPolicy::Random { seed: 9 })
                .with_fill_override(FillPolicy::Prefetch),
        )
        .with_threads(ThreadPolicy::Fixed(4))
        .with_sweep_width(2)
        .with_series(vec![
            AxisPoint::new("LRU").with_strategy(StrategySpec::Lru),
            AxisPoint::new("custom").with_strategy_named("prior-storing"),
        ])
        .with_points(vec![
            AxisPoint::new("small").with_patch(
                ConfigPatch::default()
                    .with_per_peer_storage(DataSize::from_gigabytes(1))
                    .with_neighborhood_size(50)
                    .with_fill(FillPolicy::OnBroadcast),
            ),
            AxisPoint::new("x3").with_source(SourceSpec::Scaled {
                population: 3,
                catalog: 2,
                seed: 11,
            }),
        ]);
        let text = scenario.to_spec_string().expect("serializes");
        let parsed = Scenario::from_spec_str(&text).expect("parses");
        assert_eq!(parsed, scenario, "spec text:\n{text}");
    }

    #[test]
    fn spec_round_trips_multi_size_rechunk() {
        let scenario = Scenario::new(
            "rechunk-sweep",
            SourceSpec::SynthDisk {
                synth: smoke_synth(),
                chunk_records: 256,
                rechunk: vec![60, 100],
            },
            base_config(),
        )
        .with_points(vec![
            AxisPoint::new("N60").with_patch(ConfigPatch::default().with_neighborhood_size(60)),
            AxisPoint::new("N100").with_patch(ConfigPatch::default().with_neighborhood_size(100)),
        ]);
        let text = scenario.to_spec_string().expect("serializes");
        assert!(text.contains("rechunk = 60,100"), "spec text:\n{text}");
        let parsed = Scenario::from_spec_str(&text).expect("parses");
        assert_eq!(parsed, scenario, "spec text:\n{text}");

        // A single size must serialize exactly as the pre-multi-index
        // scalar form did, so existing checkpoint fingerprints hold.
        let columnar = Scenario::new(
            "rechunk-columnar",
            SourceSpec::Columnar {
                path: "trace.cvtc".into(),
                rechunk: vec![80],
            },
            base_config(),
        );
        let text = columnar.to_spec_string().expect("serializes");
        assert!(text.contains("rechunk = 80\n"), "spec text:\n{text}");
        let parsed = Scenario::from_spec_str(&text).expect("parses");
        assert_eq!(parsed, columnar, "spec text:\n{text}");
    }

    #[test]
    fn spec_parse_rejects_malformed_input() {
        assert!(Scenario::from_spec_str("name = x\n[wat]\n").is_err());
        assert!(Scenario::from_spec_str("name = x\nnot a pair\n").is_err());
        assert!(
            Scenario::from_spec_str("threads = serial\n").is_err(),
            "missing name"
        );
        assert!(Scenario::from_spec_str("name = x\n[config]\nstrategy = warp-drive\n").is_err());
    }

    #[test]
    fn spec_rejects_inexpressible_scenarios() {
        let custom_rate = Scenario::provided(
            "x",
            SimConfig::paper_default().with_stream_rate(BitRate::from_bps(1)),
        );
        assert!(custom_rate.to_spec_string().is_err());

        // Names/labels the line format cannot carry fail loudly instead
        // of corrupting on round-trip.
        let hash_name = Scenario::provided("smoke # v2", SimConfig::paper_default());
        assert!(hash_name.to_spec_string().is_err());
        let eq_label = Scenario::provided("ok", SimConfig::paper_default())
            .with_points(vec![AxisPoint::new("cap=1")]);
        assert!(eq_label.to_spec_string().is_err());
        let pipe_label = Scenario::provided("ok", SimConfig::paper_default())
            .with_series(vec![AxisPoint::new("a|b")]);
        assert!(pipe_label.to_spec_string().is_err());
    }

    #[test]
    fn sweep_width_one_bounds_in_flight_override_sources() {
        // Behavioral floor: width 1 must produce the same results as the
        // default parallel sweep, in order (the memory bound itself is
        // what scaling_grid relies on).
        let trace = generate(&smoke_synth());
        let points = vec![
            AxisPoint::new("x1").with_source(SourceSpec::Scaled {
                population: 1,
                catalog: 1,
                seed: 5,
            }),
            AxisPoint::new("x2").with_source(SourceSpec::Scaled {
                population: 2,
                catalog: 1,
                seed: 5,
            }),
        ];
        let wide = Scenario::provided("wide", base_config())
            .with_points(points.clone())
            .execute_on(&trace)
            .expect("wide sweep runs");
        let narrow = Scenario::provided("narrow", base_config())
            .with_points(points)
            .with_sweep_width(1)
            .execute_on(&trace)
            .expect("width-1 sweep runs");
        assert_eq!(wide.len(), narrow.len());
        for (a, b) in wide.iter().zip(&narrow) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.report(), b.report());
        }
    }
}
