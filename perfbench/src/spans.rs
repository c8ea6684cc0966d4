//! The traced run's instrumentation: forwarding decorators around the
//! public seams the engine calls through, recording how long each call
//! into a layer took.
//!
//! * [`TracedSource`] wraps a [`TraceSource`] (the `trace` layer);
//! * [`TracedFactory`] wraps a [`StrategyFactory`] and every
//!   [`CacheStrategy`] it builds (the `cache` layer);
//! * [`TracedOnline`] wraps an [`OnlineEngine`] (the `sim.online` layer).
//!
//! Each decorator forwards **every** trait method, the defaulted ones
//! included: a default left in place would silently change which driver
//! path the engine takes (a source that stops reporting its
//! neighborhood layouts loses the decode-once fast path). Spans are
//! folded into per-call-site [`Span`] totals in memory and read out when
//! the run ends.

use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use cablevod_cache::feed::FeedEvents;
use cablevod_cache::strategy::{CacheOp, FillPolicy, StrategyContext};
use cablevod_cache::{CacheError, CacheStrategy, FetchModel, StrategyFactory};
use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::SimTime;
use cablevod_sim::{OnlineEngine, OnlinePlacement, SimError};
use cablevod_trace::catalog::ProgramCatalog;
use cablevod_trace::record::SessionRecord;
use cablevod_trace::source::{DecodeStats, NeighborhoodLayout, TraceSource};
use cablevod_trace::TraceError;

/// The folded spans of one call site: how many calls, their summed
/// duration, and the work items they handled.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub calls: u64,
    pub ns: u64,
    pub items: u64,
}

impl Span {
    fn record(&mut self, started: Instant, items: u64) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls += 1;
        self.ns += ns;
        self.items += items;
    }

    fn merge(&mut self, other: &Span) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.items += other.items;
    }

    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }
}

/// Every child span the decorators record, by layer call site.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// `TraceSource::read_chunk` and `read_chunk_indexed` (items: records).
    pub read_chunk: Span,
    /// `CacheStrategy::on_access` (items: admit/evict ops emitted).
    pub on_access: Span,
    pub prepare: Span,
    pub sync_global: Span,
    pub feed_window: Span,
    pub submit: Span,
    pub advance_to: Span,
    /// `OnlineEngine::lookup`.
    pub lookup: Span,
    /// `advance_to` calls that processed an event (bumped the epoch).
    pub epochs: u64,
}

impl Ledger {
    pub fn merge(&mut self, other: &Ledger) {
        for (mine, theirs) in self.spans_mut().into_iter().zip(other.spans()) {
            mine.merge(&theirs);
        }
        self.epochs += other.epochs;
    }

    fn spans(&self) -> [Span; 8] {
        [
            self.read_chunk,
            self.on_access,
            self.prepare,
            self.sync_global,
            self.feed_window,
            self.submit,
            self.advance_to,
            self.lookup,
        ]
    }

    fn spans_mut(&mut self) -> [&mut Span; 8] {
        [
            &mut self.read_chunk,
            &mut self.on_access,
            &mut self.prepare,
            &mut self.sync_global,
            &mut self.feed_window,
            &mut self.submit,
            &mut self.advance_to,
            &mut self.lookup,
        ]
    }

    /// Summed duration of every child span, in nanoseconds.
    pub fn child_ns(&self) -> u64 {
        self.spans().iter().map(|s| s.ns).sum()
    }
}

/// A ledger shared by every decorator of one traced run.
#[derive(Debug, Clone, Default)]
pub struct SharedLedger(Arc<Mutex<Ledger>>);

impl SharedLedger {
    fn lock(&self) -> MutexGuard<'_, Ledger> {
        self.0
            .lock()
            .expect("a traced call panicked while recording")
    }

    /// Returns the spans recorded so far and resets the ledger.
    pub fn take(&self) -> Ledger {
        std::mem::take(&mut *self.lock())
    }
}

/// A [`TraceSource`] that times every chunk read.
pub struct TracedSource<'a, S: TraceSource + ?Sized> {
    inner: &'a S,
    ledger: SharedLedger,
}

impl<'a, S: TraceSource + ?Sized> TracedSource<'a, S> {
    pub fn new(inner: &'a S, ledger: SharedLedger) -> Self {
        TracedSource { inner, ledger }
    }
}

impl<S: TraceSource + ?Sized> TraceSource for TracedSource<'_, S> {
    fn catalog(&self) -> &ProgramCatalog {
        self.inner.catalog()
    }

    fn user_count(&self) -> u32 {
        self.inner.user_count()
    }

    fn days(&self) -> u64 {
        self.inner.days()
    }

    fn record_count(&self) -> u64 {
        self.inner.record_count()
    }

    fn chunk_count(&self) -> usize {
        self.inner.chunk_count()
    }

    fn chunk_first_index(&self, chunk: usize) -> u64 {
        self.inner.chunk_first_index(chunk)
    }

    fn read_chunk(&self, chunk: usize, out: &mut Vec<SessionRecord>) -> Result<(), TraceError> {
        let started = Instant::now();
        let result = self.inner.read_chunk(chunk, out);
        self.ledger
            .lock()
            .read_chunk
            .record(started, out.len() as u64);
        result
    }

    fn read_chunk_indexed(
        &self,
        chunk: usize,
        out: &mut Vec<(u64, SessionRecord)>,
    ) -> Result<(), TraceError> {
        let started = Instant::now();
        let result = self.inner.read_chunk_indexed(chunk, out);
        self.ledger
            .lock()
            .read_chunk
            .record(started, out.len() as u64);
        result
    }

    fn neighborhood_layouts(&self) -> &[NeighborhoodLayout] {
        self.inner.neighborhood_layouts()
    }

    fn neighborhood_layout(&self) -> Option<&NeighborhoodLayout> {
        self.inner.neighborhood_layout()
    }

    fn neighborhood_layout_for(&self, size: u32) -> Option<&NeighborhoodLayout> {
        self.inner.neighborhood_layout_for(size)
    }

    fn decode_stats(&self) -> DecodeStats {
        self.inner.decode_stats()
    }

    fn resident_records(&self) -> Option<&[SessionRecord]> {
        self.inner.resident_records()
    }
}

/// A [`StrategyFactory`] whose strategies time every lifecycle hook.
#[derive(Debug)]
pub struct TracedFactory {
    inner: Arc<dyn StrategyFactory>,
    ledger: SharedLedger,
}

impl TracedFactory {
    pub fn new(inner: Arc<dyn StrategyFactory>, ledger: SharedLedger) -> Self {
        TracedFactory { inner, ledger }
    }
}

impl StrategyFactory for TracedFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn needs_feed(&self) -> bool {
        self.inner.needs_feed()
    }

    fn needs_schedule(&self) -> bool {
        self.inner.needs_schedule()
    }

    fn needs_prefetch(&self) -> bool {
        self.inner.needs_prefetch()
    }

    fn fetch_model(&self) -> Option<FetchModel> {
        self.inner.fetch_model()
    }

    fn build(&self, ctx: StrategyContext) -> Result<Box<dyn CacheStrategy>, CacheError> {
        Ok(Box::new(TracedStrategy {
            inner: self.inner.build(ctx)?,
            local: Ledger::default(),
            ledger: self.ledger.clone(),
        }))
    }
}

/// One neighborhood's strategy. Each instance is driven by one worker at
/// a time, so it folds spans locally and hands them to the shared ledger
/// once, when the engine drops it at the end of the run.
#[derive(Debug)]
struct TracedStrategy {
    inner: Box<dyn CacheStrategy>,
    local: Ledger,
    ledger: SharedLedger,
}

impl Drop for TracedStrategy {
    fn drop(&mut self) {
        if let Ok(mut shared) = self.ledger.0.lock() {
            shared.merge(&self.local);
        }
    }
}

impl CacheStrategy for TracedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare(&mut self, now: SimTime) -> Result<(), CacheError> {
        let started = Instant::now();
        let result = self.inner.prepare(now);
        self.local.prepare.record(started, 0);
        result
    }

    fn on_access(&mut self, program: ProgramId, cost: u32, now: SimTime, ops: &mut Vec<CacheOp>) {
        let before = ops.len();
        let started = Instant::now();
        self.inner.on_access(program, cost, now, ops);
        let emitted = ops.len().saturating_sub(before) as u64;
        self.local.on_access.record(started, emitted);
    }

    fn contains(&self, program: ProgramId) -> bool {
        self.inner.contains(program)
    }

    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        self.inner.cost_of(program)
    }

    fn used_slots(&self) -> u64 {
        self.inner.used_slots()
    }

    fn capacity_slots(&self) -> u64 {
        self.inner.capacity_slots()
    }

    fn fill_policy(&self) -> FillPolicy {
        self.inner.fill_policy()
    }

    fn sync_global(&mut self, feed: &dyn FeedEvents, now: SimTime, limit: usize) -> u64 {
        let started = Instant::now();
        let cursor = self.inner.sync_global(feed, now, limit);
        self.local.sync_global.record(started, 0);
        cursor
    }

    fn on_feed_window(&mut self, feed: &dyn FeedEvents, now: SimTime, limit: usize) {
        let started = Instant::now();
        self.inner.on_feed_window(feed, now, limit);
        self.local.feed_window.record(started, 0);
    }
}

/// An [`OnlineEngine`] that times the decision tier's three seams.
pub struct TracedOnline<'a> {
    inner: &'a mut dyn OnlineEngine,
    local: Ledger,
    /// `lookup` takes `&self`, so its spans fold through a cell.
    lookup: Cell<Span>,
}

impl<'a> TracedOnline<'a> {
    pub fn new(inner: &'a mut dyn OnlineEngine) -> Self {
        TracedOnline {
            inner,
            local: Ledger::default(),
            lookup: Cell::new(Span::default()),
        }
    }

    pub fn into_ledger(self) -> Ledger {
        Ledger {
            lookup: self.lookup.get(),
            ..self.local
        }
    }
}

impl OnlineEngine for TracedOnline<'_> {
    fn submit(&mut self, rec: SessionRecord) -> Result<u64, SimError> {
        let started = Instant::now();
        let result = self.inner.submit(rec);
        self.local.submit.record(started, 1);
        result
    }

    fn advance_to(&mut self, now: SimTime) -> Result<bool, SimError> {
        let started = Instant::now();
        let result = self.inner.advance_to(now);
        self.local.advance_to.record(started, 0);
        if matches!(result, Ok(true)) {
            self.local.epochs += 1;
        }
        result
    }

    fn lookup(&self, nbhd: u32, program: ProgramId) -> Result<OnlinePlacement, SimError> {
        let started = Instant::now();
        let result = self.inner.lookup(nbhd, program);
        let mut span = self.lookup.get();
        span.record(started, 1);
        self.lookup.set(span);
        result
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn submitted(&self) -> u64 {
        self.inner.submitted()
    }

    fn neighborhoods(&self) -> usize {
        self.inner.neighborhoods()
    }
}
