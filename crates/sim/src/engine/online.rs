//! The **online** decision tier: the engine as a long-running
//! admission/placement service.
//!
//! Offline, a run is a closed computation: the supply scans a finished
//! trace and the driver burns through every event. Online, sessions
//! arrive over time — from a paced trace replay or a socket — and the
//! engine must answer *between* events. This module turns the very same
//! `SessionDriver` lifecycle into a resumable service with three public
//! seams:
//!
//! * **submit** — hand the engine one session request. The record's
//!   context is computed at ingress (exactly `session_ctx`, like every
//!   other supply), its feed event is published into a shared
//!   [`WatermarkFeed`] and the producer watermark is advanced past it, so
//!   the decision tier is never parked on the frontier. The session is
//!   then staged on a `LiveSupply` — a `RecordSupply` over a queue
//!   that is fed by the caller instead of a file scan.
//! * **advance_to** — step the lifecycle cooperatively up to the live
//!   clock's "now" (`SessionDriver::step_until`): every event at or
//!   before the horizon is processed in exactly the order the offline
//!   engine would process it, then the driver parks at the edge of
//!   simulated time instead of finishing.
//! * **lookup** — read a neighborhood's current placement for a program
//!   straight from its [`IndexServer`], without disturbing the lifecycle.
//!
//! Every strategy in the registry, fault plans, and enforcing
//! admission/retry work unchanged — they live below the seams this
//! module plugs into. [`serve_serial`] runs one driver over the whole
//! plant — the online analogue of the serial offline driver — and its
//! final [`SimReport`] is **byte-identical** to the offline replay of the
//! same session sequence; the loopback equivalence tests pin this per
//! strategy.
//!
//! # Ordering contract
//!
//! The offline engine processes events in global time order with records
//! tie-breaking ahead of continuations. To reproduce that order exactly,
//! submissions must respect two monotonicity rules, both enforced with
//! explicit errors:
//!
//! 1. session start times never decrease across submissions (the trace
//!    is sorted; a live ingress stamps arrivals with a monotone clock);
//! 2. a session's start is strictly **after** the last advanced horizon
//!    (events at or before the horizon are already processed — a
//!    submission "in the past" can no longer be interleaved correctly).
//!
//! The epoch counter increments whenever an `advance_to` processed at
//! least one event — a conservative over-approximation of "placement
//! state changed" that is always safe for front-tier response caches
//! (they may re-ask the decision tier needlessly, but can never serve a
//! stale placement as fresh).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use cablevod_cache::{IndexServer, SharedFeed, StrategyFactory, WatermarkFeed};
use cablevod_hfc::ids::{PeerId, ProgramId, SegmentId};
use cablevod_hfc::segment::Segmenter;
use cablevod_hfc::units::SimTime;
use cablevod_trace::catalog::ProgramCatalog;
use cablevod_trace::record::SessionRecord;
use cablevod_trace::source::TraceSource;

use super::fault::FaultingPlant;
use super::feed::wants_feed;
use super::lifecycle::{
    feed_event, session_ctx, PendingSession, RecordSupply, SessionDriver, Step, UserMap,
};
use super::report::assemble_serial_report;
use super::schedule::ScheduleSupply;
use super::{build_indexes, build_schedules, build_topology};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::report::SimReport;

/// The static shape of an online serving session: everything the engine
/// must know up front that an offline run would read from its trace
/// source.
#[derive(Debug, Clone, Copy)]
pub struct OnlineSpec<'a> {
    /// The program catalog sessions are validated and sized against.
    pub catalog: &'a ProgramCatalog,
    /// Number of subscribers (fixes the topology, like
    /// [`TraceSource::user_count`]).
    pub user_count: u32,
    /// Accounting horizon in days for the final report (peak windows,
    /// hourly profiles). The online analogue of [`TraceSource::days`].
    pub days: u64,
    /// Upper bound on sessions ever submitted (sizes the shared feed; a
    /// submission beyond it is rejected with an explicit error).
    pub capacity: u64,
    /// Resident records for strategies that need an offline access
    /// schedule (Oracle). `None` means such strategies are rejected —
    /// a socket ingress cannot see the future.
    pub schedule_records: Option<&'a [SessionRecord]>,
}

impl<'a> OnlineSpec<'a> {
    /// The spec for replaying `source` online: same catalog, users, days
    /// and capacity as the offline run, with resident records (when the
    /// source has them) available for Oracle schedules.
    pub fn from_source<S: TraceSource + ?Sized>(source: &'a S) -> Self {
        OnlineSpec {
            catalog: source.catalog(),
            user_count: source.user_count(),
            days: source.days(),
            capacity: source.record_count(),
            schedule_records: source.resident_records(),
        }
    }
}

/// A neighborhood's current placement answer for one program, read
/// straight off its [`IndexServer`] between steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlinePlacement {
    /// When the program was admitted into the neighborhood cache, if it
    /// currently is.
    pub admitted_at: Option<SimTime>,
    /// The peer holding the program's first segment, if placed.
    pub location: Option<PeerId>,
}

impl OnlinePlacement {
    fn read(index: &IndexServer, program: ProgramId) -> Self {
        OnlinePlacement {
            admitted_at: index.admitted_at(program),
            location: index.location_of(SegmentId::new(program, 0)),
        }
    }
}

/// The online engine the serving callback drives (see the module docs
/// for the ordering contract).
pub trait OnlineEngine {
    /// Submits one session request and returns its global index.
    ///
    /// # Errors
    ///
    /// Rejects submissions beyond [`OnlineSpec::capacity`], starts that
    /// regress, starts at or before the advanced horizon, and records
    /// referencing unknown users or programs.
    fn submit(&mut self, rec: SessionRecord) -> Result<u64, SimError>;

    /// Processes every pending event at or before `now`; returns whether
    /// any event was processed (and hence whether the epoch was bumped).
    ///
    /// # Errors
    ///
    /// Rejects regressing horizons and propagates lifecycle failures.
    fn advance_to(&mut self, now: SimTime) -> Result<bool, SimError>;

    /// The placement answer for `program` in neighborhood `nbhd`, as of
    /// the last advance.
    ///
    /// # Errors
    ///
    /// Rejects unknown neighborhoods.
    fn lookup(&self, nbhd: u32, program: ProgramId) -> Result<OnlinePlacement, SimError>;

    /// The placement epoch: incremented whenever an advance processed at
    /// least one event. Response caches key their entries on this.
    fn epoch(&self) -> u64;

    /// Sessions submitted so far.
    fn submitted(&self) -> u64;

    /// Number of neighborhoods the plant serves.
    fn neighborhoods(&self) -> usize;
}

/// Runs the serial online engine (one driver, the whole plant) for the
/// duration of `session`, then drains every remaining event and returns
/// the callback's value together with the final report.
///
/// The report is byte-identical to an offline
/// [`Simulation`](crate::Simulation) run over the same session sequence.
///
/// # Errors
///
/// Returns [`SimError::Config`] for invalid configurations and specs
/// (including schedule-needing strategies without
/// [`OnlineSpec::schedule_records`]), and propagates callback and
/// lifecycle failures.
pub fn serve_serial<T>(
    spec: &OnlineSpec<'_>,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
    session: impl FnOnce(&mut dyn OnlineEngine) -> Result<T, SimError>,
) -> Result<(T, SimReport), SimError> {
    config.validate()?;
    if spec.capacity > u64::from(u32::MAX) {
        return Err(SimError::Config {
            reason: "online sessions beyond 2^32 are not supported".into(),
        });
    }
    let segmenter = Segmenter::new(config.segment_len(), config.stream_rate());
    let mut topo = build_topology(spec.user_count, config)?;
    let nbhd_count = topo.neighborhood_count();
    let users = UserMap::from_topology(&topo);
    let schedules = match spec.schedule_records {
        Some(records) => {
            build_schedules(records, spec.catalog, &topo, config, &segmenter, strategy)?
        }
        None if strategy.needs_schedule() => {
            return Err(SimError::Config {
                reason: "this strategy needs an offline access schedule; \
                         serve it from a replayed trace, not a live ingress"
                    .into(),
            })
        }
        None => ScheduleSupply::none(nbhd_count),
    };
    let indexes = build_indexes(&topo, config, &segmenter, &schedules, strategy)?;

    let wfeed = wants_feed(strategy).then(|| WatermarkFeed::new(spec.capacity, 1, nbhd_count));
    let provider = wfeed.as_ref().map(|f| SharedFeed::new(f, 0, 0..nbhd_count));
    let queue = SharedQueue::default();
    let supply = LiveSupply {
        queue: Rc::clone(&queue),
    };
    let plant = FaultingPlant::new(&mut topo, config, 0, nbhd_count);
    let driver = SessionDriver::new(supply, provider, plant, indexes, 0, config, segmenter, None);
    let mut engine = LiveEngine {
        driver,
        queue,
        users,
        catalog: spec.catalog,
        config,
        segmenter,
        wfeed: wfeed.as_ref(),
        capacity: spec.capacity,
        next_gidx: 0,
        last_start: None,
        advanced: None,
        epoch: 0,
    };

    let value = session(&mut engine)?;
    engine.drain()?;

    let LiveEngine { driver, .. } = engine;
    let (plant, indexes, counters) = driver.into_parts();
    let (_, degradation) = plant.into_parts();
    let days = spec.days.max(1);
    let warmup = config.warmup_days().min(days - 1);
    Ok((
        value,
        assemble_serial_report(&topo, &indexes, counters, days, warmup, degradation),
    ))
}

/// The staging queue a [`LiveSupply`] drains: the ingress pushes, the
/// lifecycle pops. Single-threaded by construction (the decision tier is
/// stepped cooperatively), hence `Rc<RefCell<..>>`.
type SharedQueue = Rc<RefCell<VecDeque<PendingSession>>>;

/// A [`RecordSupply`] over a caller-fed queue. Publication and watermark
/// advancement happened at submit (see [`LiveEngine::admit`]), so peeking
/// never touches the feed and the driver never parks on the frontier.
struct LiveSupply {
    queue: SharedQueue,
}

impl<F: cablevod_cache::FeedProvider> RecordSupply<F> for LiveSupply {
    fn peek(&mut self, _feed: &mut Option<F>) -> Result<Option<(SimTime, u64)>, SimError> {
        Ok(self.queue.borrow().front().map(|p| (p.rec.start, p.gidx)))
    }

    fn take(&mut self) -> PendingSession {
        self.queue
            .borrow_mut()
            .pop_front()
            .expect("a session is staged")
    }
}

/// The online engine: one [`SessionDriver`] over the whole plant, plus
/// the ingress bookkeeping (context computation, feed publication,
/// capacity and monotonicity enforcement).
struct LiveEngine<'s> {
    driver: SessionDriver<
        's,
        FaultingPlant<&'s mut cablevod_hfc::topology::Topology>,
        SharedFeed<'s>,
        LiveSupply,
    >,
    queue: SharedQueue,
    users: UserMap,
    catalog: &'s ProgramCatalog,
    config: &'s SimConfig,
    segmenter: Segmenter,
    wfeed: Option<&'s WatermarkFeed>,
    capacity: u64,
    next_gidx: u64,
    last_start: Option<SimTime>,
    advanced: Option<SimTime>,
    epoch: u64,
}

impl LiveEngine<'_> {
    /// Admits one submission: enforces the ordering contract, computes
    /// the session context, publishes its feed event and advances the
    /// producer watermark past it.
    fn admit(&mut self, rec: SessionRecord) -> Result<PendingSession, SimError> {
        if self.next_gidx >= self.capacity {
            return Err(SimError::Config {
                reason: format!(
                    "online session capacity exhausted ({} submitted)",
                    self.capacity
                ),
            });
        }
        if self.last_start.is_some_and(|last| rec.start < last) {
            return Err(SimError::Config {
                reason: "session start times must not decrease across submissions".into(),
            });
        }
        if self.advanced.is_some_and(|h| rec.start <= h) {
            return Err(SimError::Config {
                reason: "session starts at or before the advanced horizon cannot be \
                         interleaved; stamp arrivals after the last advance"
                    .into(),
            });
        }
        let seg_len = self.segmenter.segment_len().as_secs();
        let ctx = session_ctx(&rec, self.catalog, &self.users, seg_len)?;
        let gidx = self.next_gidx;
        if let Some(feed) = self.wfeed {
            feed.publish(gidx, feed_event(&rec, &ctx, self.config, &self.segmenter));
            feed.advance(0, gidx + 1);
        }
        self.next_gidx += 1;
        self.last_start = Some(rec.start);
        Ok(PendingSession { gidx, rec, ctx })
    }

    fn drain(&mut self) -> Result<(), SimError> {
        loop {
            match self.driver.step_until(None)? {
                Step::Done => return Ok(()),
                Step::Blocked { .. } => {
                    debug_assert!(false, "a live supply's frontier is advanced at submit");
                    std::thread::yield_now();
                }
                Step::Horizon { .. } => unreachable!("unbounded steps never park on a horizon"),
            }
        }
    }
}

impl OnlineEngine for LiveEngine<'_> {
    fn submit(&mut self, rec: SessionRecord) -> Result<u64, SimError> {
        let pending = self.admit(rec)?;
        let gidx = pending.gidx;
        self.queue.borrow_mut().push_back(pending);
        Ok(gidx)
    }

    fn advance_to(&mut self, now: SimTime) -> Result<bool, SimError> {
        if self.advanced.is_some_and(|h| now < h) {
            return Err(SimError::Config {
                reason: "advance horizons must not regress".into(),
            });
        }
        self.advanced = Some(now);
        match self.driver.step_until(Some(now))? {
            Step::Horizon { progressed } | Step::Blocked { progressed } => {
                if progressed {
                    self.epoch += 1;
                }
                Ok(progressed)
            }
            Step::Done => unreachable!("bounded steps never finish the run"),
        }
    }

    fn lookup(&self, nbhd: u32, program: ProgramId) -> Result<OnlinePlacement, SimError> {
        let index = self
            .driver
            .indexes()
            .get(nbhd as usize)
            .ok_or_else(|| SimError::Config {
                reason: format!("unknown neighborhood {nbhd}"),
            })?;
        Ok(OnlinePlacement::read(index, program))
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn submitted(&self) -> u64 {
        self.next_gidx
    }

    fn neighborhoods(&self) -> usize {
        self.driver.indexes().len()
    }
}
