//! Per-neighborhood sharding: isolated plant slices, shard scheduling,
//! and the two parallel entry drivers.
//!
//! The paper's unit of isolation is the neighborhood: per-event state
//! (cache, boxes, coax) is neighborhood-local, the shared central-server
//! meter merges because bucket accounting is commutative
//! ([`RateMeter::merge`]), and global-feed visibility is reproduced by the
//! provider seam (precomputed bounds on resident runs, the watermark
//! frontier on streaming runs). Each shard therefore runs the **same**
//! [`SessionDriver`] lifecycle as the serial engine, against a
//! [`ShardPlant`] instead of the whole topology:
//!
//! * resident: shards are independent jobs on the work-stealing pool
//!   ([`runner::run_indexed`]) — no shard ever waits on another;
//! * streaming: shards are cooperative tasks multiplexed onto workers
//!   ([`drive_worker`]), parked whenever the watermark frontier has not
//!   reached the record they must start next, so any worker count is
//!   deadlock-free (see the frontier-liveness note in [`super`]).
//!
//! Both drivers size their worker sets from the process-wide permit
//! ledger in [`runner`], so a sharded run composes with a concurrently
//! executing sweep instead of oversubscribing the machine (and the
//! caller's own thread always drives, so a dry ledger just means a
//! single-worker run).

use std::sync::atomic::{AtomicBool, Ordering};

use cablevod_cache::{IndexStats, SharedFeed, StrategyFactory, WatermarkFeed};
use cablevod_hfc::coax::CoaxNetwork;
use cablevod_hfc::ids::{NeighborhoodId, PeerId};
use cablevod_hfc::meter::RateMeter;
use cablevod_hfc::segment::Segmenter;
use cablevod_hfc::stb::{SetTopBox, StbStore};
use cablevod_hfc::topology::Topology;
use cablevod_hfc::units::SimTime;
use cablevod_trace::record::SessionRecord;
use cablevod_trace::source::TraceSource;

use super::fault::FaultingPlant;
use super::feed::build_feed;
use super::lifecycle::{EngineCounters, SegmentPlant, SessionDriver, Step, UserMap, ABORTED};
use super::report::merge_outcomes;
use super::stream::{ResidentSupply, StreamSupply};
use super::{build_index, build_schedules, build_topology, precompute_sessions, shard_plans};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::report::{DegradationReport, SimReport};
use crate::runner;

/// One neighborhood's set-top boxes, addressed by global [`PeerId`]
/// through a shared peer-to-local-position table (no hashing).
pub(super) struct ShardStbs<'a> {
    /// The neighborhood whose members these boxes are.
    id: NeighborhoodId,
    stbs: Vec<SetTopBox>,
    /// `positions[peer.index()]` is the peer's slot in `stbs`; only
    /// meaningful for this shard's members, so membership is checked
    /// against `nbhd_of` first.
    positions: &'a [u32],
    /// Every peer's neighborhood ([`Topology::peer_neighborhoods`]):
    /// upholds the [`StbStore`] contract that a foreign peer is
    /// `UnknownPeer`, never silently another member's box.
    nbhd_of: &'a [NeighborhoodId],
}

impl StbStore for ShardStbs<'_> {
    fn stb_mut(&mut self, peer: PeerId) -> Result<&mut SetTopBox, cablevod_hfc::error::HfcError> {
        if self.nbhd_of.get(peer.index()) != Some(&self.id) {
            return Err(cablevod_hfc::error::HfcError::UnknownPeer { peer });
        }
        self.stbs
            .get_mut(self.positions[peer.index()] as usize)
            .ok_or(cablevod_hfc::error::HfcError::UnknownPeer { peer })
    }
}

/// One neighborhood's isolated slice of the plant: its boxes, its coax
/// meter, and a private central-server meter that is merged into the
/// shared one after the shard completes. (No fiber meter: [`SimReport`]
/// never reads fiber data, so shards skip that bucket-split work; the
/// serial path keeps it only because its [`Topology`] owns the links.)
pub(super) struct ShardPlant<'a> {
    id: NeighborhoodId,
    stbs: ShardStbs<'a>,
    pub(super) coax: CoaxNetwork,
    pub(super) server: RateMeter,
}

impl<'a> ShardPlant<'a> {
    pub(super) fn build(
        n: usize,
        topo: &'a Topology,
        config: &SimConfig,
        positions: &'a [u32],
    ) -> Result<Self, SimError> {
        let id = NeighborhoodId::new(n as u32);
        let stbs: Vec<SetTopBox> = topo
            .neighborhood(id)?
            .members()
            .iter()
            .map(|&p| SetTopBox::new(p, config.per_peer_storage(), config.stream_slots()))
            .collect();
        Ok(ShardPlant {
            id,
            stbs: ShardStbs {
                id,
                stbs,
                positions,
                nbhd_of: topo.peer_neighborhoods(),
            },
            coax: CoaxNetwork::new(*config.coax_spec()),
            server: RateMeter::hourly(),
        })
    }
}

impl SegmentPlant for ShardPlant<'_> {
    fn stbs(&mut self) -> &mut dyn StbStore {
        &mut self.stbs
    }

    fn record_miss(
        &mut self,
        nbhd: NeighborhoodId,
        start: SimTime,
        end: SimTime,
        size: cablevod_hfc::units::DataSize,
    ) -> Result<(), SimError> {
        debug_assert_eq!(
            nbhd, self.id,
            "shard received a foreign neighborhood's miss"
        );
        self.server.record(start, end, size);
        Ok(())
    }

    fn record_broadcast(
        &mut self,
        nbhd: NeighborhoodId,
        start: SimTime,
        end: SimTime,
        size: cablevod_hfc::units::DataSize,
    ) -> Result<(), SimError> {
        debug_assert_eq!(
            nbhd, self.id,
            "shard received a foreign neighborhood's broadcast"
        );
        self.coax.record_broadcast(start, end, size);
        Ok(())
    }
}

/// What one shard hands back for the deterministic merge.
pub(super) struct ShardOutcome {
    pub(super) coax: CoaxNetwork,
    pub(super) server: RateMeter,
    pub(super) stats: IndexStats,
    pub(super) counters: EngineCounters,
    /// This shard's one-neighborhood degradation section, `None` exactly
    /// when the serial engine's would be (default counting admission over
    /// an empty fault plan).
    pub(super) degradation: Option<DegradationReport>,
}

impl ShardOutcome {
    pub(super) fn from_driver<F, R>(
        driver: SessionDriver<'_, FaultingPlant<ShardPlant<'_>>, F, R>,
    ) -> Self
    where
        F: cablevod_cache::FeedProvider,
        R: super::lifecycle::RecordSupply<F>,
    {
        let (plant, indexes, counters) = driver.into_parts();
        let (plant, degradation) = plant.into_parts();
        ShardOutcome {
            coax: plant.coax,
            server: plant.server,
            stats: *indexes[0].stats(),
            counters,
            degradation,
        }
    }
}

/// The resident sharded driver: every shard replays its own record subset
/// (in trace order, interleaved with its continuation heap — exactly the
/// relative order the serial engine would process them in) over the
/// work-stealing pool, with the precomputed global feed shared read-only.
pub(super) fn run_parallel_resident<S: TraceSource + ?Sized>(
    records: &[SessionRecord],
    source: &S,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
    threads: usize,
) -> Result<SimReport, SimError> {
    config.validate()?;
    let segmenter = Segmenter::new(config.segment_len(), config.stream_rate());
    let catalog = source.catalog();

    // The topology is built once for membership, capacities and placement
    // determinism, then only read; every shard owns fresh mutable state.
    let topo = build_topology(source.user_count(), config)?;
    let users = UserMap::from_topology(&topo);

    let ctxs = precompute_sessions(records, catalog, &users, &segmenter)?;
    let schedules = build_schedules(records, catalog, &topo, config, &segmenter, strategy)?;
    let feed = build_feed(records, &ctxs, config, &segmenter, strategy);
    let positions = topo.local_positions();

    let nbhd_count = topo.neighborhood_count();
    let mut shard_records: Vec<Vec<u32>> = vec![Vec::new(); nbhd_count];
    for (i, ctx) in ctxs.iter().enumerate() {
        shard_records[ctx.nbhd as usize].push(i as u32);
    }

    let outcomes = runner::run_indexed(nbhd_count, threads, |n| {
        let index = build_index(n, &topo, config, &segmenter, schedules.window(n)?, strategy)?;
        let plant = FaultingPlant::new(
            ShardPlant::build(n, &topo, config, &positions)?,
            config,
            n as u32,
            1,
        );
        let supply = ResidentSupply::new(records, &ctxs, Some(&shard_records[n]));
        let mut driver = SessionDriver::new(
            supply,
            feed.as_ref().map(cablevod_cache::PrecomputedFeed::new),
            plant,
            vec![index],
            n as u32,
            config,
            segmenter,
            None,
        );
        driver.run()?;
        Ok(ShardOutcome::from_driver(driver))
    });

    let days = source.days().max(1);
    let warmup = config.warmup_days().min(days - 1);
    merge_outcomes(outcomes, days, warmup, nbhd_count)
}

/// The streaming sharded driver: shards stream their chunk runs (see
/// [`super::stream`]) and synchronize global-feed visibility through the
/// watermark protocol, multiplexed as cooperative tasks.
pub(super) fn run_parallel_streaming<S: TraceSource + ?Sized>(
    source: &S,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
    threads: usize,
) -> Result<SimReport, SimError> {
    config.validate()?;
    let total = source.record_count();
    let segmenter = Segmenter::new(config.segment_len(), config.stream_rate());
    let topo = build_topology(source.user_count(), config)?;
    let nbhd_count = topo.neighborhood_count();

    let plan = shard_plans(source, &topo, config, &segmenter, strategy)?;
    let users = UserMap::from_topology(&topo);
    let feed = super::feed::wants_feed(strategy)
        .then(|| WatermarkFeed::new(total, nbhd_count, nbhd_count));
    let positions = topo.local_positions();
    let aborted = AtomicBool::new(false);

    // Workers beyond the caller come from the shared ledger
    // ([`runner::take_permits`]): a sharded job started while a sweep
    // holds the machine begins with fewer workers instead of
    // oversubscribing, and each permit returns the moment its worker's
    // shards drain. Shard tasks cannot migrate between workers, so the
    // split is fixed at entry; the caller always drives stripe 0.
    let permits = runner::take_permits(threads.clamp(1, nbhd_count) - 1);
    let workers = 1 + permits.len();
    let mut collected: Vec<Option<Result<ShardOutcome, SimError>>> =
        (0..nbhd_count).map(|_| None).collect();
    let worker_results: Vec<Vec<(usize, Result<ShardOutcome, SimError>)>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = permits
                .into_iter()
                .zip(1..workers)
                .map(|(permit, w)| {
                    let topo = &topo;
                    let plan = &plan;
                    let users = &users;
                    let positions = &positions;
                    let feed = feed.as_ref();
                    let aborted = &aborted;
                    let segmenter = &segmenter;
                    scope.spawn(move || {
                        let results = drive_worker(
                            w, workers, nbhd_count, source, topo, users, config, strategy,
                            *segmenter, plan, positions, feed, aborted,
                        );
                        drop(permit);
                        results
                    })
                })
                .collect();
            let mine = drive_worker(
                0,
                workers,
                nbhd_count,
                source,
                &topo,
                &users,
                config,
                strategy,
                segmenter,
                &plan,
                &positions,
                feed.as_ref(),
                &aborted,
            );
            let mut all: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect();
            all.push(mine);
            all
        });
    for (nbhd, result) in worker_results.into_iter().flatten() {
        collected[nbhd] = Some(result);
    }

    // Prefer a shard's real failure over the abort sentinel its siblings
    // raised while bailing out.
    if aborted.load(Ordering::Relaxed) {
        let mut sentinel = None;
        for result in collected.iter_mut() {
            match result.take() {
                Some(Err(SimError::Config { reason })) if reason == ABORTED => {
                    sentinel = Some(SimError::Config { reason });
                }
                Some(Err(e)) => return Err(e),
                _ => {}
            }
        }
        return Err(sentinel.expect("abort flag implies at least one error"));
    }

    let days = source.days().max(1);
    let warmup = config.warmup_days().min(days - 1);
    merge_outcomes(
        collected
            .into_iter()
            .map(|r| r.expect("every shard reports exactly once")),
        days,
        warmup,
        nbhd_count,
    )
}

/// The shard drivers of the streaming sharded path.
type ShardDriver<'a, S> =
    SessionDriver<'a, FaultingPlant<ShardPlant<'a>>, SharedFeed<'a>, StreamSupply<'a, S>>;

/// Drives the shard tasks assigned to worker `w` (neighborhoods `w`,
/// `w + stride`, ...), round-robin, yielding the CPU only when every
/// task is parked on the feed frontier.
#[allow(clippy::too_many_arguments)]
fn drive_worker<'a, S: TraceSource + ?Sized>(
    w: usize,
    stride: usize,
    nbhd_count: usize,
    source: &'a S,
    topo: &'a Topology,
    users: &'a UserMap,
    config: &'a SimConfig,
    strategy: &'a dyn StrategyFactory,
    segmenter: Segmenter,
    plan: &'a super::StreamPlan,
    positions: &'a [u32],
    feed: Option<&'a WatermarkFeed>,
    aborted: &'a AtomicBool,
) -> Vec<(usize, Result<ShardOutcome, SimError>)> {
    let mut results = Vec::new();
    let mut tasks: Vec<(usize, ShardDriver<'a, S>)> = Vec::new();
    for nbhd in (w..nbhd_count).step_by(stride) {
        let built = (|| {
            let index = build_index(
                nbhd,
                topo,
                config,
                &segmenter,
                plan.schedules.window(nbhd)?,
                strategy,
            )?;
            let plant = FaultingPlant::new(
                ShardPlant::build(nbhd, topo, config, positions)?,
                config,
                nbhd as u32,
                1,
            );
            let supply = StreamSupply::new(
                source,
                plan.shard_runs[nbhd].iter().map(Vec::as_slice),
                plan.filtered.then_some(nbhd as u32),
                users.clone(),
                config,
                segmenter,
            );
            let provider = feed.map(|f| SharedFeed::new(f, nbhd, nbhd..nbhd + 1));
            Ok::<_, SimError>(SessionDriver::new(
                supply,
                provider,
                plant,
                vec![index],
                nbhd as u32,
                config,
                segmenter,
                Some(aborted),
            ))
        })();
        match built {
            Ok(driver) => tasks.push((nbhd, driver)),
            Err(e) => {
                // Do NOT finish this shard's feed watermark: its events were
                // never published, and raising the mark would let siblings
                // pass the frontier check into unpublished slots. The abort
                // flag unparks them instead (checked at every step entry).
                aborted.store(true, Ordering::Relaxed);
                results.push((nbhd, Err(e)));
            }
        }
    }

    while !tasks.is_empty() {
        let mut any_progress = false;
        let mut i = 0;
        while i < tasks.len() {
            match tasks[i].1.step() {
                Ok(Step::Done) => {
                    let (nbhd, driver) = tasks.swap_remove(i);
                    results.push((nbhd, Ok(ShardOutcome::from_driver(driver))));
                    any_progress = true;
                }
                Ok(Step::Blocked { progressed }) => {
                    any_progress |= progressed;
                    i += 1;
                }
                Ok(Step::Horizon { .. }) => {
                    unreachable!("offline shard steps never park on a horizon")
                }
                Err(e) => {
                    // As at build failure: leave the watermark where honest
                    // publication got to, and rely on the abort flag — a
                    // finished mark over unpublished slots would turn this
                    // error into sibling panics on empty feed slots.
                    aborted.store(true, Ordering::Relaxed);
                    let (nbhd, _) = tasks.swap_remove(i);
                    results.push((nbhd, Err(e)));
                    any_progress = true;
                }
            }
        }
        if !any_progress {
            std::thread::yield_now();
        }
    }
    results
}
