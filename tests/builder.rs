//! Front-door extension properties: [`Scenario`] specs must round-trip
//! through the spec-file format, and an out-of-tree strategy handed to
//! [`Simulation`] through the [`StrategyFactory`] interface (or named in
//! a scenario through a [`StrategyRegistry`]) must run end-to-end without
//! touching the cache crate's [`StrategySpec`] enum. Driver agreement
//! (serial/sharded × resident/streaming) is pinned in `tests/streaming.rs`.

use std::collections::BTreeMap;
use std::sync::Arc;

use cablevod_cache::{
    CacheError, CacheOp, CacheStrategy, StrategyContext, StrategyFactory, StrategyRegistry,
    StrategySpec,
};
use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::SimTime;
use cablevod_sim::ThreadPolicy::{Fixed, Serial};
use cablevod_sim::{AxisPoint, CellResult, ResilienceOptions, Scenario, Simulation, SourceSpec};
use cablevod_tests::{config_for, simulate, tiny_config};
use cablevod_trace::synth::generate;

/// A minimal out-of-tree strategy: admits programs first-come
/// first-served while capacity remains and never evicts — a toy
/// "prior-storing server" (Tsang 2015), deliberately *not* a
/// [`StrategySpec`] variant.
#[derive(Debug)]
struct StickyCache {
    capacity: u64,
    used: u64,
    contents: BTreeMap<usize, u32>,
}

impl CacheStrategy for StickyCache {
    fn name(&self) -> &'static str {
        "Sticky"
    }

    fn on_access(&mut self, program: ProgramId, cost: u32, _now: SimTime, ops: &mut Vec<CacheOp>) {
        if self.contents.contains_key(&program.index()) {
            return;
        }
        if self.used + u64::from(cost) <= self.capacity {
            self.contents.insert(program.index(), cost);
            self.used += u64::from(cost);
            ops.push(CacheOp::Admit(program));
        }
    }

    fn contains(&self, program: ProgramId) -> bool {
        self.contents.contains_key(&program.index())
    }

    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        self.contents.get(&program.index()).copied()
    }

    fn used_slots(&self) -> u64 {
        self.used
    }

    fn capacity_slots(&self) -> u64 {
        self.capacity
    }
}

#[derive(Debug)]
struct StickyFactory;

impl StrategyFactory for StickyFactory {
    fn name(&self) -> &str {
        "Sticky"
    }
    fn build(&self, ctx: StrategyContext) -> Result<Box<dyn CacheStrategy>, CacheError> {
        Ok(Box::new(StickyCache {
            capacity: ctx.capacity_slots,
            used: 0,
            contents: BTreeMap::new(),
        }))
    }
}

/// An out-of-tree strategy runs through every driver without any
/// cache-crate enum change, behaves deterministically, and is nameable in
/// a scenario through a custom registry.
#[test]
fn custom_strategy_registers_and_runs_everywhere() {
    let trace = generate(&tiny_config(200, 30, 3, 42));
    let config = config_for(60, 1, StrategySpec::NoCache);

    let run_sticky = |threads| {
        Simulation::over(&trace)
            .config(config.clone())
            .strategy_factory(Arc::new(StickyFactory))
            .thread_policy(threads)
            .run()
            .expect("custom strategy runs")
    };

    let serial = run_sticky(Serial);
    assert_eq!(serial.telemetry.strategy, "Sticky");
    assert!(serial.report.cache.hits > 0, "sticky cache produces hits");

    // Sharded runs agree bit-for-bit, like every built-in.
    for threads in [1, 2, 4] {
        assert_eq!(run_sticky(Fixed(threads)).report, serial.report);
    }

    // Sticky beats nothing: fewer server bytes than the no-cache run.
    let no_cache = simulate(&trace, &config, Serial);
    assert!(serial.report.server_total < no_cache.server_total);

    // The same strategy, registered by name, drives a Scenario.
    let mut registry = StrategyRegistry::builtin();
    registry.register("prior-storing", Arc::new(StickyFactory));
    let grid = Scenario::new(
        "custom",
        SourceSpec::Synth(tiny_config(200, 30, 3, 42)),
        config.clone(),
    )
    .with_series(vec![
        AxisPoint::new("Sticky").with_strategy_named("prior-storing")
    ])
    .execute_resilient(&registry, &ResilienceOptions::default(), &|_| {})
    .expect("scenario with custom strategy runs");
    assert_eq!(grid.cells.len(), 1);
    match &grid.cells[0].result {
        CellResult::Completed { outcome, .. } => assert_eq!(outcome.report, serial.report),
        other => panic!("custom cell did not complete: {other:?}"),
    }
}

/// Scenario specs survive a full save → load file round-trip, and the
/// loaded scenario executes to the same reports.
#[test]
fn scenario_spec_file_round_trips_and_reruns() {
    let scenario = Scenario::new(
        "round-trip",
        SourceSpec::Synth(tiny_config(150, 25, 3, 9)),
        config_for(50, 2, StrategySpec::default_lfu()),
    )
    .with_series(vec![
        AxisPoint::new("LRU").with_strategy(StrategySpec::Lru),
        AxisPoint::new("LFU").with_strategy(StrategySpec::default_lfu()),
    ])
    .with_points(vec![
        AxisPoint::new("x1").with_source(SourceSpec::Scaled {
            population: 1,
            catalog: 1,
            seed: 3,
        }),
        AxisPoint::new("x2").with_source(SourceSpec::Scaled {
            population: 2,
            catalog: 1,
            seed: 3,
        }),
    ]);

    let mut path = std::env::temp_dir();
    path.push(format!("cvsc_roundtrip_{}.scn", std::process::id()));
    scenario.save(&path).expect("saves");
    let loaded = Scenario::load(&path).expect("loads");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, scenario);

    let original = scenario.execute().expect("original runs");
    let reloaded = loaded.execute().expect("reloaded runs");
    assert_eq!(original.len(), reloaded.len());
    for (a, b) in original.iter().zip(&reloaded) {
        assert_eq!(a.series, b.series);
        assert_eq!(a.point, b.point);
        assert_eq!(a.report(), b.report());
    }
}
