//! Cross-crate end-to-end tests: the full pipeline through the public API.

use cablevod::VodSystem;
use cablevod_cache::StrategySpec;
use cablevod_hfc::units::DataSize;
use cablevod_tests::medium_trace;
use cablevod_trace::io;

#[test]
fn full_pipeline_produces_sane_evaluation() {
    let trace = medium_trace();
    let system = VodSystem::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(4))
        .with_warmup_days(4);
    let outcome = system.evaluate(&trace).expect("pipeline runs");

    assert_eq!(outcome.report.sessions as usize, trace.len());
    assert!(
        outcome.savings > 0.0 && outcome.savings < 1.0,
        "savings {}",
        outcome.savings
    );
    assert!(
        outcome.report.hit_rate() > 0.1,
        "hit rate {}",
        outcome.report.hit_rate()
    );
    assert!(outcome.report.server_peak.q05 <= outcome.report.server_peak.mean);
    assert!(outcome.report.server_peak.mean <= outcome.report.server_peak.q95);
    assert_eq!(outcome.report.measured_from_day, 4);
    assert_eq!(outcome.report.measured_to_day, trace.days());
}

#[test]
fn evaluation_is_deterministic_end_to_end() {
    let trace = medium_trace();
    let system = VodSystem::paper_default()
        .with_neighborhood_size(500)
        .with_warmup_days(4);
    let a = system.evaluate(&trace).expect("runs");
    let b = system.evaluate(&trace).expect("runs");
    assert_eq!(a.report, b.report);
    assert_eq!(a.savings, b.savings);
}

#[test]
fn trace_survives_csv_round_trip_and_simulates_identically() {
    let trace = medium_trace();

    let mut records_csv = Vec::new();
    let mut catalog_csv = Vec::new();
    io::write_records(&trace, &mut records_csv).expect("write records");
    io::write_catalog(trace.catalog(), &mut catalog_csv).expect("write catalog");

    let catalog = io::read_catalog(catalog_csv.as_slice()).expect("read catalog");
    let restored = io::read_records(records_csv.as_slice(), catalog).expect("read records");

    let system = VodSystem::paper_default()
        .with_neighborhood_size(500)
        .with_warmup_days(4);
    let original = system.evaluate(&trace).expect("runs").report;
    let roundtrip = system.evaluate(&restored).expect("runs").report;
    assert_eq!(original.server_total, roundtrip.server_total);
    assert_eq!(original.cache, roundtrip.cache);
}

#[test]
fn strategy_choice_flows_through_the_facade() {
    let trace = medium_trace();
    let base = VodSystem::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(1))
        .with_warmup_days(4);

    let none = base
        .clone()
        .with_strategy(StrategySpec::NoCache)
        .evaluate(&trace)
        .expect("runs");
    let lfu = base.evaluate(&trace).expect("runs");
    assert_eq!(none.report.cache.hits, 0);
    assert!(
        none.savings.abs() < 1e-9,
        "no-cache saves nothing: {}",
        none.savings
    );
    assert!(lfu.savings > none.savings);
}

#[test]
fn viewer_overcommit_is_rare_but_counted() {
    let trace = medium_trace();
    let system = VodSystem::paper_default()
        .with_neighborhood_size(500)
        .with_warmup_days(4);
    let report = system.evaluate(&trace).expect("runs").report;
    // Overcommit (a viewer exceeding 2 concurrent streams) happens but is
    // a tiny fraction of sessions for a realistic workload.
    assert!(
        (report.viewer_overcommits as f64) < 0.2 * report.sessions as f64,
        "{} overcommits / {} sessions",
        report.viewer_overcommits,
        report.sessions
    );
}
