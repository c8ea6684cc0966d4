//! Architectural comparisons: §IV-A quantified (multicast) and §VI-B's
//! centralization argument (headend cache).

use cablevod_cache::FillPolicy;
use cablevod_hfc::units::{BitRate, SimDuration};
use cablevod_sim::{baseline, multicast, SimConfig, SimError, Simulation};
use cablevod_trace::analyze;
use cablevod_trace::record::Trace;

use crate::experiments::default_warmup;
use crate::figure::{Figure, FigureRow};

/// E-M1 — why not multicast, quantified. Compares, on the identical
/// trace: unicast (no cache), an *ideal* multicast lower bound (each
/// program streamed at most once concurrently, free sharing), a realistic
/// batching/patching multicast, and the paper's cooperative cache.
///
/// The paper's §IV-A argument is that skewed popularity and short sessions
/// starve multicast of sharing opportunities; the sharing factor and
/// mid-stream departure statistics reported in the notes make that
/// concrete.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn multicast_comparison(trace: &Trace) -> Result<Figure, SimError> {
    let mut fig = Figure::new(
        "multicast",
        "Why not multicast: server load by architecture (same trace)",
        "Architecture",
        "Average server rate, peak hours (Gb/s)",
    );
    let warmup = default_warmup(trace);
    let rate = BitRate::STREAM_MPEG2_SD;

    let unicast = baseline::no_cache_peak(trace, rate, warmup, trace.days());
    fig.push(FigureRow::with_bars(
        "server load",
        "unicast (no cache)",
        unicast.mean.as_gbps(),
        unicast.q05.as_gbps(),
        unicast.q95.as_gbps(),
    ));

    let batched = multicast::batched_multicast_peak(
        trace,
        rate,
        SimDuration::from_minutes(10),
        warmup,
        trace.days(),
    );
    fig.push(FigureRow::with_bars(
        "server load",
        "batching multicast (10 min window)",
        batched.server_peak.mean.as_gbps(),
        batched.server_peak.q05.as_gbps(),
        batched.server_peak.q95.as_gbps(),
    ));

    let ideal = multicast::ideal_multicast_peak(trace, rate, warmup, trace.days());
    fig.push(FigureRow::with_bars(
        "server load",
        "ideal multicast (lower bound)",
        ideal.server_peak.mean.as_gbps(),
        ideal.server_peak.q05.as_gbps(),
        ideal.server_peak.q95.as_gbps(),
    ));

    let cache_config = SimConfig::paper_default()
        .with_warmup_days(warmup)
        .with_fill_override(FillPolicy::Prefetch);
    let cache = Simulation::over(trace).config(cache_config).run()?.report;
    fig.push(FigureRow::with_bars(
        "server load",
        "cooperative cache (LFU, 10 TB)",
        cache.server_peak.mean.as_gbps(),
        cache.server_peak.q05.as_gbps(),
        cache.server_peak.q95.as_gbps(),
    ));

    fig.note(format!(
        "sharing factors: ideal multicast {:.2} viewers/stream, batching {:.2} members/group — \
         the skew of Fig 2 leaves most programs without concurrent viewers",
        ideal.mean_sharing, batched.mean_sharing
    ));
    // Mid-stream departures (§IV-A's second argument).
    if let Some(popular) = analyze::most_popular_program(trace) {
        let ecdf = analyze::session_length_ecdf(trace, popular);
        if let Some(length) = trace.catalog().length(popular) {
            if !ecdf.is_empty() {
                let gone_by_half = ecdf.cdf(length.as_secs() as f64 / 2.0);
                fig.note(format!(
                    "mid-stream attrition: {:.0}% of the most popular program's sessions end \
                     before the halfway mark (paper: 87%)",
                    gone_by_half * 100.0
                ));
            }
        }
    }
    fig.note(
        "if the cooperative cache beats even the ideal multicast bound, the paper's \
         architectural choice holds on this workload",
    );
    Ok(fig)
}

/// E-M2 — §VI-B's centralization claim: a headend proxy cache of equal
/// total capacity (modelled as the peer cache without per-STB stream-slot
/// limits) against the peer-to-peer cache. Coax load is identical by the
/// broadcast argument; the delta in server load is the entire cost of the
/// 2-streams-per-STB constraint.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn headend_comparison(trace: &Trace) -> Result<Figure, SimError> {
    let mut fig = Figure::new(
        "headend",
        "Peer-to-peer cache vs headend cache of equal capacity",
        "Architecture",
        "Average server rate, peak hours (Gb/s)",
    );
    let peer_config = SimConfig::paper_default()
        .with_warmup_days(default_warmup(trace))
        .with_fill_override(FillPolicy::Prefetch);
    let headend = Simulation::over(trace)
        .config(baseline::headend_config(&peer_config))
        .run()?
        .report;
    let peer = Simulation::over(trace).config(peer_config).run()?.report;

    fig.push(FigureRow::with_bars(
        "server load",
        "peer-to-peer (2 slots/STB)",
        peer.server_peak.mean.as_gbps(),
        peer.server_peak.q05.as_gbps(),
        peer.server_peak.q95.as_gbps(),
    ));
    fig.push(FigureRow::with_bars(
        "server load",
        "headend cache (no slot limit)",
        headend.server_peak.mean.as_gbps(),
        headend.server_peak.q05.as_gbps(),
        headend.server_peak.q95.as_gbps(),
    ));
    let busy_share = peer.cache.miss_peer_busy as f64 / peer.cache.requests().max(1) as f64;
    fig.note(format!(
        "slot-limit cost: {:.2}% of requests missed on busy peers; coax load identical \
         ({} vs {})",
        busy_share * 100.0,
        peer.coax_peak.mean,
        headend.coax_peak.mean
    ));
    fig.note("paper §VI-B: 'this usage would not improve with a more centralized approach'");
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cablevod_trace::synth::{generate, SynthConfig};

    fn smoke() -> Trace {
        generate(&SynthConfig {
            users: 800,
            programs: 200,
            days: 6,
            ..SynthConfig::smoke_test()
        })
    }

    #[test]
    fn multicast_ordering_holds() {
        let fig = multicast_comparison(&smoke()).expect("runs");
        let unicast = fig
            .value_of("server load", "unicast (no cache)")
            .expect("row");
        let batched = fig
            .value_of("server load", "batching multicast (10 min window)")
            .expect("row");
        let ideal = fig
            .value_of("server load", "ideal multicast (lower bound)")
            .expect("row");
        assert!(ideal <= batched + 1e-9, "bound must not exceed batching");
        assert!(
            batched <= unicast + 1e-9,
            "batching must not exceed unicast"
        );
    }

    #[test]
    fn headend_never_loses() {
        let fig = headend_comparison(&smoke()).expect("runs");
        let peer = fig
            .value_of("server load", "peer-to-peer (2 slots/STB)")
            .expect("row");
        let headend = fig
            .value_of("server load", "headend cache (no slot limit)")
            .expect("row");
        assert!(headend <= peer + 1e-9, "peer {peer} vs headend {headend}");
    }
}
