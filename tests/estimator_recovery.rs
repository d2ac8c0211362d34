//! Ground-truth recovery: the measurement pipeline must re-identify the
//! parameters of processes we construct analytically.
#![expect(
    clippy::disallowed_methods,
    reason = "recovery tests seed literal streams; seeds::derive is the production contract"
)]

use rand::rngs::SmallRng;
use rand::SeedableRng;

use burstcap_map::fit::{fit_from_trace, Map2Fitter};
use burstcap_map::sampler::MapSampler;
use burstcap_stats::dispersion::{index_of_dispersion_acf, index_of_dispersion_counting};

/// Sample a long trace from a known MAP(2).
fn trace_of(i_target: f64, seed: u64, n: usize) -> Vec<f64> {
    let map = Map2Fitter::new(1.0, i_target, 3.0)
        .fit()
        .expect("feasible")
        .map();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sampler = MapSampler::new(map, &mut rng);
    sampler.sample_trace(n, &mut rng)
}

#[test]
fn counting_estimator_recovers_known_dispersion() {
    for (i_target, band) in [(5.0, 2.0..15.0), (50.0, 18.0..120.0)] {
        let trace = trace_of(i_target, 21, 400_000);
        let est = index_of_dispersion_counting(&trace, 40.0, 0.02).expect("estimates");
        let i = est.index_of_dispersion();
        assert!(
            band.contains(&i),
            "target I = {i_target}: estimated {i}, expected in {band:?}"
        );
    }
}

#[test]
fn acf_and_counting_estimators_agree_in_order_of_magnitude() {
    let trace = trace_of(30.0, 22, 300_000);
    let via_acf = index_of_dispersion_acf(&trace, 2_000).expect("acf");
    let via_counting = index_of_dispersion_counting(&trace, 40.0, 0.02)
        .expect("counting")
        .index_of_dispersion();
    let ratio = via_acf / via_counting;
    assert!(
        (0.3..3.0).contains(&ratio),
        "estimators disagree: acf {via_acf} vs counting {via_counting}"
    );
}

#[test]
fn full_fit_roundtrip_preserves_queueing_behaviour() {
    // Fit a MAP to a trace sampled from a known MAP, then verify that both
    // produce similar closed-network throughput — the property that matters
    // for capacity planning.
    let truth = Map2Fitter::new(0.006, 80.0, 0.018)
        .fit()
        .expect("feasible")
        .map();
    let mut rng = SmallRng::seed_from_u64(23);
    let mut sampler = MapSampler::new(truth, &mut rng);
    let trace: Vec<f64> = sampler.sample_trace(400_000, &mut rng);
    let refit = fit_from_trace(&trace, 0.24, 0.02).expect("refits").map();

    let front = burstcap_map::Map2::poisson(1.0 / 0.008).expect("valid");
    let x_truth = burstcap_qn::mapqn::MapNetwork::new(40, 0.3, front, truth)
        .expect("valid")
        .solve()
        .expect("solves")
        .throughput;
    let x_refit = burstcap_qn::mapqn::MapNetwork::new(40, 0.3, front, refit)
        .expect("valid")
        .solve()
        .expect("solves")
        .throughput;
    let rel = (x_truth - x_refit).abs() / x_truth;
    assert!(
        rel < 0.15,
        "throughput divergence {rel:.3}: truth {x_truth} vs refit {x_refit}"
    );
}

#[test]
fn busy_period_p95_tracks_marginal_quantile() {
    // Synthesize monitoring windows from a known marginal and verify the
    // Section 4.1 p95 estimator lands near the true quantile at high I.
    let map = Map2Fitter::new(1.0, 200.0, 3.5)
        .fit()
        .expect("feasible")
        .map();
    let mut rng = SmallRng::seed_from_u64(24);
    let mut sampler = MapSampler::new(map, &mut rng);
    let trace = sampler.sample_trace(300_000, &mut rng);
    // Arrival-limited monitoring windows, the regime the Section 4.1
    // estimator assumes: a stable number of jobs per window (n = 40), busy
    // time varying with the service phase. Window length T = 400 s keeps
    // utilization below 1 even in the slow phase.
    let t_window = 400.0;
    let mut util = Vec::new();
    let mut counts = Vec::new();
    for chunk in trace.chunks_exact(40) {
        let busy: f64 = chunk.iter().sum();
        util.push((busy / t_window).min(1.0));
        counts.push(40u64);
    }
    let est = burstcap_stats::busy::ServicePercentileEstimator::new(t_window)
        .estimate(&util, &counts)
        .expect("estimates");
    let true_p95 = map.quantile(0.95).expect("quantile");
    // High persistence keeps within-window speeds similar, so the busy-time
    // scaling should land near the true quantile (within a factor ~2).
    let ratio = est.p95_service_time / true_p95;
    assert!(
        (0.5..2.0).contains(&ratio),
        "p95 estimate {} vs true {true_p95} (ratio {ratio})",
        est.p95_service_time
    );
}
