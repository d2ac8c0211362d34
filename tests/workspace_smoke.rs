//! Workspace smoke test: the umbrella crate's re-exports compile and the
//! quickstart path — synthesize measurements, characterize, fit, predict —
//! runs end to end through the re-exported names alone.
//!
//! Also exercises the vendored serde shim derives, which cannot be tested
//! inside `vendor/serde` itself (its generated impls reference the crate by
//! name).

use burstcap_repro::burstcap::measurements::TierMeasurements;
use burstcap_repro::burstcap::planner::{CapacityPlanner, MvaBaseline};
use burstcap_repro::burstcap_map::trace::{hyperexp_trace, impose_burstiness, BurstProfile};
use burstcap_repro::burstcap_qn::mva::ClosedMva;
use burstcap_repro::burstcap_sim::queues::MTrace1;
use burstcap_repro::burstcap_stats::dispersion::index_of_dispersion_acf;
use burstcap_repro::burstcap_tpcw::mix::Mix;

/// Every member crate is reachable through the umbrella re-exports.
#[test]
fn umbrella_reexports_resolve() {
    // One load-bearing symbol per member crate; using them proves the
    // `pub use` graph in src/lib.rs and all manifest edges.
    let _solver = ClosedMva::new(vec![0.01, 0.02], 0.5).expect("qn reachable");
    let trace = hyperexp_trace(64, 1.0, 3.0, 7).expect("map reachable");
    let i = index_of_dispersion_acf(&trace, 8).expect("stats reachable");
    assert!(i.is_finite());
    assert!(Mix::Browsing.mean_front_demand() > 0.0, "tpcw reachable");
    let _station: Option<MTrace1> = None; // sim reachable at the type level
}

/// The quickstart example's pipeline runs under the umbrella names: bursty
/// and steady tiers are distinguished and the burst-aware model saturates
/// no later than MVA.
#[test]
fn quickstart_path_runs() {
    let front =
        TierMeasurements::new(5.0, vec![0.50; 400], vec![250u64; 400]).expect("front measurements");
    let mut util = Vec::new();
    let mut counts = Vec::new();
    for block in 0..40 {
        for _ in 0..10 {
            util.push(0.45);
            counts.push(if block % 2 == 0 { 400u64 } else { 100 });
        }
    }
    let db = TierMeasurements::new(5.0, util, counts).expect("db measurements");

    let planner = CapacityPlanner::from_measurements(&front, &db).expect("planner");
    let mva = MvaBaseline::from_measurements(&front, &db).expect("baseline");

    let fc = planner.front_characterization();
    let dc = planner.db_characterization();
    assert!(
        dc.index_of_dispersion > fc.index_of_dispersion,
        "bursty db (I = {}) must out-disperse the steady front (I = {})",
        dc.index_of_dispersion,
        fc.index_of_dispersion
    );

    for ebs in [10usize, 25, 50, 100] {
        let p = planner.predict(ebs, 0.5).expect("prediction");
        let b = mva.predict(ebs, 0.5).expect("mva prediction");
        assert!(p.throughput > 0.0 && b.throughput > 0.0);
        assert!(
            p.throughput <= b.throughput * 1.05,
            "ebs {ebs}: burstiness must not raise capacity (model {} vs mva {})",
            p.throughput,
            b.throughput
        );
    }
}

/// Trace reordering through the umbrella preserves marginals (the Figure 1
/// construction used throughout the examples).
#[test]
fn figure1_reordering_through_umbrella() {
    let base = hyperexp_trace(4_000, 1.0, 3.0, 11).expect("trace");
    let sorted = impose_burstiness(&base, BurstProfile::Sorted, 11).expect("sorted");
    let mut expect = base.clone();
    expect.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    assert_eq!(sorted, expect);
}

/// The vendored serde derives expand to valid impls for structs, enums,
/// and generic types.
#[test]
fn serde_shim_derives_compile() {
    use serde_shim_check::assert_serde;
    assert_serde::<serde_shim_check::Plain>();
    assert_serde::<serde_shim_check::Shape>();
    assert_serde::<serde_shim_check::Wrapper<f64>>();
}

#[allow(
    dead_code,
    reason = "the types only exist to exercise derive expansion; they are never constructed"
)]
mod serde_shim_check {
    use serde::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize)]
    pub struct Plain {
        pub x: f64,
    }

    #[derive(Serialize, Deserialize)]
    pub enum Shape {
        Point,
        Rect { w: f64, h: f64 },
    }

    #[derive(Serialize, Deserialize)]
    pub struct Wrapper<T> {
        pub inner: Vec<T>,
    }

    pub fn assert_serde<T: Serialize + Deserialize>() {}
}
