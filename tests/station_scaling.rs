//! The N-station pipeline end to end: a three-station (web + app + db)
//! MAP network cross-validated three ways — exact CTMC vs replicated
//! simulation (with Student-t intervals) vs N-station MVA in the
//! exponential degenerate case — plus a station-count × population scaling
//! smoke over the engine ladder (`solve_auto_with_initial`; the grid CI runs
//! so the generic path cannot silently rot).

use burstcap::experiment::Experiment;
use burstcap_map::fit::Map2Fitter;
use burstcap_map::Map2;
use burstcap_qn::mapqn::{MapNetwork, AUTO_SPARSE_THRESHOLD};
use burstcap_qn::mva::ClosedMva;
use burstcap_sim::queues::ClosedMapNetwork;

/// Fitted three-tier stations: a light, mildly variable web tier in front
/// of the moderately bursty app and db tiers.
fn three_tier_stations() -> Vec<Map2> {
    vec![
        Map2Fitter::new(0.004, 4.0, 0.012).fit().unwrap().map(),
        Map2Fitter::new(0.012, 20.0, 0.035).fit().unwrap().map(),
        Map2Fitter::new(0.008, 40.0, 0.025).fit().unwrap().map(),
    ]
}

#[test]
fn three_tier_analytic_matches_replicated_simulation() {
    // The acceptance gate of the N-station generalization: the exact
    // ladder answer for web + app + db must fall inside the replicated
    // simulation's confidence interval (plus a small model margin).
    let stations = three_tier_stations();
    let pop = 12;
    let z = 0.3;
    let exact = MapNetwork::tandem(pop, z, stations.clone())
        .unwrap()
        .solve_auto_with_initial(AUTO_SPARSE_THRESHOLD, None)
        .unwrap()
        .0;
    let sim = ClosedMapNetwork::tandem(pop, z, stations).unwrap();
    let result = Experiment::new(4)
        .unwrap()
        .master_seed(17)
        .workers(2)
        .run(|rep| sim.run(3000.0, 300.0, rep.seed))
        .unwrap();

    let x = result.metric(|r| r.throughput).unwrap();
    let margin = 0.03 * exact.throughput + x.half_width;
    assert!(
        (exact.throughput - x.mean).abs() <= margin,
        "X: analytic {} vs sim {} +/- {} (margin {margin})",
        exact.throughput,
        x.mean,
        x.half_width
    );
    for i in 0..3 {
        let u = result.metric(|r| r.utilization[i]).unwrap();
        assert!(
            (exact.utilization[i] - u.mean).abs() <= 0.04 + u.half_width,
            "station {i}: U analytic {} vs sim {} +/- {}",
            exact.utilization[i],
            u.mean,
            u.half_width
        );
        let q = result.metric(|r| r.mean_jobs[i]).unwrap();
        assert!(
            (exact.mean_jobs[i] - q.mean).abs() <= 0.15 * pop as f64 / 3.0 + q.half_width,
            "station {i}: Q analytic {} vs sim {} +/- {}",
            exact.mean_jobs[i],
            q.mean,
            q.half_width
        );
    }
}

#[test]
fn three_tier_exponential_degenerate_matches_mva_via_solve_auto() {
    // Product-form check through the public engine ladder, on both
    // sides of the engine crossover.
    let demands = vec![0.004, 0.012, 0.008];
    let stations: Vec<Map2> = demands
        .iter()
        .map(|&d| Map2::poisson(1.0 / d).unwrap())
        .collect();
    let mva = ClosedMva::new(demands, 0.3).unwrap();
    for (pop, threshold) in [
        (4usize, AUTO_SPARSE_THRESHOLD),
        (8, AUTO_SPARSE_THRESHOLD),
        (8, 0),
    ] {
        let exact = MapNetwork::tandem(pop, 0.3, stations.clone())
            .unwrap()
            .solve_auto_with_initial(threshold, None)
            .unwrap()
            .0;
        let baseline = mva.solve(pop).unwrap();
        assert!(
            (exact.throughput - baseline.throughput).abs() / baseline.throughput < 1e-6,
            "N={pop} threshold={threshold}: X {} vs MVA {}",
            exact.throughput,
            baseline.throughput
        );
        for i in 0..3 {
            assert!(
                (exact.utilization[i] - baseline.utilization[i]).abs() < 1e-6,
                "N={pop} station {i}"
            );
        }
    }
}

#[test]
fn two_tier_entry_points_are_the_m2_tandem() {
    // MapNetwork::new and ClosedMapNetwork::new stay exact synonyms of the
    // two-station tandem: identical solutions and identical sample paths.
    let front = Map2Fitter::new(0.01, 8.0, 0.03).fit().unwrap().map();
    let db = Map2Fitter::new(0.008, 12.0, 0.02).fit().unwrap().map();
    let a = MapNetwork::new(10, 0.3, front, db)
        .unwrap()
        .solve()
        .unwrap();
    let b = MapNetwork::tandem(10, 0.3, vec![front, db])
        .unwrap()
        .solve()
        .unwrap();
    assert_eq!(a.throughput, b.throughput);
    assert_eq!(a.utilization, b.utilization);
    let sa = ClosedMapNetwork::new(10, 0.3, front, db)
        .unwrap()
        .run(500.0, 50.0, 7)
        .unwrap();
    let sb = ClosedMapNetwork::tandem(10, 0.3, vec![front, db])
        .unwrap()
        .run(500.0, 50.0, 7)
        .unwrap();
    assert_eq!(sa.throughput, sb.throughput);
    assert_eq!(sa.utilization, sb.utilization);
}

#[test]
fn station_count_scaling_smoke() {
    // Small M x N grid through the engine ladder with exponential stations: the
    // direct path below the crossover, the sparse path above it. Checks
    // the structural invariants every point must satisfy.
    let demand = 0.01;
    let z = 0.5;
    for m in [2usize, 3, 4] {
        let stations = vec![Map2::poisson(1.0 / demand).unwrap(); m];
        let mut last_x = 0.0;
        let pops: &[usize] = match m {
            2 => &[5, 20],
            3 => &[5, 12],
            _ => &[4, 10],
        };
        for &pop in pops {
            let net = MapNetwork::tandem(pop, z, stations.clone()).unwrap();
            let (sol, _) = net
                .solve_auto_with_initial(AUTO_SPARSE_THRESHOLD, None)
                .unwrap();
            assert_eq!(sol.utilization.len(), m);
            assert_eq!(sol.states, net.state_count());
            // Utilizations are probabilities; identical stations load
            // identically.
            for &u in &sol.utilization {
                assert!((0.0..=1.0 + 1e-9).contains(&u), "M={m} N={pop}: U={u}");
                assert!((u - sol.utilization[0]).abs() < 1e-6);
            }
            // Population conservation via Little's law at the think stage.
            let total: f64 = sol.mean_jobs.iter().sum::<f64>() + sol.throughput * z;
            assert!(
                (total - pop as f64).abs() < 1e-5,
                "M={m} N={pop}: population leak, total={total}"
            );
            // Throughput is monotone in population and bounded by the
            // bottleneck service rate.
            assert!(sol.throughput >= last_x - 1e-9, "M={m} N={pop}");
            assert!(sol.throughput <= 1.0 / demand + 1e-6);
            last_x = sol.throughput;
        }
    }
}
