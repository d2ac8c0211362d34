//! Scale regression for the sparse CTMC engine: the exact MAP(2)×MAP(2)
//! network of the paper must stay solvable at populations far beyond the
//! dense solvers' reach, and must agree with the dense LU oracle where both
//! paths are feasible.

use burstcap_map::fit::Map2Fitter;
use burstcap_qn::mapqn::{MapNetwork, DEFAULT_STATE_LIMIT};

/// Moderately bursty MAP(2) fits for both tiers (the converging regime of
/// the iterative engine; stiffer fits fall back to the direct solver via
/// `solve_tiers`, which is covered in `burstcap-qn`'s own tests).
fn tiers() -> (burstcap_map::Map2, burstcap_map::Map2) {
    let front = Map2Fitter::new(0.01, 4.0, 0.03).fit().unwrap().map();
    let db = Map2Fitter::new(0.008, 6.0, 0.02).fit().unwrap().map();
    (front, db)
}

#[test]
fn population_100_map_network_solves_via_sparse_path() {
    let (front, db) = tiers();
    let net = MapNetwork::new(100, 0.3, front, db).unwrap();
    assert!(
        net.state_count() < DEFAULT_STATE_LIMIT,
        "population 100 must fit the default state limit, needs {}",
        net.state_count()
    );
    // The production CSR solve, cold.
    let (sol, _) = net.solve_sparse_with_initial(None).unwrap();
    assert_eq!(sol.states, 20_604);
    // Sanity: a closed network cannot beat its bottleneck or its population.
    assert!(sol.throughput > 0.0 && sol.throughput <= 1.0 / 0.008 + 1e-9);
    assert!(sol.utilization_front <= 1.0 + 1e-9 && sol.utilization_db <= 1.0 + 1e-9);
    // Population conservation (Little's law over the three stages) is a
    // whole-distribution invariant: a wrong stationary vector breaks it.
    let thinking = sol.throughput * 0.3;
    let total = sol.mean_jobs_front + sol.mean_jobs_db + thinking;
    assert!(
        (total - 100.0).abs() < 1e-4,
        "population not conserved: {total}"
    );
}

#[test]
fn sparse_matches_dense_lu_on_dense_feasible_population() {
    let (front, db) = tiers();
    let net = MapNetwork::new(10, 0.3, front, db).unwrap();
    let (sparse, _) = net.solve_sparse_with_initial(None).unwrap();
    let lu = net.solve_dense_lu(100_000).unwrap();
    assert!(
        (sparse.throughput - lu.throughput).abs() / lu.throughput < 1e-8,
        "sparse {} vs dense LU {}",
        sparse.throughput,
        lu.throughput
    );
    assert!((sparse.utilization_db - lu.utilization_db).abs() < 1e-8);
    assert!((sparse.mean_jobs_front - lu.mean_jobs_front).abs() < 1e-7);
}
