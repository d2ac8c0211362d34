//! Property-based tests for the analytic solvers.

use proptest::prelude::*;

use burstcap_map::fit::Map2Fitter;
use burstcap_map::Map2;
use burstcap_obs::Trace;
use burstcap_qn::ctmc::{Ctmc, Generator};
use burstcap_qn::mapqn::MapNetwork;
use burstcap_qn::mva::ClosedMva;

/// The budget of the full CSR solve.
const CSR_BUDGET: (f64, usize) = (1e-12, 10_000);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Birth-death chains: BiCGSTAB at a 1e-12 residual and dense LU agree
    /// to 1e-8 per state for arbitrary rates.
    #[test]
    fn solvers_agree_on_birth_death(
        rates in prop::collection::vec((0.1f64..10.0, 0.1f64..10.0), 2..30),
    ) {
        let n = rates.len() + 1;
        let mut tr = Vec::new();
        for (i, &(up, down)) in rates.iter().enumerate() {
            tr.push((i, i + 1, up));
            tr.push((i + 1, i, down));
        }
        let chain = Ctmc::from_transitions(n, tr).unwrap();
        let bicg = chain.steady_state(None, CSR_BUDGET, &Trace::noop()).unwrap().pi;
        let lu = chain.dense_lu(100).unwrap().pi;
        for i in 0..n {
            prop_assert!((bicg[i] - lu[i]).abs() < 1e-8, "state {i}: {} vs {}", bicg[i], lu[i]);
        }
        // Both candidates must satisfy global balance tightly.
        prop_assert!(chain.residual(&lu) < 1e-8);
        // Detailed balance holds for birth-death chains.
        for (i, &(up, down)) in rates.iter().enumerate() {
            prop_assert!((lu[i] * up - lu[i + 1] * down).abs() < 1e-8);
        }
    }

    /// The sparse engine, D-ILU-preconditioned BiCGSTAB, agrees with the
    /// dense LU oracle to 1e-8 per state on random ergodic chains.
    #[test]
    fn sparse_family_matches_dense_lu_on_random_ergodic_chains(
        ring in prop::collection::vec(0.2f64..5.0, 3..18),
        extra in prop::collection::vec((0usize..18, 0usize..18, 0.1f64..4.0), 0..40),
    ) {
        let n = ring.len();
        // A directed ring guarantees irreducibility; the extra edges give
        // the chain an arbitrary sparse topology.
        let mut tr: Vec<(usize, usize, f64)> = ring
            .iter()
            .enumerate()
            .map(|(i, &r)| (i, (i + 1) % n, r))
            .collect();
        for &(a, b, r) in &extra {
            let (from, to) = (a % n, b % n);
            if from != to {
                tr.push((from, to, r));
            }
        }
        let chain = Ctmc::from_transitions(n, tr).unwrap();
        let lu = chain.dense_lu(100).unwrap().pi;
        let bicg = chain.steady_state(None, CSR_BUDGET, &Trace::noop()).unwrap().pi;
        for i in 0..n {
            prop_assert!(
                (bicg[i] - lu[i]).abs() < 1e-8,
                "bicgstab vs LU at state {i}: {} vs {}",
                bicg[i],
                lu[i]
            );
        }
    }

    /// MVA response time is monotone in population (more customers, more
    /// queueing) and utilization stays in [0, 1].
    #[test]
    fn mva_response_monotone(
        d1 in 1e-4f64..0.05,
        d2 in 1e-4f64..0.05,
        z in 0.0f64..2.0,
        n in 1usize..100,
    ) {
        let mva = ClosedMva::new(vec![d1, d2], z).unwrap();
        let a = mva.solve(n).unwrap();
        let b = mva.solve(n + 1).unwrap();
        prop_assert!(b.response_time >= a.response_time - 1e-12);
        for u in &a.utilization {
            prop_assert!((0.0..=1.0).contains(u));
        }
    }

    /// The exact MAP-QN solution of an exponential network coincides with
    /// MVA for any demands (product form).
    #[test]
    fn mapqn_product_form_check(
        d1 in 1e-3f64..0.05,
        d2 in 1e-3f64..0.05,
        pop in 1usize..20,
    ) {
        let front = Map2::poisson(1.0 / d1).unwrap();
        let db = Map2::poisson(1.0 / d2).unwrap();
        let exact = MapNetwork::new(pop, 0.5, front, db).unwrap().solve().unwrap();
        let mva = ClosedMva::new(vec![d1, d2], 0.5).unwrap().solve(pop).unwrap();
        prop_assert!(
            (exact.throughput - mva.throughput).abs() / mva.throughput < 1e-6,
            "X {} vs {}",
            exact.throughput,
            mva.throughput
        );
    }

    /// MVA agrees with a directly assembled CTMC for the exponential
    /// two-station cyclic network (product form): the analytic recursion and
    /// the brute-force chain must produce the same throughput and
    /// utilization.
    #[test]
    fn mva_matches_ctmc_for_exponential_network(
        d1 in 1e-3f64..0.5,
        d2 in 1e-3f64..0.5,
        pop in 1usize..40,
    ) {
        // State: number of jobs at station 1 (the rest queue at station 2).
        // Z = 0 keeps the chain one-dimensional; the MVA recursion still
        // exercises its full population loop.
        let (mu1, mu2) = (1.0 / d1, 1.0 / d2);
        let mut tr = Vec::new();
        for n1 in 0..pop {
            tr.push((n1 + 1, n1, mu1)); // station 1 completes
            tr.push((n1, n1 + 1, mu2)); // station 2 completes
        }
        let chain = Ctmc::from_transitions(pop + 1, tr).unwrap();
        let pi = chain.dense_lu(100).unwrap().pi;
        let x_ctmc: f64 = pi.iter().skip(1).sum::<f64>() * mu1;
        let u2_ctmc: f64 = pi.iter().take(pop).sum::<f64>();

        let mva = ClosedMva::new(vec![d1, d2], 0.0).unwrap().solve(pop).unwrap();
        prop_assert!(
            (mva.throughput - x_ctmc).abs() / x_ctmc < 1e-6,
            "X: mva {} vs ctmc {x_ctmc}",
            mva.throughput
        );
        prop_assert!(
            (mva.utilization[1] - u2_ctmc).abs() < 1e-6,
            "U2: mva {} vs ctmc {u2_ctmc}",
            mva.utilization[1]
        );
    }

    /// Burstiness never helps: for equal means, the bursty network's
    /// throughput is bounded by the exponential network's.
    #[test]
    fn burstiness_never_helps(
        i_db in 2.0f64..200.0,
        pop in 2usize..25,
    ) {
        let front = Map2::poisson(1.0 / 0.008).unwrap();
        let db_exp = Map2::poisson(1.0 / 0.006).unwrap();
        let db_bursty = Map2Fitter::new(0.006, i_db, 0.018).fit().unwrap().map();
        let x_exp = MapNetwork::new(pop, 0.4, front, db_exp).unwrap().solve().unwrap().throughput;
        let x_bursty =
            MapNetwork::new(pop, 0.4, front, db_bursty).unwrap().solve().unwrap().throughput;
        prop_assert!(
            x_bursty <= x_exp * 1.01,
            "bursty X {} exceeds exponential X {}",
            x_bursty,
            x_exp
        );
    }
}

proptest! {
    // The N-station direct solves below invert one dense block per level
    // with blocks growing as C(l + M - 1, M - 1), so the case count stays
    // small and populations shrink with the station count.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N-station degenerate case: with exponential (Poisson MAP) service at
    /// every station the tandem is product-form and exact MVA must agree
    /// with the CTMC solution — per-station, for 1..=3 stations.
    #[test]
    fn n_station_exponential_tandem_matches_mva(
        demands in prop::collection::vec(2e-3f64..0.05, 1..4),
        z in 0.1f64..1.0,
        pop_raw in 1usize..16,
    ) {
        let m = demands.len();
        // Cap the population by station count to bound the level-block
        // sizes (debug-mode cost).
        let pop = 1 + pop_raw % match m {
            1 => 12,
            2 => 10,
            _ => 6,
        };
        let stations: Vec<Map2> =
            demands.iter().map(|&d| Map2::poisson(1.0 / d).unwrap()).collect();
        let exact = MapNetwork::tandem(pop, z, stations).unwrap().solve().unwrap();
        let mva = ClosedMva::new(demands.clone(), z).unwrap().solve(pop).unwrap();
        prop_assert!(
            (exact.throughput - mva.throughput).abs() / mva.throughput < 1e-6,
            "M={m} N={pop}: X {} vs {}",
            exact.throughput,
            mva.throughput
        );
        for i in 0..m {
            prop_assert!(
                (exact.utilization[i] - mva.utilization[i]).abs() < 1e-6,
                "M={m} N={pop} station {i}: U {} vs {}",
                exact.utilization[i],
                mva.utilization[i]
            );
            prop_assert!(
                (exact.mean_jobs[i] - mva.queue_length[i]).abs() < 1e-5,
                "M={m} N={pop} station {i}: Q {} vs {}",
                exact.mean_jobs[i],
                mva.queue_length[i]
            );
        }
        // Population conservation across stations and the think stage.
        let total: f64 = exact.mean_jobs.iter().sum::<f64>() + exact.throughput * z;
        prop_assert!((total - pop as f64).abs() < 1e-6);
    }

    /// The matrix-free operator is pinned against explicit CSR assembly:
    /// for random fitted `Map2` stations (1..=3 of them), the gather-form
    /// `Generator` must reproduce the assembled chain's SpMV to 1e-12 relative
    /// on a random probe vector, and its exit rates must match exactly.
    #[test]
    fn matrix_free_apply_matches_csr_assembly(
        specs in prop::collection::vec(
            (4e-3f64..0.03, 1.5f64..80.0, 2.0f64..4.0),
            1..4,
        ),
        z in 0.1f64..1.0,
        pop in 1usize..8,
        probe_seed in 1usize..10_000,
    ) {
        let stations: Vec<Map2> = specs
            .iter()
            .map(|&(mean, i, p95_ratio)| {
                Map2Fitter::new(mean, i, mean * p95_ratio).fit().unwrap().map()
            })
            .collect();
        let net = MapNetwork::tandem(pop, z, stations).unwrap();
        let op = net.matrix_free().unwrap();
        let chain = Ctmc::from_outgoing_csr(net.outgoing_csr().unwrap()).unwrap();
        let n = net.state_count();
        prop_assert_eq!(op.n_states(), n);
        for (i, (a, b)) in op.exit_rates().iter().zip(chain.out_rates()).enumerate() {
            prop_assert!((a - b).abs() <= 1e-12 * b.abs(), "exit rate {i}: {a} vs {b}");
        }
        // A positive pseudo-random probe vector (deterministic per seed).
        let x: Vec<f64> = (0..n)
            .map(|i| 0.5 + ((i * probe_seed + 13) % 997) as f64 / 997.0)
            .collect();
        let mut from_op = vec![0.0; n];
        op.inflow(&x, |i, inflow| from_op[i] = inflow);
        let from_csr = chain.incoming_csr().mul_vec(&x);
        for i in 0..n {
            prop_assert!(
                (from_op[i] - from_csr[i]).abs() <= 1e-12 * from_csr[i].abs().max(1.0),
                "row {i}: matrix-free {} vs CSR {}",
                from_op[i],
                from_csr[i]
            );
        }
    }
}

/// Every engine on MAP tandems as stiff as fitted bursty MAPs get: the fits
/// of the forced-stall test (`I` = 200 and 400) and one at `I` = 720, as
/// stiff as the online benchmark's final database fit, for M = 1..4, each
/// held to the stiffness-proof direct solver.
///
/// - CSR (cold, production budget): throughput within 1e-8 relative, the
///   returned vector a distribution, and the reported final residual the
///   residual of that very vector and within the 1e-12 tolerance.
/// - Dense LU, on every chain of at most 2,000 states: throughput within
///   1e-8 relative.
/// - Matrix-free (cold, production budget): throughput within 1e-8
///   relative, the same BiCGSTAB over the other storage form.
#[test]
fn csr_solve_matches_direct_on_stiff_map_tandems() {
    let fit = |mean: f64, i: f64, p95: f64| Map2Fitter::new(mean, i, p95).fit().unwrap().map();
    let (a, b, c) = (
        fit(0.02, 200.0, 0.06),
        fit(0.03, 400.0, 0.1),
        fit(0.01, 720.0, 0.03),
    );
    let cases = [
        (vec![c], 40),
        (vec![a], 40),
        (vec![a, b], 12),
        (vec![b, c], 12),
        (vec![a, b, c], 6),
        (vec![a, b, c, c], 3),
    ];
    for (stations, pop) in cases {
        let m = stations.len();
        let net = MapNetwork::tandem(pop, 0.45, stations).unwrap();
        let direct = net.solve().unwrap();
        let agrees = |x: f64, engine: &str| {
            assert!(
                (x - direct.throughput).abs() / direct.throughput < 1e-8,
                "M={m} N={pop}: {engine} X {x} vs direct {}",
                direct.throughput
            );
        };
        let (sol, pi) = net.solve_sparse_with_initial(None).unwrap();
        agrees(sol.throughput, "CSR");
        assert!(pi.iter().all(|&p| p >= 0.0), "M={m}: negative probability");
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let chain = Ctmc::from_outgoing_csr(net.outgoing_csr().unwrap()).unwrap();
        let scale = chain.out_rates().iter().sum::<f64>() / chain.len() as f64;
        let residual = chain.residual(&pi) / scale;
        assert_eq!(sol.diagnostics.final_residual, residual, "M={m} N={pop}");
        assert!(residual <= 1e-12, "M={m} N={pop}: residual {residual:e}");
        if net.state_count() <= 2_000 {
            agrees(net.solve_dense_lu(2_000).unwrap().throughput, "dense LU");
        }
        let (mf, _) = net.solve_matrix_free_with_initial(1, None).unwrap();
        agrees(mf.throughput, "matrix-free");
        assert!(mf.diagnostics.final_residual <= 1e-12, "M={m} N={pop}");
    }
}
