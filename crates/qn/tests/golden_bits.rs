//! Golden bits of the matrix-free engine, the SGS-preconditioned BiCGSTAB
//! of `ctmc` run over the matrix-free generator at the tier's production
//! budget: throughput, response time, iteration count and final residual
//! of four hand-written tandems, pinned to the exact `f64` bit patterns the
//! engine produced, with the solver label its trace records. Any change to
//! the order in which a sweep adds a row's terms, to the product-form
//! start, to the iteration or to the stopping rule shows up here as a bit
//! difference.
//!
//! The stations are built with explicit `Map2::new` matrices (no fitting,
//! so no libm call can move the inputs). Before the bits were pinned, each
//! answer was checked against the exact direct solver, and the first three
//! (62, 1,404 and 3,640 states) against dense LU, all within 1e-8. The
//! test repeats the cheap checks: direct up to 4,000 states (at `M = 4` the
//! level blocks alone take seconds to invert) and dense LU up to 2,000.

use burstcap_map::Map2;
use burstcap_obs::{EventKind, FieldValue, Recorder};
use burstcap_qn::mapqn::MapNetwork;

fn stations() -> Vec<Map2> {
    vec![
        Map2::new([[-201.0, 1.0], [0.5, -10.5]], [[200.0, 0.0], [0.0, 10.0]]).unwrap(),
        Map2::new([[-52.0, 2.0], [1.0, -6.0]], [[45.0, 5.0], [0.0, 5.0]]).unwrap(),
        Map2::new(
            [[-101.0, 0.25], [0.75, -20.75]],
            [[100.0, 0.75], [0.0, 20.0]],
        )
        .unwrap(),
        // A zero off-diagonal in D0: station D never leaves phase 0 hidden.
        Map2::new([[-30.0, 0.0], [3.0, -80.0]], [[28.0, 2.0], [7.0, 70.0]]).unwrap(),
    ]
}

/// `(M, population, throughput bits, response-time bits, iterations, final
/// residual bits)`.
#[rustfmt::skip]
const GOLDEN: [(usize, usize, u64, u64, usize, u64); 4] = [
    (1, 30, 0x404c1c754de92126, 0x3fcde677bc386d96, 17, 0x3d43a84cc1864d3f),
    (2, 25, 0x40251dc7df3b556a, 0x40008aed617c996b, 29, 0x3d629cf7c6e3275e),
    (3, 12, 0x402442a3d47b5f78, 0x3fec4e7ec61135f2, 35, 0x3d31402d15dbf847),
    (4, 8, 0x4022677e8482f62c, 0x3fe238395098c1a2, 32, 0x3d411fa349b8bbc9),
];

/// The solver label of the matrix-free engine's `matfree.solve` span.
const SOLVER: &str = "bicgstab-ilu0";

#[test]
fn matrix_free_answers_match_recorded_bits() {
    let all = stations();
    for (m, pop, throughput, response, iterations, residual) in GOLDEN {
        let net = MapNetwork::tandem(pop, 0.3, all[..m].to_vec()).unwrap();
        let recorder = Recorder::new();
        let (sol, _) = net
            .solve_matrix_free_with_initial_traced(1, None, &recorder.trace())
            .unwrap();
        if net.state_count() <= 4_000 {
            let exact = net.solve().unwrap().throughput;
            let gap = (sol.throughput - exact).abs() / exact;
            assert!(gap <= 1e-8, "M = {m}: direct gap {gap:e}");
        }
        if net.state_count() <= 2_000 {
            let lu = net.solve_dense_lu(2_000).unwrap().throughput;
            let gap = (sol.throughput - lu).abs() / lu;
            assert!(gap <= 1e-8, "M = {m}: dense LU gap {gap:e}");
        }
        let events = recorder.events();
        let span = events
            .iter()
            .find(|e| e.kind == EventKind::SpanStart && e.name == "matfree.solve")
            .expect("a matfree.solve span");
        assert!(span.fields.contains(&("solver", FieldValue::Str(SOLVER))));
        let d = &sol.diagnostics;
        let got = (
            sol.throughput.to_bits(),
            sol.response_time.to_bits(),
            d.iterations,
            d.final_residual.to_bits(),
        );
        assert_eq!(
            got,
            (throughput, response, iterations, residual),
            "M = {m}, population {pop}: X = {}, R = {}",
            sol.throughput,
            sol.response_time
        );
    }
}
