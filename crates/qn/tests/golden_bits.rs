//! Golden bits of the matrix-free engine, whose one method is damped Jacobi
//! at the tier's production budget: throughput, response time, sweep
//! count and final residual of four hand-written tandems, pinned to the
//! exact `f64` bit patterns the engine produced before its apply kernel was
//! restructured around occupancy runs. Any change to the order in which a
//! row's inflow terms are added, to the sweep loop, or to the stopping
//! rule shows up here as a bit difference.
//!
//! The stations are built with explicit `Map2::new` matrices (no fitting,
//! so no libm call can move the inputs), and each network is solved at one
//! and at three workers, which must agree bit for bit.

use burstcap_map::Map2;
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

/// `(M, population, throughput bits, response-time bits, sweeps, final
/// residual bits)`.
#[rustfmt::skip]
const GOLDEN: [(usize, usize, u64, u64, usize, u64); 4] = [
    (1, 30, 0x404c1c754de4453e, 0x3fcde677bc443bd6, 927, 0x3d717eb62fc1fc42),
    (2, 25, 0x40251dc7df394c18, 0x40008aed617e6d14, 1276, 0x3d71590f0d6e21e2),
    (3, 12, 0x402442a3d47b5186, 0x3fec4e7ec6115008, 1929, 0x3d7184b128312dfe),
    (4, 8, 0x4022677e8481d3af, 0x3fe23839509a78bc, 2400, 0x3d717fe5c86f5960),
];

#[test]
fn matrix_free_answers_match_recorded_bits() {
    let all = stations();
    for (m, pop, throughput, response, sweeps, residual) in GOLDEN {
        let net = MapNetwork::tandem(pop, 0.3, all[..m].to_vec()).unwrap();
        for workers in [1usize, 3] {
            let (sol, _) = net.solve_matrix_free_with_initial(workers, None).unwrap();
            let d = &sol.diagnostics;
            let got = (
                sol.throughput.to_bits(),
                sol.response_time.to_bits(),
                d.iterations,
                d.final_residual.to_bits(),
            );
            assert_eq!(
                got,
                (throughput, response, sweeps, residual),
                "M = {m}, population {pop}, {workers} workers: X = {}, R = {}",
                sol.throughput,
                sol.response_time
            );
        }
    }
}
