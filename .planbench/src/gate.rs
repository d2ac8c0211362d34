//! The correctness gate behind `fail_rate`: every prediction's throughput
//! must lie inside the operational-bounds envelope of its network and
//! within [`REL_TOL`] of a reference solved by a second engine.

use burstcap_map::Map2;
use burstcap_qn::bounds::throughput_bounds;
use burstcap_qn::mapqn::{MapNetwork, SolveEngine};

/// Largest relative gap tolerated between a prediction and its reference.
/// The iterative engines stop at scale-free residuals of 1e-10 to 1e-12;
/// measured gaps are below 1e-8.
pub const REL_TOL: f64 = 1e-6;

/// Relative slack on the envelope's edges (rounding only).
const ENVELOPE_SLACK: f64 = 1e-9;

/// Throughput of `net` from a second engine, warm-started from the
/// stationary vector `pi` that `engine` produced: the matrix-free engine
/// checks the direct and CSR engines, CSR Gauss-Seidel checks the
/// matrix-free engine. Each engine iterates until its own residual, taken
/// with its own generator, is small, so a wrong `pi` is iterated away from
/// rather than accepted; a right one costs few sweeps. `perturb` scales the
/// reference by `1 + perturb`; a non-zero value proves the gate fires.
pub fn reference_throughput(
    net: &MapNetwork,
    engine: SolveEngine,
    pi: Vec<f64>,
    perturb: f64,
) -> Result<f64, String> {
    let solved = if engine == SolveEngine::MatrixFree {
        net.solve_sparse_with_initial(Some(pi))
    } else {
        net.solve_matrix_free_with_initial(0, Some(pi))
    };
    let (x, _) = solved.map_err(|e| format!("reference at {} states: {e}", net.state_count()))?;
    Ok(x.throughput * (1.0 + perturb))
}

/// Whether `throughput` lies inside the asymptotic and balanced-job bounds
/// of a tandem of `stations` at `population`, and within [`REL_TOL`] of
/// `reference`.
pub fn accept(
    throughput: f64,
    reference: f64,
    stations: &[Map2],
    think_time: f64,
    population: usize,
) -> bool {
    let demands: Vec<f64> = stations.iter().map(Map2::mean).collect();
    let Ok(bounds) = throughput_bounds(&demands, think_time, population) else {
        return false;
    };
    throughput.is_finite()
        && throughput <= bounds.upper * (1.0 + ENVELOPE_SLACK)
        && throughput >= bounds.lower * (1.0 - ENVELOPE_SLACK)
        && (throughput - reference).abs() <= REL_TOL * reference.abs()
}
