//! Batch workloads: an in-memory monitoring feed through
//! `CapacityPlanner::from_tier_measurements` and `predict_sweep`.

use std::hint::black_box;
use std::time::Instant;

use burstcap::characterize::characterize;
use burstcap::measurements::TierMeasurements;
use burstcap::planner::{fit_characterization, CapacityPlanner, PlannerOptions, Prediction};
use burstcap_obs::Trace;
use burstcap_qn::mapqn::{MapNetwork, SolveDiagnostics, AUTO_SPARSE_THRESHOLD};

use crate::gate;
use crate::heap;
use crate::inputs::BatchInputs;
use crate::spans::Tracer;

/// One untraced pass: the planner build and the prediction curve.
pub struct BatchRep {
    /// Feed to full curve (`from_tier_measurements` + `predict_sweep`).
    pub plan_s: f64,
    /// The `from_tier_measurements` part alone.
    pub refit_s: f64,
    /// The curve, or the error that stopped it.
    pub predictions: Result<Vec<Prediction>, String>,
}

fn tier_refs(inputs: &BatchInputs) -> Vec<&TierMeasurements> {
    inputs.tiers.iter().collect()
}

/// Time one untraced pass.
pub fn rep(inputs: &BatchInputs) -> BatchRep {
    let tiers = tier_refs(inputs);
    let start = Instant::now();
    let planner = CapacityPlanner::from_tier_measurements(&tiers, PlannerOptions::default());
    let refit_s = start.elapsed().as_secs_f64();
    let predictions = planner.and_then(|p| p.predict_sweep(&inputs.populations, inputs.think_time));
    let plan_s = start.elapsed().as_secs_f64();
    BatchRep {
        plan_s,
        refit_s,
        predictions: black_box(predictions).map_err(|e| e.to_string()),
    }
}

/// Time one `from_tier_measurements` call on its own.
pub fn refit_only(inputs: &BatchInputs) -> f64 {
    let tiers = tier_refs(inputs);
    let start = Instant::now();
    let planner = CapacityPlanner::from_tier_measurements(&tiers, PlannerOptions::default());
    let secs = start.elapsed().as_secs_f64();
    black_box(planner).ok();
    secs
}

/// The verified curve every timed curve must equal bit for bit.
pub struct Expected {
    /// The curve, solved as `predict` solves it.
    pub curve: Vec<Prediction>,
    /// Per population: inside the envelope and on the reference.
    pub ok: Vec<bool>,
}

/// The untimed warm-up and reference pass: solve every population as
/// `predict` does, keeping the stationary vector, and check the result
/// against the envelope and a second engine warm-started from it.
pub fn reference_pass(inputs: &BatchInputs, perturb: f64) -> Result<Expected, String> {
    let tiers = tier_refs(inputs);
    let planner = CapacityPlanner::from_tier_measurements(&tiers, PlannerOptions::default())
        .map_err(|e| e.to_string())?;
    let stations: Vec<_> = planner.tier_fits().iter().map(|f| f.map()).collect();
    let mut expected = Expected {
        curve: Vec::with_capacity(inputs.populations.len()),
        ok: Vec::with_capacity(inputs.populations.len()),
    };
    for &pop in &inputs.populations {
        let net = planner
            .network(pop, inputs.think_time)
            .map_err(|e| e.to_string())?;
        let (solution, pi) = net
            .solve_auto_with_initial(AUTO_SPARSE_THRESHOLD, None)
            .map_err(|e| format!("population {pop}: {e}"))?;
        let ok = match gate::reference_throughput(&net, solution.diagnostics.engine, pi, perturb) {
            Ok(r) => gate::accept(solution.throughput, r, &stations, inputs.think_time, pop),
            Err(e) => {
                eprintln!("population {pop}: {e}");
                false
            }
        };
        expected.ok.push(ok);
        expected.curve.push(Prediction::from((pop, solution)));
    }
    Ok(expected)
}

/// Operations (predictions) of `curve` that fail out of `pops`: missing,
/// not bit for bit the verified prediction, or a verified prediction the
/// gate rejected.
pub fn failures(curve: Option<&[Prediction]>, expected: Option<&Expected>, pops: usize) -> usize {
    let (Some(curve), Some(expected)) = (curve, expected) else {
        return pops;
    };
    if curve.len() != pops || expected.curve.len() != pops {
        return pops;
    }
    curve
        .iter()
        .zip(&expected.curve)
        .zip(&expected.ok)
        .filter(|((got, want), &ok)| !ok || !same_bits(got, want))
        .count()
}

fn same_bits(a: &Prediction, b: &Prediction) -> bool {
    let bits = |p: &Prediction| {
        let mut v = vec![
            p.population as u64,
            p.throughput.to_bits(),
            p.response_time.to_bits(),
        ];
        v.extend(p.utilization.iter().map(|u| u.to_bits()));
        v
    };
    bits(a) == bits(b)
}

/// What one traced solve did.
pub struct SolveRecord {
    /// The solved network (kept for the assembly and scaling probes).
    pub net: MapNetwork,
    /// Engine, sweeps, fallback and residual of the solve.
    pub diagnostics: SolveDiagnostics,
    /// Index of the solve's `qn.solve` span.
    pub span: usize,
    /// Heap growth above the live size at the solve's start.
    pub peak_heap_bytes: usize,
}

/// One traced pass, called layer by layer from outside exactly as
/// `from_tier_measurements` and `predict_sweep` call them.
pub struct TracedRep {
    /// The curve (must equal the untraced curve bit for bit).
    pub predictions: Vec<Prediction>,
    /// Every solve, in population order.
    pub solves: Vec<SolveRecord>,
    /// Candidates the MAP fitter evaluated, over all tiers.
    pub fit_candidates: usize,
}

/// Run one traced pass inside a `core.plan` span, with spans around each
/// layer call; solver events go to `trace`.
pub fn traced_rep(
    inputs: &BatchInputs,
    tracer: &Tracer,
    trace: &Trace,
) -> Result<TracedRep, String> {
    let options = PlannerOptions::default();
    tracer.span("core.plan", || {
        let chars = inputs
            .tiers
            .iter()
            .map(|m| tracer.span("characterize", || characterize(m, options.characterize)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let fits = chars
            .iter()
            .map(|c| tracer.span("map.fit", || fit_characterization(c, options.i_tolerance)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let mut predictions = Vec::with_capacity(inputs.populations.len());
        let mut solves = Vec::with_capacity(inputs.populations.len());
        for &pop in &inputs.populations {
            let net = tracer
                .span("qn.build", || {
                    MapNetwork::tandem(
                        pop,
                        inputs.think_time,
                        fits.iter().map(|f| f.map()).collect(),
                    )
                })
                .map_err(|e| e.to_string())?;
            heap::reset_peak();
            let base = heap::live_bytes();
            let span = tracer.count();
            let (solution, _pi) = tracer
                .span("qn.solve", || {
                    net.solve_auto_traced(AUTO_SPARSE_THRESHOLD, None, trace)
                })
                .map_err(|e| e.to_string())?;
            solves.push(SolveRecord {
                net,
                diagnostics: solution.diagnostics,
                span,
                peak_heap_bytes: heap::peak_bytes().saturating_sub(base),
            });
            predictions.push(Prediction::from((pop, solution)));
        }
        Ok(TracedRep {
            predictions,
            solves,
            fit_candidates: fits.iter().map(|f| f.candidates().len()).sum(),
        })
    })
}
