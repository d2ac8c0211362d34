//! Per-layer metrics of a traced run, from the benchmark's spans, the
//! solves' diagnostics and the `burstcap-obs` recorder.

use std::collections::BTreeMap;

use burstcap_obs::{FieldValue, Recorder, Trace};
use burstcap_qn::mapqn::SolveEngine;

use crate::batch::SolveRecord;
use crate::heap;
use crate::spans::{Span, Tracer};

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// traced run reports each one on every workload; a layer the workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("tpcw.testbed_s", "s"),
    ("tpcw.windows", "count"),
    ("characterize.calls", "count"),
    ("characterize.ms", "ms"),
    ("characterize.ns_per_window", "ns"),
    ("map.fit.calls", "count"),
    ("map.fit.ms", "ms"),
    ("map.fit.candidates", "count"),
    ("qn.build.ms", "ms"),
    ("qn.states", "count"),
    ("qn.csr.ms", "ms"),
    ("qn.csr.nnz", "count"),
    ("qn.csr.peak_heap_mb", "MB"),
    ("qn.direct.ms", "ms"),
    ("qn.csr_gs.ms", "ms"),
    ("qn.csr_gs.sweeps", "count"),
    ("qn.csr_gs.ns_per_nnz_sweep", "ns"),
    ("qn.matfree.ms", "ms"),
    ("qn.matfree.sweeps", "count"),
    ("qn.matfree.ns_per_state_sweep", "ns"),
    ("qn.matfree.speedup_2w", "ratio"),
    ("qn.matfree.sweep_cost_vs_csr", "ratio"),
    ("qn.fallbacks", "count"),
    ("qn.final_residual_max", "ratio"),
    ("qn.solve.peak_heap_mb", "MB"),
    ("online.ingest_ns_per_window", "ns"),
    ("online.tick_us_p50", "us"),
    ("online.refits", "count"),
    ("online.warm_solves", "count"),
    ("online.cold_solves", "count"),
    ("online.refit_sweeps", "count"),
    ("online.replay_mismatches", "count"),
    ("core.plan.self_ms", "ms"),
    ("trace.uncovered_pct", "%"),
    ("obs.overhead_pct", "%"),
];

/// Named per-layer values; starts with every metric at 0.
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl Default for LayerMetrics {
    fn default() -> Self {
        LayerMetrics(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect())
    }
}

impl LayerMetrics {
    /// Set a metric; the name must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.0.contains_key(name), "unknown per-layer metric {name}");
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every metric with its unit, in [`PER_LAYER`] order.
    pub fn list(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, self.get(n), u))
            .collect()
    }
}

/// Total duration of the spans called `name`, and how many there are.
pub fn total(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
}

/// Events named `name` in the recorder.
pub fn count_events(recorder: &Recorder, name: &str) -> usize {
    recorder.events().iter().filter(|e| e.name == name).count()
}

/// Sum of the unsigned field `field` over the events named `name`.
pub fn sum_field(recorder: &Recorder, name: &str, field: &str) -> u64 {
    recorder
        .events()
        .iter()
        .filter(|e| e.name == name)
        .flat_map(|e| e.fields.iter())
        .filter(|(k, _)| *k == field)
        .map(|(_, v)| match v {
            FieldValue::U64(x) => *x,
            _ => 0,
        })
        .sum()
}

/// Solver-layer metrics of one pass. `solves` are the pass's solves and
/// `solve_secs` their `qn.solve` durations (averaged over passes). Every
/// network solved by CSR is assembled once more on its own (`qn.csr`), so
/// assembly and Gauss-Seidel sweeps can be told apart; every network solved
/// matrix-free is solved once more at 1 worker (`qn.matfree_1w`).
pub fn solver(m: &mut LayerMetrics, tracer: &Tracer, solves: &[SolveRecord], solve_secs: &[f64]) {
    let mut direct_s = 0.0;
    let (mut gs_s, mut gs_sweeps, mut nnz_sweeps, mut gs_state_sweeps) = (0.0, 0, 0.0, 0.0);
    let (mut csr_s, mut nnz, mut csr_peak) = (0.0, 0, 0);
    let (mut mf_s, mut mf_sweeps, mut mf1_s, mut mf1_state_sweeps) = (0.0, 0, 0.0, 0.0);
    for (rec, &secs) in solves.iter().zip(solve_secs) {
        let d = rec.diagnostics;
        let states = rec.net.state_count() as f64;
        match d.engine {
            SolveEngine::Direct | SolveEngine::DenseLu => direct_s += secs,
            SolveEngine::SparseCsr => {
                let (asm_s, asm_nnz, peak) = assemble(tracer, rec);
                csr_s += asm_s;
                nnz += asm_nnz;
                csr_peak = csr_peak.max(peak);
                gs_s += (secs - asm_s).max(0.0);
                gs_sweeps += d.iterations;
                nnz_sweeps += asm_nnz as f64 * d.iterations as f64;
                gs_state_sweeps += states * d.iterations as f64;
            }
            SolveEngine::MatrixFree => {
                mf_s += secs;
                mf_sweeps += d.iterations;
                let start = tracer.count();
                let one = tracer.span("probe.matfree_1w", || {
                    tracer.span("qn.matfree_1w", || {
                        rec.net
                            .solve_matrix_free_with_initial_traced(1, None, &Trace::noop())
                    })
                });
                if let Ok((s, _)) = one {
                    mf1_s += tracer.spans()[start + 1].secs();
                    mf1_state_sweeps += states * s.diagnostics.iterations as f64;
                }
            }
        }
    }
    let states: usize = solves.iter().map(|r| r.net.state_count()).sum();
    m.set("qn.states", states as f64);
    m.set("qn.csr.ms", csr_s * 1e3);
    m.set("qn.csr.nnz", nnz as f64);
    m.set("qn.csr.peak_heap_mb", heap::mb(csr_peak));
    m.set("qn.direct.ms", direct_s * 1e3);
    m.set("qn.csr_gs.ms", gs_s * 1e3);
    m.set("qn.csr_gs.sweeps", gs_sweeps as f64);
    m.set("qn.csr_gs.ns_per_nnz_sweep", ratio(gs_s * 1e9, nnz_sweeps));
    m.set("qn.matfree.ms", mf_s * 1e3);
    m.set("qn.matfree.sweeps", mf_sweeps as f64);
    let mf_cost = ratio(mf1_s * 1e9, mf1_state_sweeps);
    m.set("qn.matfree.ns_per_state_sweep", mf_cost);
    m.set("qn.matfree.speedup_2w", ratio(mf1_s, mf_s));
    m.set(
        "qn.matfree.sweep_cost_vs_csr",
        ratio(mf_cost, ratio(gs_s * 1e9, gs_state_sweeps)),
    );
    m.set(
        "qn.final_residual_max",
        solves
            .iter()
            .map(|r| r.diagnostics.final_residual)
            .fold(0.0, f64::max),
    );
    m.set(
        "qn.solve.peak_heap_mb",
        heap::mb(solves.iter().map(|r| r.peak_heap_bytes).max().unwrap_or(0)),
    );
}

/// Assemble `rec`'s generator on its own inside a `probe.csr` span: the
/// assembly time, the nonzeros, and the heap growth it caused.
fn assemble(tracer: &Tracer, rec: &SolveRecord) -> (f64, usize, usize) {
    heap::reset_peak();
    let base = heap::live_bytes();
    let start = tracer.count();
    let csr = tracer.span("probe.csr", || {
        tracer.span("qn.csr", || rec.net.outgoing_csr())
    });
    let peak = heap::peak_bytes().saturating_sub(base);
    let secs = tracer.spans()[start + 1].secs();
    (secs, csr.map_or(0, |c| c.nnz()), peak)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
