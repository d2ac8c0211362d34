//! One benchmark run: set-up, the measured loop, the correctness gate, and
//! the metrics.

use std::time::Instant;

use burstcap_obs::Recorder;

use crate::batch::{self, BatchRep};
use crate::inputs::{self, BatchInputs, Inputs, OnlineInputs, Workload};
use crate::layers::{self, LayerMetrics};
use crate::online::{self, IngestKind, OnlineRep};
use crate::spans::{self, Span, Tracer};
use crate::{heap, Metric};

/// Set-ups per run: at least `SETUPS_MIN`, more while they add up to less
/// than `SETUP_BUDGET_S`, at most `SETUPS_MAX`. `setup_s` is their median.
const SETUPS_MIN: usize = 3;
const SETUPS_MAX: usize = 64;
const SETUP_BUDGET_S: f64 = 2.0;

/// Least number of `from_tier_measurements` timings behind a batch
/// workload's `refit_ms_p50` (the online stream re-fits 9 times).
pub const REFIT_SAMPLES: usize = 9;

/// Largest share (percent) of a traced planning pass that its layer spans
/// may leave uncovered.
pub const TRACE_SLACK_PCT: f64 = 2.0;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the measured loop, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Relative perturbation of every reference value (0 in normal runs).
    pub perturb: f64,
}

/// What a run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted: what-if predictions, or ingested windows.
    pub attempted: usize,
    /// Operations that failed the gate.
    pub failed: usize,
    /// No failed operation, and (traced) the spans cover the pass.
    pub correct: bool,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The bits of every prediction of the first pass, in order.
    pub prediction_bits: Vec<u64>,
    /// Human-readable lines about the run.
    pub notes: Vec<String>,
}

/// Median of `values` (0 if empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Run `pass` until `seconds` have gone by, stopping where the next pass
/// would more likely overshoot than undershoot; at least one pass.
fn measure<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let before = start.elapsed().as_secs_f64();
        out.push(pass());
        let after = start.elapsed().as_secs_f64();
        if after + (after - before) / 2.0 >= seconds {
            return out;
        }
    }
}

/// What set-up took and produced.
struct Setup {
    median_s: f64,
    count: usize,
    /// Monitoring windows in the feed (per tier).
    windows: usize,
}

/// Run one workload.
///
/// # Errors
/// Set-up failures (a testbed or feed that cannot be built, or set-ups that
/// disagree). Failed predictions are not errors: they count in
/// [`Outcome::failed`].
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let tracer = if cfg.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut setup_s: Vec<f64> = Vec::with_capacity(SETUPS_MAX);
    let mut inputs: Option<Inputs> = None;
    while setup_s.len() < SETUPS_MIN
        || (setup_s.len() < SETUPS_MAX && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let start = Instant::now();
        let next = tracer.span("setup", || {
            inputs::generate(cfg.workload, cfg.seed, &tracer)
        })?;
        setup_s.push(start.elapsed().as_secs_f64());
        if inputs.as_ref().is_some_and(|prev| *prev != next) {
            return Err("two set-ups from one seed produced different inputs".into());
        }
        inputs = Some(next);
    }
    let inputs = inputs.ok_or("no set-up")?;
    let setup = Setup {
        median_s: median(&setup_s),
        count: setup_s.len(),
        windows: inputs.windows(),
    };
    match &inputs {
        Inputs::Batch(b) => Ok(run_batch(cfg, &tracer, b, &setup)),
        Inputs::Online(o) => run_online(cfg, &tracer, o, &setup),
    }
}

fn end_to_end(setup: &Setup, plan_s: &[f64], refit_s: &[f64], peak_mb: f64) -> Vec<Metric> {
    let wps: Vec<f64> = plan_s.iter().map(|&s| setup.windows as f64 / s).collect();
    vec![
        ("setup_s", setup.median_s, "s"),
        ("plan_s", median(plan_s), "s"),
        ("online_wps", median(&wps), "1/s"),
        ("refit_ms_p50", median(refit_s) * 1e3, "ms"),
        ("peak_heap_mb", peak_mb, "MB"),
    ]
}

fn run_batch(cfg: &Config, tracer: &Tracer, b: &BatchInputs, setup: &Setup) -> Outcome {
    let pops = b.populations.len();
    let expected = batch::reference_pass(b, cfg.perturb);
    let recorder = Recorder::new();
    let trace = recorder.trace();
    heap::reset_peak();
    let passes = measure(cfg.seconds, || {
        let untraced = batch::rep(b);
        let traced = cfg.trace.then(|| batch::traced_rep(b, tracer, &trace));
        (untraced, traced)
    });
    let peak_mb = heap::mb(heap::peak_bytes());
    let (reps, traced): (Vec<BatchRep>, Vec<_>) = passes.into_iter().unzip();
    let traced: Vec<_> = traced.into_iter().flatten().collect();
    let mut refit_s: Vec<f64> = reps.iter().map(|r| r.refit_s).collect();
    while refit_s.len() < REFIT_SAMPLES {
        refit_s.push(batch::refit_only(b));
    }

    // The gate: every curve, traced ones included, bit for bit against the
    // verified one.
    let mut curves: Vec<Option<&[_]>> =
        reps.iter().map(|r| r.predictions.as_deref().ok()).collect();
    curves.extend(
        traced
            .iter()
            .map(|t| t.as_ref().ok().map(|t| t.predictions.as_slice())),
    );
    let failed: usize = curves
        .iter()
        .map(|&c| batch::failures(c, expected.as_ref().ok(), pops))
        .sum();
    let mut notes = vec![format!(
        "{} passes, {} traced; populations {:?}",
        reps.len(),
        traced.len(),
        b.populations
    )];
    if let Err(e) = &expected {
        notes.push(format!("reference pass failed: {e}"));
    }
    if let Err(e) = &reps[0].predictions {
        notes.push(format!("prediction failed: {e}"));
    }
    let prediction_bits = expected
        .as_ref()
        .map(|e| e.curve.iter().map(|p| p.throughput.to_bits()).collect())
        .unwrap_or_default();
    let plan_s: Vec<f64> = reps.iter().map(|r| r.plan_s).collect();
    let mut outcome = Outcome {
        attempted: curves.len() * pops,
        failed,
        correct: failed == 0,
        metrics: Vec::new(),
        prediction_bits,
        notes,
    };
    if !cfg.trace {
        outcome.metrics = end_to_end(setup, &plan_s, &refit_s, peak_mb);
        return outcome;
    }

    let traced: Vec<_> = traced.into_iter().filter_map(Result::ok).collect();
    let Some(first_traced) = traced.first() else {
        outcome.correct = false;
        outcome.notes.push("traced pass failed".into());
        return outcome;
    };
    let spans = tracer.spans();
    let n = traced.len() as f64;
    let mut m = LayerMetrics::default();
    let uncovered = pass_metrics(&mut m, &spans, "core.plan", &plan_s, setup);
    let tier_windows: usize = b.tiers.iter().map(|t| t.len()).sum();
    let (t, c) = layers::total(&spans, "characterize");
    m.set("characterize.calls", c as f64 / n);
    m.set("characterize.ms", t * 1e3 / n);
    m.set(
        "characterize.ns_per_window",
        t * 1e9 / (n * tier_windows as f64),
    );
    let (t, c) = layers::total(&spans, "map.fit");
    m.set("map.fit.calls", c as f64 / n);
    m.set("map.fit.ms", t * 1e3 / n);
    m.set("map.fit.candidates", first_traced.fit_candidates as f64);
    m.set("qn.build.ms", layers::total(&spans, "qn.build").0 * 1e3 / n);
    m.set(
        "qn.fallbacks",
        layers::count_events(&recorder, "qn.fallback") as f64 / n,
    );
    let solve_secs: Vec<f64> = (0..pops)
        .map(|k| {
            traced
                .iter()
                .map(|t| spans[t.solves[k].span].secs())
                .sum::<f64>()
                / n
        })
        .collect();
    layers::solver(&mut m, tracer, &first_traced.solves, &solve_secs);
    finish_traced(&mut outcome, m, uncovered);
    outcome
}

/// Metrics every traced run reports: the set-up's testbed time and
/// windows, the self time of the traced passes' `root` spans, the share of
/// those passes their layer spans leave uncovered (returned), and the
/// tracing overhead against the untraced passes' times `untraced_s`.
fn pass_metrics(
    m: &mut LayerMetrics,
    spans: &[Span],
    root: &str,
    untraced_s: &[f64],
    setup: &Setup,
) -> f64 {
    let testbed_s = layers::total(spans, "tpcw.testbed").0;
    m.set("tpcw.testbed_s", testbed_s / setup.count as f64);
    m.set("tpcw.windows", setup.windows as f64);
    let own = spans::self_times(spans);
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == root)
        .collect();
    let root_own: f64 = roots.iter().map(|&i| own[i]).sum();
    let root_secs: Vec<f64> = roots.iter().map(|&i| spans[i].secs()).collect();
    if root == "core.plan" {
        m.set("core.plan.self_ms", root_own * 1e3 / roots.len() as f64);
    }
    let uncovered = 100.0 * root_own / root_secs.iter().sum::<f64>();
    m.set("trace.uncovered_pct", uncovered);
    let overhead = median(&root_secs) / median(untraced_s) - 1.0;
    m.set("obs.overhead_pct", 100.0 * overhead);
    uncovered
}

fn finish_traced(outcome: &mut Outcome, m: LayerMetrics, uncovered: f64) {
    if uncovered > TRACE_SLACK_PCT {
        outcome.correct = false;
        outcome.notes.push(format!(
            "layer spans leave {uncovered:.2}% of the traced pass uncovered (slack {TRACE_SLACK_PCT}%)"
        ));
    }
    outcome.metrics = m.list();
}

fn run_online(
    cfg: &Config,
    tracer: &Tracer,
    o: &OnlineInputs,
    setup: &Setup,
) -> Result<Outcome, String> {
    let recorder = Recorder::new();
    let trace = recorder.trace();
    let mut stamps = Vec::new();
    heap::reset_peak();
    let passes = measure(cfg.seconds, || {
        let untraced = online::rep(o, &mut stamps);
        let traced = cfg.trace.then(|| online::traced_rep(o, tracer, &trace));
        (untraced, traced)
    });
    let peak_mb = heap::mb(heap::peak_bytes());
    let (reps, traced): (Vec<OnlineRep>, Vec<_>) = passes.into_iter().unzip();
    let traced: Vec<_> = traced.into_iter().flatten().collect();

    let expected = online::verify(o, cfg.perturb)?;
    let windows = o.windows.len();
    let mut failed: usize = reps
        .iter()
        .map(|r| {
            online::failures(
                windows,
                &r.reports,
                r.final_bits,
                r.error.as_ref().map(|e| e.0),
                &expected,
            )
        })
        .sum();
    failed += traced
        .iter()
        .map(|t| match t {
            Ok(t) => online::failures(windows, &t.reports, t.final_bits, None, &expected),
            Err(_) => windows,
        })
        .sum::<usize>();
    let mut notes = vec![format!(
        "{} passes, {} traced; {} windows, {} reports",
        reps.len(),
        traced.len(),
        windows,
        expected.reports.len()
    )];
    if let Some((i, e)) = &reps[0].error {
        notes.push(format!("ingest failed at window {i}: {e}"));
    }
    let stream_s: Vec<f64> = reps.iter().map(|r| r.stream_s).collect();
    let refit_s: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.refit_s.iter().copied())
        .collect();
    let mut prediction_bits: Vec<u64> = expected.reports.iter().map(|r| r.2).collect();
    prediction_bits.extend(expected.final_bits);
    let mut outcome = Outcome {
        attempted: (reps.len() + traced.len()) * windows,
        failed,
        correct: failed == 0,
        metrics: Vec::new(),
        prediction_bits,
        notes,
    };
    if !cfg.trace {
        outcome.metrics = end_to_end(setup, &stream_s, &refit_s, peak_mb);
        return Ok(outcome);
    }

    let traced: Vec<_> = traced.into_iter().filter_map(Result::ok).collect();
    let Some(first_traced) = traced.first() else {
        outcome.correct = false;
        outcome.notes.push("traced pass failed".into());
        return Ok(outcome);
    };
    let n = traced.len() as f64;
    let mut m = LayerMetrics::default();
    let spans = tracer.spans();
    let uncovered = pass_metrics(&mut m, &spans, "online.stream", &stream_s, setup);
    let of_kind = |kind: IngestKind| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|t| t.ingests.iter())
            .filter(|(_, k)| *k == kind)
            .map(|&(i, _)| spans[i].secs())
            .collect()
    };
    let plain = of_kind(IngestKind::Window);
    m.set(
        "online.ingest_ns_per_window",
        layers::ratio(plain.iter().sum::<f64>() * 1e9, plain.len() as f64),
    );
    m.set(
        "online.tick_us_p50",
        median(&of_kind(IngestKind::Tick)) * 1e6,
    );
    let stats = first_traced.stats;
    m.set("online.refits", stats.refits as f64);
    m.set("online.warm_solves", stats.warm_solves as f64);
    m.set("online.cold_solves", stats.cold_solves as f64);
    m.set("qn.fallbacks", stats.stalled_fallbacks as f64);
    m.set(
        "online.refit_sweeps",
        layers::sum_field(&recorder, "online.refit", "sweeps") as f64 / n,
    );

    // The re-fits' layers, replayed once from outside the planner.
    let (solves, candidates, mismatches) =
        online::replay_refits(o, &first_traced.refits, tracer, &recorder.trace())?;
    let spans = tracer.spans();
    let (t, c) = layers::total(&spans, "map.fit");
    m.set("map.fit.calls", c as f64);
    m.set("map.fit.ms", t * 1e3);
    m.set("map.fit.candidates", candidates as f64);
    m.set("qn.build.ms", layers::total(&spans, "qn.build").0 * 1e3);
    m.set("online.replay_mismatches", mismatches as f64);
    if mismatches > 0 {
        outcome.correct = false;
        outcome.notes.push(format!(
            "{mismatches} replayed re-fits differ from the planner's; its re-fit path changed"
        ));
    }
    let solve_secs: Vec<f64> = solves.iter().map(|s| spans[s.span].secs()).collect();
    layers::solver(&mut m, tracer, &solves, &solve_secs);
    finish_traced(&mut outcome, m, uncovered);
    Ok(outcome)
}
