//! The online workload: a window stream through `OnlinePlanner::ingest`.

use std::time::Instant;

use burstcap::characterize::ServiceCharacterization;
use burstcap::planner::fit_characterization;
use burstcap_map::Map2;
use burstcap_obs::Trace;
use burstcap_online::planner::{OnlinePlanner, SolveStats};
use burstcap_qn::mapqn::{MapNetwork, AUTO_MATFREE_THRESHOLD};
use burstcap_qn::QnError;

use crate::batch::SolveRecord;
use crate::gate;
use crate::heap;
use crate::inputs::{online_options, OnlineInputs};
use crate::spans::Tracer;

/// A replanning report as the benchmark compares it: window index,
/// whether the planner re-fitted, and the predicted throughput's bits.
pub type ReportKey = (usize, bool, u64);

/// One untraced pass over the stream.
pub struct OnlineRep {
    /// First window in to final prediction out.
    pub stream_s: f64,
    /// Latency of each `ingest` call that re-fitted.
    pub refit_s: Vec<f64>,
    /// Every report, in window order.
    pub reports: Vec<ReportKey>,
    /// The planner's final prediction.
    pub final_bits: Option<u64>,
    /// The window whose `ingest` failed, with the error.
    pub error: Option<(usize, String)>,
}

fn planner(inputs: &OnlineInputs) -> Result<OnlinePlanner, String> {
    OnlinePlanner::new(
        inputs.resolution,
        inputs.tier_count,
        online_options(inputs.think_time),
    )
    .map_err(|e| e.to_string())
}

/// Time one untraced pass. `stamps` is scratch space, reused so the timed
/// loop does not allocate for the benchmark's own bookkeeping.
pub fn rep(inputs: &OnlineInputs, stamps: &mut Vec<Instant>) -> OnlineRep {
    stamps.clear();
    stamps.reserve(inputs.windows.len() + 1);
    let mut reports = Vec::with_capacity(inputs.windows.len() / 16);
    let mut error = None;
    let start = Instant::now();
    let mut planner = match planner(inputs) {
        Ok(p) => p,
        Err(e) => {
            return OnlineRep {
                stream_s: start.elapsed().as_secs_f64(),
                refit_s: Vec::new(),
                reports,
                final_bits: None,
                error: Some((0, e)),
            }
        }
    };
    for (i, window) in inputs.windows.iter().enumerate() {
        stamps.push(Instant::now());
        match planner.ingest(window) {
            Ok(Some(r)) => reports.push((i, r.refitted, r.prediction.throughput.to_bits())),
            Ok(None) => {}
            Err(e) => {
                error = Some((i, e.to_string()));
                break;
            }
        }
    }
    stamps.push(Instant::now());
    let stream_s = start.elapsed().as_secs_f64();
    let refit_s = reports
        .iter()
        .filter(|r| r.1)
        .filter_map(|r| {
            Some(
                stamps
                    .get(r.0 + 1)?
                    .duration_since(stamps[r.0])
                    .as_secs_f64(),
            )
        })
        .collect();
    OnlineRep {
        stream_s,
        refit_s,
        reports,
        final_bits: planner.prediction().map(|p| p.throughput.to_bits()),
        error,
    }
}

/// The reference replay: every report, whether each window's prediction
/// passed the gate, and the final prediction.
pub struct Expected {
    /// Every report, in window order.
    pub reports: Vec<ReportKey>,
    /// Per window: no error, and any prediction it produced passed.
    pub ok: Vec<bool>,
    /// The planner's final prediction.
    pub final_bits: Option<u64>,
}

/// Replay the stream untimed and check every prediction, and the final
/// one, against the envelope of the current fits and a direct solve of
/// them (the planner itself solves by CSR Gauss-Seidel).
pub fn verify(inputs: &OnlineInputs, perturb: f64) -> Result<Expected, String> {
    let options = online_options(inputs.think_time);
    let mut planner = planner(inputs)?;
    let mut ok = vec![true; inputs.windows.len()];
    let mut reports = Vec::new();
    // The reference changes only when the planner re-fits; the first
    // report is always a re-fit.
    let mut reference = None;
    let mut check = |planner: &OnlinePlanner, throughput: f64, refitted: bool| {
        let stations: Vec<Map2> = planner.tier_fits().iter().map(|f| f.map()).collect();
        if refitted {
            reference =
                MapNetwork::tandem(options.population, options.think_time, stations.clone())
                    .and_then(|net| net.solve())
                    .map(|s| s.throughput * (1.0 + perturb))
                    .map_err(|e| eprintln!("online reference failed: {e}"))
                    .ok();
        }
        reference.is_some_and(|r| {
            gate::accept(
                throughput,
                r,
                &stations,
                options.think_time,
                options.population,
            )
        })
    };
    for (i, window) in inputs.windows.iter().enumerate() {
        match planner.ingest(window) {
            Ok(Some(r)) => {
                let x = r.prediction.throughput;
                ok[i] = check(&planner, x, r.refitted);
                reports.push((i, r.refitted, x.to_bits()));
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("online verification: window {i}: {e}");
                ok[i..].fill(false);
                break;
            }
        }
    }
    let final_bits = planner.prediction().map(|p| p.throughput.to_bits());
    let final_ok = planner
        .prediction()
        .is_some_and(|p| check(&planner, p.throughput, false));
    if let Some(last) = ok.last_mut() {
        *last &= final_ok;
    }
    Ok(Expected {
        reports,
        ok,
        final_bits,
    })
}

/// Operations (windows) of `rep` that failed: an error, a report that
/// differs from the reference replay, or a prediction the gate rejected.
pub fn failures(
    windows: usize,
    reports: &[ReportKey],
    final_bits: Option<u64>,
    error: Option<usize>,
    expected: &Expected,
) -> usize {
    let by_window = |list: &[ReportKey]| {
        let mut v = vec![None; windows];
        for &(i, refit, bits) in list {
            v[i] = Some((refit, bits));
        }
        v
    };
    let got = by_window(reports);
    let want = by_window(&expected.reports);
    let stop = error.unwrap_or(windows);
    let mut bad: Vec<bool> = (0..windows)
        .map(|i| i >= stop || got[i] != want[i] || !expected.ok[i])
        .collect();
    if final_bits != expected.final_bits {
        if let Some(last) = bad.last_mut() {
            *last = true;
        }
    }
    bad.iter().filter(|&&b| b).count()
}

/// What an `ingest` call turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestKind {
    /// No report: estimators and the detector only.
    Window,
    /// A replanning tick that kept the current fit.
    Tick,
    /// A tick that re-fitted and re-solved.
    Refit,
}

/// The inputs of one re-fit, captured for the layer replay.
pub struct RefitCapture {
    /// The descriptors the planner fitted.
    pub chars: Vec<ServiceCharacterization>,
    /// The throughput it predicted from them.
    pub throughput: f64,
}

/// One traced pass.
pub struct TracedOnlineRep {
    /// Every report, in window order.
    pub reports: Vec<ReportKey>,
    /// The planner's final prediction.
    pub final_bits: Option<u64>,
    /// Per window: its `online.ingest` span and what the call did.
    pub ingests: Vec<(usize, IngestKind)>,
    /// Every re-fit's inputs, in order.
    pub refits: Vec<RefitCapture>,
    /// The planner's solver accounting.
    pub stats: SolveStats,
}

/// Run one traced pass inside an `online.stream` span, one
/// `online.ingest` span per window; the planner emits its events to `trace`.
pub fn traced_rep(
    inputs: &OnlineInputs,
    tracer: &Tracer,
    trace: &Trace,
) -> Result<TracedOnlineRep, String> {
    tracer.span("online.stream", || {
        let mut planner = planner(inputs)?.with_trace(trace.clone());
        let mut out = TracedOnlineRep {
            reports: Vec::new(),
            final_bits: None,
            ingests: Vec::with_capacity(inputs.windows.len()),
            refits: Vec::new(),
            stats: SolveStats::default(),
        };
        for (i, window) in inputs.windows.iter().enumerate() {
            let span = tracer.count();
            let report = tracer
                .span("online.ingest", || planner.ingest(window))
                .map_err(|e| format!("window {i}: {e}"))?;
            let kind = match &report {
                None => IngestKind::Window,
                Some(r) if r.refitted => IngestKind::Refit,
                Some(_) => IngestKind::Tick,
            };
            out.ingests.push((span, kind));
            if let Some(r) = report {
                let x = r.prediction.throughput;
                out.reports.push((i, r.refitted, x.to_bits()));
                if r.refitted {
                    out.refits.push(RefitCapture {
                        chars: planner.fitted_characterizations().to_vec(),
                        throughput: x,
                    });
                }
            }
        }
        out.final_bits = planner.prediction().map(|p| p.throughput.to_bits());
        out.stats = planner.stats();
        Ok(out)
    })
}

/// Replay every re-fit layer by layer from outside, inside one
/// `online.refit_replay` span each, mirroring the planner's re-fit: fit
/// each tier, build the tandem, solve warm-started from the previous
/// stationary vector (CSR below the matrix-free threshold, matrix-free
/// above), and fall back to the direct solver on a stall. Returns the
/// solves and how many replayed throughputs differ from the planner's.
pub fn replay_refits(
    inputs: &OnlineInputs,
    refits: &[RefitCapture],
    tracer: &Tracer,
    trace: &Trace,
) -> Result<(Vec<SolveRecord>, usize, usize), String> {
    let options = online_options(inputs.think_time);
    let mut pi: Option<Vec<f64>> = None;
    let mut solves = Vec::with_capacity(refits.len());
    let mut candidates = 0;
    let mut mismatches = 0;
    for refit in refits {
        tracer.span("online.refit_replay", || -> Result<(), String> {
            let fits = refit
                .chars
                .iter()
                .map(|c| tracer.span("map.fit", || fit_characterization(c, options.i_tolerance)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            candidates += fits.iter().map(|f| f.candidates().len()).sum::<usize>();
            let net = tracer
                .span("qn.build", || {
                    MapNetwork::tandem(
                        options.population,
                        options.think_time,
                        fits.iter().map(|f| f.map()).collect(),
                    )
                })
                .map_err(|e| e.to_string())?;
            let guess = pi.take().filter(|p| p.len() == net.state_count());
            heap::reset_peak();
            let base = heap::live_bytes();
            let span = tracer.count();
            let (solution, next) = tracer
                .span("qn.solve", || {
                    let attempt = if net.state_count() > AUTO_MATFREE_THRESHOLD {
                        net.solve_matrix_free_with_initial_traced(0, guess.clone(), trace)
                    } else {
                        net.solve_sparse_with_initial_traced(guess.clone(), trace)
                    };
                    match attempt {
                        Err(QnError::NoConvergence { .. }) => {
                            net.solve_with_initial(guess).map(|(mut s, p)| {
                                s.diagnostics.fell_back = true;
                                (s, p)
                            })
                        }
                        other => other,
                    }
                })
                .map_err(|e| e.to_string())?;
            if solution.throughput.to_bits() != refit.throughput.to_bits() {
                mismatches += 1;
            }
            pi = Some(next);
            solves.push(SolveRecord {
                net,
                diagnostics: solution.diagnostics,
                span,
                peak_heap_bytes: heap::peak_bytes().saturating_sub(base),
            });
            Ok(())
        })?;
    }
    Ok((solves, candidates, mismatches))
}
