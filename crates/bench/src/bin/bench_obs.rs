//! Observability-overhead snapshot: times the two hot traced paths with
//! and without a live recorder and writes a `BENCH_obs.json` record.
//!
//! Two workloads:
//!
//! * **sparse solve** — the paper's MAP(2)×MAP(2) network at population
//!   100 through the CSR BiCGSTAB engine, untraced (the no-op
//!   `Trace::noop` default) vs traced into a live [`Recorder`];
//! * **online ingest** — 900 monitoring windows (400 stable, then a 3x db
//!   demand shift) through the continuous planner, untraced vs traced —
//!   the stream covers window counters, CUSUM samples, alarm/reset, and
//!   both re-fit solves.
//!
//! The instrumentation budget is <3% wall-clock overhead on either path
//! (`overhead_target_pct`); `overhead_ok` records whether this machine met
//! it, and CI gates on that field. A repetition runs a fixed number of
//! untraced and traced passes interleaved pass by pass (ABBA order), so
//! frequency drift and allocator-layout shifts hit both sides alike, and
//! its ratio is the median traced pass over the median untraced pass, so
//! a preempted pass does not move it. The reported
//! overhead is the median ratio over the repetitions, printed with its
//! distribution-free 95% confidence interval (`overhead_ci_*_pct`, from
//! the order statistics of the median) so a reader can see whether the
//! measurement resolves the 3% budget; the `_ms` fields record the per-side
//! minima of a repetition's median pass.
//!
//! Usage: `cargo run --release -p burstcap-bench --bin bench_obs
//! [output.json]` (default `BENCH_obs.json`). `BURSTCAP_BENCH_FAST=1`
//! lowers the repetition count.
//!
//! Wall-clock numbers are a snapshot of one machine; the deterministic
//! fields (state counts, event counts) are diffed across runs in CI.

use burstcap_bench::json::{JsonObject, JsonValue};
use burstcap_bench::timing::Stopwatch;
use burstcap_map::fit::Map2Fitter;
use burstcap_obs::{Recorder, Trace};
use burstcap_online::detector::CusumOptions;
use burstcap_online::{MonitorWindow, OnlinePlanner, OnlinePlannerOptions, TierSample};
use burstcap_qn::mapqn::MapNetwork;

const OVERHEAD_TARGET_PCT: f64 = 3.0;
const SOLVE_POPULATION: usize = 100;
const INGEST_WINDOWS: usize = 900;
const SHIFT_WINDOW: usize = 400;
/// Repetitions per workload (the median's confidence interval narrows
/// with their square root).
const REPS: usize = 31;
/// Interleaved pass pairs per repetition: a repetition times about 0.2 s
/// of each side (one ingest pass is ≈ 4 ms, one solve ≈ 50 ms).
const INGEST_PASSES: usize = 40;
const SOLVE_PASSES: usize = 6;

/// The paper's MAP(2)×MAP(2) two-tier network at the sparse-engine scale.
fn network() -> MapNetwork {
    let front = Map2Fitter::new(0.01, 8.0, 0.03)
        .fit()
        .expect("front fits")
        .map();
    let db = Map2Fitter::new(0.008, 12.0, 0.02)
        .fit()
        .expect("db fits")
        .map();
    MapNetwork::new(SOLVE_POPULATION, 0.45, front, db).expect("valid network")
}

fn window(front: (f64, u64), db: (f64, u64)) -> MonitorWindow {
    MonitorWindow {
        tiers: vec![
            TierSample {
                utilization: front.0,
                completions: front.1,
            },
            TierSample {
                utilization: db.0,
                completions: db.1,
            },
        ],
    }
}

fn planner_options() -> OnlinePlannerOptions {
    let mut options = OnlinePlannerOptions::new(20, 0.5);
    options.min_windows = 120;
    options.replan_every = 20;
    options.detector = CusumOptions {
        warmup_windows: 30,
        slack: 0.25,
        threshold: 6.0,
    };
    options
}

/// One full ingest pass (stable phase, shift, recovery) under `trace`.
fn ingest_pass(trace: &Trace) -> usize {
    let mut planner = OnlinePlanner::new(5.0, 2, planner_options())
        .expect("valid planner")
        .with_trace(trace.clone());
    let stable = window((0.5, 250), (0.25, 250));
    let shifted = window((0.5, 250), (0.75, 250));
    let mut reports = 0usize;
    for k in 0..INGEST_WINDOWS {
        let w = if k < SHIFT_WINDOW { &stable } else { &shifted };
        if planner.ingest(w).expect("window ingests").is_some() {
            reports += 1;
        }
    }
    reports
}

/// One workload's timing summary: minimum per side of a repetition's median
/// pass, and the median of the per-repetition traced/untraced ratios with
/// its 95% confidence interval.
struct Timing {
    untraced_ms: f64,
    traced_ms: f64,
    overhead_pct: f64,
    ci_pct: (f64, f64),
    checksum: usize,
}

/// Time `reps` repetitions of `passes` untraced and `passes` traced runs of
/// `workload`, interleaved pass by pass in ABBA order (untraced, traced,
/// traced, untraced, …), so drift within a repetition cancels to first
/// order. Each traced pass records into a fresh [`Recorder`]. A
/// repetition's ratio is its median traced pass over its median untraced
/// pass, so a pass the scheduler preempts does not move it; the overhead
/// is the median ratio.
fn paired_overhead(
    reps: usize,
    passes: usize,
    mut workload: impl FnMut(&Trace) -> usize,
) -> Timing {
    let mut untraced_ms = f64::INFINITY;
    let mut traced_ms = f64::INFINITY;
    let mut ratios = Vec::with_capacity(reps);
    let mut checksum = None;
    for rep in 0..reps {
        let (mut u, mut t) = (Vec::with_capacity(passes), Vec::with_capacity(passes));
        for k in 0..2 * passes {
            let traced = (k + k / 2) % 2 == 1;
            let recorder = Recorder::new();
            let trace = if traced {
                recorder.trace()
            } else {
                Trace::noop()
            };
            let clock = Stopwatch::start();
            let out = workload(&trace);
            let ms = clock.elapsed_ms();
            assert_eq!(
                *checksum.get_or_insert(out),
                out,
                "tracing changed the workload's result"
            );
            if traced {
                t.push(ms);
            } else {
                u.push(ms);
            }
        }
        let (u, t) = (median(&mut u), median(&mut t));
        untraced_ms = untraced_ms.min(u);
        traced_ms = traced_ms.min(t);
        ratios.push(t / u);
        if std::env::var_os("BURSTCAP_BENCH_DEBUG").is_some() {
            println!(
                "  rep {rep}: untraced {u:.2} ms, traced {t:.2} ms, ratio {:.4}",
                t / u
            );
        }
    }
    ratios.sort_by(f64::total_cmp);
    let pct = |ratio: f64| (ratio - 1.0) * 100.0;
    let (lo, hi) = median_ci_ranks(reps);
    Timing {
        untraced_ms,
        traced_ms,
        overhead_pct: pct(ratios[reps / 2]),
        ci_pct: (pct(ratios[lo]), pct(ratios[hi])),
        checksum: checksum.unwrap_or(0),
    }
}

/// Median of a non-empty sample (the upper of the middle two when even).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// 0-based ranks `(lo, hi)` of the sorted sample that bracket its median
/// with at least 95% confidence, whatever the distribution: the median lies
/// below the `j`-th smallest of `n` values with probability
/// `P(Binomial(n, 1/2) >= j)`, so `lo` is the largest `j - 1` whose lower
/// tail `P(Binomial(n, 1/2) < j)` stays within 2.5%, and `hi = n - 1 - lo`.
fn median_ci_ranks(n: usize) -> (usize, usize) {
    let mut pmf = 0.5_f64.powi(n as i32);
    let mut below = 0.0;
    let mut lo = 0;
    for j in 0..n / 2 {
        // below = P(B < j + 1) after adding P(B = j).
        below += pmf;
        if below > 0.025 {
            break;
        }
        lo = j + 1;
        pmf *= (n - j) as f64 / (j + 1) as f64;
    }
    let lo = lo.saturating_sub(1).min(n / 2);
    (lo, n - 1 - lo)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_obs.json".to_string());
    let fast = std::env::var_os("BURSTCAP_BENCH_FAST").is_some_and(|v| v != "0");
    let reps = if fast { 5 } else { REPS };

    println!(
        "{}",
        burstcap_bench::header(&format!(
            "bench_obs: instrumentation overhead, target <{OVERHEAD_TARGET_PCT}% \
             ({reps} reps of interleaved passes, median ratio, 95% CI)"
        ))
    );

    // --- Workload 1: pop-100 sparse CSR solve ---------------------------
    let net = network();
    let states = net.state_count();
    let solve = paired_overhead(reps, SOLVE_PASSES, |trace| {
        let (sol, _pi) = net
            .solve_sparse_with_initial_traced(None, trace)
            .expect("sparse solve");
        sol.diagnostics.iterations
    });
    // Deterministic trace volume of one solve.
    let recorder = Recorder::new();
    net.solve_sparse_with_initial_traced(None, &recorder.trace())
        .expect("sparse solve");
    let solve_events = recorder.events().iter().filter(|e| !e.volatile).count();
    println!(
        "sparse solve (pop {SOLVE_POPULATION}, {states} states, {SOLVE_PASSES} passes per side): \
         untraced {:.2} ms, traced {:.2} ms, overhead {:+.2}% [95% CI {:+.2}%, {:+.2}%] \
         ({solve_events} events)",
        solve.untraced_ms, solve.traced_ms, solve.overhead_pct, solve.ci_pct.0, solve.ci_pct.1
    );

    // --- Workload 2: online ingest loop across a regime shift -----------
    let ingest = paired_overhead(reps, INGEST_PASSES, ingest_pass);
    let recorder = Recorder::new();
    let ingest_reports = ingest_pass(&recorder.trace());
    let ingest_events = recorder.events().iter().filter(|e| !e.volatile).count();
    println!(
        "online ingest ({INGEST_WINDOWS} windows, shift at {SHIFT_WINDOW}, {INGEST_PASSES} \
         passes per side): untraced {:.2} ms, traced {:.2} ms, overhead {:+.2}% \
         [95% CI {:+.2}%, {:+.2}%] ({ingest_events} events/pass)",
        ingest.untraced_ms, ingest.traced_ms, ingest.overhead_pct, ingest.ci_pct.0, ingest.ci_pct.1
    );

    let overhead_ok =
        solve.overhead_pct < OVERHEAD_TARGET_PCT && ingest.overhead_pct < OVERHEAD_TARGET_PCT;
    println!(
        "\noverhead budget {}",
        if overhead_ok { "met" } else { "EXCEEDED" }
    );

    let report = JsonObject::new()
        .field("bench", "bench_obs")
        .field("seed", burstcap_bench::BASE_SEED)
        .field("repetitions", reps)
        .field("overhead_target_pct", JsonValue::f(OVERHEAD_TARGET_PCT, 1))
        .field(
            "sparse_solve",
            JsonObject::new()
                .field("population", SOLVE_POPULATION)
                .field("states", states)
                .field("sweeps", solve.checksum)
                .field("passes_per_rep", SOLVE_PASSES)
                .field("trace_events", solve_events)
                .field("untraced_ms", JsonValue::f(solve.untraced_ms, 3))
                .field("traced_ms", JsonValue::f(solve.traced_ms, 3))
                .field("overhead_pct", JsonValue::f(solve.overhead_pct, 2))
                .field("overhead_ci_low_pct", JsonValue::f(solve.ci_pct.0, 2))
                .field("overhead_ci_high_pct", JsonValue::f(solve.ci_pct.1, 2)),
        )
        .field(
            "online_ingest",
            JsonObject::new()
                .field("windows", INGEST_WINDOWS)
                .field("shift_window", SHIFT_WINDOW)
                .field("passes_per_rep", INGEST_PASSES)
                .field("reports", ingest_reports)
                .field("trace_events", ingest_events)
                .field("untraced_ms", JsonValue::f(ingest.untraced_ms, 3))
                .field("traced_ms", JsonValue::f(ingest.traced_ms, 3))
                .field("overhead_pct", JsonValue::f(ingest.overhead_pct, 2))
                .field("overhead_ci_low_pct", JsonValue::f(ingest.ci_pct.0, 2))
                .field("overhead_ci_high_pct", JsonValue::f(ingest.ci_pct.1, 2)),
        )
        .field("overhead_ok", overhead_ok);
    burstcap_bench::json::write_report(&out_path, &report);
    println!("wrote {out_path}");
}
