//! Online-planning snapshot: streams a drifting TPC-W feed through the
//! continuous planner and times the two things that make it continuous —
//! ingestion throughput (windows/second) and the warm-started solve.
//!
//! Two measurements, one `BENCH_online.json` record:
//!
//! * **Streaming run** — a stable (contention-disabled) browsing phase
//!   followed by a heavy-contention phase replayed window by window into
//!   [`burstcap_online::OnlinePlanner`]. The deterministic outcome fields
//!   (window counts, refits, regime-change window, warm/cold solve split,
//!   final prediction) are diffed by CI across two runs; wall-clock fields
//!   (`*_ms`, `windows_per_sec`) are machine snapshots.
//! * **Warm vs cold solve** — the same drifted-descriptor re-solve the
//!   planner performs on unchanged-regime windows, timed head to head:
//!   sparse BiCGSTAB cold from uniform vs warm-started from the
//!   previous model's stationary vector
//!   ([`burstcap_qn::mapqn::MapNetwork::solve_sparse_with_initial`]).
//!
//! Usage: `cargo run --release -p burstcap-bench --bin bench_online
//! [output.json]` (default `BENCH_online.json`). `BURSTCAP_BENCH_FAST=1`
//! shortens the simulated feed and drops to one timing repetition.

use burstcap_bench::timing::Stopwatch;

use burstcap_bench::json::{JsonObject, JsonValue};
use burstcap_bench::BASE_SEED;
use burstcap_map::fit::Map2Fitter;
use burstcap_online::detector::CusumOptions;
use burstcap_online::planner::{OnlinePlanner, OnlinePlannerOptions};
use burstcap_online::window::ReplaySource;
use burstcap_qn::mapqn::MapNetwork;
use burstcap_tpcw::contention::ContentionConfig;
use burstcap_tpcw::mix::Mix;
use burstcap_tpcw::testbed::{Testbed, TestbedConfig};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_online.json".to_string());
    let fast = std::env::var_os("BURSTCAP_BENCH_FAST").is_some_and(|v| v != "0");
    let (phase_seconds, reps) = if fast { (1500.0, 1) } else { (2400.0, 5) };
    let ebs = 60;

    // --- Streaming run: stable phase, then an injected contention shift --
    let stable = Testbed::new(
        TestbedConfig::new(Mix::Browsing, ebs)
            .duration(phase_seconds)
            .seed(BASE_SEED)
            .contention(ContentionConfig::disabled()),
    )
    .expect("valid stable configuration")
    .run()
    .expect("stable phase runs");
    let contended = Testbed::new(
        TestbedConfig::new(Mix::Browsing, ebs)
            .duration(phase_seconds)
            .seed(BASE_SEED + 1)
            .contention(ContentionConfig {
                trigger_probability: 0.2,
                slowdown: 9.0,
                ..ContentionConfig::default()
            }),
    )
    .expect("valid contended configuration")
    .run()
    .expect("contended phase runs");

    let mut feed = ReplaySource::from_run(&stable).expect("stable feed");
    let shift_window = feed.remaining();
    feed.append_run(&contended).expect("same shape");
    let total_windows = feed.remaining();
    let resolution = stable.count_resolution;

    let mut options = OnlinePlannerOptions::new(ebs, 0.5);
    options.min_windows = 150;
    options.replan_every = 30;
    options.i_drift_threshold = 5.0;
    options.detector = CusumOptions {
        warmup_windows: 40,
        slack: 0.25,
        threshold: 8.0,
    };
    let mut planner = OnlinePlanner::new(resolution, 2, options).expect("valid planner");

    println!(
        "{}",
        burstcap_bench::header(&format!(
            "bench_online: {total_windows} windows ({shift_window} stable, then heavy contention)"
        ))
    );
    let t0 = Stopwatch::start();
    let reports = planner.drain(&mut feed).expect("stream ingests end to end");
    let ingest_ms = t0.elapsed_ms();
    let windows_per_sec = total_windows as f64 / (ingest_ms / 1e3);

    let stats = planner.stats();
    let first_alarm = reports
        .iter()
        .find(|r| r.regime_change)
        .map(|r| r.window)
        .unwrap_or(0);
    let refit_windows: Vec<usize> = reports
        .iter()
        .filter(|r| r.refitted)
        .map(|r| r.window)
        .collect();
    let final_prediction = planner.prediction().expect("fitted").clone();
    let final_db = planner
        .fitted_characterizations()
        .last()
        .expect("two tiers")
        .clone();
    println!(
        "{}",
        burstcap_bench::row(
            "stream",
            &[
                format!("{total_windows} windows"),
                format!("{:.0} w/s", windows_per_sec),
                format!("{} refits", stats.refits),
                format!("alarm @{first_alarm}"),
            ],
        )
    );
    println!(
        "{}",
        burstcap_bench::row(
            "solves",
            &[
                format!("{} warm", stats.warm_solves),
                format!("{} cold", stats.cold_solves),
                format!("X {:.1}", final_prediction.throughput),
            ],
        )
    );

    // --- Warm vs cold: the unchanged-regime re-solve, timed -------------
    // The same shapes bench_baseline uses; the drifted model perturbs the
    // db descriptors by a few percent — exactly what a rolling re-fit sees
    // between regime changes.
    let front = Map2Fitter::new(0.01, 8.0, 0.03)
        .fit()
        .expect("feasible")
        .map();
    let db = Map2Fitter::new(0.008, 12.0, 0.02)
        .fit()
        .expect("feasible")
        .map();
    let db_drifted = Map2Fitter::new(0.00824, 11.4, 0.0206)
        .fit()
        .expect("feasible")
        .map();
    let pop = 60;
    let base = MapNetwork::new(pop, 0.3, front, db).expect("valid network");
    let (_, pi_base) = base
        .solve_sparse_with_initial(None)
        .expect("base model solves");
    let drifted = MapNetwork::new(pop, 0.3, front, db_drifted).expect("valid network");

    let mut cold_times = Vec::with_capacity(reps);
    let mut warm_times = Vec::with_capacity(reps);
    let mut cold_x = 0.0;
    let mut warm_x = 0.0;
    for _ in 0..reps {
        let t0 = Stopwatch::start();
        let (sol, _) = drifted.solve_sparse_with_initial(None).expect("cold solve");
        cold_times.push(t0.elapsed_ms());
        cold_x = sol.throughput;

        let t0 = Stopwatch::start();
        let (sol, _) = drifted
            .solve_sparse_with_initial(Some(pi_base.clone()))
            .expect("warm solve");
        warm_times.push(t0.elapsed_ms());
        warm_x = sol.throughput;
    }
    let median = |times: &mut Vec<f64>| {
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        times[times.len() / 2]
    };
    let cold_ms = median(&mut cold_times);
    let warm_ms = median(&mut warm_times);
    let agreement = (warm_x - cold_x).abs() / cold_x;
    assert!(
        agreement < 1e-8,
        "warm and cold solves must agree, gap {agreement:.3e}"
    );
    println!(
        "{}",
        burstcap_bench::row(
            &format!("warm vs cold (pop {pop}, {} states)", drifted.state_count()),
            &[
                format!("cold {cold_ms:.1} ms"),
                format!("warm {warm_ms:.1} ms"),
                format!("{:.1}x", cold_ms / warm_ms),
            ],
        )
    );

    let refit_list: Vec<JsonValue> = refit_windows.iter().map(|&w| JsonValue::from(w)).collect();
    let report = JsonObject::new()
        .field("bench", "bench_online")
        .field("seed", BASE_SEED)
        .field("mix", "browsing")
        .field("ebs", ebs)
        .field("phase_seconds", JsonValue::f(phase_seconds, 1))
        .field("resolution_seconds", JsonValue::f(resolution, 1))
        .field("repetitions", reps)
        .field(
            "stream",
            JsonObject::new()
                .field("windows_total", total_windows)
                .field("shift_window", shift_window)
                .field("reports", reports.len())
                .field("refits", stats.refits)
                .field("warm_solves", stats.warm_solves)
                .field("cold_solves", stats.cold_solves)
                .field("regime_changes", stats.regime_changes)
                .field("first_alarm_window", first_alarm)
                .field("refit_windows", refit_list)
                .field(
                    "final_throughput",
                    JsonValue::f(final_prediction.throughput, 9),
                )
                .field(
                    "final_db_mean_service_time",
                    JsonValue::f(final_db.mean_service_time, 9),
                )
                .field(
                    "final_db_index_of_dispersion",
                    JsonValue::f(final_db.index_of_dispersion, 9),
                )
                .field("ingest_ms", JsonValue::f(ingest_ms, 3))
                .field("windows_per_sec", JsonValue::f(windows_per_sec, 1)),
        )
        .field(
            "warm_vs_cold",
            JsonObject::new()
                .field("population", pop)
                .field("states", drifted.state_count())
                .field("throughput_rel_gap", JsonValue::sci(agreement, 3))
                .field("cold_ms", JsonValue::f(cold_ms, 3))
                .field("warm_ms", JsonValue::f(warm_ms, 3))
                .field("warm_speedup", JsonValue::f(cold_ms / warm_ms, 2)),
        );
    burstcap_bench::json::write_report(&out_path, &report);
    println!("wrote {out_path}");
}
