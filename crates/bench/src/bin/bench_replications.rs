//! Replication-harness snapshot: runs the mix × population × contention
//! scenario grid through the multi-replication experiment harness twice —
//! once as a serial fold, once fanned across worker threads — verifies the
//! aggregates are **bit-identical**, and writes a `BENCH_replications.json`
//! record with the CI-bearing statistics and the serial/parallel
//! wall-clock.
//!
//! Usage: `cargo run --release -p burstcap-bench --bin bench_replications
//! [output.json]` (default output `BENCH_replications.json` in the current
//! directory).
//!
//! Environment knobs:
//!
//! * `BURSTCAP_BENCH_FAST=1` — smoke mode: fewer replications, shorter
//!   runs, a reduced grid (what CI uses);
//! * `BURSTCAP_REPLICATION_WORKERS=n` — parallel worker count (default 4).
//!
//! The scenario metadata and aggregate statistics in the JSON are fully
//! deterministic (CI diffs them across two runs); the `*_ms`, `speedup`
//! and `parallelism` fields are wall-clock snapshots of one machine and
//! are excluded from that diff.

use burstcap_bench::timing::Stopwatch;

use burstcap::experiment::Replications;
use burstcap_bench::json::{JsonObject, JsonValue};
use burstcap_bench::BASE_SEED;
use burstcap_stats::ci::mean_ci;
use burstcap_tpcw::contention::ContentionConfig;
use burstcap_tpcw::mix::Mix;
use burstcap_tpcw::monitor::TestbedRun;
use burstcap_tpcw::testbed::{Testbed, TestbedConfig};

struct Scenario {
    mix: Mix,
    ebs: usize,
    contention: &'static str,
}

struct Row {
    mix: &'static str,
    ebs: usize,
    contention: &'static str,
    replications: usize,
    throughput_mean: f64,
    throughput_half_width: f64,
    response_mean: f64,
    util_db_mean: f64,
    serial_ms: f64,
    parallel_ms: f64,
}

fn mix_name(mix: Mix) -> &'static str {
    match mix {
        Mix::Browsing => "browsing",
        Mix::Shopping => "shopping",
        Mix::Ordering => "ordering",
    }
}

fn contention_config(name: &str) -> ContentionConfig {
    match name {
        "none" => ContentionConfig::disabled(),
        "heavy" => ContentionConfig {
            trigger_probability: 0.2,
            slowdown: 9.0,
            ..ContentionConfig::default()
        },
        _ => ContentionConfig::default(),
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_replications.json".to_string());
    let fast = std::env::var_os("BURSTCAP_BENCH_FAST").is_some_and(|v| v != "0");
    let workers: usize = std::env::var("BURSTCAP_REPLICATION_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
        .max(2);
    let (replications, duration) = if fast { (4, 120.0) } else { (8, 300.0) };

    let mixes: &[Mix] = if fast {
        &[Mix::Browsing, Mix::Ordering]
    } else {
        &[Mix::Browsing, Mix::Shopping, Mix::Ordering]
    };
    let populations: &[usize] = if fast { &[25] } else { &[25, 75] };
    let contentions: &[&'static str] = if fast {
        &["default"]
    } else {
        &["default", "heavy"]
    };

    let mut scenarios = Vec::new();
    for &mix in mixes {
        for &ebs in populations {
            for &contention in contentions {
                scenarios.push(Scenario {
                    mix,
                    ebs,
                    contention,
                });
            }
        }
    }

    println!(
        "{}",
        burstcap_bench::header(&format!(
            "bench_replications: {} scenarios x {replications} replications, \
         serial fold vs {workers} workers",
            scenarios.len()
        ))
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut serial_total = 0.0;
    let mut parallel_total = 0.0;
    for sc in &scenarios {
        let testbed = Testbed::new(
            TestbedConfig::new(sc.mix, sc.ebs)
                .duration(duration)
                .seed(BASE_SEED)
                .contention(contention_config(sc.contention)),
        )
        .expect("valid scenario configuration");

        // Serial fold: the tpcw batch entry point.
        let t0 = Stopwatch::start();
        let serial = testbed
            .replications(replications)
            .expect("serial replications run");
        let serial_ms = t0.elapsed_ms();

        // Parallel fan over the identical replication list.
        let t0 = Stopwatch::start();
        let parallel = Replications::new(replications)
            .expect("valid plan")
            .workers(workers)
            .run(|rep| testbed.replication(rep.index))
            .expect("parallel replications run");
        let parallel_ms = t0.elapsed_ms();

        // Hard correctness gate: the parallel aggregate must be
        // bit-identical to the serial one.
        let agg = |runs: &[TestbedRun], f: fn(&TestbedRun) -> f64| {
            let values: Vec<f64> = runs.iter().map(f).collect();
            mean_ci(&values, 0.95).expect("two or more replications")
        };
        let x_serial = agg(&serial, |r| r.throughput);
        let x_parallel = agg(&parallel, |r| r.throughput);
        assert_eq!(
            x_serial.mean.to_bits(),
            x_parallel.mean.to_bits(),
            "parallel aggregate diverged from serial"
        );
        assert_eq!(
            x_serial.half_width.to_bits(),
            x_parallel.half_width.to_bits()
        );

        let r_mean = agg(&serial, |r| r.response_mean).mean;
        let u_db = agg(&serial, |r| {
            r.db_util.iter().sum::<f64>() / r.db_util.len() as f64
        })
        .mean;

        println!(
            "{}",
            burstcap_bench::row(
                &format!("{} ebs {} {}", mix_name(sc.mix), sc.ebs, sc.contention),
                &[
                    format!("X {:.1}±{:.1}", x_serial.mean, x_serial.half_width),
                    format!("serial {serial_ms:.0} ms"),
                    format!("par {parallel_ms:.0} ms"),
                    format!("{:.2}x", serial_ms / parallel_ms),
                ],
            )
        );

        serial_total += serial_ms;
        parallel_total += parallel_ms;
        rows.push(Row {
            mix: mix_name(sc.mix),
            ebs: sc.ebs,
            contention: sc.contention,
            replications,
            throughput_mean: x_serial.mean,
            throughput_half_width: x_serial.half_width,
            response_mean: r_mean,
            util_db_mean: u_db,
            serial_ms,
            parallel_ms,
        });
    }

    let speedup = serial_total / parallel_total;
    #[expect(
        clippy::disallowed_methods,
        reason = "reads the core count for reporting; spawns nothing outside core::experiment"
    )]
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "\nsweep wall-clock: serial {serial_total:.0} ms, parallel {parallel_total:.0} ms \
         ({speedup:.2}x at {workers} workers on {parallelism} hardware threads); \
         aggregates bit-identical"
    );

    // Shared deterministic JSON writer: one field per line, so CI's
    // second-run diff can filter the wall-clock fields (`_ms`, `speedup`,
    // `parallelism`) with grep and compare the rest byte for byte.
    let scenarios: Vec<JsonValue> = rows
        .iter()
        .map(|r| {
            JsonObject::new()
                .field("mix", r.mix)
                .field("ebs", r.ebs)
                .field("contention", r.contention)
                .field("replications", r.replications)
                .field("throughput_mean", JsonValue::f(r.throughput_mean, 9))
                .field(
                    "throughput_half_width",
                    JsonValue::f(r.throughput_half_width, 9),
                )
                .field("response_mean", JsonValue::f(r.response_mean, 9))
                .field("util_db_mean", JsonValue::f(r.util_db_mean, 9))
                .field("serial_ms", JsonValue::f(r.serial_ms, 3))
                .field("parallel_ms", JsonValue::f(r.parallel_ms, 3))
                .into()
        })
        .collect();
    let report = JsonObject::new()
        .field("bench", "bench_replications")
        .field("master_seed", BASE_SEED)
        .field("duration_seconds", JsonValue::f(duration, 1))
        .field("confidence_level", JsonValue::f(0.95, 2))
        .field("aggregates_bit_identical", true)
        .field("workers", workers)
        .field("parallelism", parallelism)
        .field("serial_total_ms", JsonValue::f(serial_total, 3))
        .field("parallel_total_ms", JsonValue::f(parallel_total, 3))
        .field("speedup", JsonValue::f(speedup, 3))
        .field("scenarios", scenarios);
    burstcap_bench::json::write_report(&out_path, &report);
    println!("wrote {out_path}");
}
