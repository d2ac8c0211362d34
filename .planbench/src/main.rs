//! Command line of the planner benchmark.
//!
//! ```text
//! planbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!           [--perturb-reference R]
//! ```
//!
//! Prints the run's notes, every metric with its unit, the fail rate, and
//! as the last line one JSON object. Exits 0 when every prediction passed
//! the gate, 1 when one failed, 2 on a usage or set-up error.

use std::process::ExitCode;

use planbench::inputs::{Workload, BASE_SEED};
use planbench::run::{run, Config};

fn usage(msg: &str) -> ExitCode {
    eprintln!("planbench: {msg}");
    eprintln!(
        "usage: planbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] \
         [--perturb-reference R]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workloads = None;
    let mut seed = BASE_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut perturb = 0.0;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" if value == "all" => {
                workloads = Some(Workload::ALL.to_vec());
                true
            }
            "--workload" => Workload::parse(&value)
                .map(|w| workloads = Some(vec![w]))
                .is_some(),
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| seconds = v)
                .is_ok_and(|()| seconds > 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            "--perturb-reference" => value.parse().map(|v| perturb = v).is_ok(),
            _ => return usage(&format!("unknown argument {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workloads) = workloads else {
        return usage("--workload is required");
    };
    planbench::pin_solver_workers();

    let mut all_correct = true;
    for workload in workloads {
        let cfg = Config {
            workload,
            seed,
            seconds,
            trace,
            perturb,
        };
        println!(
            "planbench {} seed={seed} seconds={seconds} trace={} workers={}",
            workload.name(),
            u8::from(trace),
            planbench::solver_workers()
        );
        let outcome = match run(&cfg) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("planbench: {}: {e}", workload.name());
                return ExitCode::from(2);
            }
        };
        for note in &outcome.notes {
            println!("  {note}");
        }
        for (name, value, unit) in &outcome.metrics {
            if *value != 0.0 && value.abs() < 1e-3 {
                println!("  {name:<32} {value:>16.6e} {unit}");
            } else {
                println!("  {name:<32} {value:>16.6} {unit}");
            }
        }
        println!(
            "  {:<32} {:>16.6} ratio ({} of {} operations failed)",
            "fail_rate",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            outcome.failed,
            outcome.attempted
        );
        println!("{}", planbench::result_json(&outcome));
        all_correct &= outcome.correct;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
