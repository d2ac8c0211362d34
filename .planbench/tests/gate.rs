//! The correctness gate fires: a reference perturbed by 1e-4 (a hundred
//! times the gate's tolerance) makes the command print `"correct": false`
//! and exit 1, on a batch and on the online workload.

use std::process::Command;

fn run(workload: &str, perturb: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_planbench"))
        .args(["--workload", workload, "--seconds", "0.1"])
        .args(["--perturb-reference", perturb])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    (out.status.code(), last)
}

#[test]
fn perturbed_reference_fails_the_run() {
    for workload in ["plan_3tier_frontier", "online_shifts"] {
        let (code, last) = run(workload, "0");
        assert_eq!(code, Some(0), "{workload}: {last}");
        assert!(last.contains("\"correct\": true, "), "{last}");
        assert!(last.contains("\"failed\": 0, "), "{last}");

        let (code, last) = run(workload, "1e-4");
        assert_eq!(code, Some(1), "{workload}: {last}");
        assert!(last.contains("\"correct\": false, "), "{last}");
        assert!(!last.contains("\"failed\": 0, "), "{last}");
    }
}
