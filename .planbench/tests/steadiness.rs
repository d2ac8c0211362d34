//! Steadiness self-test: two traced runs of one workload at one seed must
//! agree exactly on every count (states, nonzeros, sweeps per engine,
//! fallbacks, re-fits, warm and cold solves, windows, events) and on every
//! prediction bit for bit, with no failed operation, at the default seed
//! and at one other seed. A traced run also checks that its curve equals
//! the untraced one bit for bit, that its layer spans cover the traced
//! pass within `TRACE_SLACK_PCT`, and (online) that the outside replay of
//! every re-fit reproduces the planner's throughput; all count against
//! `correct`.
//!
//! Run with `cargo test --release` from this directory (minutes in debug).

use planbench::inputs::{Workload, BASE_SEED};
use planbench::run::{run, Config, Outcome};

const OTHER_SEED: u64 = 7;

fn counts(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    outcome
        .metrics
        .iter()
        .filter(|m| m.2 == "count")
        .map(|m| (m.0, m.1))
        .collect()
}

fn check_repeats(workload: Workload) {
    planbench::pin_solver_workers();
    for seed in [BASE_SEED, OTHER_SEED] {
        let cfg = Config {
            workload,
            seed,
            seconds: 0.1,
            trace: true,
            perturb: 0.0,
        };
        let a = run(&cfg).expect("first run sets up");
        let b = run(&cfg).expect("second run sets up");
        for o in [&a, &b] {
            assert!(
                o.correct && o.failed == 0,
                "{} seed {seed}: {} of {} failed; {:?}",
                workload.name(),
                o.failed,
                o.attempted,
                o.notes
            );
        }
        assert!(!a.prediction_bits.is_empty());
        assert_eq!(a.prediction_bits, b.prediction_bits, "predictions moved");
        assert_eq!(counts(&a), counts(&b), "counts moved");
        assert!(counts(&a).iter().any(|c| c.0 == "qn.states" && c.1 > 0.0));
    }
}

#[test]
fn plan_2tier_sweep_repeats() {
    check_repeats(Workload::Plan2TierSweep);
}

#[test]
fn plan_3tier_frontier_repeats() {
    check_repeats(Workload::Plan3TierFrontier);
}

#[test]
fn online_shifts_repeats() {
    check_repeats(Workload::OnlineShifts);
}
