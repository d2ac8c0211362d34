//! Trace-determinism regression tests: the deterministic export of a
//! traced solve must be byte-identical from run to run.
//!
//! The matrix-free engine solves on the calling thread and emits every
//! recorded event from that one sequential iteration, so the serialized
//! log is a pure function of the model.

use burstcap_map::fit::Map2Fitter;
use burstcap_obs::Recorder;
use burstcap_qn::mapqn::MapNetwork;
use proptest::prelude::*;

fn bursty_tandem(pop: usize, z: f64, specs: &[(f64, f64)]) -> MapNetwork {
    let stations = specs
        .iter()
        .map(|&(mean, i)| Map2Fitter::new(mean, i, mean * 3.0).fit().unwrap().map())
        .collect();
    MapNetwork::tandem(pop, z, stations).unwrap()
}

/// Traced matrix-free solve of `net`, returning the deterministic export.
fn matfree_log(net: &MapNetwork) -> String {
    let recorder = Recorder::new();
    net.solve_matrix_free_with_initial_traced(1, None, &recorder.trace())
        .unwrap();
    recorder.deterministic_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance property of the observability layer: for random
    /// bursty tandems, the deterministic trace of a matrix-free solve is
    /// byte-identical when the solve runs twice.
    #[test]
    fn matfree_trace_is_byte_identical_across_runs(
        mean_f in 5e-3f64..0.03,
        mean_d in 5e-3f64..0.03,
        i_f in 1.5f64..40.0,
        i_d in 1.5f64..40.0,
        z in 0.1f64..0.8,
        pop in 2usize..9,
    ) {
        let net = bursty_tandem(pop, z, &[(mean_f, i_f), (mean_d, i_d)]);
        let first = matfree_log(&net);
        prop_assert!(first.contains("\"name\": \"matfree.solve\""));
        prop_assert!(first.contains("\"name\": \"matfree.sweep\""));
        let second = matfree_log(&net);
        prop_assert!(
            first == second,
            "trace diverged between runs\nfirst:\n{first}\nsecond:\n{second}"
        );
    }
}

#[test]
fn sweep_events_are_decimated_not_exhaustive() {
    // A stiff-ish tandem takes many iterations; the trace must record
    // O(log iterations) of them (power-of-two decimation plus the
    // accepting check), never the full trajectory.
    let net = bursty_tandem(6, 0.3, &[(0.02, 30.0), (0.015, 50.0)]);
    let recorder = Recorder::new();
    let (sol, _) = net
        .solve_matrix_free_with_initial_traced(1, None, &recorder.trace())
        .unwrap();
    let sweeps = sol.diagnostics.iterations;
    let recorded = recorder
        .events()
        .iter()
        .filter(|e| e.name == "matfree.sweep")
        .count();
    assert!(recorded >= 2, "expected at least two sweep events");
    let budget = (sweeps as f64).log2() as usize + 2;
    assert!(
        recorded <= budget,
        "{recorded} sweep events for {sweeps} sweeps exceeds the log budget {budget}"
    );
}

#[test]
fn solve_auto_records_engine_selection_and_span_ids() {
    // Tier 1 (direct): a tiny network under the sparse threshold.
    let net = bursty_tandem(2, 0.5, &[(0.01, 5.0)]);
    let recorder = Recorder::new();
    let (sol, _) = net
        .solve_auto_traced(10_000, None, &recorder.trace())
        .unwrap();
    let log = recorder.deterministic_json();
    assert!(log.contains("\"name\": \"qn.solve_auto\""));
    assert!(log.contains("\"name\": \"qn.engine\""));
    assert!(log.contains("\"engine\": \"direct\""));
    assert_ne!(sol.diagnostics.trace_id, 0, "solve_auto must link its span");

    // Tier 2 (sparse CSR): force the threshold to zero.
    let recorder = Recorder::new();
    let (sol, _) = net.solve_auto_traced(0, None, &recorder.trace()).unwrap();
    let log = recorder.deterministic_json();
    assert!(log.contains("\"engine\": \"sparse_csr\""));
    assert!(log.contains("\"name\": \"ctmc.solve\""));
    assert!(log.contains("\"name\": \"ctmc.sweep\""));
    assert_eq!(sol.diagnostics.engine.label(), "sparse_csr");
    assert!(sol.diagnostics.final_residual > 0.0);
    assert_ne!(sol.diagnostics.trace_id, 0);
}

#[test]
fn untraced_solves_emit_nothing_and_repeat_traced_results() {
    // The no-op trace must not alter results: an untraced solve and a
    // traced solve of the same model agree to the last bit.
    let net = bursty_tandem(5, 0.4, &[(0.012, 12.0), (0.02, 25.0)]);
    let recorder = Recorder::new();
    let (traced, pi_t) = net
        .solve_matrix_free_with_initial_traced(1, None, &recorder.trace())
        .unwrap();
    let (untraced, pi_u) = net.solve_matrix_free_with_initial(1, None).unwrap();
    assert_eq!(traced.throughput.to_bits(), untraced.throughput.to_bits());
    assert_eq!(pi_t.len(), pi_u.len());
    for (a, b) in pi_t.iter().zip(&pi_u) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    // The only diagnostics difference is the trace link itself.
    assert_eq!(untraced.diagnostics.trace_id, 0);
    assert_ne!(traced.diagnostics.trace_id, 0);
    assert_eq!(
        traced.diagnostics.sweeps_per_engine,
        untraced.diagnostics.sweeps_per_engine
    );
    assert!(recorder.event_count() > 0);
}
