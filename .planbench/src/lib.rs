//! The planner benchmark: a seeded monitoring feed in, a checked prediction
//! out, timed end to end and layer by layer. See `README.md` beside
//! `Cargo.toml` for the workloads, the metrics and what each one measures.

pub mod batch;
pub mod gate;
pub mod heap;
pub mod inputs;
pub mod layers;
pub mod online;
pub mod run;
pub mod spans;

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Matrix-free worker threads: 2, capped at the machine's parallelism.
pub fn solver_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Pin the matrix-free engine's default worker count (the library reads
/// `BURSTCAP_SOLVER_WORKERS`) to [`solver_workers`], so runs on machines
/// with more cores measure the same thread count.
pub fn pin_solver_workers() {
    std::env::set_var("BURSTCAP_SOLVER_WORKERS", solver_workers().to_string());
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(outcome: &run::Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
