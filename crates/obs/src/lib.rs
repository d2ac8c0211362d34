//! Deterministic observability for the `burstcap` workspace.
//!
//! The paper this workspace reproduces (*"Burstiness in Multi-tier
//! Applications"*, MiCCS08) is an exercise in observing a multi-tier
//! system from coarse measurements. This crate turns the same discipline
//! inward: the solver stack and the online planner emit **structured,
//! replayable traces** of their own decisions — per-sweep residual
//! trajectories, engine selections, stall fallbacks, CUSUM statistics,
//! warm-vs-cold solves — without giving up a single determinism guarantee
//! the workspace already enforces.
//!
//! Three design rules make a trace a CI artifact instead of a log file:
//!
//! 1. **Logical clocks, no wall-clock.** Every event carries a sequence
//!    number assigned at emission ([`Event::seq`]); nothing in a recorded
//!    event reads `Instant::now` (the `clippy.toml` wall-clock ban applies
//!    to this crate like any other). Wall-clock context, when wanted, is
//!    attached through the sanctioned `burstcap_bench::timing` seam as a
//!    *volatile* field.
//! 2. **Serial emission.** Instrumented code emits from serial sections
//!    only — the replication workers compute, the serial pass after them
//!    emits — so the deterministic export is **byte-identical for every
//!    worker count** (tested in `core::experiment`).
//!    Whatever legitimately varies (worker counts, wall-clock attachments)
//!    is a [volatile event](Trace::volatile_event): visible in the full export,
//!    excluded from the deterministic one, and it does not advance the
//!    logical clock.
//! 3. **Near-zero default.** Every instrumented entry point takes a
//!    [`Trace`]; the default handle is a no-op whose operations are one
//!    `Option` check. `bench_obs` pins the overhead of the no-op *and* of
//!    a recording trace below 3% on the pop-100 sparse solve and the
//!    online ingest loop (`BENCH_obs.json`).
//!
//! # Example
//!
//! ```
//! use burstcap_obs::{metrics, Recorder, Trace};
//!
//! fn solve(trace: &Trace) -> f64 {
//!     let span = trace.span_with("demo.solve", vec![("states", 100_u64.into())]);
//!     let mut residual = 1.0;
//!     for iter in 0..4_u64 {
//!         residual /= 10.0;
//!         trace.event("demo.sweep", vec![("iter", iter.into()), ("residual", residual.into())]);
//!         trace.observe("demo.residual", metrics::RESIDUAL_DECADES, residual);
//!     }
//!     let _ = span.id(); // link the result to its span tree
//!     residual
//! }
//!
//! // Uninstrumented call sites pay one Option check:
//! assert!(solve(&Trace::noop()) < 1e-3);
//!
//! // Observed runs export a diffable one-field-per-line JSON trace:
//! let recorder = Recorder::new();
//! solve(&recorder.trace());
//! let json = recorder.deterministic_json();
//! assert!(json.contains("\"name\": \"demo.sweep\""));
//! assert!(json.contains("\"le_0.01\": 2"));
//! ```
//!
//! To instrument a new crate: take a `&Trace` parameter (or store a
//! `Trace` field defaulting to [`Trace::noop`]), namespace event names
//! with a crate prefix, emit only from serial sections, and mark anything
//! machine- or worker-count-dependent volatile. No dependency edge is
//! needed beyond `burstcap-obs` itself — this crate is a leaf.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code returns typed errors and owns no console; test code is exempt
// through clippy.toml (ARCHITECTURE.md, "Static analysis").
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro
)]

pub mod event;
pub mod metrics;
pub mod recorder;

pub use event::{Event, EventKind, FieldValue};
pub use metrics::{BucketLayout, Metric};
pub use recorder::{Recorder, SpanGuard, Trace};
