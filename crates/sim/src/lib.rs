//! Discrete-event queueing simulation for the `burstcap` workspace.
//!
//! This crate is the simulation substrate of the reproduction of
//! *"Burstiness in Multi-tier Applications: Symptoms, Causes, and New
//! Models"* (MIDDLEWARE 2008). It provides:
//!
//! * [`engine`] — a deterministic event calendar (binary heap keyed by time
//!   with FIFO tie-breaking);
//! * [`dists`] — the service/think-time distributions used by the paper's
//!   experiments (exponential, two-phase PH, deterministic, uniform);
//! * [`measure`] — monitoring probes producing exactly the coarse series the
//!   paper's estimators consume: per-window utilization, per-window
//!   completion counts, sampled queue lengths, and response-time tallies;
//! * [`station`] — a processor-sharing server with per-job work (the
//!   front/database CPUs of the testbed simulator);
//! * [`queues`] — canned models: the open **M/Trace/1** queue of Table 1 and
//!   the closed **MAP queueing network** of Figure 9 (delay → front → DB),
//!   simulated exactly for cross-validation of the analytic solver;
//! * [`seeds`] — SplitMix64 seed derivation giving every simulator and
//!   every replication its own decorrelated RNG stream.
//!
//! # Example: Table 1's queue in three lines
//!
//! ```
//! use burstcap_sim::queues::MTrace1;
//!
//! let service = vec![1.0; 20_000]; // deterministic unit service
//! let result = MTrace1::new(0.5, service)?.run(7)?; // rho = 0.5
//! assert!(result.response_time_mean() >= 1.0);
//! # Ok::<(), burstcap_sim::SimError>(())
//! ```

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

pub mod dists;
pub mod engine;
mod error;
pub mod measure;
pub mod queues;
pub mod seeds;
pub mod station;

pub use error::SimError;
