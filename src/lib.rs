//! Umbrella crate for the `burstcap` workspace.
//!
//! Re-exports every member crate so examples and cross-crate integration
//! tests can use one dependency. The substance lives in:
//!
//! * [`burstcap`] — the capacity-planning methodology (the paper's
//!   contribution);
//! * [`burstcap_stats`] — measurement statistics (index of dispersion,
//!   busy-period analysis, regression, bottleneck detection);
//! * [`burstcap_map`] — Markovian Arrival Processes and the Section 4.1
//!   fitting pipeline;
//! * [`burstcap_sim`] — the discrete-event simulation engine;
//! * [`burstcap_tpcw`] — the TPC-W testbed simulator;
//! * [`burstcap_qn`] — MVA and exact MAP-queueing-network solvers;
//! * [`burstcap_online`] — streaming ingestion and the continuous
//!   (rolling re-fit/re-solve) planner.

#![forbid(unsafe_code)]
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

pub use burstcap;
pub use burstcap_map;
pub use burstcap_online;
pub use burstcap_qn;
pub use burstcap_sim;
pub use burstcap_stats;
pub use burstcap_tpcw;
