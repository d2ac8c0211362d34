//! A TPC-W multi-tier testbed simulator.
//!
//! The paper's experiments run on a physical three-tier TPC-W deployment
//! (Apache/Tomcat front server + MySQL database, monitored by `sar` and HP
//! Diagnostics). This crate is the workspace's substitute for that hardware:
//! a discrete-event simulator that reproduces the testbed's *observable
//! behaviour* — the coarse monitoring series the paper's methodology
//! consumes, and the burstiness symptoms its Section 3 diagnoses:
//!
//! * [`transactions`] — the 14 TPC-W transaction types (Table 3) with
//!   per-type front-server demands and database query profiles;
//! * [`mix`] — the three standard transaction mixes (browsing, shopping,
//!   ordering) as Customer Behavior Model Graphs;
//! * [`contention`] — the "hidden resource contention" of Section 3.3: Best
//!   Seller and Home transactions share a database resource; concurrent
//!   access triggers contended episodes in which their queries slow down by
//!   a multiplicative factor, producing service burstiness and the
//!   bottleneck-switch phenomenon under the browsing mix;
//! * [`testbed`] — the three-tier discrete-event simulation itself:
//!   emulated browsers with exponential think times navigate the CBMG; each
//!   transaction interleaves front-server CPU slices with synchronous
//!   database queries on processor-sharing servers;
//! * [`monitor`] — `sar`-style utilization samples (1 s), HP
//!   Diagnostics-style completion counts (5 s), queue-length and per-type
//!   in-system series, with warm-up/cool-down trimming.
//!
//! # Example
//!
//! ```no_run
//! use burstcap_tpcw::testbed::{Testbed, TestbedConfig};
//! use burstcap_tpcw::mix::Mix;
//!
//! let config = TestbedConfig::new(Mix::Browsing, 100).duration(600.0);
//! let run = Testbed::new(config)?.run()?;
//! println!("throughput: {:.1} tx/s", run.throughput);
//! # Ok::<(), burstcap_tpcw::TpcwError>(())
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

pub mod contention;
mod error;
pub mod mix;
pub mod monitor;
pub mod testbed;
pub mod transactions;

pub use error::TpcwError;
