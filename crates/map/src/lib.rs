//! Markovian Arrival Processes (MAPs) for bursty-workload modeling.
//!
//! This crate implements the stochastic-process substrate of the `burstcap`
//! workspace, the reproduction of *"Burstiness in Multi-tier Applications:
//! Symptoms, Causes, and New Models"* (MIDDLEWARE 2008):
//!
//! * [`ph`] — phase-type distributions, including the balanced-means
//!   two-phase hyperexponential the paper uses as marginal;
//! * [`map2`] — validated two-phase MAPs ([`Map2`]) with closed-form
//!   stationary analysis: inter-event moments, lag-k autocorrelations, the
//!   geometric decay rate, and the asymptotic **index of dispersion**;
//! * [`fit`] — the paper's Section 4.1 fitting pipeline: given a mean
//!   service time, an index of dispersion `I`, and a 95th percentile, search
//!   a family of MAP(2)s with at most ±20% error on `I` and pick the
//!   candidate whose p95 is closest (ties to the largest lag-1
//!   autocorrelation, per the paper's footnote 8);
//! * [`sampler`] — exact simulation of MAP event sequences;
//! * [`trace`] — the Figure 1 trace workshop: identically distributed
//!   hyperexponential samples with increasing imposed burstiness;
//! * [`general`] — n-state MAPs for extensions beyond two phases.
//!
//! # Example: fit a MAP(2) from the paper's three descriptors
//!
//! ```
//! use burstcap_map::fit::Map2Fitter;
//!
//! // A bursty service process: mean 1 ms, I = 100, p95 = 3 ms.
//! let fitted = Map2Fitter::new(0.001, 100.0, 0.003).fit()?;
//! let map = fitted.map();
//! assert!((map.mean() - 0.001).abs() / 0.001 < 1e-6);
//! assert!((map.index_of_dispersion() - 100.0).abs() / 100.0 < 0.2);
//! # Ok::<(), burstcap_map::MapError>(())
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

mod error;
pub mod expm;
pub mod fit;
pub mod general;
pub mod map2;
pub mod ph;
pub mod sampler;
pub mod trace;

pub use error::MapError;
pub use map2::Map2;
