//! Measurement statistics for bursty workloads.
//!
//! This crate is the measurement substrate of the `burstcap` workspace, the
//! reproduction of *"Burstiness in Multi-tier Applications: Symptoms, Causes,
//! and New Models"* (Mi, Casale, Cherkasova, Smirni — MIDDLEWARE 2008).
//!
//! It provides everything needed to turn **coarse monitoring output**
//! (per-window utilization samples and request-completion counts, exactly what
//! tools like `sar` and HP Diagnostics emit) into the three service-process
//! descriptors the paper's methodology consumes:
//!
//! * the **mean service time**, via utilization-law regression
//!   ([`regression`]),
//! * the **index of dispersion** `I`, via the estimation algorithm of the
//!   paper's Figure 2 ([`dispersion::DispersionEstimator`]),
//! * the **95th percentile** of service times, via busy-period scaling
//!   ([`busy::ServicePercentileEstimator`]).
//!
//! It also provides the symptom detectors of the paper's Section 3
//! ([`bottleneck`]) and classical time-series tooling ([`acf`], [`hurst`],
//! [`descriptive`]) used throughout the workspace.
//!
//! All three descriptor estimators exist in a second, **streaming** form
//! ([`streaming`]): one-pass counterparts that ingest monitoring windows as
//! they arrive (running normal-equation sums, append-only Figure 2
//! aggregation levels, P² quantile sketches) — the substrate of the
//! continuous planner in `burstcap-online`.
//!
//! # Example
//!
//! Estimating the index of dispersion from utilization and completion-count
//! windows (the paper's Figure 2 algorithm):
//!
//! ```
//! use burstcap_stats::dispersion::DispersionEstimator;
//!
//! // 400 monitoring windows of a steady server: utilization 0.5, 30
//! // completions per window. A memoryless service process has I close to 1.
//! let util = vec![0.5_f64; 400];
//! let completions = vec![30_u64; 400];
//! let estimate = DispersionEstimator::new(1.0)
//!     .tolerance(0.2)
//!     .estimate(&util, &completions)?;
//! assert!(estimate.index_of_dispersion() >= 0.0);
//! # Ok::<(), burstcap_stats::StatsError>(())
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

pub mod acf;
pub mod bottleneck;
pub mod busy;
pub mod ci;
pub mod descriptive;
pub mod dispersion;
mod error;
pub mod hurst;
pub mod regression;
pub mod streaming;

pub use error::StatsError;
