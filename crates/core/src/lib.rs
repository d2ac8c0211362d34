//! Burstiness-aware capacity planning for multi-tier applications.
//!
//! This crate is the end-to-end implementation of the methodology of
//! *"Burstiness in Multi-tier Applications: Symptoms, Causes, and New
//! Models"* (Mi, Casale, Cherkasova, Smirni — MIDDLEWARE 2008): predict the
//! throughput of a two-tier closed system from nothing but **coarse
//! monitoring measurements**, staying accurate even when service burstiness
//! causes the bottleneck to switch between tiers.
//!
//! The pipeline has three stages, one module each:
//!
//! 1. [`measurements`] — adapt per-window utilization samples (`sar`-style)
//!    and completion counts (HP Diagnostics-style) into
//!    [`measurements::TierMeasurements`];
//! 2. [`characterize`] — extract the paper's three service descriptors per
//!    tier: the **mean service demand** (utilization-law regression), the
//!    **index of dispersion** (the Figure 2 algorithm), and the **95th
//!    percentile** of service times (busy-period scaling);
//! 3. [`planner`] — fit a MAP(2) per tier (Section 4.1) and solve the closed
//!    MAP queueing network exactly for each target population, with a
//!    classical MVA baseline for comparison; [`report`] tabulates
//!    model-versus-measured accuracy.
//!
//! Validation runs go through [`experiment`]: R independent replications of
//! any scenario, fanned across scoped worker threads with per-replication
//! RNG streams (`burstcap_sim::seeds`) and aggregated into Student-t
//! confidence intervals instead of point estimates.
//!
//! # Example
//!
//! ```
//! use burstcap::measurements::TierMeasurements;
//! use burstcap::planner::CapacityPlanner;
//!
//! // Synthetic monitoring: a steady front tier and a steady database.
//! let front = TierMeasurements::new(5.0, vec![0.50; 200], vec![250; 200])?;
//! let db = TierMeasurements::new(5.0, vec![0.25; 200], vec![250; 200])?;
//! let planner = CapacityPlanner::from_measurements(&front, &db)?;
//! let prediction = planner.predict(50, 0.5)?;
//! assert!(prediction.throughput > 0.0);
//! # Ok::<(), burstcap::PlanError>(())
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

pub mod characterize;
mod error;
pub mod experiment;
pub mod measurements;
pub mod planner;
pub mod report;

pub use error::PlanError;
