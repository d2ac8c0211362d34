//! Streaming ingestion and continuous capacity planning.
//!
//! Every other crate in the `burstcap` workspace is batch: the whole
//! monitoring trace exists before characterization, fitting, or solving
//! begins. This crate turns the pipeline into a continuously-running one — a
//! production planner that watches a live utilization/completion feed and
//! re-plans as the workload drifts:
//!
//! * [`window`] — the ingestion surface: [`window::MonitorWindow`] (one
//!   monitoring interval across all tiers) produced one at a time by a
//!   [`window::WindowSource`]. [`window::ReplaySource`] adapts recorded
//!   series and TPC-W testbed runs; [`sar::SarTextSource`] parses plain-text
//!   `sar`-style logs.
//! * [`estimator`] — per-tier streaming characterization on the one-pass
//!   estimators of [`burstcap_stats::streaming`]: incremental
//!   utilization-law regression, append-only Figure 2 dispersion levels,
//!   and P² tail sketches.
//! * [`detector`] — CUSUM regime-change detection on the per-window demand,
//!   separating estimator refinement from genuine workload shifts.
//! * [`planner`] — [`planner::OnlinePlanner`], the rolling re-fit/re-solve
//!   loop: MAP(2)s are re-fitted and the CTMC re-solved **only** when
//!   descriptors drift past a threshold or a detector fires, and each
//!   solve is one warm-started call of the engine ladder with the online
//!   policy ([`burstcap_qn::mapqn::MapNetwork::solve_tiers`]). Each
//!   replanning tick emits a [`burstcap::report::OnlineReport`].
//!
//! # Example
//!
//! ```
//! use burstcap_online::planner::{OnlinePlanner, OnlinePlannerOptions};
//! use burstcap_online::sar::SarTextSource;
//!
//! // Two windows of a sar-style feed won't reach a fit, but the whole
//! // pipeline wires together in a few lines.
//! let feed = "# resolution: 5\n\
//!             12:00:05 42.0% 210 18.5% 205\n\
//!             12:00:10 45.5% 221 21.0% 217\n";
//! let mut source = SarTextSource::parse(feed)?;
//! let mut planner = OnlinePlanner::new(5.0, 2, OnlinePlannerOptions::new(60, 0.5))?;
//! let reports = planner.drain(&mut source)?;
//! assert!(reports.is_empty()); // needs min_windows before the first fit
//! assert_eq!(planner.windows_ingested(), 2);
//! # Ok::<(), burstcap_online::OnlineError>(())
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

pub mod detector;
mod error;
pub mod estimator;
pub mod planner;
pub mod sar;
pub mod window;

pub use error::OnlineError;
pub use planner::{OnlinePlanner, OnlinePlannerOptions};
pub use window::{MonitorWindow, TierSample, WindowSource};
