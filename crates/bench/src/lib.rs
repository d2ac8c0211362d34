//! Experiment harness shared by the per-figure/table regeneration binaries
//! and the `bench_*` record writers.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the full index) and prints rows in a stable,
//! grep-friendly format. The helpers here keep run parameters consistent
//! across experiments: common seeds, run lengths, EB sweeps, and formatting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The experiment harness may abort on a broken invariant, but its library
// owns no console: only the binaries under `src/bin/` print. The panic
// lints of the other library roots do not apply here.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use burstcap_tpcw::mix::Mix;
use burstcap_tpcw::monitor::TestbedRun;
use burstcap_tpcw::testbed::{Testbed, TestbedConfig};
use burstcap_tpcw::TpcwError;

/// The EB sweep used by the paper's Figures 4, 10 and 12.
pub const EB_SWEEP: [usize; 6] = [25, 50, 75, 100, 125, 150];

/// Default simulated duration for sweep experiments (seconds). The paper
/// runs 3 hours per point; simulated time is cheap enough that 10 minutes
/// per point gives tight estimates, and every binary accepts an override.
pub const SWEEP_DURATION: f64 = 600.0;

/// The workspace-wide base seed: every experiment derives its streams from
/// this value so published tables regenerate identically.
pub const BASE_SEED: u64 = 20080901; // Middleware 2008 vintage.

/// Run the testbed for one `(mix, ebs)` point with harness defaults.
///
/// # Errors
/// Propagates testbed configuration/run errors.
pub fn run_testbed(
    mix: Mix,
    ebs: usize,
    duration: f64,
    seed: u64,
) -> Result<TestbedRun, TpcwError> {
    Testbed::new(TestbedConfig::new(mix, ebs).duration(duration).seed(seed))?.run()
}

/// Render a one-line table row: label column padded to 28 chars, then
/// values.
pub fn row(label: &str, values: &[String]) -> String {
    let mut out = format!("{label:<28}");
    for v in values {
        out.push_str(&format!("{v:>12}"));
    }
    out
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Render a section header for experiment output; the binary owns the
/// printing (library code keeps off stdout — the crate root denies
/// `clippy::print_stdout`).
#[must_use]
pub fn header(title: &str) -> String {
    format!("\n=== {title} ===")
}

pub mod figures;
pub mod json;
pub mod timing;

pub mod experiments {
    //! Shared experiment drivers for the Figure 10/11/12 reproduction
    //! binaries: measured sweeps, estimation runs, and planner assembly.

    use burstcap::measurements::TierMeasurements;
    use burstcap::planner::{CapacityPlanner, MvaBaseline, PlannerOptions};
    use burstcap::PlanError;
    use burstcap_tpcw::mix::Mix;
    use burstcap_tpcw::monitor::{TestbedRun, TierId};
    use burstcap_tpcw::testbed::{Testbed, TestbedConfig};

    use crate::BASE_SEED;

    /// Duration of the estimation run the MAPs are fitted from (seconds of
    /// simulated time). The paper uses 3-hour runs; 1 hour of simulated
    /// time yields ~700 coarse windows, comfortably above the Figure 2
    /// algorithm's 100-window floor.
    pub const ESTIMATION_DURATION: f64 = 3600.0;

    /// Duration of each measured sweep point (seconds of simulated time).
    pub const MEASURE_DURATION: f64 = 900.0;

    /// Run the testbed once and adapt one tier's monitoring output to the
    /// planner's schema.
    pub fn tier_measurements(
        run: &TestbedRun,
        tier: TierId,
    ) -> Result<TierMeasurements, PlanError> {
        let m = run
            .monitoring(tier)
            .map_err(|e| PlanError::InvalidMeasurements {
                reason: e.to_string(),
            })?;
        TierMeasurements::new(m.resolution, m.utilization, m.completions)
    }

    /// Collect the estimation trace for a mix at the given `Z_estim` and EB
    /// count, and build both planners from it.
    ///
    /// # Errors
    /// Propagates testbed and planner failures.
    pub fn planners_from_estimation_run(
        mix: Mix,
        z_estim: f64,
        ebs_estim: usize,
        duration: f64,
        seed: u64,
    ) -> Result<(CapacityPlanner, MvaBaseline, TestbedRun), PlanError> {
        let run = Testbed::new(
            TestbedConfig::new(mix, ebs_estim)
                .think_time(z_estim)
                .duration(duration)
                .seed(seed),
        )
        .and_then(|t| t.run())
        .map_err(|e| PlanError::InvalidMeasurements {
            reason: e.to_string(),
        })?;
        let front = tier_measurements(&run, TierId::Front)?;
        let db = tier_measurements(&run, TierId::Db)?;
        let planner = CapacityPlanner::with_options(&front, &db, PlannerOptions::default())?;
        let mva = MvaBaseline::from_measurements(&front, &db)?;
        Ok((planner, mva, run))
    }

    /// Measure the real (simulated-testbed) throughput across an EB sweep.
    ///
    /// # Errors
    /// Propagates testbed failures.
    pub fn measured_sweep(
        mix: Mix,
        populations: &[usize],
        think_time: f64,
        duration: f64,
    ) -> Result<Vec<(usize, TestbedRun)>, PlanError> {
        populations
            .iter()
            .enumerate()
            .map(|(k, &ebs)| {
                let run = Testbed::new(
                    TestbedConfig::new(mix, ebs)
                        .think_time(think_time)
                        .duration(duration)
                        .seed(BASE_SEED + 100 + k as u64),
                )
                .and_then(|t| t.run())
                .map_err(|e| PlanError::InvalidMeasurements {
                    reason: e.to_string(),
                })?;
                Ok((ebs, run))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_formats_padded_columns() {
        let r = row("label", &["1.0".into(), "2.0".into()]);
        assert!(r.starts_with("label"));
        assert!(r.len() >= 28 + 24);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(pct(0.123), "12.3%");
    }

    #[test]
    fn quick_testbed_run_works() {
        let run = run_testbed(Mix::Ordering, 5, 120.0, 1).unwrap();
        assert!(run.throughput > 0.0);
    }
}
