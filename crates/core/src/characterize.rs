//! Service-process characterization: the paper's three descriptors from
//! coarse measurements.
//!
//! For each tier the methodology needs exactly three numbers (Section 4.1):
//!
//! * the **mean service demand**, from utilization-law regression
//!   (`U_k * T ≈ S * n_k`);
//! * the **index of dispersion** `I`, from the Figure 2 counting-process
//!   algorithm over concatenated busy periods;
//! * the **95th percentile of service times**, from the busy-time p95 scaled
//!   by the median per-window completion count.
//!
//! [`characterize`] runs all three on a [`TierMeasurements`] series.

use serde::{Deserialize, Serialize};

use burstcap_stats::busy::ServicePercentileEstimator;
use burstcap_stats::dispersion::DispersionEstimator;
use burstcap_stats::regression::estimate_demand;

use crate::measurements::TierMeasurements;
use crate::PlanError;

/// Knobs of the characterization stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CharacterizeOptions {
    /// Stopping tolerance of the Figure 2 estimator. The paper's
    /// illustrative value is 0.2; a tighter default lets the `Y(t)` curve of
    /// strongly bursty processes climb closer to its asymptote when the
    /// trace is long enough.
    pub dispersion_tolerance: f64,
    /// Minimum windows per aggregation level (the paper's 100).
    pub min_windows: usize,
    /// Quantile to estimate (0.95 in the paper).
    pub quantile: f64,
}

impl Default for CharacterizeOptions {
    fn default() -> Self {
        CharacterizeOptions {
            dispersion_tolerance: 0.05,
            min_windows: 100,
            quantile: 0.95,
        }
    }
}

/// The three descriptors of a tier's service process, plus estimator
/// diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceCharacterization {
    /// Mean service demand per completed request (seconds).
    pub mean_service_time: f64,
    /// Index of dispersion of the service process.
    pub index_of_dispersion: f64,
    /// Estimated 95th percentile of service times (seconds).
    pub p95_service_time: f64,
    /// Whether the Figure 2 stopping rule converged (`false` means the last
    /// aggregation level was returned best-effort).
    pub dispersion_converged: bool,
    /// Goodness of fit of the demand regression.
    pub regression_r_squared: f64,
}

/// Characterize one tier's service process from its monitoring series.
///
/// # Errors
/// Propagates estimator failures (trace too short for Figure 2, degenerate
/// utilization, no completions).
///
/// # Example
/// ```
/// use burstcap::characterize::{characterize, CharacterizeOptions};
/// use burstcap::measurements::TierMeasurements;
///
/// let m = TierMeasurements::new(5.0, vec![0.4; 150], vec![200; 150])?;
/// let c = characterize(&m, CharacterizeOptions::default())?;
/// assert!((c.mean_service_time - 0.01).abs() < 1e-9); // 2 s busy / 200 jobs
/// # Ok::<(), burstcap::PlanError>(())
/// ```
///
/// # Panics
///
/// Only if a justified internal invariant is violated (6 reachable
/// panic sites, e.g. `crates/stats/src/dispersion.rs:277`; `burstcap-lint report` lists them),
/// never for inputs this API accepts.
pub fn characterize(
    measurements: &TierMeasurements,
    options: CharacterizeOptions,
) -> Result<ServiceCharacterization, PlanError> {
    let demand = estimate_demand(
        measurements.utilization(),
        measurements.completions(),
        measurements.resolution(),
    )?;
    let dispersion = DispersionEstimator::new(measurements.resolution())
        .tolerance(options.dispersion_tolerance)
        .min_windows(options.min_windows)
        .estimate(measurements.utilization(), measurements.completions())?;
    let tail = ServicePercentileEstimator::new(measurements.resolution())
        .quantile(options.quantile)
        .estimate(measurements.utilization(), measurements.completions())?;

    Ok(ServiceCharacterization {
        mean_service_time: demand.mean_service_time,
        index_of_dispersion: dispersion.index_of_dispersion(),
        p95_service_time: tail.p95_service_time,
        dispersion_converged: dispersion.converged(),
        regression_r_squared: demand.r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(resolution: f64, util: f64, n: u64, windows: usize) -> TierMeasurements {
        TierMeasurements::new(resolution, vec![util; windows], vec![n; windows]).unwrap()
    }

    #[test]
    fn steady_series_yields_consistent_descriptors() {
        // 0.5 busy-seconds per window, 50 completions: S = 10 ms.
        let m = steady(1.0, 0.5, 50, 400);
        let c = characterize(&m, CharacterizeOptions::default()).unwrap();
        assert!((c.mean_service_time - 0.01).abs() < 1e-9);
        // Deterministic counts: dispersion collapses to ~0.
        assert!(c.index_of_dispersion < 0.1);
        assert!(c.dispersion_converged);
        // Constant busy time and counts: p95(S) = B/n = 10 ms.
        assert!((c.p95_service_time - 0.01).abs() < 1e-9);
    }

    #[test]
    fn bursty_counts_raise_dispersion() {
        // Regime-switching completion counts at constant utilization.
        let mut util = Vec::new();
        let mut n = Vec::new();
        for block in 0..40 {
            for _ in 0..20 {
                util.push(0.8);
                n.push(if block % 2 == 0 { 10u64 } else { 90 });
            }
        }
        let m = TierMeasurements::new(5.0, util, n).unwrap();
        let c = characterize(&m, CharacterizeOptions::default()).unwrap();
        assert!(
            c.index_of_dispersion > 10.0,
            "I = {}",
            c.index_of_dispersion
        );
    }

    #[test]
    fn short_series_fails_cleanly() {
        let m = steady(1.0, 0.5, 10, 20);
        assert!(matches!(
            characterize(&m, CharacterizeOptions::default()),
            Err(PlanError::Estimation(_))
        ));
    }

    #[test]
    fn options_are_honored() {
        let m = steady(1.0, 0.5, 50, 400);
        let c = characterize(
            &m,
            CharacterizeOptions {
                quantile: 0.5,
                ..CharacterizeOptions::default()
            },
        )
        .unwrap();
        // Median of constant busy times equals the same scaled value.
        assert!((c.p95_service_time - 0.01).abs() < 1e-9);
    }
}
