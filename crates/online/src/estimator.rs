//! Per-tier streaming characterization: the paper's three descriptors,
//! maintained window by window.
//!
//! [`TierEstimator`] bundles the three one-pass estimators of
//! [`burstcap_stats::streaming`] — demand regression, index of dispersion,
//! and the p95 tail — and materializes a
//! [`ServiceCharacterization`] on demand, mirroring the batch
//! [`burstcap::characterize::characterize`] stage of the offline pipeline.

use serde::{Deserialize, Serialize};

use burstcap::characterize::ServiceCharacterization;
use burstcap_stats::streaming::{StreamingDemand, StreamingDispersion, StreamingServicePercentile};

use crate::window::TierSample;
use crate::OnlineError;

/// Knobs of the streaming characterization stage; defaults mirror the batch
/// [`burstcap::characterize::CharacterizeOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierEstimatorOptions {
    /// Stopping tolerance of the streaming Figure 2 estimator.
    pub dispersion_tolerance: f64,
    /// Minimum windows per aggregation level (the paper's 100).
    pub dispersion_min_windows: usize,
    /// Cap on maintained aggregation levels.
    pub dispersion_max_levels: usize,
    /// Quantile tracked by the tail sketch (0.95 in the paper).
    pub quantile: f64,
}

impl Default for TierEstimatorOptions {
    fn default() -> Self {
        TierEstimatorOptions {
            dispersion_tolerance: 0.05,
            dispersion_min_windows: 100,
            // The batch default of 512 levels exists for very long traces;
            // a live feed replans long before it could fill them, and every
            // maintained level costs work per arriving window.
            dispersion_max_levels: 64,
            quantile: 0.95,
        }
    }
}

/// Streaming characterizer for one tier.
///
/// # Example
/// ```
/// use burstcap_online::estimator::{TierEstimator, TierEstimatorOptions};
/// use burstcap_online::window::TierSample;
///
/// let mut tier = TierEstimator::new(5.0, TierEstimatorOptions::default());
/// for _ in 0..200 {
///     tier.push(&TierSample { utilization: 0.4, completions: 200 })?;
/// }
/// let c = tier.characterize()?;
/// assert!((c.mean_service_time - 0.01).abs() < 1e-9); // 2 s busy / 200 jobs
/// # Ok::<(), burstcap_online::OnlineError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TierEstimator {
    demand: StreamingDemand,
    dispersion: StreamingDispersion,
    tail: StreamingServicePercentile,
    windows: usize,
}

impl TierEstimator {
    /// Create an estimator for monitoring windows of `resolution` seconds.
    ///
    /// # Panics
    /// Panics if `resolution` is not strictly positive or the options carry
    /// an invalid quantile/level cap (deployment constants).
    pub fn new(resolution: f64, options: TierEstimatorOptions) -> Self {
        TierEstimator {
            demand: StreamingDemand::new(resolution),
            dispersion: StreamingDispersion::new(resolution)
                .tolerance(options.dispersion_tolerance)
                .min_windows(options.dispersion_min_windows)
                .max_levels(options.dispersion_max_levels),
            tail: StreamingServicePercentile::new(resolution).quantile(options.quantile),
            windows: 0,
        }
    }

    /// Ingest one window.
    ///
    /// # Errors
    /// Rejects invalid samples (utilization outside `[0, 1]`); the window
    /// is not ingested by any of the estimators.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn push(&mut self, sample: &TierSample) -> Result<(), OnlineError> {
        // Validate once up front so a bad sample cannot leave the three
        // estimators out of sync.
        if !(0.0..=1.0).contains(&sample.utilization) || sample.utilization.is_nan() {
            return Err(OnlineError::InvalidWindow {
                reason: format!("utilization {} outside [0, 1]", sample.utilization),
            });
        }
        self.demand.push(sample.utilization, sample.completions)?;
        self.dispersion
            .push(sample.utilization, sample.completions)?;
        self.tail.push(sample.utilization, sample.completions)?;
        self.windows += 1;
        Ok(())
    }

    /// Number of windows ingested.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Current three-descriptor characterization of the tier.
    ///
    /// # Errors
    /// Propagates estimator failures (stream too short for the Figure 2
    /// levels, no completions yet, ...).
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn characterize(&self) -> Result<ServiceCharacterization, OnlineError> {
        let demand = self.demand.estimate()?;
        let dispersion = self.dispersion.estimate()?;
        let tail = self.tail.estimate()?;
        Ok(ServiceCharacterization {
            mean_service_time: demand.mean_service_time,
            index_of_dispersion: dispersion.index_of_dispersion(),
            p95_service_time: tail.p95_service_time,
            dispersion_converged: dispersion.converged(),
            regression_r_squared: demand.r_squared,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use burstcap::characterize::{characterize, CharacterizeOptions};
    use burstcap::measurements::TierMeasurements;

    #[test]
    fn streaming_characterization_tracks_batch_pipeline() {
        // Regime-switching counts: the same fixture the batch characterize
        // tests use.
        let mut util = Vec::new();
        let mut n = Vec::new();
        for block in 0..40 {
            for _ in 0..20 {
                util.push(0.8);
                n.push(if block % 2 == 0 { 10u64 } else { 90 });
            }
        }
        let mut tier = TierEstimator::new(5.0, TierEstimatorOptions::default());
        for (&u, &c) in util.iter().zip(&n) {
            tier.push(&TierSample {
                utilization: u,
                completions: c,
            })
            .unwrap();
        }
        let online = tier.characterize().unwrap();
        let m = TierMeasurements::new(5.0, util, n).unwrap();
        let batch = characterize(&m, CharacterizeOptions::default()).unwrap();
        // Demand regression: identical sums, identical slope.
        assert_eq!(
            online.mean_service_time.to_bits(),
            batch.mean_service_time.to_bits()
        );
        // Dispersion: integer-exact level statistics, rounding-level gap.
        assert!(
            (online.index_of_dispersion - batch.index_of_dispersion).abs()
                / batch.index_of_dispersion
                < 1e-9
        );
        assert_eq!(online.dispersion_converged, batch.dispersion_converged);
        // Tail: the P2 median marker settles *between* the two count modes
        // of this deliberately bimodal fixture (a five-marker sketch cannot
        // resolve a two-point median exactly), so only bracket it: the
        // estimate must lie between the per-mode extremes B/90 and B/10.
        let busy = 0.8 * 5.0;
        assert!(
            online.p95_service_time >= busy / 90.0 && online.p95_service_time <= busy / 10.0,
            "p95 {} outside [{}, {}] (batch {})",
            online.p95_service_time,
            busy / 90.0,
            busy / 10.0,
            batch.p95_service_time
        );
        assert_eq!(tier.windows(), 800);
    }

    #[test]
    fn streaming_p95_is_tight_on_unimodal_counts() {
        // A smooth count distribution: the sketches track the batch
        // estimator closely.
        let mut util = Vec::new();
        let mut n = Vec::new();
        for k in 0..800u64 {
            let c = 40 + (k * 29) % 41; // 40..=80, spread out
            util.push((c as f64 * 0.01).min(1.0));
            n.push(c);
        }
        let mut tier = TierEstimator::new(5.0, TierEstimatorOptions::default());
        for (&u, &c) in util.iter().zip(&n) {
            tier.push(&TierSample {
                utilization: u,
                completions: c,
            })
            .unwrap();
        }
        let online = tier.characterize().unwrap();
        let m = TierMeasurements::new(5.0, util, n).unwrap();
        let batch = characterize(&m, CharacterizeOptions::default()).unwrap();
        assert!(
            (online.p95_service_time - batch.p95_service_time).abs() / batch.p95_service_time < 0.1,
            "p95 {} vs {}",
            online.p95_service_time,
            batch.p95_service_time
        );
    }

    #[test]
    fn invalid_sample_leaves_estimators_consistent() {
        let mut tier = TierEstimator::new(1.0, TierEstimatorOptions::default());
        tier.push(&TierSample {
            utilization: 0.5,
            completions: 10,
        })
        .unwrap();
        assert!(tier
            .push(&TierSample {
                utilization: 1.5,
                completions: 10,
            })
            .is_err());
        assert_eq!(tier.windows(), 1);
    }

    #[test]
    fn characterize_before_data_fails_cleanly() {
        let tier = TierEstimator::new(1.0, TierEstimatorOptions::default());
        assert!(tier.characterize().is_err());
    }
}
