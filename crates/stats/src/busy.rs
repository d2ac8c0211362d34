//! Busy-period analysis and the paper's 95th-percentile service-time
//! estimator (Section 4.1).
//!
//! Monitoring tools report utilization `U_k` per window of `T` seconds, so the
//! busy time in window `k` is `B_k = U_k * T`. The paper estimates the 95th
//! percentile of *service times* — never directly observable — by scaling the
//! 95th percentile of busy times by the median number of completions per busy
//! window: when dispersion is high, the `n_k` jobs in a busy window receive
//! similar service `S_k`, so `B_k ≈ n_k * S_k` and
//! `p95(S) ≈ p95(B) / median(n)`. At low dispersion the estimate is biased,
//! but there queueing behaviour is dominated by mean and SCV, so the bias is
//! harmless (paper, end of §4.1).

use serde::{Deserialize, Serialize};

use crate::descriptive::percentile_of_sorted;
use crate::StatsError;

/// Busy time per monitoring window: `B_k = U_k * resolution`.
///
/// # Errors
/// Rejects non-positive resolutions and utilizations outside `[0, 1]`.
pub fn busy_times(utilization: &[f64], resolution: f64) -> Result<Vec<f64>, StatsError> {
    if resolution <= 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "resolution",
            reason: format!("must be positive, got {resolution}"),
        });
    }
    if let Some(bad) = utilization
        .iter()
        .find(|u| !(0.0..=1.0).contains(*u) || u.is_nan())
    {
        return Err(StatsError::InvalidParameter {
            name: "utilization",
            reason: format!("samples must lie in [0, 1], found {bad}"),
        });
    }
    Ok(utilization.iter().map(|u| u * resolution).collect())
}

/// A maximal run of consecutive windows in which the server was busy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BusyPeriod {
    /// Index of the first window of the run.
    pub start: usize,
    /// Number of consecutive busy windows.
    pub windows: usize,
    /// Total busy time accumulated over the run (seconds).
    pub busy_time: f64,
    /// Total completions over the run.
    pub completions: u64,
}

/// Extract maximal busy periods: runs of windows with utilization above
/// `threshold`.
///
/// # Errors
/// Rejects mismatched series lengths, invalid utilizations, and thresholds
/// outside `[0, 1)`.
///
/// # Panics
///
/// Only if a justified internal invariant is violated (1 reachable
/// panic site, e.g. `crates/stats/src/streaming.rs:604`; `burstcap-lint report` lists them),
/// never for inputs this API accepts.
pub fn busy_periods(
    utilization: &[f64],
    completions: &[u64],
    resolution: f64,
    threshold: f64,
) -> Result<Vec<BusyPeriod>, StatsError> {
    if utilization.len() != completions.len() {
        return Err(StatsError::LengthMismatch {
            left: utilization.len(),
            right: completions.len(),
        });
    }
    if !(0.0..1.0).contains(&threshold) {
        return Err(StatsError::InvalidParameter {
            name: "threshold",
            reason: format!("must lie in [0, 1), got {threshold}"),
        });
    }
    let busy = busy_times(utilization, resolution)?;
    let mut periods = Vec::new();
    let mut current: Option<BusyPeriod> = None;
    for (k, (&u, &n)) in utilization.iter().zip(completions).enumerate() {
        if u > threshold {
            let p = current.get_or_insert(BusyPeriod {
                start: k,
                windows: 0,
                busy_time: 0.0,
                completions: 0,
            });
            p.windows += 1;
            p.busy_time += busy[k];
            p.completions += n;
        } else if let Some(p) = current.take() {
            periods.push(p);
        }
    }
    if let Some(p) = current {
        periods.push(p);
    }
    Ok(periods)
}

/// Output of [`ServicePercentileEstimator`]: the paper's three service-process
/// descriptors that are derivable from busy-time accounting alone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BusyTimeCharacterization {
    /// Estimated mean service time: total busy time / total completions.
    pub mean_service_time: f64,
    /// Estimated 95th percentile of service times (`p95(B_k) / median(n_k)`).
    pub p95_service_time: f64,
    /// Median completions per busy window, the scaling denominator.
    pub median_completions: f64,
    /// Number of busy windows used.
    pub busy_windows: usize,
}

/// The Section 4.1 estimator for the mean and 95th percentile of service
/// times from `(U_k, n_k)` monitoring windows.
///
/// # Example
/// ```
/// use burstcap_stats::busy::ServicePercentileEstimator;
///
/// // Constant service times of 0.01 s: every fully busy 1-second window
/// // completes 100 requests, so p95(B)/median(n) = 1.0/100 = 0.01.
/// let util = vec![1.0_f64; 200];
/// let n = vec![100_u64; 200];
/// let c = ServicePercentileEstimator::new(1.0).estimate(&util, &n)?;
/// assert!((c.p95_service_time - 0.01).abs() < 1e-9);
/// assert!((c.mean_service_time - 0.01).abs() < 1e-9);
/// # Ok::<(), burstcap_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServicePercentileEstimator {
    resolution: f64,
    quantile: f64,
}

impl ServicePercentileEstimator {
    /// Create an estimator for monitoring windows of `resolution` seconds.
    ///
    /// # Panics
    /// Panics if `resolution` is not strictly positive.
    pub fn new(resolution: f64) -> Self {
        assert!(resolution > 0.0, "monitoring resolution must be positive");
        ServicePercentileEstimator {
            resolution,
            quantile: 0.95,
        }
    }

    /// Change the estimated quantile (default 0.95).
    pub fn quantile(mut self, q: f64) -> Self {
        self.quantile = q;
        self
    }

    /// Estimate mean and tail service times from monitoring windows.
    ///
    /// Only windows with at least one completion participate; fully idle
    /// windows carry no service-time information.
    ///
    /// # Errors
    /// Rejects mismatched lengths, invalid utilizations/quantiles, and traces
    /// in which no window has completions.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/stats/src/streaming.rs:604`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn estimate(
        &self,
        utilization: &[f64],
        completions: &[u64],
    ) -> Result<BusyTimeCharacterization, StatsError> {
        if utilization.len() != completions.len() {
            return Err(StatsError::LengthMismatch {
                left: utilization.len(),
                right: completions.len(),
            });
        }
        if !(0.0..=1.0).contains(&self.quantile) {
            return Err(StatsError::InvalidParameter {
                name: "quantile",
                reason: format!("must lie in [0, 1], got {}", self.quantile),
            });
        }
        let busy = busy_times(utilization, self.resolution)?;

        let mut busy_samples: Vec<f64> = Vec::new();
        let mut count_samples: Vec<f64> = Vec::new();
        let mut total_busy = 0.0;
        let mut total_completions: u64 = 0;
        for (b, &n) in busy.iter().zip(completions) {
            if n > 0 {
                busy_samples.push(*b);
                count_samples.push(n as f64);
                total_busy += b;
                total_completions += n;
            }
        }
        if busy_samples.is_empty() || total_completions == 0 {
            return Err(StatsError::Degenerate {
                reason: "no window with completions".into(),
            });
        }

        busy_samples.sort_by(f64::total_cmp);
        count_samples.sort_by(f64::total_cmp);
        let p95_busy = percentile_of_sorted(&busy_samples, self.quantile);
        let med_n = percentile_of_sorted(&count_samples, 0.5);
        debug_assert!(med_n >= 1.0);

        Ok(BusyTimeCharacterization {
            mean_service_time: total_busy / total_completions as f64,
            p95_service_time: p95_busy / med_n,
            median_completions: med_n,
            busy_windows: busy_samples.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_times_scale_by_resolution() {
        let b = busy_times(&[0.0, 0.5, 1.0], 60.0).unwrap();
        assert_eq!(b, vec![0.0, 30.0, 60.0]);
    }

    #[test]
    fn busy_times_reject_bad_resolution() {
        assert!(busy_times(&[0.5], 0.0).is_err());
    }

    #[test]
    fn busy_times_reject_bad_utilization() {
        assert!(busy_times(&[1.2], 1.0).is_err());
    }

    #[test]
    fn busy_periods_found_and_merged() {
        let util = [0.0, 0.9, 0.8, 0.0, 0.0, 0.7, 0.0];
        let n = [0u64, 10, 8, 0, 0, 5, 0];
        let periods = busy_periods(&util, &n, 1.0, 0.05).unwrap();
        assert_eq!(periods.len(), 2);
        assert_eq!(periods[0].start, 1);
        assert_eq!(periods[0].windows, 2);
        assert_eq!(periods[0].completions, 18);
        assert!((periods[0].busy_time - 1.7).abs() < 1e-12);
        assert_eq!(periods[1].start, 5);
        assert_eq!(periods[1].completions, 5);
    }

    #[test]
    fn trailing_busy_period_is_closed() {
        let util = [0.0, 1.0, 1.0];
        let n = [0u64, 3, 4];
        let periods = busy_periods(&util, &n, 2.0, 0.0).unwrap();
        assert_eq!(periods.len(), 1);
        assert_eq!(periods[0].completions, 7);
        assert!((periods[0].busy_time - 4.0).abs() < 1e-12);
    }

    #[test]
    fn busy_periods_reject_mismatch() {
        assert!(busy_periods(&[0.5, 0.5], &[1], 1.0, 0.1).is_err());
    }

    #[test]
    fn p95_estimator_constant_service() {
        // Service time exactly 0.02 s: 50 completions per fully busy second.
        let util = vec![1.0; 300];
        let n = vec![50u64; 300];
        let c = ServicePercentileEstimator::new(1.0)
            .estimate(&util, &n)
            .unwrap();
        assert!((c.mean_service_time - 0.02).abs() < 1e-12);
        assert!((c.p95_service_time - 0.02).abs() < 1e-12);
        assert_eq!(c.busy_windows, 300);
    }

    #[test]
    fn p95_estimator_sees_heavy_windows() {
        // Most windows complete 100 quick jobs; a few windows are consumed by
        // 2 huge jobs. The p95 busy time stays ~1s but the median count is
        // 100, so p95(S) ~ 0.01; switch the mix so slow windows dominate the
        // tail: busy time 1s with 2 jobs => S ~ 0.5 in those windows.
        let mut util = Vec::new();
        let mut n = Vec::new();
        for k in 0..400 {
            util.push(1.0);
            // 8% of windows are "slow" (2 completions), the rest fast (100).
            n.push(if k % 12 == 0 { 2u64 } else { 100 });
        }
        let c = ServicePercentileEstimator::new(1.0)
            .estimate(&util, &n)
            .unwrap();
        // Median count is 100 -> p95 service ~ 1/100 = 0.01 (busy time is
        // constant). Mean is pulled up slightly by slow windows.
        assert!(c.mean_service_time > 0.01);
        assert!((c.median_completions - 100.0).abs() < 1e-9);
    }

    #[test]
    fn estimator_skips_idle_windows() {
        let util = [0.0, 1.0, 0.0, 1.0];
        let n = [0u64, 10, 0, 10];
        let c = ServicePercentileEstimator::new(1.0)
            .estimate(&util, &n)
            .unwrap();
        assert_eq!(c.busy_windows, 2);
        assert!((c.mean_service_time - 0.1).abs() < 1e-12);
    }

    #[test]
    fn estimator_rejects_all_idle() {
        let err = ServicePercentileEstimator::new(1.0)
            .estimate(&[0.0; 10], &[0; 10])
            .unwrap_err();
        assert!(matches!(err, StatsError::Degenerate { .. }));
    }

    #[test]
    fn quantile_is_configurable() {
        let util = vec![1.0; 100];
        let n: Vec<u64> = (1..=100).collect();
        let c50 = ServicePercentileEstimator::new(1.0)
            .quantile(0.5)
            .estimate(&util, &n)
            .unwrap();
        let c95 = ServicePercentileEstimator::new(1.0)
            .estimate(&util, &n)
            .unwrap();
        // Busy time constant, so quantile choice only changes numerator; both
        // share the same median denominator.
        assert!((c50.p95_service_time - c95.p95_service_time).abs() < 1e-12);
    }

    #[test]
    fn slow_regime_dominated_trace_has_p95_above_mean() {
        // Most windows complete 4 slow jobs; a minority complete 200 fast
        // jobs. The median count is then 4, so p95(S) ~ 1/4 s, while the mean
        // service time is dragged down by the many fast completions.
        let mut util = Vec::new();
        let mut n = Vec::new();
        for k in 0..1000 {
            util.push(1.0);
            n.push(if k % 3 == 0 { 200u64 } else { 4 });
        }
        let c = ServicePercentileEstimator::new(1.0)
            .estimate(&util, &n)
            .unwrap();
        assert!(
            c.p95_service_time >= c.mean_service_time,
            "p95 {} < mean {}",
            c.p95_service_time,
            c.mean_service_time
        );
        assert!((c.p95_service_time - 0.25).abs() < 1e-9);
    }
}
