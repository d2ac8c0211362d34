//! Descriptive statistics: moments, squared coefficient of variation,
//! percentiles, and numerically stable running accumulators.
//!
//! The paper characterizes a service process by its mean, its squared
//! coefficient of variation (SCV), and its 95th percentile; every estimator in
//! this crate bottoms out in the routines defined here.

use serde::{Deserialize, Serialize};

use crate::StatsError;

/// Arithmetic mean of a slice.
///
/// Returns an error if the slice is empty.
///
/// # Example
/// ```
/// let m = burstcap_stats::descriptive::mean(&[1.0, 2.0, 3.0])?;
/// assert!((m - 2.0).abs() < 1e-12);
/// # Ok::<(), burstcap_stats::StatsError>(())
/// ```
pub fn mean(data: &[f64]) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::TraceTooShort { got: 0, needed: 1 });
    }
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Population variance (dividing by `n`) of a slice.
///
/// The paper's index-of-dispersion estimator uses the population convention
/// because the windows it aggregates are treated as the full observation, not
/// a sample from a larger design. Returns an error on empty input.
pub fn variance(data: &[f64]) -> Result<f64, StatsError> {
    let m = mean(data)?;
    Ok(data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / data.len() as f64)
}

/// Unbiased sample variance (dividing by `n - 1`).
///
/// Returns an error if fewer than two samples are provided.
pub fn sample_variance(data: &[f64]) -> Result<f64, StatsError> {
    if data.len() < 2 {
        return Err(StatsError::TraceTooShort {
            got: data.len(),
            needed: 2,
        });
    }
    let m = mean(data)?;
    Ok(data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (data.len() - 1) as f64)
}

/// Squared coefficient of variation `SCV = Var(X) / E[X]^2`.
///
/// `SCV = 1` for exponential samples; the paper's Figure 1 traces all have
/// `SCV = 3`. Returns an error for empty input or zero mean.
pub fn scv(data: &[f64]) -> Result<f64, StatsError> {
    let m = mean(data)?;
    if m == 0.0 {
        return Err(StatsError::Degenerate {
            reason: "zero mean".into(),
        });
    }
    Ok(variance(data)? / (m * m))
}

/// Standardized skewness `E[(X - mu)^3] / sigma^3`.
///
/// Used when matching third-order properties of fitted Markovian arrival
/// processes. Returns an error for empty input or zero variance.
pub fn skewness(data: &[f64]) -> Result<f64, StatsError> {
    let m = mean(data)?;
    let var = variance(data)?;
    if var == 0.0 {
        return Err(StatsError::Degenerate {
            reason: "zero variance".into(),
        });
    }
    let third = data.iter().map(|x| (x - m).powi(3)).sum::<f64>() / data.len() as f64;
    Ok(third / var.powf(1.5))
}

/// Raw moment `E[X^k]`.
pub fn raw_moment(data: &[f64], k: u32) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::TraceTooShort { got: 0, needed: 1 });
    }
    Ok(data.iter().map(|x| x.powi(k as i32)).sum::<f64>() / data.len() as f64)
}

/// Linear-interpolation percentile (quantile type 7, the R/NumPy default).
///
/// `p` must lie in `[0, 1]`; `p = 0.95` yields the 95th percentile the paper
/// uses to capture the peak-to-mean ratio of service demands.
///
/// # Errors
/// Returns [`StatsError::InvalidParameter`] if `p` is outside `[0, 1]` and
/// [`StatsError::TraceTooShort`] on empty input.
///
/// # Example
/// ```
/// let p95 = burstcap_stats::descriptive::percentile(&[1.0, 2.0, 3.0, 4.0], 0.95)?;
/// assert!(p95 > 3.0 && p95 <= 4.0);
/// # Ok::<(), burstcap_stats::StatsError>(())
/// ```
pub fn percentile(data: &[f64], p: f64) -> Result<f64, StatsError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(StatsError::InvalidParameter {
            name: "p",
            reason: format!("must be in [0, 1], got {p}"),
        });
    }
    if data.is_empty() {
        return Err(StatsError::TraceTooShort { got: 0, needed: 1 });
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(percentile_of_sorted(&sorted, p))
}

/// Percentile of data already sorted in ascending order (no copy).
///
/// # Panics
/// Debug-asserts that the data is sorted; callers must guarantee order.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median (50th percentile) of a slice.
pub fn median(data: &[f64]) -> Result<f64, StatsError> {
    percentile(data, 0.5)
}

/// Compact summary of a sample: moments plus selected percentiles.
///
/// This is the "shape card" the workspace passes around when describing a
/// measured service or response-time process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples summarized.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Squared coefficient of variation.
    pub scv: f64,
    /// Smallest observation.
    pub min: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample.
    ///
    /// # Errors
    /// Returns an error if the sample is empty or has zero mean (SCV
    /// undefined).
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/stats/src/descriptive.rs:204`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn from_slice(data: &[f64]) -> Result<Self, StatsError> {
        let m = mean(data)?;
        let var = variance(data)?;
        if m == 0.0 {
            return Err(StatsError::Degenerate {
                reason: "zero mean".into(),
            });
        }
        let mut sorted: Vec<f64> = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ok(Summary {
            count: data.len(),
            mean: m,
            variance: var,
            scv: var / (m * m),
            min: sorted[0],
            median: percentile_of_sorted(&sorted, 0.5),
            p95: percentile_of_sorted(&sorted, 0.95),
            #[expect(
                clippy::expect_used,
                reason = "the input slice was validated non-empty at entry"
            )]
            max: *sorted.last().expect("non-empty"),
        })
    }
}

/// Numerically stable streaming accumulator (Welford's algorithm).
///
/// Lets simulators accumulate millions of response-time observations without
/// storing them. Percentiles require retention, so this type exposes moments
/// only; use [`Summary`] when the full sample is available.
///
/// # Example
/// ```
/// use burstcap_stats::descriptive::RunningStats;
///
/// let mut acc = RunningStats::new();
/// for x in [2.0, 4.0, 6.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.count(), 3);
/// assert!((acc.mean().unwrap() - 4.0).abs() < 1e-12);
/// assert!(RunningStats::new().mean().is_none()); // no data, no mean
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel-friendly).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations accumulated.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean; `None` for an empty accumulator.
    ///
    /// An empty accumulator used to report a mean of `0.0`, which silently
    /// turned "no data" into a plausible-looking statistic; the degenerate
    /// case is now explicit, matching [`RunningStats::min`]/[`RunningStats::max`].
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Running population variance; `None` until two observations arrive.
    ///
    /// A single observation has no dispersion information — reporting
    /// `0.0` (as this accessor once did) masked under-sampled series as
    /// perfectly deterministic ones.
    pub fn variance(&self) -> Option<f64> {
        (self.count >= 2).then(|| self.m2 / self.count as f64)
    }

    /// Running squared coefficient of variation; `None` when undefined.
    pub fn scv(&self) -> Option<f64> {
        if self.count < 2 || self.mean == 0.0 {
            None
        } else {
            Some(self.m2 / self.count as f64 / (self.mean * self.mean))
        }
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_constant_is_constant() {
        assert_eq!(mean(&[5.0; 10]).unwrap(), 5.0);
    }

    #[test]
    fn mean_rejects_empty() {
        assert!(matches!(mean(&[]), Err(StatsError::TraceTooShort { .. })));
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&[2.5; 8]).unwrap(), 0.0);
    }

    #[test]
    fn variance_matches_hand_computation() {
        // Var([1,2,3,4]) with population convention = 1.25.
        assert!((variance(&[1.0, 2.0, 3.0, 4.0]).unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn sample_variance_uses_n_minus_one() {
        let v = sample_variance(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((v - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn scv_of_exponential_like_pair() {
        // For samples {0, 2m} the SCV is 1: variance m^2, mean m.
        let v = scv(&[0.0, 2.0]).unwrap();
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scv_rejects_zero_mean() {
        assert!(matches!(
            scv(&[-1.0, 1.0]),
            Err(StatsError::Degenerate { .. })
        ));
    }

    #[test]
    fn skewness_of_symmetric_sample_is_zero() {
        let s = skewness(&[-2.0, -1.0, 0.0, 1.0, 2.0]).unwrap();
        assert!(s.abs() < 1e-12);
    }

    #[test]
    fn skewness_positive_for_right_tail() {
        let s = skewness(&[1.0, 1.0, 1.0, 1.0, 10.0]).unwrap();
        assert!(s > 0.5);
    }

    #[test]
    fn percentile_endpoints() {
        let data = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&data, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&data, 1.0).unwrap(), 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let p = percentile(&[0.0, 10.0], 0.25).unwrap();
        assert!((p - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_rejects_out_of_range_p() {
        assert!(matches!(
            percentile(&[1.0], 1.5),
            Err(StatsError::InvalidParameter { name: "p", .. })
        ));
    }

    #[test]
    fn median_odd_length() {
        assert_eq!(median(&[5.0, 1.0, 3.0]).unwrap(), 3.0);
    }

    #[test]
    fn raw_moment_second_matches_variance_identity() {
        let data = [1.0, 2.0, 3.0];
        let m1 = raw_moment(&data, 1).unwrap();
        let m2 = raw_moment(&data, 2).unwrap();
        let var = variance(&data).unwrap();
        assert!((m2 - m1 * m1 - var).abs() < 1e-12);
    }

    #[test]
    fn summary_is_consistent() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.median, 3.0);
        assert!(s.p95 > 4.0 && s.p95 <= 100.0);
        assert!(
            s.scv > 1.0,
            "heavy upper tail must raise SCV above exponential"
        );
    }

    #[test]
    fn running_stats_matches_batch() {
        let data = [0.3, 1.7, 2.9, 0.01, 44.0, 3.3];
        let mut acc = RunningStats::new();
        for &x in &data {
            acc.push(x);
        }
        assert!((acc.mean().unwrap() - mean(&data).unwrap()).abs() < 1e-12);
        assert!((acc.variance().unwrap() - variance(&data).unwrap()).abs() < 1e-9);
        assert_eq!(acc.min(), Some(0.01));
        assert_eq!(acc.max(), Some(44.0));
    }

    #[test]
    fn running_stats_degenerate_moments_are_explicit() {
        // The silent-zero pattern is gone: no observations means no mean,
        // and one observation means no variance or SCV.
        let mut acc = RunningStats::new();
        assert_eq!(acc.mean(), None);
        assert_eq!(acc.variance(), None);
        assert_eq!(acc.scv(), None);
        acc.push(3.0);
        assert_eq!(acc.mean(), Some(3.0));
        assert_eq!(acc.variance(), None);
        assert_eq!(acc.scv(), None);
        acc.push(5.0);
        assert_eq!(acc.variance(), Some(1.0));
    }

    #[test]
    fn running_stats_merge_matches_single_pass() {
        let (a, b) = ([1.0, 2.0, 3.0], [10.0, 20.0]);
        let mut left = RunningStats::new();
        a.iter().for_each(|&x| left.push(x));
        let mut right = RunningStats::new();
        b.iter().for_each(|&x| right.push(x));
        left.merge(&right);

        let mut all = RunningStats::new();
        a.iter().chain(b.iter()).for_each(|&x| all.push(x));
        assert_eq!(left.count(), all.count());
        assert!((left.mean().unwrap() - all.mean().unwrap()).abs() < 1e-12);
        assert!((left.variance().unwrap() - all.variance().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn running_stats_merge_with_empty_is_identity() {
        let mut acc = RunningStats::new();
        acc.push(4.0);
        let before = acc;
        acc.merge(&RunningStats::new());
        assert_eq!(acc, before);
    }
}
