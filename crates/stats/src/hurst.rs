//! Variance-time Hurst-parameter estimation.
//!
//! The paper notes (Section 1) that the index of dispersion "can also be
//! related to the well-known Hurst parameter used in the analysis of
//! long-range dependence". This module provides the classical variance-time
//! estimator: aggregating a series at level `m` scales the variance of the
//! aggregated means like `m^(2H - 2)`, so `H` is recovered from the slope of
//! the log-log variance-time plot. A short-range-dependent (e.g. Markovian)
//! process has `H = 0.5`; `H > 0.5` indicates long-range dependence, which a
//! finite MAP can only mimic over finite time scales.

use serde::{Deserialize, Serialize};

use crate::descriptive::variance;
use crate::regression::linear_fit;
use crate::StatsError;

/// One point of the variance-time plot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariancePoint {
    /// Aggregation level `m` (block size).
    pub m: usize,
    /// Variance of the `m`-aggregated block means.
    pub variance: f64,
}

/// Result of the variance-time Hurst estimation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HurstEstimate {
    /// Estimated Hurst parameter.
    pub h: f64,
    /// Slope of the fitted log-log line (`2H - 2`).
    pub slope: f64,
    /// The variance-time plot points used in the fit.
    pub points: Vec<VariancePoint>,
}

/// Estimate the Hurst parameter of a series via the variance-time plot.
///
/// Aggregation levels are chosen geometrically between 1 and `n / 10` so that
/// every level retains at least 10 blocks.
///
/// # Errors
/// Rejects series shorter than 100 samples or with (near-)zero variance.
///
/// # Example
/// ```
/// // A deterministic saw-tooth has no long-range dependence: H stays near or
/// // below 1/2 (aggregation averages the structure away).
/// let series: Vec<f64> = (0..20_000).map(|i| (i % 7) as f64).collect();
/// let est = burstcap_stats::hurst::hurst_variance_time(&series)?;
/// assert!(est.h < 0.6, "H = {}", est.h);
/// # Ok::<(), burstcap_stats::StatsError>(())
/// ```
///
/// # Panics
///
/// Only if a justified internal invariant is violated, never for inputs
/// this API accepts; `burstcap-lint report` lists the sites.
pub fn hurst_variance_time(series: &[f64]) -> Result<HurstEstimate, StatsError> {
    if series.len() < 100 {
        return Err(StatsError::TraceTooShort {
            got: series.len(),
            needed: 100,
        });
    }
    let base_var = variance(series)?;
    if base_var <= f64::EPSILON {
        return Err(StatsError::Degenerate {
            reason: "zero variance series".into(),
        });
    }

    let max_m = series.len() / 10;
    let mut points = Vec::new();
    let mut m = 1usize;
    while m <= max_m {
        let means: Vec<f64> = series
            .chunks_exact(m)
            .map(|chunk| chunk.iter().sum::<f64>() / m as f64)
            .collect();
        if means.len() < 10 {
            break;
        }
        let v = variance(&means)?;
        if v > 0.0 {
            points.push(VariancePoint { m, variance: v });
        }
        // Geometric spacing keeps the regression balanced across scales.
        m = ((m as f64) * 1.6).ceil() as usize;
    }
    if points.len() < 3 {
        return Err(StatsError::Degenerate {
            reason: "too few usable aggregation levels for the variance-time fit".into(),
        });
    }

    let xs: Vec<f64> = points.iter().map(|p| (p.m as f64).ln()).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.variance.ln()).collect();
    let (_, slope) = linear_fit(&xs, &ys)?;
    Ok(HurstEstimate {
        h: 1.0 + slope / 2.0,
        slope,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift_series(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn iid_noise_has_h_near_half() {
        let series = xorshift_series(100_000, 42);
        let est = hurst_variance_time(&series).unwrap();
        assert!((0.4..0.6).contains(&est.h), "H = {}", est.h);
    }

    #[test]
    fn persistent_regime_switching_raises_h() {
        // Long on/off regimes (mean length 2000) mimic long-memory over the
        // observable scales, pushing the variance-time slope up.
        let noise = xorshift_series(200_000, 7);
        let mut state = 0.0f64;
        let series: Vec<f64> = noise
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                if i % 2000 == 0 {
                    state = if state == 0.0 { 1.0 } else { 0.0 };
                }
                state + 0.05 * u
            })
            .collect();
        let est = hurst_variance_time(&series).unwrap();
        assert!(est.h > 0.7, "H = {}", est.h);
    }

    #[test]
    fn rejects_short_series() {
        assert!(hurst_variance_time(&[1.0; 50]).is_err());
    }

    #[test]
    fn rejects_constant_series() {
        assert!(hurst_variance_time(&[3.0; 1000]).is_err());
    }

    #[test]
    fn points_have_increasing_levels() {
        let series = xorshift_series(50_000, 3);
        let est = hurst_variance_time(&series).unwrap();
        assert!(est.points.windows(2).all(|w| w[0].m < w[1].m));
        assert!(est.points.len() >= 3);
    }
}
