//! Two-phase phase-type (PH) distributions.
//!
//! The paper's MAP(2)s are built around a two-phase marginal: a
//! **hyperexponential** (`H2`) when the squared coefficient of variation
//! exceeds 1 (the bursty regime of interest) or a **hypoexponential** when it
//! lies in `[1/2, 1)`. This module provides moment-matched constructors, the
//! exact CDF/quantiles, and samplers.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::MapError;

/// A two-phase acyclic phase-type distribution in mixture/series normal form.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Ph2 {
    /// Hyperexponential: with probability `p` an `Exp(rate1)` sample,
    /// otherwise `Exp(rate2)`. Reaches any SCV ≥ 1.
    Hyper {
        /// Probability of drawing from phase 1.
        p: f64,
        /// Rate of phase 1 (by convention the *fast* phase, `rate1 >= rate2`).
        rate1: f64,
        /// Rate of phase 2.
        rate2: f64,
    },
    /// Hypoexponential: the sum `Exp(rate1) + Exp(rate2)`. Reaches SCV in
    /// `[1/2, 1)`.
    Hypo {
        /// Rate of the first stage.
        rate1: f64,
        /// Rate of the second stage.
        rate2: f64,
    },
}

impl Ph2 {
    /// Exponential distribution with the given mean, as the degenerate
    /// hyperexponential (`p = 1`, equal rates).
    ///
    /// # Errors
    /// Rejects non-positive means.
    pub fn exponential(mean: f64) -> Result<Self, MapError> {
        if mean <= 0.0 || !mean.is_finite() {
            return Err(MapError::InvalidParameter {
                name: "mean",
                reason: format!("must be positive and finite, got {mean}"),
            });
        }
        Ok(Ph2::Hyper {
            p: 1.0,
            rate1: 1.0 / mean,
            rate2: 1.0 / mean,
        })
    }

    /// Moment-match a two-phase PH to a mean and SCV.
    ///
    /// * `scv > 1` — balanced-means hyperexponential (the construction used
    ///   throughout the paper's examples):
    ///   `p = (1 + sqrt((scv-1)/(scv+1)))/2`, `rate1 = 2p/mean`,
    ///   `rate2 = 2(1-p)/mean`.
    /// * `scv == 1` — exponential.
    /// * `1/2 <= scv < 1` — hypoexponential with
    ///   `1/rate_{1,2} = mean/2 * (1 ± sqrt(2*scv - 1))`.
    ///
    /// # Errors
    /// Rejects non-positive mean and `scv < 1/2` (unreachable with two
    /// phases).
    ///
    /// # Example
    /// ```
    /// use burstcap_map::ph::Ph2;
    /// let ph = Ph2::from_mean_scv(1.0, 3.0)?;
    /// assert!((ph.mean() - 1.0).abs() < 1e-12);
    /// assert!((ph.scv() - 3.0).abs() < 1e-12);
    /// # Ok::<(), burstcap_map::MapError>(())
    /// ```
    pub fn from_mean_scv(mean: f64, scv: f64) -> Result<Self, MapError> {
        if mean <= 0.0 || !mean.is_finite() {
            return Err(MapError::InvalidParameter {
                name: "mean",
                reason: format!("must be positive and finite, got {mean}"),
            });
        }
        if !scv.is_finite() || scv < 0.5 {
            return Err(MapError::InvalidParameter {
                name: "scv",
                reason: format!("two-phase PH requires scv >= 1/2, got {scv}"),
            });
        }
        if (scv - 1.0).abs() < 1e-12 {
            return Self::exponential(mean);
        }
        if scv > 1.0 {
            let s = ((scv - 1.0) / (scv + 1.0)).sqrt();
            let p = (1.0 + s) / 2.0;
            Ok(Ph2::Hyper {
                p,
                rate1: 2.0 * p / mean,
                rate2: 2.0 * (1.0 - p) / mean,
            })
        } else {
            let s = (2.0 * scv - 1.0).sqrt();
            let u = mean / 2.0 * (1.0 + s);
            let v = mean / 2.0 * (1.0 - s);
            Ok(Ph2::Hypo {
                rate1: 1.0 / v,
                rate2: 1.0 / u,
            })
        }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        match *self {
            Ph2::Hyper { p, rate1, rate2 } => p / rate1 + (1.0 - p) / rate2,
            Ph2::Hypo { rate1, rate2 } => 1.0 / rate1 + 1.0 / rate2,
        }
    }

    /// Raw second moment `E[X^2]`.
    pub fn second_moment(&self) -> f64 {
        match *self {
            Ph2::Hyper { p, rate1, rate2 } => {
                2.0 * p / (rate1 * rate1) + 2.0 * (1.0 - p) / (rate2 * rate2)
            }
            Ph2::Hypo { rate1, rate2 } => {
                let (u, v) = (1.0 / rate1, 1.0 / rate2);
                // Var = u^2 + v^2; E[X]^2 = (u + v)^2.
                2.0 * (u * u + v * v) + 2.0 * u * v
            }
        }
    }

    /// Variance.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.second_moment() - m * m
    }

    /// Squared coefficient of variation.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn scv(&self) -> f64 {
        let m = self.mean();
        self.variance() / (m * m)
    }

    /// Cumulative distribution function `P(X <= x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        match *self {
            Ph2::Hyper { p, rate1, rate2 } => {
                1.0 - p * (-rate1 * x).exp() - (1.0 - p) * (-rate2 * x).exp()
            }
            Ph2::Hypo { rate1, rate2 } => {
                if (rate1 - rate2).abs() < 1e-12 * rate1.max(rate2) {
                    // Erlang-2 limit.
                    let l = rate1;
                    1.0 - (1.0 + l * x) * (-l * x).exp()
                } else {
                    1.0 - (rate2 * (-rate1 * x).exp() - rate1 * (-rate2 * x).exp())
                        / (rate2 - rate1)
                }
            }
        }
    }

    /// Quantile function (inverse CDF) by bracketed bisection.
    ///
    /// # Errors
    /// Rejects `q` outside `(0, 1)`; returns [`MapError::NoConvergence`] only
    /// if bisection exhausts its iteration budget (practically unreachable
    /// for these smooth CDFs).
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn quantile(&self, q: f64) -> Result<f64, MapError> {
        if !(q > 0.0 && q < 1.0) {
            return Err(MapError::InvalidParameter {
                name: "q",
                reason: format!("must lie strictly in (0, 1), got {q}"),
            });
        }
        // Bracket: grow upper bound until the CDF exceeds q.
        let mut hi = self.mean();
        let mut guard = 0;
        while self.cdf(hi) < q {
            hi *= 2.0;
            guard += 1;
            if guard > 200 {
                return Err(MapError::NoConvergence {
                    what: "quantile bracketing",
                });
            }
        }
        let mut lo = 0.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
            if (hi - lo) <= 1e-12 * hi.max(1e-300) {
                break;
            }
        }
        Ok(0.5 * (lo + hi))
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Ph2::Hyper { p, rate1, rate2 } => {
                let rate = if rng.random::<f64>() < p {
                    rate1
                } else {
                    rate2
                };
                sample_exp(rng, rate)
            }
            Ph2::Hypo { rate1, rate2 } => sample_exp(rng, rate1) + sample_exp(rng, rate2),
        }
    }
}

/// Draw an `Exp(rate)` sample via inversion.
pub(crate) fn sample_exp<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    // 1 - U in (0, 1] avoids ln(0).
    -(1.0 - rng.random::<f64>()).ln() / rate
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed literal streams; seeds::derive is the production contract"
)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_has_scv_one() {
        let ph = Ph2::exponential(2.0).unwrap();
        assert!((ph.mean() - 2.0).abs() < 1e-12);
        assert!((ph.scv() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hyper_matches_mean_and_scv() {
        for &(m, c2) in &[(1.0, 3.0), (0.005, 10.0), (4.2, 1.5), (1.0, 100.0)] {
            let ph = Ph2::from_mean_scv(m, c2).unwrap();
            assert!((ph.mean() - m).abs() / m < 1e-10, "mean for scv={c2}");
            assert!((ph.scv() - c2).abs() / c2 < 1e-10, "scv for scv={c2}");
        }
    }

    #[test]
    fn hypo_matches_mean_and_scv() {
        for &(m, c2) in &[(1.0, 0.5), (2.0, 0.75), (0.01, 0.9)] {
            let ph = Ph2::from_mean_scv(m, c2).unwrap();
            assert!((ph.mean() - m).abs() / m < 1e-10);
            assert!(
                (ph.scv() - c2).abs() < 1e-10,
                "scv {} target {}",
                ph.scv(),
                c2
            );
        }
    }

    #[test]
    fn scv_below_half_rejected() {
        assert!(matches!(
            Ph2::from_mean_scv(1.0, 0.3),
            Err(MapError::InvalidParameter { name: "scv", .. })
        ));
    }

    #[test]
    fn invalid_mean_rejected() {
        assert!(Ph2::from_mean_scv(0.0, 3.0).is_err());
        assert!(Ph2::from_mean_scv(-1.0, 3.0).is_err());
        assert!(Ph2::exponential(f64::NAN).is_err());
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let ph = Ph2::from_mean_scv(1.0, 3.0).unwrap();
        let mut last = 0.0;
        for k in 0..100 {
            let x = k as f64 * 0.2;
            let f = ph.cdf(x);
            assert!((0.0..=1.0).contains(&f));
            assert!(f >= last);
            last = f;
        }
        assert_eq!(ph.cdf(-1.0), 0.0);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &c2 in &[0.6, 1.0, 3.0, 20.0] {
            let ph = Ph2::from_mean_scv(1.0, c2).unwrap();
            for &q in &[0.05, 0.5, 0.95, 0.999] {
                let x = ph.quantile(q).unwrap();
                assert!((ph.cdf(x) - q).abs() < 1e-9, "c2={c2}, q={q}");
            }
        }
    }

    #[test]
    fn quantile_rejects_bad_q() {
        let ph = Ph2::exponential(1.0).unwrap();
        assert!(ph.quantile(0.0).is_err());
        assert!(ph.quantile(1.0).is_err());
    }

    #[test]
    fn exponential_quantile_closed_form() {
        let ph = Ph2::exponential(1.0).unwrap();
        let x = ph.quantile(0.95).unwrap();
        assert!(
            (x - (20.0f64).ln()).abs() < 1e-9,
            "p95 of Exp(1) is ln 20, got {x}"
        );
    }

    #[test]
    fn sampling_matches_moments() {
        let ph = Ph2::from_mean_scv(1.0, 3.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| ph.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "sample mean {mean}");
        assert!(
            (var / (mean * mean) - 3.0).abs() < 0.25,
            "sample scv {}",
            var / (mean * mean)
        );
    }

    #[test]
    fn hypo_sampling_matches_mean() {
        let ph = Ph2::from_mean_scv(2.0, 0.7).unwrap();
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 100_000;
        let mean = (0..n).map(|_| ph.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.03, "sample mean {mean}");
    }

    #[test]
    fn balanced_means_property() {
        // The construction balances p/rate1 = (1-p)/rate2.
        if let Ph2::Hyper { p, rate1, rate2 } = Ph2::from_mean_scv(1.0, 5.0).unwrap() {
            assert!((p / rate1 - (1.0 - p) / rate2).abs() < 1e-12);
        } else {
            panic!("expected hyperexponential for scv > 1");
        }
    }

    #[test]
    fn erlang2_limit_cdf() {
        let ph = Ph2::from_mean_scv(1.0, 0.5).unwrap();
        // SCV exactly 1/2 is the Erlang-2: rates equal (2/mean each).
        if let Ph2::Hypo { rate1, rate2 } = ph {
            assert!((rate1 - rate2).abs() < 1e-9, "rates {rate1} vs {rate2}");
        } else {
            panic!("expected hypoexponential");
        }
        let f = ph.cdf(1.0);
        // Erlang-2 with rate 2: F(1) = 1 - (1 + 2) e^{-2}.
        assert!((f - (1.0 - 3.0 * (-2.0f64).exp())).abs() < 1e-9);
    }
}
