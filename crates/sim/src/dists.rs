//! Sampling distributions for service and think times.
//!
//! A thin closed set of distributions is enough for the paper's experiments:
//! exponential think times, two-phase PH service (via
//! [`burstcap_map::ph::Ph2`]), plus deterministic and uniform helpers for
//! tests and calibration.

use rand::Rng;
use serde::{Deserialize, Serialize};

use burstcap_map::ph::Ph2;

use crate::SimError;

/// A samplable non-negative distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// Exponential with the given rate.
    Exponential {
        /// Rate parameter (1 / mean).
        rate: f64,
    },
    /// Two-phase phase-type distribution.
    Ph(Ph2),
    /// A point mass.
    Deterministic {
        /// The constant value.
        value: f64,
    },
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower endpoint.
        lo: f64,
        /// Upper endpoint.
        hi: f64,
    },
}

impl Dist {
    /// Exponential distribution with the given mean.
    ///
    /// # Errors
    /// Rejects non-positive means.
    pub fn exponential_mean(mean: f64) -> Result<Self, SimError> {
        if mean <= 0.0 || !mean.is_finite() {
            return Err(SimError::InvalidParameter {
                name: "mean",
                reason: format!("must be positive and finite, got {mean}"),
            });
        }
        Ok(Dist::Exponential { rate: 1.0 / mean })
    }

    /// Two-phase PH matched to a mean and SCV (see [`Ph2::from_mean_scv`]).
    ///
    /// # Errors
    /// Propagates the PH feasibility domain (`scv >= 1/2`).
    pub fn ph_mean_scv(mean: f64, scv: f64) -> Result<Self, SimError> {
        Ph2::from_mean_scv(mean, scv)
            .map(Dist::Ph)
            .map_err(|e| SimError::InvalidParameter {
                name: "scv",
                reason: e.to_string(),
            })
    }

    /// Uniform distribution on `[lo, hi]`.
    ///
    /// # Errors
    /// Rejects inverted or negative ranges.
    pub fn uniform(lo: f64, hi: f64) -> Result<Self, SimError> {
        if !(0.0 <= lo && lo <= hi && hi.is_finite()) {
            return Err(SimError::InvalidParameter {
                name: "range",
                reason: format!("need 0 <= lo <= hi, got [{lo}, {hi}]"),
            });
        }
        Ok(Dist::Uniform { lo, hi })
    }

    /// Mean of the distribution.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Exponential { rate } => 1.0 / rate,
            Dist::Ph(ph) => ph.mean(),
            Dist::Deterministic { value } => value,
            Dist::Uniform { lo, hi } => 0.5 * (lo + hi),
        }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Dist::Exponential { rate } => -(1.0 - rng.random::<f64>()).ln() / rate,
            Dist::Ph(ph) => ph.sample(rng),
            Dist::Deterministic { value } => value,
            Dist::Uniform { lo, hi } => lo + (hi - lo) * rng.random::<f64>(),
        }
    }
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

    fn sample_mean(d: Dist, n: usize, seed: u64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_matches_mean() {
        let d = Dist::exponential_mean(0.5).unwrap();
        assert!((d.mean() - 0.5).abs() < 1e-12);
        assert!((sample_mean(d, 100_000, 1) - 0.5).abs() < 0.01);
    }

    #[test]
    fn ph_matches_mean() {
        let d = Dist::ph_mean_scv(2.0, 4.0).unwrap();
        assert!((d.mean() - 2.0).abs() < 1e-9);
        assert!((sample_mean(d, 200_000, 2) - 2.0).abs() < 0.05);
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Dist::Deterministic { value: 3.25 };
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.25);
        }
    }

    #[test]
    fn uniform_bounds_respected() {
        let d = Dist::uniform(1.0, 2.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((1.0..=2.0).contains(&x));
        }
        assert!((d.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Dist::exponential_mean(0.0).is_err());
        assert!(Dist::ph_mean_scv(1.0, 0.1).is_err());
        assert!(Dist::uniform(2.0, 1.0).is_err());
        assert!(Dist::uniform(-1.0, 1.0).is_err());
    }

    #[test]
    fn samples_are_non_negative() {
        let dists = [
            Dist::exponential_mean(1.0).unwrap(),
            Dist::ph_mean_scv(1.0, 3.0).unwrap(),
            Dist::uniform(0.0, 1.0).unwrap(),
        ];
        let mut rng = SmallRng::seed_from_u64(9);
        for d in dists {
            for _ in 0..1000 {
                assert!(d.sample(&mut rng) >= 0.0);
            }
        }
    }
}
