//! Asymptotic and balanced-job bounds for closed networks.
//!
//! The paper notes (Section 4.2) that very large populations push exact
//! solvers past their limits and recommends bounding techniques. This module
//! provides the classical operational bounds that need only mean demands —
//! useful sanity envelopes around both the MVA and the MAP-model predictions.

use serde::{Deserialize, Serialize};

use crate::QnError;

/// Throughput bounds for one population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputBounds {
    /// Optimistic bound: `min(N / (Z + sum D), 1 / D_max)`.
    pub upper: f64,
    /// Pessimistic bound: `N / (Z + sum D + (N - 1) * D_max)` — every extra
    /// customer queues behind all others at the bottleneck.
    pub lower: f64,
    /// Balanced-job upper bound (tighter than asymptotic when demands are
    /// close to balanced).
    pub balanced_upper: f64,
}

/// Compute classical asymptotic + balanced-job throughput bounds.
///
/// # Errors
/// Rejects empty or non-positive demands, negative think time, and zero
/// population.
///
/// # Example
/// ```
/// let b = burstcap_qn::bounds::throughput_bounds(&[0.01, 0.004], 0.5, 100)?;
/// assert!(b.lower <= b.upper);
/// assert!(b.upper <= 100.0 + 1e-9); // bottleneck limits to 1/0.01
/// # Ok::<(), burstcap_qn::QnError>(())
/// ```
///
/// # Panics
///
/// Only if a justified internal invariant is violated (2 reachable
/// panic sites, e.g. `crates/qn/src/bounds.rs:83`; `burstcap-lint report` lists them),
/// never for inputs this API accepts.
pub fn throughput_bounds(
    demands: &[f64],
    think_time: f64,
    population: usize,
) -> Result<ThroughputBounds, QnError> {
    if demands.is_empty() || demands.iter().any(|&d| d <= 0.0 || !d.is_finite()) {
        return Err(QnError::InvalidParameter {
            name: "demands",
            reason: "demands must be non-empty, positive, finite".into(),
        });
    }
    if think_time < 0.0 || !think_time.is_finite() {
        return Err(QnError::InvalidParameter {
            name: "think_time",
            reason: format!("must be non-negative, got {think_time}"),
        });
    }
    if population == 0 {
        return Err(QnError::InvalidParameter {
            name: "population",
            reason: "population must be at least 1".into(),
        });
    }
    let n = population as f64;
    let total: f64 = demands.iter().sum();
    let d_max = demands.iter().cloned().fold(0.0, f64::max);
    let d_avg = total / demands.len() as f64;

    let upper = (n / (think_time + total)).min(1.0 / d_max);
    let lower = n / (think_time + total + (n - 1.0) * d_max);
    // Balanced-job upper bound: throughput is Schur-concave in the demand
    // vector, so the balanced network (every station at D_avg, same total
    // demand) attains the maximum throughput — its exact MVA solution is a
    // valid upper bound, tightened by the bottleneck asymptote.
    #[expect(
        clippy::expect_used,
        reason = "equal positive demands and a validated think time cannot be rejected; the population was validated at function entry"
    )]
    let balanced = crate::mva::ClosedMva::new(vec![d_avg; demands.len()], think_time)
        .expect("balanced demands are valid by construction")
        .solve(population)
        .expect("population validated above");
    let balanced_upper = balanced.throughput.min(upper);

    Ok(ThroughputBounds {
        upper,
        lower,
        balanced_upper,
    })
}

/// The population `N*` beyond which the bottleneck saturates:
/// `N* = (Z + sum D) / D_max`.
///
/// # Errors
/// Same domain as [`throughput_bounds`].
///
/// # Panics
///
/// Only if a justified internal invariant is violated (2 reachable
/// panic sites, e.g. `crates/qn/src/bounds.rs:83`; `burstcap-lint report` lists them),
/// never for inputs this API accepts.
pub fn saturation_population(demands: &[f64], think_time: f64) -> Result<f64, QnError> {
    let b = throughput_bounds(demands, think_time, 1)?;
    let _ = b;
    let total: f64 = demands.iter().sum();
    let d_max = demands.iter().cloned().fold(0.0, f64::max);
    Ok((think_time + total) / d_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::ClosedMva;

    #[test]
    fn bounds_bracket_exact_mva() {
        let demands = vec![0.012, 0.005];
        let z = 0.5;
        let mva = ClosedMva::new(demands.clone(), z).unwrap();
        for n in [1, 10, 40, 100, 300] {
            let x = mva.solve(n).unwrap().throughput;
            let b = throughput_bounds(&demands, z, n).unwrap();
            assert!(x <= b.upper + 1e-9, "N={n}: X={x} above upper {}", b.upper);
            assert!(x >= b.lower - 1e-9, "N={n}: X={x} below lower {}", b.lower);
            assert!(
                x <= b.balanced_upper + 1e-6,
                "N={n}: X={x} above bjb {}",
                b.balanced_upper
            );
        }
    }

    #[test]
    fn light_load_bounds_coincide() {
        let b = throughput_bounds(&[0.01, 0.01], 1.0, 1).unwrap();
        assert!((b.upper - b.lower).abs() < 1e-12);
    }

    #[test]
    fn heavy_load_upper_is_bottleneck() {
        let b = throughput_bounds(&[0.02, 0.01], 0.1, 10_000).unwrap();
        assert!((b.upper - 50.0).abs() < 1e-9);
    }

    #[test]
    fn saturation_population_formula() {
        let n_star = saturation_population(&[0.01, 0.004], 0.5).unwrap();
        assert!((n_star - 51.4).abs() < 0.01, "N* = {n_star}");
    }

    #[test]
    fn validation() {
        assert!(throughput_bounds(&[], 0.5, 1).is_err());
        assert!(throughput_bounds(&[0.0], 0.5, 1).is_err());
        assert!(throughput_bounds(&[0.1], -0.5, 1).is_err());
        assert!(throughput_bounds(&[0.1], 0.5, 0).is_err());
    }
}
