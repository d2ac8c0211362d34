//! The Figure 1 trace workshop: identical marginals, increasing burstiness.
//!
//! The paper's Figure 1 shows four traces of 20,000 service times drawn from
//! the *same* hyperexponential distribution (mean 1, SCV 3) whose only
//! difference is how the large samples aggregate into bursts, yielding
//! indices of dispersion from ~3 (i.i.d.) to ~489 (every large sample in one
//! burst). This module reproduces that construction **multiset-exactly**: the
//! bursty variants are permutations of the i.i.d. sample, so the empirical
//! distribution is identical by construction and only the temporal order —
//! hence `I` — changes.

use burstcap_seeds as seeds;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::ph::Ph2;
use crate::MapError;

/// How to arrange a sample into a temporal order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BurstProfile {
    /// Uniformly random order (the paper's Figure 1(a)): `I ≈ SCV`.
    Iid,
    /// Two-state modulated order with phase persistence `gamma` (Figures
    /// 1(b)-(c)): samples are split into a "small" and a "large" pool at the
    /// `p_small` quantile and emitted following a persistent two-state chain,
    /// clustering large samples into bursts. Larger `gamma` means longer
    /// bursts and larger `I`.
    Modulated {
        /// Stationary fraction of windows in the small-sample state.
        p_small: f64,
        /// Phase persistence in `[0, 1)`.
        gamma: f64,
    },
    /// Ascending sort (Figure 1(d)): every large sample lands in one terminal
    /// burst — the maximal-burstiness arrangement for a given multiset.
    Sorted,
}

/// Draw `n` i.i.d. samples from the balanced-means hyperexponential with the
/// given mean and SCV — the raw material of Figure 1.
///
/// # Errors
/// Propagates [`Ph2::from_mean_scv`] domain errors.
pub fn hyperexp_trace(n: usize, mean: f64, scv: f64, seed: u64) -> Result<Vec<f64>, MapError> {
    let ph = Ph2::from_mean_scv(mean, scv)?;
    #[expect(
        clippy::disallowed_methods,
        reason = "the seed is derived through seeds::derive"
    )]
    let mut rng = SmallRng::seed_from_u64(seeds::derive(seed, seeds::TRACE_DRAW_STREAM, 0));
    Ok((0..n).map(|_| ph.sample(&mut rng)).collect())
}

/// Rearrange `samples` according to `profile`, preserving the multiset of
/// values exactly.
///
/// # Errors
/// Rejects empty input and invalid profile parameters.
///
/// # Example
/// ```
/// use burstcap_map::trace::{hyperexp_trace, impose_burstiness, BurstProfile};
///
/// let base = hyperexp_trace(5_000, 1.0, 3.0, 7)?;
/// let bursty = impose_burstiness(&base, BurstProfile::Sorted, 7)?;
/// let mut sorted = base.clone();
/// sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
/// assert_eq!(bursty, sorted); // same multiset, maximal clustering
/// # Ok::<(), burstcap_map::MapError>(())
/// ```
///
/// # Panics
///
/// Only if a justified internal invariant is violated, never for inputs
/// this API accepts; `burstcap-lint report` lists the sites.
pub fn impose_burstiness(
    samples: &[f64],
    profile: BurstProfile,
    seed: u64,
) -> Result<Vec<f64>, MapError> {
    if samples.is_empty() {
        return Err(MapError::InvalidParameter {
            name: "samples",
            reason: "empty trace".into(),
        });
    }
    // Shuffle stream derived separately from the draw stream, so imposing a
    // profile with the same user seed that produced the base trace never
    // replays the draw stream (formerly an ad-hoc `seed ^ 0xB17B17` salt —
    // the PR-3 cross-stream collision class).
    #[expect(
        clippy::disallowed_methods,
        reason = "the seed is derived through seeds::derive"
    )]
    let mut rng = SmallRng::seed_from_u64(seeds::derive(seed, seeds::TRACE_SHUFFLE_STREAM, 0));
    match profile {
        BurstProfile::Iid => {
            let mut out = samples.to_vec();
            out.shuffle(&mut rng);
            Ok(out)
        }
        BurstProfile::Sorted => {
            let mut out = samples.to_vec();
            out.sort_by(f64::total_cmp);
            Ok(out)
        }
        BurstProfile::Modulated { p_small, gamma } => {
            if !(0.0 < p_small && p_small < 1.0) {
                return Err(MapError::InvalidParameter {
                    name: "p_small",
                    reason: format!("must lie in (0, 1), got {p_small}"),
                });
            }
            if !(0.0..1.0).contains(&gamma) {
                return Err(MapError::InvalidParameter {
                    name: "gamma",
                    reason: format!("must lie in [0, 1), got {gamma}"),
                });
            }
            Ok(modulated_order(samples, p_small, gamma, &mut rng))
        }
    }
}

/// Split the sorted sample at the `p_small` quantile into small/large pools,
/// then emit values following a two-state chain with persistence `gamma` and
/// stationary distribution `(p_small, 1 - p_small)`. Pools are shuffled so
/// within-burst order is random; when a pool runs dry the other supplies the
/// remainder (preserving the multiset).
fn modulated_order(samples: &[f64], p_small: f64, gamma: f64, rng: &mut SmallRng) -> Vec<f64> {
    let n = samples.len();
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = ((n as f64) * p_small).round() as usize;
    let cut = cut.clamp(1, n - 1);
    let mut small: Vec<f64> = sorted[..cut].to_vec();
    let mut large: Vec<f64> = sorted[cut..].to_vec();
    small.shuffle(rng);
    large.shuffle(rng);

    // Two-state chain: stay with prob gamma + (1-gamma) * pi(state).
    let mut state_small = rng.random::<f64>() < p_small;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let pool = if state_small { &mut small } else { &mut large };
        match pool.pop() {
            Some(v) => out.push(v),
            None => {
                let other = if state_small { &mut large } else { &mut small };
                #[expect(
                    clippy::expect_used,
                    reason = "the two pools jointly hold exactly n samples, so one is non-empty while out is short"
                )]
                out.push(other.pop().expect("pools jointly hold n samples"));
            }
        }
        let stay_target = if state_small { p_small } else { 1.0 - p_small };
        let stay_prob = gamma + (1.0 - gamma) * stay_target;
        if rng.random::<f64>() >= stay_prob {
            state_small = !state_small;
        }
    }
    out
}

/// Choose the `gamma` of [`BurstProfile::Modulated`] that targets a given
/// index of dispersion, using the closed-form `I(gamma)` of the matching
/// mixed-phase MAP(2) family as the calibration curve.
///
/// The returned `gamma` reproduces the target `I` exactly in the analytic
/// family; on a finite reordered trace the *measured* `I` tracks it closely
/// (the workspace's Figure 1 experiment demonstrates the agreement).
///
/// # Errors
/// Rejects targets below the marginal's SCV (reordering cannot reduce `I`
/// below the i.i.d. level) and invalid marginals.
///
/// # Panics
///
/// Only if a justified internal invariant is violated, never for inputs
/// this API accepts; `burstcap-lint report` lists the sites.
pub fn gamma_for_target_dispersion(mean: f64, scv: f64, target_i: f64) -> Result<f64, MapError> {
    if target_i < scv {
        return Err(MapError::FitInfeasible {
            reason: format!("target I = {target_i} below the SCV = {scv} floor of reordering"),
        });
    }
    let marginal = Ph2::from_mean_scv(mean, scv)?;
    let i_of = |g: f64| -> Result<f64, MapError> {
        Ok(crate::Map2::from_hyper_marginal(marginal, g)?.index_of_dispersion())
    };
    let (mut lo, mut hi) = (0.0, 1.0 - 1e-12);
    if i_of(lo)? >= target_i {
        return Ok(0.0);
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if i_of(mid)? < target_i {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// The mixing probability of the balanced-means H2 with the given SCV —
/// the natural `p_small` for [`BurstProfile::Modulated`].
///
/// # Errors
/// Rejects `scv <= 1` (no hyperexponential exists).
pub fn balanced_p_small(scv: f64) -> Result<f64, MapError> {
    if scv <= 1.0 {
        return Err(MapError::InvalidParameter {
            name: "scv",
            reason: format!("hyperexponential needs scv > 1, got {scv}"),
        });
    }
    Ok((1.0 + ((scv - 1.0) / (scv + 1.0)).sqrt()) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use burstcap_stats::descriptive::{mean as smean, scv as sscv};
    use burstcap_stats::dispersion::index_of_dispersion_counting;

    fn measured_i(trace: &[f64]) -> f64 {
        index_of_dispersion_counting(trace, 30.0, 0.2)
            .unwrap()
            .index_of_dispersion()
    }

    #[test]
    fn hyperexp_trace_matches_marginal() {
        let t = hyperexp_trace(100_000, 1.0, 3.0, 1).unwrap();
        assert!((smean(&t).unwrap() - 1.0).abs() < 0.02);
        assert!((sscv(&t).unwrap() - 3.0).abs() < 0.2);
    }

    #[test]
    fn profiles_preserve_multiset() {
        let base = hyperexp_trace(10_000, 1.0, 3.0, 2).unwrap();
        let mut expect = base.clone();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for profile in [
            BurstProfile::Iid,
            BurstProfile::Modulated {
                p_small: 0.85,
                gamma: 0.95,
            },
            BurstProfile::Sorted,
        ] {
            let mut got = impose_burstiness(&base, profile, 3).unwrap();
            got.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(got, expect, "profile {profile:?} must permute, not alter");
        }
    }

    #[test]
    fn dispersion_orders_like_figure_1() {
        let base = hyperexp_trace(20_000, 1.0, 3.0, 42).unwrap();
        let p = balanced_p_small(3.0).unwrap();
        let iid = impose_burstiness(&base, BurstProfile::Iid, 1).unwrap();
        let mild = impose_burstiness(
            &base,
            BurstProfile::Modulated {
                p_small: p,
                gamma: 0.95,
            },
            1,
        )
        .unwrap();
        let strong = impose_burstiness(
            &base,
            BurstProfile::Modulated {
                p_small: p,
                gamma: 0.995,
            },
            1,
        )
        .unwrap();
        let sorted = impose_burstiness(&base, BurstProfile::Sorted, 1).unwrap();

        let (i_a, i_b, i_c, i_d) = (
            measured_i(&iid),
            measured_i(&mild),
            measured_i(&strong),
            measured_i(&sorted),
        );
        assert!(i_a < i_b, "iid {i_a} !< mild {i_b}");
        assert!(i_b < i_c, "mild {i_b} !< strong {i_c}");
        assert!(i_c < i_d, "strong {i_c} !< sorted {i_d}");
        assert!(
            (1.0..12.0).contains(&i_a),
            "iid I = {i_a}, expected near SCV = 3"
        );
        assert!(i_d > 100.0, "sorted I = {i_d}, expected hundreds");
    }

    #[test]
    fn sorted_profile_sorts() {
        let out = impose_burstiness(&[3.0, 1.0, 2.0], BurstProfile::Sorted, 0).unwrap();
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn rejects_empty_trace() {
        assert!(impose_burstiness(&[], BurstProfile::Iid, 0).is_err());
    }

    #[test]
    fn rejects_bad_modulation_parameters() {
        let t = [1.0, 2.0, 3.0];
        assert!(impose_burstiness(
            &t,
            BurstProfile::Modulated {
                p_small: 0.0,
                gamma: 0.5
            },
            0
        )
        .is_err());
        assert!(impose_burstiness(
            &t,
            BurstProfile::Modulated {
                p_small: 0.5,
                gamma: 1.0
            },
            0
        )
        .is_err());
    }

    #[test]
    fn gamma_calibration_is_monotone() {
        let g_low = gamma_for_target_dispersion(1.0, 3.0, 20.0).unwrap();
        let g_high = gamma_for_target_dispersion(1.0, 3.0, 400.0).unwrap();
        assert!(g_low < g_high);
        assert!((0.0..1.0).contains(&g_low));
        assert!((0.0..1.0).contains(&g_high));
    }

    #[test]
    fn gamma_calibration_floor() {
        assert!((gamma_for_target_dispersion(1.0, 3.0, 3.0).unwrap() - 0.0).abs() < 1e-9);
        assert!(gamma_for_target_dispersion(1.0, 3.0, 2.0).is_err());
    }

    #[test]
    fn balanced_p_small_matches_h2() {
        let p = balanced_p_small(3.0).unwrap();
        assert!((p - 0.8535533905932737).abs() < 1e-12);
        assert!(balanced_p_small(1.0).is_err());
    }

    #[test]
    fn reorder_is_deterministic_per_seed() {
        let base = hyperexp_trace(1_000, 1.0, 3.0, 5).unwrap();
        let a = impose_burstiness(&base, BurstProfile::Iid, 9).unwrap();
        let b = impose_burstiness(&base, BurstProfile::Iid, 9).unwrap();
        let c = impose_burstiness(&base, BurstProfile::Iid, 10).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
