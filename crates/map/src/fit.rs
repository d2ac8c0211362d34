//! The paper's Section 4.1 MAP(2) fitting pipeline.
//!
//! The methodology characterizes a service process by exactly three measured
//! numbers — **mean**, **index of dispersion `I`**, and **95th percentile** —
//! and asks for a MAP(2) matching them: *"we generate a set of MAP(2)s that
//! have ±20% maximal error on I. Among this set of MAP(2)s, we choose the one
//! with its 95th percentile closest to the trace"*, breaking ties toward the
//! largest lag-1 autocorrelation (footnote 8: a slightly more aggressive
//! burstiness profile gives conservative capacity estimates).
//!
//! [`Map2Fitter`] implements that search over the *mixed-phase family*
//! ([`Map2::from_hyper_marginal`]): candidates are two-phase hyperexponential
//! marginals parameterized by `(scv, p)` — the mixture weight `p` is a free
//! third degree of freedom beyond mean and SCV — and for each marginal the
//! phase-persistence `gamma` is bisected so the candidate's asymptotic index
//! of dispersion hits the target *exactly* (well inside the paper's ±20%
//! band). The p95 of the marginal then ranks the candidates. Because the
//! family keeps the marginal invariant in `gamma`, the search is
//! well-conditioned: `I` and p95 are controlled by separate knobs.

use serde::{Deserialize, Serialize};

use crate::map2::Map2;
use crate::ph::Ph2;
use crate::MapError;

/// Default relative tolerance on the index of dispersion (the paper's ±20%).
pub const DEFAULT_I_TOLERANCE: f64 = 0.2;

/// The smallest index-of-dispersion target the opt-in
/// [`Map2Fitter::i_floor`] raises infeasible requests to: slightly above
/// the `I = 1/2` floor of two-phase processes.
pub const MIN_FEASIBLE_I: f64 = 0.51;

/// One candidate examined by the fitter, retained for diagnostics and
/// ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// SCV of the candidate's marginal.
    pub scv: f64,
    /// Mixture weight of the fast phase in the marginal.
    pub p: f64,
    /// Phase persistence selected by the bisection.
    pub gamma: f64,
    /// Index of dispersion achieved.
    pub achieved_i: f64,
    /// 95th percentile of the candidate's stationary inter-event time.
    pub achieved_p95: f64,
    /// Lag-1 autocorrelation (the tie-break criterion).
    pub rho1: f64,
}

/// A fitted MAP(2) together with fit diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FittedMap2 {
    map: Map2,
    chosen: Candidate,
    target_mean: f64,
    target_i: f64,
    target_p95: f64,
    floored_target_i: Option<f64>,
    candidates: Vec<Candidate>,
}

impl FittedMap2 {
    /// The fitted process.
    pub fn map(&self) -> Map2 {
        self.map
    }

    /// The winning candidate's parameters and achieved descriptors.
    pub fn chosen(&self) -> &Candidate {
        &self.chosen
    }

    /// Every candidate that survived the ±tolerance filter on `I`, sorted by
    /// p95 distance (the selection order).
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Relative error of the achieved index of dispersion vs the target.
    pub fn i_error(&self) -> f64 {
        (self.chosen.achieved_i - self.target_i).abs() / self.target_i
    }

    /// Relative error of the achieved p95 vs the target.
    pub fn p95_error(&self) -> f64 {
        (self.chosen.achieved_p95 - self.target_p95).abs() / self.target_p95
    }

    /// When the requested index of dispersion was below the two-phase
    /// feasibility floor and the opt-in [`Map2Fitter::i_floor`] raised it to
    /// [`MIN_FEASIBLE_I`], this records the **original** request; `None`
    /// means the fit targeted the requested `I` unmodified. The adjustment
    /// used to happen silently in callers (`.max(0.51)`); it is now an
    /// explicit, queryable part of the fit diagnostics.
    pub fn floored_target_i(&self) -> Option<f64> {
        self.floored_target_i
    }
}

/// Builder implementing the Section 4.1 fitting search.
///
/// # Example
/// ```
/// use burstcap_map::fit::Map2Fitter;
///
/// let fitted = Map2Fitter::new(1.0, 50.0, 3.5).fit()?;
/// assert!(fitted.i_error() < 0.2, "I within the paper's band");
/// assert!((fitted.map().mean() - 1.0).abs() < 1e-9);
/// # Ok::<(), burstcap_map::MapError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Map2Fitter {
    mean: f64,
    index_of_dispersion: f64,
    p95: f64,
    i_tolerance: f64,
    scv_grid_size: usize,
    p_grid_size: usize,
    max_scv: f64,
    floor_low_i: bool,
}

impl Map2Fitter {
    /// Target the three descriptors of the paper's methodology: mean service
    /// time, index of dispersion, and 95th percentile of service times.
    pub fn new(mean: f64, index_of_dispersion: f64, p95: f64) -> Self {
        Map2Fitter {
            mean,
            index_of_dispersion,
            p95,
            i_tolerance: DEFAULT_I_TOLERANCE,
            scv_grid_size: 16,
            p_grid_size: 12,
            max_scv: 512.0,
            floor_low_i: false,
        }
    }

    /// Relative tolerance on `I` (default ±20%, the paper's band).
    pub fn i_tolerance(mut self, tol: f64) -> Self {
        self.i_tolerance = tol;
        self
    }

    /// Number of SCV grid points searched (default 16).
    pub fn scv_grid_size(mut self, n: usize) -> Self {
        self.scv_grid_size = n;
        self
    }

    /// Number of mixture-weight grid points per SCV (default 12).
    pub fn p_grid_size(mut self, n: usize) -> Self {
        self.p_grid_size = n;
        self
    }

    /// Upper cap on marginal SCV explored (default 512).
    pub fn max_scv(mut self, cap: f64) -> Self {
        self.max_scv = cap;
        self
    }

    /// Opt into raising an infeasibly low index-of-dispersion target to
    /// [`MIN_FEASIBLE_I`] instead of failing. The adjustment is recorded in
    /// [`FittedMap2::floored_target_i`] — nothing is clamped silently.
    /// Intended for pipeline callers (the capacity planner) whose estimators
    /// can wobble below `1/2` on nearly deterministic tiers, where
    /// burstiness is irrelevant anyway. Default: disabled, so
    /// genuinely underdispersed targets surface as
    /// [`MapError::FitInfeasible`].
    pub fn i_floor(mut self, enable: bool) -> Self {
        self.floor_low_i = enable;
        self
    }

    /// Run the search.
    ///
    /// # Errors
    /// * [`MapError::InvalidParameter`] for non-positive targets or
    ///   tolerance.
    /// * [`MapError::FitInfeasible`] if no candidate lands within the `I`
    ///   tolerance band (e.g. `I < 1/2`, unreachable by any MAP(2) built on
    ///   a two-phase marginal).
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (3 reachable
    /// panic sites, e.g. `crates/map/src/fit.rs:314`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn fit(&self) -> Result<FittedMap2, MapError> {
        // Opt-in floor for infeasibly low targets: rerun the search at the
        // floor and record the original request instead of clamping
        // silently. Runs before positivity validation — a deterministic
        // tier legitimately measures I = 0, and the floor exists precisely
        // for such callers.
        if self.floor_low_i
            && self.index_of_dispersion.is_finite()
            && self.index_of_dispersion < MIN_FEASIBLE_I
        {
            let mut raised = self.clone();
            raised.index_of_dispersion = MIN_FEASIBLE_I;
            raised.floor_low_i = false;
            let mut fitted = raised.fit()?;
            fitted.floored_target_i = Some(self.index_of_dispersion);
            return Ok(fitted);
        }

        for (name, v) in [
            ("mean", self.mean),
            ("index_of_dispersion", self.index_of_dispersion),
            ("p95", self.p95),
            ("i_tolerance", self.i_tolerance),
        ] {
            if v <= 0.0 || !v.is_finite() {
                return Err(MapError::InvalidParameter {
                    name: match name {
                        "mean" => "mean",
                        "index_of_dispersion" => "index_of_dispersion",
                        "p95" => "p95",
                        _ => "i_tolerance",
                    },
                    reason: format!("must be positive and finite, got {v}"),
                });
            }
        }

        let mut candidates: Vec<Candidate> = Vec::new();

        // Low-variability targets: a renewal process already provides
        // I = SCV, including SCV < 1 via a hypoexponential marginal.
        if self.index_of_dispersion < 1.0 {
            if self.index_of_dispersion < 0.5 * (1.0 - self.i_tolerance) {
                return Err(MapError::FitInfeasible {
                    reason: format!(
                        "index of dispersion {} below the 1/2 floor of two-phase processes",
                        self.index_of_dispersion
                    ),
                });
            }
            // burstcap-lint: allow(silent-clamp) — infeasible I < 1/2 already rejected above; the clamp projects onto the SCV range this two-phase candidate family can represent
            let scv = self.index_of_dispersion.clamp(0.5, 1.0);
            let marginal = Ph2::from_mean_scv(self.mean, scv)?;
            let map = renewal_map2(marginal)?;
            let cand = Candidate {
                scv,
                p: 1.0,
                gamma: 0.0,
                achieved_i: map.index_of_dispersion(),
                achieved_p95: map.quantile(0.95)?,
                rho1: 0.0,
            };
            return Ok(FittedMap2 {
                map,
                chosen: cand,
                target_mean: self.mean,
                target_i: self.index_of_dispersion,
                target_p95: self.p95,
                floored_target_i: None,
                candidates: vec![cand],
            });
        }

        // Hyperexponential candidate grid: scv in (1, min(I, max_scv)],
        // geometric spacing; mixture weight p on an interior grid.
        let scv_hi = self.index_of_dispersion.min(self.max_scv).max(1.1);
        let scv_lo = 1.05_f64.min(scv_hi);
        for gi in 0..self.scv_grid_size {
            let f = gi as f64 / (self.scv_grid_size.saturating_sub(1)).max(1) as f64;
            let scv = scv_lo * (scv_hi / scv_lo).powf(f);
            for pj in 0..self.p_grid_size {
                let p = 0.5 + 0.499 * (pj as f64 + 0.5) / self.p_grid_size as f64;
                let Some(marginal) = h2_with_weight(self.mean, scv, p) else {
                    continue;
                };
                let Some(cand) = self.tune_gamma(marginal, scv, p) else {
                    continue;
                };
                if (cand.achieved_i - self.index_of_dispersion).abs()
                    <= self.i_tolerance * self.index_of_dispersion
                {
                    candidates.push(cand);
                }
            }
        }

        if candidates.is_empty() {
            return Err(MapError::FitInfeasible {
                reason: format!(
                    "no MAP(2) candidate within ±{:.0}% of I = {}",
                    self.i_tolerance * 100.0,
                    self.index_of_dispersion
                ),
            });
        }

        let chosen =
            select_candidate(&mut candidates, self.p95).ok_or_else(|| MapError::FitInfeasible {
                reason: format!(
                    "every candidate within ±{:.0}% of I = {} carried a non-finite \
                     p95 or lag-1 autocorrelation",
                    self.i_tolerance * 100.0,
                    self.index_of_dispersion
                ),
            })?;

        #[expect(
            clippy::expect_used,
            reason = "the chosen candidate was built from this same feasible marginal during search"
        )]
        let marginal = h2_with_weight(self.mean, chosen.scv, chosen.p)
            .expect("chosen candidate was constructed from a feasible marginal");
        let map = Map2::from_hyper_marginal(marginal, chosen.gamma)?;
        Ok(FittedMap2 {
            map,
            chosen,
            target_mean: self.mean,
            target_i: self.index_of_dispersion,
            target_p95: self.p95,
            floored_target_i: None,
            candidates,
        })
    }

    /// Bisect `gamma` so the candidate's asymptotic `I` matches the target.
    /// Returns `None` when the target is below the candidate's feasible floor.
    fn tune_gamma(&self, marginal: Ph2, scv: f64, p: f64) -> Option<Candidate> {
        let target = self.index_of_dispersion;
        let i_of = |gamma: f64| -> Option<f64> {
            Map2::from_hyper_marginal(marginal, gamma)
                .ok()
                .map(|m| m.index_of_dispersion())
        };
        // gamma = 0 gives I = scv; I is monotone increasing in gamma.
        let (mut lo, mut hi) = (0.0_f64, 1.0 - 1e-12);
        let i_lo = i_of(lo)?;
        if target < i_lo {
            // Try the negative-correlation range down to the feasibility
            // floor of D1 >= 0.
            let q = 1.0 - p;
            let gamma_min = -(p / q).min(q / p) + 1e-9;
            let i_min = i_of(gamma_min)?;
            if target < i_min {
                return None;
            }
            lo = gamma_min;
            hi = 0.0;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            let i_mid = i_of(mid)?;
            if i_mid < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let gamma = 0.5 * (lo + hi);
        let map = Map2::from_hyper_marginal(marginal, gamma).ok()?;
        let cand = Candidate {
            scv,
            p,
            gamma,
            achieved_i: map.index_of_dispersion(),
            achieved_p95: map.quantile(0.95).ok()?,
            rho1: map.lag1_correlation(),
        };
        // Extreme marginals can push the descriptors to NaN/inf; such a
        // candidate must never reach the ranking stage.
        (cand.achieved_i.is_finite() && cand.achieved_p95.is_finite() && cand.rho1.is_finite())
            .then_some(cand)
    }
}

/// Rank candidates by p95 distance (footnote 8 of the paper: ties break
/// toward the largest lag-1 autocorrelation) and return the winner, leaving
/// the list sorted in selection order.
///
/// Candidates with a non-finite achieved `I`, p95, or `rho1` are discarded
/// before ranking — the tuned `gamma` of an extreme marginal can push the
/// quantile inversion or autocorrelation into NaN/inf territory, and the
/// old comparator panicked (`.expect("p95 distances are finite")`) instead
/// of skipping them. Returns `None` when nothing survives.
fn select_candidate(candidates: &mut Vec<Candidate>, target_p95: f64) -> Option<Candidate> {
    candidates
        .retain(|c| c.achieved_i.is_finite() && c.achieved_p95.is_finite() && c.rho1.is_finite());
    if candidates.is_empty() {
        return None;
    }
    // Rank: p95 distance first, then (footnote 8) largest rho1 among
    // near-ties. total_cmp: every retained value is finite, but the order
    // must not be able to panic again.
    candidates.sort_by(|a, b| {
        let da = (a.achieved_p95 - target_p95).abs();
        let db = (b.achieved_p95 - target_p95).abs();
        da.total_cmp(&db).then(b.rho1.total_cmp(&a.rho1))
    });
    let best_d = (candidates[0].achieved_p95 - target_p95).abs();
    let tie_band = best_d * 1.001 + 1e-15;
    candidates
        .iter()
        .filter(|c| (c.achieved_p95 - target_p95).abs() <= tie_band)
        .max_by(|a, b| a.rho1.total_cmp(&b.rho1))
        .copied()
}

/// A renewal MAP(2) (i.i.d. inter-event times) with the given two-phase
/// marginal; its index of dispersion equals the marginal's SCV.
///
/// # Errors
/// Propagates construction errors for degenerate marginals.
///
/// # Panics
///
/// Only if a justified internal invariant is violated (1 reachable
/// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
/// never for inputs this API accepts.
pub fn renewal_map2(marginal: Ph2) -> Result<Map2, MapError> {
    match marginal {
        Ph2::Hyper { .. } => Map2::from_hyper_marginal(marginal, 0.0),
        Ph2::Hypo { rate1, rate2 } => {
            // Sequential phases; every event restarts in phase 1.
            Map2::new([[-rate1, rate1], [0.0, -rate2]], [[0.0, 0.0], [rate2, 0.0]])
        }
    }
}

/// General (non-balanced) two-phase hyperexponential with mean `m`, SCV
/// `c2 > 1`, and fast-phase weight `p`. Returns `None` outside the feasible
/// region.
fn h2_with_weight(m: f64, c2: f64, p: f64) -> Option<Ph2> {
    if !(0.0 < p && p < 1.0) || c2 <= 1.0 {
        return None;
    }
    let q = 1.0 - p;
    // Solve for normalized phase means a = u1/m, b = u2/m:
    //   p a + q b = 1,  2 p a^2 + 2 q b^2 = c2 + 1.
    let disc = 1.0 - (2.0 - p * (c2 + 1.0)) / (2.0 * q);
    if disc < 0.0 {
        return None;
    }
    let b = 1.0 + disc.sqrt();
    let a = (1.0 - q * b) / p;
    if a <= 1e-9 || b <= 0.0 {
        return None;
    }
    let (u1, u2) = (a * m, b * m);
    // Convention: phase 1 is the fast phase.
    if u1 >= u2 {
        return None;
    }
    Some(Ph2::Hyper {
        p,
        rate1: 1.0 / u1,
        rate2: 1.0 / u2,
    })
}

/// Fit a MAP(2) directly from a raw service-time trace: estimates the mean,
/// the index of dispersion (counting-process estimator over busy windows of
/// `window` seconds with stopping tolerance `tolerance`), and the empirical
/// 95th percentile, then runs [`Map2Fitter`].
///
/// A tight tolerance (0.02-0.05) is recommended when the trace is long: the
/// `Y(t)` curve of strongly bursty processes climbs slowly, and a loose
/// stopping rule (the paper's illustrative 0.2) cuts the climb short and
/// underestimates `I`.
///
/// The estimated index of dispersion is passed to the fitter **unmodified**:
/// a genuinely underdispersed trace (`I` at or below the `1/2` floor of
/// two-phase processes) surfaces as [`MapError::FitInfeasible`] instead of
/// being silently clamped to the floor, which used to hide the evidence
/// that the trace is *less* variable than any MAP(2) this family can
/// produce. Callers that prefer a best-effort floor can run [`Map2Fitter`]
/// themselves with [`Map2Fitter::i_floor`], which records the adjustment.
///
/// # Errors
/// Propagates estimation errors (trace too short for the Figure 2 algorithm)
/// and underdispersed traces as [`MapError::FitInfeasible`], plus fitting
/// errors.
///
/// # Panics
///
/// Only if a justified internal invariant is violated (9 reachable
/// panic sites, e.g. `crates/map/src/fit.rs:314`; `burstcap-lint report` lists them),
/// never for inputs this API accepts.
pub fn fit_from_trace(
    service_times: &[f64],
    window: f64,
    tolerance: f64,
) -> Result<FittedMap2, MapError> {
    let est =
        burstcap_stats::dispersion::index_of_dispersion_counting(service_times, window, tolerance)
            .map_err(|e| MapError::FitInfeasible {
                reason: format!("I estimation failed: {e}"),
            })?;
    let mean =
        burstcap_stats::descriptive::mean(service_times).map_err(|e| MapError::FitInfeasible {
            reason: e.to_string(),
        })?;
    let p95 = burstcap_stats::descriptive::percentile(service_times, 0.95).map_err(|e| {
        MapError::FitInfeasible {
            reason: e.to_string(),
        }
    })?;
    let i = est.index_of_dispersion();
    if !(i > 0.0) || !i.is_finite() {
        return Err(MapError::FitInfeasible {
            reason: format!(
                "estimated index of dispersion {i} is outside the MAP(2) feasible range \
                 (the trace's counting process is effectively deterministic)"
            ),
        });
    }
    Map2Fitter::new(mean, i, p95).fit()
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed literal streams; seeds::derive is the production contract"
)]
mod tests {
    use super::*;

    #[test]
    fn fits_bursty_target_exactly_on_i() {
        let fitted = Map2Fitter::new(1.0, 300.0, 2.0).fit().unwrap();
        assert!(
            fitted.i_error() < 1e-6,
            "bisection should nail I, err = {}",
            fitted.i_error()
        );
        assert!((fitted.map().mean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fits_moderate_target() {
        let fitted = Map2Fitter::new(0.005, 40.0, 0.02).fit().unwrap();
        let m = fitted.map();
        assert!((m.mean() - 0.005).abs() / 0.005 < 1e-9);
        assert!((m.index_of_dispersion() - 40.0).abs() / 40.0 < 0.2);
    }

    #[test]
    fn p95_selection_prefers_closer_candidates() {
        // Same mean and I, very different p95 targets: the chosen marginals
        // must differ and each approach its own target.
        let low = Map2Fitter::new(1.0, 100.0, 1.8).fit().unwrap();
        let high = Map2Fitter::new(1.0, 100.0, 4.5).fit().unwrap();
        assert!(
            low.chosen().achieved_p95 < high.chosen().achieved_p95,
            "p95 selection must differentiate candidates: {} vs {}",
            low.chosen().achieved_p95,
            high.chosen().achieved_p95
        );
    }

    #[test]
    fn near_poisson_target() {
        let fitted = Map2Fitter::new(2.0, 1.05, 6.0).fit().unwrap();
        let m = fitted.map();
        assert!((m.index_of_dispersion() - 1.05).abs() / 1.05 < 0.2);
    }

    #[test]
    fn sub_exponential_target_uses_renewal_hypo() {
        let fitted = Map2Fitter::new(1.0, 0.7, 2.0).fit().unwrap();
        let m = fitted.map();
        assert!((m.index_of_dispersion() - 0.7).abs() < 0.05);
        assert!((m.mean() - 1.0).abs() < 1e-9);
        assert!(m.lag1_correlation().abs() < 1e-9);
    }

    #[test]
    fn infeasible_dispersion_rejected() {
        assert!(matches!(
            Map2Fitter::new(1.0, 0.1, 1.0).fit(),
            Err(MapError::FitInfeasible { .. })
        ));
    }

    #[test]
    fn invalid_targets_rejected() {
        assert!(Map2Fitter::new(-1.0, 10.0, 1.0).fit().is_err());
        assert!(Map2Fitter::new(1.0, 0.0, 1.0).fit().is_err());
        assert!(Map2Fitter::new(1.0, 10.0, f64::NAN).fit().is_err());
    }

    #[test]
    fn candidate_list_is_ranked_by_p95_distance() {
        let fitted = Map2Fitter::new(1.0, 50.0, 3.0).fit().unwrap();
        let target = 3.0;
        let dists: Vec<f64> = fitted
            .candidates()
            .iter()
            .map(|c| (c.achieved_p95 - target).abs())
            .collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        assert!(
            fitted.candidates().len() > 3,
            "grid should yield multiple candidates"
        );
    }

    #[test]
    fn tie_break_prefers_larger_rho1() {
        let fitted = Map2Fitter::new(1.0, 80.0, 2.5).fit().unwrap();
        let best_d = (fitted.chosen().achieved_p95 - 2.5).abs();
        for c in fitted.candidates() {
            let d = (c.achieved_p95 - 2.5).abs();
            if d <= best_d * 1.001 + 1e-15 {
                assert!(c.rho1 <= fitted.chosen().rho1 + 1e-12);
            }
        }
    }

    #[test]
    fn renewal_hypo_map_is_valid() {
        let ph = Ph2::from_mean_scv(1.0, 0.6).unwrap();
        let m = renewal_map2(ph).unwrap();
        assert!((m.mean() - 1.0).abs() < 1e-9);
        assert!((m.scv() - 0.6).abs() < 1e-9);
        assert!((m.index_of_dispersion() - 0.6).abs() < 1e-8);
    }

    #[test]
    fn weighted_h2_hits_requested_moments() {
        for &(m, c2, p) in &[(1.0, 3.0, 0.6), (2.0, 10.0, 0.9), (0.004, 50.0, 0.75)] {
            if let Some(ph) = h2_with_weight(m, c2, p) {
                assert!((ph.mean() - m).abs() / m < 1e-9, "mean p={p}");
                assert!((ph.scv() - c2).abs() / c2 < 1e-9, "scv p={p}");
            }
        }
    }

    #[test]
    fn weighted_h2_rejects_infeasible() {
        assert!(h2_with_weight(1.0, 0.9, 0.5).is_none(), "needs scv > 1");
        assert!(h2_with_weight(1.0, 3.0, 0.0).is_none());
        assert!(h2_with_weight(1.0, 3.0, 1.0).is_none());
    }

    #[test]
    fn fit_from_trace_roundtrip() {
        // Generate a trace from a known bursty MAP and re-fit: I should land
        // in the right decade.
        use crate::sampler::MapSampler;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let truth = Map2Fitter::new(1.0, 60.0, 3.0).fit().unwrap().map();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut sampler = MapSampler::new(truth, &mut rng);
        let trace: Vec<f64> = (0..400_000).map(|_| sampler.next_event(&mut rng)).collect();
        let fitted = fit_from_trace(&trace, 40.0, 0.02).unwrap();
        let i = fitted.map().index_of_dispersion();
        assert!(
            (20.0..180.0).contains(&i),
            "refit I = {i}, expected same order of magnitude as 60"
        );
    }

    #[test]
    fn fit_from_trace_rejects_tiny_trace() {
        assert!(fit_from_trace(&[1.0, 2.0, 1.5], 1.0, 0.2).is_err());
    }

    fn cand(p95: f64, rho1: f64) -> Candidate {
        Candidate {
            scv: 4.0,
            p: 0.7,
            gamma: 0.5,
            achieved_i: 10.0,
            achieved_p95: p95,
            rho1,
        }
    }

    #[test]
    fn selection_discards_non_finite_candidates() {
        // Regression for the `.expect("p95 distances are finite")` panic:
        // a NaN p95 or rho1 used to poison the sort comparator; it must be
        // filtered out, not crash the fit.
        let mut list = vec![
            cand(f64::NAN, 0.1),
            cand(3.0, 0.2),
            cand(f64::INFINITY, 0.3),
            cand(2.9, f64::NAN),
            cand(2.5, 0.05),
        ];
        let chosen = select_candidate(&mut list, 2.6).unwrap();
        assert_eq!(chosen.achieved_p95, 2.5);
        assert_eq!(list.len(), 2, "non-finite candidates must be dropped");
        assert!(list
            .iter()
            .all(|c| c.achieved_p95.is_finite() && c.rho1.is_finite()));
    }

    #[test]
    fn selection_of_only_non_finite_candidates_is_none() {
        // If nothing survives the finiteness filter the fit must surface
        // FitInfeasible (select_candidate returns None), not panic.
        let mut list = vec![cand(f64::NAN, 0.1), cand(1.0, f64::INFINITY)];
        assert!(select_candidate(&mut list, 2.0).is_none());
        assert!(list.is_empty());
    }

    #[test]
    fn selection_tie_break_still_prefers_larger_rho1() {
        let mut list = vec![cand(3.0, 0.1), cand(3.0, 0.4), cand(5.0, 0.9)];
        let chosen = select_candidate(&mut list, 3.0).unwrap();
        assert_eq!(chosen.rho1, 0.4);
    }

    #[test]
    fn i_floor_records_the_adjustment() {
        // Opt-in floor: an infeasible target is raised to MIN_FEASIBLE_I and
        // the original request is preserved in the diagnostics.
        let fitted = Map2Fitter::new(1.0, 0.2, 1.5).i_floor(true).fit().unwrap();
        assert_eq!(fitted.floored_target_i(), Some(0.2));
        assert!((fitted.map().index_of_dispersion() - MIN_FEASIBLE_I).abs() < 0.05);
        // Even I = 0 (a deterministic tier) is accepted with the floor —
        // the planner's estimators produce exactly that on constant counts.
        let zero = Map2Fitter::new(1.0, 0.0, 1.5).i_floor(true).fit().unwrap();
        assert_eq!(zero.floored_target_i(), Some(0.0));
        // NaN is still a hard parameter error, floor or not.
        assert!(Map2Fitter::new(1.0, f64::NAN, 1.5)
            .i_floor(true)
            .fit()
            .is_err());
        // Feasible targets pass through unflagged, floor enabled or not.
        let ok = Map2Fitter::new(1.0, 0.7, 2.0).i_floor(true).fit().unwrap();
        assert_eq!(ok.floored_target_i(), None);
        let plain = Map2Fitter::new(1.0, 40.0, 3.0).fit().unwrap();
        assert_eq!(plain.floored_target_i(), None);
        // Without the opt-in, the same infeasible target still errors.
        assert!(matches!(
            Map2Fitter::new(1.0, 0.2, 1.5).fit(),
            Err(MapError::FitInfeasible { .. })
        ));
    }

    #[test]
    fn fit_from_trace_surfaces_underdispersed_traces() {
        // A deterministic trace has I = 0: any MAP(2) is *more* variable,
        // and the old `.max(0.51)` clamp hid that. It must now fail loudly.
        let trace = vec![1.0; 40_000];
        match fit_from_trace(&trace, 25.0, 0.2) {
            Err(MapError::FitInfeasible { reason }) => {
                assert!(
                    reason.contains("index of dispersion") || reason.contains("I ="),
                    "reason should name the dispersion: {reason}"
                );
            }
            other => panic!("expected FitInfeasible, got {other:?}"),
        }
    }

    #[test]
    fn fit_from_trace_accepts_feasible_low_variability() {
        // Just above the boundary: an i.i.d. hypoexponential trace with
        // SCV ~ 0.7 has I ~ 0.7 > 1/2 and must fit (via the renewal
        // branch), with no floor adjustment recorded.
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let ph = Ph2::from_mean_scv(1.0, 0.7).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let trace: Vec<f64> = (0..200_000).map(|_| ph.sample(&mut rng)).collect();
        let fitted = fit_from_trace(&trace, 30.0, 0.1).unwrap();
        assert_eq!(fitted.floored_target_i(), None);
        let i = fitted.map().index_of_dispersion();
        assert!((0.4..1.1).contains(&i), "refit I = {i}, expected ~0.7");
    }
}
