//! Two-phase Markovian Arrival Processes and their closed-form analysis.
//!
//! A MAP(2) is a pair of 2×2 matrices `(D0, D1)`: `D0` holds the rates of
//! *hidden* phase transitions (negative diagonal), `D1` the rates of
//! transitions that *mark an event* (a service completion, in the paper's
//! usage), and `D0 + D1` is the generator of the underlying two-state Markov
//! chain. The active phase modulates the event rate, which is exactly the
//! mechanism the paper uses to reproduce service burstiness: one phase serves
//! fast, the other slow, and the switching frequency controls how long bursts
//! persist (Section 4.1).
//!
//! All first- and second-order descriptors have closed forms for two phases:
//! the embedded phase chain at events `P = (-D0)^{-1} D1` is stochastic with
//! eigenvalues `{1, gamma}`, lag-k autocorrelations decay geometrically as
//! `rho_k = rho_1 * gamma^{k-1}`, and the asymptotic index of dispersion is
//! `I = SCV * (1 + 2 rho_1 / (1 - gamma))` — the quantity the paper's Figure 2
//! algorithm estimates from measurements.

use serde::{Deserialize, Serialize};

use crate::expm::expm2;
use crate::ph::Ph2;
use crate::MapError;

/// Tolerance used when validating generator row sums.
const ROW_SUM_TOL: f64 = 1e-8;

/// A validated two-phase Markovian Arrival Process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Map2 {
    d0: [[f64; 2]; 2],
    d1: [[f64; 2]; 2],
}

impl Map2 {
    /// Construct a MAP(2) from its `(D0, D1)` representation.
    ///
    /// # Errors
    /// Returns [`MapError::InvalidRepresentation`] unless all of the
    /// following hold:
    /// * `D0` has strictly negative diagonal and non-negative off-diagonal;
    /// * `D1` is entrywise non-negative with at least one positive entry;
    /// * each row of `D0 + D1` sums to zero (within tolerance);
    /// * the process is irreducible (the embedded event chain must not be
    ///   absorbing in a phase that never produces events).
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn new(d0: [[f64; 2]; 2], d1: [[f64; 2]; 2]) -> Result<Self, MapError> {
        for i in 0..2 {
            if !(d0[i][i] < 0.0) || !d0[i][i].is_finite() {
                return Err(MapError::InvalidRepresentation {
                    reason: format!(
                        "D0 diagonal must be negative, got D0[{i}][{i}] = {}",
                        d0[i][i]
                    ),
                });
            }
            for j in 0..2 {
                if i != j && (d0[i][j] < 0.0 || !d0[i][j].is_finite()) {
                    return Err(MapError::InvalidRepresentation {
                        reason: format!(
                            "D0 off-diagonal must be non-negative, got D0[{i}][{j}] = {}",
                            d0[i][j]
                        ),
                    });
                }
                if d1[i][j] < 0.0 || !d1[i][j].is_finite() {
                    return Err(MapError::InvalidRepresentation {
                        reason: format!("D1 must be non-negative, got D1[{i}][{j}] = {}", d1[i][j]),
                    });
                }
            }
            let row_sum = d0[i][0] + d0[i][1] + d1[i][0] + d1[i][1];
            let scale = d0[i][i].abs().max(1.0);
            if row_sum.abs() > ROW_SUM_TOL * scale {
                return Err(MapError::InvalidRepresentation {
                    reason: format!("row {i} of D0 + D1 must sum to 0, got {row_sum}"),
                });
            }
        }
        if d1.iter().flatten().all(|&x| x == 0.0) {
            return Err(MapError::InvalidRepresentation {
                reason: "D1 must contain at least one positive rate".into(),
            });
        }
        let map = Map2 { d0, d1 };
        // Irreducibility of the embedded chain: its stationary vector must be
        // a proper probability vector.
        let pi = map.embedded_stationary();
        if !(pi[0] >= -1e-12 && pi[1] >= -1e-12) {
            return Err(MapError::InvalidRepresentation {
                reason: "embedded event chain is not irreducible".into(),
            });
        }
        Ok(map)
    }

    /// Degenerate MAP(2) representing a Poisson process with the given rate
    /// (both phases identical).
    ///
    /// # Errors
    /// Rejects non-positive rates.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn poisson(rate: f64) -> Result<Self, MapError> {
        if rate <= 0.0 || !rate.is_finite() {
            return Err(MapError::InvalidParameter {
                name: "rate",
                reason: format!("must be positive and finite, got {rate}"),
            });
        }
        // Jump to a uniformly random phase at each event: both phases are
        // identical, but the embedded chain stays irreducible (gamma = 0).
        let half = rate / 2.0;
        Map2::new([[-rate, 0.0], [0.0, -rate]], [[half, half], [half, half]])
    }

    /// Build a MAP(2) from a two-phase marginal and a phase-persistence
    /// parameter `gamma` — the **mixed-phase family** used by the fitting
    /// pipeline of Section 4.1.
    ///
    /// The marginal must be hyperexponential (or exponential); the embedded
    /// event chain is `P = (1 - gamma) * Pi + gamma * I`, where `Pi` has both
    /// rows equal to the mixture weights. For every `gamma` in the feasible
    /// range the stationary inter-event distribution is exactly the given
    /// marginal, while `gamma` alone controls the burst persistence:
    /// `gamma = 0` gives an i.i.d. (renewal) process with `I = SCV`, and
    /// `gamma -> 1` drives the index of dispersion to infinity.
    ///
    /// # Errors
    /// Rejects hypoexponential marginals (their phases are sequential, not
    /// modal) and `gamma` outside `[gamma_min, 1)` where
    /// `gamma_min = -min(p/(1-p), (1-p)/p)` keeps `D1` non-negative.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn from_hyper_marginal(marginal: Ph2, gamma: f64) -> Result<Self, MapError> {
        let Ph2::Hyper { p, rate1, rate2 } = marginal else {
            return Err(MapError::InvalidParameter {
                name: "marginal",
                reason: "mixed-phase family requires a hyperexponential marginal".into(),
            });
        };
        // burstcap-lint: allow(float-eq) — p == 1.0 is an exact boundary sentinel, not a computed value
        if !(0.0..1.0).contains(&p) && p != 1.0 {
            return Err(MapError::InvalidParameter {
                name: "marginal",
                reason: format!("mixture weight must lie in (0, 1], got {p}"),
            });
        }
        // burstcap-lint: allow(float-eq) — exact sentinel: caller-supplied boundary weight selects the degenerate family
        if p == 1.0 {
            // Degenerate single-phase marginal: gamma is irrelevant.
            return Map2::poisson(rate1);
        }
        let gamma_min = -(p / (1.0 - p)).min((1.0 - p) / p);
        if !(gamma < 1.0 && gamma >= gamma_min) {
            return Err(MapError::InvalidParameter {
                name: "gamma",
                reason: format!("must lie in [{gamma_min:.6}, 1), got {gamma}"),
            });
        }
        // P = (1 - gamma) * [p, 1-p; p, 1-p] + gamma * I.
        let p_mat = [
            [(1.0 - gamma) * p + gamma, (1.0 - gamma) * (1.0 - p)],
            [(1.0 - gamma) * p, (1.0 - gamma) * (1.0 - p) + gamma],
        ];
        // D0 diagonal (no hidden transitions), D1 = diag(rates) * P.
        let d0 = [[-rate1, 0.0], [0.0, -rate2]];
        let d1 = [
            [rate1 * p_mat[0][0], rate1 * p_mat[0][1]],
            [rate2 * p_mat[1][0], rate2 * p_mat[1][1]],
        ];
        Map2::new(d0, d1)
    }

    /// The hidden-transition rate matrix `D0`.
    pub fn d0(&self) -> &[[f64; 2]; 2] {
        &self.d0
    }

    /// The event-transition rate matrix `D1`.
    pub fn d1(&self) -> &[[f64; 2]; 2] {
        &self.d1
    }

    /// `M = (-D0)^{-1}`.
    fn m_matrix(&self) -> [[f64; 2]; 2] {
        let a = [
            [-self.d0[0][0], -self.d0[0][1]],
            [-self.d0[1][0], -self.d0[1][1]],
        ];
        let det = a[0][0] * a[1][1] - a[0][1] * a[1][0];
        debug_assert!(det > 0.0, "(-D0) of a valid MAP is a nonsingular M-matrix");
        [
            [a[1][1] / det, -a[0][1] / det],
            [-a[1][0] / det, a[0][0] / det],
        ]
    }

    /// Embedded phase-transition matrix at event epochs,
    /// `P = (-D0)^{-1} D1` (stochastic).
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn embedded_chain(&self) -> [[f64; 2]; 2] {
        let m = self.m_matrix();
        let mut p = [[0.0; 2]; 2];
        for i in 0..2 {
            for j in 0..2 {
                p[i][j] = m[i][0] * self.d1[0][j] + m[i][1] * self.d1[1][j];
            }
        }
        p
    }

    /// Stationary distribution of the embedded chain (phase seen just after
    /// an event).
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn embedded_stationary(&self) -> [f64; 2] {
        let p = self.embedded_chain();
        // pi P = pi with pi1 + pi2 = 1 => pi1 = p21 / (p12 + p21).
        let p12 = p[0][1];
        let p21 = p[1][0];
        if p12 + p21 <= f64::EPSILON {
            // Diagonal embedded chain: phases never communicate at events.
            // Valid only when the two phases are statistically identical
            // (e.g. the Poisson construction); split evenly.
            return [0.5, 0.5];
        }
        [p21 / (p12 + p21), p12 / (p12 + p21)]
    }

    /// Second eigenvalue `gamma` of the embedded chain — the geometric decay
    /// rate of the autocorrelation function (`rho_k = rho_1 gamma^{k-1}`).
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn gamma(&self) -> f64 {
        let p = self.embedded_chain();
        p[0][0] + p[1][1] - 1.0
    }

    /// Raw moment `E[X^k]` of the stationary inter-event time, for
    /// `k = 1, 2, 3` (`k! * pi * M^k * 1`).
    ///
    /// # Panics
    /// Panics for `k = 0` or `k > 3`; higher moments are not needed by the
    /// methodology and keeping the contract narrow avoids silent misuse.
    pub fn moment(&self, k: u32) -> f64 {
        assert!((1..=3).contains(&k), "supported moments: 1..=3");
        let pi = self.embedded_stationary();
        let m = self.m_matrix();
        let mut v = pi;
        let mut factorial = 1.0;
        for i in 1..=k {
            v = [
                v[0] * m[0][0] + v[1] * m[1][0],
                v[0] * m[0][1] + v[1] * m[1][1],
            ];
            factorial *= i as f64;
        }
        factorial * (v[0] + v[1])
    }

    /// Mean inter-event time (mean service time when the MAP models a
    /// service process).
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn mean(&self) -> f64 {
        self.moment(1)
    }

    /// Stationary event rate (`1 / mean`).
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn rate(&self) -> f64 {
        1.0 / self.mean()
    }

    /// Variance of the stationary inter-event time.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn variance(&self) -> f64 {
        let m1 = self.moment(1);
        self.moment(2) - m1 * m1
    }

    /// Squared coefficient of variation of inter-event times.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn scv(&self) -> f64 {
        let m1 = self.moment(1);
        self.variance() / (m1 * m1)
    }

    /// Lag-k autocorrelation coefficient of inter-event times:
    /// `rho_k = (pi M P^k M 1 - m1^2) / Var`.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn lag_correlation(&self, k: u32) -> f64 {
        if k == 0 {
            return 1.0;
        }
        let rho1 = self.lag1_correlation();
        rho1 * self.gamma().powi((k - 1) as i32)
    }

    /// Lag-1 autocorrelation coefficient.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn lag1_correlation(&self) -> f64 {
        let pi = self.embedded_stationary();
        let m = self.m_matrix();
        let p = self.embedded_chain();
        // pi * M
        let v = [
            pi[0] * m[0][0] + pi[1] * m[1][0],
            pi[0] * m[0][1] + pi[1] * m[1][1],
        ];
        // (pi M) * P
        let w = [
            v[0] * p[0][0] + v[1] * p[1][0],
            v[0] * p[0][1] + v[1] * p[1][1],
        ];
        // (pi M P) * M * 1
        let e_x0x1 = w[0] * (m[0][0] + m[0][1]) + w[1] * (m[1][0] + m[1][1]);
        let m1 = self.moment(1);
        let var = self.variance();
        if var <= f64::EPSILON * m1 * m1 {
            return 0.0;
        }
        (e_x0x1 - m1 * m1) / var
    }

    /// Asymptotic index of dispersion for counts (the paper's Eq. (1)/(2)):
    /// `I = SCV * (1 + 2 * sum_k rho_k) = SCV * (1 + 2 rho_1 / (1 - gamma))`.
    ///
    /// For a Poisson process this is exactly 1; values in the hundreds signal
    /// strong burstiness (paper, Section 2.1).
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn index_of_dispersion(&self) -> f64 {
        let g = self.gamma();
        let scv = self.scv();
        let rho1 = self.lag1_correlation();
        if (1.0 - g).abs() < 1e-12 {
            // Degenerate persistence: uncorrelated phases mean a renewal
            // process (I = SCV); any residual correlation diverges.
            return if rho1.abs() < 1e-12 {
                scv
            } else {
                f64::INFINITY
            };
        }
        scv * (1.0 + 2.0 * rho1 / (1.0 - g))
    }

    /// CDF of the stationary inter-event time:
    /// `F(x) = 1 - pi exp(D0 x) 1`.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn interval_cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let pi = self.embedded_stationary();
        let e = expm2(&self.d0, x);
        let survival = pi[0] * (e[0][0] + e[0][1]) + pi[1] * (e[1][0] + e[1][1]);
        // burstcap-lint: allow(silent-clamp) — expm roundoff can push a CDF value 1e-16 outside [0,1]; clamp restores the probability axioms
        (1.0 - survival).clamp(0.0, 1.0)
    }

    /// Quantile of the stationary inter-event time by bisection on
    /// [`interval_cdf`](Self::interval_cdf); `quantile(0.95)` is the p95 the
    /// fitting pipeline matches against measurements.
    ///
    /// # Errors
    /// Rejects `q` outside `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn quantile(&self, q: f64) -> Result<f64, MapError> {
        if !(q > 0.0 && q < 1.0) {
            return Err(MapError::InvalidParameter {
                name: "q",
                reason: format!("must lie strictly in (0, 1), got {q}"),
            });
        }
        let mut hi = self.mean();
        let mut guard = 0;
        while self.interval_cdf(hi) < q {
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
            if self.interval_cdf(mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo <= 1e-12 * hi.max(1e-300) {
                break;
            }
        }
        Ok(0.5 * (lo + hi))
    }

    /// Rescale time so the mean inter-event time becomes `mean`, preserving
    /// SCV, autocorrelations, and the index of dispersion (all scale-free).
    ///
    /// # Errors
    /// Rejects non-positive target means.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn with_mean(&self, mean: f64) -> Result<Self, MapError> {
        if mean <= 0.0 || !mean.is_finite() {
            return Err(MapError::InvalidParameter {
                name: "mean",
                reason: format!("must be positive and finite, got {mean}"),
            });
        }
        let f = self.mean() / mean;
        let scale = |m: &[[f64; 2]; 2]| [[m[0][0] * f, m[0][1] * f], [m[1][0] * f, m[1][1] * f]];
        Map2::new(scale(&self.d0), scale(&self.d1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ph::Ph2;

    fn h2(mean: f64, scv: f64) -> Ph2 {
        Ph2::from_mean_scv(mean, scv).unwrap()
    }

    #[test]
    fn poisson_is_valid_and_memoryless() {
        let m = Map2::poisson(2.0).unwrap();
        assert!((m.mean() - 0.5).abs() < 1e-12);
        assert!((m.scv() - 1.0).abs() < 1e-10);
        assert!(m.lag1_correlation().abs() < 1e-10);
        assert!((m.index_of_dispersion() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_positive_d0_diagonal() {
        assert!(Map2::new([[1.0, 0.0], [0.0, -1.0]], [[0.0, 0.0], [0.5, 0.5]]).is_err());
    }

    #[test]
    fn rejects_negative_d1() {
        assert!(Map2::new([[-1.0, 0.0], [0.0, -1.0]], [[1.5, -0.5], [0.0, 1.0]]).is_err());
    }

    #[test]
    fn rejects_bad_row_sums() {
        assert!(Map2::new([[-1.0, 0.0], [0.0, -1.0]], [[0.5, 0.0], [0.0, 1.0]]).is_err());
    }

    #[test]
    fn rejects_zero_d1() {
        assert!(Map2::new([[-1.0, 1.0], [1.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]]).is_err());
    }

    #[test]
    fn embedded_chain_is_stochastic() {
        let m = Map2::from_hyper_marginal(h2(1.0, 3.0), 0.9).unwrap();
        let p = m.embedded_chain();
        for row in p {
            assert!((row[0] + row[1] - 1.0).abs() < 1e-10);
            assert!(row[0] >= 0.0 && row[1] >= 0.0);
        }
    }

    #[test]
    fn mixed_phase_family_preserves_marginal() {
        let marginal = h2(1.0, 3.0);
        let p95 = marginal.quantile(0.95).unwrap();
        for &gamma in &[0.0, 0.3, 0.9, 0.99] {
            let m = Map2::from_hyper_marginal(marginal, gamma).unwrap();
            assert!((m.mean() - 1.0).abs() < 1e-9, "gamma={gamma}");
            assert!(
                (m.scv() - 3.0).abs() < 1e-8,
                "gamma={gamma}, scv={}",
                m.scv()
            );
            let q = m.quantile(0.95).unwrap();
            assert!(
                (q - p95).abs() / p95 < 1e-6,
                "gamma={gamma}: p95 {q} vs {p95}"
            );
        }
    }

    #[test]
    fn gamma_matches_construction() {
        for &g in &[0.0, 0.5, 0.95] {
            let m = Map2::from_hyper_marginal(h2(1.0, 4.0), g).unwrap();
            assert!((m.gamma() - g).abs() < 1e-10, "gamma={g} got {}", m.gamma());
        }
    }

    #[test]
    fn renewal_case_has_scv_dispersion() {
        // gamma = 0: iid hyperexponential, so I = SCV.
        let m = Map2::from_hyper_marginal(h2(1.0, 3.0), 0.0).unwrap();
        assert!(m.lag1_correlation().abs() < 1e-10);
        assert!((m.index_of_dispersion() - 3.0).abs() < 1e-8);
    }

    #[test]
    fn dispersion_grows_monotonically_with_gamma() {
        let mut last = 0.0;
        for &g in &[0.0, 0.5, 0.9, 0.99, 0.999] {
            let m = Map2::from_hyper_marginal(h2(1.0, 3.0), g).unwrap();
            let i = m.index_of_dispersion();
            assert!(i > last, "I({g}) = {i} not > {last}");
            last = i;
        }
        assert!(
            last > 1000.0,
            "gamma=0.999 should be extremely bursty, I = {last}"
        );
    }

    #[test]
    fn lag_correlations_decay_geometrically() {
        let m = Map2::from_hyper_marginal(h2(1.0, 3.0), 0.8).unwrap();
        let r1 = m.lag_correlation(1);
        let r2 = m.lag_correlation(2);
        let r3 = m.lag_correlation(3);
        assert!(r1 > 0.0);
        assert!((r2 / r1 - 0.8).abs() < 1e-9);
        assert!((r3 / r2 - 0.8).abs() < 1e-9);
    }

    #[test]
    fn interval_cdf_monotone() {
        let m = Map2::from_hyper_marginal(h2(2.0, 5.0), 0.7).unwrap();
        let mut last = 0.0;
        for k in 1..=50 {
            let f = m.interval_cdf(k as f64 * 0.3);
            assert!(f >= last - 1e-12);
            last = f;
        }
        assert!(last > 0.9);
    }

    #[test]
    fn quantile_inverts_interval_cdf() {
        let m = Map2::from_hyper_marginal(h2(1.0, 3.0), 0.5).unwrap();
        for &q in &[0.1, 0.5, 0.95] {
            let x = m.quantile(q).unwrap();
            assert!((m.interval_cdf(x) - q).abs() < 1e-9);
        }
    }

    #[test]
    fn quantile_rejects_bad_q() {
        let m = Map2::poisson(1.0).unwrap();
        assert!(m.quantile(1.0).is_err());
        assert!(m.quantile(-0.5).is_err());
    }

    #[test]
    fn with_mean_rescales_only_time() {
        let m = Map2::from_hyper_marginal(h2(1.0, 3.0), 0.9).unwrap();
        let scaled = m.with_mean(0.004).unwrap();
        assert!((scaled.mean() - 0.004).abs() < 1e-12);
        assert!((scaled.scv() - m.scv()).abs() < 1e-9);
        assert!((scaled.index_of_dispersion() - m.index_of_dispersion()).abs() < 1e-6);
        assert!((scaled.gamma() - m.gamma()).abs() < 1e-10);
    }

    #[test]
    fn with_mean_rejects_bad_target() {
        let m = Map2::poisson(1.0).unwrap();
        assert!(m.with_mean(0.0).is_err());
    }

    #[test]
    fn hypo_marginal_rejected_by_family() {
        let hypo = Ph2::from_mean_scv(1.0, 0.7).unwrap();
        assert!(Map2::from_hyper_marginal(hypo, 0.5).is_err());
    }

    #[test]
    fn gamma_out_of_range_rejected() {
        assert!(Map2::from_hyper_marginal(h2(1.0, 3.0), 1.0).is_err());
        assert!(Map2::from_hyper_marginal(h2(1.0, 3.0), -0.99).is_err());
    }

    #[test]
    fn negative_gamma_gives_negative_correlation() {
        let marginal = h2(1.0, 3.0);
        // Feasible small negative gamma.
        let m = Map2::from_hyper_marginal(marginal, -0.1).unwrap();
        assert!(m.lag1_correlation() < 0.0);
        assert!(m.index_of_dispersion() < 3.0, "I must drop below SCV");
    }

    #[test]
    fn moment_contract_is_narrow() {
        let m = Map2::poisson(1.0).unwrap();
        // Exponential moments: E[X^k] = k! for rate 1.
        assert!((m.moment(1) - 1.0).abs() < 1e-10);
        assert!((m.moment(2) - 2.0).abs() < 1e-10);
        assert!((m.moment(3) - 6.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "supported moments")]
    fn moment_zero_panics() {
        let _ = Map2::poisson(1.0).unwrap().moment(0);
    }
}
