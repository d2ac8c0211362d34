//! General n-state Markovian Arrival Processes.
//!
//! The paper's methodology only needs MAP(2)s, but the library exposes the
//! n-state generalization so downstream users can experiment with richer
//! processes (e.g. KPC-style compositions). Analysis follows the same
//! matrix-analytic identities as [`crate::map2`], implemented with dense
//! linear algebra sized for small n.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::map2::Map2;
use crate::ph::sample_exp;
use crate::MapError;

/// An n-state MAP given by dense `(D0, D1)` matrices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Map {
    d0: Vec<Vec<f64>>,
    d1: Vec<Vec<f64>>,
}

impl Map {
    /// Construct and validate an n-state MAP.
    ///
    /// # Errors
    /// Mirrors [`Map2::new`]: sign pattern, square shape, zero row sums of
    /// `D0 + D1`, and a non-trivial `D1`.
    pub fn new(d0: Vec<Vec<f64>>, d1: Vec<Vec<f64>>) -> Result<Self, MapError> {
        let n = d0.len();
        if n == 0 {
            return Err(MapError::InvalidRepresentation {
                reason: "empty matrices".into(),
            });
        }
        if d1.len() != n || d0.iter().any(|r| r.len() != n) || d1.iter().any(|r| r.len() != n) {
            return Err(MapError::InvalidRepresentation {
                reason: "D0 and D1 must be square with matching size".into(),
            });
        }
        for i in 0..n {
            if !(d0[i][i] < 0.0) || !d0[i][i].is_finite() {
                return Err(MapError::InvalidRepresentation {
                    reason: format!("D0[{i}][{i}] must be negative"),
                });
            }
            for j in 0..n {
                if i != j && (d0[i][j] < 0.0 || !d0[i][j].is_finite()) {
                    return Err(MapError::InvalidRepresentation {
                        reason: format!("D0[{i}][{j}] must be non-negative"),
                    });
                }
                if d1[i][j] < 0.0 || !d1[i][j].is_finite() {
                    return Err(MapError::InvalidRepresentation {
                        reason: format!("D1[{i}][{j}] must be non-negative"),
                    });
                }
            }
            let row: f64 = (0..n).map(|j| d0[i][j] + d1[i][j]).sum();
            if row.abs() > 1e-8 * d0[i][i].abs().max(1.0) {
                return Err(MapError::InvalidRepresentation {
                    reason: format!("row {i} of D0 + D1 sums to {row}, expected 0"),
                });
            }
        }
        if d1.iter().flatten().all(|&x| x == 0.0) {
            return Err(MapError::InvalidRepresentation {
                reason: "D1 must contain at least one positive rate".into(),
            });
        }
        Ok(Map { d0, d1 })
    }

    /// Number of phases.
    pub fn order(&self) -> usize {
        self.d0.len()
    }

    /// The hidden-transition matrix `D0`.
    pub fn d0(&self) -> &[Vec<f64>] {
        &self.d0
    }

    /// The event-transition matrix `D1`.
    pub fn d1(&self) -> &[Vec<f64>] {
        &self.d1
    }

    /// `M = (-D0)^{-1}` by Gaussian elimination.
    fn m_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.order();
        let mut a: Vec<Vec<f64>> = self
            .d0
            .iter()
            .map(|r| r.iter().map(|x| -x).collect())
            .collect();
        let mut inv = identity(n);
        for col in 0..n {
            #[expect(
                clippy::expect_used,
                reason = "col < n keeps the pivot range non-empty"
            )]
            let pivot = (col..n)
                .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
                .expect("non-empty");
            a.swap(col, pivot);
            inv.swap(col, pivot);
            let d = a[col][col];
            debug_assert!(d.abs() > 1e-14, "(-D0) must be nonsingular for a valid MAP");
            for k in 0..n {
                a[col][k] /= d;
                inv[col][k] /= d;
            }
            for row in 0..n {
                if row == col {
                    continue;
                }
                let f = a[row][col];
                if f == 0.0 {
                    continue;
                }
                for k in 0..n {
                    a[row][k] -= f * a[col][k];
                    inv[row][k] -= f * inv[col][k];
                }
            }
        }
        inv
    }

    /// Embedded phase chain at events, `P = (-D0)^{-1} D1`.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn embedded_chain(&self) -> Vec<Vec<f64>> {
        mat_mul(&self.m_matrix(), &self.d1)
    }

    /// Stationary distribution of the embedded chain by power iteration.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn embedded_stationary(&self) -> Vec<f64> {
        let p = self.embedded_chain();
        let n = self.order();
        let mut pi = vec![1.0 / n as f64; n];
        for _ in 0..20_000 {
            let next = vec_mat(&pi, &p);
            let diff: f64 = next.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum();
            pi = next;
            // Renormalize against drift.
            let s: f64 = pi.iter().sum();
            for x in pi.iter_mut() {
                *x /= s;
            }
            if diff < 1e-14 {
                break;
            }
        }
        pi
    }

    /// Raw inter-event moment `E[X^k] = k! pi M^k 1` for `k = 1..=3`.
    ///
    /// # Panics
    /// Panics for unsupported `k`, as in [`Map2::moment`].
    pub fn moment(&self, k: u32) -> f64 {
        assert!((1..=3).contains(&k), "supported moments: 1..=3");
        let m = self.m_matrix();
        let mut v = self.embedded_stationary();
        let mut factorial = 1.0;
        for i in 1..=k {
            v = vec_mat(&v, &m);
            factorial *= i as f64;
        }
        factorial * v.iter().sum::<f64>()
    }

    /// Mean inter-event time.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn mean(&self) -> f64 {
        self.moment(1)
    }

    /// Squared coefficient of variation of inter-event times.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn scv(&self) -> f64 {
        let m1 = self.moment(1);
        self.moment(2) / (m1 * m1) - 1.0
    }

    /// Asymptotic index of dispersion via the fundamental matrix:
    /// `I = SCV + 2 * pi M (Z - I) M 1 / m1^2` with
    /// `Z = (I - P + 1 pi)^{-1}`.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn index_of_dispersion(&self) -> f64 {
        let n = self.order();
        let p = self.embedded_chain();
        let pi = self.embedded_stationary();
        let m = self.m_matrix();
        // A = I - P + 1*pi.
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                a[i][j] = if i == j { 1.0 } else { 0.0 } - p[i][j] + pi[j];
            }
        }
        let z = invert(&a);
        // pi M (Z - I) M 1.
        let pim = vec_mat(&pi, &m);
        let mut zmi = z;
        for (i, row) in zmi.iter_mut().enumerate() {
            row[i] -= 1.0;
        }
        let w = vec_mat(&pim, &zmi);
        let wm = vec_mat(&w, &m);
        let cross: f64 = wm.iter().sum();
        let m1 = self.moment(1);
        self.scv() + 2.0 * cross / (m1 * m1)
    }
}

impl From<Map2> for Map {
    fn from(m: Map2) -> Self {
        let to_vec = |a: &[[f64; 2]; 2]| vec![vec![a[0][0], a[0][1]], vec![a[1][0], a[1][1]]];
        Map {
            d0: to_vec(m.d0()),
            d1: to_vec(m.d1()),
        }
    }
}

/// Stateful sampler for n-state MAPs, mirroring
/// [`crate::sampler::MapSampler`].
#[derive(Debug, Clone)]
pub struct GeneralSampler {
    map: Map,
    phase: usize,
}

impl GeneralSampler {
    /// Create a sampler starting from the embedded stationary distribution.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn new<R: Rng + ?Sized>(map: Map, rng: &mut R) -> Self {
        let pi = map.embedded_stationary();
        let u = rng.random::<f64>();
        let mut acc = 0.0;
        let mut phase = 0;
        for (i, &w) in pi.iter().enumerate() {
            acc += w;
            if u < acc {
                phase = i;
                break;
            }
            phase = i;
        }
        GeneralSampler { map, phase }
    }

    /// Draw the next inter-event time.
    pub fn next_event<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let n = self.map.order();
        let mut elapsed = 0.0;
        loop {
            let i = self.phase;
            let total = -self.map.d0[i][i];
            elapsed += sample_exp(rng, total);
            let u = rng.random::<f64>() * total;
            let mut acc = 0.0;
            for j in 0..n {
                if j != i {
                    acc += self.map.d0[i][j];
                    if u < acc {
                        self.phase = j;
                        break;
                    }
                }
            }
            if u < acc {
                continue;
            }
            for j in 0..n {
                acc += self.map.d1[i][j];
                if u < acc {
                    self.phase = j;
                    return elapsed;
                }
            }
            // Floating-point slack: stay in place and emit.
            return elapsed;
        }
    }
}

fn identity(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| (0..n).map(|j| f64::from(u8::from(i == j))).collect())
        .collect()
}

fn mat_mul(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = a.len();
    let mut out = vec![vec![0.0; n]; n];
    for i in 0..n {
        for (k, &aik) in a[i].iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i][j] += aik * b[k][j];
            }
        }
    }
    out
}

fn vec_mat(v: &[f64], m: &[Vec<f64>]) -> Vec<f64> {
    let n = v.len();
    let mut out = vec![0.0; n];
    for (k, &vk) in v.iter().enumerate() {
        if vk == 0.0 {
            continue;
        }
        for j in 0..n {
            out[j] += vk * m[k][j];
        }
    }
    out
}

fn invert(a: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = a.len();
    let mut work: Vec<Vec<f64>> = a.to_vec();
    let mut inv = identity(n);
    for col in 0..n {
        #[expect(
            clippy::expect_used,
            reason = "col < n keeps the pivot range non-empty"
        )]
        let pivot = (col..n)
            .max_by(|&i, &j| work[i][col].abs().total_cmp(&work[j][col].abs()))
            .expect("non-empty");
        work.swap(col, pivot);
        inv.swap(col, pivot);
        let d = work[col][col];
        for k in 0..n {
            work[col][k] /= d;
            inv[col][k] /= d;
        }
        for row in 0..n {
            if row == col {
                continue;
            }
            let f = work[row][col];
            if f == 0.0 {
                continue;
            }
            for k in 0..n {
                work[row][k] -= f * work[col][k];
                inv[row][k] -= f * inv[col][k];
            }
        }
    }
    inv
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed literal streams; seeds::derive is the production contract"
)]
mod tests {
    use super::*;
    use crate::fit::Map2Fitter;
    use crate::ph::Ph2;

    fn poisson_map(rate: f64) -> Map {
        Map::new(vec![vec![-rate]], vec![vec![rate]]).unwrap()
    }

    #[test]
    fn one_state_poisson_analysis() {
        let m = poisson_map(2.0);
        assert!((m.mean() - 0.5).abs() < 1e-12);
        assert!((m.scv() - 1.0).abs() < 1e-10);
        assert!((m.index_of_dispersion() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn general_agrees_with_map2_closed_forms() {
        let marginal = Ph2::from_mean_scv(1.0, 3.0).unwrap();
        let m2 = Map2::from_hyper_marginal(marginal, 0.9).unwrap();
        let gen: Map = m2.into();
        assert!((gen.mean() - m2.mean()).abs() < 1e-10);
        assert!((gen.scv() - m2.scv()).abs() < 1e-8);
        assert!(
            (gen.index_of_dispersion() - m2.index_of_dispersion()).abs() / m2.index_of_dispersion()
                < 1e-6,
            "I general {} vs map2 {}",
            gen.index_of_dispersion(),
            m2.index_of_dispersion()
        );
    }

    #[test]
    fn fitted_map_roundtrips_through_general() {
        let m2 = Map2Fitter::new(0.01, 120.0, 0.03).fit().unwrap().map();
        let gen: Map = m2.into();
        assert!((gen.index_of_dispersion() - 120.0).abs() / 120.0 < 0.01);
    }

    #[test]
    fn three_state_map_is_analyzable() {
        // Ring of three phases with distinct rates.
        let d0 = vec![
            vec![-3.0, 0.5, 0.0],
            vec![0.0, -1.0, 0.2],
            vec![0.1, 0.0, -5.0],
        ];
        let d1 = vec![
            vec![2.5, 0.0, 0.0],
            vec![0.0, 0.8, 0.0],
            vec![0.0, 4.9, 0.0],
        ];
        let m = Map::new(d0, d1).unwrap();
        assert_eq!(m.order(), 3);
        assert!(m.mean() > 0.0);
        assert!(m.index_of_dispersion().is_finite());
        let pi = m.embedded_stationary();
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(pi.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn validation_rejects_ragged() {
        assert!(Map::new(vec![vec![-1.0, 1.0]], vec![vec![0.0, 0.0]]).is_err());
    }

    #[test]
    fn validation_rejects_bad_rows() {
        assert!(Map::new(vec![vec![-1.0]], vec![vec![0.5]]).is_err());
    }

    #[test]
    fn sampler_mean_matches_analysis() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let marginal = Ph2::from_mean_scv(1.0, 3.0).unwrap();
        let gen: Map = Map2::from_hyper_marginal(marginal, 0.8).unwrap().into();
        let expected = gen.mean();
        let mut rng = SmallRng::seed_from_u64(77);
        let mut s = GeneralSampler::new(gen, &mut rng);
        let n = 200_000;
        let mean = (0..n).map(|_| s.next_event(&mut rng)).sum::<f64>() / n as f64;
        assert!(
            (mean - expected).abs() / expected < 0.02,
            "{mean} vs {expected}"
        );
    }
}
