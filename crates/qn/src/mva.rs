//! Mean Value Analysis of closed product-form queueing networks.
//!
//! This is the paper's baseline (Section 3.4): a closed network of
//! processor-sharing queues plus a delay (think) stage, parameterized only by
//! mean service demands, solved with the exact MVA recursion of Reiser &
//! Lavenberg. The paper shows this model is accurate for the shopping and
//! ordering mixes but errs by up to 36% under the browsing mix's bottleneck
//! switch — MVA provably cannot capture dependence between service times
//! (Balbo & Serazzi), which is exactly what the MAP model in
//! [`crate::mapqn`] adds.
//!
//! Also provided: the Schweitzer fixed-point approximation for large
//! populations and exact multiclass MVA for mixed workloads.

use serde::{Deserialize, Serialize};
// BTreeMap, not HashMap: the memo is keyed by population vectors and its
// iteration order must not leak randomness into any output (`clippy.toml`
// bans hash collections; CI diffs solver outputs bit-for-bit).
use std::collections::BTreeMap;

use crate::QnError;

/// Solution of a closed network for one population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MvaSolution {
    /// System throughput (jobs/second leaving the think stage).
    pub throughput: f64,
    /// Mean response time across the queueing stations (excludes think).
    pub response_time: f64,
    /// Per-station utilization.
    pub utilization: Vec<f64>,
    /// Per-station mean queue length (jobs in service + waiting).
    pub queue_length: Vec<f64>,
}

/// Exact single-class MVA for a closed network of PS/FCFS queues and one
/// exponential think (delay) stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedMva {
    demands: Vec<f64>,
    think_time: f64,
}

impl ClosedMva {
    /// Create a model from per-station mean service demands (seconds per
    /// visit) and the mean think time.
    ///
    /// # Errors
    /// Rejects empty demand lists, non-positive demands, and negative think
    /// times.
    pub fn new(demands: Vec<f64>, think_time: f64) -> Result<Self, QnError> {
        if demands.is_empty() {
            return Err(QnError::InvalidParameter {
                name: "demands",
                reason: "need at least one station".into(),
            });
        }
        if demands.iter().any(|&d| d <= 0.0 || !d.is_finite()) {
            return Err(QnError::InvalidParameter {
                name: "demands",
                reason: "demands must be positive and finite".into(),
            });
        }
        if think_time < 0.0 || !think_time.is_finite() {
            return Err(QnError::InvalidParameter {
                name: "think_time",
                reason: format!("must be non-negative, got {think_time}"),
            });
        }
        Ok(ClosedMva {
            demands,
            think_time,
        })
    }

    /// Exact MVA recursion up to population `n`.
    ///
    /// # Errors
    /// Rejects a zero population.
    pub fn solve(&self, n: usize) -> Result<MvaSolution, QnError> {
        if n == 0 {
            return Err(QnError::InvalidParameter {
                name: "population",
                reason: "population must be at least 1".into(),
            });
        }
        let m = self.demands.len();
        let mut q = vec![0.0f64; m];
        let (mut x, mut r_total) = (0.0, 0.0);
        for k in 1..=n {
            let r: Vec<f64> = (0..m).map(|i| self.demands[i] * (1.0 + q[i])).collect();
            r_total = r.iter().sum();
            x = k as f64 / (self.think_time + r_total);
            for i in 0..m {
                q[i] = x * r[i];
            }
        }
        Ok(MvaSolution {
            throughput: x,
            response_time: r_total,
            // burstcap-lint: allow(silent-clamp) — closed-network utilization law bounds X·D below 1; min() trims roundoff only
            utilization: self.demands.iter().map(|d| (x * d).min(1.0)).collect(),
            queue_length: q,
        })
    }

    /// Schweitzer (proportional estimation) approximate MVA — a fixed point
    /// usable at populations where the exact recursion is too slow.
    ///
    /// # Errors
    /// Rejects a zero population; returns [`QnError::NoConvergence`] if the
    /// fixed point stalls (practically unreachable for valid inputs).
    pub fn solve_schweitzer(&self, n: usize) -> Result<MvaSolution, QnError> {
        if n == 0 {
            return Err(QnError::InvalidParameter {
                name: "population",
                reason: "population must be at least 1".into(),
            });
        }
        let m = self.demands.len();
        let nf = n as f64;
        let mut q = vec![nf / m as f64; m];
        for iter in 0..100_000 {
            let r: Vec<f64> = (0..m)
                .map(|i| self.demands[i] * (1.0 + q[i] * (nf - 1.0) / nf))
                .collect();
            let r_total: f64 = r.iter().sum();
            let x = nf / (self.think_time + r_total);
            let next: Vec<f64> = r.iter().map(|&ri| x * ri).collect();
            let diff: f64 = next.iter().zip(&q).map(|(a, b)| (a - b).abs()).sum();
            q = next;
            if diff < 1e-12 {
                return Ok(MvaSolution {
                    throughput: x,
                    response_time: r_total,
                    // burstcap-lint: allow(silent-clamp) — closed-network utilization law; min() trims roundoff only
                    utilization: self.demands.iter().map(|d| (x * d).min(1.0)).collect(),
                    queue_length: q,
                });
            }
            let _ = iter;
        }
        Err(QnError::NoConvergence {
            solver: "schweitzer",
            iterations: 100_000,
            residual: 0.0,
        })
    }

    /// Per-station demands.
    pub fn demands(&self) -> &[f64] {
        &self.demands
    }

    /// Mean think time.
    pub fn think_time(&self) -> f64 {
        self.think_time
    }
}

/// Exact multiclass MVA over population vectors.
///
/// `demands[c][i]` is the demand of class `c` at station `i`;
/// `think_times[c]` the per-class think time. Complexity is the product of
/// class populations — use for small mixes (the 14 TPC-W transaction types
/// are aggregated before modeling, as in the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct MulticlassMva {
    demands: Vec<Vec<f64>>,
    think_times: Vec<f64>,
}

/// Multiclass MVA solution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MulticlassSolution {
    /// Per-class throughput.
    pub throughput: Vec<f64>,
    /// Per-class total response time over the queueing stations.
    pub response_time: Vec<f64>,
    /// Per-station utilization (all classes).
    pub utilization: Vec<f64>,
}

impl MulticlassMva {
    /// Create a multiclass model.
    ///
    /// # Errors
    /// Rejects ragged demand matrices, empty models, non-positive demands,
    /// and negative think times.
    pub fn new(demands: Vec<Vec<f64>>, think_times: Vec<f64>) -> Result<Self, QnError> {
        if demands.is_empty() || demands[0].is_empty() {
            return Err(QnError::InvalidParameter {
                name: "demands",
                reason: "need at least one class and one station".into(),
            });
        }
        let m = demands[0].len();
        if demands.iter().any(|row| row.len() != m) {
            return Err(QnError::InvalidParameter {
                name: "demands",
                reason: "ragged demand matrix".into(),
            });
        }
        if demands.len() != think_times.len() {
            return Err(QnError::InvalidParameter {
                name: "think_times",
                reason: "one think time per class required".into(),
            });
        }
        if demands.iter().flatten().any(|&d| d < 0.0 || !d.is_finite()) {
            return Err(QnError::InvalidParameter {
                name: "demands",
                reason: "demands must be non-negative and finite".into(),
            });
        }
        Ok(MulticlassMva {
            demands,
            think_times,
        })
    }

    /// Exact recursion over all population vectors `<= population`.
    ///
    /// # Errors
    /// Rejects an all-zero population vector or one of the wrong length.
    pub fn solve(&self, population: &[usize]) -> Result<MulticlassSolution, QnError> {
        let c = self.demands.len();
        let m = self.demands[0].len();
        if population.len() != c {
            return Err(QnError::InvalidParameter {
                name: "population",
                reason: format!("expected {c} class populations, got {}", population.len()),
            });
        }
        if population.iter().all(|&n| n == 0) {
            return Err(QnError::InvalidParameter {
                name: "population",
                reason: "at least one class must have customers".into(),
            });
        }

        // Memoized queue lengths per population vector.
        let mut memo: BTreeMap<Vec<usize>, Vec<f64>> = BTreeMap::new();
        memo.insert(vec![0; c], vec![0.0; m]);

        let (q_final, x_final, r_final) = self.solve_recursive(population.to_vec(), &mut memo);

        let mut util = vec![0.0; m];
        for cls in 0..c {
            for i in 0..m {
                util[i] += x_final[cls] * self.demands[cls][i];
            }
        }
        let _ = q_final;
        Ok(MulticlassSolution {
            throughput: x_final,
            response_time: r_final,
            // burstcap-lint: allow(silent-clamp) — closed-network utilization law; min() trims roundoff only
            utilization: util.into_iter().map(|u| u.min(1.0)).collect(),
        })
    }

    #[allow(
        clippy::type_complexity,
        reason = "the memo map and the three result vectors are the recursion's natural shape"
    )]
    fn solve_recursive(
        &self,
        pop: Vec<usize>,
        memo: &mut BTreeMap<Vec<usize>, Vec<f64>>,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let c = self.demands.len();
        let m = self.demands[0].len();

        // Ensure the queue lengths for pop - e_c exist.
        let mut q_minus: Vec<Vec<f64>> = Vec::with_capacity(c);
        for cls in 0..c {
            if pop[cls] == 0 {
                q_minus.push(vec![0.0; m]);
                continue;
            }
            let mut sub = pop.clone();
            sub[cls] -= 1;
            if !memo.contains_key(&sub) {
                let (q_sub, _, _) = self.solve_recursive(sub.clone(), memo);
                memo.insert(sub.clone(), q_sub);
            }
            q_minus.push(memo[&sub].clone());
        }

        // Response times, throughputs, and queue lengths at `pop`.
        let mut x = vec![0.0; c];
        let mut r_tot = vec![0.0; c];
        let mut r = vec![vec![0.0; m]; c];
        for cls in 0..c {
            if pop[cls] == 0 {
                continue;
            }
            for i in 0..m {
                r[cls][i] = self.demands[cls][i] * (1.0 + q_minus[cls][i]);
            }
            r_tot[cls] = r[cls].iter().sum();
            x[cls] = pop[cls] as f64 / (self.think_times[cls] + r_tot[cls]);
        }
        let mut q = vec![0.0; m];
        for i in 0..m {
            for cls in 0..c {
                q[i] += x[cls] * r[cls][i];
            }
        }
        memo.insert(pop, q.clone());
        (q, x, r_tot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_customer_has_no_queueing() {
        let mva = ClosedMva::new(vec![0.01, 0.02], 0.5).unwrap();
        let s = mva.solve(1).unwrap();
        let expected = 1.0 / (0.5 + 0.03);
        assert!((s.throughput - expected).abs() < 1e-12);
        assert!((s.response_time - 0.03).abs() < 1e-12);
    }

    #[test]
    fn throughput_saturates_at_bottleneck() {
        let mva = ClosedMva::new(vec![0.01, 0.004], 0.5).unwrap();
        let s = mva.solve(500).unwrap();
        assert!((s.throughput - 100.0).abs() < 0.5, "X = {}", s.throughput);
        assert!(s.utilization[0] > 0.99);
    }

    #[test]
    fn throughput_monotone_in_population() {
        let mva = ClosedMva::new(vec![0.008, 0.006], 0.5).unwrap();
        let mut last = 0.0;
        for n in [1, 5, 20, 80, 200] {
            let x = mva.solve(n).unwrap().throughput;
            assert!(x >= last - 1e-12, "X({n}) = {x} dipped below {last}");
            last = x;
        }
    }

    #[test]
    fn matches_mm1_closed_formula_two_customers() {
        // N=2, single queue, think Z: standard closed-form check.
        // R(1) = D; X(1) = 1/(Z+D); Q(1) = X D.
        // R(2) = D (1 + Q(1)); X(2) = 2/(Z + R(2)).
        let (d, z) = (0.1, 0.4);
        let mva = ClosedMva::new(vec![d], z).unwrap();
        let s1 = mva.solve(1).unwrap();
        let q1 = s1.throughput * d;
        let r2 = d * (1.0 + q1);
        let x2 = 2.0 / (z + r2);
        let s2 = mva.solve(2).unwrap();
        assert!((s2.throughput - x2).abs() < 1e-12);
    }

    #[test]
    fn utilization_law_holds() {
        let mva = ClosedMva::new(vec![0.02, 0.01], 0.3).unwrap();
        let s = mva.solve(10).unwrap();
        assert!((s.utilization[0] - s.throughput * 0.02).abs() < 1e-9);
        assert!((s.utilization[1] - s.throughput * 0.01).abs() < 1e-9);
    }

    #[test]
    fn littles_law_on_queues() {
        let mva = ClosedMva::new(vec![0.02, 0.01], 0.3).unwrap();
        let s = mva.solve(25).unwrap();
        let jobs_in_queues: f64 = s.queue_length.iter().sum();
        assert!((jobs_in_queues - s.throughput * s.response_time).abs() < 1e-9);
        // Total population = queues + thinking.
        let thinking = s.throughput * 0.3;
        assert!((jobs_in_queues + thinking - 25.0).abs() < 1e-9);
    }

    #[test]
    fn schweitzer_close_to_exact() {
        let mva = ClosedMva::new(vec![0.01, 0.007], 0.5).unwrap();
        for n in [5, 50, 150] {
            let exact = mva.solve(n).unwrap().throughput;
            let approx = mva.solve_schweitzer(n).unwrap().throughput;
            assert!(
                (exact - approx).abs() / exact < 0.05,
                "N={n}: exact {exact} vs schweitzer {approx}"
            );
        }
    }

    #[test]
    fn validation_errors() {
        assert!(ClosedMva::new(vec![], 0.5).is_err());
        assert!(ClosedMva::new(vec![0.0], 0.5).is_err());
        assert!(ClosedMva::new(vec![0.1], -1.0).is_err());
        assert!(ClosedMva::new(vec![0.1], 0.5).unwrap().solve(0).is_err());
    }

    #[test]
    fn multiclass_reduces_to_single_class() {
        let mc = MulticlassMva::new(vec![vec![0.01, 0.02]], vec![0.5]).unwrap();
        let sc = ClosedMva::new(vec![0.01, 0.02], 0.5).unwrap();
        let ms = mc.solve(&[30]).unwrap();
        let ss = sc.solve(30).unwrap();
        assert!((ms.throughput[0] - ss.throughput).abs() < 1e-9);
        assert!((ms.response_time[0] - ss.response_time).abs() < 1e-9);
    }

    #[test]
    fn multiclass_two_classes_conserve_population() {
        let mc = MulticlassMva::new(vec![vec![0.01, 0.002], vec![0.002, 0.015]], vec![0.5, 0.5])
            .unwrap();
        let s = mc.solve(&[10, 10]).unwrap();
        // Per-class Little: N_c = X_c (Z_c + R_c).
        for c in 0..2 {
            let n_c = s.throughput[c] * (0.5 + s.response_time[c]);
            assert!((n_c - 10.0).abs() < 1e-6, "class {c}: {n_c}");
        }
    }

    #[test]
    fn multiclass_validation() {
        assert!(MulticlassMva::new(vec![], vec![]).is_err());
        assert!(MulticlassMva::new(vec![vec![0.1], vec![0.1, 0.2]], vec![0.5, 0.5]).is_err());
        assert!(MulticlassMva::new(vec![vec![0.1]], vec![0.5, 0.6]).is_err());
        let mc = MulticlassMva::new(vec![vec![0.1]], vec![0.5]).unwrap();
        assert!(mc.solve(&[0]).is_err());
        assert!(mc.solve(&[1, 2]).is_err());
    }
}
