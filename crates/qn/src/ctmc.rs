//! Sparse continuous-time Markov chains and their steady-state solvers.
//!
//! The paper solves its MAP queueing network "by building the underlying
//! Markov chain and solving the system of linear equations" (Section 4.2).
//! This module is that substrate: a CTMC whose incoming adjacency is stored
//! as a [`CsrMatrix`] (three flat arrays — no per-state allocations), plus
//! one solver for production and one for reference:
//!
//! * [`Ctmc::steady_state`] — BiCGSTAB preconditioned by a diagonal ILU,
//!   warm-startable and traced; the solver behind every CSR solve;
//! * [`Ctmc::dense_lu`] — dense Gaussian elimination, exact to machine
//!   precision; the cross-validation oracle for small chains.
//!
//! Fitted bursty MAPs have phase persistence close to 1, so their chains
//! are nearly completely decomposable and a sweep method converges only as
//! fast as the phases mix: thousands of sweeps, almost independent of the
//! population. A Krylov method converges at the rate the preconditioned
//! spectrum allows instead. To get a nonsingular system it pins one state
//! (the singular `pi Q = 0` becomes `A x = e_r`), and it preconditions
//! with an incomplete LU factor whose triangles are the incoming CSR
//! itself, so the solve copies no matrix and stores one pivot per state.
//! [`Ctmc::steady_state`] gives the details.
//!
//! # Example
//!
//! ```
//! use burstcap_obs::Trace;
//! use burstcap_qn::ctmc::Ctmc;
//!
//! // Two-state chain: 0 -> 1 at rate 2, 1 -> 0 at rate 3.
//! let chain = Ctmc::from_transitions(2, [(0, 1, 2.0), (1, 0, 3.0)])?;
//! let run = chain.steady_state(None, (1e-12, 1_000), &Trace::noop())?;
//! assert!((run.pi[0] - 0.6).abs() < 1e-9);
//!
//! // The dense LU oracle agrees to machine precision.
//! let lu = chain.dense_lu(10)?;
//! assert!((run.pi[0] - lu.pi[0]).abs() < 1e-9);
//! # Ok::<(), burstcap_qn::QnError>(())
//! ```

use burstcap_obs::{metrics, Trace};

use crate::csr::{ix, CsrMatrix};
use crate::QnError;

/// Sparse CTMC stored as incoming CSR adjacency (what the balance equations
/// need) plus per-state exit rates.
#[derive(Debug, Clone)]
pub struct Ctmc {
    /// Total exit rate per state.
    out_rate: Vec<f64>,
    /// CSR of `Q^T` without the diagonal: row `i` lists `(j, q_ji)` for all
    /// `j != i` with `q_ji > 0`.
    incoming: CsrMatrix,
}

/// Outcome of one steady-state solve, by this module's solvers or the
/// matrix-free engine of [`crate::matfree`]: the stationary vector plus how
/// much work the solver did (what callers need to account for warm-start
/// savings and fallback costs).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRun {
    /// The stationary distribution.
    pub pi: Vec<f64>,
    /// Iterations (sweeps) the solver performed; `0` for direct methods
    /// (dense LU) and for the trivial single-state chain.
    pub iterations: usize,
    /// Scale-free residual at the accepting check; `0.0` for direct methods
    /// (exact to machine precision) and the trivial single-state chain.
    pub final_residual: f64,
}

impl SolveRun {
    /// The run of a solve that needs no iteration: dense LU, or the
    /// single-state chain.
    pub(crate) fn exact(pi: Vec<f64>) -> Self {
        SolveRun {
            pi,
            iterations: 0,
            final_residual: 0.0,
        }
    }
}

impl Ctmc {
    /// Build a CTMC from a transition list `(from, to, rate)`.
    ///
    /// Self-loops are rejected; duplicate `(from, to)` pairs accumulate.
    ///
    /// # Errors
    /// Rejects empty chains, out-of-range indices, non-positive rates, and
    /// absorbing states (zero exit rate — the stationary distribution of the
    /// models in this workspace must be positive everywhere).
    ///
    /// # Example
    /// ```
    /// use burstcap_qn::ctmc::Ctmc;
    /// let chain = Ctmc::from_transitions(3, [
    ///     (0, 1, 1.0),
    ///     (1, 2, 2.0),
    ///     (2, 0, 3.0),
    /// ])?;
    /// assert_eq!(chain.len(), 3);
    /// assert_eq!(chain.transition_count(), 3);
    /// # Ok::<(), burstcap_qn::QnError>(())
    /// ```
    pub fn from_transitions(
        n_states: usize,
        transitions: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self, QnError> {
        if n_states == 0 {
            return Err(QnError::InvalidParameter {
                name: "n_states",
                reason: "chain must have at least one state".into(),
            });
        }
        let mut out_rate = vec![0.0; n_states];
        let mut reversed = Vec::new();
        for (from, to, rate) in transitions {
            if from >= n_states || to >= n_states {
                return Err(QnError::InvalidParameter {
                    name: "transitions",
                    reason: format!("state index out of range: ({from}, {to})"),
                });
            }
            validate_rate(from, to, rate)?;
            out_rate[from] += rate;
            reversed.push((to, from, rate));
        }
        check_not_absorbing(&out_rate)?;
        Ok(Ctmc {
            out_rate,
            incoming: CsrMatrix::from_triplets(n_states, reversed)?,
        })
    }

    /// Build a CTMC directly from its off-diagonal generator in CSR form
    /// (row `i` lists the *outgoing* rates of state `i`) — the zero-copy
    /// assembly path used by [`crate::mapqn::MapNetwork`]. The incoming
    /// adjacency the solvers need is obtained by one `O(transitions)`
    /// transpose; no triplet list is ever materialized.
    ///
    /// # Errors
    /// Rejects empty chains, self-loops, non-positive rates, and absorbing
    /// states, like [`Ctmc::from_transitions`].
    ///
    /// # Example
    /// ```
    /// use burstcap_qn::csr::CsrMatrix;
    /// use burstcap_qn::ctmc::Ctmc;
    ///
    /// let mut b = CsrMatrix::builder(2)?;
    /// b.push(0, 1, 2.0)?;
    /// b.push(1, 0, 3.0)?;
    /// let chain = Ctmc::from_outgoing_csr(b.finish())?;
    /// let pi = chain.dense_lu(10)?.pi;
    /// assert!((pi[0] - 0.6).abs() < 1e-12);
    /// # Ok::<(), burstcap_qn::QnError>(())
    /// ```
    pub fn from_outgoing_csr(outgoing: CsrMatrix) -> Result<Self, QnError> {
        let n = outgoing.n();
        if n == 0 {
            return Err(QnError::InvalidParameter {
                name: "outgoing",
                reason: "chain must have at least one state".into(),
            });
        }
        let mut out_rate = vec![0.0; n];
        for (from, to, rate) in outgoing.iter() {
            validate_rate(from, to, rate)?;
            out_rate[from] += rate;
        }
        check_not_absorbing(&out_rate)?;
        Ok(Ctmc {
            out_rate,
            // Transposed rows come out column-sorted, so duplicate (from,
            // to) edges sit adjacent and merge here — keeping
            // transition_count() consistent with the from_transitions path.
            incoming: outgoing.transpose().merge_adjacent_duplicates(),
        })
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.out_rate.len()
    }

    /// Whether the chain has no states (never true for a constructed chain).
    pub fn is_empty(&self) -> bool {
        self.out_rate.is_empty()
    }

    /// Number of stored transitions.
    pub fn transition_count(&self) -> usize {
        self.incoming.nnz()
    }

    /// Per-state total exit rates.
    pub fn out_rates(&self) -> &[f64] {
        &self.out_rate
    }

    /// The incoming adjacency as a CSR matrix: row `i` holds `(j, q_ji)` —
    /// the transpose of the off-diagonal generator.
    pub fn incoming_csr(&self) -> &CsrMatrix {
        &self.incoming
    }

    /// L1 norm of `pi Q` — the global-balance residual of a candidate
    /// stationary vector.
    ///
    /// # Example
    /// ```
    /// use burstcap_qn::ctmc::Ctmc;
    /// let chain = Ctmc::from_transitions(2, [(0, 1, 2.0), (1, 0, 3.0)])?;
    /// assert!(chain.residual(&[0.6, 0.4]) < 1e-12); // exact solution
    /// assert!(chain.residual(&[0.5, 0.5]) > 0.1); // not stationary
    /// # Ok::<(), burstcap_qn::QnError>(())
    /// ```
    pub fn residual(&self, pi: &[f64]) -> f64 {
        // (pi Q)_i = inflow_i - pi_i * out_i, with inflow = Q^T pi.
        pi.iter()
            .zip(&self.out_rate)
            .enumerate()
            .map(|(i, (&p, &out))| (self.inflow(i, pi) - p * out).abs())
            .sum()
    }

    /// ILU(0) updates that land inside the stored pattern: entry `(i, j)`
    /// of the balance matrix reached from a lower entry `(i, k)`, `k < i`,
    /// through an upper entry `(k, j)`, `j > k`, `j != i`. With none,
    /// ILU(0) leaves every off-diagonal entry as it is in the matrix and
    /// coincides with the D-ILU factor of [`Ctmc::steady_state`].
    #[cfg(test)]
    pub(crate) fn ilu0_fill(&self) -> usize {
        let mut fill = 0;
        for i in 0..self.len() {
            let own: Vec<usize> = self.incoming.row(i).map(|(j, _)| j).collect();
            for &k in own.iter().filter(|&&k| k < i) {
                fill += self
                    .incoming
                    .row(k)
                    .filter(|&(j, _)| j > k && j != i && own.contains(&j))
                    .count();
            }
        }
        fill
    }

    /// Probability flow into state `i` under `x`: `sum_j x_j q_ji`, in the
    /// incoming row's column order.
    fn inflow(&self, i: usize, x: &[f64]) -> f64 {
        let (cols, vals) = self.incoming.row_slices(i);
        let mut inflow = 0.0;
        for (&j, &q) in cols.iter().zip(vals) {
            inflow += x[ix(j)] * q;
        }
        inflow
    }

    /// Solve for the stationary distribution with BiCGSTAB (van der Vorst,
    /// SIAM J. Sci. Stat. Comput. 13, 1992) and a diagonal ILU (D-ILU)
    /// preconditioner applied by Eisenstat's trick, to the scale-free L1
    /// residual `tol` of `pi Q` within `max_iter` iterations (each costs
    /// about two sweeps). This is the solver behind every production CSR
    /// solve. Its solver label in traces and errors is `"bicgstab-ilu0"`:
    /// D-ILU is the ILU(0) variant that modifies only the diagonal, and on
    /// fitted MAP networks the two are the same factor (see below).
    ///
    /// **The start.** `guess` warm-starts the solve; `None` starts from the
    /// uniform distribution. Entries below `1e-12 / n` (or not finite) are
    /// lifted to that floor and the vector is normalized, so a guess with
    /// zeros still weights every state.
    ///
    /// **Why a state is pinned.** `pi Q = 0` is singular. The solver pins
    /// the state `r` holding the largest entry of the starting vector
    /// (state 0 for the uniform start) and solves `A x = e_r`, where `A` is
    /// `-Q^T` with row `r` replaced by `e_r^T`; then `pi = x / sum(x)`. For
    /// an irreducible chain `-Q^T` without row and column `r` is a
    /// nonsingular M-matrix, so `A` is nonsingular and its incomplete
    /// factorizations exist with positive pivots. The iterate starts as the
    /// guess scaled to `x_r = 1`, so an already stationary guess has a zero
    /// residual and returns after 0 iterations.
    ///
    /// **The preconditioner.** `M = (D + L) D^-1 (D + U)`, where `L` and
    /// `U` are `A`'s own strict triangles — the incoming CSR negated,
    /// split at each row's diagonal — and only the pivots
    /// `d_i = a_ii - sum_{k<i} a_ik a_ki / d_k` are computed. ILU(0) would
    /// also update off-diagonal entries where two transitions chain into a
    /// third. Fitted MAP(2)s have no hidden phase flips, so their networks
    /// have no such triangle and D-ILU *is* their ILU(0) factor; general
    /// MAP(2)s (hidden flips and completions from both phases) do, and
    /// there D-ILU is a different, still convergent, M-matrix splitting.
    ///
    /// **Eisenstat's trick (1981).** BiCGSTAB iterates on the split system
    /// `Â y = D (D + L)^-1 e_r` with `Â = D (D + L)^-1 A (D + U)^-1` and
    /// `x = (D + U)^-1 y`. Writing `A = (D + L) + (D + U) + (D_A - 2D)`
    /// gives `Â v = D [t + (D + L)^-1 (v + (D_A - 2D) t)]` with
    /// `t = (D + U)^-1 v`: one backward and one forward sweep over the CSR,
    /// the work of one product with `A` (applying `M^-1` and `A` one after
    /// the other costs two triangular sweeps plus the product). `sum(x)` is
    /// carried from the sums of the `t` vectors the applies already form.
    ///
    /// **Memory bound.** On top of the chain (`12·nnz + 12·n` bytes: `f64`
    /// rates, `u32` columns and row pointers, `f64` exit rates) the solve
    /// holds the pivots and their inverses (`16·n`), a `u32` split point
    /// per row (`4·n`) and seven `n`-length vectors (`56·n`): `12·nnz +
    /// 88·n` in all, with no array the size of the matrix. Building a chain
    /// from its outgoing CSR holds both CSRs at once (`24·nnz + 20·n`).
    /// The three-tier model at population 45 (138,368 states, 778,320
    /// transitions) solves in 21.5 MB.
    ///
    /// **Convergence.** One iteration is two applies of `Â`, about two
    /// products with `A`. The preconditioned recurrence residual is
    /// watched; once it falls below `tol`, its unpreconditioned norm (one
    /// lower sweep, nothing stored) must bound the scale-free balance
    /// residual below `tol` too before the true residual is measured — on
    /// the vector the solve would return (negatives clamped to 0, then
    /// normalized). Below `tol` it is accepted and reported as
    /// [`SolveRun::final_residual`]; otherwise the solve restarts from that
    /// vector. A breakdown (zero or non-finite `rho`, `<r0, v>` or `omega`)
    /// restarts from the current iterate.
    ///
    /// **Observability.** On `trace` the solve opens a `ctmc.solve` span
    /// and emits decimated `ctmc.sweep` events (one per power-of-two
    /// iteration plus the accepting check — the full trajectory would bloat
    /// the trace), a `ctmc.stall` event when it gives up, and
    /// `ctmc.final_residual` / `ctmc.sweeps` histograms. Emission happens
    /// only from the serial iteration, so the recorded trace is
    /// deterministic. Pass [`Trace::noop`] to observe nothing at near-zero
    /// cost.
    ///
    /// # Errors
    /// Rejects guesses of the wrong length; returns
    /// [`QnError::NoConvergence`] when the budget runs out or a pivot is not
    /// positive and finite (which an irreducible chain cannot produce).
    ///
    /// # Example
    /// ```
    /// use burstcap_obs::Trace;
    /// use burstcap_qn::ctmc::Ctmc;
    ///
    /// // M/M/1/2 with lambda = 1, mu = 2: pi = (4, 2, 1) / 7.
    /// let chain = Ctmc::from_transitions(
    ///     3,
    ///     [(0, 1, 1.0), (1, 2, 1.0), (1, 0, 2.0), (2, 1, 2.0)],
    /// )?;
    /// let run = chain.steady_state(None, (1e-12, 1_000), &Trace::noop())?;
    /// assert!((run.pi[0] - 4.0 / 7.0).abs() < 1e-10);
    /// assert!(run.iterations > 0 && run.final_residual < 1e-12);
    /// // Warm-started from the exact answer, it returns without iterating.
    /// let exact = vec![4.0 / 7.0, 2.0 / 7.0, 1.0 / 7.0];
    /// let warm = chain.steady_state(Some(exact), (1e-12, 1_000), &Trace::noop())?;
    /// assert_eq!(warm.iterations, 0);
    /// # Ok::<(), burstcap_qn::QnError>(())
    /// ```
    pub fn steady_state(
        &self,
        guess: Option<Vec<f64>>,
        (tol, max_iter): (f64, usize),
        trace: &Trace,
    ) -> Result<SolveRun, QnError> {
        let n = self.len();
        let Some(guess) = start_vector(n, guess)? else {
            return Ok(SolveRun::exact(vec![1.0]));
        };
        let _span = trace.span_with(
            "ctmc.solve",
            vec![("states", n.into()), ("solver", BICGSTAB.into())],
        );
        let run = self.bicgstab(guess, tol, max_iter, trace)?;
        trace.observe(
            "ctmc.final_residual",
            metrics::RESIDUAL_DECADES,
            run.final_residual,
        );
        trace.observe("ctmc.sweeps", metrics::SWEEP_POWERS, run.iterations as f64);
        Ok(run)
    }

    fn bicgstab(
        &self,
        guess: Vec<f64>,
        tol: f64,
        max_iter: usize,
        trace: &Trace,
    ) -> Result<SolveRun, QnError> {
        let n = self.len();
        let scale: f64 = self.out_rate.iter().sum::<f64>() / n as f64;
        // Pin the state the guess weights most (the first of equal maxima).
        let pinned = (0..n).fold(0, |best, i| if guess[i] > guess[best] { i } else { best });
        let Some(sys) = PinnedSystem::factor(self, pinned) else {
            return Err(stall(trace, BICGSTAB, 0, f64::INFINITY));
        };
        // The iterate lives in the transformed space: y = (D + U) x.
        let mut y = guess;
        sys.pin_scale(&mut y);
        sys.upper_mul(&mut y);
        // The recurrence residual off the pinned row bounds ||x Q||_1 (the
        // pinned component is minus the sum of the others), so twice it,
        // over sum(x) and the mean exit rate, bounds the scale-free residual
        // of the normalized iterate.
        let estimate = |(off_pin_l1, sum_x): (f64, f64)| {
            if sum_x > 0.0 {
                2.0 * off_pin_l1 / (sum_x * scale)
            } else {
                f64::INFINITY
            }
        };
        // The recurrence tracks the preconditioned residual; once that
        // passes, its unpreconditioned norm must pass too.
        let check = |r: &[f64], state: (f64, f64)| {
            let est = estimate(state);
            if est < tol {
                estimate(sys.unconditioned(r, state))
            } else {
                est
            }
        };
        let mut r = vec![0.0; n];
        let (mut r0, mut p, mut v) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let (mut t, mut s) = (vec![0.0; n], vec![0.0; n]);
        let mut iterations = 0;
        let mut est;
        let final_residual = 'restart: loop {
            let mut fresh = sys.residual(&y, &mut s, &mut r);
            if !(fresh.0.is_finite() && fresh.1.is_finite()) {
                return Err(stall(trace, BICGSTAB, iterations, f64::INFINITY));
            }
            est = check(&r, fresh);
            if est < tol {
                if let Some(res) = sys.accept(&mut y, tol, scale, iterations, trace) {
                    break 'restart res;
                }
                fresh = sys.residual(&y, &mut s, &mut r);
            }
            let mut peak = fresh.0;
            let mut sum_x = fresh.1;
            r0.copy_from_slice(&r);
            p.fill(0.0);
            v.fill(0.0);
            let (mut rho_prev, mut alpha, mut omega) = (1.0, 1.0, 1.0);
            while iterations < max_iter {
                iterations += 1;
                let rho = dot(&r0, &r);
                if !(rho != 0.0 && rho.is_finite()) {
                    continue 'restart;
                }
                let beta = (rho / rho_prev) * (alpha / omega);
                for ((pi, &ri), &vi) in p.iter_mut().zip(&r).zip(&v) {
                    *pi = ri + beta * (*pi - omega * vi);
                }
                let (r0v, _, sum_t) = sys.apply(&p, &mut v, &mut s, &r0);
                if !(r0v != 0.0 && r0v.is_finite()) {
                    continue 'restart;
                }
                alpha = rho / r0v;
                // Half step: y += alpha p and r -= alpha v; x = (D + U)^-1 y
                // moves by alpha times the t the apply formed from p.
                sum_x += alpha * sum_t;
                let half = sys.step(&mut y, alpha, Some(&p), &mut r, &v);
                let half = sys.replace(&y, &mut s, &mut r, (half, sum_x), &mut peak);
                sum_x = half.1;
                est = check(&r, half);
                if est < tol {
                    match sys.accept(&mut y, tol, scale, iterations, trace) {
                        Some(res) => break 'restart res,
                        None => continue 'restart,
                    }
                }
                let (ts, tt, sum_t) = sys.apply(&r, &mut t, &mut s, &r);
                omega = ts / tt;
                if !(omega != 0.0 && omega.is_finite()) {
                    continue 'restart;
                }
                sum_x += omega * sum_t;
                let full = sys.step(&mut y, omega, None, &mut r, &t);
                rho_prev = rho;
                let full = sys.replace(&y, &mut s, &mut r, (full, sum_x), &mut peak);
                sum_x = full.1;
                est = check(&r, full);
                if est < tol {
                    match sys.accept(&mut y, tol, scale, iterations, trace) {
                        Some(res) => break 'restart res,
                        None => continue 'restart,
                    }
                }
                // Decimated trajectory: O(log iterations) events.
                if iterations.is_power_of_two() {
                    trace.event(
                        "ctmc.sweep",
                        vec![("iter", iterations.into()), ("residual", est.into())],
                    );
                }
            }
            return Err(stall(trace, BICGSTAB, max_iter, est));
        };
        Ok(SolveRun {
            pi: y,
            iterations,
            final_residual,
        })
    }

    /// Solve for the stationary distribution by dense Gaussian elimination
    /// with partial pivoting — exact to machine precision, `O(states^2)`
    /// memory and `O(states^3)` time. The cross-validation oracle for
    /// chains of up to a few thousand states, not a production path.
    ///
    /// # Errors
    /// [`QnError::StateSpaceTooLarge`] for chains of more than `limit`
    /// states; [`QnError::InvalidParameter`] when the balance equations are
    /// singular (a reducible chain).
    ///
    /// # Example
    /// ```
    /// use burstcap_qn::ctmc::Ctmc;
    ///
    /// // Effective rates 2 (two parallel 0 -> 1 edges) and 1: pi = (1, 2) / 3.
    /// let chain = Ctmc::from_transitions(2, [(0, 1, 1.0), (0, 1, 1.0), (1, 0, 1.0)])?;
    /// let run = chain.dense_lu(10)?;
    /// assert!((run.pi[0] - 1.0 / 3.0).abs() < 1e-12);
    /// assert_eq!(run.iterations, 0);
    /// assert!(chain.dense_lu(1).is_err());
    /// # Ok::<(), burstcap_qn::QnError>(())
    /// ```
    pub fn dense_lu(&self, limit: usize) -> Result<SolveRun, QnError> {
        let n = self.len();
        if n > limit {
            return Err(QnError::StateSpaceTooLarge { states: n, limit });
        }
        // Solve pi Q = 0 with sum(pi) = 1: transpose to Q^T x = 0, replace the
        // last row with the normalization constraint.
        let mut a = vec![vec![0.0f64; n]; n];
        for (i, j, q) in self.incoming.iter() {
            a[i][j] += q; // (Q^T)[i][j] = Q[j][i]
        }
        for i in 0..n {
            a[i][i] -= self.out_rate[i];
        }
        let mut b = vec![0.0; n];
        for j in 0..n {
            a[n - 1][j] = 1.0;
        }
        b[n - 1] = 1.0;

        // Gaussian elimination with partial pivoting.
        for col in 0..n {
            // The last of equal maxima, as `Iterator::max_by` picks it.
            let pivot = (col + 1..n).fold(col, |best, i| {
                if a[i][col].abs().total_cmp(&a[best][col].abs()).is_ge() {
                    i
                } else {
                    best
                }
            });
            if a[pivot][col].abs() < 1e-14 {
                return Err(QnError::InvalidParameter {
                    name: "transitions",
                    reason: "chain is reducible: singular balance equations".into(),
                });
            }
            a.swap(col, pivot);
            b.swap(col, pivot);
            for row in col + 1..n {
                let f = a[row][col] / a[col][col];
                if f == 0.0 {
                    continue;
                }
                for k in col..n {
                    a[row][k] -= f * a[col][k];
                }
                b[row] -= f * b[col];
            }
        }
        for col in (0..n).rev() {
            let mut acc = b[col];
            for k in col + 1..n {
                acc -= a[col][k] * b[k];
            }
            b[col] = acc / a[col][col];
        }
        // Clean tiny negatives from roundoff.
        for x in b.iter_mut() {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
        normalize(&mut b);
        Ok(SolveRun::exact(b))
    }
}

fn validate_rate(from: usize, to: usize, rate: f64) -> Result<(), QnError> {
    if from == to {
        return Err(QnError::InvalidParameter {
            name: "transitions",
            reason: format!("self-loop at state {from}"),
        });
    }
    if rate <= 0.0 || !rate.is_finite() {
        return Err(QnError::InvalidParameter {
            name: "transitions",
            reason: format!("rate must be positive and finite, got {rate}"),
        });
    }
    Ok(())
}

fn check_not_absorbing(out_rate: &[f64]) -> Result<(), QnError> {
    if out_rate.len() > 1 {
        if let Some(absorbing) = out_rate.iter().position(|&r| r == 0.0) {
            return Err(QnError::InvalidParameter {
                name: "transitions",
                reason: format!("state {absorbing} is absorbing (zero exit rate)"),
            });
        }
    }
    Ok(())
}

/// The starting vector of an iterative solve on an `n`-state chain, shared
/// by [`Ctmc::steady_state`] and [`crate::matfree::steady_state`]: `guess`
/// (or the uniform distribution) with entries below `1e-12 / n` or not
/// finite lifted to that floor, normalized. `None` for the single-state
/// chain, whose answer needs no solve.
///
/// # Errors
/// Rejects a guess whose length is not `n`.
pub(crate) fn start_vector(n: usize, guess: Option<Vec<f64>>) -> Result<Option<Vec<f64>>, QnError> {
    let mut guess = match guess {
        Some(g) => {
            if g.len() != n {
                return Err(QnError::InvalidParameter {
                    name: "guess",
                    reason: format!("expected {} entries, got {}", n, g.len()),
                });
            }
            g
        }
        None => vec![1.0 / n as f64; n],
    };
    if n == 1 {
        return Ok(None);
    }
    let floor = 1e-12 / n as f64;
    for x in guess.iter_mut() {
        if !x.is_finite() || *x < floor {
            *x = floor;
        }
    }
    normalize(&mut guess);
    Ok(Some(guess))
}

fn normalize(v: &mut [f64]) {
    let s: f64 = v.iter().sum();
    debug_assert!(s > 0.0, "probability vector must have positive mass");
    for x in v.iter_mut() {
        *x /= s;
    }
}

/// Solver label of [`Ctmc::steady_state`] in trace events and errors.
const BICGSTAB: &str = "bicgstab-ilu0";

/// Record a `ctmc.stall` event and build the [`QnError::NoConvergence`]
/// that lets callers fall back to another engine.
fn stall(trace: &Trace, solver: &'static str, iterations: usize, residual: f64) -> QnError {
    trace.event(
        "ctmc.stall",
        vec![
            ("solver", solver.into()),
            ("iterations", iterations.into()),
            ("residual", residual.into()),
        ],
    );
    QnError::NoConvergence {
        solver,
        iterations,
        residual,
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The pinned balance matrix of [`Ctmc::steady_state`] — `A = -Q^T`
/// with row `pinned` replaced by `e_pinned^T` — and its diagonal ILU
/// preconditioner `M = (D + L) D^-1 (D + U)`: `L` and `U` are `A`'s own
/// strict triangles, read from the incoming CSR, and only the pivots `D`
/// are stored.
struct PinnedSystem<'a> {
    chain: &'a Ctmc,
    pinned: usize,
    /// The pivot `d_i` per row.
    pivot: Vec<f64>,
    /// `1 / d_i` per row.
    inv_pivot: Vec<f64>,
    /// Position of each row's first entry right of the diagonal.
    split: Vec<u32>,
}

impl<'a> PinnedSystem<'a> {
    /// The D-ILU pivots `d_i = a_ii - sum_{k<i} a_ik a_ki / d_k`, where
    /// `a_ik a_ki = q_ki q_ik` pairs each lower entry of row `i` with its
    /// mirror in row `k` (the pinned row has no off-diagonal entries, so it
    /// pairs with nothing and its pivot is 1). `None` on a pivot that is not
    /// positive and finite, which an irreducible chain cannot produce: the
    /// pinned matrix is an M-matrix, and D-ILU of an M-matrix is a regular
    /// splitting with positive pivots.
    fn factor(chain: &'a Ctmc, pinned: usize) -> Option<Self> {
        let (row_ptr, cols, vals) = chain.incoming.parts();
        let n = chain.len();
        let split: Vec<u32> = (0u32..)
            .zip(row_ptr.windows(2))
            .map(|(i, ends)| {
                let mut mid = ends[0];
                while mid < ends[1] && cols[ix(mid)] < i {
                    mid += 1;
                }
                mid
            })
            .collect();
        let mut pivot = vec![1.0; n];
        let mut inv_pivot = vec![1.0; n];
        for (row, i) in (0u32..).zip(0..n) {
            if i == pinned {
                continue;
            }
            let mut d = chain.out_rate[i];
            for at in ix(row_ptr[i])..ix(split[i]) {
                let k = ix(cols[at]);
                if k == pinned {
                    continue;
                }
                let (mid, end) = (ix(split[k]), ix(row_ptr[k + 1]));
                if let Ok(mirror) = cols[mid..end].binary_search(&row) {
                    d -= vals[at] * vals[mid + mirror] * inv_pivot[k];
                }
            }
            if !(d > 0.0 && d.is_finite()) {
                return None;
            }
            pivot[i] = d;
            inv_pivot[i] = 1.0 / d;
        }
        Some(PinnedSystem {
            chain,
            pinned,
            pivot,
            inv_pivot,
            split,
        })
    }

    /// `t <- (D + U)^-1 v` by one backward sweep, where `v` is `input` or,
    /// when `None`, `t` itself. Returns `sum(t)`.
    fn upper_solve(&self, t: &mut [f64], input: Option<&[f64]>) -> f64 {
        let (row_ptr, cols, vals) = self.chain.incoming.parts();
        let mut sum = 0.0;
        for i in (0..t.len()).rev() {
            let mut acc = input.map_or(t[i], |v| v[i]);
            if i != self.pinned {
                let (mid, hi) = (ix(self.split[i]), ix(row_ptr[i + 1]));
                for (&j, &q) in cols[mid..hi].iter().zip(&vals[mid..hi]) {
                    acc += q * t[ix(j)];
                }
                acc *= self.inv_pivot[i];
            }
            t[i] = acc;
            sum += acc;
        }
        sum
    }

    /// `x <- (D + U) x` in place (rows in ascending order read only entries
    /// not yet overwritten): the transformed iterate of a vector.
    fn upper_mul(&self, x: &mut [f64]) {
        let (row_ptr, cols, vals) = self.chain.incoming.parts();
        for i in 0..x.len() {
            if i == self.pinned {
                continue;
            }
            let (mid, hi) = (ix(self.split[i]), ix(row_ptr[i + 1]));
            let mut acc = self.pivot[i] * x[i];
            for (&j, &q) in cols[mid..hi].iter().zip(&vals[mid..hi]) {
                acc -= q * x[ix(j)];
            }
            x[i] = acc;
        }
    }

    /// `out = Â v` for the preconditioned operator `Â = D (D + L)^-1 A
    /// (D + U)^-1`, by Eisenstat's trick (1981): with `t = (D + U)^-1 v`,
    /// `A = (D + L) + (D + U) + (D_A - 2D)` gives
    /// `Â v = D [t + (D + L)^-1 (v + (D_A - 2D) t)]`, one backward and one
    /// forward sweep, about the work of one product with `A`. `s` holds `t`
    /// and then `w = (D + L)^-1 (…)`. Returns `(out · w0, out · out,
    /// sum(t))` from the same passes.
    fn apply(&self, v: &[f64], out: &mut [f64], s: &mut [f64], w0: &[f64]) -> (f64, f64, f64) {
        let sum_t = self.upper_solve(s, Some(v));
        let (row_ptr, cols, vals) = self.chain.incoming.parts();
        let (mut ow, mut oo) = (0.0, 0.0);
        for (i, (o, &wi)) in out.iter_mut().zip(w0).enumerate() {
            let t = s[i];
            let a = if i == self.pinned {
                // Row `e_pinned`: t = v there, so w = 0 and out = v.
                s[i] = 0.0;
                t
            } else {
                let d = self.pivot[i];
                let mut acc = v[i] + (self.chain.out_rate[i] - 2.0 * d) * t;
                let (lo, mid) = (ix(row_ptr[i]), ix(self.split[i]));
                for (&k, &q) in cols[lo..mid].iter().zip(&vals[lo..mid]) {
                    acc += q * s[ix(k)];
                }
                s[i] = acc * self.inv_pivot[i];
                d * t + acc
            };
            *o = a;
            ow += a * wi;
            oo += a * a;
        }
        (ow, oo, sum_t)
    }

    /// `r = D (D + L)^-1 (e_pinned - A x)` with `x = (D + U)^-1 y` formed in
    /// `x`: the preconditioned residual of the iterate `y`. Returns its L1
    /// norm off the pinned row and `sum(x)`.
    fn residual(&self, y: &[f64], x: &mut [f64], r: &mut [f64]) -> (f64, f64) {
        let sum_x = self.upper_solve(x, Some(y));
        let out_rate = &self.chain.out_rate;
        for (i, ri) in r.iter_mut().enumerate() {
            *ri = if i == self.pinned {
                1.0 - x[i]
            } else {
                self.chain.inflow(i, x) - out_rate[i] * x[i]
            };
        }
        // Forward sweep w = (D + L)^-1 r in place, then r = D w.
        let (row_ptr, cols, vals) = self.chain.incoming.parts();
        for i in 0..r.len() {
            if i == self.pinned {
                continue;
            }
            let (lo, mid) = (ix(row_ptr[i]), ix(self.split[i]));
            let mut acc = r[i];
            for (&k, &q) in cols[lo..mid].iter().zip(&vals[lo..mid]) {
                acc += q * r[ix(k)];
            }
            r[i] = acc * self.inv_pivot[i];
        }
        let mut l1 = 0.0;
        for (ri, &d) in r.iter_mut().zip(&self.pivot) {
            *ri *= d;
            l1 += ri.abs();
        }
        (l1 - r[self.pinned].abs(), sum_x)
    }

    /// The unpreconditioned residual `(D + L) D^-1 r` of a preconditioned
    /// residual `r`, measured without storing it: its L1 norm off the
    /// pinned row (with `sum(x)` passed through). The estimate that stops
    /// the iteration is taken on this norm, so the preconditioner cannot
    /// hide residual from the acceptance test.
    fn unconditioned(&self, r: &[f64], (_, sum_x): (f64, f64)) -> (f64, f64) {
        let (row_ptr, cols, vals) = self.chain.incoming.parts();
        let mut l1 = 0.0;
        for (i, &ri) in r.iter().enumerate() {
            if i == self.pinned {
                continue;
            }
            let (lo, mid) = (ix(row_ptr[i]), ix(self.split[i]));
            let mut acc = ri;
            for (&k, &q) in cols[lo..mid].iter().zip(&vals[lo..mid]) {
                let k = ix(k);
                acc -= q * r[k] * self.inv_pivot[k];
            }
            l1 += acc.abs();
        }
        (l1, sum_x)
    }

    /// `y += a d` (`d = r` when `None`) and `r -= a w`. Returns the L1 norm
    /// of `r` off the pinned row.
    fn step(&self, y: &mut [f64], a: f64, d: Option<&[f64]>, r: &mut [f64], w: &[f64]) -> f64 {
        let mut l1 = 0.0;
        match d {
            Some(d) => {
                for (((yi, &di), ri), &wi) in y.iter_mut().zip(d).zip(r.iter_mut()).zip(w) {
                    *yi += a * di;
                    *ri -= a * wi;
                    l1 += ri.abs();
                }
            }
            None => {
                for ((yi, ri), &wi) in y.iter_mut().zip(r.iter_mut()).zip(w) {
                    *yi += a * *ri;
                    *ri -= a * wi;
                    l1 += ri.abs();
                }
            }
        }
        l1 - r[self.pinned].abs()
    }

    /// Residual replacement (Sleijpen and van der Vorst, 1996): once the
    /// recurrence residual `r` has fallen two decades below its peak since
    /// the last replacement, swap in the true preconditioned residual of
    /// `y` (with `x` as scratch). Rounding in the recurrence grows with that
    /// peak, and without the swap it leaves `r` orders of magnitude below
    /// the true residual. Passes `(l1, sum_x)` through, or the true
    /// residual's.
    fn replace(
        &self,
        y: &[f64],
        x: &mut [f64],
        r: &mut [f64],
        (l1, sum_x): (f64, f64),
        peak: &mut f64,
    ) -> (f64, f64) {
        if l1 < 1e-2 * *peak {
            let fresh = self.residual(y, x, r);
            *peak = fresh.0;
            return fresh;
        }
        *peak = peak.max(l1);
        (l1, sum_x)
    }

    /// The acceptance test of [`Ctmc::steady_state`]: turn the iterate
    /// `y` into `x = (D + U)^-1 y` in place, clamp `x`'s negatives to 0,
    /// normalize it, and measure the scale-free residual of exactly that
    /// vector. Below `tol` that residual is returned and the buffer holds
    /// the answer; otherwise `x` is scaled back to `x_pinned = 1` and
    /// transformed back into `y` for the restart.
    fn accept(
        &self,
        y: &mut [f64],
        tol: f64,
        scale: f64,
        iterations: usize,
        trace: &Trace,
    ) -> Option<f64> {
        self.upper_solve(y, None);
        for xi in y.iter_mut() {
            if *xi < 0.0 {
                *xi = 0.0;
            }
        }
        normalize(y);
        let residual = self.chain.residual(y) / scale;
        if residual < tol {
            trace.event(
                "ctmc.sweep",
                vec![("iter", iterations.into()), ("residual", residual.into())],
            );
            return Some(residual);
        }
        self.pin_scale(y);
        self.upper_mul(y);
        None
    }

    /// Scale `x` so its pinned entry is 1 (the solution's own scale).
    fn pin_scale(&self, x: &mut [f64]) {
        let pin = x[self.pinned];
        if pin > 0.0 && pin.is_finite() {
            for xi in x.iter_mut() {
                *xi /= pin;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cold BiCGSTAB solve at a tight budget, untraced.
    fn solve(chain: &Ctmc) -> Vec<f64> {
        chain
            .steady_state(None, (1e-12, 10_000), &Trace::noop())
            .unwrap()
            .pi
    }

    /// Two-state chain with rates a (0->1) and b (1->0): pi = (b, a)/(a+b).
    fn two_state(a: f64, b: f64) -> Ctmc {
        Ctmc::from_transitions(2, [(0, 1, a), (1, 0, b)]).unwrap()
    }

    #[test]
    fn two_state_closed_form_all_solvers() {
        let chain = two_state(2.0, 3.0);
        let expect = [0.6, 0.4];
        for pi in [solve(&chain), chain.dense_lu(10).unwrap().pi] {
            assert!((pi[0] - expect[0]).abs() < 1e-12, "{pi:?}");
            assert!((pi[1] - expect[1]).abs() < 1e-12);
        }
    }

    /// Birth-death chain = M/M/1/K: geometric stationary distribution.
    fn birth_death(k: usize, lambda: f64, mu: f64) -> Ctmc {
        let mut tr = Vec::new();
        for i in 0..k {
            tr.push((i, i + 1, lambda));
            tr.push((i + 1, i, mu));
        }
        Ctmc::from_transitions(k + 1, tr).unwrap()
    }

    #[test]
    fn birth_death_is_geometric() {
        let chain = birth_death(20, 1.0, 2.0);
        let pi = solve(&chain);
        // pi_i = rho^i * (1 - rho) / (1 - rho^{K+1}).
        let rho: f64 = 0.5;
        let norm = (1.0 - rho) / (1.0 - rho.powi(21));
        for (i, &p) in pi.iter().enumerate() {
            let expect = rho.powi(i as i32) * norm;
            assert!((p - expect).abs() < 1e-6, "state {i}: {p} vs {expect}");
        }
    }

    /// Deterministic pseudo-random dense-ish chain, made irreducible by a
    /// ring.
    fn random_chain(n: usize, mut s: u64) -> Ctmc {
        let mut tr = Vec::new();
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..n {
            for j in 0..n {
                if i != j && next() < 0.2 {
                    tr.push((i, j, 0.1 + next() * 5.0));
                }
            }
            tr.push((i, (i + 1) % n, 0.5));
        }
        Ctmc::from_transitions(n, tr).unwrap()
    }

    #[test]
    fn solvers_agree_on_random_chain() {
        let n = 30;
        let chain = random_chain(n, 12345);
        let bicg = solve(&chain);
        let lu = chain.dense_lu(100).unwrap().pi;
        for i in 0..n {
            assert!((bicg[i] - lu[i]).abs() < 1e-10, "bicgstab vs lu at {i}");
        }
    }

    /// A general MAP(2) with every rate drawn from `next`: hidden phase
    /// flips and completions from both phases.
    fn general_map(next: &mut impl FnMut() -> f64) -> burstcap_map::Map2 {
        let mut rate = || 0.5 + 20.0 * next();
        let (h0, h1) = (rate(), rate());
        let d1 = [[rate(), rate()], [rate(), rate()]];
        let d0 = [
            [-(h0 + d1[0][0] + d1[0][1]), h0],
            [h1, -(h1 + d1[1][0] + d1[1][1])],
        ];
        burstcap_map::Map2::new(d0, d1).unwrap()
    }

    #[test]
    fn eisenstat_apply_matches_the_explicit_product() {
        // On small general-MAP tandems (where D-ILU is not ILU(0)), the
        // two-sweep apply equals D (D + L)^-1 A (D + U)^-1 v formed with
        // dense triangular solves, and the pivots follow their recurrence.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for (m, pop) in [(1, 6), (2, 3), (3, 2)] {
            let stations = (0..m).map(|_| general_map(&mut next)).collect();
            let net = crate::mapqn::MapNetwork::tandem(pop, 0.2 + next(), stations).unwrap();
            let chain = Ctmc::from_outgoing_csr(net.outgoing_csr().unwrap()).unwrap();
            assert!(chain.ilu0_fill() > 0, "M = {m}: general MAPs fill");
            let n = chain.len();
            for pinned in [0, n / 2] {
                let sys = PinnedSystem::factor(&chain, pinned).unwrap();
                let mut a = vec![vec![0.0; n]; n];
                for (i, j, q) in chain.incoming.iter() {
                    a[i][j] -= q;
                }
                for (i, row) in a.iter_mut().enumerate() {
                    row[i] = chain.out_rate[i];
                }
                a[pinned] = (0..n).map(|j| f64::from(u8::from(j == pinned))).collect();
                for i in 0..n {
                    let d = a[i][i]
                        - (0..i)
                            .map(|k| a[i][k] * a[k][i] / sys.pivot[k])
                            .sum::<f64>();
                    assert!((d - sys.pivot[i]).abs() <= 1e-13 * d.abs(), "pivot {i}");
                }
                let v: Vec<f64> = (0..n).map(|_| next() - 0.5).collect();
                let mut t = vec![0.0; n];
                for i in (0..n).rev() {
                    let upper: f64 = (i + 1..n).map(|j| a[i][j] * t[j]).sum();
                    t[i] = (v[i] - upper) / sys.pivot[i];
                }
                let u: Vec<f64> = a.iter().map(|row| dot(row, &t)).collect();
                let mut w = vec![0.0; n];
                for i in 0..n {
                    let lower: f64 = (0..i).map(|k| a[i][k] * w[k]).sum();
                    w[i] = (u[i] - lower) / sys.pivot[i];
                }
                let naive: Vec<f64> = (0..n).map(|i| sys.pivot[i] * w[i]).collect();
                let (mut out, mut s) = (vec![0.0; n], vec![0.0; n]);
                let (ov, oo, sum_t) = sys.apply(&v, &mut out, &mut s, &v);
                let size = naive.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
                for (got, want) in out.iter().zip(&naive) {
                    assert!((got - want).abs() <= 1e-13 * size, "{got} vs {want}");
                }
                let t_size = t.iter().map(|x| x.abs()).sum::<f64>();
                assert!((sum_t - t.iter().sum::<f64>()).abs() <= 1e-13 * t_size);
                assert!((ov - dot(&out, &v)).abs() <= 1e-13 * oo.sqrt() * dot(&v, &v).sqrt());
                assert!((oo - dot(&out, &out)).abs() <= 1e-13 * oo);
            }
        }
    }

    #[test]
    fn bicgstab_budget_exhaustion_is_a_traced_stall() {
        use burstcap_obs::{FieldValue, Recorder};
        let chain = random_chain(30, 12345);
        let recorder = Recorder::new();
        let err = chain
            .steady_state(None, (1e-12, 1), &recorder.trace())
            .unwrap_err();
        assert!(
            matches!(
                err,
                QnError::NoConvergence {
                    solver: "bicgstab-ilu0",
                    iterations: 1,
                    ..
                }
            ),
            "{err:?}"
        );
        let events = recorder.events();
        let stall = events
            .iter()
            .find(|e| e.name == "ctmc.stall")
            .expect("a ctmc.stall event");
        assert_eq!(
            stall.fields[0],
            ("solver", FieldValue::Str("bicgstab-ilu0"))
        );
        assert_eq!(stall.fields[1], ("iterations", FieldValue::U64(1)));
    }

    #[test]
    fn bicgstab_exact_warm_start_takes_zero_iterations() {
        // The direct solution as the guess: the starting residual is checked
        // before the first step, so the solve returns at once instead of
        // dividing a zero rho by a zero rho.
        for chain in [
            two_state(2.0, 3.0),
            birth_death(40, 1.0, 2.0),
            random_chain(30, 99),
        ] {
            let exact = chain.dense_lu(100).unwrap().pi;
            let run = chain
                .steady_state(Some(exact.clone()), (1e-10, 100), &Trace::noop())
                .unwrap();
            assert_eq!(run.iterations, 0);
            assert!(run.final_residual < 1e-10);
            for (a, b) in run.pi.iter().zip(&exact) {
                assert!(a.is_finite() && *a >= 0.0);
                assert!((a - b).abs() < 1e-12, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn bicgstab_pins_the_largest_guess_entry() {
        // Any pinned state gives the same answer; a guess weighted on the
        // last state pins it instead of state 0.
        let chain = random_chain(20, 7);
        let lu = chain.dense_lu(100).unwrap().pi;
        let mut guess = vec![1.0; 20];
        guess[19] = 5.0;
        for guess in [None, Some(guess)] {
            let run = chain
                .steady_state(guess, (1e-12, 1_000), &Trace::noop())
                .unwrap();
            assert!(run.iterations > 0);
            for (a, b) in run.pi.iter().zip(&lu) {
                assert!((a - b).abs() < 1e-10, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn csr_assembly_matches_triplet_assembly() {
        // The same chain built via from_transitions and via the streaming
        // outgoing-CSR path must produce identical stationary vectors.
        let triplets = [
            (0usize, 1usize, 1.5),
            (0, 2, 0.5),
            (1, 0, 2.0),
            (1, 2, 1.0),
            (2, 0, 3.0),
        ];
        let a = Ctmc::from_transitions(3, triplets).unwrap();
        let mut b = CsrMatrix::builder(3).unwrap();
        for (i, j, v) in triplets {
            b.push(i, j, v).unwrap();
        }
        let c = Ctmc::from_outgoing_csr(b.finish()).unwrap();
        assert_eq!(a.out_rates(), c.out_rates());
        assert_eq!(a.transition_count(), c.transition_count());
        let pa = a.dense_lu(10).unwrap().pi;
        let pc = c.dense_lu(10).unwrap().pi;
        for (x, y) in pa.iter().zip(&pc) {
            assert!((x - y).abs() < 1e-15);
        }
    }

    #[test]
    fn from_outgoing_csr_validation() {
        // Empty chain.
        assert!(Ctmc::from_outgoing_csr(CsrMatrix::builder(0).unwrap().finish()).is_err());
        // Self-loop.
        let m = CsrMatrix::from_triplets(2, [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(Ctmc::from_outgoing_csr(m).is_err());
        // Absorbing state.
        let m = CsrMatrix::from_triplets(2, [(0, 1, 1.0)]).unwrap();
        assert!(Ctmc::from_outgoing_csr(m).is_err());
        // Negative rate.
        let m = CsrMatrix::from_triplets(2, [(0, 1, -1.0), (1, 0, 1.0)]).unwrap();
        assert!(Ctmc::from_outgoing_csr(m).is_err());
    }

    #[test]
    fn duplicate_edges_agree_across_construction_paths() {
        // Duplicate (from, to) pairs accumulate in both paths and are
        // counted once in transition_count either way.
        let a = Ctmc::from_transitions(2, [(0, 1, 1.0), (0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let mut b = CsrMatrix::builder(2).unwrap();
        b.push(0, 1, 1.0).unwrap();
        b.push(0, 1, 1.0).unwrap();
        b.push(1, 0, 1.0).unwrap();
        let c = Ctmc::from_outgoing_csr(b.finish()).unwrap();
        assert_eq!(a.transition_count(), 2);
        assert_eq!(c.transition_count(), 2);
        assert_eq!(a.out_rates(), c.out_rates());
        let pa = a.dense_lu(10).unwrap().pi;
        let pc = c.dense_lu(10).unwrap().pi;
        assert_eq!(pa, pc);
    }

    #[test]
    fn warm_start_converges_faster_or_equal() {
        let chain = birth_death(200, 3.0, 4.0);
        let exact = solve(&chain);
        // Warm start from the answer: the first residual check passes.
        let warm = chain
            .steady_state(Some(exact.clone()), (1e-8, 16), &Trace::noop())
            .unwrap();
        assert!((warm.pi[0] - exact[0]).abs() < 1e-6);
    }

    #[test]
    fn solve_run_reports_iterations() {
        let chain = birth_death(50, 2.0, 2.5);
        let budget = (1e-8, 50_000);
        let cold = chain.steady_state(None, budget, &Trace::noop()).unwrap();
        assert!(cold.iterations > 0);
        // Warm-starting from the answer converges in no more iterations.
        let warm = chain
            .steady_state(Some(cold.pi.clone()), budget, &Trace::noop())
            .unwrap();
        assert!(warm.iterations <= cold.iterations);
        // Both vectors sit inside the residual tolerance; components agree
        // to well below metric precision.
        assert!((warm.pi[0] - cold.pi[0]).abs() < 1e-6);
        // Direct elimination reports zero iterations.
        let lu = chain.dense_lu(100).unwrap();
        assert_eq!(lu.iterations, 0);
        // A recorded trace does not change the answer.
        let recorder = burstcap_obs::Recorder::new();
        let traced = chain.steady_state(None, budget, &recorder.trace()).unwrap();
        assert_eq!(cold, traced);
        assert!(recorder.event_count() > 0);
    }

    #[test]
    fn residual_of_solution_is_small() {
        let chain = birth_death(50, 2.0, 2.5);
        let pi = solve(&chain);
        assert!(chain.residual(&pi) < 1e-6);
    }

    #[test]
    fn duplicate_transitions_accumulate() {
        let chain = Ctmc::from_transitions(2, [(0, 1, 1.0), (0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let pi = chain.dense_lu(10).unwrap().pi;
        // Effective rates 2.0 and 1.0: pi = (1/3, 2/3).
        assert!((pi[0] - 1.0 / 3.0).abs() < 1e-10);
    }

    #[test]
    fn validation_errors() {
        assert!(Ctmc::from_transitions(0, []).is_err());
        assert!(Ctmc::from_transitions(2, [(0, 2, 1.0)]).is_err());
        assert!(Ctmc::from_transitions(2, [(0, 0, 1.0)]).is_err());
        assert!(Ctmc::from_transitions(2, [(0, 1, 0.0)]).is_err());
        assert!(
            Ctmc::from_transitions(2, [(0, 1, 1.0)]).is_err(),
            "state 1 absorbing"
        );
    }

    #[test]
    fn dense_lu_respects_limit() {
        let chain = birth_death(50, 1.0, 2.0);
        assert!(matches!(
            chain.dense_lu(10),
            Err(QnError::StateSpaceTooLarge { .. })
        ));
    }

    #[test]
    fn bad_guess_length_rejected() {
        let chain = two_state(1.0, 1.0);
        assert!(chain
            .steady_state(Some(vec![1.0]), (1e-8, 100), &Trace::noop())
            .is_err());
    }

    #[test]
    fn single_state_chain() {
        let chain = Ctmc::from_transitions(1, []).unwrap();
        assert_eq!(solve(&chain), vec![1.0]);
        assert_eq!(chain.dense_lu(1).unwrap().pi, vec![1.0]);
    }

    #[test]
    fn incoming_csr_exposes_transposed_generator() {
        let chain = two_state(2.0, 3.0);
        let inc = chain.incoming_csr();
        // State 0's only inflow is 1 -> 0 at rate 3.
        assert_eq!(inc.row(0).collect::<Vec<_>>(), vec![(1, 3.0)]);
        assert_eq!(chain.out_rates(), &[2.0, 3.0]);
    }
}
