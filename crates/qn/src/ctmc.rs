//! Sparse continuous-time Markov chains and their steady-state solvers.
//!
//! The paper solves its MAP queueing network "by building the underlying
//! Markov chain and solving the system of linear equations" (Section 4.2).
//! This module is that substrate: a CTMC whose incoming adjacency is stored
//! as a [`CsrMatrix`] (three flat arrays — no per-state allocations), the
//! one iterative solver, and a reference:
//!
//! * [`Ctmc::steady_state`] — BiCGSTAB preconditioned by symmetric
//!   Gauss-Seidel (SGS), warm-startable and traced. Its body runs over any
//!   [`Generator`]: the chain's incoming CSR split at the diagonal here, and
//!   the matrix-free tandem of [`crate::matfree`], which calls the same
//!   body;
//! * [`Ctmc::dense_lu`] — dense Gaussian elimination, exact to machine
//!   precision; the cross-validation oracle for small chains.
//!
//! Fitted bursty MAPs have phase persistence close to 1, so their chains
//! are nearly completely decomposable and a sweep method converges only as
//! fast as the phases mix: thousands of sweeps, almost independent of the
//! population. A Krylov method converges at the rate the preconditioned
//! spectrum allows instead. To get a nonsingular system it pins one state
//! (the singular `pi Q = 0` becomes `A x = e_r`), and it preconditions
//! with SGS, whose triangles are the generator's own inflow split at the
//! diagonal and whose diagonal is the exit rates, so the solve copies no
//! matrix and factors nothing. [`Ctmc::steady_state`] gives the details.
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
    /// Iterations the solver performed; `0` for direct methods (dense LU)
    /// and for the trivial single-state chain.
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

/// A CTMC generator as the steady-state solver sees it: the exit rates, the
/// inflow `Σ_j x_j q_ji` into every state, and Gauss-Seidel sweeps over the
/// inflow's strict lower (`j < i`) and upper (`j > i`) triangles. Both
/// storage forms implement it — a [`Ctmc`]'s incoming CSR split at the
/// diagonal, and [`crate::matfree::MatrixFreeGenerator`] — so one BiCGSTAB
/// body serves both.
///
/// A sweep ([`Generator::sweep`]) visits every state `i` once: in
/// ascending order over the lower triangle ([`FORWARD`]) or in descending
/// order over the upper one ([`BACKWARD`]). It starts an accumulator at
/// `start(i, x_i)`, folds in each of the row's terms in that triangle as
/// `acc = term(acc, j, q_ji, x_j)`, in an order fixed by the storage form,
/// and stores `finish(i, x_i, acc)` as the new `x_i`. Terms read `x` as the
/// sweep has left it, so the rows visited earlier contribute their new
/// values.
pub trait Generator {
    /// Per-state exit rates (the negated generator diagonal).
    fn exit_rates(&self) -> &[f64];

    /// Number of states.
    fn n_states(&self) -> usize {
        self.exit_rates().len()
    }

    /// `1.0 / exit_rates()[i]`, bit for bit, whether stored or recomputed.
    fn inverse_exit_rate(&self, i: usize) -> f64;

    /// Call `row(i, Σ_j x_j q_ji)` for every state `i`, in ascending order.
    fn inflow(&self, x: &[f64], row: impl FnMut(usize, f64));

    /// The [`FORWARD`] or [`BACKWARD`] sweep (see the trait docs).
    fn sweep<const UP: bool>(
        &self,
        x: &mut [f64],
        start: impl Fn(usize, f64) -> f64,
        term: impl Fn(f64, usize, f64, f64) -> f64,
        finish: impl FnMut(usize, f64, f64) -> f64,
    );
}

/// [`Generator::sweep`] in ascending order over the strict lower triangle.
pub const FORWARD: bool = false;
/// [`Generator::sweep`] in descending order over the strict upper triangle.
pub const BACKWARD: bool = true;

/// The sweep term that adds `q_ji x_j`.
fn add(acc: f64, _: usize, q: f64, xj: f64) -> f64 {
    acc + q * xj
}

/// A [`Ctmc`] with each incoming row split at its diagonal: the CSR form of
/// [`Generator`]. Built per solve, it adds a `u32` split point and an `f64`
/// inverse exit rate per state to the chain.
pub(crate) struct SplitCsr<'a> {
    chain: &'a Ctmc,
    /// Position of each row's first entry right of the diagonal.
    split: Vec<u32>,
    /// `1 / exit rate` per state.
    inv_out: Vec<f64>,
}

impl<'a> SplitCsr<'a> {
    pub(crate) fn new(chain: &'a Ctmc) -> Self {
        let (row_ptr, cols, _) = chain.incoming.parts();
        let split = (0u32..)
            .zip(row_ptr.windows(2))
            .map(|(i, ends)| {
                let mut mid = ends[0];
                while mid < ends[1] && cols[ix(mid)] < i {
                    mid += 1;
                }
                mid
            })
            .collect();
        let inv_out = chain.out_rate.iter().map(|&out| 1.0 / out).collect();
        SplitCsr {
            chain,
            split,
            inv_out,
        }
    }
}

impl Generator for SplitCsr<'_> {
    fn exit_rates(&self) -> &[f64] {
        &self.chain.out_rate
    }

    fn inverse_exit_rate(&self, i: usize) -> f64 {
        self.inv_out[i]
    }

    fn inflow(&self, x: &[f64], mut row: impl FnMut(usize, f64)) {
        for i in 0..self.n_states() {
            row(i, self.chain.inflow(i, x));
        }
    }

    fn sweep<const UP: bool>(
        &self,
        x: &mut [f64],
        start: impl Fn(usize, f64) -> f64,
        term: impl Fn(f64, usize, f64, f64) -> f64,
        mut finish: impl FnMut(usize, f64, f64) -> f64,
    ) {
        let (row_ptr, cols, vals) = self.chain.incoming.parts();
        let n = x.len();
        for step in 0..n {
            let i = if UP { n - 1 - step } else { step };
            let (lo, hi) = if UP {
                (ix(self.split[i]), ix(row_ptr[i + 1]))
            } else {
                (ix(row_ptr[i]), ix(self.split[i]))
            };
            let mut acc = start(i, x[i]);
            for (&j, &q) in cols[lo..hi].iter().zip(&vals[lo..hi]) {
                let j = ix(j);
                acc = term(acc, j, q, x[j]);
            }
            x[i] = finish(i, x[i], acc);
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
    /// through an upper entry `(k, j)`, `j > k`, `j != i`. With none, and
    /// with no two-way pair `(i, k)`, `(k, i)` to update a pivot, ILU(0)
    /// is the symmetric Gauss-Seidel factor of [`Ctmc::steady_state`].
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
    /// SIAM J. Sci. Stat. Comput. 13, 1992) preconditioned by symmetric
    /// Gauss-Seidel (SGS) and applied by Eisenstat's trick, to the
    /// scale-free L1 residual `tol` of `pi Q` within `max_iter` iterations
    /// (each costs about two sweeps). This is the solver behind every CSR
    /// solve, and its body, run over [`Generator`], is also the matrix-free
    /// engine's.
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
    /// nonsingular M-matrix, so `A` is nonsingular. The iterate starts as
    /// the guess scaled to `x_r = 1`, so an already stationary guess has a
    /// zero residual and returns after 0 iterations.
    ///
    /// **The preconditioner.** SGS (Saad, *Iterative Methods for Sparse
    /// Linear Systems*, §10.2): `M = (D + L) D^-1 (D + U)`, where `D` is
    /// `A`'s diagonal — the exit rates, and 1 on the pinned row — and `L`
    /// and `U` are `A`'s strict triangles, the negated inflow split at each
    /// row's diagonal. Nothing is factored. `M - A = L D^-1 U` is
    /// entrywise non-negative, so `M` is a regular splitting of the
    /// M-matrix `A`. The solver label in traces and errors is
    /// `"bicgstab-ilu0"` because on fitted MAP networks SGS *is* ILU(0):
    /// fitted MAP(2)s have no hidden phase flips, so no transition has a
    /// reverse partner that would update a pivot and no two chain into a
    /// third that would fill. On general MAP(2)s (hidden flips, completions
    /// from both phases) and arbitrary chains, SGS is the cheaper factor of
    /// the two.
    ///
    /// **Eisenstat's trick (1981).** BiCGSTAB iterates on the split system
    /// `Â y = D (D + L)^-1 e_r` with `Â = D (D + L)^-1 A (D + U)^-1` and
    /// `x = (D + U)^-1 y`. Writing `A = (D + L) + (D + U) - D` gives
    /// `Â v = D [t + (D + L)^-1 (v - D t)]` with `t = (D + U)^-1 v`: one
    /// backward and one forward sweep, the work of one product with `A`
    /// (applying `M^-1` and `A` one after the other costs two triangular
    /// sweeps plus the product). `sum(x)` is carried from the sums of the
    /// `t` vectors the applies already form.
    ///
    /// **Memory bound.** On top of the chain (`12·nnz + 12·n` bytes: `f64`
    /// rates, `u32` columns and row pointers, `f64` exit rates) the solve
    /// holds the inverse exit rates (`8·n`), a `u32` split point per row
    /// (`4·n`) and seven `n`-length vectors (`56·n`): `12·nnz + 80·n` in
    /// all, with no array the size of the matrix. Building a chain from its
    /// outgoing CSR holds both CSRs at once (`24·nnz + 20·n`). The
    /// three-tier model at population 45 (138,368 states, 778,320
    /// transitions) solves in 20.4 MB.
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
    /// `ctmc.final_residual` / `ctmc.sweeps` histograms. The solve is
    /// sequential, so the recorded trace is deterministic. Pass
    /// [`Trace::noop`] to observe nothing at near-zero cost.
    ///
    /// # Errors
    /// Rejects guesses of the wrong length; returns
    /// [`QnError::NoConvergence`] when the budget runs out or the iterate
    /// stops being finite.
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
        budget: (f64, usize),
        trace: &Trace,
    ) -> Result<SolveRun, QnError> {
        solve(&SplitCsr::new(self), &CSR_EVENTS, guess, budget, trace)
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

/// The starting vector of an iterative solve on an `n`-state chain: `guess`
/// (or the uniform distribution) with entries below `1e-12 / n` or not
/// finite lifted to that floor, normalized. `None` for the single-state
/// chain, whose answer needs no solve.
///
/// # Errors
/// Rejects a guess whose length is not `n`.
fn start_vector(n: usize, guess: Option<Vec<f64>>) -> Result<Option<Vec<f64>>, QnError> {
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

/// Solver label of the BiCGSTAB solve in trace events and errors.
const BICGSTAB: &str = "bicgstab-ilu0";

/// The trace names one storage form's solves record under: a span, the
/// decimated trajectory, the stall event and two histograms.
pub(crate) struct Events {
    pub(crate) solve: &'static str,
    pub(crate) sweep: &'static str,
    pub(crate) stall: &'static str,
    pub(crate) final_residual: &'static str,
    pub(crate) sweeps: &'static str,
}

/// The names of [`Ctmc::steady_state`]'s solves.
const CSR_EVENTS: Events = Events {
    solve: "ctmc.solve",
    sweep: "ctmc.sweep",
    stall: "ctmc.stall",
    final_residual: "ctmc.final_residual",
    sweeps: "ctmc.sweeps",
};

/// The one steady-state solve, over either storage form: validate and
/// floor the start, then run [`bicgstab`] under an `events.solve` span and
/// record its residual and iteration count. [`Ctmc::steady_state`]
/// documents the method.
pub(crate) fn solve<G: Generator>(
    g: &G,
    events: &Events,
    guess: Option<Vec<f64>>,
    (tol, max_iter): (f64, usize),
    trace: &Trace,
) -> Result<SolveRun, QnError> {
    let n = g.n_states();
    let Some(guess) = start_vector(n, guess)? else {
        return Ok(SolveRun::exact(vec![1.0]));
    };
    let _span = trace.span_with(
        events.solve,
        vec![("states", n.into()), ("solver", BICGSTAB.into())],
    );
    let run = bicgstab(g, events, guess, tol, max_iter, trace)?;
    trace.observe(
        events.final_residual,
        metrics::RESIDUAL_DECADES,
        run.final_residual,
    );
    trace.observe(events.sweeps, metrics::SWEEP_POWERS, run.iterations as f64);
    Ok(run)
}

fn bicgstab<G: Generator>(
    g: &G,
    events: &Events,
    guess: Vec<f64>,
    tol: f64,
    max_iter: usize,
    trace: &Trace,
) -> Result<SolveRun, QnError> {
    let n = g.n_states();
    let scale: f64 = g.exit_rates().iter().sum::<f64>() / n as f64;
    // Pin the state the guess weights most (the first of equal maxima).
    let pinned = (0..n).fold(0, |best, i| if guess[i] > guess[best] { i } else { best });
    let sys = PinnedSystem { g, pinned };
    // The iterate lives in the transformed space: y = (D + U) x.
    let mut s = guess;
    sys.pin_scale(&mut s);
    let mut y = vec![0.0; n];
    sys.upper_mul(&mut s, &mut y);
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
    let check = |r: &mut [f64], state: (f64, f64)| {
        let est = estimate(state);
        if est < tol {
            estimate(sys.unconditioned(r, state))
        } else {
            est
        }
    };
    let mut r = vec![0.0; n];
    let (mut r0, mut p, mut v) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut t = vec![0.0; n];
    let mut iterations = 0;
    let mut est;
    let final_residual = 'restart: loop {
        let mut fresh = sys.residual(&y, &mut s, &mut r);
        if !(fresh.0.is_finite() && fresh.1.is_finite()) {
            return Err(stall(trace, events.stall, iterations, f64::INFINITY));
        }
        est = check(&mut r, fresh);
        if est < tol {
            if let Some(res) = sys.accept(&mut y, &mut s, (tol, scale), iterations, events, trace) {
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
            est = check(&mut r, half);
            if est < tol {
                match sys.accept(&mut y, &mut s, (tol, scale), iterations, events, trace) {
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
            est = check(&mut r, full);
            if est < tol {
                match sys.accept(&mut y, &mut s, (tol, scale), iterations, events, trace) {
                    Some(res) => break 'restart res,
                    None => continue 'restart,
                }
            }
            // Decimated trajectory: O(log iterations) events.
            if iterations.is_power_of_two() {
                trace.event(
                    events.sweep,
                    vec![("iter", iterations.into()), ("residual", est.into())],
                );
            }
        }
        return Err(stall(trace, events.stall, max_iter, est));
    };
    Ok(SolveRun {
        pi: y,
        iterations,
        final_residual,
    })
}

/// Record a stall event named `event` and build the
/// [`QnError::NoConvergence`] that lets callers fall back to another
/// engine.
fn stall(trace: &Trace, event: &'static str, iterations: usize, residual: f64) -> QnError {
    trace.event(
        event,
        vec![
            ("solver", BICGSTAB.into()),
            ("iterations", iterations.into()),
            ("residual", residual.into()),
        ],
    );
    QnError::NoConvergence {
        solver: BICGSTAB,
        iterations,
        residual,
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The pinned balance matrix of [`Ctmc::steady_state`] — `A = -Q^T`
/// with row `pinned` replaced by `e_pinned^T` — over a generator `g`, and
/// its SGS preconditioner `M = (D + L) D^-1 (D + U)`: `D` is the exit
/// rates (1 on the pinned row), and `L` and `U` are `g`'s sweeps. Nothing
/// is stored.
struct PinnedSystem<'a, G> {
    g: &'a G,
    pinned: usize,
}

impl<G: Generator> PinnedSystem<'_, G> {
    /// `t <- (D + U)^-1 v` by one backward sweep, where `v` is `input` or,
    /// when `None`, `t` itself. Returns `sum(t)`.
    fn upper_solve(&self, t: &mut [f64], input: Option<&[f64]>) -> f64 {
        let own = |i: usize, ti: f64| input.map_or(ti, |v| v[i]);
        let mut sum = 0.0;
        self.g.sweep::<BACKWARD>(t, own, add, |i, ti, acc| {
            let ti = if i == self.pinned {
                own(i, ti)
            } else {
                acc * self.g.inverse_exit_rate(i)
            };
            sum += ti;
            ti
        });
        sum
    }

    /// `y <- (D + U) x`, leaving `x` as it is: the transformed iterate of
    /// a vector.
    fn upper_mul(&self, x: &mut [f64], y: &mut [f64]) {
        let out = self.g.exit_rates();
        self.g.sweep::<BACKWARD>(
            x,
            |i, xi| out[i] * xi,
            |acc, _, q, xj| acc - q * xj,
            |i, xi, acc| {
                y[i] = if i == self.pinned { xi } else { acc };
                xi
            },
        );
    }

    /// `out = Â v` for the preconditioned operator `Â = D (D + L)^-1 A
    /// (D + U)^-1`, by Eisenstat's trick (1981): with `t = (D + U)^-1 v`,
    /// `A = (D + L) + (D + U) - D` gives `Â v = D [t + (D + L)^-1 (v - D
    /// t)]`, one backward and one forward sweep, about the work of one
    /// product with `A`. `s` holds `t` and then `w = (D + L)^-1 (…)`.
    /// Returns `(out · w0, out · out, sum(t))` from the same passes.
    fn apply(&self, v: &[f64], out: &mut [f64], s: &mut [f64], w0: &[f64]) -> (f64, f64, f64) {
        let sum_t = self.upper_solve(s, Some(v));
        let exit = self.g.exit_rates();
        let (mut ow, mut oo) = (0.0, 0.0);
        self.g.sweep::<FORWARD>(
            s,
            |i, t| v[i] - exit[i] * t,
            add,
            |i, t, acc| {
                // Row `e_pinned`: t = v there, so w = 0 and out = v.
                let (w, a) = if i == self.pinned {
                    (0.0, t)
                } else {
                    (acc * self.g.inverse_exit_rate(i), exit[i] * t + acc)
                };
                out[i] = a;
                ow += a * w0[i];
                oo += a * a;
                w
            },
        );
        (ow, oo, sum_t)
    }

    /// `r = D (D + L)^-1 (e_pinned - A x)` with `x = (D + U)^-1 y` formed in
    /// `x`: the preconditioned residual of the iterate `y`. Returns its L1
    /// norm off the pinned row and `sum(x)`.
    fn residual(&self, y: &[f64], x: &mut [f64], r: &mut [f64]) -> (f64, f64) {
        let sum_x = self.upper_solve(x, Some(y));
        let exit = self.g.exit_rates();
        self.g.inflow(x, |i, inflow| {
            r[i] = if i == self.pinned {
                1.0 - x[i]
            } else {
                inflow - exit[i] * x[i]
            };
        });
        // Forward sweep w = (D + L)^-1 r in place, then r = D w.
        self.g.sweep::<FORWARD>(
            r,
            |_, ri| ri,
            add,
            |i, ri, acc| {
                if i == self.pinned {
                    ri
                } else {
                    acc * self.g.inverse_exit_rate(i)
                }
            },
        );
        let mut l1 = 0.0;
        for (i, (ri, &d)) in r.iter_mut().zip(exit).enumerate() {
            if i != self.pinned {
                *ri *= d;
            }
            l1 += ri.abs();
        }
        (l1 - r[self.pinned].abs(), sum_x)
    }

    /// The unpreconditioned residual `(D + L) D^-1 r` of a preconditioned
    /// residual `r`, measured by a forward sweep that leaves `r` as it is:
    /// its L1 norm off the pinned row (with `sum(x)` passed through). The
    /// estimate that stops the iteration is taken on this norm, so the
    /// preconditioner cannot hide residual from the acceptance test.
    fn unconditioned(&self, r: &mut [f64], (_, sum_x): (f64, f64)) -> (f64, f64) {
        let mut l1 = 0.0;
        self.g.sweep::<FORWARD>(
            r,
            |_, ri| ri,
            |acc, k, q, rk| {
                let inv = if k == self.pinned {
                    1.0
                } else {
                    self.g.inverse_exit_rate(k)
                };
                acc - q * rk * inv
            },
            |i, ri, acc| {
                if i != self.pinned {
                    l1 += acc.abs();
                }
                ri
            },
        );
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
    /// transformed back into `y` (with `scratch` holding `x`) for the
    /// restart.
    fn accept(
        &self,
        y: &mut [f64],
        scratch: &mut [f64],
        (tol, scale): (f64, f64),
        iterations: usize,
        events: &Events,
        trace: &Trace,
    ) -> Option<f64> {
        self.upper_solve(y, None);
        for xi in y.iter_mut() {
            if *xi < 0.0 {
                *xi = 0.0;
            }
        }
        normalize(y);
        let exit = self.g.exit_rates();
        let mut balance = 0.0;
        self.g
            .inflow(y, |i, inflow| balance += (inflow - y[i] * exit[i]).abs());
        let residual = balance / scale;
        if residual < tol {
            trace.event(
                events.sweep,
                vec![("iter", iterations.into()), ("residual", residual.into())],
            );
            return Some(residual);
        }
        self.pin_scale(y);
        scratch.copy_from_slice(y);
        self.upper_mul(scratch, y);
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

    /// The apply of `sys` against `D (D + L)^-1 A (D + U)^-1 v` formed with
    /// dense triangular solves of the pinned balance matrix `a`, whose
    /// diagonal is the SGS `D`.
    fn assert_apply_matches_dense<G: Generator>(
        sys: &PinnedSystem<'_, G>,
        a: &[Vec<f64>],
        v: &[f64],
    ) {
        let n = a.len();
        let mut t = vec![0.0; n];
        for i in (0..n).rev() {
            let upper: f64 = (i + 1..n).map(|j| a[i][j] * t[j]).sum();
            t[i] = (v[i] - upper) / a[i][i];
        }
        let u: Vec<f64> = a.iter().map(|row| dot(row, &t)).collect();
        let mut w = vec![0.0; n];
        for i in 0..n {
            let lower: f64 = (0..i).map(|k| a[i][k] * w[k]).sum();
            w[i] = (u[i] - lower) / a[i][i];
        }
        let naive: Vec<f64> = (0..n).map(|i| a[i][i] * w[i]).collect();
        let (mut out, mut s) = (vec![0.0; n], vec![0.0; n]);
        let (ov, oo, sum_t) = sys.apply(v, &mut out, &mut s, v);
        let size = naive.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
        for (got, want) in out.iter().zip(&naive) {
            assert!((got - want).abs() <= 1e-13 * size, "{got} vs {want}");
        }
        let t_size = t.iter().map(|x| x.abs()).sum::<f64>();
        assert!((sum_t - t.iter().sum::<f64>()).abs() <= 1e-13 * t_size);
        assert!((ov - dot(&out, v)).abs() <= 1e-13 * oo.sqrt() * dot(v, v).sqrt());
        assert!((oo - dot(&out, &out)).abs() <= 1e-13 * oo);
    }

    #[test]
    fn eisenstat_apply_matches_the_explicit_product() {
        // On small general-MAP tandems (where SGS is not ILU(0)), the
        // two-sweep apply of both storage forms equals
        // D (D + L)^-1 A (D + U)^-1 v with D = diag(A), formed with dense
        // triangular solves.
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
            let (csr, op) = (SplitCsr::new(&chain), net.matrix_free().unwrap());
            let n = chain.len();
            for pinned in [0, n / 2] {
                let mut a = vec![vec![0.0; n]; n];
                for (i, j, q) in chain.incoming.iter() {
                    a[i][j] -= q;
                }
                for (i, row) in a.iter_mut().enumerate() {
                    row[i] = chain.out_rate[i];
                }
                a[pinned] = (0..n).map(|j| f64::from(u8::from(j == pinned))).collect();
                let v: Vec<f64> = (0..n).map(|_| next() - 0.5).collect();
                assert_apply_matches_dense(&PinnedSystem { g: &csr, pinned }, &a, &v);
                assert_apply_matches_dense(&PinnedSystem { g: &op, pinned }, &a, &v);
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
