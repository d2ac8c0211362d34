//! Matrix-free parallel steady-state engine.
//!
//! The CSR engine in [`crate::ctmc`] materializes the generator: `O(nnz)`
//! memory, with `nnz ≈ (2 + 3M) · states` for an `M`-station tandem. Past
//! ~10⁵ states those arrays dominate the footprint and the single-threaded
//! sweep dominates the wall clock. This module removes both limits:
//!
//! * the iterative solvers consume an **operator** — the [`ApplyQ`] trait —
//!   instead of a concrete [`CsrMatrix`](crate::csr::CsrMatrix), so the
//!   generator never has to exist as data;
//! * [`MatrixFreeGenerator`] implements that trait for the closed tandem MAP
//!   network by regenerating each state's *incoming* transitions on the fly
//!   from the per-station `Map2` factors and the combinatorial ranking of
//!   [`crate::mapqn`] — `O(states · M)` work per sweep and `O(states)`
//!   memory total (one exit-rate vector plus the two iterate vectors);
//! * the apply walks **runs**, not states. In lexicographic order the
//!   states sharing the first `M − 1` occupancies (total `s`) are
//!   contiguous over the last station's count `k = 0..=N − s`, and each
//!   source of an incoming transition is itself a run whose rank moves by
//!   one per `k`:
//!
//!   | transition into `(prefix, k)` | source |
//!   |---|---|
//!   | think arrival | `(prefix − e₀, k)`; `k − 1` when `M = 1` |
//!   | completion at interior station `i` | `(prefix + eᵢ − eᵢ₊₁, k)` |
//!   | completion at station `M − 2` | `(prefix + e_{M−2}, k − 1)`, `k ≥ 1` |
//!   | completion at the last station | own run at `k + 1`, while `s + k < N` |
//!   | hidden phase flip | own state |
//!
//!   So ranking costs `O(M²)` per run (one `O(M)` rank per source run)
//!   instead of `M + 1` ranks per state, and each state's `2^M` phases
//!   are gathered from `O(M · 2^M)` rate tables filled once at build.
//!   Memory stays the exit-rate vector plus `O(N·M + M·2^M)`;
//! * [`steady_state`] runs a damped **Jacobi** sweep (or uniformized power
//!   iteration) with the row range partitioned across scoped threads. Jacobi
//!   — unlike Gauss-Seidel — reads only the previous iterate, so row ranges
//!   are embarrassingly parallel and every row is written by exactly one
//!   worker.
//!
//! # Determinism across worker counts
//!
//! Each row's inflow is accumulated in a fixed order (think arrival, then
//! per station in tandem order: hidden flip, then completions from source
//! phase 0 and 1) that does not depend on how the rows are partitioned, and
//! normalization and the residual run as serial passes.
//! The iterates are therefore **bit-identical** for any worker count,
//! including the 1-thread degenerate case — asserted by the property tests
//! and what makes a forced multi-worker CI run meaningful on a single-core
//! container.
//!
//! # Convergence
//!
//! The damped Jacobi fixed-point operator shares the structure of the
//! Gauss-Seidel sweep in [`crate::ctmc`]: the undamped operator has its
//! Perron eigenvalue at 1 with non-principal modes that can sit *on* the
//! unit circle for the quasi-birth-death chains MAP networks generate;
//! damping (`omega < 1`) pulls those modes strictly inside, restoring
//! convergence at a negligible cost elsewhere. Stalls on extremely stiff
//! chains are still possible and surface as [`QnError::NoConvergence`] —
//! [`crate::mapqn::MapNetwork::solve_tiers`] handles the fallback.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use burstcap_map::Map2;
use burstcap_obs::{metrics, Trace};

use crate::ctmc::Ctmc;
use crate::mapqn::{next_occupancy, phase_of, StateIndexer};
use crate::QnError;

/// A CTMC generator presented as an operator: everything the iterative
/// solvers need, with no commitment to how transitions are stored (or
/// whether they are stored at all).
///
/// Implementations must be [`Sync`]: [`steady_state`] shares the operator
/// across scoped worker threads.
pub trait ApplyQ: Sync {
    /// Number of states of the chain.
    fn n_states(&self) -> usize;

    /// Per-state total exit rates (the negated generator diagonal).
    fn exit_rates(&self) -> &[f64];

    /// Compute the inflow `(Q^T x)_i = Σ_j x_j · q_ji` for every row `i` in
    /// `rows`, writing row `i` to `out[i - rows.start]`. `out.len()` must
    /// equal `rows.len()`. Implementations must accumulate each row in an
    /// order independent of `rows` so partitioned applies are bit-identical
    /// to a full-range apply.
    fn inflow_into(&self, x: &[f64], rows: Range<usize>, out: &mut [f64]);
}

/// The CSR-backed chain is itself a valid operator (used by the property
/// tests to pin the matrix-free implementation against explicit assembly,
/// and handy when the generator is already materialized anyway).
impl ApplyQ for Ctmc {
    fn n_states(&self) -> usize {
        self.len()
    }

    fn exit_rates(&self) -> &[f64] {
        self.out_rates()
    }

    fn inflow_into(&self, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
        debug_assert_eq!(out.len(), rows.len());
        for (slot, i) in out.iter_mut().zip(rows) {
            let (cols, vals) = self.incoming_csr().row_slices(i);
            let mut inflow = 0.0;
            for (&j, &q) in cols.iter().zip(vals) {
                inflow += x[crate::csr::ix(j)] * q;
            }
            *slot = inflow;
        }
    }
}

/// Matrix-free generator of a closed tandem MAP network: applies `Q^T`
/// directly from the per-station [`Map2`] factors and the combinatorial
/// state ranking, without assembling CSR arrays.
///
/// The apply walks the state space in **runs**: the states that share the
/// first `M − 1` occupancies (a prefix with total `s`) sit contiguously over
/// the last station's count `k = 0..=N − s`, and every incoming transition
/// of a run comes from another run whose rank also moves by one per `k`.
/// So the ranking work is `O(M²)` per run (one rank per source run), not
/// per state, and each state's `2^M` phases are gathered from per-station
/// rate tables filled once when the operator is built.
///
/// Built by [`crate::mapqn::MapNetwork::matrix_free`]. Memory: one `f64`
/// per state (the exit rates) plus the `O(N·M)` ranking table and the
/// `O(M·2^M)` rate tables.
#[derive(Debug, Clone)]
pub struct MatrixFreeGenerator {
    population: usize,
    think_rate: f64,
    idx: StateIndexer,
    out_rate: Vec<f64>,
    /// Station-major incoming rates: entry `i · 2^M + q` holds station `i`'s
    /// terms into destination phase `q`.
    terms: Vec<PhaseTerms>,
}

/// Station `i`'s incoming rates into one destination phase `q` (station
/// `i` in phase `p` there). The source phases follow from `q` and station
/// `i`'s phase bit, so only the rates are tabulated.
#[derive(Debug, Clone, Copy)]
struct PhaseTerms {
    /// Hidden flip `d0[1 − p][p]` from the same occupancy.
    hidden: f64,
    /// Completions `d1[0][p]`, `d1[1][p]` from the upstream occupancy.
    d1: [f64; 2],
}

/// One source run feeding a destination run: destination state `k` reads
/// source occupancy `first + (k − from)` for `k` in `from..=to`, and
/// nothing outside that window.
#[derive(Debug, Clone, Copy)]
struct Feed {
    first: usize,
    from: usize,
    to: usize,
}

impl Feed {
    const NONE: Feed = Feed {
        first: 0,
        from: 1,
        to: 0,
    };

    #[inline]
    fn at(self, k: usize) -> Option<usize> {
        (self.from <= k && k <= self.to).then(|| self.first + (k - self.from))
    }
}

/// The feeds of one run: the think arrival, then per station its hidden
/// flip and its completion hand-off.
#[derive(Debug, Clone)]
struct RunFeeds {
    think: Feed,
    stations: Vec<[Feed; 2]>,
}

impl MatrixFreeGenerator {
    /// Assemble the operator: the per-state exit rates (`(N - total) / Z`
    /// plus `-d0[p][p]` of every busy station) and the per-station rate
    /// tables.
    pub(crate) fn build(
        population: usize,
        think_time: f64,
        stations: Vec<Map2>,
        idx: StateIndexer,
    ) -> Self {
        let m = stations.len();
        let phases = idx.phases;
        let think_rate = 1.0 / think_time;
        let mut out_rate = vec![0.0; idx.state_count()];
        let mut occ = vec![0usize; m];
        let mut base = 0usize;
        loop {
            let total: usize = occ.iter().sum();
            let think_exit = (population - total) as f64 * think_rate;
            for q in 0..phases {
                let mut exit = think_exit;
                for (i, st) in stations.iter().enumerate() {
                    if occ[i] > 0 {
                        let p = phase_of(q, i, m);
                        exit += -st.d0()[p][p];
                    }
                }
                out_rate[base + q] = exit;
            }
            base += phases;
            if !next_occupancy(&mut occ, total, population) {
                break;
            }
        }
        let mut terms = Vec::with_capacity(m * phases);
        for (i, st) in stations.iter().enumerate() {
            let (d0, d1) = (st.d0(), st.d1());
            for q in 0..phases {
                let p = phase_of(q, i, m);
                terms.push(PhaseTerms {
                    hidden: d0[1 - p][p],
                    d1: [d1[0][p], d1[1][p]],
                });
            }
        }
        MatrixFreeGenerator {
            population,
            think_rate,
            idx,
            out_rate,
            terms,
        }
    }

    /// The source runs of the run `occ = (prefix, 0)` with prefix total `s`
    /// and occupancy rank `run`, where the last station's count `k` runs
    /// over `0..=N − s`. `occ` is perturbed to rank each source run and
    /// restored before returning.
    fn run_feeds(&self, occ: &mut [usize], s: usize, run: usize, feeds: &mut RunFeeds) {
        let m = occ.len();
        let kmax = self.population - s;
        let whole = |first, from| Feed {
            first,
            from,
            to: kmax,
        };
        // Think arrival from `occ − e_0`: the prefix minus one at station 0,
        // or the own run one step down when station 0 is the last.
        feeds.think = if m == 1 {
            whole(run, 1)
        } else if occ[0] > 0 {
            occ[0] -= 1;
            let first = self.idx.occ_rank(occ);
            occ[0] += 1;
            whole(first, 0)
        } else {
            Feed::NONE
        };
        for i in 0..m {
            // Hidden flip from the own state: station `i` must be busy.
            let hidden = if i + 1 == m {
                whole(run + 1, 1)
            } else if occ[i] > 0 {
                whole(run, 0)
            } else {
                Feed::NONE
            };
            // Completion hand-off into station `i + 1` (or back to think).
            let completion = if i + 1 == m {
                // Last station: the own run one step up, while not full.
                match kmax.checked_sub(1) {
                    Some(to) => Feed {
                        first: run + 1,
                        from: 0,
                        to,
                    },
                    None => Feed::NONE,
                }
            } else if i + 2 == m {
                // Into the last station: `(prefix + e_i, k − 1)`, k ≥ 1.
                if kmax > 0 {
                    occ[i] += 1;
                    let first = self.idx.occ_rank(occ);
                    occ[i] -= 1;
                    whole(first, 1)
                } else {
                    Feed::NONE
                }
            } else if occ[i + 1] > 0 {
                // Interior: `(prefix + e_i − e_{i+1}, k)`.
                occ[i] += 1;
                occ[i + 1] -= 1;
                let first = self.idx.occ_rank(occ);
                occ[i] -= 1;
                occ[i + 1] += 1;
                whole(first, 0)
            } else {
                Feed::NONE
            };
            feeds.stations[i] = [hidden, completion];
        }
    }

    /// Inflow of every phase of the state at position `k` of a run (total
    /// `total`) into `dst` (`2^M` entries). The loop is term-major, but
    /// each phase still receives its terms in the row order of the module
    /// docs; a zero rate adds `+0.0`, which leaves the non-negative
    /// accumulator's bits unchanged, so no term is branched on.
    ///
    /// `P` is the phase count when known at compile time: a constant lets
    /// the phase loops unroll, keeps the accumulator in registers and, with
    /// the source phase masked to `P − 1`, drops their bounds checks. `0`
    /// is the run-time path, taken at five or more stations.
    #[inline(always)]
    fn block_inflow<const P: usize>(
        &self,
        x: &[f64],
        feeds: &RunFeeds,
        total: usize,
        k: usize,
        dst: &mut [f64],
    ) {
        let phases = if P == 0 { dst.len() } else { P };
        let mask = phases - 1;
        // A fixed-size accumulator stays in registers once the loops unroll.
        let mut local = [0.0; 16];
        let acc = if P == 0 {
            &mut dst[..]
        } else {
            &mut local[..P]
        };
        acc.fill(0.0);
        if let Some(src) = feeds.think.at(k) {
            // The source has total - 1 jobs queued, so n - total + 1
            // thinking customers feed the arrival.
            let rate = (self.population - total + 1) as f64 * self.think_rate;
            let src = &x[src * phases..][..phases];
            for (a, &v) in acc.iter_mut().zip(src) {
                *a += rate * v;
            }
        }
        // Station `i`'s phase bit; its sources read phase `q` with that bit
        // flipped (hidden flip), cleared or set (completions).
        let mut bit = phases >> 1;
        for (terms, [hidden, completion]) in self.terms.chunks_exact(phases).zip(&feeds.stations) {
            if let Some(src) = hidden.at(k) {
                let src = &x[src * phases..][..phases];
                for (q, (a, t)) in acc.iter_mut().zip(terms).enumerate() {
                    *a += t.hidden * src[(q ^ bit) & mask];
                }
            }
            if let Some(src) = completion.at(k) {
                let src = &x[src * phases..][..phases];
                for (q, (a, t)) in acc.iter_mut().zip(terms).enumerate() {
                    *a += t.d1[0] * src[q & !bit & mask];
                    *a += t.d1[1] * src[(q | bit) & mask];
                }
            }
            bit >>= 1;
        }
        if P != 0 {
            dst[..P].copy_from_slice(&local[..P]);
        }
    }

    /// [`ApplyQ::inflow_into`] for `P` phases (`0`: the run-time count).
    fn gather<const P: usize>(&self, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
        let phases = if P == 0 { self.idx.phases } else { P };
        let m = self.terms.len() / phases;
        // Seed the walk at the run holding the first row; `unrank` is
        // O(N·M) and runs once per call. `occ` keeps the run's prefix with
        // the last station's count zeroed; `k` is the position in the run.
        let mut occ = self.idx.unrank(rows.start / phases);
        let mut k = occ[m - 1];
        occ[m - 1] = 0;
        let mut run = rows.start / phases - k;
        let mut feeds = RunFeeds {
            think: Feed::NONE,
            stations: vec![[Feed::NONE; 2]; m],
        };
        let mut clipped = vec![0.0; phases];
        loop {
            let s: usize = occ.iter().sum();
            let kmax = self.population - s;
            self.run_feeds(&mut occ, s, run, &mut feeds);
            while k <= kmax {
                let block = (run + k) * phases;
                if block >= rows.end {
                    return;
                }
                // A partition boundary may fall inside a phase block.
                let q_lo = rows.start.saturating_sub(block);
                let q_hi = (rows.end - block).min(phases);
                if q_lo == 0 && q_hi == phases {
                    let dst = &mut out[block - rows.start..][..phases];
                    self.block_inflow::<P>(x, &feeds, s + k, k, dst);
                } else {
                    self.block_inflow::<P>(x, &feeds, s + k, k, &mut clipped);
                    out[block + q_lo - rows.start..block + q_hi - rows.start]
                        .copy_from_slice(&clipped[q_lo..q_hi]);
                }
                k += 1;
            }
            run += kmax + 1;
            k = 0;
            if m == 1 || !next_occupancy(&mut occ[..m - 1], s, self.population) {
                return;
            }
        }
    }
}

impl ApplyQ for MatrixFreeGenerator {
    fn n_states(&self) -> usize {
        self.out_rate.len()
    }

    fn exit_rates(&self) -> &[f64] {
        &self.out_rate
    }

    /// Gather form of the generator apply: for each destination state the
    /// incoming transitions are (a) a think arrival from `occ - e_0`, (b) a
    /// hidden phase flip at each busy station (same occupancy), (c) a
    /// completion hand-off from `occ + e_i - e_{i+1}` for every interior
    /// station with `occ[i+1] > 0`, and (d) a last-station completion from
    /// `occ + e_last` when the network is not full. Each row adds the think
    /// arrival first, then station by station the hidden flip and the
    /// completions from source phase 0 and 1, whatever the range, so rows
    /// are bit-identical under any partition. Each row is written by
    /// exactly one caller, so partitioned applies never race.
    fn inflow_into(&self, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
        debug_assert_eq!(out.len(), rows.len());
        if rows.is_empty() {
            return;
        }
        match self.idx.phases {
            2 => self.gather::<2>(x, rows, out),
            4 => self.gather::<4>(x, rows, out),
            8 => self.gather::<8>(x, rows, out),
            16 => self.gather::<16>(x, rows, out),
            _ => self.gather::<0>(x, rows, out),
        }
    }
}

/// Iterative method selection for the matrix-free engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MatFreeMethod {
    /// Damped Jacobi sweeps on the global balance equations — the parallel
    /// analogue of Gauss-Seidel (Jacobi reads only the previous iterate, so
    /// rows partition freely across threads).
    /// `omega < 1` is required for convergence on the stiff quasi-birth-
    /// death chains of this workspace (see the module docs).
    Jacobi {
        /// Damping factor in `(0, 2)`; prefer `< 1`.
        omega: f64,
        /// Convergence tolerance on the scale-free L1 balance residual.
        tol: f64,
        /// Sweep budget.
        max_iter: usize,
    },
    /// Power iteration on the uniformized chain `P = I + Q / lambda`
    /// (`lambda` slightly above the largest exit rate).
    Power {
        /// Convergence tolerance on the scale-free L1 balance residual.
        tol: f64,
        /// Iteration budget.
        max_iter: usize,
    },
}

impl MatFreeMethod {
    /// The method the engine ladder runs. The residual target is the full
    /// CSR solve's: 1e-12 on the scale-free balance residual keeps
    /// throughput within 1e-8 of the direct solver. The damping `omega =
    /// 0.95` keeps the sweep operator's eigenvalues off the unit circle on
    /// these quasi-birth-death chains (see the module docs).
    pub(crate) const PRODUCTION: MatFreeMethod = MatFreeMethod::Jacobi {
        omega: 0.95,
        tol: 1e-12,
        max_iter: 400_000,
    };
}

impl Default for MatFreeMethod {
    fn default() -> Self {
        MatFreeMethod::PRODUCTION
    }
}

/// Outcome of a matrix-free solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MatFreeRun {
    /// The stationary distribution.
    pub pi: Vec<f64>,
    /// Sweeps performed.
    pub iterations: usize,
    /// Scale-free residual at the accepting sweep; `0.0` for the trivial
    /// single-state chain.
    pub final_residual: f64,
}

/// Worker count used when the caller passes `workers = 0`: the
/// `BURSTCAP_SOLVER_WORKERS` environment variable if set to a positive
/// integer, else the machine's available parallelism (1 if unknown).
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("BURSTCAP_SOLVER_WORKERS") {
        if let Ok(k) = v.trim().parse::<usize>() {
            if k >= 1 {
                return k;
            }
        }
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "qn::matfree is a parallelism seam: it sizes its worker pool"
    )]
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Contiguous near-equal row ranges for `workers` threads.
fn partition(n: usize, workers: usize) -> Vec<Range<usize>> {
    let w = workers.clamp(1, n.max(1));
    let base = n / w;
    let extra = n % w;
    let mut ranges = Vec::with_capacity(w);
    let mut start = 0usize;
    for k in 0..w {
        let len = base + usize::from(k < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// One parallel operator apply: `out = Q^T x`. The first row range runs
/// on the calling thread and every further range on a scoped thread of its
/// own. Each writes a disjoint `out` chunk, so no synchronization beyond
/// the join is needed.
fn apply(op: &impl ApplyQ, x: &[f64], ranges: &[Range<usize>], out: &mut [f64]) {
    let Some((first, others)) = ranges.split_first() else {
        return;
    };
    let (head, mut rest) = out.split_at_mut(first.len());
    #[expect(
        clippy::disallowed_methods,
        reason = "qn::matfree is a parallelism seam: the partitioned sweep runs on scoped workers"
    )]
    std::thread::scope(|scope| {
        for r in others {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
            rest = tail;
            let r = r.clone();
            scope.spawn(move || op.inflow_into(x, r, chunk));
        }
        op.inflow_into(x, first.clone(), head);
    });
}

/// Solve for the stationary distribution of the chain behind `op` with the
/// given method and worker count (`0` = [`default_workers`]), optionally
/// warm-started from `guess` (floored and normalized like the CSR engine).
///
/// The iterates are bit-identical across worker counts — see the module
/// docs.
///
/// # Errors
/// Rejects wrong-length guesses and out-of-range damping factors; returns
/// [`QnError::NoConvergence`] when the sweep budget is exhausted.
///
/// # Example
/// ```
/// use burstcap_qn::ctmc::Ctmc;
/// use burstcap_qn::matfree::{steady_state, MatFreeMethod};
///
/// // M/M/1/2 with lambda = 1, mu = 2: pi = (4, 2, 1) / 7. The CSR-backed
/// // chain doubles as an ApplyQ operator.
/// let chain = Ctmc::from_transitions(
///     3,
///     [(0, 1, 1.0), (1, 2, 1.0), (1, 0, 2.0), (2, 1, 2.0)],
/// )?;
/// let run = steady_state(&chain, MatFreeMethod::default(), 1, None)?;
/// assert!((run.pi[0] - 4.0 / 7.0).abs() < 1e-8);
/// assert!(run.iterations > 0);
/// # Ok::<(), burstcap_qn::QnError>(())
/// ```
pub fn steady_state(
    op: &impl ApplyQ,
    method: MatFreeMethod,
    workers: usize,
    guess: Option<Vec<f64>>,
) -> Result<MatFreeRun, QnError> {
    steady_state_traced(op, method, workers, guess, &Trace::noop())
}

/// [`steady_state`] with observability: opens a `matfree.solve` span on
/// `trace`, emits decimated `matfree.sweep` events (one per power-of-two
/// sweep plus the accepting one) and `matfree.final_residual` /
/// `matfree.sweeps` histograms, all from the **serial** residual pass — the
/// parallel workers emit nothing, which is what keeps the deterministic
/// export byte-identical across worker counts (property-tested alongside
/// the iterate equality). The worker count and row partition, which
/// legitimately vary, go out as **volatile** `matfree.partition` events:
/// visible in the full export, absent from the deterministic one.
///
/// # Errors
/// As [`steady_state`].
pub fn steady_state_traced(
    op: &impl ApplyQ,
    method: MatFreeMethod,
    workers: usize,
    guess: Option<Vec<f64>>,
    trace: &Trace,
) -> Result<MatFreeRun, QnError> {
    let n = op.n_states();
    let mut pi = match guess {
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
    if let MatFreeMethod::Jacobi { omega, .. } = method {
        if !(0.0 < omega && omega < 2.0) {
            return Err(QnError::InvalidParameter {
                name: "omega",
                reason: format!("damping factor must lie in (0, 2), got {omega}"),
            });
        }
    }
    if n == 1 {
        return Ok(MatFreeRun {
            pi: vec![1.0],
            iterations: 0,
            final_residual: 0.0,
        });
    }
    let floor = 1e-12 / n as f64;
    for x in pi.iter_mut() {
        if !x.is_finite() || *x < floor {
            *x = floor;
        }
    }
    normalize(&mut pi);
    let workers = if workers == 0 {
        default_workers()
    } else {
        workers
    };
    let ranges = partition(n, workers);
    let out_rate = op.exit_rates();
    let solver = match method {
        MatFreeMethod::Jacobi { .. } => "jacobi",
        MatFreeMethod::Power { .. } => "power",
    };
    // The span carries nothing worker-count-dependent: the deterministic
    // trace must be byte-identical at any worker count. The partition is
    // reported as volatile events, which the deterministic export drops.
    let _span = trace.span_with(
        "matfree.solve",
        vec![("states", n.into()), ("solver", solver.into())],
    );
    if trace.is_enabled() {
        trace.volatile_event("matfree.workers", vec![("workers", workers.into())]);
        for (w, r) in ranges.iter().enumerate() {
            trace.volatile_event(
                "matfree.partition",
                vec![
                    ("worker", w.into()),
                    ("start", r.start.into()),
                    ("len", r.len().into()),
                ],
            );
        }
    }
    let run = match method {
        MatFreeMethod::Jacobi { omega, .. } => {
            sweep_loop(op, &ranges, trace, pi, method, |p, inflow, out| {
                (1.0 - omega) * p + omega * inflow / out
            })
        }
        MatFreeMethod::Power { .. } => {
            let lambda = out_rate.iter().cloned().fold(0.0, f64::max) * 1.02;
            sweep_loop(op, &ranges, trace, pi, method, |p, inflow, out| {
                p + (inflow - p * out) / lambda
            })
        }
    };
    match run {
        Ok(run) => {
            trace.observe(
                "matfree.final_residual",
                metrics::RESIDUAL_DECADES,
                run.final_residual,
            );
            trace.observe(
                "matfree.sweeps",
                metrics::SWEEP_POWERS,
                run.iterations as f64,
            );
            Ok(run)
        }
        Err(e) => {
            if let QnError::NoConvergence {
                solver,
                iterations,
                residual,
            } = &e
            {
                trace.event(
                    "matfree.stall",
                    vec![
                        ("solver", (*solver).into()),
                        ("iterations", (*iterations).into()),
                        ("residual", (*residual).into()),
                    ],
                );
            }
            Err(e)
        }
    }
}

/// The sweep loop shared by both methods: apply the operator, then one
/// serial pass computes the balance residual of the current iterate and the
/// next iterate row by row, and a second normalizes it. Sweeps from `pi`
/// until the scale-free residual falls below the method's `tol` or its
/// `max_iter` sweeps are spent. `update(pi_i, inflow_i, exit_i)` is the
/// method's next value of row `i` before normalization.
fn sweep_loop(
    op: &impl ApplyQ,
    ranges: &[Range<usize>],
    trace: &Trace,
    mut pi: Vec<f64>,
    method: MatFreeMethod,
    update: impl Fn(f64, f64, f64) -> f64,
) -> Result<MatFreeRun, QnError> {
    let (tol, max_iter, solver) = match method {
        MatFreeMethod::Jacobi { tol, max_iter, .. } => (tol, max_iter, "matfree-jacobi"),
        MatFreeMethod::Power { tol, max_iter } => (tol, max_iter, "matfree-power"),
    };
    let out_rate = op.exit_rates();
    // Scale-free residual target, matching the CSR engine's convention.
    let scale: f64 = out_rate.iter().sum::<f64>() / pi.len() as f64;
    let mut next = vec![0.0; pi.len()];
    let mut last_residual = f64::INFINITY;
    for iter in 1..=max_iter {
        apply(op, &pi, ranges, &mut next);
        let mut residual = 0.0;
        let mut sum = 0.0;
        for ((v, &p), &out) in next.iter_mut().zip(&pi).zip(out_rate) {
            let inflow = *v;
            residual += (inflow - p * out).abs();
            *v = update(p, inflow, out);
            sum += *v;
        }
        for v in next.iter_mut() {
            *v /= sum;
        }
        std::mem::swap(&mut pi, &mut next);
        last_residual = residual / scale;
        let converged = last_residual < tol;
        // Decimated trajectory from the serial pass: one event per
        // power-of-two sweep plus the accepting one.
        if iter.is_power_of_two() || converged {
            trace.event(
                "matfree.sweep",
                vec![("iter", iter.into()), ("residual", last_residual.into())],
            );
        }
        if converged {
            return Ok(MatFreeRun {
                pi,
                iterations: iter,
                final_residual: last_residual,
            });
        }
    }
    Err(QnError::NoConvergence {
        solver,
        iterations: max_iter,
        residual: last_residual,
    })
}

fn normalize(v: &mut [f64]) {
    let s: f64 = v.iter().sum();
    if s > 0.0 {
        for x in v.iter_mut() {
            *x /= s;
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
    use burstcap_map::fit::Map2Fitter;
    use burstcap_obs::Recorder;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use crate::mapqn::MapNetwork;

    fn two_state_chain() -> Ctmc {
        Ctmc::from_transitions(2, [(0, 1, 2.0), (1, 0, 3.0)]).unwrap()
    }

    #[test]
    fn partition_covers_rows_exactly() {
        for (n, w) in [(10usize, 3usize), (7, 7), (5, 16), (1, 1), (100, 4)] {
            let ranges = partition(n, w);
            assert_eq!(ranges.len(), w.min(n));
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, n);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
                assert!(!pair[1].is_empty());
            }
        }
    }

    #[test]
    fn ctmc_operator_solves_birth_death() {
        // pi = (0.6, 0.4) for rates 2 / 3; both methods, several worker
        // counts (partitioning must not change the answer at all).
        let chain = two_state_chain();
        let mut reference: Option<Vec<f64>> = None;
        for workers in [1usize, 2, 3] {
            let run = steady_state(&chain, MatFreeMethod::default(), workers, None).unwrap();
            assert!((run.pi[0] - 0.6).abs() < 1e-9, "pi = {:?}", run.pi);
            assert!(run.iterations > 0);
            match &reference {
                Some(r) => assert_eq!(r, &run.pi, "workers = {workers}"),
                None => reference = Some(run.pi),
            }
        }
        let power = steady_state(
            &chain,
            MatFreeMethod::Power {
                tol: 1e-10,
                max_iter: 100_000,
            },
            1,
            None,
        )
        .unwrap();
        assert!((power.pi[1] - 0.4).abs() < 1e-8);
    }

    #[test]
    fn guess_and_omega_are_validated() {
        let chain = two_state_chain();
        assert!(matches!(
            steady_state(&chain, MatFreeMethod::default(), 1, Some(vec![1.0])),
            Err(QnError::InvalidParameter { name: "guess", .. })
        ));
        let bad = MatFreeMethod::Jacobi {
            omega: 2.5,
            tol: 1e-10,
            max_iter: 10,
        };
        // A rejected call records nothing, and a one-state chain (which
        // needs no sweep) is no exception.
        let single = Ctmc::from_transitions(1, []).unwrap();
        for op in [&chain, &single] {
            let recorder = Recorder::new();
            assert!(matches!(
                steady_state_traced(op, bad, 2, None, &recorder.trace()),
                Err(QnError::InvalidParameter { name: "omega", .. })
            ));
            assert_eq!(recorder.event_count(), 0);
        }
    }

    #[test]
    fn exhausted_budget_is_no_convergence() {
        let chain = two_state_chain();
        let starved = MatFreeMethod::Jacobi {
            omega: 0.95,
            tol: 1e-14,
            max_iter: 1,
        };
        assert!(matches!(
            steady_state(&chain, starved, 1, None),
            Err(QnError::NoConvergence {
                solver: "matfree-jacobi",
                ..
            })
        ));
    }

    /// `m` seeded bursty fits, optionally with the last station replaced
    /// by one whose D0 has a zero off-diagonal (no hidden flip out of
    /// phase 0).
    fn seeded_stations(rng: &mut SmallRng, m: usize, zero_flip: bool) -> Vec<Map2> {
        let mut stations: Vec<Map2> = (0..m)
            .map(|_| {
                let mean = rng.random_range(0.004..0.02);
                let dispersion = rng.random_range(2.0..50.0);
                Map2Fitter::new(mean, dispersion, 3.0 * mean)
                    .fit()
                    .unwrap()
                    .map()
            })
            .collect();
        if zero_flip {
            stations[m - 1] =
                Map2::new([[-30.0, 0.0], [3.0, -80.0]], [[28.0, 2.0], [7.0, 70.0]]).unwrap();
        }
        stations
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A deterministic, well-spread probe vector.
    fn probe(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + ((i * 37) % 101) as f64).collect()
    }

    #[test]
    fn matrix_free_generator_matches_csr_chain() {
        // The gather-form operator against the assembled chain at one to
        // five stations: exit rates and a full-range apply agree to
        // roundoff, and a few range-partitioned applies (including ranges
        // that split a phase block) agree bit for bit with the full apply.
        let mut rng = SmallRng::seed_from_u64(20080901);
        for (m, pop) in [(1usize, 20usize), (2, 10), (3, 6), (4, 4), (5, 2)] {
            for zero_flip in [false, true] {
                let stations = seeded_stations(&mut rng, m, zero_flip);
                let net = MapNetwork::tandem(pop, 0.3, stations).unwrap();
                let op = net.matrix_free().unwrap();
                let chain = Ctmc::from_outgoing_csr(net.outgoing_csr().unwrap()).unwrap();
                let n = net.state_count();
                assert_eq!(op.n_states(), n);
                for (a, b) in op.exit_rates().iter().zip(chain.exit_rates()) {
                    assert!((a - b).abs() <= 1e-12 * b.abs());
                }
                let x = probe(n);
                let mut from_op = vec![0.0; n];
                op.inflow_into(&x, 0..n, &mut from_op);
                let mut from_chain = vec![0.0; n];
                chain.inflow_into(&x, 0..n, &mut from_chain);
                for (i, (a, b)) in from_op.iter().zip(&from_chain).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                        "M = {m}, row {i}: {a} vs {b}"
                    );
                }
                let mut pieces = vec![0.0; n];
                let cuts = [0, 3, n / 3 + 1, n / 2, n - 5, n];
                for pair in cuts.windows(2) {
                    op.inflow_into(&x, pair[0]..pair[1], &mut pieces[pair[0]..pair[1]]);
                }
                assert_eq!(bits(&pieces), bits(&from_op), "M = {m}");
            }
        }
    }

    #[test]
    fn split_at_every_row_matches_full_apply() {
        // Every single cut point, so cuts fall inside a run and inside a
        // phase block, both of which the run walk has to clip.
        let mut rng = SmallRng::seed_from_u64(7);
        let net = MapNetwork::tandem(3, 0.3, seeded_stations(&mut rng, 2, true)).unwrap();
        let op = net.matrix_free().unwrap();
        let n = op.n_states();
        let x = probe(n);
        let mut full = vec![0.0; n];
        op.inflow_into(&x, 0..n, &mut full);
        for cut in 0..=n {
            let mut pieces = vec![0.0; n];
            let (lo, hi) = pieces.split_at_mut(cut);
            op.inflow_into(&x, 0..cut, lo);
            op.inflow_into(&x, cut..n, hi);
            assert_eq!(bits(&pieces), bits(&full), "cut at {cut}");
        }
    }

    #[test]
    fn matrix_free_solve_matches_direct() {
        let front = Map2Fitter::new(0.01, 8.0, 0.03).fit().unwrap().map();
        let db = Map2Fitter::new(0.008, 12.0, 0.02).fit().unwrap().map();
        let net = MapNetwork::new(12, 0.3, front, db).unwrap();
        let direct = net.solve().unwrap();
        for workers in [1usize, 2, 4] {
            let (sol, _) = net.solve_matrix_free_with_initial(workers, None).unwrap();
            assert!(
                (sol.throughput - direct.throughput).abs() / direct.throughput < 1e-8,
                "workers {workers}: {} vs {}",
                sol.throughput,
                direct.throughput
            );
            assert_eq!(
                sol.diagnostics.engine,
                crate::mapqn::SolveEngine::MatrixFree
            );
            assert!(sol.diagnostics.iterations > 0);
            assert!(!sol.diagnostics.fell_back);
        }
    }

    #[test]
    fn matrix_free_warm_start_converges_faster() {
        let front = Map2Fitter::new(0.01, 8.0, 0.03).fit().unwrap().map();
        let db = Map2Fitter::new(0.008, 12.0, 0.02).fit().unwrap().map();
        let net = MapNetwork::new(10, 0.3, front, db).unwrap();
        let (cold, pi) = net.solve_matrix_free_with_initial(1, None).unwrap();
        assert_eq!(pi.len(), net.state_count());
        let (warm, pi2) = net.solve_matrix_free_with_initial(1, Some(pi)).unwrap();
        assert!(warm.diagnostics.iterations <= cold.diagnostics.iterations);
        assert!((pi2.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((warm.throughput - cold.throughput).abs() / cold.throughput < 1e-8);
    }
}
