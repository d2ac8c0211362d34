//! The paper's analytic model, generalized: a closed network of `M` MAP(2)
//! queues plus a think stage.
//!
//! Figure 9 of the paper models the multi-tier system as a closed network of
//! two queues (front server, database server) and a delay (think) stage.
//! Section 4 replaces the exponential servers with fitted **MAP(2) service
//! processes** and solves the model exactly "by building the underlying
//! Markov chain and solving the system of linear equations".
//!
//! [`MapNetwork`] builds that CTMC for an arbitrary **tandem of `M`
//! stations** (think → station 1 → … → station M → think); the paper's
//! two-tier model is the `M = 2` instance and keeps its dedicated
//! constructor [`MapNetwork::new`]. A state is the pair of vectors
//! `(n_1..n_M, phase_1..phase_M)` with `n_1 + … + n_M <= N`; the remaining
//! customers are thinking. Each server's MAP evolves only while its queue is
//! non-empty (frozen-when-idle semantics, matched bit-for-bit by the
//! discrete-event simulator in `burstcap-sim`).
//!
//! # State space
//!
//! Occupancy vectors are ranked lexicographically with the combinatorial
//! number system (`C(b + d, d)` tables, O(M) per lookup), phases innermost;
//! for `M = 2` this reproduces the historical `(n_front, n_db, phase_f,
//! phase_d)` enumeration exactly, so CSR assembly is bit-identical to the
//! two-tier original. The chain has `C(N + M, M) * 2^M` states.
//!
//! # Solver
//!
//! Fitted bursty MAPs have phase-persistence `gamma` extremely close to 1,
//! which makes the CTMC *nearly completely decomposable* — the regime where
//! sweep methods (Gauss-Seidel, Jacobi, power iteration) crawl. The
//! network, however, is **block tridiagonal** in the level
//! `l = n_1 + … + n_M`: think completions move up one level, last-station
//! completions move down one, and every other transition (hidden phase
//! changes, station `i → i + 1` hand-offs) stays within a level. [`MapNetwork::solve`] therefore uses
//! exact block Gaussian elimination over levels (linear level reduction, the
//! finite-QBD direct method), which is immune to stiffness; the unit tests
//! keep the historical two-station specialization as the `M = 2` oracle for
//! the generic code.
//!
//! For large populations the **sparse engine** is the faster route:
//! [`MapNetwork::outgoing_csr`] assembles the generator straight into
//! compressed sparse row form (no triplet list — each state has at most
//! `2 + 3M` outgoing transitions), and
//! [`MapNetwork::solve_sparse_with_initial`] runs the D-ILU-preconditioned
//! BiCGSTAB of [`crate::ctmc`] on it, whose iteration count does not follow
//! how slowly the phases mix; a cold solve starts from the network's
//! product form with exponential servers (exact for Poisson stations).
//! [`MapNetwork::solve_dense_lu`] runs the dense LU oracle of
//! [`crate::ctmc`] on the same chain, for cross-validation on small models.
//!
//! [`MapNetwork::solve_tiers`] is the one place that picks an engine and a
//! fallback; its [`TierPolicy`] names the two production callers.

use serde::{Deserialize, Serialize};

use burstcap_map::Map2;
use burstcap_obs::Trace;

use crate::csr::CsrMatrix;
use crate::ctmc::Ctmc;
use crate::matfree::MatrixFreeGenerator;
use crate::QnError;

/// Default cap on CTMC size (states).
pub const DEFAULT_STATE_LIMIT: usize = 2_000_000;

/// State-count crossover of [`TierPolicy::BATCH`]: below this the direct
/// level-reduction is faster, above it the sparse CSR engine wins (measured
/// on MAP(2)×MAP(2) networks; the exact crossover varies a little with
/// stiffness and station count).
pub const AUTO_SPARSE_THRESHOLD: usize = 10_000;

/// State-count crossover between the CSR sparse engine and the matrix-free
/// engine in [`MapNetwork::solve_tiers`]: above this the `O(nnz)` CSR arrays
/// would exceed the memory ceiling below, and the matrix-free sweep — which
/// regenerates transitions from the per-station `Map2` factors on the fly,
/// `O(states·M)` memory total — takes over.
///
/// Derived from bytes, not fitted. The ceiling is the CSR working set the
/// former 120,000-state cut allowed under the ILU(0) layout (`24·nnz +
/// 88·n` bytes): ≈ 26.7 MB at `M = 3`, where the benchmark's three-tier
/// fits have 5.63 transitions per state. The D-ILU layout of
/// [`crate::ctmc::Ctmc::steady_state`] solves in `12·nnz + 88·n`
/// bytes; at the densest tandem, `M = 4` (7.5 transitions per state at
/// `BENCH_baseline.json`'s 170,016-state point), that is 178 bytes per
/// state, and 26.7 MB / 178 B ≈ 150,000 states. Assembly briefly holds the
/// outgoing and incoming CSR together (`24·nnz + 20·n`, 200 bytes per
/// state at `M = 4`, 155 at `M = 3`), which the solve then frees.
pub const AUTO_MATFREE_THRESHOLD: usize = 150_000;

/// Tolerance and iteration budget of the full CSR solve
/// ([`MapNetwork::solve_sparse_with_initial_traced`], the online first
/// attempt, and the matrix-free stall fallback). An iteration costs about
/// two sweeps; the budget is far above any measured solve (at most a few
/// hundred iterations) and only bounds a pathological one.
const CSR_FULL: (f64, usize) = (1e-12, 100_000);

/// Tolerance and iteration budget of the batch first CSR attempt: a stall
/// costs a fraction of the direct solve it falls back to.
const CSR_BOUNDED: (f64, usize) = (1e-10, 10_000);

/// Tolerance and sweep budget of the matrix-free Jacobi solve. The residual
/// target is the full CSR solve's: 1e-12 on the scale-free balance residual
/// keeps throughput within 1e-8 of the direct solver.
const MATFREE: (f64, usize) = (1e-12, 400_000);

/// The limits of the engine ladder that no caller chooses. Production
/// solves always run [`TIER_LIMITS`]; unit tests shrink the budgets to force
/// each fallback edge on a small chain.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TierLimits {
    /// State count above which the matrix-free engine answers.
    matfree_above: usize,
    /// `(tol, max_iter)` of the CSR solve a matrix-free stall falls back to.
    csr: (f64, usize),
    /// `(tol, max_iter)` of the matrix-free engine.
    matfree: (f64, usize),
}

const TIER_LIMITS: TierLimits = TierLimits {
    matfree_above: AUTO_MATFREE_THRESHOLD,
    csr: CSR_FULL,
    matfree: MATFREE,
};

/// Which production caller [`MapNetwork::solve_tiers`] serves. The two
/// callers differ in exactly two inputs: where the direct tier ends and the
/// budget of the first CSR attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierPolicy {
    /// State count up to which the direct level-reduction answers.
    direct_up_to: usize,
    /// `(tol, max_iter)` of the first CSR attempt.
    first_csr: (f64, usize),
    limits: TierLimits,
}

impl TierPolicy {
    /// Batch planning (`CapacityPlanner::predict`): the direct tier up to
    /// [`AUTO_SPARSE_THRESHOLD`] states, then a bounded CSR attempt whose
    /// stall falls back to the direct solver.
    pub const BATCH: TierPolicy = TierPolicy {
        direct_up_to: AUTO_SPARSE_THRESHOLD,
        first_csr: CSR_BOUNDED,
        limits: TIER_LIMITS,
    };

    /// Online re-fit (`OnlinePlanner`): no direct tier, because it cannot
    /// use the warm start, and a full-budget first CSR attempt.
    pub const ONLINE: TierPolicy = TierPolicy {
        direct_up_to: 0,
        first_csr: CSR_FULL,
        limits: TIER_LIMITS,
    };
}

/// Which steady-state engine produced a [`MapQnSolution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveEngine {
    /// Block level-reduction (finite-QBD direct method).
    Direct,
    /// Dense LU on the full generator (small-model oracle).
    DenseLu,
    /// CSR-backed D-ILU BiCGSTAB ([`crate::ctmc::Ctmc::steady_state`]).
    SparseCsr,
    /// Matrix-free parallel damped Jacobi sweep (no generator
    /// materialization).
    MatrixFree,
}

impl SolveEngine {
    /// Stable lowercase label used in trace events and JSON artifacts.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SolveEngine::Direct => "direct",
            SolveEngine::DenseLu => "dense_lu",
            SolveEngine::SparseCsr => "sparse_csr",
            SolveEngine::MatrixFree => "matrix_free",
        }
    }
}

/// Iterations attributed to each engine tier over the course of one solve,
/// **including stalled attempts**: when an iterative engine exhausts its
/// budget and a fallback produces the answer, the stalled sweeps are real
/// work that `iterations` (which describes the answering engine only) no
/// longer shows. The per-tier split keeps that cost visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EngineSweeps {
    /// Direct level-reduction (non-iterative: always `0` sweeps — the entry
    /// records that the tier ran via [`SolveDiagnostics::engine`]).
    pub direct: usize,
    /// Dense LU oracle (non-iterative: always `0` sweeps).
    pub dense_lu: usize,
    /// CSR engine: BiCGSTAB iterations (each about two sweeps of work).
    pub sparse_csr: usize,
    /// Matrix-free engine: damped Jacobi sweeps.
    pub matrix_free: usize,
}

impl EngineSweeps {
    /// Attribute `sweeps` iterations to `engine` (additive: a retry after a
    /// stall accumulates on top of the stalled attempt).
    pub(crate) fn tally(&mut self, engine: SolveEngine, sweeps: usize) {
        match engine {
            SolveEngine::Direct => self.direct += sweeps,
            SolveEngine::DenseLu => self.dense_lu += sweeps,
            SolveEngine::SparseCsr => self.sparse_csr += sweeps,
            SolveEngine::MatrixFree => self.matrix_free += sweeps,
        }
    }

    fn of(engine: SolveEngine, sweeps: usize) -> Self {
        let mut s = EngineSweeps::default();
        s.tally(engine, sweeps);
        s
    }
}

/// How a solve actually ran: which engine produced the answer, how many
/// sweeps it took, how converged it finished, and whether an iterative
/// attempt stalled first.
///
/// Every [`MapQnSolution`] carries one of these so callers such as
/// `OnlinePlanner` and the bench can distinguish a warm solve that converged
/// from one that silently fell back to the (cold, slower) direct engine —
/// previously both looked identical and timings were misattributed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveDiagnostics {
    /// Engine that produced the returned metrics.
    pub engine: SolveEngine,
    /// Iterations (sweeps) that engine performed; `0` for direct methods.
    pub iterations: usize,
    /// `true` when an iterative attempt stalled and a fallback engine
    /// produced the answer instead.
    pub fell_back: bool,
    /// Scale-free residual at the accepting check of the answering engine;
    /// `0.0` for direct methods (exact to machine precision).
    pub final_residual: f64,
    /// Sweeps attributed per engine tier, stalled attempts included.
    pub sweeps_per_engine: EngineSweeps,
    /// Id of the span this solve ran under in a recorded trace
    /// (`burstcap_obs`), linking the solution to its span tree: the
    /// ladder's `qn.solve_auto` span for every answer of
    /// [`MapNetwork::solve_tiers`], whichever tier gave it, and the
    /// engine's `qn.solve` span for a direct engine call; `0` when the
    /// solve was untraced.
    pub trace_id: u64,
}

impl SolveDiagnostics {
    /// Diagnostics of a first-try direct solve (no iterations, no fallback).
    pub(crate) fn direct() -> Self {
        Self::of_engine(SolveEngine::Direct, 0, 0.0)
    }

    /// Diagnostics of a single-engine run that did not fall back.
    pub(crate) fn of_engine(engine: SolveEngine, iterations: usize, final_residual: f64) -> Self {
        SolveDiagnostics {
            engine,
            iterations,
            fell_back: false,
            final_residual,
            sweeps_per_engine: EngineSweeps::of(engine, iterations),
            trace_id: 0,
        }
    }
}

/// Closed tandem network: think (exp) → station 1 (MAP2) → … → station M
/// (MAP2) → think.
#[derive(Debug, Clone, PartialEq)]
pub struct MapNetwork {
    population: usize,
    think_time: f64,
    stations: Vec<Map2>,
    state_limit: usize,
}

/// Exact steady-state metrics of a [`MapNetwork`].
///
/// Per-station metrics live in the `utilization` / `mean_jobs` vectors
/// (station order = tandem order). The scalar `*_front` / `*_db` fields
/// mirror the **first** and **last** station for continuity with the
/// paper's two-tier model; for `M = 2` they are exactly the historical
/// fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapQnSolution {
    /// System throughput (last-station completions per second).
    pub throughput: f64,
    /// Per-station utilization (probability the station is busy), in tandem
    /// order.
    pub utilization: Vec<f64>,
    /// Per-station mean number of resident requests, in tandem order.
    pub mean_jobs: Vec<f64>,
    /// First-station utilization (`utilization[0]`).
    pub utilization_front: f64,
    /// Last-station utilization (`utilization[M - 1]`).
    pub utilization_db: f64,
    /// Mean number of requests at the first station (`mean_jobs[0]`).
    pub mean_jobs_front: f64,
    /// Mean number of requests at the last station (`mean_jobs[M - 1]`).
    pub mean_jobs_db: f64,
    /// Mean response time of one think-to-think pass (Little's law).
    pub response_time: f64,
    /// Number of CTMC states solved.
    pub states: usize,
    /// Which engine produced this solution and how much work it did.
    pub diagnostics: SolveDiagnostics,
}

impl MapQnSolution {
    fn with_diagnostics(mut self, diagnostics: SolveDiagnostics) -> Self {
        self.diagnostics = diagnostics;
        self
    }
}

/// Combinatorial ranking of occupancy vectors (the combinatorial number
/// system over `cum[d][b] = C(b + d, d)`, the count of `d`-component
/// occupancy vectors with total at most `b`). Shared with the matrix-free
/// engine in [`crate::matfree`], which ranks and unranks states on the fly
/// instead of materializing the generator.
#[derive(Debug, Clone)]
pub(crate) struct StateIndexer {
    n: usize,
    pub(crate) phases: usize,
    cum: Vec<Vec<usize>>,
}

impl StateIndexer {
    /// Checked construction: every table entry is built with `checked_add`,
    /// and the final `C(n + m, m) * 2^m` state count must be representable.
    /// An overflow means the state space does not fit in a `usize` — far
    /// beyond any configured cap — so it is reported as the typed
    /// [`QnError::StateSpaceTooLarge`] (with a saturated `states` field)
    /// rather than left to a separate limit check that a regression could
    /// silently bypass, corrupting every rank the indexer hands out.
    fn try_new(n: usize, m: usize, limit: usize) -> Result<Self, QnError> {
        let overflow = || QnError::StateSpaceTooLarge {
            states: usize::MAX,
            limit,
        };
        // cum[0][b] = 1; C(b + d, d) = C(b - 1 + d, d) + C(b + d - 1, d - 1).
        let mut cum = vec![vec![1usize; n + 1]; m + 1];
        for d in 1..=m {
            for b in 0..=n {
                let left = if b == 0 { 0 } else { cum[d][b - 1] };
                cum[d][b] = left.checked_add(cum[d - 1][b]).ok_or_else(overflow)?;
            }
        }
        // burstcap-lint: allow(lossy-state-cast) — m is a station count (tiny); checked_shl rejects any shift >= word size regardless
        let phases = 1usize.checked_shl(m as u32).ok_or_else(overflow)?;
        cum[m][n].checked_mul(phases).ok_or_else(overflow)?;
        Ok(StateIndexer { n, phases, cum })
    }

    /// Total number of CTMC states the indexer ranks: occupancy count times
    /// the phase factor (overflow-checked at construction).
    pub(crate) fn state_count(&self) -> usize {
        // burstcap-lint: allow(lossy-state-cast) — trailing_zeros() <= 64 always widens losslessly into usize
        let m = self.phases.trailing_zeros() as usize;
        self.cum[m][self.n] * self.phases
    }

    /// Inverse of [`StateIndexer::occ_rank`]: the occupancy vector at the
    /// given lexicographic rank. `O(N·M)` — used once per worker to seed a
    /// row range, not on the per-state hot path.
    pub(crate) fn unrank(&self, mut rank: usize) -> Vec<usize> {
        // burstcap-lint: allow(lossy-state-cast) — trailing_zeros() <= 64 always widens losslessly into usize
        let m = self.phases.trailing_zeros() as usize;
        let mut occ = vec![0usize; m];
        let mut b = self.n;
        for (i, slot) in occ.iter_mut().enumerate() {
            let d = m - i;
            // Largest component value whose predecessor count fits in rank.
            let mut o = 0usize;
            // burstcap-lint: allow(lossy-state-cast) — o < b <= n bounds o + 1; the cum table itself is overflow-checked at construction
            while o < b && self.cum[d][b] - self.cum[d][b - (o + 1)] <= rank {
                o += 1;
            }
            rank -= self.cum[d][b] - self.cum[d][b - o];
            *slot = o;
            b -= o;
        }
        occ
    }

    /// Lexicographic rank of `occ` among all occupancy vectors with total at
    /// most `n`.
    pub(crate) fn occ_rank(&self, occ: &[usize]) -> usize {
        let m = occ.len();
        let mut r = 0;
        let mut b = self.n;
        for (i, &o) in occ.iter().enumerate() {
            let d = m - i;
            r += self.cum[d][b] - self.cum[d][b - o];
            b -= o;
        }
        r
    }

    /// Lexicographic rank of `comp` among the compositions of its own total
    /// (the within-level local index, before the phase factor).
    pub(crate) fn comp_rank(&self, comp: &[usize]) -> usize {
        let m = comp.len();
        let mut r = 0;
        let mut s: usize = comp.iter().sum();
        for i in 0..m.saturating_sub(1) {
            let d = m - i;
            // Compositions with a smaller component here: for each k <
            // comp[i], the remaining d-1 components sum to s - k freely.
            r += self.cum[d - 1][s] - self.cum[d - 1][s - comp[i]];
            s -= comp[i];
        }
        r
    }

    /// Flat CTMC index of the state `(occ, phase)`. The hot paths keep the
    /// occupancy base and phase offset separate; this composed form serves
    /// the indexing tests.
    #[cfg(test)]
    fn flat_index(&self, occ: &[usize], phase: usize) -> usize {
        self.occ_rank(occ) * self.phases + phase
    }
}

/// All compositions of `total` into `m` parts, lexicographic order (the
/// within-level enumeration).
fn compositions(total: usize, m: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut scratch = vec![0usize; m];
    fill_compositions(total, 0, &mut scratch, &mut out);
    out
}

fn fill_compositions(rest: usize, dim: usize, scratch: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if dim + 1 == scratch.len() {
        scratch[dim] = rest;
        out.push(scratch.clone());
        return;
    }
    for k in 0..=rest {
        scratch[dim] = k;
        fill_compositions(rest - k, dim + 1, scratch, out);
    }
}

/// Phase index helpers: station `i`'s phase bit sits at `m - 1 - i` (station
/// 0 is the most significant bit, matching the historical `p_f * 2 + p_d`
/// layout for `M = 2`).
#[inline]
pub(crate) fn phase_of(q: usize, i: usize, m: usize) -> usize {
    (q >> (m - 1 - i)) & 1
}

#[inline]
pub(crate) fn with_phase(q: usize, i: usize, j: usize, m: usize) -> usize {
    (q & !(1 << (m - 1 - i))) | (j << (m - 1 - i))
}

impl MapNetwork {
    /// Configure the paper's two-tier network (think → front → db → think):
    /// the `M = 2` tandem.
    ///
    /// # Errors
    /// Rejects a zero population and non-positive think times.
    pub fn new(population: usize, think_time: f64, front: Map2, db: Map2) -> Result<Self, QnError> {
        Self::tandem(population, think_time, vec![front, db])
    }

    /// Configure a tandem of `M` MAP(2) stations: think completions enter
    /// station 1, station `i` completions move to station `i + 1`, and the
    /// last station's completions return to the think stage.
    ///
    /// # Errors
    /// Rejects a zero population, non-positive think times, and an empty
    /// station list.
    ///
    /// # Example
    /// ```
    /// use burstcap_map::Map2;
    /// use burstcap_qn::mapqn::MapNetwork;
    ///
    /// // Three-tier (web + app + db) network with exponential services.
    /// let stations = vec![
    ///     Map2::poisson(1.0 / 0.004)?,
    ///     Map2::poisson(1.0 / 0.010)?,
    ///     Map2::poisson(1.0 / 0.006)?,
    /// ];
    /// let sol = MapNetwork::tandem(1, 0.5, stations)?.solve()?;
    /// let expect = 1.0 / (0.5 + 0.004 + 0.010 + 0.006);
    /// assert!((sol.throughput - expect).abs() / expect < 1e-9);
    /// assert_eq!(sol.utilization.len(), 3);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn tandem(
        population: usize,
        think_time: f64,
        stations: Vec<Map2>,
    ) -> Result<Self, QnError> {
        if population == 0 {
            return Err(QnError::InvalidParameter {
                name: "population",
                reason: "population must be at least 1".into(),
            });
        }
        if think_time <= 0.0 || !think_time.is_finite() {
            return Err(QnError::InvalidParameter {
                name: "think_time",
                reason: format!("must be positive and finite, got {think_time}"),
            });
        }
        if stations.is_empty() {
            return Err(QnError::InvalidParameter {
                name: "stations",
                reason: "need at least one MAP station".into(),
            });
        }
        Ok(MapNetwork {
            population,
            think_time,
            stations,
            state_limit: DEFAULT_STATE_LIMIT,
        })
    }

    /// Override the state-space cap.
    pub fn state_limit(mut self, limit: usize) -> Self {
        self.state_limit = limit;
        self
    }

    /// Number of CTMC states for this population and station count:
    /// `C(N + M, M) * 2^M` (for `M = 2` this is `(N+1)(N+2)/2 * 4`).
    pub fn state_count(&self) -> usize {
        let m = self.stations.len();
        let n = self.population;
        // C(n + m, m) built incrementally: after step i the product is the
        // integer C(n + i, i). Saturating so absurd inputs trip the limit
        // check instead of wrapping.
        let mut c: usize = 1;
        for i in 1..=m {
            c = c.saturating_mul(n + i) / i;
        }
        c.saturating_mul(1usize << m)
    }

    /// The configured population.
    pub fn population(&self) -> usize {
        self.population
    }

    /// The configured mean think time.
    pub fn think_time(&self) -> f64 {
        self.think_time
    }

    /// The configured stations, in tandem order.
    pub fn stations(&self) -> &[Map2] {
        &self.stations
    }

    /// Station count `M`.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    fn check_state_limit(&self) -> Result<usize, QnError> {
        let states = self.state_count();
        if states > self.state_limit {
            return Err(QnError::StateSpaceTooLarge {
                states,
                limit: self.state_limit,
            });
        }
        Ok(states)
    }

    /// Build the (overflow-checked) combinatorial indexer for this network.
    fn indexer(&self) -> Result<StateIndexer, QnError> {
        StateIndexer::try_new(self.population, self.stations.len(), self.state_limit)
    }

    // ------------------------------------------------------------------
    // Level-structured representation.
    //
    // Level l holds the states with n_1 + … + n_M = l. The local index of
    // (comp, phases) is comp_rank * 2^M + phase_index, independent of the
    // level; the "up" map (think completion, which increments n_1) sends a
    // local index to the rank of the incremented composition one level up,
    // phases unchanged.
    // ------------------------------------------------------------------

    /// Within-level block `A0_l` over the given level compositions,
    /// including the full exit rates on the diagonal (up, down, and
    /// within-level transitions all drain it).
    fn a0(&self, level: usize, comps: &[Vec<usize>], idx: &StateIndexer) -> Vec<f64> {
        let m = self.stations.len();
        let phases = idx.phases;
        let size = comps.len() * phases;
        let mut a = vec![0.0; size * size];
        let up_rate = if level < self.population {
            (self.population - level) as f64 / self.think_time
        } else {
            0.0
        };
        let mut scratch = vec![0usize; m];
        // Phase-independent hand-off destinations (job at station i moves
        // to i + 1 within the level), hoisted out of the phase loop.
        let mut within_dst = vec![usize::MAX; m];
        for (ci, comp) in comps.iter().enumerate() {
            for i in 0..m {
                within_dst[i] = if comp[i] > 0 && i + 1 < m {
                    scratch.copy_from_slice(comp);
                    scratch[i] -= 1;
                    scratch[i + 1] += 1;
                    idx.comp_rank(&scratch)
                } else {
                    usize::MAX
                };
            }
            for q in 0..phases {
                let s = ci * phases + q;
                let mut exit = up_rate;
                for i in 0..m {
                    if comp[i] == 0 {
                        continue;
                    }
                    let p = phase_of(q, i, m);
                    let d0 = self.stations[i].d0();
                    exit += -d0[p][p];
                    // Hidden phase change at station i.
                    let hidden = d0[p][1 - p];
                    if hidden > 0.0 {
                        a[s * size + (ci * phases + with_phase(q, i, 1 - p, m))] += hidden;
                    }
                    // Completions at stations before the last stay within
                    // the level: the job moves to station i + 1.
                    if i + 1 < m {
                        let cdst = within_dst[i];
                        for (j, &rate) in self.stations[i].d1()[p].iter().enumerate() {
                            if rate > 0.0 {
                                a[s * size + (cdst * phases + with_phase(q, i, j, m))] += rate;
                            }
                        }
                    }
                    // Last-station completions leave the level (see adown).
                }
                a[s * size + s] -= exit;
            }
        }
        a
    }

    /// Down-transitions from `level` to `level - 1` as sparse triples
    /// `(local_from, local_to, rate)`: last-station completions.
    fn adown(
        &self,
        level: usize,
        comps: &[Vec<usize>],
        idx: &StateIndexer,
    ) -> Vec<(usize, usize, f64)> {
        debug_assert!(level >= 1);
        let m = self.stations.len();
        let phases = idx.phases;
        let last = m - 1;
        let d1 = self.stations[last].d1();
        let mut tr = Vec::new();
        for (ci, comp) in comps.iter().enumerate() {
            if comp[last] == 0 {
                continue;
            }
            let mut dst = comp.clone();
            dst[last] -= 1;
            let cdst = idx.comp_rank(&dst);
            for q in 0..phases {
                let p = phase_of(q, last, m);
                let s = ci * phases + q;
                for (j, &rate) in d1[p].iter().enumerate() {
                    if rate > 0.0 {
                        tr.push((s, cdst * phases + with_phase(q, last, j, m), rate));
                    }
                }
            }
        }
        tr
    }

    /// Solve the network exactly by block Gaussian elimination over levels
    /// (the finite-QBD direct method — immune to stiffness; `O(N^4)` time
    /// for two stations, with level blocks growing as `C(l + M - 1, M - 1)`
    /// for larger tandems).
    ///
    /// # Errors
    /// Refuses state spaces beyond the configured limit and propagates
    /// numerical failures (singular level blocks, impossible for valid
    /// MAPs).
    ///
    /// # Example
    /// ```
    /// use burstcap_map::Map2;
    /// use burstcap_qn::mapqn::MapNetwork;
    ///
    /// // N = 1 has the closed form X = 1 / (Z + S_front + S_db).
    /// let net = MapNetwork::new(1, 0.5, Map2::poisson(100.0)?, Map2::poisson(50.0)?)?;
    /// let sol = net.solve()?;
    /// let expect = 1.0 / (0.5 + 0.01 + 0.02);
    /// assert!((sol.throughput - expect).abs() / expect < 1e-9);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn solve(&self) -> Result<MapQnSolution, QnError> {
        Ok(self.solve_with_initial(None)?.0)
    }

    /// The direct level-reduction solve through the **same seam** as
    /// [`MapNetwork::solve_sparse_with_initial`]: accepts an (optional)
    /// stationary-vector guess and returns both the metrics and the flat
    /// stationary vector.
    ///
    /// The direct method is non-iterative, so the guess cannot speed it up —
    /// it is validated (length must match [`MapNetwork::state_count`]) and
    /// otherwise unused. What the seam buys is the *output*: every
    /// stall-fallback from an iterative engine used to land here, solve
    /// cold, and **discard** the stationary vector, so the caller's warm
    ///-start chain broke exactly when the chain got stiff. Returning the
    /// flat `pi` keeps warm-starting alive across fallbacks.
    ///
    /// # Errors
    /// Rejects a wrong-length guess; otherwise as [`MapNetwork::solve`].
    ///
    /// # Example
    /// ```
    /// use burstcap_map::Map2;
    /// use burstcap_qn::mapqn::MapNetwork;
    ///
    /// let net = MapNetwork::new(8, 0.5, Map2::poisson(100.0)?, Map2::poisson(50.0)?)?;
    /// let (sol, pi) = net.solve_with_initial(None)?;
    /// assert_eq!(pi.len(), net.state_count());
    /// assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    /// // The vector seeds the next (possibly iterative) solve.
    /// let (warm, _) = net.solve_sparse_with_initial(Some(pi))?;
    /// assert!((warm.throughput - sol.throughput).abs() / sol.throughput < 1e-8);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn solve_with_initial(
        &self,
        guess: Option<Vec<f64>>,
    ) -> Result<(MapQnSolution, Vec<f64>), QnError> {
        self.check_state_limit()?;
        if let Some(g) = &guess {
            if g.len() != self.state_count() {
                return Err(QnError::InvalidParameter {
                    name: "guess",
                    reason: format!(
                        "initial vector has {} entries, chain has {} states",
                        g.len(),
                        self.state_count()
                    ),
                });
            }
        }
        let n = self.population;
        let z = self.think_time;
        let m = self.stations.len();
        let idx = self.indexer()?;
        let phases = idx.phases;
        let comps: Vec<Vec<Vec<usize>>> = (0..=n).map(|l| compositions(l, m)).collect();

        // Up map: composition rank one level up after a think completion
        // (station 1 gains a job, phases unchanged).
        let up_comp: Vec<Vec<usize>> = (0..n)
            .map(|l| {
                comps[l]
                    .iter()
                    .map(|c| {
                        let mut c2 = c.clone();
                        c2[0] += 1;
                        idx.comp_rank(&c2)
                    })
                    .collect()
            })
            .collect();

        // Backward pass: S_N = A0_N; S_l = A0_l + U_l * Adown_{l+1} where
        // U_l = nu_l * inv(-S_{l+1})[up rows].
        let mut s = self.a0(n, &comps[n], &idx);
        let mut u_blocks: Vec<Vec<f64>> = Vec::with_capacity(n);
        for level in (0..n).rev() {
            let m_next = comps[level + 1].len() * phases;
            let m_l = comps[level].len() * phases;
            // inv(-S_{l+1})
            let mut neg = s;
            for x in neg.iter_mut() {
                *x = -*x;
            }
            let inv = invert_flat(&mut neg, m_next).ok_or(QnError::InvalidParameter {
                name: "network",
                reason: format!("singular level block at level {}", level + 1),
            })?;
            let nu = (n - level) as f64 / z;
            let mut u = vec![0.0; m_l * m_next];
            for r in 0..m_l {
                let src_row = up_comp[level][r / phases] * phases + r % phases;
                let dst = r * m_next;
                let src = src_row * m_next;
                u[dst..dst + m_next].copy_from_slice(&inv[src..src + m_next]);
                for x in &mut u[dst..dst + m_next] {
                    *x *= nu;
                }
            }
            // S_l = A0_l + U * Adown_{l+1}.
            let mut s_l = self.a0(level, &comps[level], &idx);
            for &(row_next, col_l, rate) in &self.adown(level + 1, &comps[level + 1], &idx) {
                for r in 0..m_l {
                    s_l[r * m_l + col_l] += u[r * m_next + row_next] * rate;
                }
            }
            u_blocks.push(u);
            s = s_l;
        }
        u_blocks.reverse();

        // pi_0 S_0 = 0 with normalization: 2^M x 2^M nullspace solve.
        let pi0 = left_null_vector(&s, phases).ok_or(QnError::InvalidParameter {
            name: "network",
            reason: "level-0 block has no stationary vector".into(),
        })?;

        let levels = forward_pass(pi0, &u_blocks, |l| comps[l].len() * phases)?;
        let solution = self.metrics_from_levels(&levels, &comps);
        // Flatten the level blocks back into combinatorial flat-index order
        // so the vector can warm-start a subsequent iterative solve.
        let mut pi = Vec::with_capacity(self.state_count());
        let mut occ = vec![0usize; m];
        loop {
            let total: usize = occ.iter().sum();
            let local_base = idx.comp_rank(&occ) * phases;
            pi.extend_from_slice(&levels[total][local_base..local_base + phases]);
            if !next_occupancy(&mut occ, total, n) {
                break;
            }
        }
        Ok((solution, pi))
    }

    /// Solve by dense LU on the full generator ([`Ctmc::dense_lu`]), for
    /// chains of at most `limit` states — the cross-validation oracle for
    /// the direct level-reduction and the iterative engines on small models.
    /// `O(states^2)` memory and `O(states^3)` time, so never a production
    /// path.
    ///
    /// # Errors
    /// Propagates CTMC construction errors, and
    /// [`QnError::StateSpaceTooLarge`] above `limit` states.
    ///
    /// # Example
    /// ```
    /// use burstcap_map::Map2;
    /// use burstcap_qn::mapqn::{MapNetwork, SolveEngine};
    ///
    /// let net = MapNetwork::new(6, 0.5, Map2::poisson(100.0)?, Map2::poisson(50.0)?)?;
    /// let oracle = net.solve_dense_lu(1_000)?;
    /// let (sparse, _) = net.solve_sparse_with_initial(None)?;
    /// assert!((sparse.throughput - oracle.throughput).abs() / oracle.throughput < 1e-10);
    /// assert_eq!(oracle.diagnostics.engine, SolveEngine::DenseLu);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn solve_dense_lu(&self, limit: usize) -> Result<MapQnSolution, QnError> {
        self.check_state_limit()?;
        let idx = self.indexer()?;
        let chain = Ctmc::from_outgoing_csr(self.outgoing_csr()?)?;
        let run = chain.dense_lu(limit)?;
        Ok(self
            .metrics_from_flat(&idx, &run.pi)
            .with_diagnostics(SolveDiagnostics::of_engine(
                SolveEngine::DenseLu,
                run.iterations,
                run.final_residual,
            )))
    }

    /// Warm-startable sparse solve with production tuning: D-ILU BiCGSTAB
    /// at a 1e-12 scale-free residual, tight enough that throughput agrees
    /// with the direct solver to ~1e-8, stiff fitted MAPs included. It is
    /// seeded from an optional stationary-vector guess and returns both the
    /// metrics **and** the stationary vector, so consecutive solves can
    /// chain.
    ///
    /// Prefer this over [`MapNetwork::solve`] when the state space is large:
    /// the direct level-reduction inverts one dense block per level, while
    /// an iteration here is `O(transitions)`. A rolling re-fit changes the
    /// MAP rates slightly while the state space — which depends only on the
    /// population and station count — stays fixed, so the previous
    /// stationary vector is an excellent initial iterate (the underlying
    /// seam is [`crate::ctmc::Ctmc::steady_state`], which normalizes and
    /// floors the guess). With `None` the solve starts cold from the
    /// network's product form with exponential servers of the stations'
    /// mean service times, weighted by each station's phase distribution —
    /// exact for [`Map2::poisson`] stations, and 5–40% fewer iterations
    /// than the uniform vector on the benchmark's fitted bursty MAPs.
    ///
    /// # Errors
    /// Rejects a guess whose length differs from
    /// [`MapNetwork::state_count`]; propagates construction errors and
    /// [`QnError::NoConvergence`] on nearly decomposable chains (callers
    /// wanting the stiffness-proof fallback use
    /// [`MapNetwork::solve_tiers`]).
    ///
    /// # Example
    /// ```
    /// use burstcap_map::Map2;
    /// use burstcap_qn::mapqn::MapNetwork;
    ///
    /// let net = MapNetwork::new(40, 0.5, Map2::poisson(100.0)?, Map2::poisson(50.0)?)?;
    /// let (cold, pi) = net.solve_sparse_with_initial(None)?;
    /// let direct = net.solve()?;
    /// assert!((cold.throughput - direct.throughput).abs() / direct.throughput < 1e-8);
    /// // Re-solve a slightly perturbed model warm-started from pi.
    /// let drifted = MapNetwork::new(40, 0.5, Map2::poisson(98.0)?, Map2::poisson(51.0)?)?;
    /// let (warm, _) = drifted.solve_sparse_with_initial(Some(pi))?;
    /// assert!((warm.throughput - cold.throughput).abs() / cold.throughput < 0.05);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn solve_sparse_with_initial(
        &self,
        guess: Option<Vec<f64>>,
    ) -> Result<(MapQnSolution, Vec<f64>), QnError> {
        self.solve_sparse_with_initial_traced(guess, &Trace::noop())
    }

    /// [`MapNetwork::solve_sparse_with_initial`] with observability: opens
    /// a `qn.solve` span on `trace` (whose id lands in
    /// [`SolveDiagnostics::trace_id`]) and lets the CSR engine emit its
    /// decimated `ctmc.sweep` residual trajectory inside it. Pass
    /// [`Trace::noop`] — or call the untraced entry point — to observe
    /// nothing at near-zero cost.
    ///
    /// # Errors
    /// As [`MapNetwork::solve_sparse_with_initial`].
    pub fn solve_sparse_with_initial_traced(
        &self,
        guess: Option<Vec<f64>>,
        trace: &Trace,
    ) -> Result<(MapQnSolution, Vec<f64>), QnError> {
        self.solve_csr(guess, CSR_FULL, trace)
    }

    /// The one CSR solve body: assemble the chain and run D-ILU BiCGSTAB
    /// at `(tol, max_iter)`, from `guess` or, without one, from
    /// [`MapNetwork::product_form_start`].
    fn solve_csr(
        &self,
        guess: Option<Vec<f64>>,
        (tol, max_iter): (f64, usize),
        trace: &Trace,
    ) -> Result<(MapQnSolution, Vec<f64>), QnError> {
        self.solve_engine(SolveEngine::SparseCsr, trace, || {
            let chain = Ctmc::from_outgoing_csr(self.outgoing_csr()?)?;
            // Built once the outgoing CSR is gone, so the start adds nothing
            // to the assembly peak.
            let guess = match guess {
                Some(g) => g,
                None => self.product_form_start(&self.indexer()?),
            };
            let run = chain.steady_state(Some(guess), (tol, max_iter), trace)?;
            Ok((run.pi, run.iterations, run.final_residual))
        })
    }

    /// The cold start of the CSR engine: the product form the network would
    /// have with exponential servers of the stations' mean service times
    /// `m_i`, times each station's phase distribution `theta_i` (the
    /// stationary vector of `D0 + D1`),
    ///
    /// `pi(n, q) ∝ Z^{n_0} / n_0! · prod_i m_i^{n_i} · prod_i theta_i(q_i)`,
    ///
    /// with `n_0` the thinking customers. It is exact when every station is
    /// [`Map2::poisson`] (a completion redraws the phase uniformly, idle or
    /// busy); on the benchmark's fitted bursty MAPs it saves BiCGSTAB 5–40%
    /// of the iterations the uniform vector needs. Computed in log space,
    /// `O(states · M)`.
    fn product_form_start(&self, idx: &StateIndexer) -> Vec<f64> {
        let n = self.population;
        let m = self.stations.len();
        let theta: Vec<[f64; 2]> = self
            .stations
            .iter()
            .map(|s| {
                // Off-diagonal rates of the phase generator D0 + D1.
                let (d0, d1) = (s.d0(), s.d1());
                let up = d0[0][1] + d1[0][1];
                let down = d0[1][0] + d1[1][0];
                if up + down > 0.0 {
                    [down / (up + down), up / (up + down)]
                } else {
                    [0.5, 0.5]
                }
            })
            .collect();
        // The mean service time is one over the fundamental rate theta D1 1.
        let ln_mean: Vec<f64> = self
            .stations
            .iter()
            .zip(&theta)
            .map(|(s, th)| {
                let d1 = s.d1();
                -(th[0] * (d1[0][0] + d1[0][1]) + th[1] * (d1[1][0] + d1[1][1])).ln()
            })
            .collect();
        let ln_phase: Vec<f64> = (0..idx.phases)
            .map(|q| (0..m).map(|i| theta[i][phase_of(q, i, m)].ln()).sum())
            .collect();
        let mut ln_think = Vec::with_capacity(n + 1);
        let mut ln_fact = 0.0;
        for thinking in 0..=n {
            if thinking > 0 {
                ln_fact += (thinking as f64).ln();
            }
            ln_think.push(thinking as f64 * self.think_time.ln() - ln_fact);
        }
        let mut pi = Vec::with_capacity(idx.state_count());
        let mut occ = vec![0usize; m];
        loop {
            let total: usize = occ.iter().sum();
            let ln_occ: f64 = occ
                .iter()
                .zip(&ln_mean)
                .map(|(&k, &l)| k as f64 * l)
                .sum::<f64>()
                + ln_think[n - total];
            pi.extend(ln_phase.iter().map(|&lp| ln_occ + lp));
            if !next_occupancy(&mut occ, total, n) {
                break;
            }
        }
        let top = pi.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for x in pi.iter_mut() {
            *x = (*x - top).exp();
            sum += *x;
        }
        for x in pi.iter_mut() {
            *x /= sum;
        }
        pi
    }

    /// The one matrix-free solve body: damped Jacobi at `(tol, max_iter)`
    /// on the operator of [`MapNetwork::matrix_free`] over `workers`
    /// threads.
    fn solve_matfree(
        &self,
        budget: (f64, usize),
        workers: usize,
        guess: Option<Vec<f64>>,
        trace: &Trace,
    ) -> Result<(MapQnSolution, Vec<f64>), QnError> {
        self.solve_engine(SolveEngine::MatrixFree, trace, || {
            let op = self.matrix_free()?;
            let run = crate::matfree::steady_state(&op, budget, workers, guess, trace)?;
            Ok((run.pi, run.iterations, run.final_residual))
        })
    }

    /// Run one iterative engine under a `qn.solve` span labelled `engine`,
    /// and turn the stationary vector, iteration count and final residual
    /// that `run` returns into metrics and [`SolveDiagnostics`].
    fn solve_engine(
        &self,
        engine: SolveEngine,
        trace: &Trace,
        run: impl FnOnce() -> Result<(Vec<f64>, usize, f64), QnError>,
    ) -> Result<(MapQnSolution, Vec<f64>), QnError> {
        self.check_state_limit()?;
        let span = trace.span_with(
            "qn.solve",
            vec![
                ("engine", engine.label().into()),
                ("states", self.state_count().into()),
                ("population", self.population.into()),
            ],
        );
        let (pi, iterations, final_residual) = run()?;
        let idx = self.indexer()?;
        let mut diagnostics = SolveDiagnostics::of_engine(engine, iterations, final_residual);
        diagnostics.trace_id = span.id();
        let solution = self
            .metrics_from_flat(&idx, &pi)
            .with_diagnostics(diagnostics);
        Ok((solution, pi))
    }

    /// The matrix-free generator operator for this network: applies `Q`
    /// directly from the per-station `Map2` factors and the combinatorial
    /// ranking, `O(states · M)` memory instead of the CSR engine's
    /// `O(transitions)`. Feed it to [`crate::matfree::steady_state`] (or use
    /// [`MapNetwork::solve_matrix_free_with_initial`], which does exactly
    /// that).
    ///
    /// # Errors
    /// Refuses state spaces beyond the configured limit and spaces whose
    /// size overflows a `usize`.
    pub fn matrix_free(&self) -> Result<MatrixFreeGenerator, QnError> {
        self.check_state_limit()?;
        let idx = self.indexer()?;
        Ok(MatrixFreeGenerator::build(
            self.population,
            self.think_time,
            self.stations.clone(),
            idx,
        ))
    }

    /// Warm-startable matrix-free solve: a damped Jacobi sweep over the
    /// operator of [`MapNetwork::matrix_free`], row ranges partitioned
    /// across `workers` scoped threads (`0` = auto: the
    /// `BURSTCAP_SOLVER_WORKERS` env var, else available parallelism),
    /// seeded from an optional stationary-vector guess and returning both
    /// the metrics and the stationary vector — the same seam as
    /// [`MapNetwork::solve_sparse_with_initial`], extended to the engine
    /// tier where warm starts matter most (each sweep touches every state).
    ///
    /// The iterates are **bit-identical across worker counts**: every row's
    /// inflow is accumulated in a fixed order regardless of partition, and
    /// normalization runs as a serial pass.
    ///
    /// # Errors
    /// Rejects a wrong-length guess; propagates limit/overflow errors and
    /// [`QnError::NoConvergence`] on chains stiff enough to stall the sweep.
    ///
    /// # Example
    /// ```
    /// use burstcap_map::Map2;
    /// use burstcap_qn::mapqn::MapNetwork;
    ///
    /// let net = MapNetwork::new(12, 0.5, Map2::poisson(100.0)?, Map2::poisson(50.0)?)?;
    /// let (mf, _) = net.solve_matrix_free_with_initial(1, None)?;
    /// let direct = net.solve()?;
    /// assert!((mf.throughput - direct.throughput).abs() / direct.throughput < 1e-8);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn solve_matrix_free_with_initial(
        &self,
        workers: usize,
        guess: Option<Vec<f64>>,
    ) -> Result<(MapQnSolution, Vec<f64>), QnError> {
        self.solve_matrix_free_with_initial_traced(workers, guess, &Trace::noop())
    }

    /// [`MapNetwork::solve_matrix_free_with_initial`] with observability:
    /// opens a `qn.solve` span on `trace` (whose id lands in
    /// [`SolveDiagnostics::trace_id`]) and lets the matrix-free engine emit
    /// its decimated `matfree.sweep` trajectory inside it. The recorded
    /// deterministic trace is **byte-identical across worker counts** —
    /// worker-dependent detail (partition shapes) goes out as volatile
    /// events only; see [`crate::matfree::steady_state`].
    ///
    /// # Errors
    /// As [`MapNetwork::solve_matrix_free_with_initial`].
    pub fn solve_matrix_free_with_initial_traced(
        &self,
        workers: usize,
        guess: Option<Vec<f64>>,
        trace: &Trace,
    ) -> Result<(MapQnSolution, Vec<f64>), QnError> {
        self.solve_matfree(TIER_LIMITS.matfree, workers, guess, trace)
    }

    /// [`MapNetwork::solve_tiers`] with the batch ladder's direct tier
    /// ending at `sparse_above_states` instead of
    /// [`AUTO_SPARSE_THRESHOLD`], untraced.
    ///
    /// # Errors
    /// As [`MapNetwork::solve_tiers`].
    ///
    /// # Example
    /// ```
    /// use burstcap_map::Map2;
    /// use burstcap_qn::mapqn::{MapNetwork, AUTO_SPARSE_THRESHOLD};
    ///
    /// let net = MapNetwork::new(30, 0.5, Map2::poisson(100.0)?, Map2::poisson(50.0)?)?;
    /// // Direct: 2048 states.
    /// let (auto, _) = net.solve_auto_with_initial(AUTO_SPARSE_THRESHOLD, None)?;
    /// // Sparse: the threshold is below the state count.
    /// let (forced_sparse, _) = net.solve_auto_with_initial(0, None)?;
    /// assert!((auto.throughput - forced_sparse.throughput).abs() / auto.throughput < 1e-8);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn solve_auto_with_initial(
        &self,
        sparse_above_states: usize,
        guess: Option<Vec<f64>>,
    ) -> Result<(MapQnSolution, Vec<f64>), QnError> {
        self.solve_auto_traced(sparse_above_states, guess, &Trace::noop())
    }

    /// [`MapNetwork::solve_tiers`] with the batch ladder's direct tier
    /// ending at `sparse_above_states` instead of
    /// [`AUTO_SPARSE_THRESHOLD`].
    ///
    /// # Errors
    /// As [`MapNetwork::solve_tiers`].
    pub fn solve_auto_traced(
        &self,
        sparse_above_states: usize,
        guess: Option<Vec<f64>>,
        trace: &Trace,
    ) -> Result<(MapQnSolution, Vec<f64>), QnError> {
        let policy = TierPolicy {
            direct_up_to: sparse_above_states,
            ..TierPolicy::BATCH
        };
        self.solve_tiers(policy, guess, trace)
    }

    /// Solve with automatic engine selection: the one place that picks an
    /// engine and a fallback. Three tiers by state count:
    ///
    /// 1. **Direct** level-reduction (immune to stiffness) up to the
    ///    policy's direct threshold ([`AUTO_SPARSE_THRESHOLD`] for
    ///    [`TierPolicy::BATCH`], none for [`TierPolicy::ONLINE`]);
    /// 2. **Sparse CSR** D-ILU BiCGSTAB, at the policy's first-attempt
    ///    budget, up to [`AUTO_MATFREE_THRESHOLD`] states (or the direct
    ///    threshold, if higher), with a stall falling back to the direct
    ///    solver;
    /// 3. **Matrix-free parallel** Jacobi above that — the generator is
    ///    never materialized — with a stall falling back to the full-budget
    ///    CSR solve (the direct solver's dense level blocks are infeasible
    ///    at this size).
    ///
    /// The guess survives fallbacks: a stalled attempt hands it to the
    /// fallback engine instead of discarding it. Fallbacks are recorded in
    /// [`MapQnSolution::diagnostics`] (`fell_back = true`), and
    /// [`SolveDiagnostics::sweeps_per_engine`] attributes every sweep,
    /// stalled attempts included, to the engine that performed it. Works
    /// for any station count `M`.
    ///
    /// On `trace` the ladder opens a `qn.solve_auto` span, emits one
    /// `qn.engine` event for the tier the state count selects and a
    /// `qn.fallback` event whenever an iterative attempt stalls (carrying
    /// the sweeps the stalled attempt burned), and lets the engines emit
    /// their residual trajectories inside the span.
    /// [`SolveDiagnostics::trace_id`] is the `qn.solve_auto` span's id on
    /// every answer, fallbacks included. Pass [`Trace::noop`] to observe nothing at near-zero
    /// cost.
    ///
    /// # Errors
    /// Propagates state-limit and construction errors, rejection of
    /// wrong-length guesses, and fallback-engine failures.
    ///
    /// # Example
    /// ```
    /// use burstcap_map::Map2;
    /// use burstcap_obs::Trace;
    /// use burstcap_qn::mapqn::{MapNetwork, SolveEngine, TierPolicy};
    ///
    /// let net = MapNetwork::new(30, 0.5, Map2::poisson(100.0)?, Map2::poisson(50.0)?)?;
    /// // 2048 states: the batch ladder solves them directly.
    /// let (batch, pi) = net.solve_tiers(TierPolicy::BATCH, None, &Trace::noop())?;
    /// assert_eq!(batch.diagnostics.engine, SolveEngine::Direct);
    /// // The online ladder has no direct tier and keeps the warm start.
    /// let (online, _) = net.solve_tiers(TierPolicy::ONLINE, Some(pi), &Trace::noop())?;
    /// assert_eq!(online.diagnostics.engine, SolveEngine::SparseCsr);
    /// assert!((online.throughput - batch.throughput).abs() / batch.throughput < 1e-8);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn solve_tiers(
        &self,
        policy: TierPolicy,
        guess: Option<Vec<f64>>,
        trace: &Trace,
    ) -> Result<(MapQnSolution, Vec<f64>), QnError> {
        let TierPolicy {
            direct_up_to,
            first_csr,
            limits,
        } = policy;
        let states = self.state_count();
        let span = trace.span_with(
            "qn.solve_auto",
            vec![
                ("states", states.into()),
                ("population", self.population.into()),
                ("stations", self.stations.len().into()),
            ],
        );
        // Whichever tier answers, the solution links the ladder's span.
        let linked = |(mut sol, pi): (MapQnSolution, Vec<f64>)| {
            sol.diagnostics.trace_id = span.id();
            (sol, pi)
        };
        if states <= direct_up_to {
            trace.event(
                "qn.engine",
                vec![("engine", "direct".into()), ("tier", 1_u64.into())],
            );
            return self.solve_with_initial(guess).map(linked);
        }
        let csr_tier = states <= limits.matfree_above.max(direct_up_to);
        let (engine, tier, fallback) = if csr_tier {
            (SolveEngine::SparseCsr, 2_u64, SolveEngine::Direct)
        } else {
            (SolveEngine::MatrixFree, 3, SolveEngine::SparseCsr)
        };
        trace.event(
            "qn.engine",
            vec![("engine", engine.label().into()), ("tier", tier.into())],
        );
        let attempt = if csr_tier {
            self.solve_csr(guess.clone(), first_csr, trace)
        } else {
            self.solve_matfree(limits.matfree, 0, guess.clone(), trace)
        };
        let Err(QnError::NoConvergence {
            iterations: stalled,
            ..
        }) = attempt
        else {
            return attempt.map(linked);
        };
        trace.event(
            "qn.fallback",
            vec![
                ("from", engine.label().into()),
                ("to", fallback.label().into()),
                ("stalled_sweeps", stalled.into()),
            ],
        );
        // A CSR stall (fitted bursty MAPs with phase persistence close to 1
        // make the chain nearly completely decomposable) falls back to the
        // stiffness-proof direct solver. A matrix-free stall falls back to
        // the full-budget CSR solve: dense level blocks are infeasible at
        // that size.
        let (mut sol, pi) = linked(if csr_tier {
            self.solve_with_initial(guess)?
        } else {
            self.solve_csr(guess, limits.csr, trace)?
        });
        sol.diagnostics.fell_back = true;
        sol.diagnostics.sweeps_per_engine.tally(engine, stalled);
        Ok((sol, pi))
    }

    /// Visit every transition `(from, to, rate)` of the flat CTMC, in
    /// strictly increasing `from` order (the state enumeration follows the
    /// combinatorial flat index, which is what lets
    /// [`MapNetwork::outgoing_csr`] stream straight into CSR arrays).
    fn for_each_transition(&self, idx: &StateIndexer, mut visit: impl FnMut(usize, usize, f64)) {
        let n = self.population;
        let m = self.stations.len();
        let phases = idx.phases;
        let think_rate = 1.0 / self.think_time;
        let mut occ = vec![0usize; m];
        let mut scratch = vec![0usize; m];
        // Per-station completion-destination bases; phase-independent, so
        // computed once per occupancy vector rather than 2^M times.
        let mut dst_bases = vec![0usize; m];
        loop {
            let total: usize = occ.iter().sum();
            let from_base = idx.occ_rank(&occ) * phases;
            let thinking = (n - total) as f64;
            // Destination bases that do not depend on the phase index.
            let up_base = if total < n {
                scratch.copy_from_slice(&occ);
                scratch[0] += 1;
                idx.occ_rank(&scratch) * phases
            } else {
                0
            };
            for i in 0..m {
                if occ[i] == 0 {
                    continue;
                }
                scratch.copy_from_slice(&occ);
                scratch[i] -= 1;
                if i + 1 < m {
                    scratch[i + 1] += 1;
                }
                dst_bases[i] = idx.occ_rank(&scratch) * phases;
            }
            for q in 0..phases {
                let from = from_base + q;
                if thinking > 0.0 {
                    visit(from, up_base + q, thinking * think_rate);
                }
                for i in 0..m {
                    if occ[i] == 0 {
                        continue;
                    }
                    let p = phase_of(q, i, m);
                    let d0 = self.stations[i].d0();
                    let hidden = d0[p][1 - p];
                    if hidden > 0.0 {
                        visit(from, from_base + with_phase(q, i, 1 - p, m), hidden);
                    }
                    for (j, &rate) in self.stations[i].d1()[p].iter().enumerate() {
                        if rate > 0.0 {
                            visit(from, dst_bases[i] + with_phase(q, i, j, m), rate);
                        }
                    }
                }
            }
            if !next_occupancy(&mut occ, total, n) {
                break;
            }
        }
    }

    /// The off-diagonal generator of the flat CTMC, assembled directly into
    /// CSR form with no intermediate triplet list. A counting pass over the
    /// transitions sizes the arrays exactly: states average well under the
    /// `2 + 3M` transitions a state can have (idle stations emit none), and
    /// the CSR solve holds these arrays next to their transpose.
    ///
    /// # Errors
    /// Construction cannot fail for a validated network; errors are
    /// propagated defensively from the builder.
    ///
    /// # Example
    /// ```
    /// use burstcap_map::Map2;
    /// use burstcap_qn::mapqn::MapNetwork;
    ///
    /// let net = MapNetwork::new(2, 0.5, Map2::poisson(100.0)?, Map2::poisson(50.0)?)?;
    /// let q = net.outgoing_csr()?;
    /// assert_eq!(q.n(), net.state_count());
    /// // Every stored rate is a positive off-diagonal generator entry.
    /// assert!(q.iter().all(|(i, j, rate)| i != j && rate > 0.0));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn outgoing_csr(&self) -> Result<CsrMatrix, QnError> {
        let idx = self.indexer()?;
        let mut builder = CsrMatrix::builder(self.state_count())?;
        let mut transitions = 0usize;
        self.for_each_transition(&idx, |_, _, _| transitions += 1);
        builder.reserve(transitions);
        let mut failed = None;
        self.for_each_transition(&idx, |from, to, rate| {
            if failed.is_none() {
                if let Err(e) = builder.push(from, to, rate) {
                    failed = Some(e);
                }
            }
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(builder.finish()),
        }
    }

    /// Full transition list — the triplet-based reference implementation the
    /// CSR fast path is validated against.
    #[cfg(test)]
    fn flat_transitions(&self) -> Vec<(usize, usize, f64)> {
        let idx = self.indexer().unwrap();
        let mut tr = Vec::with_capacity(self.state_count() * 6);
        self.for_each_transition(&idx, |from, to, rate| tr.push((from, to, rate)));
        tr
    }

    /// Extract metrics from per-level stationary blocks (local layout
    /// `comp_rank * 2^M + phase_index`).
    fn metrics_from_levels(&self, levels: &[Vec<f64>], comps: &[Vec<Vec<usize>>]) -> MapQnSolution {
        let m = self.stations.len();
        let phases = 1usize << m;
        let last = m - 1;
        let d1_last = self.stations[last].d1();
        let mut throughput = 0.0;
        let mut util = vec![0.0; m];
        let mut jobs = vec![0.0; m];
        for (level, block) in levels.iter().enumerate() {
            for (ci, comp) in comps[level].iter().enumerate() {
                for q in 0..phases {
                    let p = block[ci * phases + q];
                    if p == 0.0 {
                        continue;
                    }
                    for i in 0..m {
                        if comp[i] > 0 {
                            util[i] += p;
                            jobs[i] += p * comp[i] as f64;
                        }
                    }
                    if comp[last] > 0 {
                        let pl = phase_of(q, last, m);
                        throughput += p * (d1_last[pl][0] + d1_last[pl][1]);
                    }
                }
            }
        }
        let response_time = if throughput > 0.0 {
            self.population as f64 / throughput - self.think_time
        } else {
            f64::INFINITY
        };
        MapQnSolution {
            throughput,
            utilization_front: util[0],
            utilization_db: util[last],
            mean_jobs_front: jobs[0],
            mean_jobs_db: jobs[last],
            utilization: util,
            mean_jobs: jobs,
            response_time,
            states: self.state_count(),
            // Callers on the iterative paths overwrite this with their real
            // engine/iteration record (`with_diagnostics`).
            diagnostics: SolveDiagnostics::direct(),
        }
    }

    /// Extract metrics from a flat stationary vector (the sparse/dense CTMC
    /// path).
    fn metrics_from_flat(&self, idx: &StateIndexer, pi: &[f64]) -> MapQnSolution {
        let n = self.population;
        let m = self.stations.len();
        let phases = idx.phases;
        // Re-bucket the flat vector into levels for shared metric
        // extraction.
        let comps: Vec<Vec<Vec<usize>>> = (0..=n).map(|l| compositions(l, m)).collect();
        let mut levels: Vec<Vec<f64>> = comps.iter().map(|c| vec![0.0; c.len() * phases]).collect();
        let mut flat = 0usize;
        let mut occ = vec![0usize; m];
        loop {
            let total: usize = occ.iter().sum();
            let local_base = idx.comp_rank(&occ) * phases;
            for q in 0..phases {
                levels[total][local_base + q] = pi[flat];
                flat += 1;
            }
            if !next_occupancy(&mut occ, total, n) {
                break;
            }
        }
        self.metrics_from_levels(&levels, &comps)
    }
}

/// Advance `occ` to the next occupancy vector in lexicographic order (total
/// capped at `n`); returns `false` past the last vector `(n, 0, …, 0)`.
pub(crate) fn next_occupancy(occ: &mut [usize], total: usize, n: usize) -> bool {
    let m = occ.len();
    if total < n {
        occ[m - 1] += 1;
        return true;
    }
    // Total is at the cap: drop the last non-zero component and carry.
    let k = match occ.iter().rposition(|&o| o > 0) {
        Some(k) => k,
        None => return false, // n = 0: single state
    };
    if k == 0 {
        return false;
    }
    occ[k] = 0;
    occ[k - 1] += 1;
    true
}

/// Shared forward pass of the level reduction: `pi_{l+1} = pi_l U_l`, then
/// clip-and-normalize across levels.
fn forward_pass(
    pi0: Vec<f64>,
    u_blocks: &[Vec<f64>],
    level_size: impl Fn(usize) -> usize,
) -> Result<Vec<Vec<f64>>, QnError> {
    let mut levels: Vec<Vec<f64>> = Vec::with_capacity(u_blocks.len() + 1);
    levels.push(pi0);
    for (level, u) in u_blocks.iter().enumerate() {
        let m_l = level_size(level);
        let m_next = level_size(level + 1);
        let prev = &levels[level];
        let mut next = vec![0.0; m_next];
        for r in 0..m_l {
            let w = prev[r];
            if w == 0.0 {
                continue;
            }
            let row = &u[r * m_next..(r + 1) * m_next];
            for (c, &val) in row.iter().enumerate() {
                next[c] += w * val;
            }
        }
        levels.push(next);
    }

    // Normalize across all levels (clip the tiny negatives roundoff can
    // leave in near-zero entries).
    let mut total = 0.0;
    for level in levels.iter_mut() {
        for x in level.iter_mut() {
            if *x < 0.0 {
                *x = 0.0;
            }
            total += *x;
        }
    }
    if !(total > 0.0) {
        return Err(QnError::InvalidParameter {
            name: "network",
            reason: "stationary vector has no mass".into(),
        });
    }
    for level in levels.iter_mut() {
        for x in level.iter_mut() {
            *x /= total;
        }
    }
    Ok(levels)
}

/// Invert a flat row-major `m x m` matrix in place via Gauss-Jordan with
/// partial pivoting; returns the inverse, or `None` if singular.
// Kept out of line: inlined into its one production caller, the level
// reduction, the elimination loop ran ≈15–20% slower on a population-50
// direct solve (release build, thin LTO).
#[inline(never)]
fn invert_flat(a: &mut [f64], m: usize) -> Option<Vec<f64>> {
    let mut inv = vec![0.0; m * m];
    for i in 0..m {
        inv[i * m + i] = 1.0;
    }
    for col in 0..m {
        // Pivot search.
        let mut pivot = col;
        let mut best = a[col * m + col].abs();
        for r in (col + 1)..m {
            let v = a[r * m + col].abs();
            if v > best {
                best = v;
                pivot = r;
            }
        }
        if best < 1e-300 {
            return None;
        }
        if pivot != col {
            for k in 0..m {
                a.swap(col * m + k, pivot * m + k);
                inv.swap(col * m + k, pivot * m + k);
            }
        }
        let d = a[col * m + col];
        let dinv = 1.0 / d;
        for k in 0..m {
            a[col * m + k] *= dinv;
            inv[col * m + k] *= dinv;
        }
        for r in 0..m {
            if r == col {
                continue;
            }
            let f = a[r * m + col];
            if f == 0.0 {
                continue;
            }
            for k in 0..m {
                a[r * m + k] -= f * a[col * m + k];
                inv[r * m + k] -= f * inv[col * m + k];
            }
        }
    }
    Some(inv)
}

/// Left null vector of a flat `m x m` matrix (row vector `pi` with
/// `pi A = 0`, `sum(pi) = 1`), or `None` if the nullspace is empty.
fn left_null_vector(a: &[f64], m: usize) -> Option<Vec<f64>> {
    // Solve A^T x = 0 with the last equation replaced by normalization.
    let mut t = vec![0.0; m * m];
    for i in 0..m {
        for j in 0..m {
            t[i * m + j] = a[j * m + i];
        }
    }
    let mut b = vec![0.0; m];
    for j in 0..m {
        t[(m - 1) * m + j] = 1.0;
    }
    b[m - 1] = 1.0;
    // Gaussian elimination with partial pivoting.
    let mut t2 = t;
    for col in 0..m {
        let mut pivot = col;
        let mut best = t2[col * m + col].abs();
        for r in (col + 1)..m {
            let v = t2[r * m + col].abs();
            if v > best {
                best = v;
                pivot = r;
            }
        }
        if best < 1e-300 {
            return None;
        }
        if pivot != col {
            for k in 0..m {
                t2.swap(col * m + k, pivot * m + k);
            }
            b.swap(col, pivot);
        }
        for r in (col + 1)..m {
            let f = t2[r * m + col] / t2[col * m + col];
            if f == 0.0 {
                continue;
            }
            for k in col..m {
                t2[r * m + k] -= f * t2[col * m + k];
            }
            b[r] -= f * b[col];
        }
    }
    for col in (0..m).rev() {
        let mut acc = b[col];
        for k in (col + 1)..m {
            acc -= t2[col * m + k] * b[k];
        }
        b[col] = acc / t2[col * m + col];
    }
    for x in b.iter_mut() {
        if *x < 0.0 {
            *x = 0.0;
        }
    }
    let s: f64 = b.iter().sum();
    if s <= 0.0 {
        return None;
    }
    for x in b.iter_mut() {
        *x /= s;
    }
    Some(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::ClosedMva;
    use burstcap_map::fit::Map2Fitter;
    use burstcap_obs::{Event, FieldValue, Recorder};
    use proptest::prelude::*;

    #[test]
    fn warm_started_sparse_solve_matches_direct() {
        // Moderately bursty fits (the sparse engine's converging regime).
        let front = Map2Fitter::new(0.01, 8.0, 0.03).fit().unwrap().map();
        let db = Map2Fitter::new(0.008, 12.0, 0.02).fit().unwrap().map();
        let net = MapNetwork::new(15, 0.3, front, db).unwrap();
        let direct = net.solve().unwrap();
        let (cold, pi) = net.solve_sparse_with_initial(None).unwrap();
        assert_eq!(pi.len(), net.state_count());
        assert!((cold.throughput - direct.throughput).abs() / direct.throughput < 1e-8);
        // Warm start from the exact answer on a drifted model: still the
        // right stationary solution.
        let drifted_db = Map2Fitter::new(0.0082, 11.0, 0.021).fit().unwrap().map();
        let drifted = MapNetwork::new(15, 0.3, front, drifted_db).unwrap();
        let (warm, pi2) = drifted.solve_sparse_with_initial(Some(pi)).unwrap();
        let drifted_direct = drifted.solve().unwrap();
        assert!(
            (warm.throughput - drifted_direct.throughput).abs() / drifted_direct.throughput < 1e-8,
            "warm {} vs direct {}",
            warm.throughput,
            drifted_direct.throughput
        );
        assert!((pi2.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // A wrong-length guess is rejected, not silently discarded.
        assert!(drifted.solve_sparse_with_initial(Some(vec![1.0])).is_err());
    }

    #[test]
    fn exponential_network_matches_mva() {
        // With Poisson (exponential) service the model is product-form and
        // MVA is exact.
        let front = Map2::poisson(1.0 / 0.01).unwrap();
        let db = Map2::poisson(1.0 / 0.006).unwrap();
        let mva = ClosedMva::new(vec![0.01, 0.006], 0.5).unwrap();
        for pop in [1, 5, 20, 60] {
            let exact = MapNetwork::new(pop, 0.5, front, db)
                .unwrap()
                .solve()
                .unwrap();
            let baseline = mva.solve(pop).unwrap();
            assert!(
                (exact.throughput - baseline.throughput).abs() / baseline.throughput < 1e-6,
                "N={pop}: MAP-QN {} vs MVA {}",
                exact.throughput,
                baseline.throughput
            );
            assert!(
                (exact.utilization_front - baseline.utilization[0]).abs() < 1e-6,
                "N={pop}: U_f {} vs {}",
                exact.utilization_front,
                baseline.utilization[0]
            );
        }
    }

    #[test]
    fn three_station_exponential_matches_mva() {
        // The generic tandem against exact MVA in the product-form case.
        let demands = [0.004, 0.01, 0.006];
        let stations: Vec<Map2> = demands
            .iter()
            .map(|&d| Map2::poisson(1.0 / d).unwrap())
            .collect();
        let mva = ClosedMva::new(demands.to_vec(), 0.4).unwrap();
        // Direct-solver level blocks grow as ~4 l^2 at M = 3, so debug-mode
        // tests stay at small populations; larger ones go through the
        // sparse engine (covered elsewhere).
        for pop in [1, 4, 8] {
            let exact = MapNetwork::tandem(pop, 0.4, stations.clone())
                .unwrap()
                .solve()
                .unwrap();
            let baseline = mva.solve(pop).unwrap();
            assert!(
                (exact.throughput - baseline.throughput).abs() / baseline.throughput < 1e-6,
                "N={pop}: MAP-QN {} vs MVA {}",
                exact.throughput,
                baseline.throughput
            );
            for i in 0..3 {
                assert!(
                    (exact.utilization[i] - baseline.utilization[i]).abs() < 1e-6,
                    "N={pop} station {i}: U {} vs {}",
                    exact.utilization[i],
                    baseline.utilization[i]
                );
            }
        }
    }

    #[test]
    fn generic_solver_matches_two_station_reference() {
        // The preserved two-station code is the oracle for the generic
        // level reduction at M = 2.
        let front = Map2Fitter::new(0.02, 50.0, 0.06).fit().unwrap().map();
        let db = Map2Fitter::new(0.03, 100.0, 0.1).fit().unwrap().map();
        let net = MapNetwork::new(12, 0.45, front, db).unwrap();
        let generic = net.solve().unwrap();
        let oracle = net.solve_two_station_reference().unwrap();
        assert!(
            (generic.throughput - oracle.throughput).abs() / oracle.throughput < 1e-10,
            "generic {} vs oracle {}",
            generic.throughput,
            oracle.throughput
        );
        assert!((generic.utilization_db - oracle.utilization_db).abs() < 1e-10);
        assert!((generic.mean_jobs_front - oracle.mean_jobs_front).abs() < 1e-8);
    }

    #[test]
    fn two_station_reference_rejects_other_station_counts() {
        let m = Map2::poisson(1.0).unwrap();
        let net = MapNetwork::tandem(3, 0.5, vec![m, m, m]).unwrap();
        assert!(matches!(
            net.solve_two_station_reference(),
            Err(QnError::InvalidParameter {
                name: "stations",
                ..
            })
        ));
    }

    #[test]
    fn single_station_tandem_matches_mva() {
        // M = 1 degenerates to the machine-repair model.
        let st = Map2::poisson(1.0 / 0.02).unwrap();
        let mva = ClosedMva::new(vec![0.02], 0.5).unwrap();
        for pop in [1, 8, 30] {
            let sol = MapNetwork::tandem(pop, 0.5, vec![st])
                .unwrap()
                .solve()
                .unwrap();
            let baseline = mva.solve(pop).unwrap();
            assert!(
                (sol.throughput - baseline.throughput).abs() / baseline.throughput < 1e-6,
                "N={pop}: {} vs {}",
                sol.throughput,
                baseline.throughput
            );
        }
    }

    #[test]
    fn direct_solver_matches_dense_lu() {
        // Cross-validation of the level-reduction against exact dense LU on
        // the full generator, including a stiff bursty MAP.
        let front = Map2Fitter::new(0.02, 50.0, 0.06).fit().unwrap().map();
        let db = Map2Fitter::new(0.03, 100.0, 0.1).fit().unwrap().map();
        let net = MapNetwork::new(8, 0.45, front, db).unwrap();
        let direct = net.solve().unwrap();
        let lu = net.solve_dense_lu(10_000).unwrap();
        assert!(
            (direct.throughput - lu.throughput).abs() / lu.throughput < 1e-8,
            "direct {} vs LU {}",
            direct.throughput,
            lu.throughput
        );
        assert!((direct.utilization_db - lu.utilization_db).abs() < 1e-8);
        assert!((direct.mean_jobs_front - lu.mean_jobs_front).abs() < 1e-6);
    }

    #[test]
    fn three_station_direct_matches_dense_lu() {
        // The generic level reduction against dense LU on a bursty
        // three-station tandem.
        let web = Map2Fitter::new(0.004, 6.0, 0.012).fit().unwrap().map();
        let app = Map2Fitter::new(0.02, 50.0, 0.06).fit().unwrap().map();
        let db = Map2Fitter::new(0.03, 100.0, 0.1).fit().unwrap().map();
        let net = MapNetwork::tandem(6, 0.45, vec![web, app, db]).unwrap();
        let direct = net.solve().unwrap();
        let lu = net.solve_dense_lu(10_000).unwrap();
        assert!(
            (direct.throughput - lu.throughput).abs() / lu.throughput < 1e-8,
            "direct {} vs LU {}",
            direct.throughput,
            lu.throughput
        );
        for i in 0..3 {
            assert!(
                (direct.utilization[i] - lu.utilization[i]).abs() < 1e-8,
                "station {i}"
            );
            assert!((direct.mean_jobs[i] - lu.mean_jobs[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn csr_assembly_matches_triplet_reference() {
        // The streaming CSR path must carry exactly the transitions of the
        // triplet reference implementation.
        let front = Map2Fitter::new(0.02, 50.0, 0.06).fit().unwrap().map();
        let db = Map2Fitter::new(0.03, 100.0, 0.1).fit().unwrap().map();
        let net = MapNetwork::new(6, 0.45, front, db).unwrap();
        let csr = net.outgoing_csr().unwrap();
        let reference = net.flat_transitions();
        assert_eq!(csr.nnz(), reference.len());
        let from_csr: Vec<(usize, usize, f64)> = csr.iter().collect();
        assert_eq!(from_csr, reference);
        // And for a three-station tandem.
        let web = Map2Fitter::new(0.004, 6.0, 0.012).fit().unwrap().map();
        let net3 = MapNetwork::tandem(4, 0.45, vec![web, front, db]).unwrap();
        let csr3 = net3.outgoing_csr().unwrap();
        let reference3 = net3.flat_transitions();
        assert_eq!(csr3.iter().collect::<Vec<_>>(), reference3);
    }

    #[test]
    fn generator_rows_conserve_probability() {
        // Every off-diagonal row sum must be matched by the diagonal the
        // Ctmc builder derives — i.e. the CSR carries a proper generator:
        // all rates positive, all destinations in range, and the chain
        // irreducible enough to solve.
        let web = Map2Fitter::new(0.004, 6.0, 0.012).fit().unwrap().map();
        let app = Map2Fitter::new(0.01, 20.0, 0.03).fit().unwrap().map();
        let db = Map2Fitter::new(0.008, 40.0, 0.02).fit().unwrap().map();
        let net = MapNetwork::tandem(5, 0.3, vec![web, app, db]).unwrap();
        let csr = net.outgoing_csr().unwrap();
        let states = net.state_count();
        assert_eq!(csr.n(), states);
        assert!(csr
            .iter()
            .all(|(i, j, r)| i < states && j < states && r > 0.0 && i != j));
    }

    #[test]
    fn sparse_solver_matches_direct() {
        let front = Map2Fitter::new(0.01, 8.0, 0.03).fit().unwrap().map();
        let db = Map2Fitter::new(0.008, 12.0, 0.02).fit().unwrap().map();
        let net = MapNetwork::new(20, 0.3, front, db).unwrap();
        let (sparse, _) = net.solve_sparse_with_initial(None).unwrap();
        let direct = net.solve().unwrap();
        assert!(
            (sparse.throughput - direct.throughput).abs() / direct.throughput < 1e-8,
            "sparse {} vs direct {}",
            sparse.throughput,
            direct.throughput
        );
        assert!((sparse.mean_jobs_db - direct.mean_jobs_db).abs() < 1e-6);
    }

    #[test]
    fn three_station_sparse_matches_direct() {
        let web = Map2Fitter::new(0.004, 4.0, 0.012).fit().unwrap().map();
        let app = Map2Fitter::new(0.01, 8.0, 0.03).fit().unwrap().map();
        let db = Map2Fitter::new(0.008, 12.0, 0.02).fit().unwrap().map();
        let net = MapNetwork::tandem(10, 0.3, vec![web, app, db]).unwrap();
        let (sparse, _) = net.solve_sparse_with_initial(None).unwrap();
        let direct = net.solve().unwrap();
        assert!(
            (sparse.throughput - direct.throughput).abs() / direct.throughput < 1e-8,
            "sparse {} vs direct {}",
            sparse.throughput,
            direct.throughput
        );
        for i in 0..3 {
            assert!((sparse.mean_jobs[i] - direct.mean_jobs[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn solve_auto_agrees_with_direct_on_both_paths() {
        // Very stiff fitted MAPs: the bounded sparse attempt of the ladder
        // either converges (and must agree) or stalls and falls back to the
        // direct solver — the caller sees the exact answer either way.
        let front = Map2Fitter::new(0.02, 200.0, 0.06).fit().unwrap().map();
        let db = Map2Fitter::new(0.03, 400.0, 0.1).fit().unwrap().map();
        let net = MapNetwork::new(10, 0.45, front, db).unwrap();
        let direct = net.solve().unwrap();
        let (via_direct_path, _) = net.solve_auto_with_initial(usize::MAX, None).unwrap();
        let (via_sparse_path, _) = net.solve_auto_with_initial(0, None).unwrap();
        assert_eq!(via_direct_path.throughput, direct.throughput);
        assert!(
            (via_sparse_path.throughput - direct.throughput).abs() / direct.throughput < 1e-7,
            "auto {} vs direct {}",
            via_sparse_path.throughput,
            direct.throughput
        );
    }

    #[test]
    fn single_customer_closed_form() {
        // N=1: X = 1 / (Z + sum of demands) regardless of burstiness
        // profile (means only) — two and three stations.
        let front = Map2Fitter::new(0.02, 50.0, 0.06).fit().unwrap().map();
        let db = Map2Fitter::new(0.03, 100.0, 0.1).fit().unwrap().map();
        let sol = MapNetwork::new(1, 0.45, front, db)
            .unwrap()
            .solve()
            .unwrap();
        let expected = 1.0 / (0.45 + 0.02 + 0.03);
        assert!(
            (sol.throughput - expected).abs() / expected < 1e-6,
            "X = {} vs {}",
            sol.throughput,
            expected
        );
        let web = Map2Fitter::new(0.004, 6.0, 0.012).fit().unwrap().map();
        let sol3 = MapNetwork::tandem(1, 0.45, vec![web, front, db])
            .unwrap()
            .solve()
            .unwrap();
        let expected3 = 1.0 / (0.45 + 0.004 + 0.02 + 0.03);
        assert!(
            (sol3.throughput - expected3).abs() / expected3 < 1e-6,
            "X = {} vs {}",
            sol3.throughput,
            expected3
        );
    }

    #[test]
    fn bursty_service_reduces_throughput() {
        let front = Map2::poisson(1.0 / 0.008).unwrap();
        let db_smooth = Map2::poisson(1.0 / 0.007).unwrap();
        let db_bursty = Map2Fitter::new(0.007, 200.0, 0.02).fit().unwrap().map();
        let pop = 40;
        let smooth = MapNetwork::new(pop, 0.2, front, db_smooth)
            .unwrap()
            .solve()
            .unwrap();
        let bursty = MapNetwork::new(pop, 0.2, front, db_bursty)
            .unwrap()
            .solve()
            .unwrap();
        assert!(
            bursty.throughput < 0.9 * smooth.throughput,
            "bursty {} vs smooth {}",
            bursty.throughput,
            smooth.throughput
        );
    }

    #[test]
    fn matches_discrete_event_simulation() {
        // Cross-validation against the independent DES implementation.
        use burstcap_sim::queues::ClosedMapNetwork;
        let front = Map2Fitter::new(0.01, 20.0, 0.03).fit().unwrap().map();
        let db = Map2Fitter::new(0.006, 80.0, 0.02).fit().unwrap().map();
        let pop = 25;
        let analytic = MapNetwork::new(pop, 0.3, front, db)
            .unwrap()
            .solve()
            .unwrap();
        let sim = ClosedMapNetwork::new(pop, 0.3, front, db)
            .unwrap()
            .run(3000.0, 300.0, 42)
            .unwrap();
        assert!(
            (analytic.throughput - sim.throughput).abs() / analytic.throughput < 0.05,
            "analytic X = {} vs sim X = {}",
            analytic.throughput,
            sim.throughput
        );
        assert!(
            (analytic.utilization_db - sim.utilization_db).abs() < 0.05,
            "analytic U_db = {} vs sim {}",
            analytic.utilization_db,
            sim.utilization_db
        );
    }

    #[test]
    fn population_is_conserved() {
        let front = Map2Fitter::new(0.01, 40.0, 0.03).fit().unwrap().map();
        let db = Map2::poisson(1.0 / 0.004).unwrap();
        let pop = 30;
        let sol = MapNetwork::new(pop, 0.5, front, db)
            .unwrap()
            .solve()
            .unwrap();
        let thinking = sol.throughput * 0.5;
        let total = sol.mean_jobs_front + sol.mean_jobs_db + thinking;
        assert!((total - pop as f64).abs() < 1e-6, "total = {total}");
    }

    #[test]
    fn three_station_population_is_conserved() {
        let web = Map2Fitter::new(0.004, 6.0, 0.012).fit().unwrap().map();
        let app = Map2Fitter::new(0.01, 40.0, 0.03).fit().unwrap().map();
        let db = Map2::poisson(1.0 / 0.004).unwrap();
        let pop = 8;
        let sol = MapNetwork::tandem(pop, 0.5, vec![web, app, db])
            .unwrap()
            .solve()
            .unwrap();
        let thinking = sol.throughput * 0.5;
        let total: f64 = sol.mean_jobs.iter().sum::<f64>() + thinking;
        assert!((total - pop as f64).abs() < 1e-6, "total = {total}");
        // Scalar mirrors point at the first/last stations.
        assert_eq!(sol.mean_jobs_front, sol.mean_jobs[0]);
        assert_eq!(sol.mean_jobs_db, sol.mean_jobs[2]);
        assert_eq!(sol.utilization_front, sol.utilization[0]);
        assert_eq!(sol.utilization_db, sol.utilization[2]);
    }

    #[test]
    fn throughput_monotone_in_population() {
        let front = Map2Fitter::new(0.008, 40.0, 0.02).fit().unwrap().map();
        let db = Map2Fitter::new(0.006, 150.0, 0.02).fit().unwrap().map();
        let sols: Vec<MapQnSolution> = [1, 5, 15, 30, 50]
            .iter()
            .map(|&pop| {
                MapNetwork::new(pop, 0.5, front, db)
                    .unwrap()
                    .solve()
                    .unwrap()
            })
            .collect();
        for w in sols.windows(2) {
            assert!(
                w[1].throughput >= w[0].throughput - 1e-9,
                "throughput dipped: {} -> {}",
                w[0].throughput,
                w[1].throughput
            );
        }
    }

    #[test]
    fn state_count_formula() {
        let p = Map2::poisson(1.0).unwrap();
        let net = MapNetwork::new(3, 0.5, p, p).unwrap();
        // Pairs: (0,0..3),(1,0..2),(2,0..1),(3,0) = 4+3+2+1 = 10; x4 phases.
        assert_eq!(net.state_count(), 40);
        // Three stations: C(3 + 3, 3) = 20 occupancy vectors x 8 phases.
        let net3 = MapNetwork::tandem(3, 0.5, vec![p, p, p]).unwrap();
        assert_eq!(net3.state_count(), 160);
        // One station: 4 occupancies x 2 phases.
        let net1 = MapNetwork::tandem(3, 0.5, vec![p]).unwrap();
        assert_eq!(net1.state_count(), 8);
    }

    #[test]
    fn indexer_ranks_are_a_bijection() {
        // occ_rank must enumerate the lex order 0..count for every (n, m).
        for (n, m) in [(5usize, 2usize), (4, 3), (3, 4), (7, 1)] {
            let idx = StateIndexer::try_new(n, m, usize::MAX).unwrap();
            let mut occ = vec![0usize; m];
            let mut expected = 0usize;
            loop {
                let total: usize = occ.iter().sum();
                assert_eq!(idx.occ_rank(&occ), expected, "occ {occ:?}");
                // Within-level rank is consistent with the per-level lex
                // enumeration.
                let comps = compositions(total, m);
                assert_eq!(&comps[idx.comp_rank(&occ)], &occ);
                expected += 1;
                if !next_occupancy(&mut occ, total, n) {
                    break;
                }
            }
            assert_eq!(expected * (1 << m), idx.phases * expected);
            assert_eq!(idx.state_count(), expected * (1 << m));
            let p = Map2::poisson(1.0).unwrap();
            let net = MapNetwork::tandem(n, 0.5, vec![p; m]).unwrap();
            assert_eq!(expected * (1 << m), net.state_count());
        }
    }

    #[test]
    fn flat_index_covers_phase_block() {
        let idx = StateIndexer::try_new(4, 3, usize::MAX).unwrap();
        assert_eq!(idx.flat_index(&[0, 0, 0], 0), 0);
        assert_eq!(idx.flat_index(&[0, 0, 0], 7), 7);
        assert_eq!(idx.flat_index(&[0, 0, 1], 0), 8);
    }

    #[test]
    fn state_limit_enforced() {
        let p = Map2::poisson(1.0).unwrap();
        let net = MapNetwork::new(100, 0.5, p, p).unwrap().state_limit(100);
        assert!(matches!(
            net.solve(),
            Err(QnError::StateSpaceTooLarge { .. })
        ));
    }

    #[test]
    fn validation() {
        let m = Map2::poisson(1.0).unwrap();
        assert!(MapNetwork::new(0, 0.5, m, m).is_err());
        assert!(MapNetwork::new(1, 0.0, m, m).is_err());
        assert!(MapNetwork::tandem(1, 0.5, vec![]).is_err());
    }

    #[test]
    fn response_time_via_littles_law() {
        let front = Map2::poisson(1.0 / 0.01).unwrap();
        let db = Map2::poisson(1.0 / 0.005).unwrap();
        let sol = MapNetwork::new(20, 0.5, front, db)
            .unwrap()
            .solve()
            .unwrap();
        let reconstructed = 20.0 / sol.throughput - 0.5;
        assert!((sol.response_time - reconstructed).abs() < 1e-9);
        assert!(
            sol.response_time > 0.015,
            "response must exceed total demand"
        );
    }

    #[test]
    fn invert_flat_roundtrip() {
        let a = vec![4.0, 7.0, 2.0, 6.0];
        let inv = invert_flat(&mut a.clone(), 2).unwrap();
        // A * A^{-1} = I.
        for i in 0..2 {
            for j in 0..2 {
                let mut acc = 0.0;
                for k in 0..2 {
                    acc += a[i * 2 + k] * inv[k * 2 + j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((acc - expect).abs() < 1e-12);
            }
        }
        let mut singular = vec![1.0, 2.0, 2.0, 4.0];
        assert!(invert_flat(&mut singular, 2).is_none());
    }

    #[test]
    fn left_null_vector_of_generator() {
        // Generator of a 2-state chain with rates 2 (0->1) and 3 (1->0):
        // pi = (0.6, 0.4).
        let a = vec![-2.0, 2.0, 3.0, -3.0];
        let pi = left_null_vector(&a, 2).unwrap();
        assert!((pi[0] - 0.6).abs() < 1e-12);
        assert!((pi[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn indexer_construction_rejects_overflow() {
        // C(100, 30) ~ 2.9e25 overflows a 64-bit usize while building the
        // ranking table. The old saturating construction produced corrupt
        // ranks and relied on a separate limit check to never regress; the
        // checked construction reports the typed error even when the caller
        // disabled the limit entirely.
        assert!(matches!(
            StateIndexer::try_new(70, 30, usize::MAX),
            Err(QnError::StateSpaceTooLarge {
                states: usize::MAX,
                limit: usize::MAX,
            })
        ));
        // Just inside: a large but representable space constructs fine
        // (C(73, 3) * 2^3 states).
        let ok = StateIndexer::try_new(70, 3, usize::MAX).unwrap();
        assert_eq!(ok.state_count(), 62_196 * 8);
        // And the network-level entry points surface the same typed error
        // instead of silently corrupting ranks (no OOM: the error fires
        // before any state-sized allocation).
        let p = Map2::poisson(1.0).unwrap();
        let net = MapNetwork::tandem(70, 0.5, vec![p; 30])
            .unwrap()
            .state_limit(usize::MAX);
        assert!(matches!(
            net.solve(),
            Err(QnError::StateSpaceTooLarge { .. })
        ));
        assert!(matches!(
            net.outgoing_csr(),
            Err(QnError::StateSpaceTooLarge { .. })
        ));
        assert!(matches!(
            net.matrix_free(),
            Err(QnError::StateSpaceTooLarge { .. })
        ));
    }

    #[test]
    fn unrank_inverts_occ_rank() {
        for (n, m) in [(5usize, 2usize), (4, 3), (3, 4), (7, 1)] {
            let idx = StateIndexer::try_new(n, m, usize::MAX).unwrap();
            let mut occ = vec![0usize; m];
            loop {
                let total: usize = occ.iter().sum();
                let rank = idx.occ_rank(&occ);
                assert_eq!(idx.unrank(rank), occ, "rank {rank}");
                if !next_occupancy(&mut occ, total, n) {
                    break;
                }
            }
        }
    }

    #[test]
    fn direct_solve_with_initial_returns_stationary_vector() {
        let front = Map2Fitter::new(0.01, 8.0, 0.03).fit().unwrap().map();
        let db = Map2Fitter::new(0.008, 12.0, 0.02).fit().unwrap().map();
        let net = MapNetwork::new(10, 0.3, front, db).unwrap();
        let plain = net.solve().unwrap();
        let (sol, pi) = net.solve_with_initial(None).unwrap();
        assert_eq!(sol.throughput, plain.throughput);
        assert_eq!(pi.len(), net.state_count());
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The flat vector is in combinatorial order: feeding it back through
        // the sparse metrics path reproduces the direct metrics.
        let idx = net.indexer().unwrap();
        let rebuilt = net.metrics_from_flat(&idx, &pi);
        assert!((rebuilt.throughput - sol.throughput).abs() / sol.throughput < 1e-12);
        // The same vector warm-starts an iterative engine.
        let (warm, _) = net.solve_sparse_with_initial(Some(pi)).unwrap();
        assert!((warm.throughput - sol.throughput).abs() / sol.throughput < 1e-8);
        // A wrong-length guess is rejected through the direct seam too.
        assert!(matches!(
            net.solve_with_initial(Some(vec![1.0])),
            Err(QnError::InvalidParameter { name: "guess", .. })
        ));
    }

    #[test]
    fn diagnostics_identify_engine_and_fallback() {
        let front = Map2Fitter::new(0.01, 8.0, 0.03).fit().unwrap().map();
        let db = Map2Fitter::new(0.008, 12.0, 0.02).fit().unwrap().map();
        let net = MapNetwork::new(10, 0.3, front, db).unwrap();
        // Direct engine: no iterations, no fallback.
        let direct = net.solve().unwrap();
        assert_eq!(direct.diagnostics.engine, SolveEngine::Direct);
        assert_eq!(direct.diagnostics.iterations, 0);
        assert!(!direct.diagnostics.fell_back);
        // Forced sparse tier on a mild model: converges, reports sweeps.
        let (sparse, _) = net.solve_auto_with_initial(0, None).unwrap();
        assert_eq!(sparse.diagnostics.engine, SolveEngine::SparseCsr);
        assert!(sparse.diagnostics.iterations > 0);
        assert!(!sparse.diagnostics.fell_back);
        // Dense LU oracle tags itself.
        let lu = net.solve_dense_lu(100_000).unwrap();
        assert_eq!(lu.diagnostics.engine, SolveEngine::DenseLu);
        assert_eq!(lu.diagnostics.iterations, 0);
    }

    /// Fitted MAPs stiff enough that a one-iteration budget stalls any
    /// iterative engine: 264 states at population 10.
    fn stiff_net() -> MapNetwork {
        let front = Map2Fitter::new(0.02, 200.0, 0.06).fit().unwrap().map();
        let db = Map2Fitter::new(0.03, 400.0, 0.1).fit().unwrap().map();
        MapNetwork::new(10, 0.45, front, db).unwrap()
    }

    /// Limits that send any chain to the matrix-free engine with a
    /// one-sweep budget.
    const MATFREE_STALLS: TierLimits = TierLimits {
        matfree_above: 0,
        matfree: (MATFREE.0, 1),
        ..TIER_LIMITS
    };

    /// The one `qn.fallback` event a forced stall emits.
    fn only_fallback(recorder: &Recorder) -> Event {
        let events = recorder.events();
        let mut fallbacks = events.iter().filter(|e| e.name == "qn.fallback");
        let first = fallbacks.next().expect("a qn.fallback event").clone();
        assert!(fallbacks.next().is_none(), "one fallback per solve");
        first
    }

    #[test]
    fn auto_stall_fallback_is_recorded_and_keeps_warm_seam() {
        // Edge CSR -> direct: the first CSR attempt is cut to one iteration
        // on purpose, so it stalls, and the diagnostics, the trace and the
        // warm seam must all say so.
        let net = stiff_net();
        let policy = TierPolicy {
            direct_up_to: 0,
            first_csr: (CSR_BOUNDED.0, 1),
            ..TierPolicy::BATCH
        };
        let recorder = Recorder::new();
        let (sol, pi) = net.solve_tiers(policy, None, &recorder.trace()).unwrap();
        let fallback = only_fallback(&recorder);
        assert_eq!(
            fallback.fields,
            vec![
                ("from", FieldValue::Str("sparse_csr")),
                ("to", FieldValue::Str("direct")),
                ("stalled_sweeps", FieldValue::U64(1)),
            ]
        );
        assert_eq!(
            sol.diagnostics,
            SolveDiagnostics {
                engine: SolveEngine::Direct,
                iterations: 0,
                fell_back: true,
                final_residual: 0.0,
                sweeps_per_engine: EngineSweeps {
                    sparse_csr: 1,
                    ..EngineSweeps::default()
                },
                // The direct tier has no span of its own: the ladder's.
                trace_id: fallback.span,
            }
        );
        assert!(recorder.events().iter().any(|e| e.name == "ctmc.stall"));
        assert_eq!(pi.len(), net.state_count());
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let direct = net.solve().unwrap();
        assert_eq!(sol.throughput, direct.throughput);
        // With the production budget the same chain converges in tier 2.
        let (auto, _) = net.solve_auto_with_initial(0, None).unwrap();
        assert!(!auto.diagnostics.fell_back);
        assert_eq!(auto.diagnostics.engine, SolveEngine::SparseCsr);
        assert!((auto.throughput - direct.throughput).abs() / direct.throughput < 1e-8);
    }

    #[test]
    fn matrix_free_stall_falls_back_to_full_budget_csr() {
        // Edge matrix-free -> CSR: the batch ladder without its direct tier
        // sends the chain to a one-sweep matrix-free attempt.
        let net = stiff_net();
        let policy = TierPolicy {
            direct_up_to: 0,
            limits: MATFREE_STALLS,
            ..TierPolicy::BATCH
        };
        let recorder = Recorder::new();
        let (sol, pi) = net.solve_tiers(policy, None, &recorder.trace()).unwrap();
        assert_eq!(
            only_fallback(&recorder).fields,
            vec![
                ("from", FieldValue::Str("matrix_free")),
                ("to", FieldValue::Str("sparse_csr")),
                ("stalled_sweeps", FieldValue::U64(1)),
            ]
        );
        assert!(recorder.events().iter().any(|e| e.name == "matfree.stall"));
        let d = sol.diagnostics;
        assert_eq!(d.engine, SolveEngine::SparseCsr);
        assert!(d.fell_back);
        assert!(d.iterations > 0);
        assert!(d.final_residual <= CSR_FULL.0);
        assert_eq!(
            d.sweeps_per_engine,
            EngineSweeps {
                sparse_csr: d.iterations,
                matrix_free: 1,
                ..EngineSweeps::default()
            }
        );
        // The fallback is the full-budget CSR solve itself.
        let (full, full_pi) = net.solve_sparse_with_initial(None).unwrap();
        assert_eq!(sol.throughput.to_bits(), full.throughput.to_bits());
        assert_eq!(pi, full_pi);
    }

    #[test]
    fn online_stall_above_matfree_threshold_never_falls_back_to_direct() {
        // The online ladder above its matrix-free threshold: a stall falls
        // back to the full-budget CSR solve, keeping the warm start, and
        // never to the direct solver, whose dense level blocks are
        // infeasible at that size.
        let net = stiff_net();
        let policy = TierPolicy {
            limits: MATFREE_STALLS,
            ..TierPolicy::ONLINE
        };
        // A warm start from the same chain at another think time: close to
        // the answer, but not within the sweep tolerance.
        let drifted = MapNetwork {
            think_time: 0.5,
            ..net.clone()
        };
        let (_, guess) = drifted.solve_with_initial(None).unwrap();
        let recorder = Recorder::new();
        let (sol, pi) = net
            .solve_tiers(policy, Some(guess.clone()), &recorder.trace())
            .unwrap();
        assert_eq!(
            only_fallback(&recorder).fields,
            vec![
                ("from", FieldValue::Str("matrix_free")),
                ("to", FieldValue::Str("sparse_csr")),
                ("stalled_sweeps", FieldValue::U64(1)),
            ]
        );
        assert!(!recorder
            .events()
            .iter()
            .flat_map(|e| &e.fields)
            .any(|f| f.1 == FieldValue::Str("direct")));
        assert_eq!(sol.diagnostics.engine, SolveEngine::SparseCsr);
        assert!(sol.diagnostics.fell_back);
        assert_eq!(sol.diagnostics.sweeps_per_engine.matrix_free, 1);
        // The CSR fallback received the caller's warm start.
        let (warm, warm_pi) = net.solve_sparse_with_initial(Some(guess)).unwrap();
        assert_eq!(sol.throughput.to_bits(), warm.throughput.to_bits());
        assert_eq!(pi, warm_pi);
    }

    /// The mild network of `diagnostics_identify_engine_and_fallback`,
    /// solved by the `tier` the policy's state-count cuts pick, traced:
    /// the solution's `trace_id` must be the span of the ladder's
    /// `qn.engine` event (`qn.solve_auto`), never an engine's inner span.
    fn assert_trace_id_is_the_ladder_span(
        net: &MapNetwork,
        policy: TierPolicy,
    ) -> SolveDiagnostics {
        let recorder = Recorder::new();
        let (sol, _) = net.solve_tiers(policy, None, &recorder.trace()).unwrap();
        let events = recorder.events();
        let ladder = events
            .iter()
            .find(|e| e.name == "qn.engine")
            .expect("a qn.engine event")
            .span;
        assert_ne!(ladder, 0);
        assert_eq!(sol.diagnostics.trace_id, ladder);
        assert!(events
            .iter()
            .filter(|e| e.name.ends_with(".sweep"))
            .all(|e| e.span != ladder));
        sol.diagnostics
    }

    fn mild_net() -> MapNetwork {
        let front = Map2Fitter::new(0.01, 8.0, 0.03).fit().unwrap().map();
        let db = Map2Fitter::new(0.008, 12.0, 0.02).fit().unwrap().map();
        MapNetwork::new(10, 0.3, front, db).unwrap()
    }

    #[test]
    fn trace_id_links_the_ladder_span_on_the_direct_tier() {
        let d = assert_trace_id_is_the_ladder_span(&mild_net(), TierPolicy::BATCH);
        assert_eq!((d.engine, d.fell_back), (SolveEngine::Direct, false));
    }

    #[test]
    fn trace_id_links_the_ladder_span_on_the_csr_tier() {
        let d = assert_trace_id_is_the_ladder_span(&mild_net(), TierPolicy::ONLINE);
        assert_eq!((d.engine, d.fell_back), (SolveEngine::SparseCsr, false));
    }

    #[test]
    fn trace_id_links_the_ladder_span_on_the_matrix_free_tier() {
        let policy = TierPolicy {
            limits: TierLimits {
                matfree_above: 0,
                ..TIER_LIMITS
            },
            ..TierPolicy::ONLINE
        };
        let d = assert_trace_id_is_the_ladder_span(&mild_net(), policy);
        assert_eq!((d.engine, d.fell_back), (SolveEngine::MatrixFree, false));
    }

    #[test]
    fn trace_id_links_the_ladder_span_after_a_fallback() {
        // Both fallback edges: CSR -> direct and matrix-free -> CSR.
        let csr_stalls = TierPolicy {
            direct_up_to: 0,
            first_csr: (CSR_BOUNDED.0, 1),
            ..TierPolicy::BATCH
        };
        let d = assert_trace_id_is_the_ladder_span(&stiff_net(), csr_stalls);
        assert_eq!((d.engine, d.fell_back), (SolveEngine::Direct, true));
        let matfree_stalls = TierPolicy {
            limits: MATFREE_STALLS,
            ..TierPolicy::ONLINE
        };
        let d = assert_trace_id_is_the_ladder_span(&stiff_net(), matfree_stalls);
        assert_eq!((d.engine, d.fell_back), (SolveEngine::SparseCsr, true));
    }

    #[test]
    fn product_form_start_solves_poisson_tandems_in_zero_iterations() {
        // Exponential stations: the cold start is the exact product form,
        // so the CSR engine accepts it without iterating, and the answer
        // is MVA's.
        let stations = vec![
            Map2::poisson(100.0).unwrap(),
            Map2::poisson(60.0).unwrap(),
            Map2::poisson(160.0).unwrap(),
        ];
        let demands: Vec<f64> = stations.iter().map(Map2::mean).collect();
        let mva = ClosedMva::new(demands, 0.4).unwrap();
        for pop in [1, 8, 25] {
            let net = MapNetwork::tandem(pop, 0.4, stations.clone()).unwrap();
            let (sol, _) = net.solve_sparse_with_initial(None).unwrap();
            assert_eq!(sol.diagnostics.iterations, 0, "N={pop}");
            let exact = mva.solve(pop).unwrap();
            let gap = (sol.throughput - exact.throughput).abs() / exact.throughput;
            assert!(
                gap < 1e-12,
                "N={pop}: X {} vs MVA {}",
                sol.throughput,
                exact.throughput
            );
            for (u, v) in sol.utilization.iter().zip(&exact.utilization) {
                assert!((u - v).abs() < 1e-12, "N={pop}: U {u} vs {v}");
            }
        }
    }

    #[test]
    fn fitted_networks_have_no_ilu0_fill() {
        // Fitted MAP(2)s have no hidden phase flips, so no two transitions
        // chain into a third: ILU(0) puts nothing inside the pattern, and
        // the D-ILU factor the CSR engine uses is exactly ILU(0) there.
        let fits = [(0.01, 8.0, 0.03), (0.02, 200.0, 0.06), (0.008, 720.0, 0.02)];
        let maps: Vec<Map2> = fits
            .iter()
            .map(|&(mean, i, p95)| Map2Fitter::new(mean, i, p95).fit().unwrap().map())
            .collect();
        for m in 1..=4 {
            let stations: Vec<Map2> = (0..m).map(|i| maps[i % maps.len()]).collect();
            let net = MapNetwork::tandem(6, 0.4, stations).unwrap();
            let chain = Ctmc::from_outgoing_csr(net.outgoing_csr().unwrap()).unwrap();
            assert_eq!(chain.ilu0_fill(), 0, "M = {m}");
        }
    }

    #[test]
    fn general_map_network_with_fill_matches_direct() {
        // Hidden flips and completions from both phases: ILU(0) would fill
        // inside the pattern, D-ILU does not, and the CSR answer still
        // agrees with the direct solver.
        let general = |scale: f64| {
            Map2::new(
                [[-30.0 * scale, 4.0 * scale], [1.5 * scale, -9.0 * scale]],
                [[20.0 * scale, 6.0 * scale], [2.5 * scale, 5.0 * scale]],
            )
            .unwrap()
        };
        for stations in [
            vec![general(4.0), general(7.0)],
            vec![general(5.0), general(3.0), general(9.0)],
        ] {
            let net = MapNetwork::tandem(14, 0.3, stations).unwrap();
            let chain = Ctmc::from_outgoing_csr(net.outgoing_csr().unwrap()).unwrap();
            assert!(chain.ilu0_fill() > 0);
            let (csr, _) = net.solve_sparse_with_initial(None).unwrap();
            let direct = net.solve().unwrap();
            let gap = (csr.throughput - direct.throughput).abs() / direct.throughput;
            assert!(gap < 1e-8, "gap {gap:.3e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

    /// The generic N-station level reduction at M = 2 reproduces the
    /// preserved two-station solver within 1e-10 on random ergodic
    /// configurations (bursty fitted MAPs, arbitrary think times and
    /// populations).
    #[test]
    fn generic_m2_matches_two_station_reference(
        mean_f in 5e-3f64..0.04,
        mean_d in 5e-3f64..0.04,
        i_f in 1.5f64..120.0,
        i_d in 1.5f64..120.0,
        p95_ratio in 1.5f64..4.0,
        z in 0.1f64..1.0,
        pop in 1usize..12,
    ) {
        let front = Map2Fitter::new(mean_f, i_f, mean_f * p95_ratio).fit().unwrap().map();
        let db = Map2Fitter::new(mean_d, i_d, mean_d * p95_ratio).fit().unwrap().map();
        let net = MapNetwork::new(pop, z, front, db).unwrap();
        let generic = net.solve().unwrap();
        let oracle = net.solve_two_station_reference().unwrap();
        prop_assert!(
            (generic.throughput - oracle.throughput).abs()
                <= 1e-10 * oracle.throughput.max(1.0),
            "X: generic {} vs oracle {}",
            generic.throughput,
            oracle.throughput
        );
        for i in 0..2 {
            prop_assert!(
                (generic.utilization[i] - oracle.utilization[i]).abs() <= 1e-10,
                "U[{i}]: {} vs {}",
                generic.utilization[i],
                oracle.utilization[i]
            );
            prop_assert!(
                (generic.mean_jobs[i] - oracle.mean_jobs[i]).abs() <= 1e-8 * pop as f64,
                "Q[{i}]: {} vs {}",
                generic.mean_jobs[i],
                oracle.mean_jobs[i]
            );
        }
    }
    }

    /// The historical two-station direct solver, kept as the `M = 2` oracle
    /// for the generic level reduction.
    impl MapNetwork {
        /// The preserved two-station direct solver — the exact code path the
        /// two-tier model shipped with, kept as the `M = 2` **oracle** for the
        /// generic level reduction (property tests require agreement within
        /// `1e-10`).
        ///
        /// # Errors
        /// Rejects networks with a station count other than 2; otherwise as
        /// [`MapNetwork::solve`].
        fn solve_two_station_reference(&self) -> Result<MapQnSolution, QnError> {
            if self.stations.len() != 2 {
                return Err(QnError::InvalidParameter {
                    name: "stations",
                    reason: format!(
                        "two-station reference solver requires M = 2, got {}",
                        self.stations.len()
                    ),
                });
            }
            self.check_state_limit()?;
            let n = self.population;
            let z = self.think_time;
            let level_size = |level: usize| 4 * (level + 1);

            // Backward pass, specialized: the up map is a fixed +4 shift of the
            // local index.
            let mut s = self.a0_two_station(n);
            let mut u_blocks: Vec<Vec<f64>> = Vec::with_capacity(n);
            for level in (0..n).rev() {
                let m_next = level_size(level + 1);
                let m_l = level_size(level);
                let mut neg = s;
                for x in neg.iter_mut() {
                    *x = -*x;
                }
                let inv = invert_flat(&mut neg, m_next).ok_or(QnError::InvalidParameter {
                    name: "network",
                    reason: format!("singular level block at level {}", level + 1),
                })?;
                let nu = (n - level) as f64 / z;
                let mut u = vec![0.0; m_l * m_next];
                for r in 0..m_l {
                    // Think completion: (n_f, p_f, p_d) at level l jumps to
                    // (n_f + 1, p_f, p_d) at level l+1 — local index r + 4.
                    let dst = r * m_next;
                    let src = (r + 4) * m_next;
                    u[dst..dst + m_next].copy_from_slice(&inv[src..src + m_next]);
                    for x in &mut u[dst..dst + m_next] {
                        *x *= nu;
                    }
                }
                let mut s_l = self.a0_two_station(level);
                for &(row_next, col_l, rate) in &self.adown_two_station(level + 1) {
                    for r in 0..m_l {
                        s_l[r * m_l + col_l] += u[r * m_next + row_next] * rate;
                    }
                }
                u_blocks.push(u);
                s = s_l;
            }
            u_blocks.reverse();

            let pi0 = left_null_vector(&s, 4).ok_or(QnError::InvalidParameter {
                name: "network",
                reason: "level-0 block has no stationary vector".into(),
            })?;

            let levels = forward_pass(pi0, &u_blocks, level_size)?;
            // The specialized local layout n_f * 4 + p_f * 2 + p_d coincides
            // with the generic comp_rank * 4 + phase layout, so metric
            // extraction is shared.
            let comps: Vec<Vec<Vec<usize>>> = (0..=n).map(|l| compositions(l, 2)).collect();
            Ok(self.metrics_from_levels(&levels, &comps))
        }

        /// Within-level block of the two-station specialization (historical
        /// code, bit-for-bit).
        fn a0_two_station(&self, level: usize) -> Vec<f64> {
            let m = 4 * (level + 1);
            let mut a = vec![0.0; m * m];
            let d0f = self.stations[0].d0();
            let d1f = self.stations[0].d1();
            let d0d = self.stations[1].d0();
            let up_rate = if level < self.population {
                (self.population - level) as f64 / self.think_time
            } else {
                0.0
            };
            for n_f in 0..=level {
                let n_d = level - n_f;
                for p_f in 0..2 {
                    for p_d in 0..2 {
                        let s = n_f * 4 + p_f * 2 + p_d;
                        let mut exit = up_rate;
                        if n_f > 0 {
                            exit += -d0f[p_f][p_f];
                            // Hidden front phase change.
                            let hidden = d0f[p_f][1 - p_f];
                            if hidden > 0.0 {
                                a[s * m + (n_f * 4 + (1 - p_f) * 2 + p_d)] += hidden;
                            }
                            // Front completion: job moves to the DB, same level.
                            for (j, &rate) in d1f[p_f].iter().enumerate() {
                                if rate > 0.0 {
                                    a[s * m + ((n_f - 1) * 4 + j * 2 + p_d)] += rate;
                                }
                            }
                        }
                        if n_d > 0 {
                            exit += -d0d[p_d][p_d];
                            let hidden = d0d[p_d][1 - p_d];
                            if hidden > 0.0 {
                                a[s * m + (n_f * 4 + p_f * 2 + (1 - p_d))] += hidden;
                            }
                            // DB completions leave the level (handled in adown).
                        }
                        a[s * m + s] -= exit;
                    }
                }
            }
            a
        }

        /// Down-transitions of the two-station specialization.
        fn adown_two_station(&self, level: usize) -> Vec<(usize, usize, f64)> {
            debug_assert!(level >= 1);
            let d1d = self.stations[1].d1();
            let mut tr = Vec::new();
            for n_f in 0..=level {
                let n_d = level - n_f;
                if n_d == 0 {
                    continue;
                }
                for p_f in 0..2 {
                    for p_d in 0..2 {
                        let s = n_f * 4 + p_f * 2 + p_d;
                        for (j, &rate) in d1d[p_d].iter().enumerate() {
                            if rate > 0.0 {
                                tr.push((s, n_f * 4 + p_f * 2 + j, rate));
                            }
                        }
                    }
                }
            }
            tr
        }
    }
}
