//! Matrix-free steady-state engine.
//!
//! The CSR engine in [`crate::ctmc`] materializes the generator: `O(nnz)`
//! memory, with `nnz ≈ (2 + 3M) · states` for an `M`-station tandem. Past
//! ~10⁵ states those arrays dominate the footprint. This module removes
//! them:
//!
//! * [`MatrixFreeGenerator`] implements [`Generator`], the operator the
//!   one BiCGSTAB of [`crate::ctmc`] runs over, for the closed tandem MAP
//!   network. It regenerates each state's *incoming* transitions on the
//!   fly from the per-station `Map2` factors and the combinatorial ranking
//!   of [`crate::mapqn`]: `O(states · M)` work per sweep, and one exit rate
//!   per state of memory;
//! * the sweeps walk **runs**, not states. In lexicographic order the
//!   states sharing the first `M − 1` occupancies (total `s`) are
//!   contiguous over the last station's count `k = 0..=N − s`, and each
//!   source of an incoming transition is itself a run whose rank moves by
//!   one per `k`:
//!
//!   | transition into `(prefix, k)` | source | side |
//!   |---|---|---|
//!   | think arrival | `(prefix − e₀, k)`; `k − 1` when `M = 1` | lower |
//!   | completion at interior station `i` | `(prefix + eᵢ − eᵢ₊₁, k)` | upper |
//!   | completion at station `M − 2` | `(prefix + e_{M−2}, k − 1)`, `k ≥ 1` | upper |
//!   | completion at the last station | own run at `k + 1`, while `s + k < N` | upper |
//!   | hidden phase flip | own state, other phase | by phase bit |
//!
//!   So ranking costs `O(M²)` per run (one `O(M)` rank per source run)
//!   instead of `M + 1` ranks per state, and each state's `2^M` phases
//!   are gathered from `O(M · 2^M)` rate tables filled once at build;
//! * [`steady_state`] runs that BiCGSTAB, preconditioned by symmetric
//!   Gauss-Seidel, over the generator. The solve holds seven state-length
//!   vectors and the exit rates, 64 bytes per state, and recomputes the
//!   inverse exit rates instead of storing them.
//!
//! # The split at the diagonal
//!
//! Symmetric Gauss-Seidel needs the inflow's strict lower and upper
//! triangles, and the last column of the table above assigns each
//! transition to one. Station 0 is the most significant digit of the rank,
//! so a think arrival (one job fewer at station 0, or at `k − 1`) comes
//! from a lower rank, and a completion (one job more at an earlier
//! station, or at `k + 1`) from a higher one. A hidden flip stays within
//! the state's block of `2^M` phases: into phase 1 of a station it comes
//! from the phase index with that station's bit cleared, which is lower,
//! and into phase 0 from the higher one. So the
//! [`FORWARD`](crate::ctmc::FORWARD) sweep walks runs, positions `k` and
//! phases in ascending order, and the [`BACKWARD`](crate::ctmc::BACKWARD)
//! sweep walks all three in descending order; each row
//! folds in its terms from other blocks first and its hidden flips last.

use burstcap_map::Map2;
use burstcap_obs::Trace;

use crate::ctmc::{solve, Events, Generator, SolveRun};
use crate::mapqn::{next_occupancy, phase_of, prev_occupancy, StateIndexer};
use crate::QnError;

/// Matrix-free generator of a closed tandem MAP network: gathers each
/// state's inflow, whole or split at the diagonal, directly from the
/// per-station [`Map2`] factors and the combinatorial state ranking,
/// without assembling CSR arrays.
///
/// Its sweeps walk the state space in **runs**: the states that share the
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

    /// Visit every run in rank order, ascending or `descending`: the
    /// prefix total `s`, the rank of the run's first occupancy, and its
    /// feeds.
    fn for_each_run(&self, descending: bool, mut visit: impl FnMut(usize, usize, &RunFeeds)) {
        let m = self.terms.len() / self.idx.phases;
        // `occ` is the run's prefix with the last station's count zeroed.
        let mut occ = vec![0usize; m];
        if descending && m > 1 {
            occ[0] = self.population;
        }
        let mut feeds = RunFeeds {
            think: Feed::NONE,
            stations: vec![[Feed::NONE; 2]; m],
        };
        loop {
            let s: usize = occ.iter().sum();
            let run = self.idx.occ_rank(&occ);
            self.run_feeds(&mut occ, s, run, &mut feeds);
            visit(s, run, &feeds);
            // One station: the prefix is empty and its one run is the chain.
            let prefix = &mut occ[..m - 1];
            let more = m > 1
                && if descending {
                    prev_occupancy(prefix, s, self.population)
                } else {
                    next_occupancy(prefix, s, self.population)
                };
            if !more {
                return;
            }
        }
    }

    /// [`Generator::inflow`] for `P` phases (`0`: the run-time count).
    fn gather<const P: usize>(&self, x: &[f64], row: &mut impl FnMut(usize, f64)) {
        let phases = if P == 0 { self.idx.phases } else { P };
        let mut block = vec![0.0; phases];
        self.for_each_run(false, |s, run, feeds| {
            for k in 0..=self.population - s {
                self.block_inflow::<P>(x, feeds, s + k, k, &mut block);
                let base = (run + k) * phases;
                for (q, &inflow) in block.iter().enumerate() {
                    row(base + q, inflow);
                }
            }
        });
    }

    /// [`Generator::sweep`] for `P` phases (`0`: the run-time count). Each
    /// block starts all its phases, folds in the terms from other blocks
    /// term-major (the think arrival, or the completions station by station
    /// from source phase 0 and 1), and then, phase by phase in sweep order,
    /// the hidden flips on its side of the diagonal, station by station,
    /// before finishing the phase.
    fn sweep_phases<const P: usize, const UP: bool>(
        &self,
        x: &mut [f64],
        start: &impl Fn(usize, f64) -> f64,
        term: &impl Fn(f64, usize, f64, f64) -> f64,
        finish: &mut impl FnMut(usize, f64, f64) -> f64,
    ) {
        let phases = if P == 0 { self.idx.phases } else { P };
        let mask = phases - 1;
        // A fixed-size accumulator stays in registers once the loops unroll.
        let mut local = [0.0; 16];
        let mut heap = vec![0.0; if P == 0 { phases } else { 0 }];
        self.for_each_run(UP, |s, run, feeds| {
            let kmax = self.population - s;
            for step in 0..=kmax {
                let k = if UP { kmax - step } else { step };
                let base = (run + k) * phases;
                let acc = if P == 0 {
                    &mut heap[..]
                } else {
                    &mut local[..P]
                };
                for (q, a) in acc.iter_mut().enumerate() {
                    *a = start(base + q, x[base + q]);
                }
                if UP {
                    let mut bit = phases >> 1;
                    for (terms, [_, completion]) in
                        self.terms.chunks_exact(phases).zip(&feeds.stations)
                    {
                        if let Some(src) = completion.at(k) {
                            let src = src * phases;
                            for (q, (a, t)) in acc.iter_mut().zip(terms).enumerate() {
                                let (j0, j1) = (src + (q & !bit & mask), src + ((q | bit) & mask));
                                *a = term(*a, j0, t.d1[0], x[j0]);
                                *a = term(*a, j1, t.d1[1], x[j1]);
                            }
                        }
                        bit >>= 1;
                    }
                } else if let Some(src) = feeds.think.at(k) {
                    // The source has s + k - 1 jobs queued, so n - s - k + 1
                    // thinking customers feed the arrival.
                    let rate = (self.population - s - k + 1) as f64 * self.think_rate;
                    let src = src * phases;
                    for (q, a) in acc.iter_mut().enumerate() {
                        *a = term(*a, src + q, rate, x[src + q]);
                    }
                }
                for step in 0..phases {
                    let q = if UP { phases - 1 - step } else { step };
                    let mut a = acc[q];
                    let mut bit = phases >> 1;
                    for (terms, [hidden, _]) in self.terms.chunks_exact(phases).zip(&feeds.stations)
                    {
                        // The source phase q ^ bit is lower iff q has the bit.
                        if hidden.at(k).is_some() && ((q & bit) == 0) == UP {
                            let j = base + ((q ^ bit) & mask);
                            a = term(a, j, terms[q].hidden, x[j]);
                        }
                        bit >>= 1;
                    }
                    x[base + q] = finish(base + q, x[base + q], a);
                }
            }
        });
    }
}

impl Generator for MatrixFreeGenerator {
    fn exit_rates(&self) -> &[f64] {
        &self.out_rate
    }

    /// Recomputed, not stored: the solve keeps no vector beyond its seven
    /// and the exit rates.
    fn inverse_exit_rate(&self, i: usize) -> f64 {
        1.0 / self.out_rate[i]
    }

    /// Gather form of the generator: for each destination state the
    /// incoming transitions are (a) a think arrival from `occ - e_0`, (b) a
    /// hidden phase flip at each busy station (same occupancy), (c) a
    /// completion hand-off from `occ + e_i - e_{i+1}` for every interior
    /// station with `occ[i+1] > 0`, and (d) a last-station completion from
    /// `occ + e_last` when the network is not full. Each row adds the think
    /// arrival first, then station by station the hidden flip and the
    /// completions from source phase 0 and 1.
    fn inflow(&self, x: &[f64], mut row: impl FnMut(usize, f64)) {
        match self.idx.phases {
            2 => self.gather::<2>(x, &mut row),
            4 => self.gather::<4>(x, &mut row),
            8 => self.gather::<8>(x, &mut row),
            16 => self.gather::<16>(x, &mut row),
            _ => self.gather::<0>(x, &mut row),
        }
    }

    fn sweep<const UP: bool>(
        &self,
        x: &mut [f64],
        start: impl Fn(usize, f64) -> f64,
        term: impl Fn(f64, usize, f64, f64) -> f64,
        mut finish: impl FnMut(usize, f64, f64) -> f64,
    ) {
        let f = &mut finish;
        match self.idx.phases {
            2 => self.sweep_phases::<2, UP>(x, &start, &term, f),
            4 => self.sweep_phases::<4, UP>(x, &start, &term, f),
            8 => self.sweep_phases::<8, UP>(x, &start, &term, f),
            16 => self.sweep_phases::<16, UP>(x, &start, &term, f),
            _ => self.sweep_phases::<0, UP>(x, &start, &term, f),
        }
    }
}

/// The trace names of the matrix-free engine's solves.
const EVENTS: Events = Events {
    solve: "matfree.solve",
    sweep: "matfree.sweep",
    stall: "matfree.stall",
    final_residual: "matfree.final_residual",
    sweeps: "matfree.sweeps",
};

/// Solve for the stationary distribution of the network behind `op` with
/// the BiCGSTAB of [`crate::ctmc::Ctmc::steady_state`] — the same body,
/// pinned row, preconditioner and stopping rule — over the matrix-free
/// generator, to the scale-free L1 balance residual `tol` within
/// `max_iter` iterations. `guess` warm-starts the solve (`None`: the
/// uniform distribution); it is floored and normalized like the CSR
/// engine's start.
///
/// On `trace` the solve opens a `matfree.solve` span, emits decimated
/// `matfree.sweep` events (one per power-of-two iteration plus the
/// accepting check), a `matfree.stall` event when it gives up, and
/// `matfree.final_residual` / `matfree.sweeps` histograms. The solve runs
/// on the calling thread, so the recorded trace is deterministic. Pass
/// [`Trace::noop`] to observe nothing.
///
/// # Errors
/// Rejects wrong-length guesses; returns [`QnError::NoConvergence`] when
/// the budget runs out.
///
/// # Example
/// ```
/// use burstcap_map::Map2;
/// use burstcap_obs::Trace;
/// use burstcap_qn::mapqn::MapNetwork;
/// use burstcap_qn::matfree::steady_state;
///
/// let net = MapNetwork::new(6, 0.5, Map2::poisson(100.0)?, Map2::poisson(50.0)?)?;
/// let run = steady_state(&net.matrix_free()?, None, (1e-12, 1_000), &Trace::noop())?;
/// let (_, direct) = net.solve_with_initial(None)?;
/// for (a, b) in run.pi.iter().zip(&direct) {
///     assert!((a - b).abs() < 1e-10);
/// }
/// assert!(run.iterations > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn steady_state(
    op: &MatrixFreeGenerator,
    guess: Option<Vec<f64>>,
    budget: (f64, usize),
    trace: &Trace,
) -> Result<SolveRun, QnError> {
    solve(op, &EVENTS, guess, budget, trace)
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

    use crate::ctmc::{Ctmc, SplitCsr, BACKWARD, FORWARD};
    use crate::mapqn::MapNetwork;

    /// The production budget of the matrix-free tier.
    const BUDGET: (f64, usize) = (1e-12, 100_000);

    /// The paper's two-tier network with moderately bursty fits.
    fn bursty_net(pop: usize) -> MapNetwork {
        let front = Map2Fitter::new(0.01, 8.0, 0.03).fit().unwrap().map();
        let db = Map2Fitter::new(0.008, 12.0, 0.02).fit().unwrap().map();
        MapNetwork::new(pop, 0.3, front, db).unwrap()
    }

    #[test]
    fn ctmc_operator_solves_birth_death() {
        // One exponential station behind the think stage: the queue length
        // is a birth-death chain, pi(k) ∝ N! / (N - k)! · (m / Z)^k, and
        // the operator's solve must reproduce it summed over phases.
        let (pop, think, mean) = (8usize, 0.5, 0.04);
        let net = MapNetwork::tandem(pop, think, vec![Map2::poisson(1.0 / mean).unwrap()]).unwrap();
        let run = steady_state(&net.matrix_free().unwrap(), None, BUDGET, &Trace::noop()).unwrap();
        assert!(run.iterations > 0);
        let mut weight = vec![1.0_f64];
        for k in 1..=pop {
            weight.push(weight[k - 1] * (pop - k + 1) as f64 * mean / think);
        }
        let total: f64 = weight.iter().sum();
        for (k, w) in weight.iter().enumerate() {
            let got = run.pi[2 * k] + run.pi[2 * k + 1];
            assert!(
                (got - w / total).abs() < 1e-9,
                "k = {k}: {got} vs {}",
                w / total
            );
        }
    }

    #[test]
    fn guess_is_validated_before_anything_is_recorded() {
        // A rejected call records nothing.
        let op = bursty_net(10).matrix_free().unwrap();
        let recorder = Recorder::new();
        assert!(matches!(
            steady_state(&op, Some(vec![1.0; 3]), BUDGET, &recorder.trace()),
            Err(QnError::InvalidParameter { name: "guess", .. })
        ));
        assert_eq!(recorder.event_count(), 0);
    }

    #[test]
    fn exhausted_budget_is_no_convergence() {
        let op = bursty_net(10).matrix_free().unwrap();
        assert!(matches!(
            steady_state(&op, None, (1e-14, 1), &Trace::noop()),
            Err(QnError::NoConvergence {
                solver: "bicgstab-ilu0",
                iterations: 1,
                ..
            })
        ));
    }

    /// `m` seeded bursty fits, or, with `flips`, `m` general MAP(2)s with
    /// hidden flips both ways and completions from both phases.
    fn seeded_stations(rng: &mut SmallRng, m: usize, flips: bool) -> Vec<Map2> {
        (0..m)
            .map(|_| {
                if flips {
                    let s = rng.random_range(1.0..10.0);
                    Map2::new(
                        [[-30.0 * s, 4.0 * s], [1.5 * s, -9.0 * s]],
                        [[20.0 * s, 6.0 * s], [2.5 * s, 5.0 * s]],
                    )
                    .unwrap()
                } else {
                    let mean = rng.random_range(0.004..0.02);
                    let dispersion = rng.random_range(2.0..50.0);
                    Map2Fitter::new(mean, dispersion, 3.0 * mean)
                        .fit()
                        .unwrap()
                        .map()
                }
            })
            .collect()
    }

    /// A deterministic, well-spread probe vector.
    fn probe(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + ((i * 37) % 101) as f64).collect()
    }

    fn assert_rows_match(got: &[f64], want: &[f64], what: &str) {
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * b.abs(),
                "{what}, row {i}: {a} vs {b}"
            );
        }
    }

    /// The lower (forward) and upper (backward) gathers of `g` on `x`:
    /// sweeps that sum each row's terms and leave `x` as it is.
    fn gathers(g: &impl Generator, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut x = x.to_vec();
        let (mut lower, mut upper) = (vec![0.0; x.len()], vec![0.0; x.len()]);
        let add = |acc, _, q, xj| acc + q * xj;
        g.sweep::<FORWARD>(
            &mut x,
            |_, _| 0.0,
            add,
            |i, xi, acc| {
                lower[i] = acc;
                xi
            },
        );
        g.sweep::<BACKWARD>(
            &mut x,
            |_, _| 0.0,
            add,
            |i, xi, acc| {
                upper[i] = acc;
                xi
            },
        );
        (lower, upper)
    }

    #[test]
    fn matrix_free_generator_matches_csr_chain() {
        // The gather-form operator against the assembled chain at one to
        // five stations: exit rates and the full inflow agree to roundoff.
        let mut rng = SmallRng::seed_from_u64(20080901);
        for (m, pop) in [(1usize, 20usize), (2, 10), (3, 6), (4, 4), (5, 2)] {
            for flips in [false, true] {
                let net =
                    MapNetwork::tandem(pop, 0.3, seeded_stations(&mut rng, m, flips)).unwrap();
                let op = net.matrix_free().unwrap();
                let chain = Ctmc::from_outgoing_csr(net.outgoing_csr().unwrap()).unwrap();
                let n = net.state_count();
                assert_eq!(op.n_states(), n);
                assert_rows_match(op.exit_rates(), chain.out_rates(), "exit rate");
                let x = probe(n);
                let mut from_op = vec![0.0; n];
                op.inflow(&x, |i, inflow| from_op[i] = inflow);
                assert_rows_match(&from_op, &chain.incoming_csr().mul_vec(&x), "inflow");
            }
        }
    }

    #[test]
    fn lower_and_upper_sweeps_match_the_csr_split() {
        // Every transition lands on the side of the diagonal the module
        // docs give it: the matrix-free lower and upper gathers equal the
        // CSR's, split at each row's diagonal, at every row of tandems of
        // one to four stations, with and without hidden flips.
        let mut rng = SmallRng::seed_from_u64(11);
        for (m, pop) in [(1usize, 12usize), (2, 7), (3, 5), (4, 3)] {
            for flips in [false, true] {
                let net =
                    MapNetwork::tandem(pop, 0.4, seeded_stations(&mut rng, m, flips)).unwrap();
                let chain = Ctmc::from_outgoing_csr(net.outgoing_csr().unwrap()).unwrap();
                let x = probe(net.state_count());
                let (lower, upper) = gathers(&net.matrix_free().unwrap(), &x);
                let (csr_lower, csr_upper) = gathers(&SplitCsr::new(&chain), &x);
                assert_rows_match(
                    &lower,
                    &csr_lower,
                    &format!("M = {m}, flips {flips}, lower"),
                );
                assert_rows_match(
                    &upper,
                    &csr_upper,
                    &format!("M = {m}, flips {flips}, upper"),
                );
            }
        }
    }

    #[test]
    fn matrix_free_solve_matches_direct() {
        let net = bursty_net(12);
        let direct = net.solve().unwrap();
        let (sol, _) = net.solve_matrix_free_with_initial(1, None).unwrap();
        assert!(
            (sol.throughput - direct.throughput).abs() / direct.throughput < 1e-8,
            "{} vs {}",
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

    #[test]
    fn matrix_free_warm_start_converges_faster() {
        let net = bursty_net(10);
        let (cold, pi) = net.solve_matrix_free_with_initial(1, None).unwrap();
        assert_eq!(pi.len(), net.state_count());
        let (warm, pi2) = net.solve_matrix_free_with_initial(1, Some(pi)).unwrap();
        assert!(warm.diagnostics.iterations <= cold.diagnostics.iterations);
        assert!((pi2.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((warm.throughput - cold.throughput).abs() / cold.throughput < 1e-8);
    }
}
