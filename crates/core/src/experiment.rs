//! The multi-replication experiment harness.
//!
//! Every validation in the paper compares a model against a *single*
//! simulation run — a point estimate. This module turns any scenario into
//! R independent replications with confidence intervals:
//!
//! * [`Replications`] — the execution plan: how many replications, which
//!   master seed and component stream (see `burstcap_sim::seeds`), and how
//!   many `std::thread::scope` workers to fan across;
//! * [`Experiment`] — [`Replications`] plus a confidence level, producing
//!   an [`ExperimentResult`] whose per-metric aggregates are Student-t
//!   intervals ([`burstcap_stats::ci`]);
//! * [`Experiment::run_until`] — the relative-precision sequential
//!   stopping rule: keep doubling the replication count until the CI
//!   half-width is below a target fraction of the point estimate.
//!
//! # Determinism contract
//!
//! Replication `i` is driven entirely by the seed
//! `seeds::derive(master_seed, stream, i)`, which depends on nothing but
//! the plan — not on worker count, scheduling, or which replications run
//! alongside it. Results are collected **in replication order** before any
//! aggregation, so a parallel run and a serial fold over the same plan
//! produce bit-identical output lists and therefore bit-identical
//! aggregate statistics. Growing a plan preserves its prefix: replications
//! `0..r` of an `r' > r` plan equal the full output of the `r` plan.
//!
//! # Example
//!
//! ```
//! use burstcap::experiment::Experiment;
//! use burstcap_sim::queues::MTrace1;
//!
//! // Five replications of a small M/M/1-like queue, two workers.
//! let queue = MTrace1::new(0.5, vec![1.0; 2_000])?;
//! let result = Experiment::new(5)?
//!     .master_seed(7)
//!     .workers(2)
//!     .run(|rep| queue.run(rep.seed))?;
//! let ci = result.metric(|r| r.response_time_mean())?;
//! assert_eq!(ci.count, 5);
//! assert!(ci.contains(ci.mean) && ci.half_width > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::ops::Range;

use burstcap_obs::Trace;
use burstcap_sim::seeds;
use burstcap_stats::ci::{mean_ci, ConfidenceInterval, RelativePrecision};

use crate::PlanError;

/// One replication of a scenario: its index in the plan and the derived
/// RNG seed that fully determines it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replication {
    /// Position in the replication plan (0-based).
    pub index: u64,
    /// Seed of this replication's RNG stream
    /// (`seeds::derive(master, stream, index)`).
    pub seed: u64,
}

/// An execution plan for R independent replications.
///
/// # Example
///
/// ```
/// use burstcap::experiment::Replications;
///
/// let plan = Replications::new(4)?.master_seed(11).workers(2);
/// // The plan alone determines every replication seed.
/// let seeds = plan.seeds();
/// assert_eq!(seeds.len(), 4);
/// // Fan a trivial scenario out and fold it back in order.
/// let squares: Vec<u64> = plan.run(|rep| Ok::<_, std::convert::Infallible>(rep.index * rep.index))?;
/// assert_eq!(squares, vec![0, 1, 4, 9]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replications {
    count: usize,
    master_seed: u64,
    stream: u64,
    workers: usize,
}

impl Replications {
    /// Plan `count` replications (serial, master seed 0, the generic
    /// experiment stream).
    ///
    /// # Errors
    /// Rejects an empty plan.
    pub fn new(count: usize) -> Result<Self, PlanError> {
        if count == 0 {
            return Err(PlanError::InvalidExperiment {
                reason: "need at least one replication".into(),
            });
        }
        Ok(Replications {
            count,
            master_seed: 0,
            stream: seeds::EXPERIMENT_STREAM,
            workers: 1,
        })
    }

    /// Set the master seed all replication streams derive from.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Set the component stream tag (defaults to
    /// `seeds::EXPERIMENT_STREAM`; use a component tag such as
    /// `seeds::CLOSED_MAP_NETWORK_STREAM` when replicating that component
    /// directly).
    pub fn stream(mut self, stream: u64) -> Self {
        self.stream = stream;
        self
    }

    /// Set the number of `std::thread::scope` workers (0 is treated as 1;
    /// 1 means a serial fold on the calling thread).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Number of planned replications.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Configured worker count.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// The derived seed of replication `index` under this plan.
    pub fn seed_of(&self, index: u64) -> u64 {
        seeds::derive(self.master_seed, self.stream, index)
    }

    /// All replication seeds, in replication order.
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.count as u64).map(|i| self.seed_of(i)).collect()
    }

    /// Execute the scenario once per replication and return the outputs in
    /// replication order.
    ///
    /// With one worker this is a serial fold on the calling thread; with
    /// more, replications are striped across scoped threads. Either way
    /// every replication runs (no short-circuit), outputs are re-ordered
    /// by index before returning, and a failure reports the error of the
    /// *lowest-indexed* failing replication — so the outcome is a pure
    /// function of the plan, never of scheduling.
    ///
    /// # Errors
    /// Propagates the lowest-indexed scenario error.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn run<T, E, F>(&self, scenario: F) -> Result<Vec<T>, E>
    where
        F: Fn(Replication) -> Result<T, E> + Sync,
        T: Send,
        E: Send,
    {
        self.run_traced(scenario, &Trace::noop())
    }

    /// [`Replications::run`] under an observability trace: the whole fold
    /// runs inside an `experiment.run` span, and each replication gets an
    /// `experiment.replication` span carrying its index and derived seed.
    ///
    /// Replication spans are emitted serially *after* the (possibly
    /// parallel) fold, in replication order — the recorded trace is a pure
    /// function of the plan, never of worker count or scheduling. The
    /// worker count appears only as a volatile `experiment.workers` event,
    /// which the deterministic export excludes.
    ///
    /// # Errors
    /// Propagates the lowest-indexed scenario error.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn run_traced<T, E, F>(&self, scenario: F, trace: &Trace) -> Result<Vec<T>, E>
    where
        F: Fn(Replication) -> Result<T, E> + Sync,
        T: Send,
        E: Send,
    {
        let _span = trace.span_with(
            "experiment.run",
            vec![
                ("replications", self.count.into()),
                ("master_seed", self.master_seed.into()),
                ("stream", self.stream.into()),
            ],
        );
        trace.volatile_event("experiment.workers", vec![("workers", self.workers.into())]);
        let outputs = self.run_range(0..self.count as u64, &scenario)?;
        if trace.is_enabled() {
            for index in 0..self.count as u64 {
                let _rep = trace.span_with(
                    "experiment.replication",
                    vec![
                        ("index", index.into()),
                        ("seed", self.seed_of(index).into()),
                    ],
                );
            }
            trace.add("experiment.replications", self.count as u64);
        }
        Ok(outputs)
    }

    /// Execute replications `range` of the plan (used by the sequential
    /// stopping rule to extend a prefix without re-running it).
    fn run_range<T, E, F>(&self, range: Range<u64>, scenario: &F) -> Result<Vec<T>, E>
    where
        F: Fn(Replication) -> Result<T, E> + Sync,
        T: Send,
        E: Send,
    {
        let replication = |index: u64| Replication {
            index,
            seed: self.seed_of(index),
        };
        let collect = |results: Vec<Result<T, E>>| -> Result<Vec<T>, E> {
            // First error by replication index, not by completion order.
            results.into_iter().collect()
        };
        let span = (range.end - range.start) as usize;
        if self.workers == 1 || span <= 1 {
            return collect(range.map(|i| scenario(replication(i))).collect());
        }
        let workers = self.workers.min(span);
        let indices: Vec<u64> = range.collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "core::experiment is a parallelism seam: replications fan out on scoped workers"
        )]
        let striped: Vec<Vec<(usize, Result<T, E>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let indices = &indices;
                    let scenario = &scenario;
                    scope.spawn(move || {
                        // Worker w takes every workers-th replication.
                        indices
                            .iter()
                            .enumerate()
                            .skip(w)
                            .step_by(workers)
                            .map(|(slot, &i)| (slot, scenario(replication(i))))
                            .collect()
                    })
                })
                .collect();
            #[expect(
                clippy::expect_used,
                reason = "a panicked worker is re-raised, not masked; there is no partial result to recover"
            )]
            handles
                .into_iter()
                .map(|h| h.join().expect("replication worker must not panic"))
                .collect()
        });
        let mut slots: Vec<Option<Result<T, E>>> = Vec::new();
        slots.resize_with(indices.len(), || None);
        for (slot, result) in striped.into_iter().flatten() {
            slots[slot] = Some(result);
        }
        #[expect(
            clippy::expect_used,
            reason = "the dispatch loop writes every slot exactly once before collection"
        )]
        collect(
            slots
                .into_iter()
                .map(|s| s.expect("every replication slot is filled"))
                .collect(),
        )
    }
}

/// A replication plan with a confidence level: the user-facing entry point
/// of the harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Experiment {
    plan: Replications,
    confidence: f64,
}

impl Experiment {
    /// Plan `replications` replications at 95% confidence (serial; use the
    /// builders to change seed, stream, workers, or level).
    ///
    /// # Errors
    /// Rejects an empty plan.
    pub fn new(replications: usize) -> Result<Self, PlanError> {
        Ok(Experiment {
            plan: Replications::new(replications)?,
            confidence: 0.95,
        })
    }

    /// Set the master seed (see [`Replications::master_seed`]).
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.plan = self.plan.master_seed(seed);
        self
    }

    /// Set the component stream tag (see [`Replications::stream`]).
    pub fn stream(mut self, stream: u64) -> Self {
        self.plan = self.plan.stream(stream);
        self
    }

    /// Set the worker count (see [`Replications::workers`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.plan = self.plan.workers(workers);
        self
    }

    /// Set the confidence level of the aggregate intervals.
    ///
    /// # Errors
    /// Rejects levels outside `(0, 1)`.
    pub fn confidence(mut self, level: f64) -> Result<Self, PlanError> {
        if !(0.0 < level && level < 1.0) {
            return Err(PlanError::InvalidExperiment {
                reason: format!("confidence level must lie in (0, 1), got {level}"),
            });
        }
        self.confidence = level;
        Ok(self)
    }

    /// The underlying replication plan.
    pub fn plan(&self) -> &Replications {
        &self.plan
    }

    /// Run every replication of the plan.
    ///
    /// # Errors
    /// Propagates the lowest-indexed scenario error.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn run<T, E, F>(&self, scenario: F) -> Result<ExperimentResult<T>, E>
    where
        F: Fn(Replication) -> Result<T, E> + Sync,
        T: Send,
        E: Send,
    {
        Ok(ExperimentResult {
            outputs: self.plan.run(scenario)?,
            confidence: self.confidence,
        })
    }

    /// [`Experiment::run`] under an observability trace (see
    /// [`Replications::run_traced`] for the span layout and the
    /// determinism contract of the recorded events).
    ///
    /// # Errors
    /// Propagates the lowest-indexed scenario error.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn run_traced<T, E, F>(&self, scenario: F, trace: &Trace) -> Result<ExperimentResult<T>, E>
    where
        F: Fn(Replication) -> Result<T, E> + Sync,
        T: Send,
        E: Send,
    {
        Ok(ExperimentResult {
            outputs: self.plan.run_traced(scenario, trace)?,
            confidence: self.confidence,
        })
    }

    /// Run with the relative-precision stopping rule: start from the
    /// planned count (at least 2 — one replication has no interval),
    /// check the CI of `metric`, and double the replication count until
    /// either `rule` is satisfied or `max_replications` is reached.
    /// Already-computed replications are never re-run (prefix preservation,
    /// see the module docs), so the total work is the final count.
    ///
    /// # Errors
    /// Propagates the lowest-indexed scenario error of the failing batch.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn run_until<T, E, F>(
        &self,
        rule: RelativePrecision,
        max_replications: usize,
        metric: impl Fn(&T) -> f64,
        scenario: F,
    ) -> Result<ExperimentResult<T>, E>
    where
        F: Fn(Replication) -> Result<T, E> + Sync,
        T: Send,
        E: Send,
    {
        let mut target = self.plan.count.max(2).min(max_replications.max(2));
        let mut outputs: Vec<T> = Vec::new();
        loop {
            let range = outputs.len() as u64..target as u64;
            outputs.extend(self.plan.run_range(range, &scenario)?);
            let values: Vec<f64> = outputs.iter().map(&metric).collect();
            #[expect(
                clippy::expect_used,
                reason = "mean_ci only errors on fewer than two samples; the schedule starts at two replications"
            )]
            let ci = mean_ci(&values, self.confidence)
                .expect("two or more replications always have an interval");
            if rule.satisfied_by(&ci) || target >= max_replications {
                return Ok(ExperimentResult {
                    outputs,
                    confidence: self.confidence,
                });
            }
            target = (target * 2).min(max_replications);
        }
    }
}

/// The outputs of an experiment, ready for CI-bearing aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult<T> {
    outputs: Vec<T>,
    confidence: f64,
}

impl<T> ExperimentResult<T> {
    /// Per-replication outputs, in replication order.
    pub fn outputs(&self) -> &[T] {
        &self.outputs
    }

    /// Number of replications that ran.
    pub fn replications(&self) -> usize {
        self.outputs.len()
    }

    /// The confidence level aggregates are computed at.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// Student-t confidence interval of a scalar metric across
    /// replications.
    ///
    /// # Errors
    /// Fails with fewer than two replications (no dispersion information —
    /// the same degeneracy the single-run validations this harness
    /// replaces could not even express).
    pub fn metric(&self, metric: impl Fn(&T) -> f64) -> Result<ConfidenceInterval, PlanError> {
        let values: Vec<f64> = self.outputs.iter().map(metric).collect();
        mean_ci(&values, self.confidence).map_err(PlanError::from)
    }

    /// Consume the result, yielding the raw outputs.
    pub fn into_outputs(self) -> Vec<T> {
        self.outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use burstcap_map::Map2;
    use burstcap_sim::queues::{ClosedMapNetwork, ClosedRunResult, MTrace1};
    use burstcap_sim::SimError;

    fn toy_network() -> ClosedMapNetwork {
        let front = Map2::poisson(1.0 / 0.02).unwrap();
        let db = Map2::poisson(1.0 / 0.03).unwrap();
        ClosedMapNetwork::new(3, 0.45, front, db).unwrap()
    }

    fn run_net(net: &ClosedMapNetwork, rep: Replication) -> Result<ClosedRunResult, SimError> {
        net.run(150.0, 15.0, rep.seed)
    }

    #[test]
    fn plan_validation() {
        assert!(Replications::new(0).is_err());
        assert!(Experiment::new(0).is_err());
        assert!(Experiment::new(2).unwrap().confidence(1.0).is_err());
        assert!(Experiment::new(2).unwrap().confidence(0.0).is_err());
        let plan = Replications::new(3).unwrap().workers(0);
        assert_eq!(plan.worker_count(), 1, "0 workers clamps to serial");
    }

    #[test]
    fn seeds_depend_only_on_the_plan() {
        let a = Replications::new(4).unwrap().master_seed(9);
        let b = Replications::new(8).unwrap().master_seed(9).workers(3);
        // Prefix preservation: the longer plan starts with the same seeds.
        assert_eq!(a.seeds(), b.seeds()[..4].to_vec());
        // Distinct masters and streams give distinct seed lists.
        let c = Replications::new(4).unwrap().master_seed(10);
        assert_ne!(a.seeds(), c.seeds());
        let d = Replications::new(4)
            .unwrap()
            .master_seed(9)
            .stream(burstcap_sim::seeds::TESTBED_STREAM);
        assert_ne!(a.seeds(), d.seeds());
    }

    #[test]
    fn parallel_fold_is_bit_identical_to_serial() {
        // The determinism contract of the whole harness: same plan, any
        // worker count, bit-identical ordered outputs and aggregates.
        let net = toy_network();
        let serial = Replications::new(6)
            .unwrap()
            .master_seed(21)
            .run(|rep| run_net(&net, rep))
            .unwrap();
        for workers in [2, 3, 4, 8] {
            let parallel = Replications::new(6)
                .unwrap()
                .master_seed(21)
                .workers(workers)
                .run(|rep| run_net(&net, rep))
                .unwrap();
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.throughput.to_bits(), p.throughput.to_bits());
                assert_eq!(s.utilization_db.to_bits(), p.utilization_db.to_bits());
                assert_eq!(s.mean_jobs_front.to_bits(), p.mean_jobs_front.to_bits());
            }
        }
    }

    #[test]
    fn traced_run_is_bit_identical_across_worker_counts() {
        // The observability contract on top of the determinism contract:
        // the deterministic trace export must not depend on worker count.
        use burstcap_obs::Recorder;

        let net = toy_network();
        let trace_of = |workers: usize| {
            let recorder = Recorder::new();
            Replications::new(5)
                .unwrap()
                .master_seed(33)
                .workers(workers)
                .run_traced(|rep| run_net(&net, rep), &recorder.trace())
                .unwrap();
            recorder.deterministic_json()
        };
        let serial = trace_of(1);
        assert!(serial.contains("experiment.run"));
        assert!(serial.contains("experiment.replication"));
        assert!(
            !serial.contains("experiment.workers"),
            "worker count is volatile and must not reach the deterministic export"
        );
        for workers in [2, 3, 8] {
            assert_eq!(serial, trace_of(workers));
        }
    }

    #[test]
    fn errors_surface_by_lowest_replication_index() {
        // Replications 1 and 3 fail; parallel scheduling must still report
        // replication 1's error.
        let plan = Replications::new(5).unwrap().workers(4);
        let err = plan
            .run(|rep| {
                if rep.index % 2 == 1 {
                    Err(format!("replication {} failed", rep.index))
                } else {
                    Ok(rep.index)
                }
            })
            .unwrap_err();
        assert_eq!(err, "replication 1 failed");
    }

    #[test]
    fn experiment_metric_carries_a_real_interval() {
        let net = toy_network();
        let result = Experiment::new(5)
            .unwrap()
            .master_seed(3)
            .workers(2)
            .run(|rep| run_net(&net, rep))
            .unwrap();
        let ci = result.metric(|r| r.throughput).unwrap();
        assert_eq!(ci.count, 5);
        assert!(ci.half_width > 0.0, "independent replications must vary");
        assert!(ci.contains(ci.mean));
        // The interval sits near the known light-load throughput (the
        // asymptotic bound N/(Z + demands) = 6; finite-horizon noise allows
        // a small overshoot).
        let expected = 3.0 / (0.45 + 0.02 + 0.03);
        assert!(
            (ci.mean - expected).abs() / expected < 0.1,
            "X CI mean {} far from light-load value {expected}",
            ci.mean
        );
    }

    #[test]
    fn single_replication_has_no_interval() {
        let result = Experiment::new(1)
            .unwrap()
            .run(|rep| Ok::<_, SimError>(rep.index as f64))
            .unwrap();
        assert!(matches!(
            result.metric(|&x| x),
            Err(PlanError::Estimation(_))
        ));
    }

    #[test]
    fn run_until_stops_at_precision_and_preserves_prefix() {
        // A low-noise scenario: the rule triggers at the initial count.
        let exp = Experiment::new(2).unwrap().master_seed(5);
        let rule = RelativePrecision::new(0.5).unwrap();
        let queue = MTrace1::new(0.5, vec![1.0; 4_000]).unwrap();
        let result = exp
            .run_until(
                rule,
                16,
                |r: &burstcap_sim::queues::MTrace1Result| r.response_time_mean(),
                |rep| queue.run(rep.seed),
            )
            .unwrap();
        assert!(result.replications() >= 2);
        assert!(result.replications() <= 16);
        // The sequential run's prefix equals a plain run of the same size.
        let plain = Experiment::new(result.replications())
            .unwrap()
            .master_seed(5)
            .run(|rep| queue.run(rep.seed))
            .unwrap();
        for (a, b) in result.outputs().iter().zip(plain.outputs()) {
            assert_eq!(
                a.response_time_mean().to_bits(),
                b.response_time_mean().to_bits()
            );
        }
    }

    #[test]
    fn run_until_caps_at_max_replications() {
        // An impossible precision target: the harness must stop at the cap.
        let exp = Experiment::new(2).unwrap();
        let rule = RelativePrecision::new(1e-12).unwrap();
        let net = toy_network();
        let result = exp
            .run_until(
                rule,
                6,
                |r: &ClosedRunResult| r.throughput,
                |rep| run_net(&net, rep),
            )
            .unwrap();
        assert_eq!(result.replications(), 6);
    }

    #[test]
    fn planner_cross_check_against_replicated_simulation() {
        // The paper's Figure 9 validation, upgraded from a point estimate:
        // the analytic planner prediction must fall within (a small
        // model-error margin of) the simulation's confidence interval.
        use crate::characterize::ServiceCharacterization;
        use crate::planner::{CapacityPlanner, PlannerOptions};

        let front = ServiceCharacterization {
            mean_service_time: 0.01,
            index_of_dispersion: 10.0,
            p95_service_time: 0.03,
            dispersion_converged: true,
            regression_r_squared: 1.0,
        };
        let db = ServiceCharacterization {
            mean_service_time: 0.006,
            index_of_dispersion: 40.0,
            p95_service_time: 0.02,
            dispersion_converged: true,
            regression_r_squared: 1.0,
        };
        let planner =
            CapacityPlanner::from_characterizations(front, db, PlannerOptions::default()).unwrap();
        let pop = 15;
        let think = 0.4;
        let predicted = planner.predict(pop, think).unwrap().throughput;

        let front_map = planner.front_fit().map();
        let db_map = planner.db_fit().map();
        let net = ClosedMapNetwork::new(pop, think, front_map, db_map).unwrap();
        let ci = Experiment::new(4)
            .unwrap()
            .master_seed(2024)
            .workers(2)
            .run(|rep| net.run(2000.0, 200.0, rep.seed))
            .unwrap()
            .metric(|r| r.throughput)
            .unwrap();
        let margin = 0.05 * predicted + ci.half_width;
        assert!(
            (predicted - ci.mean).abs() <= margin,
            "planner X = {predicted} vs simulated X = {} +/- {} (margin {margin})",
            ci.mean,
            ci.half_width
        );
    }
}
