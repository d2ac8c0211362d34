//! Canned queueing models used by the paper's experiments.
//!
//! * [`MTrace1`] — the open M/Trace/1 FCFS queue of Table 1: Poisson
//!   arrivals against a *given, ordered* service-time trace, so that the
//!   burstiness profile of the trace (not just its distribution) shapes the
//!   response times. Solved exactly by Lindley recursion.
//! * [`ClosedMapNetwork`] — a discrete-event simulation of the paper's
//!   Figure 9 model: `N` customers cycling through an exponential think
//!   stage, a front-server queue and a database queue, each serving with a
//!   MAP(2)-modulated completion process. It exists to cross-validate the
//!   exact CTMC solver in `burstcap-qn` and to generate synthetic monitoring
//!   data with known ground truth.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use burstcap_map::Map2;

use crate::engine::EventQueue;
use crate::measure::ResponseTally;
use crate::seeds;
use crate::SimError;

/// The M/Trace/1 queue of the paper's Table 1.
///
/// Arrival rate is derived from the requested utilization:
/// `lambda = rho / mean(service)`. Jobs are served FCFS in trace order, so
/// reordering the trace changes waiting times even though the service-time
/// distribution is identical — the experiment at the heart of Section 2.
#[derive(Debug, Clone)]
pub struct MTrace1 {
    rho: f64,
    trace: Vec<f64>,
}

/// Result of an [`MTrace1`] run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MTrace1Result {
    response_mean: f64,
    response_p95: f64,
    utilization: f64,
    completed: usize,
}

impl MTrace1Result {
    /// Mean response time (waiting + service).
    pub fn response_time_mean(&self) -> f64 {
        self.response_mean
    }

    /// 95th percentile of response times.
    pub fn response_time_p95(&self) -> f64 {
        self.response_p95
    }

    /// Fraction of time the server was busy over the observation horizon
    /// (the arrival interval `[0, a_n]`), reported raw: an overloaded trace
    /// approaches 1 from below, it is never clamped there.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Number of jobs served (the trace length).
    pub fn completed(&self) -> usize {
        self.completed
    }
}

impl MTrace1 {
    /// Create the queue with offered load `rho` and an ordered service-time
    /// trace. `rho >= 1` is accepted: the run is transient (all trace jobs
    /// are still served), which is exactly what overload regression tests
    /// need — see [`MTrace1Result::utilization`].
    ///
    /// # Errors
    /// Rejects non-positive or non-finite `rho`, empty traces, and traces
    /// with non-positive mean or negative entries.
    pub fn new(rho: f64, trace: Vec<f64>) -> Result<Self, SimError> {
        if !(rho > 0.0 && rho.is_finite()) {
            return Err(SimError::InvalidParameter {
                name: "rho",
                reason: format!("must be positive and finite, got {rho}"),
            });
        }
        if trace.is_empty() {
            return Err(SimError::InvalidParameter {
                name: "trace",
                reason: "empty service trace".into(),
            });
        }
        if trace.iter().any(|&s| s < 0.0 || !s.is_finite()) {
            return Err(SimError::InvalidParameter {
                name: "trace",
                reason: "service times must be non-negative and finite".into(),
            });
        }
        let mean = trace.iter().sum::<f64>() / trace.len() as f64;
        if mean <= 0.0 {
            return Err(SimError::InvalidParameter {
                name: "trace",
                reason: "service trace mean must be positive".into(),
            });
        }
        Ok(MTrace1 { rho, trace })
    }

    /// Run the queue to completion (all trace jobs served) via Lindley
    /// recursion and summarize response times.
    ///
    /// The RNG stream is derived from `seed` via
    /// [`seeds::derive`] with [`seeds::MTRACE1_STREAM`], so a run with seed
    /// `s` never shares a stream with another simulator run with the same
    /// `s`.
    ///
    /// Utilization is the busy fraction over the **observation horizon**
    /// `[0, a_n]` (the interval across which the arrival process is
    /// observed), not over the post-drain makespan, and is reported raw:
    /// the old `(busy / last_departure).min(1.0)` both diluted bursty runs
    /// with their drain tail (during which the server is trivially 100%
    /// busy) and clamped away any evidence of overload.
    ///
    /// # Errors
    /// Never fails for a validated queue; the `Result` mirrors the
    /// fallibility of response summarization.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (2 reachable
    /// panic sites, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn run(&self, seed: u64) -> Result<MTrace1Result, SimError> {
        let mean_service = self.trace.iter().sum::<f64>() / self.trace.len() as f64;
        let lambda = self.rho / mean_service;
        #[expect(
            clippy::disallowed_methods,
            reason = "the seed is derived through seeds::derive"
        )]
        let mut rng = SmallRng::seed_from_u64(seeds::derive(seed, seeds::MTRACE1_STREAM, 0));

        // Arrivals first: the observation horizon (the last arrival) must
        // be known to window the busy time correctly.
        let mut arrivals = Vec::with_capacity(self.trace.len());
        let mut t = 0.0_f64;
        for _ in 0..self.trace.len() {
            t += -(1.0 - rng.random::<f64>()).ln() / lambda;
            arrivals.push(t);
        }
        let horizon = t;

        let mut tally = ResponseTally::new();
        let mut depart_prev = 0.0_f64;
        let mut busy_in_window = 0.0_f64;
        for (&arrival, &s) in arrivals.iter().zip(&self.trace) {
            let start = arrival.max(depart_prev);
            let depart = start + s;
            tally.record(depart - arrival);
            // Busy segment [start, depart), windowed to [0, horizon].
            busy_in_window += depart.min(horizon) - start.min(horizon);
            depart_prev = depart;
        }
        Ok(MTrace1Result {
            response_mean: tally.mean()?,
            response_p95: tally.percentile(0.95)?,
            utilization: if horizon > 0.0 {
                busy_in_window / horizon
            } else {
                0.0
            },
            completed: self.trace.len(),
        })
    }
}

/// Identifier of a queueing station in [`ClosedMapNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Tier {
    /// Front (application) server.
    Front,
    /// Database server.
    Db,
}

/// Calendar events of the closed-network simulation.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A customer finished thinking and submits a request to the entry
    /// station.
    ThinkEnd,
    /// The service MAP of a station fires a (hidden or event) transition.
    Transition { station: usize, generation: u64 },
}

/// A station whose completions follow a MAP(2) service process, frozen while
/// the station is idle. Each station owns its RNG stream (derived from the
/// run seed through [`seeds::derive`]), so the MAP sample path of station
/// `i` is unaffected by how many other stations the network has.
#[derive(Debug, Clone)]
struct MapStation {
    map: Map2,
    rng: SmallRng,
    phase: usize,
    queue_len: usize,
    generation: u64,
    busy_since: Option<f64>,
    busy_total: f64,
    completions_measured: u64,
    queue_area: f64,
    last_change: f64,
}

impl MapStation {
    fn new(map: Map2, mut rng: SmallRng) -> Self {
        let pi = map.embedded_stationary();
        let phase = usize::from(rng.random::<f64>() >= pi[0]);
        MapStation {
            map,
            rng,
            phase,
            queue_len: 0,
            generation: 0,
            busy_since: None,
            busy_total: 0.0,
            completions_measured: 0,
            queue_area: 0.0,
            last_change: 0.0,
        }
    }

    fn integrate_queue(&mut self, now: f64, measure_from: f64) {
        let from = self.last_change.max(measure_from);
        if now > from {
            self.queue_area += self.queue_len as f64 * (now - from);
        }
        self.last_change = now;
    }

    /// Schedule the next MAP transition of this station's current phase.
    fn schedule_sojourn(&mut self, calendar: &mut EventQueue<Event>, now: f64, station: usize) {
        let rate = -self.map.d0()[self.phase][self.phase];
        let dt = sample_exp(&mut self.rng, rate);
        calendar.schedule(
            now + dt,
            Event::Transition {
                station,
                generation: self.generation,
            },
        );
    }

    /// A job arrives at this station; starts service if the station was
    /// idle.
    fn arrive(&mut self, calendar: &mut EventQueue<Event>, now: f64, warmup: f64, station: usize) {
        self.integrate_queue(now, warmup);
        self.queue_len += 1;
        if self.queue_len == 1 {
            self.busy_since = Some(now);
            self.generation += 1;
            self.schedule_sojourn(calendar, now, station);
        }
    }
}

/// Exact discrete-event simulation of a closed MAP queueing network: `N`
/// customers cycling through an exponential think stage and `M` MAP(2)
/// stations. The default **tandem** routing reproduces the paper's Figure 9
/// for `M = 2` (think → front → database → think) and generalizes it to any
/// station chain; an explicit routing-probability matrix
/// ([`ClosedMapNetwork::routing`]) covers feedback and skip topologies.
#[derive(Debug, Clone)]
pub struct ClosedMapNetwork {
    population: usize,
    think_time: f64,
    stations: Vec<Map2>,
    routing: Option<Vec<Vec<f64>>>,
}

/// Steady-state estimates from a [`ClosedMapNetwork`] run.
///
/// Per-station metrics live in `utilization` / `mean_jobs` (station order);
/// the scalar `*_front` / `*_db` fields mirror the first and last station
/// for continuity with the two-tier model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClosedRunResult {
    /// System throughput: completions that return to the think stage, per
    /// second (for tandem routing, last-station completions).
    pub throughput: f64,
    /// Per-station utilization, in station order.
    pub utilization: Vec<f64>,
    /// Per-station time-averaged number of resident requests.
    pub mean_jobs: Vec<f64>,
    /// Per-station completions per second (visit rates). For tandem routing
    /// every station's rate equals the system throughput; with a routing
    /// matrix, feedback loops push a station's rate above it (visit
    /// ratios).
    pub completion_rates: Vec<f64>,
    /// First-station utilization (`utilization[0]`).
    pub utilization_front: f64,
    /// Last-station utilization (`utilization[M - 1]`).
    pub utilization_db: f64,
    /// Time-averaged number of requests at the first station.
    pub mean_jobs_front: f64,
    /// Time-averaged number of requests at the last station.
    pub mean_jobs_db: f64,
}

impl ClosedMapNetwork {
    /// Configure the paper's two-tier network: `population` customers, mean
    /// think time `think_time`, and front/database MAP(2) service processes
    /// in tandem.
    ///
    /// # Errors
    /// Rejects a zero population and non-positive think times.
    pub fn new(
        population: usize,
        think_time: f64,
        front: Map2,
        db: Map2,
    ) -> Result<Self, SimError> {
        Self::tandem(population, think_time, vec![front, db])
    }

    /// Configure a tandem of `M` MAP(2) stations: think completions enter
    /// station 0, station `i` feeds station `i + 1`, the last station
    /// returns to the think stage.
    ///
    /// # Errors
    /// Rejects a zero population, non-positive think times, and an empty
    /// station list.
    pub fn tandem(
        population: usize,
        think_time: f64,
        stations: Vec<Map2>,
    ) -> Result<Self, SimError> {
        if population == 0 {
            return Err(SimError::InvalidParameter {
                name: "population",
                reason: "need at least one customer".into(),
            });
        }
        if think_time <= 0.0 || !think_time.is_finite() {
            return Err(SimError::InvalidParameter {
                name: "think_time",
                reason: format!("must be positive and finite, got {think_time}"),
            });
        }
        if stations.is_empty() {
            return Err(SimError::InvalidParameter {
                name: "stations",
                reason: "need at least one MAP station".into(),
            });
        }
        Ok(ClosedMapNetwork {
            population,
            think_time,
            stations,
            routing: None,
        })
    }

    /// Replace tandem routing with an explicit `M x M` probability matrix:
    /// `routing[i][j]` is the probability a completion at station `i` moves
    /// to station `j`; the remaining mass `1 - sum_j routing[i][j]` returns
    /// to the think stage. Think completions always enter station 0.
    ///
    /// # Errors
    /// Rejects a non-square matrix, negative or non-finite entries, and row
    /// sums above 1.
    pub fn routing(mut self, routing: Vec<Vec<f64>>) -> Result<Self, SimError> {
        let m = self.stations.len();
        if routing.len() != m || routing.iter().any(|row| row.len() != m) {
            return Err(SimError::InvalidParameter {
                name: "routing",
                reason: format!("routing matrix must be {m} x {m}"),
            });
        }
        for (i, row) in routing.iter().enumerate() {
            if row.iter().any(|&p| !(0.0..=1.0).contains(&p)) {
                return Err(SimError::InvalidParameter {
                    name: "routing",
                    reason: format!("row {i} has entries outside [0, 1]"),
                });
            }
            let sum: f64 = row.iter().sum();
            if sum > 1.0 + 1e-12 {
                return Err(SimError::InvalidParameter {
                    name: "routing",
                    reason: format!("row {i} sums to {sum} > 1"),
                });
            }
        }
        self.routing = Some(routing);
        Ok(self)
    }

    /// Simulate for `horizon` seconds, measuring after `warmup` seconds.
    ///
    /// RNG streams are derived from `seed` via [`seeds::derive`] with
    /// [`seeds::CLOSED_MAP_NETWORK_STREAM`]: slot 0 drives the think stage
    /// and routing decisions, slot `1 + i` drives station `i`'s MAP. Two
    /// different simulators run with the same seed consume disjoint
    /// streams, and a station's sample path does not depend on how many
    /// other stations the network has.
    ///
    /// # Errors
    /// Rejects a non-positive measurement interval or a run with no
    /// completions.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (2 reachable
    /// panic sites, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn run(&self, horizon: f64, warmup: f64, seed: u64) -> Result<ClosedRunResult, SimError> {
        if !(horizon.is_finite() && warmup >= 0.0 && horizon > warmup) {
            return Err(SimError::InvalidParameter {
                name: "horizon",
                reason: format!(
                    "need 0 <= warmup < horizon, got warmup={warmup}, horizon={horizon}"
                ),
            });
        }
        let m = self.stations.len();
        #[expect(
            clippy::disallowed_methods,
            reason = "the seed is derived through seeds::derive"
        )]
        let mut net_rng =
            SmallRng::seed_from_u64(seeds::derive(seed, seeds::CLOSED_MAP_NETWORK_STREAM, 0));
        let mut calendar: EventQueue<Event> = EventQueue::new();
        let mut stations: Vec<MapStation> = self
            .stations
            .iter()
            .enumerate()
            .map(|(i, &map)| {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the seed is derived through seeds::derive"
                )]
                MapStation::new(
                    map,
                    SmallRng::seed_from_u64(seeds::derive(
                        seed,
                        seeds::CLOSED_MAP_NETWORK_STREAM,
                        1 + i as u64,
                    )),
                )
            })
            .collect();
        let mut think_exits: u64 = 0;

        // All customers start thinking.
        for _ in 0..self.population {
            let t = sample_exp(&mut net_rng, 1.0 / self.think_time);
            calendar.schedule(t, Event::ThinkEnd);
        }

        let mut now;
        while let Some((t, event)) = calendar.pop() {
            now = t;
            if now >= horizon {
                break;
            }
            match event {
                Event::ThinkEnd => {
                    stations[0].arrive(&mut calendar, now, warmup, 0);
                }
                Event::Transition {
                    station,
                    generation,
                } => {
                    let completed = {
                        let st = &mut stations[station];
                        if generation != st.generation || st.queue_len == 0 {
                            continue; // stale calendar entry
                        }
                        // Split the phase exit rate between hidden (D0) and
                        // event (D1) transitions.
                        let i = st.phase;
                        let total = -st.map.d0()[i][i];
                        let hidden = st.map.d0()[i][1 - i];
                        let u = st.rng.random::<f64>() * total;
                        if u < hidden {
                            st.phase = 1 - i;
                            st.schedule_sojourn(&mut calendar, now, station);
                            false
                        } else {
                            // Event transition: pick destination phase.
                            let d1 = st.map.d1()[i];
                            st.phase = if u - hidden < d1[0] { 0 } else { 1 };
                            st.integrate_queue(now, warmup);
                            st.queue_len -= 1;
                            if now >= warmup {
                                st.completions_measured += 1;
                                #[expect(
                                    clippy::expect_used,
                                    reason = "a completing server was necessarily marked busy when its service began"
                                )]
                                let since = st.busy_since.expect("busy while serving");
                                st.busy_total += now - since.max(warmup);
                                st.busy_since = Some(now);
                            }
                            if st.queue_len > 0 {
                                st.generation += 1;
                                st.schedule_sojourn(&mut calendar, now, station);
                            } else {
                                st.busy_since = None;
                                st.generation += 1;
                            }
                            true
                        }
                    };
                    if completed {
                        // Route the finished job: explicit matrix, or the
                        // tandem chain with the last station exiting.
                        let destination = match &self.routing {
                            Some(rows) => {
                                let mut u = net_rng.random::<f64>();
                                let mut dest = None;
                                for (j, &p) in rows[station].iter().enumerate() {
                                    if u < p {
                                        dest = Some(j);
                                        break;
                                    }
                                    u -= p;
                                }
                                dest
                            }
                            None => (station + 1 < m).then_some(station + 1),
                        };
                        match destination {
                            Some(j) => stations[j].arrive(&mut calendar, now, warmup, j),
                            None => {
                                // Back to the think stage.
                                if now >= warmup {
                                    think_exits += 1;
                                }
                                let dt = sample_exp(&mut net_rng, 1.0 / self.think_time);
                                calendar.schedule(now + dt, Event::ThinkEnd);
                            }
                        }
                    }
                }
            }
        }

        // Close out accumulators at the horizon.
        let measured = horizon - warmup;
        for st in stations.iter_mut() {
            st.integrate_queue(horizon, warmup);
            if let Some(since) = st.busy_since {
                st.busy_total += horizon - since.max(warmup);
            }
        }
        if think_exits == 0 {
            return Err(SimError::NoObservations {
                what: "system completions",
            });
        }
        let utilization: Vec<f64> = stations.iter().map(|s| s.busy_total / measured).collect();
        let mean_jobs: Vec<f64> = stations.iter().map(|s| s.queue_area / measured).collect();
        let completion_rates: Vec<f64> = stations
            .iter()
            .map(|s| s.completions_measured as f64 / measured)
            .collect();
        Ok(ClosedRunResult {
            throughput: think_exits as f64 / measured,
            utilization_front: utilization[0],
            utilization_db: utilization[m - 1],
            mean_jobs_front: mean_jobs[0],
            mean_jobs_db: mean_jobs[m - 1],
            utilization,
            mean_jobs,
            completion_rates,
        })
    }

    /// The configured population.
    pub fn population(&self) -> usize {
        self.population
    }

    /// The configured mean think time.
    pub fn think_time(&self) -> f64 {
        self.think_time
    }

    /// The configured stations, in order.
    pub fn stations(&self) -> &[Map2] {
        &self.stations
    }

    /// Station count `M`.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }
}

fn sample_exp(rng: &mut SmallRng, rate: f64) -> f64 {
    -(1.0 - rng.random::<f64>()).ln() / rate
}

/// FIFO queue of job identifiers — exposed for testbed builders that manage
/// their own stations.
pub type JobQueue = VecDeque<u64>;

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed literal streams; seeds::derive is the production contract"
)]
mod tests {
    use super::*;
    use burstcap_map::fit::Map2Fitter;

    #[test]
    fn mm1_response_time_matches_theory() {
        // Exponential trace: M/M/1 with rho = 0.5 has E[R] = E[S]/(1-rho) = 2.
        let mut rng = SmallRng::seed_from_u64(1);
        let trace: Vec<f64> = (0..400_000).map(|_| sample_exp(&mut rng, 1.0)).collect();
        let result = MTrace1::new(0.5, trace).unwrap().run(2).unwrap();
        assert!(
            (result.response_time_mean() - 2.0).abs() < 0.1,
            "E[R] = {}",
            result.response_time_mean()
        );
        assert!((result.utilization() - 0.5).abs() < 0.02);
    }

    #[test]
    fn md1_waiting_matches_pollaczek_khinchin() {
        // Deterministic service, rho = 0.8: W = rho/(2(1-rho)) * E[S] = 2;
        // E[R] = 3.
        let trace = vec![1.0; 400_000];
        let result = MTrace1::new(0.8, trace).unwrap().run(3).unwrap();
        assert!(
            (result.response_time_mean() - 3.0).abs() < 0.2,
            "E[R] = {}",
            result.response_time_mean()
        );
    }

    #[test]
    fn bursty_trace_degrades_response_times() {
        // Same multiset of service times, different order: sorted (maximal
        // burstiness) must be far slower — Table 1's core observation.
        use burstcap_map::trace::{hyperexp_trace, impose_burstiness, BurstProfile};
        let base = hyperexp_trace(100_000, 1.0, 3.0, 4).unwrap();
        let iid = impose_burstiness(&base, BurstProfile::Iid, 1).unwrap();
        let sorted = impose_burstiness(&base, BurstProfile::Sorted, 1).unwrap();
        let r_iid = MTrace1::new(0.5, iid).unwrap().run(9).unwrap();
        let r_sorted = MTrace1::new(0.5, sorted).unwrap().run(9).unwrap();
        assert!(
            r_sorted.response_time_mean() > 5.0 * r_iid.response_time_mean(),
            "sorted {} vs iid {}",
            r_sorted.response_time_mean(),
            r_iid.response_time_mean()
        );
    }

    #[test]
    fn mtrace1_validation() {
        assert!(MTrace1::new(0.0, vec![1.0]).is_err());
        assert!(MTrace1::new(f64::INFINITY, vec![1.0]).is_err());
        assert!(MTrace1::new(0.5, vec![]).is_err());
        assert!(MTrace1::new(0.5, vec![-1.0]).is_err());
        // Overloaded queues are legal (transient analysis): see
        // overloaded_trace_reports_saturated_utilization.
        assert!(MTrace1::new(1.0, vec![1.0]).is_ok());
        assert!(MTrace1::new(1.5, vec![1.0]).is_ok());
    }

    #[test]
    fn overloaded_trace_reports_saturated_utilization() {
        // Offered load 1.5: after a short startup the server never idles,
        // so the busy fraction over the observation horizon must approach 1
        // — and must come out of the raw ratio, not a clamp.
        let mut rng = SmallRng::seed_from_u64(14);
        let trace: Vec<f64> = (0..200_000).map(|_| sample_exp(&mut rng, 1.0)).collect();
        let result = MTrace1::new(1.5, trace).unwrap().run(15).unwrap();
        assert!(
            result.utilization() > 0.98 && result.utilization() <= 1.0,
            "overloaded run reports U = {}",
            result.utilization()
        );
        // Overload shows up in the responses too: the queue keeps growing,
        // so the p95 dwarfs what any stable queue would produce.
        assert!(result.response_time_p95() > 100.0);
    }

    #[test]
    fn utilization_windows_to_the_observation_horizon() {
        // An iid trace keeps the server's busy fraction at the offered load
        // over the arrival horizon. A sorted trace backloads its work: the
        // big jobs drain *after* the horizon, so the windowed utilization
        // legitimately falls below rho — it must not be inflated by the
        // 100%-busy drain tail the old last-departure denominator included.
        use burstcap_map::trace::{hyperexp_trace, impose_burstiness, BurstProfile};
        let base = hyperexp_trace(50_000, 1.0, 3.0, 4).unwrap();
        let iid = impose_burstiness(&base, BurstProfile::Iid, 1).unwrap();
        let sorted = impose_burstiness(&base, BurstProfile::Sorted, 1).unwrap();
        let r_iid = MTrace1::new(0.5, iid).unwrap().run(9).unwrap();
        let r_sorted = MTrace1::new(0.5, sorted).unwrap().run(9).unwrap();
        assert!(
            (r_iid.utilization() - 0.5).abs() < 0.05,
            "iid U = {} should track the offered load 0.5",
            r_iid.utilization()
        );
        assert!(
            r_sorted.utilization() < r_iid.utilization(),
            "sorted U = {} must exclude the post-horizon drain (iid U = {})",
            r_sorted.utilization(),
            r_iid.utilization()
        );
    }

    #[test]
    fn same_seed_different_simulators_use_disjoint_streams() {
        // MTrace1 and ClosedMapNetwork derive different component streams
        // from the same user seed (the old behaviour fed the identical
        // xoshiro stream to both).
        use crate::seeds;
        let s = 77;
        assert_ne!(
            seeds::derive(s, seeds::MTRACE1_STREAM, 0),
            seeds::derive(s, seeds::CLOSED_MAP_NETWORK_STREAM, 0)
        );
        // And each simulator stays deterministic per seed.
        let trace = vec![1.0; 10_000];
        let a = MTrace1::new(0.8, trace.clone()).unwrap().run(s).unwrap();
        let b = MTrace1::new(0.8, trace).unwrap().run(s).unwrap();
        assert_eq!(a.response_time_mean(), b.response_time_mean());
        assert_eq!(a.utilization(), b.utilization());
    }

    #[test]
    fn closed_network_conserves_and_saturates() {
        // Highly loaded closed network: throughput approaches 1/max demand.
        let front = Map2::poisson(1.0 / 0.01).unwrap(); // 10 ms
        let db = Map2::poisson(1.0 / 0.004).unwrap(); // 4 ms
        let net = ClosedMapNetwork::new(60, 0.1, front, db).unwrap();
        let r = net.run(400.0, 40.0, 11).unwrap();
        // Bottleneck is the front server: X ~ 100/s, U_front ~ 1.
        assert!((r.throughput - 100.0).abs() < 5.0, "X = {}", r.throughput);
        assert!(r.utilization_front > 0.95, "U_fs = {}", r.utilization_front);
        assert!(
            (r.utilization_db - 0.4).abs() < 0.05,
            "U_db = {}",
            r.utilization_db
        );
        // Queue lengths: jobs in system <= population.
        assert!(r.mean_jobs_front + r.mean_jobs_db <= 60.0 + 1e-9);
    }

    #[test]
    fn closed_network_light_load_matches_demand() {
        // One customer: X = 1 / (Z + S_fs + S_db).
        let front = Map2::poisson(1.0 / 0.02).unwrap();
        let db = Map2::poisson(1.0 / 0.03).unwrap();
        let net = ClosedMapNetwork::new(1, 0.45, front, db).unwrap();
        let r = net.run(4000.0, 100.0, 5).unwrap();
        let expected = 1.0 / (0.45 + 0.02 + 0.03);
        assert!(
            (r.throughput - expected).abs() / expected < 0.05,
            "X = {} vs {}",
            r.throughput,
            expected
        );
    }

    #[test]
    fn bursty_db_lowers_throughput_vs_poisson() {
        // Same mean demands; bursty DB service must hurt (the paper's core
        // phenomenon).
        let front = Map2::poisson(1.0 / 0.008).unwrap();
        let db_smooth = Map2::poisson(1.0 / 0.007).unwrap();
        let db_bursty = Map2Fitter::new(0.007, 200.0, 0.02).fit().unwrap().map();
        let pop = 40;
        let smooth = ClosedMapNetwork::new(pop, 0.2, front, db_smooth)
            .unwrap()
            .run(600.0, 60.0, 21)
            .unwrap();
        let bursty = ClosedMapNetwork::new(pop, 0.2, front, db_bursty)
            .unwrap()
            .run(600.0, 60.0, 21)
            .unwrap();
        assert!(
            bursty.throughput < 0.9 * smooth.throughput,
            "bursty X = {} vs smooth X = {}",
            bursty.throughput,
            smooth.throughput
        );
    }

    #[test]
    fn closed_network_validation() {
        let m = Map2::poisson(1.0).unwrap();
        assert!(ClosedMapNetwork::new(0, 1.0, m, m).is_err());
        assert!(ClosedMapNetwork::new(1, 0.0, m, m).is_err());
        assert!(ClosedMapNetwork::tandem(1, 1.0, vec![]).is_err());
        let net = ClosedMapNetwork::new(1, 1.0, m, m).unwrap();
        assert!(net.run(10.0, 20.0, 1).is_err());
    }

    #[test]
    fn routing_matrix_validation() {
        let m = Map2::poisson(1.0).unwrap();
        let net = ClosedMapNetwork::tandem(1, 1.0, vec![m, m]).unwrap();
        // Wrong shape.
        assert!(net.clone().routing(vec![vec![0.5]]).is_err());
        // Negative entry.
        assert!(net
            .clone()
            .routing(vec![vec![-0.1, 0.0], vec![0.0, 0.0]])
            .is_err());
        // Row sum above 1.
        assert!(net
            .clone()
            .routing(vec![vec![0.7, 0.7], vec![0.0, 0.0]])
            .is_err());
        // A proper sub-stochastic matrix is accepted.
        assert!(net.routing(vec![vec![0.0, 1.0], vec![0.2, 0.0]]).is_ok());
    }

    #[test]
    fn three_station_tandem_light_load_matches_demand() {
        // One customer through web + app + db: X = 1 / (Z + sum demands).
        let stations = vec![
            Map2::poisson(1.0 / 0.01).unwrap(),
            Map2::poisson(1.0 / 0.02).unwrap(),
            Map2::poisson(1.0 / 0.03).unwrap(),
        ];
        let net = ClosedMapNetwork::tandem(1, 0.45, stations).unwrap();
        let r = net.run(4000.0, 100.0, 5).unwrap();
        let expected = 1.0 / (0.45 + 0.01 + 0.02 + 0.03);
        assert!(
            (r.throughput - expected).abs() / expected < 0.05,
            "X = {} vs {expected}",
            r.throughput
        );
        assert_eq!(r.utilization.len(), 3);
        assert_eq!(r.mean_jobs.len(), 3);
        // Scalar mirrors point at the first/last stations.
        assert_eq!(r.utilization_front, r.utilization[0]);
        assert_eq!(r.utilization_db, r.utilization[2]);
        // Utilization law per station: U_i = X * S_i.
        for (i, &s) in [0.01, 0.02, 0.03].iter().enumerate() {
            assert!(
                (r.utilization[i] - r.throughput * s).abs() < 0.01,
                "station {i}: U = {} vs X*S = {}",
                r.utilization[i],
                r.throughput * s
            );
        }
    }

    #[test]
    fn explicit_tandem_routing_matches_implicit_tandem_statistically() {
        // routing [[0,1],[0,0]] is the tandem chain; the explicit-matrix
        // path must agree with the implicit one within simulation noise.
        let front = Map2::poisson(1.0 / 0.01).unwrap();
        let db = Map2::poisson(1.0 / 0.004).unwrap();
        let tandem = ClosedMapNetwork::new(20, 0.1, front, db).unwrap();
        let routed = tandem
            .clone()
            .routing(vec![vec![0.0, 1.0], vec![0.0, 0.0]])
            .unwrap();
        let a = tandem.run(800.0, 80.0, 13).unwrap();
        let b = routed.run(800.0, 80.0, 13).unwrap();
        assert!(
            (a.throughput - b.throughput).abs() / a.throughput < 0.05,
            "tandem X = {} vs routed X = {}",
            a.throughput,
            b.throughput
        );
        assert!((a.utilization_db - b.utilization_db).abs() < 0.05);
    }

    #[test]
    fn feedback_routing_doubles_effective_demand() {
        // Single station, route-back probability 1/2: mean visits per pass
        // is 2, so with one customer X = 1 / (Z + 2 S).
        let st = Map2::poisson(1.0 / 0.05).unwrap();
        let net = ClosedMapNetwork::tandem(1, 0.4, vec![st])
            .unwrap()
            .routing(vec![vec![0.5]])
            .unwrap();
        let r = net.run(6000.0, 200.0, 9).unwrap();
        let expected = 1.0 / (0.4 + 2.0 * 0.05);
        assert!(
            (r.throughput - expected).abs() / expected < 0.05,
            "X = {} vs {expected}",
            r.throughput
        );
        // The station sees every feedback visit: its completion rate is
        // twice the think-exit throughput.
        assert!(
            (r.completion_rates[0] - 2.0 * r.throughput).abs() / r.throughput < 0.1,
            "station rate {} vs 2x throughput {}",
            r.completion_rates[0],
            2.0 * r.throughput
        );
    }

    #[test]
    fn tandem_completion_rates_match_throughput() {
        let front = Map2::poisson(1.0 / 0.01).unwrap();
        let db = Map2::poisson(1.0 / 0.004).unwrap();
        let r = ClosedMapNetwork::new(20, 0.1, front, db)
            .unwrap()
            .run(800.0, 80.0, 13)
            .unwrap();
        for (i, &rate) in r.completion_rates.iter().enumerate() {
            assert!(
                (rate - r.throughput).abs() / r.throughput < 0.02,
                "station {i}: rate {rate} vs X {}",
                r.throughput
            );
        }
    }

    #[test]
    fn per_station_streams_are_disjoint() {
        // Station i's MAP stream is derive(seed, CLOSED_MAP_NETWORK_STREAM,
        // 1 + i): distinct per station and distinct from the think stream.
        let s = 33;
        let think = seeds::derive(s, seeds::CLOSED_MAP_NETWORK_STREAM, 0);
        let st0 = seeds::derive(s, seeds::CLOSED_MAP_NETWORK_STREAM, 1);
        let st1 = seeds::derive(s, seeds::CLOSED_MAP_NETWORK_STREAM, 2);
        assert_ne!(think, st0);
        assert_ne!(think, st1);
        assert_ne!(st0, st1);
    }

    #[test]
    fn deterministic_under_seed() {
        let m = Map2::poisson(10.0).unwrap();
        let net = ClosedMapNetwork::new(5, 0.5, m, m).unwrap();
        let a = net.run(200.0, 20.0, 33).unwrap();
        let b = net.run(200.0, 20.0, 33).unwrap();
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.utilization_db, b.utilization_db);
    }
}
