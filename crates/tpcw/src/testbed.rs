//! The three-tier discrete-event testbed (the paper's Figure 3, simulated).
//!
//! Emulated browsers (EBs) cycle through think → transaction → think. A
//! transaction of type `T` interleaves `q + 1` front-server CPU slices with
//! `q` synchronous database queries (`q` drawn from `T`'s query range), all
//! on processor-sharing servers — the "cascading effect" of Section 3.3 that
//! breaks a transaction's service time into front and database parts. Best
//! Sellers arrivals can trigger contended episodes at the shared database
//! resource ([`crate::contention`]), which is the injected cause of service
//! burstiness; everything downstream (utilization spikes, queue bursts,
//! bottleneck switch) is emergent.

// BTreeMap, not HashMap: in-flight jobs are keyed by sequential id; an
// ordered map keeps any future iteration over them deterministic by
// construction (`clippy.toml` bans hash collections).
use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use burstcap_map::ph::Ph2;
use burstcap_sim::engine::EventQueue;
use burstcap_sim::measure::{BusyRecorder, CountRecorder, QueueLengthRecorder, ResponseTally};
use burstcap_sim::seeds;
use burstcap_sim::station::PsServer;

use crate::contention::{ContentionConfig, SharedResource};
use crate::mix::Mix;
use crate::monitor::TestbedRun;
use crate::transactions::TxType;
use crate::TpcwError;

/// Tier layout of the emulated deployment.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Topology {
    /// The paper's two-tier layout: a combined web+application front
    /// server and a database server.
    #[default]
    TwoTier,
    /// Three tiers: a dedicated web (HTTP) server in front of the
    /// application server and the database. Every transaction passes the
    /// web tier once before its application/database phase — the scenario
    /// that exercises the N-station model end to end.
    ThreeTier {
        /// Mean web-server demand per transaction (seconds).
        web_demand: f64,
        /// SCV of the per-transaction web work (>= 1/2).
        web_scv: f64,
    },
}

impl Topology {
    /// A three-tier layout with a light HTTP tier: 2 ms mean demand at
    /// mild variability — small against the application/database demands,
    /// like a static-content server in front of a TPC-W deployment.
    pub fn three_tier_default() -> Self {
        Topology::ThreeTier {
            web_demand: 0.002,
            web_scv: 1.2,
        }
    }
}

/// Configuration of one testbed experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestbedConfig {
    /// Transaction mix.
    pub mix: Mix,
    /// Tier layout (two-tier by default; see [`Topology`]).
    pub topology: Topology,
    /// Number of emulated browsers (constant through the run, per TPC-W).
    pub ebs: usize,
    /// Mean exponential think time (the paper uses `Z = 0.5 s` for model
    /// validation and `Z = 7 s` for fine-granularity trace collection).
    pub think_time: f64,
    /// Simulated run length in seconds.
    pub duration: f64,
    /// Warm-up seconds trimmed from the head of every series.
    pub warmup: f64,
    /// Cool-down seconds trimmed from the tail.
    pub cooldown: f64,
    /// RNG seed (runs are fully deterministic per seed).
    pub seed: u64,
    /// Shared-resource contention model.
    pub contention: ContentionConfig,
    /// SCV of per-slice front-server work (mild variability).
    pub fs_scv: f64,
    /// SCV of per-query database work (uncontended).
    pub db_scv: f64,
    /// Fine (sar-like) monitoring window, seconds.
    pub util_resolution: f64,
    /// Coarse (Diagnostics-like) completion-count window, seconds.
    pub count_resolution: f64,
}

impl TestbedConfig {
    /// A configuration mirroring the paper's measurement setup: `Z = 0.5 s`,
    /// 1 s utilization sampling, 5 s completion counting, 10 minutes of
    /// simulated time with 30 s trims.
    pub fn new(mix: Mix, ebs: usize) -> Self {
        TestbedConfig {
            mix,
            topology: Topology::TwoTier,
            ebs,
            think_time: 0.5,
            duration: 600.0,
            warmup: 30.0,
            cooldown: 30.0,
            seed: 0,
            contention: ContentionConfig::default(),
            fs_scv: 1.4,
            db_scv: 2.2,
            util_resolution: 1.0,
            count_resolution: 5.0,
        }
    }

    /// Set the tier layout.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Set the think time.
    pub fn think_time(mut self, z: f64) -> Self {
        self.think_time = z;
        self
    }

    /// Set the run duration (seconds).
    pub fn duration(mut self, seconds: f64) -> Self {
        self.duration = seconds;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the contention model.
    pub fn contention(mut self, contention: ContentionConfig) -> Self {
        self.contention = contention;
        self
    }

    /// Validate the configuration.
    ///
    /// # Errors
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), TpcwError> {
        if self.ebs == 0 {
            return Err(TpcwError::InvalidParameter {
                name: "ebs",
                reason: "need at least one emulated browser".into(),
            });
        }
        for (name, v) in [
            ("think_time", self.think_time),
            ("duration", self.duration),
            ("util_resolution", self.util_resolution),
            ("count_resolution", self.count_resolution),
        ] {
            if v <= 0.0 || !v.is_finite() {
                return Err(TpcwError::InvalidParameter {
                    name: match name {
                        "think_time" => "think_time",
                        "duration" => "duration",
                        "util_resolution" => "util_resolution",
                        _ => "count_resolution",
                    },
                    reason: format!("must be positive and finite, got {v}"),
                });
            }
        }
        if self.warmup < 0.0 || self.cooldown < 0.0 {
            return Err(TpcwError::InvalidParameter {
                name: "warmup",
                reason: "trims must be non-negative".into(),
            });
        }
        if self.warmup + self.cooldown >= self.duration {
            return Err(TpcwError::InvalidParameter {
                name: "duration",
                reason: "trims leave no measured interval".into(),
            });
        }
        if self.fs_scv < 0.5 || self.db_scv < 0.5 {
            return Err(TpcwError::InvalidParameter {
                name: "fs_scv",
                reason: "two-phase PH work distributions need scv >= 1/2".into(),
            });
        }
        if let Topology::ThreeTier {
            web_demand,
            web_scv,
        } = self.topology
        {
            if web_demand <= 0.0 || !web_demand.is_finite() {
                return Err(TpcwError::InvalidParameter {
                    name: "web_demand",
                    reason: format!("must be positive and finite, got {web_demand}"),
                });
            }
            if web_scv < 0.5 {
                return Err(TpcwError::InvalidParameter {
                    name: "web_scv",
                    reason: "two-phase PH work distributions need scv >= 1/2".into(),
                });
            }
        }
        self.contention
            .validate()
            .map_err(|reason| TpcwError::InvalidParameter {
                name: "contention",
                reason,
            })
    }
}

// The testbed used to salt user seeds with a private constant
// (`seed ^ TPCW_SEED`) while the other simulators used raw seeds; all
// components now share the documented `burstcap_sim::seeds` derivation.

/// Which stage a transaction is currently in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    /// Passing the dedicated web tier (three-tier topology only); the
    /// application/database phase with `remaining_queries` DB queries
    /// follows.
    Web { remaining_queries: u32 },
    /// Running a front-server slice; `remaining_queries` DB queries left.
    Front { remaining_queries: u32 },
    /// Waiting on a database query; returns to the front afterwards.
    Db {
        remaining_queries: u32,
        best_seller: bool,
    },
}

#[derive(Debug, Clone)]
struct Job {
    eb: usize,
    tx: TxType,
    started: f64,
    slice_work: f64,
    stage: Stage,
}

/// Calendar events.
#[derive(Debug, Clone, Copy)]
enum Event {
    ThinkEnd { eb: usize },
    WebCompletion { generation: u64 },
    FrontCompletion { generation: u64 },
    DbCompletion { generation: u64 },
}

/// The testbed simulator.
#[derive(Debug, Clone)]
pub struct Testbed {
    config: TestbedConfig,
}

impl Testbed {
    /// Create a testbed from a validated configuration.
    ///
    /// # Errors
    /// Propagates [`TestbedConfig::validate`].
    pub fn new(config: TestbedConfig) -> Result<Self, TpcwError> {
        config.validate()?;
        Ok(Testbed { config })
    }

    /// The configuration in force.
    pub fn config(&self) -> &TestbedConfig {
        &self.config
    }

    /// Run the simulation and return trimmed monitoring output.
    ///
    /// Equivalent to [`Testbed::replication`] with index 0: the RNG stream
    /// is derived from the configured seed via [`burstcap_sim::seeds`], so
    /// a testbed run never shares a stream with another simulator run from
    /// the same user seed.
    ///
    /// # Errors
    /// Fails if the measured interval contains no completed transaction.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (12 reachable
    /// panic sites, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn run(&self) -> Result<TestbedRun, TpcwError> {
        self.replication(0)
    }

    /// Run replication `index` of this configuration: identical in every
    /// parameter, driven by the RNG stream
    /// `seeds::derive(config.seed, TESTBED_STREAM, index)`. Replications
    /// are decorrelated by construction and each is individually
    /// deterministic, so a batch can be executed in any order — serially,
    /// or fanned across threads by `burstcap::experiment::Replications` —
    /// and produce bit-identical per-replication results.
    ///
    /// # Errors
    /// Fails if the measured interval contains no completed transaction.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (12 reachable
    /// panic sites, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn replication(&self, index: u64) -> Result<TestbedRun, TpcwError> {
        let cfg = &self.config;
        #[expect(
            clippy::disallowed_methods,
            reason = "the seed is derived through seeds::derive"
        )]
        let mut rng =
            SmallRng::seed_from_u64(seeds::derive(cfg.seed, seeds::TESTBED_STREAM, index));
        let mut calendar: EventQueue<Event> = EventQueue::new();

        let mut web = PsServer::new();
        let mut front = PsServer::new();
        let mut db = PsServer::new();
        let mut shared = SharedResource::new(cfg.contention);
        let mut jobs: BTreeMap<u64, Job> = BTreeMap::new();
        let mut next_job_id: u64 = 0;
        let three_tier = matches!(cfg.topology, Topology::ThreeTier { .. });

        // Per-EB navigation state.
        let mut eb_type: Vec<TxType> = vec![TxType::Home; cfg.ebs];

        // Monitoring.
        let mut web_busy = BusyRecorder::new(cfg.util_resolution);
        let mut fs_busy = BusyRecorder::new(cfg.util_resolution);
        let mut db_busy = BusyRecorder::new(cfg.util_resolution);
        let mut web_counts = CountRecorder::new(cfg.count_resolution);
        let mut fs_counts = CountRecorder::new(cfg.count_resolution);
        let mut db_counts = CountRecorder::new(cfg.count_resolution);
        let mut web_queue_rec = QueueLengthRecorder::new(cfg.util_resolution);
        let mut fs_queue_rec = QueueLengthRecorder::new(cfg.util_resolution);
        let mut db_queue_rec = QueueLengthRecorder::new(cfg.util_resolution);
        let mut type_rec: Vec<QueueLengthRecorder> = (0..14)
            .map(|_| QueueLengthRecorder::new(cfg.util_resolution))
            .collect();
        let mut in_system = [0u32; 14];
        let mut best_sellers_resident: usize = 0;
        let mut web_busy_since: Option<f64> = None;
        let mut fs_busy_since: Option<f64> = None;
        let mut db_busy_since: Option<f64> = None;
        let mut responses = ResponseTally::new();
        let mut per_type_completions = [0u64; 14];
        let measure_from = cfg.warmup;
        let measure_to = cfg.duration - cfg.cooldown;

        // Work distributions are parameterized per type at run start.
        let fs_slice_dist = |mean: f64| Ph2::from_mean_scv(mean, cfg.fs_scv);
        let db_query_dist = |mean: f64| Ph2::from_mean_scv(mean, cfg.db_scv);
        let web_dist = match cfg.topology {
            Topology::TwoTier => None,
            #[expect(
                clippy::expect_used,
                reason = "the SCV was validated by TestbedConfig::validate before the run started"
            )]
            Topology::ThreeTier {
                web_demand,
                web_scv,
            } => Some(Ph2::from_mean_scv(web_demand, web_scv).expect("validated scv")),
        };

        // All EBs start thinking.
        for eb in 0..cfg.ebs {
            let t = exp(&mut rng, cfg.think_time);
            calendar.schedule(t, Event::ThinkEnd { eb });
        }

        while let Some((now, event)) = calendar.pop() {
            if now >= cfg.duration {
                break;
            }
            match event {
                Event::ThinkEnd { eb } => {
                    // Navigate the CBMG and assemble the transaction plan.
                    let tx = cfg.mix.next_transaction(eb_type[eb], &mut rng);
                    eb_type[eb] = tx;
                    let (q_lo, q_hi) = tx.db_query_range();
                    let queries = if q_lo == q_hi {
                        q_lo
                    } else {
                        rng.random_range(q_lo..=q_hi)
                    };
                    #[expect(
                        clippy::expect_used,
                        reason = "the SCV was validated by TestbedConfig::validate before the run started"
                    )]
                    let total_fs = fs_slice_dist(tx.front_demand())
                        .expect("validated scv")
                        .sample(&mut rng);
                    let slice_work = total_fs / (queries + 1) as f64;

                    let id = next_job_id;
                    next_job_id += 1;
                    let stage = if three_tier {
                        Stage::Web {
                            remaining_queries: queries,
                        }
                    } else {
                        Stage::Front {
                            remaining_queries: queries,
                        }
                    };
                    jobs.insert(
                        id,
                        Job {
                            eb,
                            tx,
                            started: now,
                            slice_work,
                            stage,
                        },
                    );
                    in_system[tx.index()] += 1;
                    type_rec[tx.index()].update(now, in_system[tx.index()] as f64);

                    if let Some(dist) = &web_dist {
                        // Three tiers: the request passes the web server
                        // before its application/database phase.
                        let web_work = dist.sample(&mut rng);
                        if web.is_empty() {
                            web_busy_since = Some(now);
                        }
                        web.arrive(now, id, web_work);
                        web_queue_rec.update(now, web.len() as f64);
                        schedule_completion(&mut calendar, &web, now, Server::Web);
                    } else {
                        if front.is_empty() {
                            fs_busy_since = Some(now);
                        }
                        front.arrive(now, id, slice_work);
                        fs_queue_rec.update(now, front.len() as f64);
                        schedule_completion(&mut calendar, &front, now, Server::Front);
                    }
                }
                Event::WebCompletion { generation } => {
                    if generation != web.generation() || web.is_empty() {
                        continue;
                    }
                    let done = web.complete(now);
                    web_queue_rec.update(now, web.len() as f64);
                    if web.is_empty() {
                        if let Some(since) = web_busy_since.take() {
                            web_busy.add_busy(since, now);
                        }
                    } else {
                        schedule_completion(&mut calendar, &web, now, Server::Web);
                    }
                    web_counts.record(now);

                    #[expect(
                        clippy::expect_used,
                        reason = "every completion id was inserted into the job table at arrival and lives until transaction end"
                    )]
                    let job = jobs.get_mut(&done.id).expect("job metadata exists");
                    let Stage::Web { remaining_queries } = job.stage else {
                        unreachable!("web completion for a job not at the web tier");
                    };
                    // Hand the request to the application server.
                    job.stage = Stage::Front { remaining_queries };
                    let slice = job.slice_work;
                    if front.is_empty() {
                        fs_busy_since = Some(now);
                    }
                    front.arrive(now, done.id, slice);
                    fs_queue_rec.update(now, front.len() as f64);
                    schedule_completion(&mut calendar, &front, now, Server::Front);
                }
                Event::FrontCompletion { generation } => {
                    if generation != front.generation() || front.is_empty() {
                        continue;
                    }
                    let done = front.complete(now);
                    fs_queue_rec.update(now, front.len() as f64);
                    if front.is_empty() {
                        if let Some(since) = fs_busy_since.take() {
                            fs_busy.add_busy(since, now);
                        }
                    } else {
                        schedule_completion(&mut calendar, &front, now, Server::Front);
                    }

                    #[expect(
                        clippy::expect_used,
                        reason = "every completion id was inserted into the job table at arrival and lives until transaction end"
                    )]
                    let job = jobs.get_mut(&done.id).expect("job metadata exists");
                    let Stage::Front { remaining_queries } = job.stage else {
                        unreachable!("front completion for a job not at the front tier");
                    };
                    if remaining_queries > 0 {
                        // Issue the next database query.
                        let is_shared = job.tx.uses_shared_table();
                        let is_bs = job.tx == TxType::BestSellers;
                        shared.poll(now, &mut rng);
                        if is_bs {
                            shared.on_best_sellers_arrival(now, best_sellers_resident, &mut rng);
                        }
                        let mult = if is_shared {
                            shared.multiplier(now)
                        } else {
                            1.0
                        };
                        #[expect(
                            clippy::expect_used,
                            reason = "the SCV was validated by TestbedConfig::validate before the run started"
                        )]
                        let work = db_query_dist(job.tx.db_query_demand())
                            .expect("validated scv")
                            .sample(&mut rng)
                            * mult;
                        job.stage = Stage::Db {
                            remaining_queries: remaining_queries - 1,
                            best_seller: is_bs,
                        };
                        if is_bs {
                            best_sellers_resident += 1;
                        }
                        if db.is_empty() {
                            db_busy_since = Some(now);
                        }
                        db.arrive(now, done.id, work);
                        db_queue_rec.update(now, db.len() as f64);
                        schedule_completion(&mut calendar, &db, now, Server::Db);
                    } else {
                        // Transaction complete.
                        #[expect(
                            clippy::expect_used,
                            reason = "every completion id was inserted into the job table at arrival and lives until transaction end"
                        )]
                        let job = jobs.remove(&done.id).expect("job metadata exists");
                        in_system[job.tx.index()] -= 1;
                        type_rec[job.tx.index()].update(now, in_system[job.tx.index()] as f64);
                        if now >= measure_from && now < measure_to {
                            responses.record(now - job.started);
                            per_type_completions[job.tx.index()] += 1;
                        }
                        fs_counts.record(now);
                        let t = now + exp(&mut rng, cfg.think_time);
                        calendar.schedule(t, Event::ThinkEnd { eb: job.eb });
                    }
                }
                Event::DbCompletion { generation } => {
                    if generation != db.generation() || db.is_empty() {
                        continue;
                    }
                    let done = db.complete(now);
                    db_queue_rec.update(now, db.len() as f64);
                    if db.is_empty() {
                        if let Some(since) = db_busy_since.take() {
                            db_busy.add_busy(since, now);
                        }
                    } else {
                        schedule_completion(&mut calendar, &db, now, Server::Db);
                    }

                    #[expect(
                        clippy::expect_used,
                        reason = "every completion id was inserted into the job table at arrival and lives until transaction end"
                    )]
                    let job = jobs.get_mut(&done.id).expect("job metadata exists");
                    let Stage::Db {
                        remaining_queries,
                        best_seller,
                    } = job.stage
                    else {
                        unreachable!("db completion for a job not at the database");
                    };
                    if best_seller {
                        best_sellers_resident -= 1;
                    }
                    if remaining_queries == 0 {
                        // Last query of the transaction: the database phase
                        // of this request is complete (Diagnostics-style
                        // request count at the DB tier).
                        db_counts.record(now);
                    }
                    // Return to the front server for the next slice.
                    job.stage = Stage::Front { remaining_queries };
                    let slice = job.slice_work;
                    if front.is_empty() {
                        fs_busy_since = Some(now);
                    }
                    front.arrive(now, done.id, slice);
                    fs_queue_rec.update(now, front.len() as f64);
                    schedule_completion(&mut calendar, &front, now, Server::Front);
                }
            }
        }

        // Close accumulators at the horizon.
        if let Some(since) = web_busy_since {
            web_busy.add_busy(since, cfg.duration);
        }
        if let Some(since) = fs_busy_since {
            fs_busy.add_busy(since, cfg.duration);
        }
        if let Some(since) = db_busy_since {
            db_busy.add_busy(since, cfg.duration);
        }
        shared.finish(cfg.duration);

        // Trim all series to the measured interval.
        let fine_skip = (cfg.warmup / cfg.util_resolution).round() as usize;
        let fine_keep = ((measure_to - cfg.warmup) / cfg.util_resolution).floor() as usize;
        let coarse_skip = (cfg.warmup / cfg.count_resolution).round() as usize;
        let coarse_keep = ((measure_to - cfg.warmup) / cfg.count_resolution).floor() as usize;
        let trim_f64 =
            |v: Vec<f64>| -> Vec<f64> { v.into_iter().skip(fine_skip).take(fine_keep).collect() };
        let trim_u64 = |v: Vec<u64>| -> Vec<u64> {
            v.into_iter().skip(coarse_skip).take(coarse_keep).collect()
        };

        let measured_seconds = measure_to - cfg.warmup;
        let completed = responses.count();
        if completed == 0 {
            return Err(TpcwError::NoObservations {
                what: "completed transactions",
            });
        }

        Ok(TestbedRun {
            mix: cfg.mix,
            ebs: cfg.ebs,
            think_time: cfg.think_time,
            measured_seconds,
            web_util: if three_tier {
                trim_f64(web_busy.utilization(cfg.duration))
            } else {
                Vec::new()
            },
            web_completions: if three_tier {
                trim_u64(web_counts.counts(cfg.duration))
            } else {
                Vec::new()
            },
            web_queue: if three_tier {
                trim_f64(web_queue_rec.series(cfg.duration))
            } else {
                Vec::new()
            },
            fs_util: trim_f64(fs_busy.utilization(cfg.duration)),
            db_util: trim_f64(db_busy.utilization(cfg.duration)),
            fs_completions: trim_u64(fs_counts.counts(cfg.duration)),
            db_completions: trim_u64(db_counts.counts(cfg.duration)),
            db_queue: trim_f64(db_queue_rec.series(cfg.duration)),
            fs_queue: trim_f64(fs_queue_rec.series(cfg.duration)),
            type_in_system: type_rec
                .iter_mut()
                .map(|r| trim_f64(r.series(cfg.duration)))
                .collect(),
            per_type_completions,
            throughput: completed as f64 / measured_seconds,
            response_mean: responses.mean().map_err(|_| TpcwError::NoObservations {
                what: "response times",
            })?,
            response_p95: responses
                .percentile(0.95)
                .map_err(|_| TpcwError::NoObservations {
                    what: "response times",
                })?,
            contention_episodes: shared.episodes(),
            contended_seconds: shared.contended_seconds(),
            util_resolution: cfg.util_resolution,
            count_resolution: cfg.count_resolution,
        })
    }

    /// Run `r` independent replications serially and return them in
    /// replication order (index 0 first, identical to [`Testbed::run`]).
    ///
    /// This is the batch entry point: per-replication RNG streams come from
    /// the shared [`burstcap_sim::seeds`] derivation, so the same list —
    /// aggregated in the same order — is what a parallel fan over
    /// [`Testbed::replication`] produces (the cross-replication determinism
    /// contract the experiment harness relies on).
    ///
    /// # Errors
    /// Rejects `r = 0`; propagates the first failing replication.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (12 reachable
    /// panic sites, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn replications(&self, r: usize) -> Result<Vec<TestbedRun>, TpcwError> {
        if r == 0 {
            return Err(TpcwError::InvalidParameter {
                name: "r",
                reason: "need at least one replication".into(),
            });
        }
        (0..r as u64).map(|i| self.replication(i)).collect()
    }
}

/// Which processor-sharing server a completion event belongs to.
#[derive(Debug, Clone, Copy)]
enum Server {
    Web,
    Front,
    Db,
}

fn schedule_completion(calendar: &mut EventQueue<Event>, server: &PsServer, now: f64, who: Server) {
    if let Some(t) = server.next_completion(now) {
        let generation = server.generation();
        let event = match who {
            Server::Web => Event::WebCompletion { generation },
            Server::Front => Event::FrontCompletion { generation },
            Server::Db => Event::DbCompletion { generation },
        };
        calendar.schedule(t, event);
    }
}

fn exp(rng: &mut SmallRng, mean: f64) -> f64 {
    -(1.0 - rng.random::<f64>()).ln() * mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::TierId;

    fn quick(mix: Mix, ebs: usize, seed: u64) -> TestbedRun {
        Testbed::new(TestbedConfig::new(mix, ebs).duration(240.0).seed(seed))
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(Testbed::new(TestbedConfig::new(Mix::Browsing, 0)).is_err());
        let mut c = TestbedConfig::new(Mix::Browsing, 10);
        c.duration = 10.0;
        c.warmup = 6.0;
        c.cooldown = 6.0;
        assert!(Testbed::new(c).is_err());
        let mut c = TestbedConfig::new(Mix::Browsing, 10);
        c.fs_scv = 0.2;
        assert!(Testbed::new(c).is_err());
    }

    #[test]
    fn light_load_matches_demand_math() {
        // 1 EB: X = 1 / (Z + D_fs + D_db_effective); contention negligible.
        let run = quick(Mix::Ordering, 1, 1);
        let d = Mix::Ordering.mean_front_demand() + Mix::Ordering.mean_db_demand();
        let expected = 1.0 / (0.5 + d);
        assert!(
            (run.throughput - expected).abs() / expected < 0.1,
            "X = {} vs {expected}",
            run.throughput
        );
    }

    #[test]
    fn utilization_law_holds_per_tier() {
        let run = quick(Mix::Shopping, 30, 2);
        // U = X * D with D the per-transaction demand at that tier.
        let u_fs_expected = run.throughput * Mix::Shopping.mean_front_demand();
        let u_fs = run.mean_utilization(TierId::Front);
        assert!(
            (u_fs - u_fs_expected).abs() < 0.05,
            "U_fs {u_fs} vs {u_fs_expected}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = quick(Mix::Browsing, 20, 7);
        let b = quick(Mix::Browsing, 20, 7);
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.fs_util, b.fs_util);
        let c = quick(Mix::Browsing, 20, 8);
        assert_ne!(a.throughput, c.throughput);
    }

    #[test]
    fn series_lengths_match_resolutions() {
        let run = quick(Mix::Shopping, 10, 3);
        // 240 s with 30 s trims at each end: 180 fine windows, 36 coarse.
        assert_eq!(run.fs_util.len(), 180);
        assert_eq!(run.db_util.len(), 180);
        assert_eq!(run.fs_completions.len(), 36);
        assert_eq!(run.db_completions.len(), 36);
        assert_eq!(run.type_in_system.len(), 14);
        assert_eq!(run.type_in_system[0].len(), 180);
    }

    #[test]
    fn monitoring_series_usable_by_estimators() {
        let run = quick(Mix::Shopping, 40, 4);
        let m = run.monitoring(TierId::Front).unwrap();
        assert_eq!(m.utilization.len(), m.completions.len());
        let d = burstcap_stats::regression::estimate_demand(
            &m.utilization,
            &m.completions,
            m.resolution,
        )
        .unwrap();
        let expected = Mix::Shopping.mean_front_demand();
        assert!(
            (d.mean_service_time - expected).abs() / expected < 0.25,
            "regressed demand {} vs configured {expected}",
            d.mean_service_time
        );
    }

    #[test]
    fn browsing_contention_fires_under_load() {
        let run = quick(Mix::Browsing, 80, 5);
        assert!(
            run.contention_episodes > 0,
            "browsing at 80 EBs must trigger contention episodes"
        );
    }

    #[test]
    fn ordering_mix_rarely_contends() {
        // Best Sellers is 11% of browsing traffic but only 0.46% of
        // ordering traffic, so the shared resource spends far less time
        // contended under the ordering mix.
        let browsing = quick(Mix::Browsing, 80, 6);
        let ordering = quick(Mix::Ordering, 80, 6);
        assert!(
            ordering.contended_seconds < browsing.contended_seconds / 2.0,
            "ordering {}s vs browsing {}s contended",
            ordering.contended_seconds,
            browsing.contended_seconds
        );
    }

    #[test]
    fn throughput_grows_with_ebs_until_saturation() {
        let x10 = quick(Mix::Ordering, 10, 9).throughput;
        let x40 = quick(Mix::Ordering, 40, 9).throughput;
        assert!(x40 > 1.5 * x10, "x10 = {x10}, x40 = {x40}");
    }

    #[test]
    fn per_type_completions_follow_mix_weights() {
        let run = quick(Mix::Ordering, 20, 10);
        let total: u64 = run.per_type_completions.iter().sum();
        let w = Mix::Ordering.weights();
        // Spot-check the two heaviest-weight types.
        for idx in [3usize, 4] {
            let freq = run.per_type_completions[idx] as f64 / total as f64;
            assert!(
                (freq - w[idx]).abs() < 0.05,
                "type {idx}: freq {freq} vs weight {}",
                w[idx]
            );
        }
    }

    #[test]
    fn response_p95_exceeds_mean() {
        let run = quick(Mix::Browsing, 50, 11);
        assert!(run.response_p95 > run.response_mean);
    }

    #[test]
    fn three_tier_config_validation() {
        let bad_demand = TestbedConfig::new(Mix::Browsing, 10).topology(Topology::ThreeTier {
            web_demand: 0.0,
            web_scv: 1.2,
        });
        assert!(Testbed::new(bad_demand).is_err());
        let bad_scv = TestbedConfig::new(Mix::Browsing, 10).topology(Topology::ThreeTier {
            web_demand: 0.002,
            web_scv: 0.1,
        });
        assert!(Testbed::new(bad_scv).is_err());
        assert!(Testbed::new(
            TestbedConfig::new(Mix::Browsing, 10).topology(Topology::three_tier_default())
        )
        .is_ok());
    }

    #[test]
    fn two_tier_runs_have_no_web_series() {
        let run = quick(Mix::Shopping, 10, 3);
        assert!(run.web_util.is_empty());
        assert!(run.web_completions.is_empty());
        assert!(run.web_queue.is_empty());
        assert!(run.monitoring(TierId::Web).is_err());
    }

    fn quick3(mix: Mix, ebs: usize, seed: u64) -> TestbedRun {
        Testbed::new(
            TestbedConfig::new(mix, ebs)
                .topology(Topology::three_tier_default())
                .duration(240.0)
                .seed(seed),
        )
        .unwrap()
        .run()
        .unwrap()
    }

    #[test]
    fn three_tier_light_load_includes_web_demand() {
        // 1 EB: X = 1 / (Z + D_web + D_fs + D_db_effective).
        let run = quick3(Mix::Ordering, 1, 1);
        let d = 0.002 + Mix::Ordering.mean_front_demand() + Mix::Ordering.mean_db_demand();
        let expected = 1.0 / (0.5 + d);
        assert!(
            (run.throughput - expected).abs() / expected < 0.1,
            "X = {} vs {expected}",
            run.throughput
        );
    }

    #[test]
    fn three_tier_web_monitoring_is_usable() {
        let run = quick3(Mix::Shopping, 40, 4);
        // Same series lengths as the other tiers.
        assert_eq!(run.web_util.len(), run.fs_util.len());
        assert_eq!(run.web_completions.len(), run.fs_completions.len());
        let m = run.monitoring(TierId::Web).unwrap();
        assert_eq!(m.utilization.len(), m.completions.len());
        // Utilization-law regression on the web tier recovers ~2 ms.
        let d = burstcap_stats::regression::estimate_demand(
            &m.utilization,
            &m.completions,
            m.resolution,
        )
        .unwrap();
        assert!(
            (d.mean_service_time - 0.002).abs() / 0.002 < 0.3,
            "regressed web demand {} vs configured 0.002",
            d.mean_service_time
        );
        // The light web tier sits well below the app tier's utilization.
        assert!(run.mean_utilization(TierId::Web) < run.mean_utilization(TierId::Front));
    }

    #[test]
    fn three_tier_is_deterministic_per_seed() {
        let a = quick3(Mix::Browsing, 20, 7);
        let b = quick3(Mix::Browsing, 20, 7);
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.web_util, b.web_util);
    }

    #[test]
    fn replications_are_deterministic_and_decorrelated() {
        let tb = Testbed::new(
            TestbedConfig::new(Mix::Ordering, 10)
                .duration(120.0)
                .seed(4),
        )
        .unwrap();
        let batch = tb.replications(3).unwrap();
        assert_eq!(batch.len(), 3);
        // Replication 0 is exactly run().
        let single = tb.run().unwrap();
        assert_eq!(batch[0], single);
        // Distinct replications use distinct streams.
        assert_ne!(batch[0].throughput, batch[1].throughput);
        assert_ne!(batch[1].throughput, batch[2].throughput);
        // Each replication is individually reproducible.
        assert_eq!(batch[2], tb.replication(2).unwrap());
        // Degenerate batch size is rejected.
        assert!(tb.replications(0).is_err());
    }
}
