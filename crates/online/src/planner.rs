//! The rolling re-fit / re-solve loop: continuous capacity planning over a
//! window stream.
//!
//! [`OnlinePlanner`] is the online counterpart of
//! [`burstcap::planner::CapacityPlanner`]. It ingests monitoring windows one
//! at a time, maintains per-tier streaming descriptors
//! ([`crate::estimator::TierEstimator`]) and a CUSUM regime-change detector
//! per tier ([`crate::detector::CusumDetector`]), and re-runs the expensive
//! stages — the Section 4.1 MAP(2) fit and the exact CTMC solve — **only**
//! when a tier's descriptors drift past a threshold or a detector fires.
//! Each solve is one call of the engine ladder with the online policy
//! ([`burstcap_qn::mapqn::MapNetwork::solve_tiers`] with
//! [`burstcap_qn::mapqn::TierPolicy::ONLINE`]), warm-started from the
//! previous stationary vector: a rolling re-fit perturbs the generator's
//! rates but not its state space, so the previous `pi` is an excellent
//! initial iterate and the sparse BiCGSTAB solve converges in a fraction of
//! a cold solve.
//!
//! On a confirmed regime change the alarmed tiers' estimators are **reset**:
//! their history describes the old service process and would bias every
//! descriptor of the new one. The planner keeps predicting from the last
//! good model while the fresh estimates mature, then re-fits.

use serde::{Deserialize, Serialize};

use burstcap::characterize::ServiceCharacterization;
use burstcap::planner::{fit_characterization, Prediction};
use burstcap::report::{OnlineReport, OnlineTierStatus};
use burstcap::PlanError;
use burstcap_map::fit::FittedMap2;
use burstcap_obs::Trace;
use burstcap_qn::mapqn::{MapNetwork, TierPolicy};

use crate::detector::{CusumDetector, CusumOptions};
use crate::estimator::{TierEstimator, TierEstimatorOptions};
use crate::window::{MonitorWindow, WindowSource};
use crate::OnlineError;

/// Configuration of the rolling planner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlinePlannerOptions {
    /// What-if population the rolling prediction targets.
    pub population: usize,
    /// Think time of the what-if model (`Z_qn`).
    pub think_time: f64,
    /// Windows to accumulate before the first fit is attempted.
    pub min_windows: usize,
    /// Replanning cadence: a report is emitted (and drift re-evaluated)
    /// every this many windows, in addition to alarm-triggered ticks.
    pub replan_every: usize,
    /// Largest relative drift of the mean and p95 descriptors tolerated
    /// before a re-fit (evaluated at every tick against the descriptors
    /// last fitted).
    pub drift_threshold: f64,
    /// Separate, wider threshold for the index of dispersion (relative,
    /// with the denominator floored at the Poisson scale `I = 1`): the `I`
    /// estimate is by far the noisiest descriptor — the Figure 2 stopping
    /// point wanders as levels fill, easily by several× at low `I` — and
    /// the fitter itself only targets `I` to ±`i_tolerance`, so chasing
    /// small `I` wobbles re-solves for nothing. Regime-scale burstiness
    /// changes (the paper's `I` in the hundreds) trip this easily; genuine
    /// shifts additionally announce themselves through the CUSUM alarm and
    /// the mean-demand drift.
    pub i_drift_threshold: f64,
    /// Relative tolerance on the fitted index of dispersion (paper: ±20%).
    pub i_tolerance: f64,
    /// Streaming characterization knobs.
    pub estimator: TierEstimatorOptions,
    /// Regime-change detector tuning.
    pub detector: CusumOptions,
}

impl OnlinePlannerOptions {
    /// Defaults for a what-if target: first fit after 150 windows, a report
    /// every 30, re-fit beyond 20% descriptor drift.
    pub fn new(population: usize, think_time: f64) -> Self {
        OnlinePlannerOptions {
            population,
            think_time,
            min_windows: 150,
            replan_every: 30,
            drift_threshold: 0.2,
            i_drift_threshold: 2.0,
            i_tolerance: 0.2,
            estimator: TierEstimatorOptions::default(),
            detector: CusumOptions::default(),
        }
    }

    fn validate(&self) -> Result<(), OnlineError> {
        if self.population == 0 {
            return Err(OnlineError::InvalidConfig {
                name: "population",
                reason: "population must be at least 1".into(),
            });
        }
        if self.think_time <= 0.0 || !self.think_time.is_finite() {
            return Err(OnlineError::InvalidConfig {
                name: "think_time",
                reason: format!("must be positive and finite, got {}", self.think_time),
            });
        }
        if self.min_windows == 0 || self.replan_every == 0 {
            return Err(OnlineError::InvalidConfig {
                name: "min_windows",
                reason: "min_windows and replan_every must be at least 1".into(),
            });
        }
        for (name, v) in [
            ("drift_threshold", self.drift_threshold),
            ("i_drift_threshold", self.i_drift_threshold),
        ] {
            if v < 0.0 || !v.is_finite() {
                return Err(OnlineError::InvalidConfig {
                    name,
                    reason: format!("must be non-negative and finite, got {v}"),
                });
            }
        }
        self.detector.validate()
    }
}

/// Cumulative solver accounting of one planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SolveStats {
    /// MAP re-fits (each followed by one solve).
    pub refits: usize,
    /// Solves warm-started from the previous stationary vector.
    pub warm_solves: usize,
    /// Cold solves (first fit or state-space change).
    pub cold_solves: usize,
    /// Solves whose iterative attempt stalled and fell back to another
    /// engine (reported by [`burstcap_qn::mapqn::SolveDiagnostics`]; these
    /// also count as warm or cold above — the warm start is *kept* across
    /// the fallback, not discarded).
    pub stalled_fallbacks: usize,
    /// Regime-change alarms acted upon.
    pub regime_changes: usize,
}

/// Per-tier streaming state.
struct TierState {
    estimator: TierEstimator,
    detector: CusumDetector,
    /// Latched from the detector until the resolving re-fit.
    alarmed: bool,
    /// Most recent successful characterization (fresh or pre-reset).
    last_char: Option<ServiceCharacterization>,
}

/// The continuous planner: streaming characterization, regime-change
/// detection, and a warm-started rolling what-if solve.
///
/// # Example
/// ```
/// use burstcap_online::planner::{OnlinePlanner, OnlinePlannerOptions};
/// use burstcap_online::window::{MonitorWindow, TierSample};
///
/// let mut options = OnlinePlannerOptions::new(30, 0.5);
/// options.min_windows = 120;
/// let mut planner = OnlinePlanner::new(5.0, 2, options)?;
/// // A steady two-tier stream: front 10 ms, db 5 ms demand.
/// let window = MonitorWindow {
///     tiers: vec![
///         TierSample { utilization: 0.5, completions: 250 },
///         TierSample { utilization: 0.25, completions: 250 },
///     ],
/// };
/// let mut reports = Vec::new();
/// for _ in 0..240 {
///     reports.extend(planner.ingest(&window)?);
/// }
/// let first = reports.first().expect("first fit after min_windows");
/// assert!(first.refitted);
/// assert!(first.prediction.throughput > 0.0);
/// # Ok::<(), burstcap_online::OnlineError>(())
/// ```
pub struct OnlinePlanner {
    options: OnlinePlannerOptions,
    resolution: f64,
    tiers: Vec<TierState>,
    window: usize,
    /// Re-fit requested (alarm handled, or a previous attempt could not fit
    /// yet) but not performed.
    refit_pending: bool,
    fits: Vec<FittedMap2>,
    fitted_chars: Vec<ServiceCharacterization>,
    pi: Option<Vec<f64>>,
    prediction: Option<Prediction>,
    stats: SolveStats,
    /// Observability handle (`Trace::noop` by default): the planner emits
    /// `online.*` events — alarms with their CUSUM statistic, estimator
    /// resets, replanning ticks, re-fits with the solve diagnostics — plus
    /// an `online.windows` counter. Everything emitted is a pure function
    /// of the window stream, so a recorded trace is replay-deterministic.
    trace: Trace,
}

impl OnlinePlanner {
    /// Create a planner for windows of `resolution` seconds over
    /// `tier_count` tiers in tandem order.
    ///
    /// # Errors
    /// Rejects non-positive resolutions, a zero tier count, and invalid
    /// options.
    pub fn new(
        resolution: f64,
        tier_count: usize,
        options: OnlinePlannerOptions,
    ) -> Result<Self, OnlineError> {
        if resolution <= 0.0 || !resolution.is_finite() {
            return Err(OnlineError::InvalidConfig {
                name: "resolution",
                reason: format!("must be positive and finite, got {resolution}"),
            });
        }
        if tier_count == 0 {
            return Err(OnlineError::InvalidConfig {
                name: "tier_count",
                reason: "need at least one tier".into(),
            });
        }
        options.validate()?;
        let tiers = (0..tier_count)
            .map(|_| {
                Ok(TierState {
                    estimator: TierEstimator::new(resolution, options.estimator),
                    detector: CusumDetector::new(options.detector)?,
                    alarmed: false,
                    last_char: None,
                })
            })
            .collect::<Result<Vec<_>, OnlineError>>()?;
        Ok(OnlinePlanner {
            options,
            resolution,
            tiers,
            window: 0,
            refit_pending: false,
            fits: Vec::new(),
            fitted_chars: Vec::new(),
            pi: None,
            prediction: None,
            stats: SolveStats::default(),
            trace: Trace::noop(),
        })
    }

    /// Attach an observability handle: subsequent ingestion emits
    /// `online.*` events and counters through it (see the field docs). Use
    /// `Trace::noop()` to detach. Builder-style variant:
    /// [`OnlinePlanner::with_trace`].
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// [`OnlinePlanner::set_trace`] as a builder step.
    #[must_use]
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Ingest one monitoring window. Returns a report on replanning ticks
    /// (the first fit, every `replan_every`-th window thereafter, and any
    /// window on which a regime-change alarm fires), `None` otherwise.
    ///
    /// # Errors
    /// Rejects windows with the wrong tier count or invalid samples;
    /// propagates solver failures.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn ingest(&mut self, window: &MonitorWindow) -> Result<Option<OnlineReport>, OnlineError> {
        if window.tiers.len() != self.tiers.len() {
            return Err(OnlineError::InvalidWindow {
                reason: format!(
                    "planner tracks {} tiers, window has {}",
                    self.tiers.len(),
                    window.tiers.len()
                ),
            });
        }
        self.window += 1;
        self.trace.add("online.windows", 1);
        let mut alarm_now = false;
        for (index, (tier, sample)) in self.tiers.iter_mut().zip(&window.tiers).enumerate() {
            tier.estimator.push(sample)?;
            // The detector pauses while a regime re-fit is pending: the
            // alarm is already being acted upon, and re-alarming would only
            // reset the maturing estimators again (a livelock on heavily
            // bursty regimes). It resumes — re-learning its baseline on the
            // new regime — once the re-fit lands.
            if !self.refit_pending && sample.completions > 0 {
                // Per-window demand proxy: busy seconds per completion.
                let x = sample.utilization * self.resolution / sample.completions as f64;
                if tier.detector.update(x) {
                    tier.alarmed = true;
                    alarm_now = true;
                    self.trace.event(
                        "online.alarm",
                        vec![
                            ("window", self.window.into()),
                            ("tier", index.into()),
                            ("cusum", tier.detector.statistic().into()),
                        ],
                    );
                }
            }
        }

        if alarm_now {
            // The alarmed tiers' history describes the *old* regime: drop it
            // so the descriptors re-learn, and re-arm the detector on the
            // new regime. Prediction keeps serving from the last good model
            // until the fresh estimates mature.
            for (index, tier) in self.tiers.iter_mut().enumerate() {
                if !tier.alarmed {
                    continue;
                }
                tier.estimator = TierEstimator::new(self.resolution, self.options.estimator);
                tier.detector.reset();
                self.trace.event(
                    "online.reset",
                    vec![("window", self.window.into()), ("tier", index.into())],
                );
            }
            self.refit_pending = true;
            self.stats.regime_changes += 1;
        }

        if self.window < self.options.min_windows {
            return Ok(None);
        }
        // Ticks: the pending first fit (retried every window until the
        // estimators mature), any alarm (immediately), and the regular
        // cadence — a pending re-fit retries at cadence ticks rather than
        // every window.
        let cadence_tick = self.window.is_multiple_of(self.options.replan_every);
        if !(self.fits.is_empty() || alarm_now || cadence_tick) {
            return Ok(None);
        }
        self.replan(alarm_now)
    }

    /// One replanning tick: refresh descriptors, decide whether to re-fit,
    /// and assemble the report.
    fn replan(&mut self, alarm_now: bool) -> Result<Option<OnlineReport>, OnlineError> {
        self.trace.event(
            "online.tick",
            vec![("window", self.window.into()), ("alarm", alarm_now.into())],
        );
        // The per-tier CUSUM state, sampled at tick cadence (per-window
        // emission would dominate the trace for no diagnostic value).
        if self.trace.is_enabled() {
            for (index, tier) in self.tiers.iter().enumerate() {
                self.trace.event(
                    "online.cusum",
                    vec![
                        ("window", self.window.into()),
                        ("tier", index.into()),
                        ("statistic", tier.detector.statistic().into()),
                        ("warmup", tier.detector.in_warmup().into()),
                    ],
                );
            }
        }
        // Refresh what can be refreshed; recently reset tiers keep their
        // last known characterization until the new stream matures.
        let mut fresh: Vec<Option<ServiceCharacterization>> = Vec::with_capacity(self.tiers.len());
        for tier in self.tiers.iter_mut() {
            match tier.estimator.characterize() {
                Ok(c) => {
                    tier.last_char = Some(c.clone());
                    fresh.push(Some(c));
                }
                Err(_) => fresh.push(None),
            }
        }

        if self.fits.is_empty() {
            // First fit: wait until every tier characterizes.
            if fresh.iter().any(Option::is_none) {
                return Ok(None);
            }
            #[expect(
                clippy::expect_used,
                reason = "every fresh entry was checked Some in the guard above"
            )]
            let chars: Vec<_> = fresh.into_iter().map(|c| c.expect("checked")).collect();
            let drifts = vec![0.0; chars.len()];
            return match self.refit_and_solve(chars.clone()) {
                Ok(warm) => Ok(Some(self.report(&chars, &drifts, false, true, warm))),
                // An infeasible transient fit is not fatal: retry next tick.
                Err(OnlineError::Planning(PlanError::Fitting(_))) => Ok(None),
                Err(e) => Err(e),
            };
        }

        // Drift of every refreshed tier against its last fitted descriptors.
        let pairs: Vec<DescriptorDrift> = fresh
            .iter()
            .zip(&self.fitted_chars)
            .map(|(c, fitted)| {
                c.as_ref()
                    .map_or(DescriptorDrift::default(), |c| descriptor_drift(fitted, c))
            })
            .collect();
        let drifts: Vec<f64> = pairs.iter().map(DescriptorDrift::max).collect();
        let drift_trips = pairs.iter().any(|d| {
            d.mean_p95 > self.options.drift_threshold
                || d.dispersion > self.options.i_drift_threshold
        });
        let want_refit = self.refit_pending || drift_trips;
        let can_refit = fresh.iter().all(Option::is_some);
        let regime_change = alarm_now || self.tiers.iter().any(|t| t.alarmed);

        let mut refitted = false;
        let mut warm = false;
        if want_refit && can_refit {
            #[expect(
                clippy::expect_used,
                reason = "every fresh entry was checked Some in the guard above"
            )]
            let chars: Vec<_> = fresh.iter().cloned().map(|c| c.expect("checked")).collect();
            match self.refit_and_solve(chars) {
                Ok(w) => {
                    refitted = true;
                    warm = w;
                }
                Err(OnlineError::Planning(PlanError::Fitting(_))) => {
                    // Keep serving the old model; retry at the next tick.
                    self.refit_pending = true;
                }
                Err(e) => return Err(e),
            }
        }

        // Statuses fall back to the last known characterization for tiers
        // that were reset this tick.
        let status_chars: Vec<ServiceCharacterization> = self
            .tiers
            .iter()
            .map(|t| {
                #[expect(
                    clippy::expect_used,
                    reason = "refitting is only reached once every tier has been characterized"
                )]
                t.last_char
                    .clone()
                    .expect("fits exist => all characterized once")
            })
            .collect();
        Ok(Some(self.report(
            &status_chars,
            &drifts,
            regime_change,
            refitted,
            warm,
        )))
    }

    /// Fit all tiers, rebuild the network, and solve — warm-started from the
    /// previous stationary vector when the state space is unchanged.
    fn refit_and_solve(
        &mut self,
        chars: Vec<ServiceCharacterization>,
    ) -> Result<bool, OnlineError> {
        let fits = chars
            .iter()
            .map(|c| fit_characterization(c, self.options.i_tolerance))
            .collect::<Result<Vec<_>, _>>()?;
        let net = MapNetwork::tandem(
            self.options.population,
            self.options.think_time,
            fits.iter().map(|f| f.map()).collect(),
        )?;
        let guess = self.pi.take().filter(|p| p.len() == net.state_count());
        let warm = guess.is_some();
        let (solution, pi) = net.solve_tiers(TierPolicy::ONLINE, guess, &self.trace)?;
        self.pi = Some(pi);
        if solution.diagnostics.fell_back {
            self.stats.stalled_fallbacks += 1;
        }
        self.trace.event(
            "online.refit",
            vec![
                ("window", self.window.into()),
                ("warm", warm.into()),
                ("engine", solution.diagnostics.engine.label().into()),
                ("sweeps", solution.diagnostics.iterations.into()),
                ("fell_back", solution.diagnostics.fell_back.into()),
            ],
        );
        self.prediction = Some(Prediction::from((self.options.population, solution)));
        self.fits = fits;
        self.fitted_chars = chars;
        self.refit_pending = false;
        for tier in self.tiers.iter_mut() {
            tier.alarmed = false;
        }
        self.stats.refits += 1;
        if warm {
            self.stats.warm_solves += 1;
        } else {
            self.stats.cold_solves += 1;
        }
        Ok(warm)
    }

    fn report(
        &self,
        chars: &[ServiceCharacterization],
        drifts: &[f64],
        regime_change: bool,
        refitted: bool,
        warm_started: bool,
    ) -> OnlineReport {
        let tiers = chars
            .iter()
            .zip(drifts)
            .zip(&self.tiers)
            .map(|((c, &drift), state)| OnlineTierStatus {
                characterization: c.clone(),
                drift,
                // After a resolving re-fit the latch is already cleared;
                // the report's regime_change flag carries the event.
                alarm: state.alarmed,
            })
            .collect();
        OnlineReport {
            window: self.window,
            elapsed_seconds: self.window as f64 * self.resolution,
            tiers,
            regime_change,
            refitted,
            warm_started,
            #[expect(
                clippy::expect_used,
                reason = "the report path is gated on a prediction existing"
            )]
            prediction: self
                .prediction
                .clone()
                .expect("reports are only emitted once a prediction exists"),
        }
    }

    /// Drain a window source to exhaustion, collecting every replanning
    /// report.
    ///
    /// # Errors
    /// Rejects a source whose shape (resolution, tier count) differs from
    /// the planner's; propagates ingestion errors.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn drain(
        &mut self,
        source: &mut impl WindowSource,
    ) -> Result<Vec<OnlineReport>, OnlineError> {
        if source.tier_count() != self.tiers.len() {
            return Err(OnlineError::InvalidConfig {
                name: "source",
                reason: format!(
                    "planner tracks {} tiers, source produces {}",
                    self.tiers.len(),
                    source.tier_count()
                ),
            });
        }
        if (source.resolution() - self.resolution).abs() > 1e-9 {
            return Err(OnlineError::InvalidConfig {
                name: "source",
                reason: format!(
                    "planner resolution {} vs source {}",
                    self.resolution,
                    source.resolution()
                ),
            });
        }
        let mut reports = Vec::new();
        while let Some(window) = source.next_window()? {
            reports.extend(self.ingest(&window)?);
        }
        Ok(reports)
    }

    /// Monitoring windows ingested so far.
    pub fn windows_ingested(&self) -> usize {
        self.window
    }

    /// Window length in seconds.
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// The latest prediction, once the first fit completed.
    pub fn prediction(&self) -> Option<&Prediction> {
        self.prediction.as_ref()
    }

    /// The current per-tier fits, in tandem order (empty before the first
    /// fit).
    pub fn tier_fits(&self) -> &[FittedMap2] {
        &self.fits
    }

    /// The descriptors the current model was fitted from.
    pub fn fitted_characterizations(&self) -> &[ServiceCharacterization] {
        &self.fitted_chars
    }

    /// Cumulative solver accounting.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }
}

/// Relative descriptor drift, split by threshold class.
#[derive(Debug, Clone, Copy, Default)]
struct DescriptorDrift {
    /// Larger of the mean and p95 relative changes.
    mean_p95: f64,
    /// Index-of-dispersion relative change.
    dispersion: f64,
}

impl DescriptorDrift {
    fn max(&self) -> f64 {
        self.mean_p95.max(self.dispersion)
    }
}

/// Relative change of the three descriptors. The index of dispersion is
/// compared on the Poisson scale (`max(I, 1)` denominator): near-
/// deterministic tiers have `I ≈ 0`, where a plain relative change explodes
/// without any modeling consequence.
fn descriptor_drift(
    old: &ServiceCharacterization,
    new: &ServiceCharacterization,
) -> DescriptorDrift {
    let rel = |a: f64, b: f64, floor: f64| (b - a).abs() / a.abs().max(floor);
    DescriptorDrift {
        mean_p95: rel(old.mean_service_time, new.mean_service_time, 1e-12).max(rel(
            old.p95_service_time,
            new.p95_service_time,
            1e-12,
        )),
        dispersion: rel(old.index_of_dispersion, new.index_of_dispersion, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::TierSample;

    fn window(front: (f64, u64), db: (f64, u64)) -> MonitorWindow {
        MonitorWindow {
            tiers: vec![
                TierSample {
                    utilization: front.0,
                    completions: front.1,
                },
                TierSample {
                    utilization: db.0,
                    completions: db.1,
                },
            ],
        }
    }

    fn quick_options() -> OnlinePlannerOptions {
        let mut options = OnlinePlannerOptions::new(20, 0.5);
        options.min_windows = 120;
        options.replan_every = 20;
        options.detector = CusumOptions {
            warmup_windows: 30,
            slack: 0.25,
            threshold: 6.0,
        };
        options
    }

    #[test]
    fn steady_stream_fits_once_and_reports_on_cadence() {
        let mut planner = OnlinePlanner::new(5.0, 2, quick_options()).unwrap();
        let w = window((0.5, 250), (0.25, 250));
        let mut reports = Vec::new();
        for _ in 0..400 {
            reports.extend(planner.ingest(&w).unwrap());
        }
        assert!(!reports.is_empty());
        // Exactly one fit: a perfectly steady stream never drifts.
        assert_eq!(planner.stats().refits, 1);
        assert_eq!(planner.stats().regime_changes, 0);
        assert!(reports[0].refitted);
        assert!(!reports[0].warm_started, "first solve is cold");
        for r in &reports[1..] {
            assert!(!r.refitted);
            assert!(!r.regime_change);
        }
        // Cadence: after the first fit, one report per replan_every windows.
        let p = planner.prediction().unwrap();
        assert!(p.throughput > 0.0 && p.throughput <= 40.0 / 0.5);
        // Demand recovered: front 10 ms, db 5 ms.
        let fitted = planner.fitted_characterizations();
        assert!((fitted[0].mean_service_time - 0.01).abs() < 1e-9);
        assert!((fitted[1].mean_service_time - 0.005).abs() < 1e-9);
    }

    #[test]
    fn injected_shift_fires_detector_and_refits_warm() {
        let mut planner = OnlinePlanner::new(5.0, 2, quick_options()).unwrap();
        let stable = window((0.5, 250), (0.25, 250));
        let shifted = window((0.5, 250), (0.75, 250)); // db demand 3x
        let mut alarm_window = None;
        let mut refits_before_shift = 0;
        for k in 0..900 {
            let w = if k < 400 { &stable } else { &shifted };
            if let Some(r) = planner.ingest(w).unwrap() {
                if r.regime_change && alarm_window.is_none() {
                    alarm_window = Some(k);
                }
                if k < 400 && r.refitted {
                    refits_before_shift += 1;
                }
            }
        }
        let alarm_window = alarm_window.expect("a 3x demand shift must fire the CUSUM");
        assert!(
            (400..440).contains(&alarm_window),
            "alarm at window {alarm_window}"
        );
        assert_eq!(refits_before_shift, 1, "stable regime: only the first fit");
        assert_eq!(planner.stats().regime_changes, 1);
        // The post-shift re-fit happened once the reset estimators matured,
        // warm-started from the pre-shift stationary vector.
        assert!(planner.stats().refits >= 2);
        assert!(planner.stats().warm_solves >= 1);
        // And the new model reflects the 3x db demand.
        let db = &planner.fitted_characterizations()[1];
        assert!(
            (db.mean_service_time - 0.015).abs() < 1e-3,
            "db demand after shift: {}",
            db.mean_service_time
        );
    }

    #[test]
    fn refit_is_one_call_of_the_online_ladder() {
        // The planner has no engine routing of its own: every re-fit's
        // prediction, stationary vector and solver trace equal a direct call
        // of the online policy on the same network and guess.
        use burstcap_obs::Recorder;
        let solver_events = |events: &[burstcap_obs::Event]| {
            events
                .iter()
                .filter(|e| {
                    ["qn.", "ctmc.", "matfree."]
                        .iter()
                        .any(|p| e.name.starts_with(p))
                })
                .map(|e| {
                    // Span ids count every span the recorder has seen.
                    let fields: Vec<_> = e.fields.iter().filter(|f| f.0 != "id").cloned().collect();
                    (e.name, e.kind, fields)
                })
                .collect::<Vec<_>>()
        };
        let recorder = Recorder::new();
        let mut planner = OnlinePlanner::new(5.0, 2, quick_options())
            .unwrap()
            .with_trace(recorder.trace());
        let stable = window((0.5, 250), (0.25, 250));
        let shifted = window((0.5, 250), (0.75, 250));
        let mut checked = 0;
        for k in 0..900 {
            let guess = planner.pi.clone();
            let seen = recorder.event_count();
            let w = if k < 400 { &stable } else { &shifted };
            let Some(report) = planner.ingest(w).unwrap() else {
                continue;
            };
            if !report.refitted {
                continue;
            }
            let net = MapNetwork::tandem(
                planner.options.population,
                planner.options.think_time,
                planner.tier_fits().iter().map(|f| f.map()).collect(),
            )
            .unwrap();
            let direct = Recorder::new();
            let (expected, pi) = net
                .solve_tiers(TierPolicy::ONLINE, guess, &direct.trace())
                .unwrap();
            let d = expected.diagnostics;
            assert_eq!(
                report.prediction.throughput.to_bits(),
                expected.throughput.to_bits()
            );
            assert_eq!(
                report.prediction,
                Prediction::from((planner.options.population, expected))
            );
            assert_eq!(planner.pi.as_deref(), Some(pi.as_slice()));
            let events = recorder.events();
            assert_eq!(
                solver_events(&events[seen..]),
                solver_events(&direct.events())
            );
            let refit = events[seen..]
                .iter()
                .find(|e| e.name == "online.refit")
                .unwrap();
            assert_eq!(
                refit.fields[2..],
                [
                    ("engine", d.engine.label().into()),
                    ("sweeps", d.iterations.into()),
                    ("fell_back", d.fell_back.into()),
                ]
            );
            checked += 1;
        }
        assert_eq!(
            checked, 2,
            "the cold first fit and the warm post-shift re-fit"
        );
    }

    #[test]
    fn shape_validation() {
        assert!(OnlinePlanner::new(0.0, 2, quick_options()).is_err());
        assert!(OnlinePlanner::new(1.0, 0, quick_options()).is_err());
        let mut bad = quick_options();
        bad.population = 0;
        assert!(OnlinePlanner::new(1.0, 2, bad).is_err());
        let mut bad = quick_options();
        bad.think_time = 0.0;
        assert!(OnlinePlanner::new(1.0, 2, bad).is_err());
        let mut bad = quick_options();
        bad.replan_every = 0;
        assert!(OnlinePlanner::new(1.0, 2, bad).is_err());
        let mut bad = quick_options();
        bad.drift_threshold = f64::NAN;
        assert!(OnlinePlanner::new(1.0, 2, bad).is_err());

        let mut planner = OnlinePlanner::new(1.0, 2, quick_options()).unwrap();
        let three_tiers = MonitorWindow {
            tiers: vec![
                TierSample {
                    utilization: 0.1,
                    completions: 1,
                };
                3
            ],
        };
        assert!(planner.ingest(&three_tiers).is_err());
    }

    #[test]
    fn drain_checks_source_shape() {
        use crate::window::ReplaySource;
        use burstcap_tpcw::monitor::MonitoringSeries;

        let series = MonitoringSeries {
            resolution: 5.0,
            utilization: vec![0.5; 10],
            completions: vec![10; 10],
        };
        let mut planner = OnlinePlanner::new(5.0, 2, quick_options()).unwrap();
        let mut one_tier = ReplaySource::from_tier_series(std::slice::from_ref(&series)).unwrap();
        assert!(planner.drain(&mut one_tier).is_err());
        let mut wrong_res = ReplaySource::from_tier_series(&[
            MonitoringSeries {
                resolution: 1.0,
                ..series.clone()
            },
            MonitoringSeries {
                resolution: 1.0,
                ..series.clone()
            },
        ])
        .unwrap();
        assert!(planner.drain(&mut wrong_res).is_err());
        let mut ok = ReplaySource::from_tier_series(&[series.clone(), series]).unwrap();
        // Too short for any report, but drains cleanly.
        assert!(planner.drain(&mut ok).unwrap().is_empty());
        assert_eq!(planner.windows_ingested(), 10);
    }
}
