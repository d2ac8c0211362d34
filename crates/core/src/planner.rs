//! The capacity planner: measurements in, throughput predictions out.
//!
//! [`CapacityPlanner`] is the paper's proposed model: characterize each
//! tier (mean, `I`, p95), fit a MAP(2) per tier with the Section 4.1 search,
//! and solve the closed MAP queueing network of Figure 9 exactly for any
//! what-if population. [`MvaBaseline`] is the Section 3.4 strawman — the
//! same network parameterized by mean demands only — whose failure under
//! bottleneck switch motivates the methodology.
//!
//! The think time used for *prediction* (`Z_qn`) is deliberately decoupled
//! from whatever think time generated the measurements (`Z_estim`): Section
//! 4.2 shows that measuring with a larger `Z_estim` (fewer completions per
//! monitoring window, i.e. finer granularity) improves the MAP fit without
//! touching the model's own think time.

use serde::{Deserialize, Serialize};

use burstcap_map::fit::{FittedMap2, Map2Fitter};
use burstcap_obs::Trace;
use burstcap_qn::mapqn::{MapNetwork, MapQnSolution, TierPolicy};
use burstcap_qn::mva::ClosedMva;

use crate::characterize::{characterize, CharacterizeOptions, ServiceCharacterization};
use crate::measurements::TierMeasurements;
use crate::PlanError;

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerOptions {
    /// Characterization knobs (Figure 2 tolerance etc.).
    pub characterize: CharacterizeOptions,
    /// Relative tolerance on the fitted index of dispersion (paper: ±20%).
    pub i_tolerance: f64,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            characterize: CharacterizeOptions::default(),
            i_tolerance: 0.2,
        }
    }
}

/// A throughput prediction for one population.
///
/// Per-tier utilizations live in `utilization` (tandem order); the scalar
/// `*_front` / `*_db` fields mirror the first and last tier for continuity
/// with the two-tier model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Target number of emulated browsers (customers).
    pub population: usize,
    /// Predicted system throughput (requests/second).
    pub throughput: f64,
    /// Predicted per-tier utilization, in tier order.
    pub utilization: Vec<f64>,
    /// Predicted first-tier utilization (`utilization[0]`).
    pub utilization_front: f64,
    /// Predicted last-tier utilization (`utilization[M - 1]`).
    pub utilization_db: f64,
    /// Predicted mean response time per request (seconds).
    pub response_time: f64,
}

impl From<(usize, MapQnSolution)> for Prediction {
    fn from((population, s): (usize, MapQnSolution)) -> Self {
        Prediction {
            population,
            throughput: s.throughput,
            utilization_front: s.utilization_front,
            utilization_db: s.utilization_db,
            utilization: s.utilization,
            response_time: s.response_time,
        }
    }
}

/// The burstiness-aware planner (the paper's "Model"), over any number of
/// tiers: each tier is characterized by (mean, `I`, p95), fitted to a
/// MAP(2), and the tiers form the tandem MAP network of `burstcap_qn`.
#[derive(Debug, Clone)]
pub struct CapacityPlanner {
    tiers: Vec<ServiceCharacterization>,
    fits: Vec<FittedMap2>,
}

impl CapacityPlanner {
    /// Build a two-tier planner from front/database monitoring series using
    /// default options (the paper's model; thin wrapper over
    /// [`CapacityPlanner::from_tier_measurements`]).
    ///
    /// # Errors
    /// Propagates characterization and fitting failures.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn from_measurements(
        front: &TierMeasurements,
        db: &TierMeasurements,
    ) -> Result<Self, PlanError> {
        Self::with_options(front, db, PlannerOptions::default())
    }

    /// Build a two-tier planner with explicit options (thin wrapper over
    /// [`CapacityPlanner::from_tier_measurements`]).
    ///
    /// # Errors
    /// Propagates characterization and fitting failures.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn with_options(
        front: &TierMeasurements,
        db: &TierMeasurements,
        options: PlannerOptions,
    ) -> Result<Self, PlanError> {
        Self::from_tier_measurements(&[front, db], options)
    }

    /// Build a planner from monitoring series for any number of tiers, in
    /// tandem order (e.g. web, app, db).
    ///
    /// # Errors
    /// Rejects an empty tier list; propagates characterization and fitting
    /// failures.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn from_tier_measurements(
        tiers: &[&TierMeasurements],
        options: PlannerOptions,
    ) -> Result<Self, PlanError> {
        let characterized = tiers
            .iter()
            .map(|m| characterize(m, options.characterize))
            .collect::<Result<Vec<_>, _>>()?;
        Self::from_tier_characterizations(characterized, options)
    }

    /// Build a two-tier planner directly from known characterizations
    /// (useful for what-if studies without raw measurements; thin wrapper
    /// over [`CapacityPlanner::from_tier_characterizations`]).
    ///
    /// # Errors
    /// Propagates fitting failures.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn from_characterizations(
        front: ServiceCharacterization,
        db: ServiceCharacterization,
        options: PlannerOptions,
    ) -> Result<Self, PlanError> {
        Self::from_tier_characterizations(vec![front, db], options)
    }

    /// Build a planner from known per-tier characterizations, in tandem
    /// order.
    ///
    /// # Errors
    /// Rejects an empty tier list; propagates fitting failures.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn from_tier_characterizations(
        tiers: Vec<ServiceCharacterization>,
        options: PlannerOptions,
    ) -> Result<Self, PlanError> {
        if tiers.is_empty() {
            return Err(PlanError::InvalidMeasurements {
                reason: "need at least one tier".into(),
            });
        }
        let fits = tiers
            .iter()
            .map(|c| fit_characterization(c, options.i_tolerance))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CapacityPlanner { tiers, fits })
    }

    /// Every tier's measured descriptors, in tandem order.
    pub fn tier_characterizations(&self) -> &[ServiceCharacterization] {
        &self.tiers
    }

    /// Every tier's fitted MAP(2) with diagnostics, in tandem order.
    pub fn tier_fits(&self) -> &[FittedMap2] {
        &self.fits
    }

    /// Number of modeled tiers.
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// The first tier's measured descriptors (the front tier of the
    /// two-tier model).
    pub fn front_characterization(&self) -> &ServiceCharacterization {
        &self.tiers[0]
    }

    /// The last tier's measured descriptors (the database tier of the
    /// two-tier model).
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn db_characterization(&self) -> &ServiceCharacterization {
        #[expect(
            clippy::expect_used,
            reason = "the constructor rejects empty tier lists"
        )]
        self.tiers.last().expect("validated non-empty")
    }

    /// The first tier's fitted MAP(2) with diagnostics.
    pub fn front_fit(&self) -> &FittedMap2 {
        &self.fits[0]
    }

    /// The last tier's fitted MAP(2) with diagnostics.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn db_fit(&self) -> &FittedMap2 {
        #[expect(
            clippy::expect_used,
            reason = "the constructor rejects empty tier lists"
        )]
        self.fits.last().expect("validated non-empty")
    }

    /// The what-if model at `population` customers and think time
    /// `think_time`: the closed tandem MAP network built from this planner's
    /// fitted tiers, **unsolved**. The escape hatch for callers that drive
    /// the solve themselves — e.g. chaining warm-started solves via
    /// [`burstcap_qn::mapqn::MapNetwork::solve_tiers`], or inspecting the
    /// generator — which [`CapacityPlanner::predict`]'s one-shot cold solve
    /// cannot express.
    ///
    /// # Errors
    /// Propagates network-construction failures (zero population,
    /// non-positive think time).
    pub fn network(&self, population: usize, think_time: f64) -> Result<MapNetwork, PlanError> {
        Ok(MapNetwork::tandem(
            population,
            think_time,
            self.fits.iter().map(|f| f.map()).collect(),
        )?)
    }

    /// Predict performance at `population` customers with think time
    /// `think_time` (the model's `Z_qn`), solved by the batch engine ladder
    /// ([`TierPolicy::BATCH`]): small state spaces go to the direct
    /// level-reduction, larger ones to the sparse CSR engine (falling back
    /// to the direct solver if it stalls), and the largest to the
    /// matrix-free engine.
    ///
    /// # Errors
    /// Propagates model-solution failures.
    pub fn predict(&self, population: usize, think_time: f64) -> Result<Prediction, PlanError> {
        let net = self.network(population, think_time)?;
        let (solution, _) = net.solve_tiers(TierPolicy::BATCH, None, &Trace::noop())?;
        Ok((population, solution).into())
    }

    /// Predict a whole population sweep.
    ///
    /// # Errors
    /// Propagates the first per-population failure.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn predict_sweep(
        &self,
        populations: &[usize],
        think_time: f64,
    ) -> Result<Vec<Prediction>, PlanError> {
        populations
            .iter()
            .map(|&n| self.predict(n, think_time))
            .collect()
    }
}

/// Fit one tier's MAP(2) from its three descriptors, with the planner's
/// conventions: the p95 target is floored just above the mean (degenerate
/// tails otherwise make the fit infeasible), and underdispersed targets go
/// through the fitter's *recorded* `I` floor.
///
/// The estimators can produce `I` at or below the 1/2 floor of two-phase
/// processes on nearly deterministic tiers, where burstiness is irrelevant
/// anyway: the fitter's opt-in floor raises such targets and records the
/// adjustment on the fit ([`FittedMap2::floored_target_i`]) instead of
/// clamping silently here.
///
/// Public because the online planner re-fits tiers one at a time as their
/// streaming descriptors drift, outside a full [`CapacityPlanner`] rebuild.
///
/// # Errors
/// Propagates fitting failures.
///
/// # Panics
///
/// Only if a justified internal invariant is violated, never for inputs
/// this API accepts; `burstcap-lint report` lists the sites.
pub fn fit_characterization(
    c: &ServiceCharacterization,
    i_tolerance: f64,
) -> Result<FittedMap2, PlanError> {
    let p95 = c.p95_service_time.max(c.mean_service_time * 1.05);
    Ok(
        Map2Fitter::new(c.mean_service_time, c.index_of_dispersion, p95)
            .i_tolerance(i_tolerance)
            .i_floor(true)
            .fit()?,
    )
}

/// The Section 3.4 baseline: plain MVA on mean demands, over any number of
/// tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct MvaBaseline {
    demands: Vec<f64>,
}

impl MvaBaseline {
    /// Estimate front/database demands from the same monitoring series the
    /// two-tier planner uses (utilization-law regression).
    ///
    /// # Errors
    /// Propagates regression failures.
    pub fn from_measurements(
        front: &TierMeasurements,
        db: &TierMeasurements,
    ) -> Result<Self, PlanError> {
        Self::from_tier_measurements(&[front, db])
    }

    /// Estimate per-tier demands from monitoring series for any number of
    /// tiers, in tandem order.
    ///
    /// # Errors
    /// Rejects an empty tier list; propagates regression failures.
    pub fn from_tier_measurements(tiers: &[&TierMeasurements]) -> Result<Self, PlanError> {
        if tiers.is_empty() {
            return Err(PlanError::InvalidMeasurements {
                reason: "need at least one tier".into(),
            });
        }
        let demands = tiers
            .iter()
            .map(|m| {
                burstcap_stats::regression::estimate_demand(
                    m.utilization(),
                    m.completions(),
                    m.resolution(),
                )
                .map(|d| d.mean_service_time)
                .map_err(PlanError::from)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MvaBaseline { demands })
    }

    /// Build from known front/database mean demands.
    ///
    /// # Errors
    /// Rejects non-positive demands.
    pub fn from_demands(front_demand: f64, db_demand: f64) -> Result<Self, PlanError> {
        Self::from_demand_vector(vec![front_demand, db_demand])
    }

    /// Build from known per-tier mean demands, in tandem order.
    ///
    /// # Errors
    /// Rejects an empty list and non-positive demands.
    pub fn from_demand_vector(demands: Vec<f64>) -> Result<Self, PlanError> {
        if demands.is_empty() {
            return Err(PlanError::InvalidMeasurements {
                reason: "need at least one tier".into(),
            });
        }
        if demands.iter().any(|&d| d <= 0.0 || !d.is_finite()) {
            return Err(PlanError::InvalidMeasurements {
                reason: "demands must be positive".into(),
            });
        }
        Ok(MvaBaseline { demands })
    }

    /// The per-tier demands used by the baseline, in tandem order.
    pub fn demands(&self) -> &[f64] {
        &self.demands
    }

    /// The first tier's demand.
    pub fn front_demand(&self) -> f64 {
        self.demands[0]
    }

    /// The last tier's demand.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn db_demand(&self) -> f64 {
        #[expect(
            clippy::expect_used,
            reason = "the constructor rejects empty tier lists"
        )]
        *self.demands.last().expect("validated non-empty")
    }

    /// Exact MVA prediction at `population` customers.
    ///
    /// # Errors
    /// Propagates solver parameter errors.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn predict(&self, population: usize, think_time: f64) -> Result<Prediction, PlanError> {
        let mva = ClosedMva::new(self.demands.clone(), think_time)?;
        let s = mva.solve(population)?;
        Ok(Prediction {
            population,
            throughput: s.throughput,
            utilization_front: s.utilization[0],
            #[expect(
                clippy::expect_used,
                reason = "solutions come from networks validated to hold at least one station"
            )]
            utilization_db: *s.utilization.last().expect("at least one station"),
            utilization: s.utilization,
            response_time: s.response_time,
        })
    }

    /// Predict a whole population sweep.
    ///
    /// # Errors
    /// Propagates the first per-population failure.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn predict_sweep(
        &self,
        populations: &[usize],
        think_time: f64,
    ) -> Result<Vec<Prediction>, PlanError> {
        populations
            .iter()
            .map(|&n| self.predict(n, think_time))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic steady measurements: utilization u, n completions/window.
    fn steady(u: f64, n: u64) -> TierMeasurements {
        TierMeasurements::new(5.0, vec![u; 300], vec![n; 300]).unwrap()
    }

    /// Bursty measurements: alternating regimes of fast and slow windows
    /// with matching utilization so the regression stays consistent.
    fn bursty(base_n: u64) -> TierMeasurements {
        let mut util = Vec::new();
        let mut n = Vec::new();
        for block in 0..30 {
            for _ in 0..10 {
                if block % 2 == 0 {
                    util.push(0.9);
                    n.push(base_n / 4);
                } else {
                    util.push(0.9);
                    n.push(base_n);
                }
            }
        }
        TierMeasurements::new(5.0, util, n).unwrap()
    }

    #[test]
    fn planner_from_steady_measurements() {
        let front = steady(0.5, 250); // S_f = 10 ms
        let db = steady(0.25, 250); // S_d = 5 ms
        let planner = CapacityPlanner::from_measurements(&front, &db).unwrap();
        assert!((planner.front_characterization().mean_service_time - 0.01).abs() < 1e-9);
        assert!((planner.db_characterization().mean_service_time - 0.005).abs() < 1e-9);
        let p = planner.predict(30, 0.5).unwrap();
        assert!(p.throughput > 0.0 && p.throughput <= 100.0);
    }

    #[test]
    fn planner_and_mva_agree_for_low_burstiness() {
        let front = steady(0.5, 250);
        let db = steady(0.25, 250);
        let planner = CapacityPlanner::from_measurements(&front, &db).unwrap();
        let mva = MvaBaseline::from_measurements(&front, &db).unwrap();
        for n in [5, 25, 60] {
            let a = planner.predict(n, 0.5).unwrap().throughput;
            let b = mva.predict(n, 0.5).unwrap().throughput;
            assert!(
                (a - b).abs() / b < 0.08,
                "N={n}: planner {a} vs mva {b} — low-I targets should nearly coincide"
            );
        }
    }

    #[test]
    fn bursty_db_lowers_prediction_vs_mva() {
        let front = steady(0.5, 250);
        let db = bursty(250);
        let planner = CapacityPlanner::from_measurements(&front, &db).unwrap();
        let mva = MvaBaseline::from_measurements(&front, &db).unwrap();
        assert!(
            planner.db_characterization().index_of_dispersion > 10.0,
            "I_db = {}",
            planner.db_characterization().index_of_dispersion
        );
        let n = 60;
        let a = planner.predict(n, 0.5).unwrap().throughput;
        let b = mva.predict(n, 0.5).unwrap().throughput;
        assert!(a < b, "burst-aware prediction {a} must be below MVA {b}");
    }

    #[test]
    fn sweep_is_monotone() {
        let planner = CapacityPlanner::from_measurements(&steady(0.5, 250), &bursty(250)).unwrap();
        let sweep = planner.predict_sweep(&[5, 15, 30], 0.5).unwrap();
        assert!(sweep
            .windows(2)
            .all(|w| w[1].throughput >= w[0].throughput - 1e-9));
    }

    #[test]
    fn mva_baseline_validation() {
        assert!(MvaBaseline::from_demands(0.0, 0.1).is_err());
        let b = MvaBaseline::from_demands(0.01, 0.005).unwrap();
        assert_eq!(b.front_demand(), 0.01);
        let p = b.predict(100, 0.5).unwrap();
        assert!(p.throughput <= 100.0 + 1e-9);
    }

    #[test]
    fn three_tier_planner_matches_mva_for_low_burstiness() {
        // Web + app + db, all steady: the MAP model degenerates toward the
        // product-form solution, so the three-tier planner and three-tier
        // MVA baseline nearly coincide.
        let web = steady(0.2, 250); // S_web = 4 ms
        let app = steady(0.5, 250); // S_app = 10 ms
        let db = steady(0.25, 250); // S_db = 5 ms
        let planner =
            CapacityPlanner::from_tier_measurements(&[&web, &app, &db], PlannerOptions::default())
                .unwrap();
        assert_eq!(planner.tier_count(), 3);
        assert!((planner.tier_characterizations()[0].mean_service_time - 0.004).abs() < 1e-9);
        // Scalar accessors point at the first/last tier.
        assert_eq!(
            planner.front_characterization().mean_service_time,
            planner.tier_characterizations()[0].mean_service_time
        );
        assert_eq!(
            planner.db_characterization().mean_service_time,
            planner.tier_characterizations()[2].mean_service_time
        );
        let mva = MvaBaseline::from_tier_measurements(&[&web, &app, &db]).unwrap();
        assert_eq!(mva.demands().len(), 3);
        for n in [5, 20, 50] {
            let a = planner.predict(n, 0.5).unwrap();
            let b = mva.predict(n, 0.5).unwrap();
            assert_eq!(a.utilization.len(), 3);
            assert!(
                (a.throughput - b.throughput).abs() / b.throughput < 0.08,
                "N={n}: planner {} vs mva {}",
                a.throughput,
                b.throughput
            );
        }
    }

    #[test]
    fn two_tier_wrappers_match_tier_vector_entry_points() {
        // The historical two-tier constructors are thin wrappers: same
        // predictions as the explicit tier-vector path.
        let front = steady(0.5, 250);
        let db = bursty(250);
        let a = CapacityPlanner::from_measurements(&front, &db).unwrap();
        let b = CapacityPlanner::from_tier_measurements(&[&front, &db], PlannerOptions::default())
            .unwrap();
        let pa = a.predict(20, 0.5).unwrap();
        let pb = b.predict(20, 0.5).unwrap();
        assert_eq!(pa.throughput, pb.throughput);
        assert_eq!(pa.utilization, pb.utilization);
        let ma = MvaBaseline::from_measurements(&front, &db).unwrap();
        let mb = MvaBaseline::from_tier_measurements(&[&front, &db]).unwrap();
        assert_eq!(ma, mb);
    }

    #[test]
    fn planner_records_floored_dispersion_instead_of_clamping() {
        // A deterministic tier measures I = 0; the fit succeeds at the
        // floor and the adjustment is visible in the diagnostics (the old
        // .max(0.51) clamp left no trace).
        let planner = CapacityPlanner::from_measurements(&steady(0.5, 250), &bursty(250)).unwrap();
        let front_fit = planner.front_fit();
        assert!(
            front_fit.floored_target_i().is_some(),
            "steady tier (I ~ 0) must record the floor adjustment"
        );
        assert!(
            planner.db_fit().floored_target_i().is_none(),
            "bursty tier must fit its measured I unmodified"
        );
    }

    #[test]
    fn empty_tier_lists_rejected() {
        assert!(
            CapacityPlanner::from_tier_characterizations(vec![], PlannerOptions::default())
                .is_err()
        );
        assert!(MvaBaseline::from_tier_measurements(&[]).is_err());
        assert!(MvaBaseline::from_demand_vector(vec![]).is_err());
    }

    #[test]
    fn characterizations_roundtrip_through_planner() {
        let front = steady(0.5, 250);
        let db = bursty(250);
        let p1 = CapacityPlanner::from_measurements(&front, &db).unwrap();
        let p2 = CapacityPlanner::from_characterizations(
            p1.front_characterization().clone(),
            p1.db_characterization().clone(),
            PlannerOptions::default(),
        )
        .unwrap();
        let a = p1.predict(20, 0.5).unwrap().throughput;
        let b = p2.predict(20, 0.5).unwrap().throughput;
        assert!((a - b).abs() / a < 1e-9);
    }
}
