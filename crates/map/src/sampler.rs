//! Exact simulation of MAP event sequences.
//!
//! A MAP is simulated phase by phase: in phase `i` the process sojourns for
//! an `Exp(-D0[i][i])` time, then either takes a hidden transition (rates
//! `D0[i][j]`, `j != i`) or an event transition (rates `D1[i][j]`), which
//! emits an inter-event time. The simulator below powers trace generation and
//! the discrete-event service processes of `burstcap-sim`.

use rand::Rng;

use crate::map2::Map2;
use crate::ph::sample_exp;

/// Stateful sampler of inter-event times of a [`Map2`].
///
/// The initial phase is drawn from the embedded stationary distribution, so
/// the emitted sequence is stationary from the first sample.
///
/// # Example
/// ```
/// use burstcap_map::{Map2, sampler::MapSampler};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let map = Map2::poisson(4.0)?;
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut s = MapSampler::new(map, &mut rng);
/// let mean: f64 = (0..10_000).map(|_| s.next_event(&mut rng)).sum::<f64>() / 10_000.0;
/// assert!((mean - 0.25).abs() < 0.02);
/// # Ok::<(), burstcap_map::MapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MapSampler {
    map: Map2,
    phase: usize,
}

impl MapSampler {
    /// Create a sampler starting from the stationary phase distribution.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn new<R: Rng + ?Sized>(map: Map2, rng: &mut R) -> Self {
        let pi = map.embedded_stationary();
        let phase = usize::from(rng.random::<f64>() >= pi[0]);
        MapSampler { map, phase }
    }

    /// Create a sampler pinned to a specific starting phase (0 or 1).
    ///
    /// # Panics
    /// Panics if `phase > 1`; the phase index is structural, not data.
    pub fn with_phase(map: Map2, phase: usize) -> Self {
        assert!(phase < 2, "MAP(2) has phases 0 and 1");
        MapSampler { map, phase }
    }

    /// The current phase (0 or 1).
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// The underlying process.
    pub fn map(&self) -> &Map2 {
        &self.map
    }

    /// Draw the next inter-event time, advancing the hidden phase.
    pub fn next_event<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let d0 = self.map.d0();
        let d1 = self.map.d1();
        let mut elapsed = 0.0;
        loop {
            let i = self.phase;
            let total = -d0[i][i];
            elapsed += sample_exp(rng, total);
            // Split the exit rate between hidden and event transitions.
            let hidden = d0[i][1 - i];
            let u = rng.random::<f64>() * total;
            if u < hidden {
                self.phase = 1 - i;
                continue;
            }
            let mut acc = hidden;
            for (j, &rate) in d1[i].iter().enumerate() {
                acc += rate;
                if u < acc {
                    self.phase = j;
                    return elapsed;
                }
            }
            // Floating-point slack: attribute to the last positive event rate.
            self.phase = if d1[i][1] > 0.0 { 1 } else { 0 };
            return elapsed;
        }
    }

    /// Sample a trace of `n` inter-event times.
    pub fn sample_trace<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) -> Vec<f64> {
        (0..n).map(|_| self.next_event(rng)).collect()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed literal streams; seeds::derive is the production contract"
)]
mod tests {
    use super::*;
    use crate::fit::Map2Fitter;
    use crate::ph::Ph2;
    use burstcap_stats::descriptive::{mean, scv};
    use burstcap_stats::dispersion::index_of_dispersion_counting;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_sampler_matches_rate() {
        let map = Map2::poisson(2.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut s = MapSampler::new(map, &mut rng);
        let trace = s.sample_trace(100_000, &mut rng);
        assert!((mean(&trace).unwrap() - 0.5).abs() < 0.01);
        assert!((scv(&trace).unwrap() - 1.0).abs() < 0.05);
    }

    #[test]
    fn sampler_matches_analytic_moments() {
        let marginal = Ph2::from_mean_scv(1.0, 3.0).unwrap();
        let map = Map2::from_hyper_marginal(marginal, 0.9).unwrap();
        let mut rng = SmallRng::seed_from_u64(17);
        let mut s = MapSampler::new(map, &mut rng);
        let trace = s.sample_trace(400_000, &mut rng);
        assert!(
            (mean(&trace).unwrap() - 1.0).abs() < 0.02,
            "mean {}",
            mean(&trace).unwrap()
        );
        assert!(
            (scv(&trace).unwrap() - 3.0).abs() < 0.25,
            "scv {}",
            scv(&trace).unwrap()
        );
    }

    #[test]
    fn sampler_reproduces_index_of_dispersion() {
        // The empirical I of a sampled trace must match the analytic I.
        let map = Map2Fitter::new(1.0, 30.0, 3.0).fit().unwrap().map();
        let mut rng = SmallRng::seed_from_u64(23);
        let mut s = MapSampler::new(map, &mut rng);
        let trace = s.sample_trace(500_000, &mut rng);
        let est = index_of_dispersion_counting(&trace, 50.0, 0.1).unwrap();
        let i = est.index_of_dispersion();
        assert!(
            (12.0..70.0).contains(&i),
            "empirical I = {i}, analytic I = {}",
            map.index_of_dispersion()
        );
    }

    #[test]
    fn sampler_reproduces_lag1_sign() {
        let marginal = Ph2::from_mean_scv(1.0, 3.0).unwrap();
        let map = Map2::from_hyper_marginal(marginal, 0.95).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut s = MapSampler::new(map, &mut rng);
        let trace = s.sample_trace(300_000, &mut rng);
        let rho1 = burstcap_stats::acf::autocorrelation(&trace, 1).unwrap();
        let analytic = map.lag1_correlation();
        assert!(rho1 > 0.0);
        assert!(
            (rho1 - analytic).abs() < 0.1,
            "rho1 {rho1} vs analytic {analytic}"
        );
    }

    #[test]
    fn with_phase_pins_start() {
        let map = Map2::poisson(1.0).unwrap();
        let s = MapSampler::with_phase(map, 1);
        assert_eq!(s.phase(), 1);
    }

    #[test]
    #[should_panic(expected = "phases 0 and 1")]
    fn with_phase_rejects_out_of_range() {
        let map = Map2::poisson(1.0).unwrap();
        let _ = MapSampler::with_phase(map, 2);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let map = Map2::poisson(1.0).unwrap();
        let run = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut s = MapSampler::new(map, &mut rng);
            s.sample_trace(100, &mut rng)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
