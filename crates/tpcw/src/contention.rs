//! The "hidden resource contention" model (paper, Section 3.3).
//!
//! The paper traces the browsing mix's service burstiness to specific
//! transaction types: *"Best Seller and Home transactions share some
//! resources required for their processing at the database server, and it
//! leads to extreme burstiness during such time periods"*. This module
//! models that mechanism directly: the database has a shared resource (think
//! of a hot table / buffer-pool region). When a Best Sellers query arrives
//! while another shared-table query is already resident, the resource may
//! enter a **contended episode** during which all shared-table queries cost a
//! multiplicative factor more CPU. Episodes end after an exponentially
//! distributed duration.
//!
//! The trigger is *concurrency-driven*, which creates the positive feedback
//! the paper observes: contention slows the shared queries, the DB queue
//! grows, concurrency rises, episodes chain — a burst. Under mixes where the
//! database is lightly loaded (shopping, ordering), concurrency is rare and
//! episodes stay short and isolated, so the same mechanism produces high
//! *variability* but no bottleneck switch, exactly the asymmetry of the
//! paper's Figures 5-6.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the shared-resource contention model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContentionConfig {
    /// Probability that a qualifying Best Sellers arrival triggers an
    /// episode (only outside episodes and cooldowns).
    pub trigger_probability: f64,
    /// Minimum number of Best Sellers queries already resident at the
    /// database for an arrival to qualify. Concurrency-gated triggering makes
    /// episode frequency scale superlinearly with Best Sellers traffic and
    /// database congestion — the browsing mix (11% Best Sellers) contends
    /// often under load, the shopping mix (5%) rarely, ordering (0.46%)
    /// almost never.
    pub trigger_threshold: usize,
    /// Mean episode duration in seconds (exponentially distributed).
    pub mean_duration: f64,
    /// Mean refractory time after an episode during which no new episode can
    /// start (the lock queue drains / caches refill), seconds.
    pub mean_cooldown: f64,
    /// Multiplicative CPU inflation applied to shared-table queries issued
    /// during an episode.
    pub slowdown: f64,
    /// Rate (episodes per second) at which episodes also start
    /// *spontaneously* while the resource is uncontended and outside
    /// cooldown — background database work (checkpoints, buffer-pool scans,
    /// statistics refreshes) that makes the service process bursty even at
    /// light load. Load-driven concurrency triggering amplifies this
    /// baseline under the browsing mix.
    pub spontaneous_rate: f64,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        ContentionConfig {
            trigger_probability: 0.1,
            trigger_threshold: 2,
            mean_duration: 8.0,
            mean_cooldown: 12.0,
            slowdown: 6.0,
            spontaneous_rate: 0.025,
        }
    }
}

impl ContentionConfig {
    /// Disable contention entirely (for ablation experiments).
    pub fn disabled() -> Self {
        ContentionConfig {
            trigger_probability: 0.0,
            trigger_threshold: usize::MAX,
            mean_duration: 1.0,
            mean_cooldown: 1.0,
            slowdown: 1.0,
            spontaneous_rate: 0.0,
        }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.trigger_probability) {
            return Err(format!(
                "trigger_probability must lie in [0, 1], got {}",
                self.trigger_probability
            ));
        }
        if self.mean_duration <= 0.0 || !self.mean_duration.is_finite() {
            return Err(format!(
                "mean_duration must be positive, got {}",
                self.mean_duration
            ));
        }
        if self.mean_cooldown < 0.0 || !self.mean_cooldown.is_finite() {
            return Err(format!(
                "mean_cooldown must be non-negative, got {}",
                self.mean_cooldown
            ));
        }
        if self.slowdown < 1.0 || !self.slowdown.is_finite() {
            return Err(format!("slowdown must be >= 1, got {}", self.slowdown));
        }
        if self.spontaneous_rate < 0.0 || !self.spontaneous_rate.is_finite() {
            return Err(format!(
                "spontaneous_rate must be non-negative, got {}",
                self.spontaneous_rate
            ));
        }
        Ok(())
    }
}

/// Runtime state of the shared resource.
#[derive(Debug, Clone)]
pub struct SharedResource {
    config: ContentionConfig,
    contended_until: f64,
    cooldown_until: f64,
    episode_start: f64,
    episodes: u64,
    accumulated: f64,
    next_spontaneous: f64,
}

impl SharedResource {
    /// Create the resource in the uncontended state.
    pub fn new(config: ContentionConfig) -> Self {
        SharedResource {
            config,
            contended_until: f64::NEG_INFINITY,
            cooldown_until: f64::NEG_INFINITY,
            episode_start: f64::NEG_INFINITY,
            episodes: 0,
            accumulated: 0.0,
            next_spontaneous: f64::NAN,
        }
    }

    /// Advance the spontaneous-episode hazard to time `now`. Call on every
    /// database query arrival (the polling granularity; queries arrive far
    /// more often than episodes occur).
    pub fn poll<R: Rng + ?Sized>(&mut self, now: f64, rng: &mut R) {
        if self.config.spontaneous_rate <= 0.0 {
            return;
        }
        if self.next_spontaneous.is_nan() {
            self.next_spontaneous =
                now - (1.0 - rng.random::<f64>()).ln() / self.config.spontaneous_rate;
        }
        if self.is_contended(now) || now < self.cooldown_until {
            return;
        }
        if now >= self.next_spontaneous {
            self.start_episode(now, rng);
            self.next_spontaneous = self.cooldown_until
                - (1.0 - rng.random::<f64>()).ln() / self.config.spontaneous_rate;
        }
    }

    fn start_episode<R: Rng + ?Sized>(&mut self, now: f64, rng: &mut R) {
        let duration = -(1.0 - rng.random::<f64>()).ln() * self.config.mean_duration;
        let cooldown = -(1.0 - rng.random::<f64>()).ln() * self.config.mean_cooldown;
        if self.episodes > 0 {
            self.accumulated += self.contended_until - self.episode_start;
        }
        self.episodes += 1;
        self.episode_start = now;
        self.contended_until = now + duration;
        self.cooldown_until = self.contended_until + cooldown;
    }

    /// Whether an episode is active at time `now`.
    pub fn is_contended(&self, now: f64) -> bool {
        now < self.contended_until
    }

    /// A Best Sellers query arrives at time `now` with
    /// `resident_best_sellers` Best Sellers queries already at the database.
    /// May start an episode; triggers during an episode or its cooldown are
    /// ignored (episodes have a fixed exponential duration followed by a
    /// refractory period, keeping bursts episodic rather than permanent).
    pub fn on_best_sellers_arrival<R: Rng + ?Sized>(
        &mut self,
        now: f64,
        resident_best_sellers: usize,
        rng: &mut R,
    ) {
        if resident_best_sellers < self.config.trigger_threshold {
            return;
        }
        if self.is_contended(now) || now < self.cooldown_until {
            return;
        }
        if rng.random::<f64>() >= self.config.trigger_probability {
            return;
        }
        self.start_episode(now, rng);
    }

    /// Account for contended time up to `now` (call at the measurement
    /// horizon; idempotent).
    pub fn finish(&mut self, now: f64) {
        if self.episodes > 0 {
            let end = self.contended_until.min(now);
            if end > self.episode_start {
                self.accumulated += end - self.episode_start;
                self.episode_start = end;
            }
        }
    }

    /// Total seconds spent contended (valid after [`finish`](Self::finish)).
    pub fn contended_seconds(&self) -> f64 {
        self.accumulated
    }

    /// CPU multiplier for a shared-table query issued at `now`.
    pub fn multiplier(&self, now: f64) -> f64 {
        if self.is_contended(now) {
            self.config.slowdown
        } else {
            1.0
        }
    }

    /// Number of episodes started.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// The configuration in force.
    pub fn config(&self) -> &ContentionConfig {
        &self.config
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed literal streams; seeds::derive is the production contract"
)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn defaults_validate() {
        assert!(ContentionConfig::default().validate().is_ok());
        assert!(ContentionConfig::disabled().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = ContentionConfig {
            trigger_probability: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ContentionConfig {
            mean_duration: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ContentionConfig {
            slowdown: 0.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn no_trigger_without_concurrency() {
        let mut r = SharedResource::new(ContentionConfig {
            trigger_probability: 1.0,
            trigger_threshold: 1,
            mean_duration: 10.0,
            mean_cooldown: 0.0,
            slowdown: 6.0,
            spontaneous_rate: 0.0,
        });
        let mut rng = SmallRng::seed_from_u64(1);
        r.on_best_sellers_arrival(0.0, 0, &mut rng);
        assert!(!r.is_contended(0.0));
        assert_eq!(r.episodes(), 0);
    }

    #[test]
    fn trigger_with_concurrency_starts_episode() {
        let mut r = SharedResource::new(ContentionConfig {
            trigger_probability: 1.0,
            trigger_threshold: 1,
            mean_duration: 10.0,
            mean_cooldown: 0.0,
            slowdown: 6.0,
            spontaneous_rate: 0.0,
        });
        let mut rng = SmallRng::seed_from_u64(2);
        r.on_best_sellers_arrival(5.0, 2, &mut rng);
        assert!(r.is_contended(5.0));
        assert!((r.multiplier(5.0) - 6.0).abs() < 1e-12);
        assert_eq!(r.episodes(), 1);
    }

    #[test]
    fn episodes_expire() {
        let mut r = SharedResource::new(ContentionConfig {
            trigger_probability: 1.0,
            trigger_threshold: 1,
            mean_duration: 0.001,
            mean_cooldown: 0.0,
            slowdown: 6.0,
            spontaneous_rate: 0.0,
        });
        let mut rng = SmallRng::seed_from_u64(3);
        r.on_best_sellers_arrival(0.0, 1, &mut rng);
        assert!(!r.is_contended(1000.0));
        assert_eq!(r.multiplier(1000.0), 1.0);
    }

    #[test]
    fn triggers_during_episode_are_ignored() {
        let mut r = SharedResource::new(ContentionConfig {
            trigger_probability: 1.0,
            trigger_threshold: 1,
            mean_duration: 5.0,
            mean_cooldown: 0.0,
            slowdown: 6.0,
            spontaneous_rate: 0.0,
        });
        let mut rng = SmallRng::seed_from_u64(4);
        r.on_best_sellers_arrival(0.0, 1, &mut rng);
        let first_end = r.contended_until;
        r.on_best_sellers_arrival(first_end - 0.01, 3, &mut rng);
        assert_eq!(
            r.episodes(),
            1,
            "mid-episode triggers must not extend or recount"
        );
        assert!((r.contended_until - first_end).abs() < 1e-12);
    }

    #[test]
    fn cooldown_blocks_immediate_retrigger() {
        let mut r = SharedResource::new(ContentionConfig {
            trigger_probability: 1.0,
            trigger_threshold: 1,
            mean_duration: 0.5,
            mean_cooldown: 100.0,
            slowdown: 6.0,
            spontaneous_rate: 0.0,
        });
        let mut rng = SmallRng::seed_from_u64(8);
        r.on_best_sellers_arrival(0.0, 1, &mut rng);
        let end = r.contended_until;
        // Shortly after the episode ends we are in cooldown: no new episode.
        r.on_best_sellers_arrival(end + 0.1, 4, &mut rng);
        assert_eq!(r.episodes(), 1);
    }

    #[test]
    fn disabled_config_never_triggers() {
        let mut r = SharedResource::new(ContentionConfig::disabled());
        let mut rng = SmallRng::seed_from_u64(5);
        for k in 0..1000 {
            r.on_best_sellers_arrival(k as f64, 5, &mut rng);
        }
        assert_eq!(r.episodes(), 0);
    }

    #[test]
    fn trigger_probability_is_respected() {
        let mut r = SharedResource::new(ContentionConfig {
            trigger_probability: 0.2,
            trigger_threshold: 1,
            mean_duration: 1e-6, // effectively instantaneous episodes
            mean_cooldown: 0.0,
            slowdown: 2.0,
            spontaneous_rate: 0.0,
        });
        let mut rng = SmallRng::seed_from_u64(6);
        for k in 0..100_000 {
            r.on_best_sellers_arrival(k as f64, 1, &mut rng);
        }
        let rate = r.episodes() as f64 / 100_000.0;
        assert!((rate - 0.2).abs() < 0.01, "episode rate {rate}");
    }
}
