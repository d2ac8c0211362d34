//! The three standard TPC-W transaction mixes as Customer Behavior Model
//! Graphs.
//!
//! TPC-W defines the browsing mix (95% browsing / 5% ordering), the shopping
//! mix (80/20), and the ordering mix (50/50). Navigation is modeled as a
//! CBMG (the paper's Section 3.1): the next transaction type is drawn from a
//! Markov chain over the 14 types whose stationary distribution equals the
//! mix's prescribed web-interaction percentages. A small persistence term
//! keeps consecutive page views correlated, as real sessions are, without
//! disturbing the stationary mix.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::transactions::{TxClass, TxType, ALL_TYPES};
use crate::TpcwError;

/// The three standard TPC-W mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mix {
    /// 95% browsing, 5% ordering (WIPSb) — the bursty, bottleneck-switching
    /// workload of the paper.
    Browsing,
    /// 80% browsing, 20% ordering (WIPS).
    Shopping,
    /// 50% browsing, 50% ordering (WIPSo).
    Ordering,
}

/// Session persistence: probability mass kept on the current transaction
/// type when drawing the next one.
const PERSISTENCE: f64 = 0.15;

impl Mix {
    /// All three mixes in presentation order.
    pub const ALL: [Mix; 3] = [Mix::Browsing, Mix::Shopping, Mix::Ordering];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Mix::Browsing => "browsing",
            Mix::Shopping => "shopping",
            Mix::Ordering => "ordering",
        }
    }

    /// Stationary web-interaction percentages over [`ALL_TYPES`]
    /// (TPC-W specification values; sums to 1).
    pub fn weights(self) -> [f64; 14] {
        match self {
            Mix::Browsing => [
                0.2900, 0.1100, 0.1100, 0.2100, 0.1200, 0.1100, // browsing classes
                0.0200, 0.0082, 0.0075, 0.0069, 0.0030, 0.0025, 0.0010, 0.0009,
            ],
            Mix::Shopping => [
                0.1600, 0.0500, 0.0500, 0.1700, 0.2000, 0.1700, //
                0.1160, 0.0300, 0.0260, 0.0120, 0.0075, 0.0066, 0.0010, 0.0009,
            ],
            Mix::Ordering => [
                0.0912, 0.0046, 0.0046, 0.1235, 0.1453, 0.1308, //
                0.1353, 0.1286, 0.1273, 0.1018, 0.0025, 0.0022, 0.0012, 0.0011,
            ],
        }
    }

    /// Fraction of transactions in the browsing class (0.95 / 0.80 / 0.50).
    pub fn browsing_share(self) -> f64 {
        self.weights()
            .iter()
            .zip(ALL_TYPES.iter())
            .filter(|(_, t)| t.class() == TxClass::Browsing)
            .map(|(w, _)| w)
            .sum()
    }

    /// Draw the next transaction type given the current one, following the
    /// CBMG `P = persistence * I + (1 - persistence) * stationary`.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/tpcw/src/mix.rs:109`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn next_transaction<R: Rng + ?Sized>(self, current: TxType, rng: &mut R) -> TxType {
        if rng.random::<f64>() < PERSISTENCE {
            return current;
        }
        self.sample_stationary(rng)
    }

    /// Draw a transaction type from the stationary mix (used for the first
    /// transaction of a session, which TPC-W starts at Home; we expose both).
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/tpcw/src/mix.rs:109`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn sample_stationary<R: Rng + ?Sized>(self, rng: &mut R) -> TxType {
        let w = self.weights();
        let mut u = rng.random::<f64>();
        for (i, &weight) in w.iter().enumerate() {
            if u < weight {
                return ALL_TYPES[i];
            }
            u -= weight;
        }
        #[expect(clippy::expect_used, reason = "ALL_TYPES is a non-empty const table")]
        *ALL_TYPES.last().expect("non-empty")
    }

    /// Mix-weighted mean front-server demand per transaction (seconds).
    pub fn mean_front_demand(self) -> f64 {
        self.weights()
            .iter()
            .zip(ALL_TYPES.iter())
            .map(|(w, t)| w * t.front_demand())
            .sum()
    }

    /// Mix-weighted mean database demand per transaction (seconds,
    /// uncontended).
    pub fn mean_db_demand(self) -> f64 {
        self.weights()
            .iter()
            .zip(ALL_TYPES.iter())
            .map(|(w, t)| w * t.db_demand())
            .sum()
    }

    /// Parse from a name (case-insensitive).
    ///
    /// # Errors
    /// Rejects unknown names.
    pub fn parse(name: &str) -> Result<Self, TpcwError> {
        match name.to_ascii_lowercase().as_str() {
            "browsing" => Ok(Mix::Browsing),
            "shopping" => Ok(Mix::Shopping),
            "ordering" => Ok(Mix::Ordering),
            other => Err(TpcwError::InvalidParameter {
                name: "mix",
                reason: format!("unknown mix `{other}` (expected browsing/shopping/ordering)"),
            }),
        }
    }
}

impl std::fmt::Display for Mix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
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
    fn weights_sum_to_one() {
        for mix in Mix::ALL {
            let s: f64 = mix.weights().iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{mix}: {s}");
        }
    }

    #[test]
    fn class_shares_match_spec() {
        assert!((Mix::Browsing.browsing_share() - 0.95).abs() < 1e-9);
        assert!((Mix::Shopping.browsing_share() - 0.80).abs() < 1e-9);
        assert!((Mix::Ordering.browsing_share() - 0.50).abs() < 1e-9);
    }

    #[test]
    fn best_sellers_is_11_percent_of_browsing() {
        // Paper, Section 3.3: "in the browsing mix only 11% of requests
        // belongs to the Best Seller transaction type".
        let w = Mix::Browsing.weights();
        assert!((w[TxType::BestSellers.index()] - 0.11).abs() < 1e-9);
    }

    #[test]
    fn cbmg_stationary_matches_weights() {
        // Long navigation from the chain must reproduce the weights.
        let mut rng = SmallRng::seed_from_u64(5);
        let mix = Mix::Shopping;
        let mut counts = [0usize; 14];
        let mut current = TxType::Home;
        let n = 600_000;
        for _ in 0..n {
            current = mix.next_transaction(current, &mut rng);
            counts[current.index()] += 1;
        }
        let w = mix.weights();
        for i in 0..14 {
            let freq = counts[i] as f64 / n as f64;
            assert!(
                (freq - w[i]).abs() < 0.01,
                "type {i}: freq {freq} vs weight {}",
                w[i]
            );
        }
    }

    #[test]
    fn persistence_correlates_consecutive_types() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mix = Mix::Browsing;
        let mut repeats = 0;
        let mut current = TxType::Home;
        let n = 100_000;
        for _ in 0..n {
            let next = mix.next_transaction(current, &mut rng);
            if next == current {
                repeats += 1;
            }
            current = next;
        }
        // Repeat probability exceeds the iid baseline thanks to persistence.
        let freq = repeats as f64 / n as f64;
        let iid_baseline: f64 = mix.weights().iter().map(|w| w * w).sum();
        assert!(
            freq > iid_baseline + 0.05,
            "freq {freq} vs baseline {iid_baseline}"
        );
    }

    #[test]
    fn mean_demands_give_expected_saturation_order() {
        // Browsing must be the most DB-heavy mix; ordering the lightest on
        // the front server — this drives the paper's saturation ordering.
        let b_db = Mix::Browsing.mean_db_demand();
        let s_db = Mix::Shopping.mean_db_demand();
        let o_db = Mix::Ordering.mean_db_demand();
        assert!(
            b_db > s_db && s_db > o_db,
            "db demands: {b_db}, {s_db}, {o_db}"
        );
        let b_fs = Mix::Browsing.mean_front_demand();
        let o_fs = Mix::Ordering.mean_front_demand();
        assert!(
            o_fs < b_fs,
            "ordering should be lighter on the front server"
        );
    }

    #[test]
    fn parse_roundtrip() {
        for mix in Mix::ALL {
            assert_eq!(Mix::parse(mix.name()).unwrap(), mix);
        }
        assert_eq!(Mix::parse("BROWSING").unwrap(), Mix::Browsing);
        assert!(Mix::parse("bogus").is_err());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Mix::Browsing.to_string(), "browsing");
    }
}
