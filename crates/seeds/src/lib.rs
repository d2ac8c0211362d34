//! Deterministic RNG stream derivation for independent replications.
//!
//! Every stochastic component in the workspace seeds its generator through
//! this crate, so that:
//!
//! * **cross-simulator runs are decorrelated** — `MTrace1`, the closed MAP
//!   network, and the TPC-W testbed invoked with the *same* user seed no
//!   longer consume the identical xoshiro stream (they used to, except for
//!   the testbed's ad-hoc `seed ^ TPCW_SEED` salting);
//! * **replications are independent by construction** — replication `i` of
//!   component `c` under master seed `s` gets the stream
//!   `derive(s, c, i)`, and the triple fully determines the stream, so a
//!   replication's result never depends on which worker thread ran it or
//!   how many replications run alongside it.
//!
//! This crate is deliberately dependency-free and sits at the bottom of the
//! workspace graph: `burstcap-map`'s trace generators need the same
//! derivation scheme as the simulators in `burstcap-sim` (which depends on
//! `burstcap-map`), so the scheme cannot live in either of them.
//! `burstcap_sim::seeds` re-exports everything here, and existing call
//! sites keep using that path.
//!
//! # Derivation scheme
//!
//! [`derive()`] absorbs the three inputs one at a time through the SplitMix64
//! finalizer (the same mixer `SmallRng::seed_from_u64` uses to expand its
//! state, and the stream-split function of Java's `SplittableRandom`):
//!
//! ```text
//! z0 = mix(master + GOLDEN)
//! z1 = mix(z0 ^ (stream      * GOLDEN) ^ STREAM_PHASE)
//! z2 = mix(z1 ^ (replication * GOLDEN) ^ REPLICATION_PHASE)
//! ```
//!
//! `mix` is a bijection on `u64` and each input is diffused by a
//! golden-ratio multiply before entering it, so flipping any single bit of
//! any input avalanches through the final seed; the two phase constants
//! keep the stream and replication absorption rounds distinct even when
//! `stream == replication`. Collisions between *different* triples are
//! possible in principle (three words fold into one) but require inverting
//! two finalizer rounds — nothing a seed sweep or replication grid will
//! ever produce by accident, and the unit tests scan a large grid to
//! prove the practical disjointness.

// Library code returns typed errors and owns no console; test code is exempt
// through clippy.toml (ARCHITECTURE.md, "Static analysis").
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro
)]

/// Golden-ratio increment of the SplitMix64 generator.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
/// Domain separator for the stream-absorption round.
const STREAM_PHASE: u64 = 0xD1B5_4A32_D192_ED03;
/// Domain separator for the replication-absorption round.
const REPLICATION_PHASE: u64 = 0x8CB9_2BA7_2F3D_8DD7;

/// Stream tag of `burstcap_sim::queues::MTrace1`.
pub const MTRACE1_STREAM: u64 = 0x4D54_5241_4345_3153; // "MTRACE1S"
/// Stream tag of `burstcap_sim::queues::ClosedMapNetwork`.
pub const CLOSED_MAP_NETWORK_STREAM: u64 = 0x434C_4F53_4D41_5051; // "CLOSMAPQ"
/// Stream tag of the TPC-W testbed simulator (`burstcap_tpcw`).
pub const TESTBED_STREAM: u64 = 0x5450_4357_5445_5354; // "TPCWTEST"
/// Stream tag for user experiments with no dedicated component.
pub const EXPERIMENT_STREAM: u64 = 0x4558_5045_5249_4D54; // "EXPERIMT"
/// Stream tag of `burstcap_map::trace::hyperexp_trace` sample draws.
pub const TRACE_DRAW_STREAM: u64 = 0x5452_4143_4452_4157; // "TRACDRAW"
/// Stream tag of `burstcap_map::trace::impose_burstiness` rearrangement
/// draws (replaces the ad-hoc `seed ^ 0xB17B17` salting that separated the
/// draw and shuffle streams of one trace — the same bug class as the old
/// testbed xor-salting).
pub const TRACE_SHUFFLE_STREAM: u64 = 0x5452_4143_5348_4646; // "TRACSHFF"

/// The SplitMix64 finalizer: a fast, invertible 64-bit mixer.
#[inline]
#[must_use]
pub const fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the RNG seed for replication `replication` of component `stream`
/// under `master` (see the crate docs for the exact scheme).
///
/// # Example
/// ```
/// use burstcap_seeds as seeds;
///
/// // Same master seed, different components: disjoint streams.
/// let a = seeds::derive(7, seeds::MTRACE1_STREAM, 0);
/// let b = seeds::derive(7, seeds::CLOSED_MAP_NETWORK_STREAM, 0);
/// assert_ne!(a, b);
/// // Same component, consecutive replications: disjoint streams.
/// assert_ne!(a, seeds::derive(7, seeds::MTRACE1_STREAM, 1));
/// // Fully deterministic.
/// assert_eq!(a, seeds::derive(7, seeds::MTRACE1_STREAM, 0));
/// ```
#[must_use]
pub const fn derive(master: u64, stream: u64, replication: u64) -> u64 {
    let z = mix(master.wrapping_add(GOLDEN));
    let z = mix(z ^ stream.wrapping_mul(GOLDEN) ^ STREAM_PHASE);
    mix(z ^ replication.wrapping_mul(GOLDEN) ^ REPLICATION_PHASE)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "unit tests seed literal streams and count distinct draws in a hash set"
)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive(42, MTRACE1_STREAM, 3), derive(42, MTRACE1_STREAM, 3));
    }

    #[test]
    fn grid_of_triples_has_no_collisions() {
        // 16 masters x 6 streams x 64 replications = 6144 derived seeds;
        // any collision here would correlate "independent" experiments.
        let streams = [
            MTRACE1_STREAM,
            CLOSED_MAP_NETWORK_STREAM,
            TESTBED_STREAM,
            EXPERIMENT_STREAM,
            TRACE_DRAW_STREAM,
            TRACE_SHUFFLE_STREAM,
        ];
        let mut seen = HashSet::new();
        for master in 0..16u64 {
            for &stream in &streams {
                for rep in 0..64u64 {
                    assert!(
                        seen.insert(derive(master, stream, rep)),
                        "collision at master={master}, stream={stream:#x}, rep={rep}"
                    );
                }
            }
        }
    }

    #[test]
    fn streams_are_statistically_disjoint() {
        // The first draws of two streams derived from the same master must
        // not coincide anywhere in a long prefix — the bug this crate
        // fixes was exactly two simulators consuming one stream.
        let mut a = SmallRng::seed_from_u64(derive(5, MTRACE1_STREAM, 0));
        let mut b = SmallRng::seed_from_u64(derive(5, CLOSED_MAP_NETWORK_STREAM, 0));
        let draws_a: Vec<u64> = (0..256).map(|_| a.random::<u64>()).collect();
        let draws_b: Vec<u64> = (0..256).map(|_| b.random::<u64>()).collect();
        assert_ne!(draws_a, draws_b);
        let set: HashSet<u64> = draws_a.iter().copied().collect();
        let overlap = draws_b.iter().filter(|x| set.contains(x)).count();
        assert_eq!(overlap, 0, "streams share draws");
    }

    #[test]
    fn small_input_changes_avalanche() {
        // Adjacent masters and adjacent replications must flip about half
        // the output bits on average.
        let mut total = 0u32;
        let n = 256;
        for i in 0..n {
            let d = derive(i, TESTBED_STREAM, 0) ^ derive(i + 1, TESTBED_STREAM, 0);
            total += d.count_ones();
        }
        let avg = f64::from(total) / n as f64;
        assert!(
            (24.0..=40.0).contains(&avg),
            "avalanche average {avg} bits, expected near 32"
        );
    }
}
