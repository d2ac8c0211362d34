//! `raw-rng` → `disallowed-methods` on `SeedableRng::seed_from_u64`. Every
//! construction carries an `#[expect]` naming where its seed comes from.
use burstcap_seeds as seeds;
use rand::rngs::SmallRng;
use rand::SeedableRng;

pub fn hit(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed) // the live violation
}

pub fn routed(seed: u64) -> SmallRng {
    #[expect(clippy::disallowed_methods, reason = "fixture: derived seed")]
    SmallRng::seed_from_u64(seeds::derive(seed, seeds::MTRACE1_STREAM, 0))
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "fixture: tests seed literal streams"
)]
mod tests {
    use rand::SeedableRng;

    #[test]
    fn exempt_in_test_region() {
        let _ = rand::rngs::SmallRng::seed_from_u64(7);
    }
}
