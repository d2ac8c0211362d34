// Fixture: `seed-provenance`. A fn feeding its own parameter into an RNG
// constructor obligates every caller to derive the seed; the rule fires at
// the call site where an underived seed actually enters the stream.

use burstcap_seeds as seeds;
use rand::rngs::SmallRng;
use rand::SeedableRng;

pub fn make_rng(seed: u64) -> SmallRng {
    #[expect(clippy::disallowed_methods, reason = "fixture: derivation is the caller's contract")]
    SmallRng::seed_from_u64(seed)
}

pub fn forwards(seed: u64) -> SmallRng {
    make_rng(seed) // forwards its own parameter: obligation propagates, no hit
}

pub fn derived(master: u64) -> SmallRng {
    make_rng(seeds::derive(master, seeds::SERVICE_STREAM, 0))
}

pub fn raw() -> SmallRng {
    make_rng(42) // line 23: the underived entry — the live violation
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt_in_test_region() {
        let _ = super::make_rng(7);
    }
}
