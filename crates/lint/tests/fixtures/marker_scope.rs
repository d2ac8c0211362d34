// Fixture: suppression-marker scope. A justified marker reaches past
// attribute lines to the item below; above a multiline statement it covers
// only the line directly below, so mid-statement hits need the marker
// directly above the reporting line (a marker that misses is stale).

fn helper(v: Option<u32>) -> u32 {
    #[expect(clippy::expect_used, reason = "fixture: callers uphold Some")]
    v.expect("fixture invariant")
}

// burstcap-lint: allow(panic-reachable-api) — fixture: the marker skips the attributes below
#[inline]
#[must_use]
pub fn attributed(v: Option<u32>) -> u32 {
    helper(v)
}

#[inline]
pub fn unprotected(v: Option<u32>) -> u32 {
    helper(v) // flagged at line 19: no marker reaches this item
}

pub fn multiline_covered(v: f64) -> f64 {
    v
        // burstcap-lint: allow(silent-clamp) — fixture: directly above the reported line
        .clamp(0.0, 1.0)
}

pub fn multiline_missed(v: f64) -> f64 {
    // burstcap-lint: allow(silent-clamp) — fixture: covers the statement head only
    v
        .clamp(0.0, 1.0) // line 32: still fires — the marker stopped at line 31, so it is stale
}
