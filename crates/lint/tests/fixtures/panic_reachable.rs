// Fixture: `panic-reachable-api`. A pub entry point that can transitively
// reach a panic site must document it under `# Panics` or justify.

fn helper(v: Option<u32>) -> u32 {
    #[expect(clippy::expect_used, reason = "fixture: callers uphold Some")]
    v.expect("fixture invariant")
}

pub fn undocumented(v: Option<u32>) -> u32 {
    helper(v) // the entry point is flagged at its `pub fn` line (9)
}

/// Documented entry point.
///
/// # Panics
///
/// Panics when `v` is `None`.
pub fn documented(v: Option<u32>) -> u32 {
    helper(v)
}

// burstcap-lint: allow(panic-reachable-api) — fixture: justified at the entry point
pub fn waved_through(v: Option<u32>) -> u32 {
    helper(v)
}

pub fn safe(v: u32) -> u32 {
    v.saturating_add(1)
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt_in_test_region() {
        assert_eq!(super::undocumented(Some(3)), 3);
    }
}
