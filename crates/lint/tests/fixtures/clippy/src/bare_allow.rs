//! `bare-allow` for the clippy-owned rules: an allow with no reason, an
//! unknown lint, and an expectation that suppresses nothing all fire.

#[allow(clippy::unwrap_used)] // no reason: allow_attributes_without_reason
pub fn bare_allow(v: Option<u32>) -> u32 {
    v.unwrap()
}

#[expect(clippy::panicky_lib, reason = "fixture: misspelled lint name")]
pub fn unknown_lint() -> f64 {
    1.0
}

#[expect(clippy::expect_used, reason = "fixture: the expect below was removed")]
pub fn stale_expect(v: Option<u32>) -> u32 {
    v.unwrap_or(0)
}
