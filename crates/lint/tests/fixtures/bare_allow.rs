// Fixture: `bare-allow`. A marker with no justification suppresses nothing
// and is itself a violation; so is a marker naming an unknown rule (the six
// rules handed to clippy are unknown too), a marker that suppresses
// nothing, and the retired file-wide form, which is plain comment text now.

pub fn bare_marker(v: f64) -> f64 {
    // burstcap-lint: allow(silent-clamp)
    v.min(1.0) // line 8: silent-clamp still fires
}

pub fn unknown_rule(v: Option<u32>) -> u32 {
    // burstcap-lint: allow(panicky-lib) — misspelled rule name
    v.unwrap_or(0)
}

pub fn stale_marker(v: f64) -> f64 {
    // burstcap-lint: allow(silent-clamp) — the clamp below was removed
    v
}

// burstcap-lint: allow-file(float-eq) — there is no file-wide form
pub fn file_wide(v: f64) -> bool {
    v == 0.5 // line 23: float-eq still fires
}
