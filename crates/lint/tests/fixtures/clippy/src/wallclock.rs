//! `wallclock` → `disallowed-methods` on `Instant::now`/`SystemTime::now`.
use std::time::Instant;

pub fn hit() -> f64 {
    let t0 = Instant::now(); // the live violation
    t0.elapsed().as_secs_f64()
}

pub fn suppressed() -> f64 {
    #[expect(clippy::disallowed_methods, reason = "fixture: the timing seam")]
    let t0 = Instant::now();
    t0.elapsed().as_secs_f64()
}

pub fn system_time_hit() -> std::time::SystemTime {
    std::time::SystemTime::now() // second live violation
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "fixture: tests may time themselves"
)]
mod tests {
    #[test]
    fn exempt_in_test_region() {
        let _ = std::time::Instant::now();
    }
}
