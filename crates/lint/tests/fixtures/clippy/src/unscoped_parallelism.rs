//! `unscoped-parallelism` → `disallowed-methods` on `thread::{spawn,
//! scope, available_parallelism}` and `disallowed-types` on the shared-state
//! primitives; the seams carry call-site `#[expect]`s.

use std::sync::Mutex; // the import alone is a violation

pub fn wild() -> u32 {
    let h = std::thread::spawn(|| 7); // the spawn fires
    h.join().unwrap_or(7)
}

#[expect(clippy::disallowed_types, reason = "fixture: audited seam extension")]
pub fn sanctioned() -> u32 {
    let m = Mutex::new(3);
    m.into_inner().unwrap_or(3)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "fixture: tests may spawn")]
mod tests {
    #[test]
    fn exempt_in_test_region() {
        let _ = std::thread::spawn(|| 1).join();
    }
}
