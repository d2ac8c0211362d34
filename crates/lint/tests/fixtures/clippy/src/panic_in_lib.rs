//! `panic-in-lib` → `unwrap_used`/`expect_used`/`panic`/`todo`/
//! `unimplemented`, denied in library roots only.

pub fn hit(v: Option<u32>) -> u32 {
    v.unwrap() // the live violation
}

pub fn hit_macro() {
    panic!("fixture"); // second live violation
}

pub fn suppressed(v: Option<u32>) -> u32 {
    #[expect(clippy::expect_used, reason = "fixture: invariant documented here")]
    v.expect("fixture invariant")
}

pub fn typed(v: Option<u32>) -> Result<u32, &'static str> {
    v.ok_or("missing")
}

pub fn invariant_branch(x: u32) -> u32 {
    match x {
        0 => 1,
        // `unreachable!` is deliberately permitted: it documents a branch
        // the type system cannot close.
        _ => unreachable!("fixture: callers pass zero"),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt_in_test_region() {
        let _ = super::typed(Some(3)).unwrap();
    }
}
