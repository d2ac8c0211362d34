//! `unordered-iter` → `disallowed-types` on `HashMap`/`HashSet`, now in
//! every crate rather than five.
use std::collections::BTreeMap;
use std::collections::HashMap; // the live violation

pub fn ordered() -> BTreeMap<u64, f64> {
    BTreeMap::new()
}

#[expect(
    clippy::disallowed_types,
    reason = "fixture: keyed access only, never iterated"
)]
pub fn suppressed() -> usize {
    let m: HashMap<u64, f64> = HashMap::new();
    m.len()
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "fixture: tests may hash")]
mod tests {
    use std::collections::HashSet;

    #[test]
    fn exempt_in_test_region() {
        let _ = HashSet::<u32>::new();
    }
}
