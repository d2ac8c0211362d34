//! `stray-print` → `print_stdout`/`print_stderr`/`dbg_macro`, denied in
//! library roots only.

pub fn narrates(x: u64) -> u64 {
    println!("solving {x}"); // println! fires
    eprintln!("warning"); // eprintln! fires
    dbg!(x) // dbg! fires
}

#[expect(clippy::print_stdout, reason = "fixture: sanctioned narration")]
pub fn justified(x: u64) -> u64 {
    println!("solving {x}");
    x
}

pub fn silent(x: u64) -> String {
    format!("solving {x}") // returning the text is the clean idiom
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt_in_test_region() {
        println!("tests may narrate");
    }
}
