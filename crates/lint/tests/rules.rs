//! Per-rule fixture tests: each fixture carries a positive hit, a justified
//! suppression, and a test-context exemption; the assertions pin exactly
//! which lines survive.
//!
//! Fixtures live under `tests/fixtures/` (a directory `lint_workspace`
//! never descends into, since they contain deliberate violations) and are
//! linted through `lint_source` with a synthetic workspace-relative path
//! that selects the context under test.
//!
//! The six rules handed to clippy keep their fixtures in the standalone
//! crate `tests/fixtures/clippy`, whose clippy findings CI compares to
//! `expected.txt` (`check.sh`). Their tests here check the two halves this
//! suite can see without running clippy: burstcap-lint no longer polices
//! the fixture, and `expected.txt` pins the hits the retired assertions
//! named, each on a line that shows its construct.

use std::fs;
use std::path::{Path, PathBuf};

use burstcap_lint::context::{in_test_region, test_regions, FileContext, FileKind};
use burstcap_lint::lexer::{lex, TokKind};
use burstcap_lint::{lint_source, read_workspace_sources};

fn rules_at(path: &str, src: &str) -> Vec<(&'static str, u32)> {
    lint_source(path, src)
        .into_iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

fn clippy_fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clippy")
}

/// The `(line, lint)` findings `expected.txt` pins for one fixture file.
fn pinned(file: &str) -> Vec<(u32, String)> {
    let expected =
        fs::read_to_string(clippy_fixtures().join("expected.txt")).expect("expected.txt");
    let mut out: Vec<(u32, String)> = expected
        .lines()
        .filter_map(|entry| {
            let (site, lint) = entry.split_once(' ')?;
            let (path, line) = site.split_once(':')?;
            (path == file).then(|| (line.parse().expect("line number"), lint.to_owned()))
        })
        .collect();
    out.sort();
    out
}

/// A fixture of a rule handed to clippy: burstcap-lint, run over it as
/// library code, reports exactly `bespoke` (the call-graph rules it keeps),
/// and `expected.txt` pins exactly `clippy` for it, each pinned line
/// showing one of `constructs`.
fn clippy_owned(file: &str, bespoke: &[(&str, u32)], clippy: &[(u32, &str)], constructs: &[&str]) {
    let src = fs::read_to_string(clippy_fixtures().join(file)).expect("fixture file");
    assert_eq!(
        rules_at("crates/core/src/fixture.rs", &src),
        bespoke,
        "{file}"
    );
    let want: Vec<(u32, String)> = clippy
        .iter()
        .map(|&(l, lint)| (l, lint.to_owned()))
        .collect();
    assert_eq!(pinned(file), want, "{file}");
    for &(line, lint) in clippy {
        let text = src
            .lines()
            .nth(line as usize - 1)
            .expect("pinned line exists");
        assert!(
            constructs.iter().any(|c| text.contains(c)),
            "{file}:{line} ({lint}) shows none of {constructs:?}: `{}`",
            text.trim()
        );
    }
}

#[test]
fn wallclock_fixture() {
    let methods = "clippy::disallowed_methods";
    clippy_owned(
        "src/wallclock.rs",
        &[],
        &[(5, methods), (16, methods)],
        &["Instant::now", "SystemTime::now"],
    );
    // The ban holds in binaries too.
    clippy_owned(
        "src/bin/harness.rs",
        &[],
        &[(8, methods)],
        &["Instant::now"],
    );
}

#[test]
fn wallclock_is_silent_in_the_bench_timing_seam_context() {
    // Outside test code, the timing seam's `#[expect]`-justified read is
    // the workspace's only wall-clock read.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let mut readers = Vec::new();
    for (path, src) in read_workspace_sources(&root).expect("workspace tree is readable") {
        if FileContext::classify(&path).kind == FileKind::Test {
            continue;
        }
        let toks = lex(&src);
        let regions = test_regions(&toks);
        let code: Vec<_> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        for w in code.windows(3) {
            if (w[0].is_ident("Instant") || w[0].is_ident("SystemTime"))
                && w[1].is_punct("::")
                && w[2].is_ident("now")
                && !in_test_region(&regions, w[0].line)
            {
                readers.push(format!("{path}:{}", w[0].line));
            }
        }
    }
    assert_eq!(readers.len(), 1, "{readers:?}");
    assert!(
        readers[0].starts_with("crates/bench/src/timing.rs:"),
        "{readers:?}"
    );
}

#[test]
fn raw_rng_fixture() {
    clippy_owned(
        "src/raw_rng.rs",
        &[],
        &[(8, "clippy::disallowed_methods")],
        &["seed_from_u64"],
    );
}

#[test]
fn unordered_iter_fixture() {
    clippy_owned(
        "src/unordered_iter.rs",
        &[],
        &[(4, "clippy::disallowed_types")],
        &["HashMap"],
    );
}

#[test]
fn panic_in_lib_fixture() {
    // The panicking shortcuts are clippy's; panic reachability from the
    // pub entry points that lack a `# Panics` section stays bespoke, the
    // justified `expect` in `suppressed` included.
    clippy_owned(
        "src/panic_in_lib.rs",
        &[
            ("panic-reachable-api", 4),
            ("panic-reachable-api", 8),
            ("panic-reachable-api", 12),
        ],
        &[(5, "clippy::unwrap_used"), (9, "clippy::panic")],
        &[".unwrap()", "panic!"],
    );
}

#[test]
fn stray_print_fixture() {
    clippy_owned(
        "src/stray_print.rs",
        &[],
        &[
            (5, "clippy::print_stdout"),
            (6, "clippy::print_stderr"),
            (7, "clippy::dbg_macro"),
        ],
        &["println!", "eprintln!", "dbg!"],
    );
}

#[test]
fn unscoped_parallelism_fixture() {
    clippy_owned(
        "src/unscoped_parallelism.rs",
        &[],
        &[
            (5, "clippy::disallowed_types"),
            (8, "clippy::disallowed_methods"),
        ],
        &["Mutex", "thread::spawn"],
    );
}

#[test]
fn lossy_state_cast_fixture() {
    let src = include_str!("fixtures/lossy_state_cast.rs");
    let got = rules_at("crates/qn/src/fixture.rs", src);
    assert_eq!(
        got,
        vec![
            ("lossy-state-cast", 11), // `*` in the Indexer impl index
            ("lossy-state-cast", 11), // `+` in the same expression
            ("lossy-state-cast", 21), // `as usize`
        ]
    );
    // The rule is scoped to crate qn; elsewhere its two markers are stale.
    assert_eq!(
        rules_at("crates/stats/src/fixture.rs", src),
        vec![("bare-allow", 15), ("bare-allow", 25)]
    );
}

#[test]
fn float_eq_fixture() {
    let src = include_str!("fixtures/float_eq.rs");
    let got = rules_at("crates/core/src/fixture.rs", src);
    assert_eq!(got, vec![("float-eq", 5)]);
}

#[test]
fn silent_clamp_fixture() {
    let src = include_str!("fixtures/silent_clamp.rs");
    let got = rules_at("crates/core/src/fixture.rs", src);
    assert_eq!(
        got,
        vec![
            ("silent-clamp", 4),
            ("silent-clamp", 8),
            ("silent-clamp", 12),
        ]
    );
}

#[test]
fn bare_allow_fixture() {
    let src = include_str!("fixtures/bare_allow.rs");
    let got = rules_at("crates/core/src/fixture.rs", src);
    // The unjustified marker is a violation AND fails to suppress the clamp
    // below it; the marker for a rule handed to clippy names an unknown
    // rule; the stale marker suppresses nothing; and the `allow-file` line
    // is no marker at all, so the float comparison under it still fires.
    assert_eq!(
        got,
        vec![
            ("bare-allow", 7),
            ("silent-clamp", 8),
            ("bare-allow", 12),
            ("bare-allow", 17),
            ("float-eq", 23),
        ]
    );
    // The clippy half: an allow without a reason, an unknown lint, and an
    // expectation that suppresses nothing. (The allowed unwrap still seeds
    // panic reachability.)
    clippy_owned(
        "src/bare_allow.rs",
        &[("panic-reachable-api", 5)],
        &[
            (4, "clippy::allow_attributes_without_reason"),
            (9, "unknown_lints"),
            (14, "unfulfilled_lint_expectations"),
        ],
        &["#[allow(", "#[expect("],
    );
}

#[test]
fn panic_reachable_fixture() {
    let src = include_str!("fixtures/panic_reachable.rs");
    let got = rules_at("crates/core/src/fixture.rs", src);
    // Only the undocumented entry point fires; the `# Panics` section and
    // the justified allow discharge the other two. The helper's own panic
    // site carries clippy's `#[expect]` and still seeds reachability.
    assert_eq!(got, vec![("panic-reachable-api", 9)]);
    // The rule is scoped to library code; in a binary its marker is stale.
    assert_eq!(
        rules_at("crates/core/src/bin/tool.rs", src),
        vec![("bare-allow", 22)]
    );
}

#[test]
fn swallowed_result_fixture() {
    let src = include_str!("fixtures/swallowed_result.rs");
    let got = rules_at("crates/online/src/fixture.rs", src);
    assert_eq!(
        got,
        vec![("swallowed-result", 13), ("swallowed-result", 14)]
    );
}

#[test]
fn seed_provenance_fixture() {
    let src = include_str!("fixtures/seed_provenance.rs");
    let got = rules_at("crates/sim/src/fixture.rs", src);
    // `forwards` propagates the obligation and `derived` discharges it;
    // only `raw` injects a literal seed.
    assert_eq!(got, vec![("seed-provenance", 23)]);
}

#[test]
fn marker_scope_fixture() {
    let src = include_str!("fixtures/marker_scope.rs");
    let got = rules_at("crates/core/src/fixture.rs", src);
    // `attributed` is covered by the marker above its attribute lines;
    // `unprotected` is not. A marker directly above a mid-statement line
    // covers it, but a marker above the statement head does not reach a
    // hit two lines down, and so suppresses nothing.
    assert_eq!(
        got,
        vec![
            ("panic-reachable-api", 19),
            ("bare-allow", 30),
            ("silent-clamp", 32),
        ]
    );
}

#[test]
fn test_files_are_fully_exempt() {
    for fixture in [
        include_str!("fixtures/float_eq.rs"),
        include_str!("fixtures/panic_reachable.rs"),
        include_str!("fixtures/silent_clamp.rs"),
        include_str!("fixtures/bare_allow.rs"),
    ] {
        assert!(rules_at("crates/core/tests/fixture.rs", fixture).is_empty());
    }
}
