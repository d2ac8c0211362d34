//! The dogfood gate: the workspace that ships burstcap-lint must itself be
//! lint-clean. This is the same check CI runs as a blocking step; having it
//! in `cargo test -q` means a violation cannot land even when CI is
//! skipped locally. The companion tests pin the library panic-site count
//! (every new `expect` needs a deliberate decision, not just a `reason`),
//! the analysis wall-clock budget (the fixpoint must stay cheap enough to
//! run on every commit), and the library roots' clippy deny list.

use std::fs;
use std::path::Path;

use burstcap_lint::context::{FileContext, FileKind};
use burstcap_lint::{callgraph, lint_workspace, model, read_workspace_sources};

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = lint_workspace(&root).expect("workspace tree is readable");
    assert!(
        report.files_checked > 50,
        "suspiciously few files checked ({}) — wrong root?",
        report.files_checked
    );
    let rendered: Vec<String> = report
        .violations
        .iter()
        .map(|v| format!("{}:{}:{}: {}: {}", v.path, v.line, v.col, v.rule, v.message))
        .collect();
    assert!(
        rendered.is_empty(),
        "workspace must stay lint-clean; violations:\n{}",
        rendered.join("\n")
    );
}

/// The PR-9 audit walked every library panic site through the call graph:
/// all 42 are reachable from some pub entry point and each guards a
/// validated-input or gated-state invariant, so none could be deleted.
/// Clippy's library deny list makes each one carry its justification as
/// `#[expect(clippy::expect_used, reason = "…")]`. This pin forces the same
/// audit on any change to the set — a new justified `expect` (or a
/// removal) must update this count deliberately.
#[test]
fn justified_panic_site_count_is_audited() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let sources = read_workspace_sources(&root).expect("workspace tree is readable");
    let m = model::build(&sources);
    let justified: Vec<String> = m
        .panic_sites
        .iter()
        .filter(|s| s.in_lib)
        .map(|s| format!("{}:{}", s.path, s.line))
        .collect();
    assert_eq!(
        justified.len(),
        42,
        "justified panic-site count drifted; re-run the reachability audit \
         (`burstcap-lint report`) and re-pin. Sites:\n{}",
        justified.join("\n")
    );
}

/// The semantic analysis (parse + model + call-graph fixpoint over the
/// whole workspace) must stay cheap enough to gate every commit. The
/// budget is ~40x the measured debug-build wall time, so it only trips on
/// a complexity regression (e.g. the fixpoint going quadratic), not on a
/// slow machine.
#[test]
fn workspace_analysis_fits_the_wall_clock_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let sources = read_workspace_sources(&root).expect("workspace tree is readable");
    #[expect(
        clippy::disallowed_methods,
        reason = "the test measures the analysis against a wall-clock budget"
    )]
    let started = std::time::Instant::now();
    let m = model::build(&sources);
    let g = callgraph::build(&m);
    let elapsed = started.elapsed();
    assert!(!g.reach.is_empty());
    assert!(
        elapsed.as_secs_f64() < 30.0,
        "workspace model + call graph took {:.2}s — fixpoint complexity regression?",
        elapsed.as_secs_f64()
    );
}

/// The lints named by the first line-leading `#![deny(..)]` of a crate
/// root, in order.
fn deny_list(src: &str) -> Vec<String> {
    let Some(start) = src.find("\n#![deny(") else {
        return Vec::new();
    };
    let body = &src[start + "\n#![deny(".len()..];
    let end = body.find(")]").expect("deny attribute is closed");
    body[..end]
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect()
}

/// Clippy polices library code through each library root's deny list, so
/// every root must carry the list the clippy fixture crate is checked with
/// (`tests/fixtures/clippy/src/lib.rs`). The bench harness may abort, so
/// its root denies only the print lints.
#[test]
fn library_roots_carry_the_clippy_fixture_deny_list() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let fixture = fs::read_to_string(root.join("crates/lint/tests/fixtures/clippy/src/lib.rs"))
        .expect("fixture crate root");
    let full = deny_list(&fixture);
    assert_eq!(full.len(), 8, "{full:?}");
    let print_only = [
        "clippy::print_stdout",
        "clippy::print_stderr",
        "clippy::dbg_macro",
    ];

    let mut roots = vec!["src/lib.rs".to_owned()];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let name = entry.expect("crate directory").file_name();
        let lib = format!("crates/{}/src/lib.rs", name.to_string_lossy());
        if root.join(&lib).exists() {
            roots.push(lib);
        }
    }
    assert!(roots.len() >= 12, "{roots:?}");
    for lib in &roots {
        let got = deny_list(&fs::read_to_string(root.join(lib)).expect("library root"));
        if FileContext::classify(lib).kind == FileKind::Lib {
            assert_eq!(got, full, "{lib}");
        } else {
            assert_eq!(got, print_only, "{lib}");
        }
    }
}
