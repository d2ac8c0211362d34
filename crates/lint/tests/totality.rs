//! Workspace-totality gate: the recursive-descent parser must accept every
//! non-vendored `.rs` file in the tree with zero recoverable errors — the
//! call graph silently loses edges for anything the parser skips, so
//! "parses everything" is a correctness precondition for the semantic
//! rules, not a nicety. The per-crate item/function counts are pinned so a
//! parser regression that silently drops items (without reporting an
//! error) still trips the gate.

use std::collections::BTreeMap;
use std::path::Path;

use burstcap_lint::parser::{count_items_and_fns, parse};
use burstcap_lint::{lexer, read_workspace_sources};

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn every_workspace_file_parses_without_errors() {
    let sources = read_workspace_sources(&workspace_root()).expect("workspace tree is readable");
    assert!(
        sources.len() > 50,
        "suspiciously few files ({}) — wrong root?",
        sources.len()
    );
    let mut failures = Vec::new();
    for (path, src) in &sources {
        let parsed = parse(&lexer::lex(src));
        for e in &parsed.errors {
            failures.push(format!("{path}:{}: {}", e.line, e.message));
        }
    }
    assert!(
        failures.is_empty(),
        "parser must accept every workspace file:\n{}",
        failures.join("\n")
    );
}

#[test]
fn per_crate_item_and_fn_counts_match_snapshot() {
    let sources = read_workspace_sources(&workspace_root()).expect("workspace tree is readable");
    let mut counts: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for (path, src) in &sources {
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("root")
            .to_owned();
        let parsed = parse(&lexer::lex(src));
        let (items, fns) = count_items_and_fns(&parsed.items);
        let entry = counts.entry(crate_name).or_insert((0, 0));
        entry.0 += items;
        entry.1 += fns;
    }
    let got: Vec<String> = counts
        .iter()
        .map(|(k, (i, f))| format!("{k}: {i} items, {f} fns"))
        .collect();
    // Snapshot of the parsed surface. A drift here is fine when code was
    // actually added or removed — re-pin the counts. A drift with no
    // corresponding source change means the parser started dropping items.
    let expected = vec![
        "bench: 201 items, 93 fns",
        "core: 127 items, 117 fns",
        "lint: 239 items, 159 fns",
        "map: 209 items, 176 fns",
        "obs: 65 items, 49 fns",
        "online: 128 items, 89 fns",
        "qn: 285 items, 258 fns",
        "root: 149 items, 44 fns",
        "seeds: 20 items, 6 fns",
        "sim: 146 items, 122 fns",
        "stats: 267 items, 212 fns",
        "tpcw: 146 items, 107 fns",
    ];
    assert_eq!(got, expected, "per-crate parse snapshot drifted");
}
