//! `burstcap-lint` — workspace-local determinism & numerical-safety linting.
//!
//! Every number this reproduction reports is only trustworthy because the
//! workspace holds a strict determinism-and-exactness contract. This crate
//! machine-checks that contract at two depths: a dependency-free Rust
//! [`lexer`] feeding per-file lexical rules ([`rules`]), and — on top of
//! the same token stream — a lightweight recursive-descent [`parser`], a
//! workspace [`model`], and a [`callgraph`] feeding the interprocedural
//! semantic rules ([`semrules`]): panic reachability for the public API,
//! `Result` discipline, and seed provenance. What clippy can express —
//! wall-clock reads, RNG construction, hash collections, console output,
//! panicking shortcuts, unscoped parallelism — is clippy's, configured by
//! the root `clippy.toml` and the library roots' `#![deny(..)]` lists.
//! `cargo run --release -p burstcap-lint -- check` is a blocking CI gate;
//! the workspace stays lint-clean, and `burstcap-lint report` emits the
//! full panic-reachability matrix as deterministic JSON that CI archives
//! and twice-run-diffs.
//!
//! Suppressions are written in place, with a mandatory justification:
//!
//! ```text
//! let u = (x * d).min(1.0); // burstcap-lint: allow(silent-clamp) — <why>
//! ```
//!
//! A marker with no justification, an unknown rule, or nothing to suppress
//! is itself a violation (`bare-allow`), as an unfulfilled `#[expect]` is
//! for clippy.
//!
//! See ARCHITECTURE.md, "Static analysis", for the rule table, the
//! clippy/burstcap-lint ownership partition, and how to add a rule.

// Library code returns typed errors and owns no console; test code is exempt
// through clippy.toml (ARCHITECTURE.md, "Static analysis").
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro
)]

pub mod callgraph;
pub mod context;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod rules;
pub mod semrules;

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use context::FileKind;
use lexer::{TokKind, Token};
pub use rules::{Violation, RULES};

/// Directory names never descended into: external or generated code, and
/// the lint fixtures themselves (they contain deliberate violations).
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "fixtures", "node_modules"];

/// Result of linting a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files checked.
    pub files_checked: usize,
    /// All surviving (unsuppressed) violations, in path/line order.
    pub violations: Vec<Violation>,
}

impl Report {
    /// Render the findings as deterministic one-field-per-line JSON (the
    /// same contract as `burstcap_bench::json`, re-implemented here
    /// because the linter is dependency-free). Violations are already
    /// sorted by (path, line, col, rule), so the output is independent of
    /// directory-walk order.
    #[must_use]
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"burstcap-lint-findings-v1\",");
        let _ = writeln!(out, "  \"files_checked\": {},", self.files_checked);
        let _ = writeln!(out, "  \"violations\": {},", self.violations.len());
        out.push_str("  \"findings\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"rule\": \"{}\",", json_escape(v.rule));
            let _ = writeln!(out, "      \"path\": \"{}\",", json_escape(&v.path));
            let _ = writeln!(out, "      \"line\": {},", v.line);
            let _ = writeln!(out, "      \"col\": {},", v.col);
            let _ = writeln!(out, "      \"message\": \"{}\"", json_escape(&v.message));
            out.push_str("    }");
            out.push_str(if i + 1 == self.violations.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Minimal JSON string escaping for paths and messages.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Lint a set of `(workspace-relative path, source)` pairs as one
/// workspace: lexical rules per file, then the semantic rules over the
/// whole-set model and call graph.
///
/// Suppression semantics: a justified `allow(<rule>)` marker silences that
/// rule on its own line and on the line directly below it — where
/// "directly below" skips attribute lines, so a marker placed above
/// `#[derive(...)]` / `#[must_use]` reaches the item underneath. For a
/// statement spanning several lines the marker covers only the reported
/// line (put it on or directly above the line the finding names). A
/// marker without a justification, naming an unknown rule, or silencing
/// nothing is reported as `bare-allow`.
///
/// The returned violations are sorted by (path, line, col, rule), so the
/// report is independent of the order of `sources`.
#[must_use]
pub fn lint_sources(sources: &[(String, String)]) -> Report {
    let ws = model::build(sources);
    let graph = callgraph::build(&ws);

    let mut violations = Vec::new();
    for file in &ws.files {
        violations.extend(rules::check_all(
            &file.rel_path,
            &file.ctx,
            &file.tokens,
            &file.regions,
        ));
    }
    violations.extend(semrules::check_semantic(&ws, &graph));

    // Which markers suppressed something; the rest are stale.
    let attrs: Vec<BTreeSet<u32>> = ws
        .files
        .iter()
        .map(|f| attribute_lines(&f.tokens))
        .collect();
    let mut used: Vec<Vec<bool>> = ws
        .files
        .iter()
        .map(|f| vec![false; f.marks.len()])
        .collect();
    violations.retain(|v| {
        let Some(fi) = ws.files.iter().position(|f| f.rel_path == v.path) else {
            return true;
        };
        let hit = ws.files[fi].marks.iter().position(|a| {
            a.justified
                && a.rule == v.rule
                && (v.line == a.line || v.line == covered_line(&attrs[fi], a.line))
        });
        if let Some(m) = hit {
            used[fi][m] = true;
        }
        hit.is_none()
    });

    // Test files are exempt from every rule, markers included.
    let linted = ws.files.iter().zip(&used);
    for (file, used) in linted.filter(|(f, _)| f.ctx.kind != FileKind::Test) {
        for (a, &used) in file.marks.iter().zip(used) {
            let message = if !a.justified {
                format!(
                    "allow({}) without a justification; write `// burstcap-lint: allow({}) — <why>`",
                    a.rule, a.rule
                )
            } else if !RULES.iter().any(|r| r.name == a.rule) {
                format!("allow marker names unknown rule `{}`", a.rule)
            } else if !used {
                format!(
                    "allow({}) suppresses nothing; delete the stale marker",
                    a.rule
                )
            } else {
                continue;
            };
            violations.push(Violation {
                rule: "bare-allow",
                path: file.rel_path.clone(),
                line: a.line,
                col: a.col,
                message,
            });
        }
    }

    violations
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    Report {
        files_checked: sources.len(),
        violations,
    }
}

/// Lint a single file's source, classified by its workspace-relative path.
/// Semantic rules run over the one-file model (cross-file edges resolve
/// only within the given file).
#[must_use]
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Violation> {
    lint_sources(&[(rel_path.to_owned(), src.to_owned())]).violations
}

/// The line a marker at `line` covers below itself: the next line, with
/// attribute lines skipped (a marker above `#[must_use]` reaches the item
/// under the attribute).
fn covered_line(attr_lines: &BTreeSet<u32>, line: u32) -> u32 {
    let mut l = line + 1;
    while attr_lines.contains(&l) {
        l += 1;
    }
    l
}

/// Lines fully occupied by outer/inner attributes (`#[...]` spanning one
/// or more lines). A line where code follows the closing `]` is *not*
/// attribute-only (the marker must cover that code line itself).
fn attribute_lines(tokens: &[Token]) -> BTreeSet<u32> {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    let mut out = BTreeSet::new();
    let mut last_line = 0u32;
    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        let first_on_line = t.line != last_line;
        last_line = t.line;
        if first_on_line && t.is_punct("#") {
            let mut j = i + 1;
            if code.get(j).is_some_and(|n| n.is_punct("!")) {
                j += 1;
            }
            if code.get(j).is_some_and(|n| n.is_punct("[")) {
                let mut depth = 0usize;
                while let Some(n) = code.get(j) {
                    if n.is_punct("[") {
                        depth += 1;
                    } else if n.is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                let end_line = code.get(j).map_or(t.line, |n| n.line);
                let trailing_code = code.get(j + 1).is_some_and(|n| n.line == end_line);
                for l in t.line..=end_line {
                    if !(trailing_code && l == end_line) {
                        out.insert(l);
                    }
                }
                last_line = end_line;
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Lint every `.rs` file under `root` (the workspace checkout), skipping
/// `SKIP_DIRS`. Files are read in sorted order and linted as one
/// workspace, so the report is deterministic.
///
/// # Errors
/// Propagates filesystem errors (unreadable directories or files).
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    Ok(lint_sources(&read_workspace_sources(root)?))
}

/// Read every non-skipped `.rs` file under `root` into sorted
/// `(workspace-relative path, source)` pairs.
///
/// # Errors
/// Propagates filesystem errors (unreadable directories or files).
pub fn read_workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let src = fs::read_to_string(&file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, src));
    }
    Ok(sources)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locate the workspace root: walk up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table is found.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_and_leading_markers_suppress_one_line() {
        let src = "\
fn f(x: f64) {
    let a = x.min(1.0); // burstcap-lint: allow(silent-clamp) — test of trailing marker
    // burstcap-lint: allow(silent-clamp) — test of leading marker
    let b = x.min(1.0);
    let c = x.min(1.0);
}
";
        let v = lint_source("crates/core/src/x.rs", src);
        let clamps: Vec<_> = v.iter().filter(|v| v.rule == "silent-clamp").collect();
        assert_eq!(clamps.len(), 1, "{clamps:?}");
        assert_eq!(clamps[0].line, 5);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn marker_above_attributes_reaches_the_item() {
        let src = "\
// burstcap-lint: allow(silent-clamp) — marker above two attribute lines
#[allow(dead_code)]
#[must_use]
fn clamped(x: f64) -> f64 { x.min(1.0) }
";
        let v = lint_source("crates/core/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn attribute_line_detection_spans_multiline_attrs() {
        let toks =
            lexer::lex("#[cfg(\n    feature = \"x\"\n)]\nfn f() {}\n#[must_use] fn g() {}\n");
        let attrs = attribute_lines(&toks);
        assert!(attrs.contains(&1) && attrs.contains(&2) && attrs.contains(&3));
        // Line 5 has code after the attribute, so it is not attribute-only.
        assert!(!attrs.contains(&5));
    }

    #[test]
    fn bare_allow_is_a_violation_and_suppresses_nothing() {
        let src = "fn f(x: f64) -> f64 { x.max(0.0) } // burstcap-lint: allow(silent-clamp)\n";
        let v = lint_source("crates/core/src/x.rs", src);
        assert!(v.iter().any(|v| v.rule == "silent-clamp"));
        assert!(v.iter().any(|v| v.rule == "bare-allow"));
    }

    #[test]
    fn unknown_rule_in_marker_is_reported() {
        let src = "// burstcap-lint: allow(no-such-rule) — misspelled\nfn f() {}\n";
        let v = lint_source("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "bare-allow");
        assert!(v[0].message.contains("unknown rule"));
    }

    #[test]
    fn stale_marker_is_reported() {
        let src = "// burstcap-lint: allow(silent-clamp) — nothing left to clamp\nfn f() {}\n";
        let v = lint_source("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "bare-allow");
        assert!(v[0].message.contains("suppresses nothing"));
    }

    #[test]
    fn finding_order_is_independent_of_input_order() {
        let a = (
            "crates/core/src/a.rs".to_owned(),
            "fn f(x: f64) -> f64 { x.min(1.0) }\n".to_owned(),
        );
        let b = (
            "crates/core/src/b.rs".to_owned(),
            "fn g(x: f64) -> f64 { x.max(0.0) }\n".to_owned(),
        );
        let fwd = lint_sources(&[a.clone(), b.clone()]);
        let rev = lint_sources(&[b, a]);
        let key = |r: &Report| -> Vec<(String, u32, u32, &'static str)> {
            r.violations
                .iter()
                .map(|v| (v.path.clone(), v.line, v.col, v.rule))
                .collect()
        };
        assert_eq!(key(&fwd), key(&rev));
        assert_eq!(fwd.render_json(), rev.render_json());
    }

    #[test]
    fn json_rendering_is_one_field_per_line() {
        let report = lint_sources(&[(
            "crates/core/src/a.rs".to_owned(),
            "fn f(x: f64) -> f64 { x.min(1.0) }\n".to_owned(),
        )]);
        let json = report.render_json();
        assert!(json.contains("\"schema\": \"burstcap-lint-findings-v1\""));
        assert!(json
            .lines()
            .any(|l| l.trim() == "\"rule\": \"silent-clamp\","));
        assert!(json.lines().any(|l| l.trim().starts_with("\"line\": ")));
        // Deterministic across renders.
        assert_eq!(json, report.render_json());
    }
}
