//! The lexical rules: each is a named, individually-suppressible check
//! over the token stream of one file.
//!
//! Every rule exists because a shipped bug class violated the workspace's
//! determinism-and-exactness contract silently (see ARCHITECTURE.md,
//! "Static analysis"): silent `I`-clamping (PR 4), rank overflow (PR 6).
//! Rules are lexical by design — they over-approximate and rely on
//! justified `// burstcap-lint: allow(<rule>) — why` markers where the
//! idiom is intentional. Everything clippy can express (wall-clock reads,
//! RNG construction, hash collections, console output, panicking
//! shortcuts, unscoped parallelism) is clippy's, through the root
//! `clippy.toml` and the library roots' `#![deny(..)]` lists.

use crate::context::{in_test_region, FileContext, FileKind, TestRegion};
use crate::lexer::{float_is_zero, TokKind, Token};

/// One reported rule violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule name (matches the `allow(...)` marker vocabulary).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the hit.
    pub message: String,
}

/// Static description of a rule, for `burstcap-lint rules` and the docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name as used in allow markers.
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
}

/// All rules, in reporting order. `bare-allow` is checked by the engine
/// (it guards the suppression mechanism itself and cannot be suppressed).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "lossy-state-cast",
        summary: "no lossy integer `as` casts (crate-wide) or unchecked index arithmetic in state-indexing code (Indexer impls, rank fns)",
        scope: "crate qn (non-test)",
    },
    RuleInfo {
        name: "float-eq",
        summary: "no ==/!= against non-zero float literals",
        scope: "all non-test code",
    },
    RuleInfo {
        name: "silent-clamp",
        summary: "no .min(1.0)/.max(0.0)/.clamp(float, ..) without a recorded diagnostic",
        scope: "all non-test code",
    },
    RuleInfo {
        name: "panic-reachable-api",
        summary: "pub lib fns that can transitively reach a panic site must document it under `# Panics`",
        scope: "library crates (non-test), via the workspace call graph",
    },
    RuleInfo {
        name: "swallowed-result",
        summary: "no `let _ =` or statement-level `.ok()` discard of a workspace Result",
        scope: "library crates (non-test)",
    },
    RuleInfo {
        name: "seed-provenance",
        summary: "a seed parameter fed raw to an RNG constructor must be derived by every caller",
        scope: "all non-test code, via the workspace call graph",
    },
    RuleInfo {
        name: "bare-allow",
        summary: "every allow marker must name a rule, carry a written justification, and suppress a finding",
        scope: "everywhere (not suppressible)",
    },
];

/// Integer target types of a lossy `as` cast.
const INT_CAST_TARGETS: &[&str] = &[
    "usize", "u64", "u32", "u16", "u8", "isize", "i64", "i32", "i16", "i8",
];

/// Run every rule over one file's token stream.
#[must_use]
pub fn check_all(
    path: &str,
    ctx: &FileContext,
    tokens: &[Token],
    regions: &[TestRegion],
) -> Vec<Violation> {
    if ctx.kind == FileKind::Test {
        return Vec::new();
    }
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    let mut v = Vec::new();
    let live = |t: &Token| !in_test_region(regions, t.line);

    if ctx.crate_name.as_deref() == Some("qn") {
        lossy_state_cast(path, &code, &live, &mut v);
    }
    float_eq(path, &code, &live, &mut v);
    silent_clamp(path, &code, &live, &mut v);
    v
}

fn report(v: &mut Vec<Violation>, rule: &'static str, path: &str, tok: &Token, message: String) {
    v.push(Violation {
        rule,
        path: path.to_owned(),
        line: tok.line,
        col: tok.col,
        message,
    });
}

/// `lossy-state-cast`: the PR-6 class — state-space ranks overflow
/// silently through `as` narrowing or wrapping index arithmetic. In the
/// state-indexing crate, integer `as` casts (anywhere) and `+`/`*` inside
/// index brackets (within state-indexing regions: `impl *Indexer*` blocks
/// and functions whose name contains `rank`) must be checked or
/// individually justified. Dense `m x m` kernel tiles (`a[i * m + j]` with
/// a handful of phases) are *not* state-sized — their products are bounded
/// by an allocation that happens first — so plain index arithmetic outside
/// those regions is left to the checked-arithmetic CI lane.
fn lossy_state_cast(
    path: &str,
    code: &[&Token],
    live: &dyn Fn(&Token) -> bool,
    v: &mut Vec<Violation>,
) {
    // (a) `as <integer type>` casts.
    for (i, tok) in code.iter().enumerate() {
        if !live(tok) || !tok.is_ident("as") {
            continue;
        }
        if let Some(target) = code.get(i + 1) {
            if INT_CAST_TARGETS.contains(&target.text.as_str()) {
                report(
                    v,
                    "lossy-state-cast",
                    path,
                    tok,
                    format!(
                        "`as {}` can truncate or wrap a state-space quantity; use try_from or justify",
                        target.text
                    ),
                );
            }
        }
    }
    // (b) unchecked `+`/`*` inside index brackets (`t[b * cols + d]`),
    // within state-indexing regions only.
    let regions = state_arith_regions(code);
    let in_state_region = |line: u32| regions.iter().any(|&(s, e)| (s..=e).contains(&line));
    let mut stack: Vec<bool> = Vec::new();
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokKind::Punct {
            continue;
        }
        match tok.text.as_str() {
            "[" => {
                // An index position has an expression on its left (ident,
                // close-paren, or a previous index); `vec![` has `!` there
                // and an attribute has `#`, so neither is counted.
                let indexing = i > 0
                    && (code[i - 1].kind == TokKind::Ident
                        || code[i - 1].is_punct(")")
                        || code[i - 1].is_punct("]"));
                stack.push(indexing);
            }
            "]" => {
                stack.pop();
            }
            "*" | "+" => {
                if !stack.iter().any(|&b| b) || !live(tok) || !in_state_region(tok.line) {
                    continue;
                }
                // Binary position only: a deref `*x` or unary context has
                // an operator or opening delimiter on the left.
                let binary = i > 0 && {
                    let prev = code[i - 1];
                    matches!(prev.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
                        || prev.is_punct(")")
                        || prev.is_punct("]")
                };
                if binary {
                    report(
                        v,
                        "lossy-state-cast",
                        path,
                        tok,
                        "unchecked arithmetic inside an index expression; hoist through checked_add/checked_mul or justify"
                            .to_owned(),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Line ranges of state-indexing code: `impl` blocks whose subject type
/// name contains `Indexer`, and `fn` items whose name contains `rank`.
/// Only there does index arithmetic act on state-space-sized quantities
/// (a rank is bounded by the state count, not by a small phase count), so
/// only there can an unchecked `+`/`*` reproduce the PR-6 overflow.
fn state_arith_regions(code: &[&Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let tok = code[i];
        let is_impl_header = tok.is_ident("impl");
        let is_rank_fn = tok.is_ident("fn")
            && code.get(i + 1).is_some_and(|t| {
                t.kind == TokKind::Ident && t.text.to_ascii_lowercase().contains("rank")
            });
        if is_impl_header || is_rank_fn {
            // Scan the item header up to the body `{` (or a `;` for a
            // braceless form), checking the impl subject for `Indexer`.
            let mut named = is_rank_fn;
            let mut j = i + 1;
            while j < code.len() && !code[j].is_punct("{") && !code[j].is_punct(";") {
                if is_impl_header
                    && code[j].kind == TokKind::Ident
                    && code[j].text.contains("Indexer")
                {
                    named = true;
                }
                j += 1;
            }
            if named && j < code.len() && code[j].is_punct("{") {
                let start = tok.line;
                let mut depth = 0usize;
                while j < code.len() {
                    if code[j].is_punct("{") {
                        depth += 1;
                    } else if code[j].is_punct("}") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                let end = code.get(j).map_or(start, |t| t.line);
                out.push((start, end));
                i = j + 1;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

/// `float-eq`: exact float equality is almost never the intended predicate.
/// Comparisons against an exact-zero literal are exempt — testing a value
/// against structural zero (an empty accumulator, a sparsity hole) is
/// well-defined; the same exception clippy's `float_cmp` heritage carries.
fn float_eq(path: &str, code: &[&Token], live: &dyn Fn(&Token) -> bool, v: &mut Vec<Violation>) {
    for (i, tok) in code.iter().enumerate() {
        if !live(tok) || !(tok.is_punct("==") || tok.is_punct("!=")) {
            continue;
        }
        let nonzero_float = |t: Option<&&Token>| {
            t.is_some_and(|t| t.kind == TokKind::Float && !float_is_zero(&t.text))
        };
        if nonzero_float(code.get(i.wrapping_sub(1))) || nonzero_float(code.get(i + 1)) {
            report(
                v,
                "float-eq",
                path,
                tok,
                "exact comparison against a float literal; compare within a tolerance or justify"
                    .to_owned(),
            );
        }
    }
}

/// `silent-clamp`: the PR-4 class — clamping a rate or probability hides
/// an infeasible input instead of surfacing it. A clamp must come with a
/// recorded diagnostic (and a justification on the marker).
fn silent_clamp(
    path: &str,
    code: &[&Token],
    live: &dyn Fn(&Token) -> bool,
    v: &mut Vec<Violation>,
) {
    let float_value = |t: &Token| -> Option<f64> {
        if t.kind != TokKind::Float {
            return None;
        }
        let cleaned: String = t.text.chars().filter(|&c| c != '_').collect();
        cleaned
            .trim_end_matches("f64")
            .trim_end_matches("f32")
            .parse::<f64>()
            .ok()
    };
    for (i, tok) in code.iter().enumerate() {
        if !live(tok) || tok.kind != TokKind::Ident {
            continue;
        }
        if i == 0 || !code[i - 1].is_punct(".") || !code.get(i + 1).is_some_and(|t| t.is_punct("("))
        {
            continue;
        }
        let arg = code.get(i + 2);
        let closes = code.get(i + 3).is_some_and(|t| t.is_punct(")"));
        let hit = match tok.text.as_str() {
            "min" => closes && arg.and_then(|t| float_value(t)) == Some(1.0),
            "max" => closes && arg.and_then(|t| float_value(t)) == Some(0.0),
            "clamp" => arg.is_some_and(|t| t.kind == TokKind::Float),
            _ => false,
        };
        if hit {
            report(
                v,
                "silent-clamp",
                path,
                tok,
                format!(
                    "`.{}` clamps a rate/probability silently; surface the infeasibility or record a diagnostic and justify",
                    tok.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<Violation> {
        let ctx = FileContext::classify(path);
        let toks = lex(src);
        check_all(path, &ctx, &toks, &[])
    }

    #[test]
    fn index_arithmetic_flagged_only_in_state_regions() {
        // Dense-kernel indexing outside any Indexer impl / rank fn: clean.
        let kernel = "fn invert(a: &mut [f64], m: usize) { a[1 * m + 0] = 0.0; }\n";
        assert!(run("crates/qn/src/x.rs", kernel).is_empty());

        // The same shape inside an `impl ...Indexer` block: flagged.
        let indexer = "\
struct StateIndexer;
impl StateIndexer {
    fn comp_rank(&self, b: usize, d: usize) -> usize { self.cum[b * 4 + d] }
}
";
        let v = run("crates/qn/src/x.rs", indexer);
        assert!(v.iter().any(|v| v.rule == "lossy-state-cast"), "{v:?}");

        // And inside a free fn whose name contains `rank` — one report per
        // unchecked operator (`*` and `+`).
        let rank_fn = "fn unrank(r: usize, n: usize) -> usize { t[r * n + 1] }\n";
        let v = run("crates/qn/src/x.rs", rank_fn);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "lossy-state-cast"));

        // Outside crate qn the rule never runs.
        assert!(run("crates/map/src/x.rs", indexer).is_empty());
    }

    #[test]
    fn int_casts_flagged_crate_wide_in_qn() {
        let src = "fn f(x: u64) -> usize { x as usize }\n";
        let v = run("crates/qn/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "lossy-state-cast");
        // `as f64` is not lossy state arithmetic.
        assert!(run("crates/qn/src/x.rs", "fn f(x: u64) -> f64 { x as f64 }\n").is_empty());
    }
}
