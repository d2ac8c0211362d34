//! File classification, `#[cfg(test)]` region detection, and suppression
//! markers.
//!
//! Rules fire or stay silent depending on *where* code lives: library code
//! carries the full rule set, binaries and the bench harness skip the
//! library-only rules, and test code is exempt from every rule. Context is
//! derived from the workspace-relative path; *within* a file,
//! `#[cfg(test)]`-gated items form test regions found by brace tracking
//! over the token stream.

use crate::lexer::{TokKind, Token};

/// Where a file sits in the workspace, which decides the active rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (`crates/*/src`, root `src/`): every rule applies.
    Lib,
    /// Binary targets, the `crates/bench` harness, and `examples/`: they
    /// may abort on a broken invariant, so the library-only rules
    /// (`panic-reachable-api`, `swallowed-result`) do not apply.
    Harness,
    /// `tests/` directories: exempt from every rule.
    Test,
}

/// Classification of one workspace file.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Which rule regime applies.
    pub kind: FileKind,
    /// Crate name (`qn`, `stats`, ...) for crate-scoped rules; `None` for
    /// the root package.
    pub crate_name: Option<String>,
}

impl FileContext {
    /// Classify a workspace-relative path (`/`-separated).
    #[must_use]
    pub fn classify(rel_path: &str) -> FileContext {
        let path = rel_path.replace('\\', "/");
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_owned);
        let kind = if path.contains("/tests/") || path.starts_with("tests/") {
            FileKind::Test
        } else if path.starts_with("examples/")
            || crate_name.as_deref() == Some("bench")
            || path.contains("/src/bin/")
            || path.ends_with("/src/main.rs")
        {
            FileKind::Harness
        } else {
            FileKind::Lib
        };
        FileContext { kind, crate_name }
    }
}

/// A `start..=end` line range gated behind `#[cfg(test)]` or `#[test]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestRegion {
    /// First line of the gating attribute.
    pub start_line: u32,
    /// Last line of the gated item.
    pub end_line: u32,
}

/// Find all test-gated regions by scanning attributes and tracking braces.
///
/// An outer attribute whose tokens contain `cfg` together with `test`
/// (covering `#[cfg(test)]` and `#[cfg(all(test, ...))]`), or the bare
/// `#[test]` marker, gates the item that follows: the region runs from the
/// attribute to the matching `}` of the item's first brace (or to the `;`
/// of a braceless item).
#[must_use]
pub fn test_regions(tokens: &[Token]) -> Vec<TestRegion> {
    let toks: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let start_line = toks[i].line;
            // Collect the attribute's tokens up to the matching `]`.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut has_cfg = false;
            let mut has_test = false;
            let mut len = 0usize;
            while j < toks.len() {
                if toks[j].is_punct("[") {
                    depth += 1;
                } else if toks[j].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if toks[j].is_ident("cfg") {
                        has_cfg = true;
                    }
                    if toks[j].is_ident("test") {
                        has_test = true;
                    }
                    len += 1;
                }
                j += 1;
            }
            let bare_test_marker = has_test && len == 1;
            if (has_cfg && has_test) || bare_test_marker {
                if let Some(end_line) = item_end_line(&toks, j + 1) {
                    regions.push(TestRegion {
                        start_line,
                        end_line,
                    });
                }
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// Line of the `;` or matching `}` that ends the item starting at `from`.
fn item_end_line(toks: &[&Token], from: usize) -> Option<u32> {
    let mut k = from;
    // Skip any further attributes between the cfg and the item.
    while k < toks.len() {
        if toks[k].is_punct("#") && toks.get(k + 1).is_some_and(|t| t.is_punct("[")) {
            let mut depth = 0usize;
            k += 1;
            while k < toks.len() {
                if toks[k].is_punct("[") {
                    depth += 1;
                } else if toks[k].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            k += 1;
        } else {
            break;
        }
    }
    // Scan to the item's first `{` (brace-tracked to its match) or `;`.
    while k < toks.len() {
        if toks[k].is_punct(";") {
            return Some(toks[k].line);
        }
        if toks[k].is_punct("{") {
            let mut depth = 0usize;
            while k < toks.len() {
                if toks[k].is_punct("{") {
                    depth += 1;
                } else if toks[k].is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        return Some(toks[k].line);
                    }
                }
                k += 1;
            }
            return toks.last().map(|t| t.line);
        }
        k += 1;
    }
    toks.last().map(|t| t.line)
}

/// Is `line` inside any test region?
#[must_use]
pub fn in_test_region(regions: &[TestRegion], line: u32) -> bool {
    regions
        .iter()
        .any(|r| (r.start_line..=r.end_line).contains(&line))
}

/// A parsed `// burstcap-lint: allow(<rule>)` suppression marker.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule name inside the parentheses.
    pub rule: String,
    /// Marker line.
    pub line: u32,
    /// Marker column.
    pub col: u32,
    /// Whether a non-empty justification follows the rule name.
    pub justified: bool,
}

/// Extract suppression markers from plain (non-doc) comment tokens.
///
/// Grammar: `burstcap-lint: allow(<rule>) — <justification>` (also accepts
/// `--` or `:` as the separator) anywhere inside a comment. A marker with
/// no justification text is reported by the `bare-allow` rule. There is no
/// file-wide form: a suppression names the line it justifies.
#[must_use]
pub fn allows(tokens: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for tok in tokens.iter().filter(|t| t.kind == TokKind::Comment) {
        let text = &tok.text;
        // Doc comments describe markers; only plain comments are markers.
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        let Some(at) = text.find("burstcap-lint:") else {
            continue;
        };
        let rest = text[at + "burstcap-lint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_owned();
        // Skip documentation placeholders (`allow(<rule>)` in doc text).
        if rule.contains('<') || rule.contains('>') {
            continue;
        }
        let tail = rest[close + 1..].trim_start();
        let justified = ["—", "--", ":"].iter().any(|sep| {
            tail.strip_prefix(sep)
                .is_some_and(|j| !j.trim_start_matches(['-', '—', ' ']).trim().is_empty())
        });
        out.push(Allow {
            rule,
            line: tok.line,
            col: tok.col,
            justified,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn classify_paths() {
        let cases = [
            ("crates/qn/src/mva.rs", FileKind::Lib, Some("qn")),
            ("crates/qn/tests/scale.rs", FileKind::Test, Some("qn")),
            (
                "crates/bench/src/bin/b.rs",
                FileKind::Harness,
                Some("bench"),
            ),
            ("crates/bench/src/lib.rs", FileKind::Harness, Some("bench")),
            ("crates/lint/src/main.rs", FileKind::Harness, Some("lint")),
            (
                "crates/core/src/bin/tool.rs",
                FileKind::Harness,
                Some("core"),
            ),
            ("examples/quickstart.rs", FileKind::Harness, None),
            ("tests/smoke.rs", FileKind::Test, None),
            ("src/lib.rs", FileKind::Lib, None),
        ];
        for (path, kind, krate) in cases {
            let ctx = FileContext::classify(path);
            assert_eq!(ctx.kind, kind, "{path}");
            assert_eq!(ctx.crate_name.as_deref(), krate, "{path}");
        }
    }

    #[test]
    fn cfg_test_module_region_tracked_through_braces() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn a() { if x { y(); } }\n}\nfn tail() {}\n";
        let toks = lex(src);
        let regions = test_regions(&toks);
        assert_eq!(
            regions,
            vec![TestRegion {
                start_line: 2,
                end_line: 5
            }]
        );
        assert!(in_test_region(&regions, 4));
        assert!(!in_test_region(&regions, 1));
        assert!(!in_test_region(&regions, 6));
    }

    #[test]
    fn bare_test_attr_and_cfg_all_gate_items() {
        let src = "#[test]\nfn t() { body(); }\n#[cfg(all(test, feature = \"x\"))]\nfn u() { body(); }\n#[cfg(feature = \"x\")]\nfn not_test() {}\n";
        let regions = test_regions(&lex(src));
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].end_line, 2);
        assert_eq!(regions[1].end_line, 4);
        assert!(!in_test_region(&regions, 6));
    }

    #[test]
    fn braceless_item_region_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let regions = test_regions(&lex(src));
        assert_eq!(
            regions,
            vec![TestRegion {
                start_line: 1,
                end_line: 2
            }]
        );
    }

    #[test]
    fn allow_markers_parse_with_and_without_justification() {
        let src = "\
let a = x; // burstcap-lint: allow(float-eq) — exact sentinel comparison\n\
// burstcap-lint: allow(silent-clamp)\n\
// burstcap-lint: allow(silent-clamp) -- roundoff guard\n\
// burstcap-lint: allow-file(silent-clamp) — no file-wide form\n";
        let marks = allows(&lex(src));
        assert_eq!(marks.len(), 3);
        assert!(marks[0].justified);
        assert_eq!(marks[0].rule, "float-eq");
        assert!(!marks[1].justified);
        assert!(marks[2].justified);
        assert_eq!(marks[2].rule, "silent-clamp");
    }
}
