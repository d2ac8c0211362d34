//! The three semantic rules, run over the workspace model
//! ([`crate::model`]) and call graph ([`crate::callgraph`]) instead of a
//! single file's token stream:
//!
//! - `panic-reachable-api` — every `pub` lib function that can
//!   transitively reach a panic site must carry a `# Panics` doc section
//!   or a justified allow. Clippy's deny list guarantees each library
//!   panic site its own `#[expect(.., reason)]`; this rule carries the
//!   obligation up the call graph to the public API.
//! - `swallowed-result` — `let _ =` bindings and statement-level `.ok()`
//!   calls that discard the `Result` of a workspace function in lib code.
//! - `seed-provenance` — a function that feeds one of its own parameters
//!   into an RNG constructor makes every caller responsible for deriving
//!   that seed; call sites that neither pass a `derive(..)` expression nor
//!   forward a parameter of their own are flagged.
//!
//! All three over-approximate (method calls resolve by name + arity across
//! the whole workspace) — the sound direction for reachability — and are
//! suppressed through the same justified-allow markers as the lexical
//! rules.

use crate::callgraph::{CallGraph, Resolver};
use crate::context::FileKind;
use crate::model::WorkspaceModel;
use crate::parser::Visibility;
use crate::rules::Violation;

/// RNG constructor names.
const RNG_CONSTRUCTORS: &[&str] = &["seed_from_u64", "from_seed", "from_entropy", "from_os_rng"];

/// Run the semantic rules; violations carry the owning file's path and
/// are suppressed by the engine exactly like lexical ones.
#[must_use]
pub fn check_semantic(model: &WorkspaceModel, graph: &CallGraph) -> Vec<Violation> {
    let mut v = Vec::new();
    panic_reachable_api(model, graph, &mut v);
    swallowed_result(model, &mut v);
    seed_provenance(model, graph, &mut v);
    v
}

/// `panic-reachable-api`: interprocedural panic reachability for the
/// public API surface of lib files.
fn panic_reachable_api(model: &WorkspaceModel, graph: &CallGraph, v: &mut Vec<Violation>) {
    for (idx, f) in model.fns.iter().enumerate() {
        if f.in_test || f.vis != Visibility::Pub || f.has_panics_doc {
            continue;
        }
        if model.files[f.file].ctx.kind != FileKind::Lib {
            continue;
        }
        if !graph.reaches_panic(idx) {
            continue;
        }
        let mut refs: Vec<(&str, u32)> = graph
            .reachable_sites(idx)
            .into_iter()
            .map(|s| {
                (
                    model.panic_sites[s].path.as_str(),
                    model.panic_sites[s].line,
                )
            })
            .collect();
        refs.sort_unstable();
        let (ep, el) = refs[0];
        v.push(Violation {
            rule: "panic-reachable-api",
            path: model.files[f.file].rel_path.clone(),
            line: f.line,
            col: 1,
            message: format!(
                "pub fn `{}` can reach {} panic site(s), e.g. {ep}:{el}; document under `# Panics` or justify",
                f.qualified,
                refs.len()
            ),
        });
    }
}

/// `swallowed-result`: discarded workspace `Result`s in lib code.
fn swallowed_result(model: &WorkspaceModel, v: &mut Vec<Violation>) {
    let resolver = Resolver::new(model);
    for f in &model.fns {
        if f.in_test || model.files[f.file].ctx.kind != FileKind::Lib {
            continue;
        }
        let path = &model.files[f.file].rel_path;
        for d in &f.discards {
            let swallowed = d.calls.iter().find_map(|call_path| {
                resolver
                    .resolve_loose(model, f, call_path)
                    .into_iter()
                    .find(|&c| model.fns[c].returns_result)
            });
            if let Some(c) = swallowed {
                v.push(Violation {
                    rule: "swallowed-result",
                    path: path.clone(),
                    line: d.line,
                    col: d.col,
                    message: format!(
                        "`let _ =` discards the Result of `{}`; handle or propagate the error",
                        model.fns[c].qualified
                    ),
                });
            }
        }
        for call in &f.calls {
            if !call.is_ok_discard {
                continue;
            }
            let Some(recv) = &call.receiver_call else {
                continue;
            };
            let swallowed = resolver
                .resolve_loose(model, f, recv)
                .into_iter()
                .find(|&c| model.fns[c].returns_result);
            if let Some(c) = swallowed {
                v.push(Violation {
                    rule: "swallowed-result",
                    path: path.clone(),
                    line: call.line,
                    col: call.col,
                    message: format!(
                        "statement-level `.ok()` discards the Result of `{}`; handle or propagate the error",
                        model.fns[c].qualified
                    ),
                });
            }
        }
    }
}

/// `seed-provenance`: call-graph-aware seed hygiene. A function enters the
/// raw set when it feeds one of its own parameters into an RNG constructor
/// without `derive` in the argument expression; the raw set then grows to
/// a fixpoint through callers that merely forward their own parameters.
/// Finally, every call site into a raw-set function that neither contains
/// a `derive` call nor forwards a caller parameter is flagged — that is
/// where an underived seed actually enters the stream.
fn seed_provenance(model: &WorkspaceModel, graph: &CallGraph, v: &mut Vec<Violation>) {
    let forwards_param = |f: &crate::model::FnDef, args: &[String]| {
        args.iter()
            .any(|a| a != "self" && f.param_names.iter().any(|p| p == a))
    };
    let mut raw_set = vec![false; model.fns.len()];
    for (idx, f) in model.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        for call in &f.calls {
            let is_ctor = call
                .path
                .last()
                .is_some_and(|n| RNG_CONSTRUCTORS.contains(&n.as_str()));
            if is_ctor
                && !call.arg_idents.iter().any(|a| a == "derive")
                && forwards_param(f, &call.arg_idents)
            {
                raw_set[idx] = true;
            }
        }
    }
    loop {
        let mut changed = false;
        for (idx, f) in model.fns.iter().enumerate() {
            if f.in_test || raw_set[idx] {
                continue;
            }
            for (ci, call) in f.calls.iter().enumerate() {
                if !graph.call_targets[idx][ci].iter().any(|&t| raw_set[t]) {
                    continue;
                }
                if call.arg_idents.iter().any(|a| a == "derive") {
                    continue;
                }
                if forwards_param(f, &call.arg_idents) {
                    raw_set[idx] = true;
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (idx, f) in model.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        for (ci, call) in f.calls.iter().enumerate() {
            let Some(&t) = graph.call_targets[idx][ci].iter().find(|&&t| raw_set[t]) else {
                continue;
            };
            if call.arg_idents.iter().any(|a| a == "derive") {
                continue;
            }
            if forwards_param(f, &call.arg_idents) {
                continue;
            }
            v.push(Violation {
                rule: "seed-provenance",
                path: model.files[f.file].rel_path.clone(),
                line: call.line,
                col: call.col,
                message: format!(
                    "underived seed flows into `{}` (which feeds a raw seed parameter to an RNG); route it through seeds::derive",
                    model.fns[t].qualified
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{callgraph, model};

    fn check(sources: &[(&str, &str)]) -> Vec<Violation> {
        let owned: Vec<(String, String)> = sources
            .iter()
            .map(|(p, s)| ((*p).to_owned(), (*s).to_owned()))
            .collect();
        let m = model::build(&owned);
        let g = callgraph::build(&m);
        check_semantic(&m, &g)
    }

    #[test]
    fn panic_reachability_requires_panics_doc() {
        let src = "\
pub fn undocumented(x: u64) -> u64 { helper(x) }
/// Documented.
///
/// # Panics
/// When x is zero.
pub fn documented(x: u64) -> u64 { helper(x) }
pub fn safe(x: u64) -> u64 { x }
fn helper(x: u64) -> u64 {
    #[expect(clippy::unwrap_used, reason = \"invariant\")]
    x.checked_mul(2).unwrap()
}
";
        let v = check(&[("crates/qn/src/api.rs", src)]);
        let hits: Vec<(u32, &str)> = v
            .iter()
            .filter(|v| v.rule == "panic-reachable-api")
            .map(|v| (v.line, v.rule))
            .collect();
        assert_eq!(hits, vec![(1, "panic-reachable-api")], "{v:?}");
    }

    #[test]
    fn swallowed_results_are_flagged() {
        let src = "\
pub fn fallible() -> Result<u64, String> { Ok(1) }
pub fn infallible() -> u64 { 1 }
pub fn caller() {
    let _ = fallible();
    let _ = infallible();
    fallible().ok();
}
";
        let v = check(&[("crates/online/src/x.rs", src)]);
        let hits: Vec<u32> = v
            .iter()
            .filter(|v| v.rule == "swallowed-result")
            .map(|v| v.line)
            .collect();
        assert_eq!(hits, vec![4, 6], "{v:?}");
    }

    #[test]
    fn seed_provenance_tracks_raw_parameters_through_callers() {
        let src = "\
pub fn make_rng(seed: u64) -> SmallRng {
    #[expect(clippy::disallowed_methods, reason = \"seed derivation is the callers' contract\")]
    SmallRng::seed_from_u64(seed)
}
pub fn forwards(seed: u64) -> SmallRng { make_rng(seed) }
pub fn derived() -> SmallRng { make_rng(seeds::derive(7, 1, 0)) }
pub fn raw() -> SmallRng { make_rng(42) }
";
        let v = check(&[("crates/sim/src/rng.rs", src)]);
        let hits: Vec<u32> = v
            .iter()
            .filter(|v| v.rule == "seed-provenance")
            .map(|v| v.line)
            .collect();
        // Only `raw` (line 7) injects an underived seed; `forwards`
        // propagates the obligation and `derived` discharges it.
        assert_eq!(hits, vec![7], "{v:?}");
    }
}
