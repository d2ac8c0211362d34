//! Workspace call graph: intra-workspace call resolution, panic
//! reachability, and the deterministic `burstcap-lint report` rendering.
//!
//! Resolution is heuristic by design (no type inference):
//!
//! - **Path calls** (`seeds::derive(..)`, `Map2::poisson(..)`) resolve by
//!   suffix match against every function's qualified segment list
//!   (`crate_dir::module::…::[Type::]name`), after normalizing `crate`/
//!   `self`/`super`/`Self` prefixes and extern-crate names, and after
//!   expanding the file's `use` imports. Single-segment calls prefer the
//!   same module, then the same crate.
//! - **Method calls** (`.push(..)`) resolve by name to every workspace
//!   method with that name whose arity matches (any arity when the
//!   argument list contains a closure, whose commas defeat counting),
//!   restricted to *visible* crates: the caller's own crate plus every
//!   crate the calling file imports. Within that scope resolution still
//!   over-approximates — a `Vec::push` can pick up a same-crate `push` —
//!   which is the sound direction for panic reachability; the visibility
//!   restriction exists because an unrestricted name union welds every
//!   `push` method workspace-wide into one clique and reports plain
//!   accumulators as "reaching" the MAP fitter's panics.
//! - **Unresolved edges are recorded, never dropped**: every call that
//!   matches no workspace function lands in [`CallGraph::unresolved`] and
//!   is tallied (by callee name) in the report, so resolution rot is
//!   visible instead of silent.

use std::collections::BTreeMap;

use crate::model::{extern_to_crate_dir, FnDef, WorkspaceModel};
use crate::parser::CallKind;

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Calling function.
    pub caller: usize,
    /// Called function.
    pub callee: usize,
    /// 1-based line of the call site.
    pub line: u32,
}

/// One unresolved call (no workspace candidate).
#[derive(Debug, Clone)]
pub struct Unresolved {
    /// Calling function.
    pub caller: usize,
    /// Call path as written.
    pub path: String,
    /// 1-based line.
    pub line: u32,
}

/// The call graph over [`WorkspaceModel::fns`].
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Resolved edges.
    pub edges: Vec<Edge>,
    /// Unresolved calls (std/external or genuinely unknown).
    pub unresolved: Vec<Unresolved>,
    /// Per-fn, per-call resolved callee lists, aligned with
    /// [`FnDef::calls`] (empty inner list = unresolved call).
    pub call_targets: Vec<Vec<Vec<usize>>>,
    /// Per-fn bitmask blocks of reachable panic sites (indexed as
    /// `model.panic_sites`; only `in_lib` sites are seeded).
    pub reach: Vec<Vec<u64>>,
    /// Number of mask blocks (`ceil(panic_sites / 64)`).
    pub blocks: usize,
}

impl CallGraph {
    /// Does `fn_idx` reach any lib panic site?
    #[must_use]
    pub fn reaches_panic(&self, fn_idx: usize) -> bool {
        self.reach[fn_idx].iter().any(|&b| b != 0)
    }

    /// Sorted site indices reachable from `fn_idx`.
    #[must_use]
    pub fn reachable_sites(&self, fn_idx: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for (blk, &bits) in self.reach[fn_idx].iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                out.push(blk * 64 + bit);
                bits &= bits - 1;
            }
        }
        out
    }
}

/// Build the call graph for a model.
#[must_use]
pub fn build(model: &WorkspaceModel) -> CallGraph {
    let resolver = Resolver::new(model);
    let mut graph = CallGraph::default();
    for (caller, f) in model.fns.iter().enumerate() {
        let mut targets = Vec::with_capacity(f.calls.len());
        for call in &f.calls {
            let candidates = resolver.resolve(model, f, call);
            if candidates.is_empty() {
                graph.unresolved.push(Unresolved {
                    caller,
                    path: call.path.join("::"),
                    line: call.line,
                });
            } else {
                for &callee in &candidates {
                    graph.edges.push(Edge {
                        caller,
                        callee,
                        line: call.line,
                    });
                }
            }
            targets.push(candidates);
        }
        graph.call_targets.push(targets);
    }
    // Panic reachability: seed each fn's mask with its own lib panic
    // sites, then propagate callee → caller to a fixpoint.
    let blocks = model.panic_sites.len().div_ceil(64).max(1);
    graph.blocks = blocks;
    graph.reach = vec![vec![0u64; blocks]; model.fns.len()];
    for (idx, site) in model.panic_sites.iter().enumerate() {
        if site.in_lib {
            graph.reach[site.owner][idx / 64] |= 1 << (idx % 64);
        }
    }
    loop {
        let mut changed = false;
        for e in &graph.edges {
            if e.caller == e.callee {
                continue;
            }
            // Split-borrow via index juggling: OR callee's mask into
            // caller's.
            let (a, b) = (e.caller.min(e.callee), e.caller.max(e.callee));
            let (lo, hi) = graph.reach.split_at_mut(b);
            let (caller_mask, callee_mask) = if e.caller < e.callee {
                (&mut lo[a], &hi[0])
            } else {
                (&mut hi[0], &lo[a])
            };
            for blk in 0..blocks {
                let merged = caller_mask[blk] | callee_mask[blk];
                if merged != caller_mask[blk] {
                    caller_mask[blk] = merged;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    graph
}

/// Symbol tables for call resolution.
pub(crate) struct Resolver {
    /// Free functions by name.
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods (fns with a self type) by name.
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// All fns by (last-two-segment) `Type::name` key.
    by_ty_and_name: BTreeMap<(String, String), Vec<usize>>,
    /// Per-file visible crate directories: the file's own crate plus every
    /// crate its `use` imports name. Method calls resolve only into
    /// visible crates.
    file_visible: Vec<std::collections::BTreeSet<String>>,
}

impl Resolver {
    pub(crate) fn new(model: &WorkspaceModel) -> Self {
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_ty_and_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (idx, f) in model.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            match &f.self_ty {
                Some(ty) => {
                    methods_by_name.entry(f.name.clone()).or_default().push(idx);
                    by_ty_and_name
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(idx);
                }
                None => {
                    free_by_name.entry(f.name.clone()).or_default().push(idx);
                }
            }
        }
        let file_visible = model
            .files
            .iter()
            .map(|file| {
                let mut visible = std::collections::BTreeSet::new();
                visible.insert(file.crate_dir.clone());
                for (_, path) in &file.imports {
                    if let Some(dir) = path.first().and_then(|s| extern_to_crate_dir(s)) {
                        visible.insert(dir);
                    }
                }
                visible
            })
            .collect();
        Resolver {
            free_by_name,
            methods_by_name,
            by_ty_and_name,
            file_visible,
        }
    }

    /// Resolve a bare call path (from a discard statement or an `.ok()`
    /// receiver) where the path/method distinction and the arity are
    /// unknown: try path resolution first, then fall back to any-arity
    /// method resolution for single-segment names.
    pub(crate) fn resolve_loose(
        &self,
        model: &WorkspaceModel,
        caller: &FnDef,
        path: &[String],
    ) -> Vec<usize> {
        let synthetic = crate::parser::Call {
            path: path.to_vec(),
            kind: CallKind::Path,
            line: 0,
            col: 0,
            arg_idents: Vec::new(),
            arg_count: 0,
            args_have_closure: false,
            is_ok_discard: false,
            receiver_call: None,
        };
        let hits = self.resolve(model, caller, &synthetic);
        if !hits.is_empty() || path.len() != 1 {
            return hits;
        }
        let method = crate::parser::Call {
            kind: CallKind::Method,
            args_have_closure: true,
            ..synthetic
        };
        self.resolve(model, caller, &method)
    }

    /// Resolve one call from `caller` to candidate fn indices.
    pub(crate) fn resolve(
        &self,
        model: &WorkspaceModel,
        caller: &FnDef,
        call: &crate::parser::Call,
    ) -> Vec<usize> {
        if call.kind == CallKind::Method {
            return self.resolve_method(model, caller, call);
        }
        let mut path: Vec<String> = call.path.clone();
        // `Self::helper` → the enclosing impl type.
        if path.first().is_some_and(|s| s == "Self") {
            if let Some(ty) = &caller.self_ty {
                path[0] = ty.clone();
            }
        }
        // Normalize leading `crate` / `self` / `super` to crate-relative.
        while path
            .first()
            .is_some_and(|s| s == "crate" || s == "self" || s == "super")
        {
            path.remove(0);
        }
        if let Some(first) = path.first() {
            if let Some(dir) = extern_to_crate_dir(first) {
                path[0] = dir;
            }
        }
        if path.is_empty() {
            return Vec::new();
        }
        // Single segment: same module, then same crate, then import
        // expansion.
        if path.len() == 1 {
            let name = &path[0];
            if let Some(cands) = self.free_by_name.get(name) {
                let same_module: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| {
                        model.fns[i].crate_dir == caller.crate_dir
                            && model.fns[i].module == caller.module
                    })
                    .collect();
                if !same_module.is_empty() {
                    return same_module;
                }
                let same_crate: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| model.fns[i].crate_dir == caller.crate_dir)
                    .collect();
                if !same_crate.is_empty() {
                    return same_crate;
                }
            }
            // Imported free fn (`use burstcap_seeds::derive; derive(..)`).
            let file = &model.files[caller.file];
            if let Some((_, full)) = file.imports.iter().find(|(local, _)| local == name) {
                let mut expanded = full.clone();
                if let Some(first) = expanded.first() {
                    if let Some(dir) = extern_to_crate_dir(first) {
                        expanded[0] = dir;
                    }
                }
                while expanded
                    .first()
                    .is_some_and(|s| s == "crate" || s == "self" || s == "super")
                {
                    expanded.remove(0);
                }
                let hits = self.suffix_match(model, &expanded);
                if !hits.is_empty() {
                    return hits;
                }
            }
            return Vec::new();
        }
        // Multi-segment: try suffix match raw, then with the first segment
        // expanded through imports (`qn::mva::solve` vs `use burstcap_qn as
        // qn`).
        let hits = self.suffix_match(model, &path);
        if !hits.is_empty() {
            return hits;
        }
        let file = &model.files[caller.file];
        if let Some((_, full)) = file.imports.iter().find(|(local, _)| local == &path[0]) {
            let mut expanded = full.clone();
            expanded.extend(path[1..].iter().cloned());
            if let Some(first) = expanded.first() {
                if let Some(dir) = extern_to_crate_dir(first) {
                    expanded[0] = dir;
                }
            }
            while expanded
                .first()
                .is_some_and(|s| s == "crate" || s == "self" || s == "super")
            {
                expanded.remove(0);
            }
            let hits = self.suffix_match(model, &expanded);
            if !hits.is_empty() {
                return hits;
            }
        }
        Vec::new()
    }

    /// Match `path` against the tail of every fn's qualified segments,
    /// using the `Type::name` table as a fast path for two-segment calls.
    fn suffix_match(&self, model: &WorkspaceModel, path: &[String]) -> Vec<usize> {
        debug_assert!(!path.is_empty());
        let name = path.last().cloned().unwrap_or_default();
        let mut out = Vec::new();
        if path.len() >= 2 {
            let ty = &path[path.len() - 2];
            if let Some(cands) = self.by_ty_and_name.get(&(ty.clone(), name.clone())) {
                out.extend(
                    cands
                        .iter()
                        .copied()
                        .filter(|&i| qualified_ends_with(&model.fns[i], path)),
                );
                if !out.is_empty() {
                    return out;
                }
            }
        }
        for table in [&self.free_by_name, &self.methods_by_name] {
            if let Some(cands) = table.get(&name) {
                out.extend(
                    cands
                        .iter()
                        .copied()
                        .filter(|&i| qualified_ends_with(&model.fns[i], path)),
                );
            }
        }
        out
    }

    /// Method call: every visible-crate method with the name,
    /// arity-filtered.
    fn resolve_method(
        &self,
        model: &WorkspaceModel,
        caller: &FnDef,
        call: &crate::parser::Call,
    ) -> Vec<usize> {
        let Some(name) = call.path.last() else {
            return Vec::new();
        };
        let Some(cands) = self.methods_by_name.get(name) else {
            return Vec::new();
        };
        let visible = &self.file_visible[caller.file];
        cands
            .iter()
            .copied()
            .filter(|&i| {
                let f = &model.fns[i];
                f.is_method
                    && (call.args_have_closure || f.arity == call.arg_count)
                    && visible.contains(&f.crate_dir)
            })
            .collect()
    }
}

/// Does the fn's qualified segment list end with `path`?
fn qualified_ends_with(f: &FnDef, path: &[String]) -> bool {
    let mut segs: Vec<&str> = vec![f.crate_dir.as_str()];
    segs.extend(f.module.iter().map(String::as_str));
    if let Some(ty) = &f.self_ty {
        segs.push(ty.as_str());
    }
    segs.push(f.name.as_str());
    if path.len() > segs.len() {
        return false;
    }
    segs[segs.len() - path.len()..]
        .iter()
        .zip(path.iter())
        .all(|(a, b)| *a == b)
}

/// Render the deterministic panic-reachability report: entry points are
/// the `pub` functions of `FileKind::Lib` files outside test code, sorted
/// by qualified name; every field sits on its own line (the same contract
/// as `burstcap_bench::json`, so CI can twice-run-diff the file byte for
/// byte).
#[must_use]
pub fn render_report(model: &WorkspaceModel, graph: &CallGraph) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"burstcap-lint-report-v2\",");
    let _ = writeln!(out, "  \"files\": {},", model.files.len());
    let n_fns = model.fns.iter().filter(|f| !f.in_test).count();
    let _ = writeln!(out, "  \"functions\": {n_fns},");
    let _ = writeln!(out, "  \"panic_sites\": {},", model.panic_sites.len());
    let _ = writeln!(out, "  \"resolved_edges\": {},", graph.edges.len());
    let _ = writeln!(out, "  \"unresolved_edges\": {},", graph.unresolved.len());
    // Unresolved tally by callee path (std/external calls dominate; the
    // tally makes resolution rot visible across report diffs).
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    for u in &graph.unresolved {
        *tally.entry(u.path.as_str()).or_default() += 1;
    }
    out.push_str("  \"unresolved_by_callee\": {\n");
    let total = tally.len();
    for (i, (path, count)) in tally.iter().enumerate() {
        let comma = if i + 1 == total { "" } else { "," };
        let _ = writeln!(out, "    \"{path}\": {count}{comma}");
    }
    out.push_str("  },\n");
    // Panic sites, path/line sorted.
    let mut sites: Vec<usize> = (0..model.panic_sites.len()).collect();
    sites.sort_by(|&a, &b| {
        let (pa, pb) = (&model.panic_sites[a], &model.panic_sites[b]);
        (&pa.path, pa.line).cmp(&(&pb.path, pb.line))
    });
    out.push_str("  \"sites\": [\n");
    for (i, &s) in sites.iter().enumerate() {
        let site = &model.panic_sites[s];
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"path\": \"{}\",", site.path);
        let _ = writeln!(out, "      \"line\": {},", site.line);
        let _ = writeln!(out, "      \"what\": \"{}\",", site.what);
        let _ = writeln!(out, "      \"in_lib\": {}", site.in_lib);
        out.push_str("    }");
        out.push_str(if i + 1 == sites.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n");
    // The reachability matrix over pub lib entry points.
    let mut entries: Vec<usize> = (0..model.fns.len())
        .filter(|&i| {
            let f = &model.fns[i];
            !f.in_test
                && f.vis == crate::parser::Visibility::Pub
                && model.files[f.file].ctx.kind == crate::context::FileKind::Lib
        })
        .collect();
    entries.sort_by(|&a, &b| {
        (&model.fns[a].qualified, model.fns[a].line)
            .cmp(&(&model.fns[b].qualified, model.fns[b].line))
    });
    out.push_str("  \"entry_points\": [\n");
    for (i, &e) in entries.iter().enumerate() {
        let f = &model.fns[e];
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"fn\": \"{}\",", f.qualified);
        let _ = writeln!(out, "      \"file\": \"{}\",", model.files[f.file].rel_path);
        let _ = writeln!(out, "      \"line\": {},", f.line);
        let _ = writeln!(out, "      \"panics_documented\": {},", f.has_panics_doc);
        let reach = graph.reachable_sites(e);
        let _ = writeln!(out, "      \"reachable_panic_sites\": {},", reach.len());
        out.push_str("      \"sites\": [\n");
        // Site references sorted by path/line for stable output.
        let mut refs: Vec<String> = reach
            .iter()
            .map(|&s| {
                let site = &model.panic_sites[s];
                format!("{}:{}", site.path, site.line)
            })
            .collect();
        refs.sort();
        for (k, r) in refs.iter().enumerate() {
            let comma = if k + 1 == refs.len() { "" } else { "," };
            let _ = writeln!(out, "        \"{r}\"{comma}");
        }
        out.push_str("      ]\n");
        out.push_str("    }");
        out.push_str(if i + 1 == entries.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model;

    fn two_file_model() -> WorkspaceModel {
        let a = "\
pub fn entry(x: u64) -> u64 { helper(x) }
fn helper(x: u64) -> u64 {
    #[expect(clippy::unwrap_used, reason = \"test invariant\")]
    deep::risky(x).unwrap()
}
";
        let b = "\
pub fn risky(x: u64) -> Result<u64, String> {
    if x == 0 { panic!(\"zero\"); }
    Ok(x)
}
pub fn safe(x: u64) -> u64 { x + 1 }
";
        model::build(&[
            ("crates/qn/src/entry.rs".to_owned(), a.to_owned()),
            ("crates/qn/src/deep.rs".to_owned(), b.to_owned()),
        ])
    }

    #[test]
    fn resolution_and_reachability() {
        let m = two_file_model();
        let g = build(&m);
        let idx = |name: &str| {
            m.fns
                .iter()
                .position(|f| f.name == name)
                .unwrap_or_else(|| panic!("fn {name}"))
        };
        // entry → helper → deep::risky; safe reaches nothing.
        assert!(g.reaches_panic(idx("entry")));
        assert!(g.reaches_panic(idx("helper")));
        assert!(g.reaches_panic(idx("risky")));
        assert!(!g.reaches_panic(idx("safe")));
        // helper's own unwrap + risky's panic! both reach entry.
        assert_eq!(g.reachable_sites(idx("entry")).len(), 2);
        // Unresolved calls recorded (Ok(..) has no workspace target).
        assert!(g.unresolved.iter().any(|u| u.path == "Ok"));
    }

    #[test]
    fn method_resolution_is_arity_filtered() {
        let src_a = "\
pub struct Acc;
impl Acc {
    pub fn push(&mut self, v: f64) { self.store(v).unwrap() }
    fn store(&mut self, v: f64) -> Result<(), String> { Err(String::new()) }
}
";
        let src_b = "\
use burstcap_stats::acc::Acc;
pub fn run(acc: &mut Acc) {
    acc.push(1.0);
}
pub fn other(xs: &mut Vec<(f64, f64)>) {
    xs.push((1.0, 2.0));
}
";
        let m = model::build(&[
            ("crates/stats/src/acc.rs".to_owned(), src_a.to_owned()),
            ("crates/online/src/run.rs".to_owned(), src_b.to_owned()),
        ]);
        let g = build(&m);
        let idx = |name: &str| m.fns.iter().position(|f| f.name == name).expect("fn");
        // run → Acc::push (arity 1) → store's unwrap.
        assert!(g.reaches_panic(idx("run")));
        // `other` pushes a tuple — still arity 1, so the over-approximation
        // links it too (sound direction, within the visible-crate scope
        // established by the `use burstcap_stats` import).
        assert!(g.reaches_panic(idx("other")));
    }

    #[test]
    fn report_is_deterministic_and_one_field_per_line() {
        let m = two_file_model();
        let g = build(&m);
        let r1 = render_report(&m, &g);
        let r2 = render_report(&m, &g);
        assert_eq!(r1, r2);
        assert!(r1.contains("\"schema\": \"burstcap-lint-report-v2\""));
        assert!(r1
            .lines()
            .any(|l| l.trim() == "\"fn\": \"qn::deep::risky\","));
        // Every scalar field owns its line.
        assert!(r1
            .lines()
            .any(|l| l.trim().starts_with("\"reachable_panic_sites\": ")));
    }
}
