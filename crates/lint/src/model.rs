//! The workspace model: every non-test file parsed, every function given a
//! qualified identity, and panic sites tied to their enclosing functions.
//!
//! The model is the substrate the call graph ([`crate::callgraph`]) and the
//! semantic rules ([`crate::semrules`]) run on. Identity is path-derived:
//! `crates/qn/src/ctmc.rs` contributes functions qualified
//! `qn::ctmc::Ctmc::steady_state` (crate directory name, module path from
//! the file location plus inline `mod`s, `impl` subject type, name).
//! Extern-crate names (`burstcap_qn`, and `burstcap` for `crates/core`)
//! are normalized back to crate directory names during resolution.

use crate::context::{
    allows, in_test_region, test_regions, Allow, FileContext, FileKind, TestRegion,
};
use crate::lexer::{lex, Token};
use crate::parser::{self, Call, Discard, Item, ParsedFile, Visibility};

/// One analyzed workspace file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative `/`-separated path.
    pub rel_path: String,
    /// Path-derived context (lib/bin/bench/example/test).
    pub ctx: FileContext,
    /// Lexed tokens (comments included).
    pub tokens: Vec<Token>,
    /// `#[cfg(test)]` line regions.
    pub regions: Vec<TestRegion>,
    /// Suppression markers.
    pub marks: Vec<Allow>,
    /// Parse result.
    pub parsed: ParsedFile,
    /// Crate directory name (`qn`, `core`, ...; `repro` for the root
    /// package, `example` for `examples/`, `test` for root `tests/`).
    pub crate_dir: String,
    /// Module path derived from the file location (`["bin", "tool"]`).
    pub module: Vec<String>,
    /// Flattened `use` imports of the file (local name → path segments).
    pub imports: Vec<(String, Vec<String>)>,
}

/// A function in the workspace model.
#[derive(Debug)]
pub struct FnDef {
    /// Index of the owning file.
    pub file: usize,
    /// Crate directory name.
    pub crate_dir: String,
    /// Module path (file-derived plus inline `mod`s).
    pub module: Vec<String>,
    /// `impl`/`trait` subject type, when an associated fn.
    pub self_ty: Option<String>,
    /// Function name.
    pub name: String,
    /// Display-qualified name (`qn::ctmc::Ctmc::steady_state`).
    pub qualified: String,
    /// Visibility.
    pub vis: Visibility,
    /// Whether the return type mentions `Result`.
    pub returns_result: bool,
    /// Whether the doc block carries a `# Panics` section.
    pub has_panics_doc: bool,
    /// Parameter names (flattened).
    pub param_names: Vec<String>,
    /// Number of parameters excluding a `self` receiver.
    pub arity: usize,
    /// Whether the fn has a `self` receiver (is a method).
    pub is_method: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the fn lives in `#[cfg(test)]` code or a test file.
    pub in_test: bool,
    /// Calls made by the body.
    pub calls: Vec<Call>,
    /// `let _ = ...;` statements in the body.
    pub discards: Vec<Discard>,
    /// Indices into [`WorkspaceModel::panic_sites`].
    pub panics: Vec<usize>,
}

/// One panic site, tied to its enclosing function.
#[derive(Debug)]
pub struct PanicDef {
    /// Owning function (index into [`WorkspaceModel::fns`]).
    pub owner: usize,
    /// Owning file path.
    pub path: String,
    /// The panicking name (`unwrap`, `expect`, `panic`, ...).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// Whether the site sits in a `FileKind::Lib` file outside test code
    /// (only those seed panic-reachability).
    pub in_lib: bool,
}

/// The whole-workspace model.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    /// All analyzed files (test files included, for totality; their fns
    /// are marked `in_test`).
    pub files: Vec<FileModel>,
    /// All functions.
    pub fns: Vec<FnDef>,
    /// All panic sites in non-test code.
    pub panic_sites: Vec<PanicDef>,
}

/// Derive (crate_dir, module path) from a workspace-relative file path.
fn crate_and_module(rel_path: &str) -> (String, Vec<String>) {
    let parts: Vec<&str> = rel_path.split('/').collect();
    // crates/<c>/src/... and crates/<c>/tests/...
    if parts.len() >= 3 && parts[0] == "crates" {
        let crate_dir = parts[1].to_owned();
        let rest = &parts[2..];
        let module = match rest.first().copied() {
            Some("src") => module_from_src(&rest[1..]),
            Some(other) => {
                // tests/ benches/ — keep the directory as a module marker.
                let mut m = vec![other.to_owned()];
                m.extend(module_from_src(&rest[1..]));
                m
            }
            None => Vec::new(),
        };
        return (crate_dir, module);
    }
    // Root package: src/, examples/, tests/.
    match parts.first().copied() {
        Some("src") => ("repro".to_owned(), module_from_src(&parts[1..])),
        Some("examples") => ("example".to_owned(), module_from_src(&parts[1..])),
        Some("tests") => ("test".to_owned(), module_from_src(&parts[1..])),
        _ => ("unknown".to_owned(), module_from_src(&parts)),
    }
}

/// Module path from path components under `src/`.
fn module_from_src(parts: &[&str]) -> Vec<String> {
    let mut module = Vec::new();
    for (i, part) in parts.iter().enumerate() {
        let last = i + 1 == parts.len();
        if last {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if stem != "lib" && stem != "mod" && stem != "main" {
                module.push(stem.to_owned());
            }
        } else {
            module.push((*part).to_owned());
        }
    }
    module
}

/// Build the model from `(rel_path, source)` pairs. Files are processed in
/// the given order; callers sort for determinism.
#[must_use]
pub fn build(sources: &[(String, String)]) -> WorkspaceModel {
    let mut model = WorkspaceModel::default();
    for (rel_path, src) in sources {
        let ctx = FileContext::classify(rel_path);
        let tokens = lex(src);
        let regions = test_regions(&tokens);
        let marks = allows(&tokens);
        let parsed = parser::parse(&tokens);
        let (crate_dir, module) = crate_and_module(rel_path);
        let mut imports = Vec::new();
        collect_imports(&parsed.items, &mut imports);
        model.files.push(FileModel {
            rel_path: rel_path.clone(),
            ctx,
            tokens,
            regions,
            marks,
            parsed,
            crate_dir,
            module,
            imports,
        });
    }
    for file_idx in 0..model.files.len() {
        let items = std::mem::take(&mut model.files[file_idx].parsed.items);
        let base_module = model.files[file_idx].module.clone();
        collect_fns(&mut model, file_idx, &items, &base_module, None, false);
        model.files[file_idx].parsed.items = items;
    }
    model
}

fn collect_imports(items: &[Item], out: &mut Vec<(String, Vec<String>)>) {
    for item in items {
        match item {
            Item::Use(imports) => {
                for i in imports {
                    out.push((i.local.clone(), i.path.clone()));
                }
            }
            Item::Mod { items, .. } => collect_imports(items, out),
            _ => {}
        }
    }
}

fn collect_fns(
    model: &mut WorkspaceModel,
    file_idx: usize,
    items: &[Item],
    module: &[String],
    self_ty: Option<&str>,
    in_test: bool,
) {
    let file_is_test = model.files[file_idx].ctx.kind == FileKind::Test;
    for item in items {
        match item {
            Item::Fn(f) => {
                let fn_in_test = in_test
                    || file_is_test
                    || f.cfg_test
                    || in_test_region(&model.files[file_idx].regions, f.line);
                push_fn(model, file_idx, f, module, self_ty, fn_in_test);
            }
            Item::Impl {
                self_ty: ty, fns, ..
            } => {
                for f in fns {
                    let fn_in_test = in_test
                        || file_is_test
                        || f.cfg_test
                        || in_test_region(&model.files[file_idx].regions, f.line);
                    push_fn(model, file_idx, f, module, Some(ty.as_str()), fn_in_test);
                }
            }
            Item::Mod {
                name,
                items,
                cfg_test,
                ..
            } => {
                let mut sub = module.to_vec();
                sub.push(name.clone());
                collect_fns(model, file_idx, items, &sub, None, in_test || *cfg_test);
            }
            _ => {}
        }
    }
}

fn push_fn(
    model: &mut WorkspaceModel,
    file_idx: usize,
    f: &parser::FnItem,
    module: &[String],
    self_ty: Option<&str>,
    in_test: bool,
) {
    let file = &model.files[file_idx];
    let crate_dir = file.crate_dir.clone();
    let mut qualified = vec![crate_dir.clone()];
    qualified.extend(module.iter().cloned());
    if let Some(ty) = self_ty {
        qualified.push(ty.to_owned());
    }
    qualified.push(f.name.clone());
    let is_method = f
        .params
        .first()
        .is_some_and(|p| p.names.iter().any(|n| n == "self"));
    let arity = f.params.len() - usize::from(is_method);
    let fn_idx = model.fns.len();
    let mut panics = Vec::new();
    if !in_test {
        if let Some(body) = &f.body {
            let in_lib = file.ctx.kind == FileKind::Lib;
            for p in &body.panics {
                panics.push(model.panic_sites.len());
                model.panic_sites.push(PanicDef {
                    owner: fn_idx,
                    path: file.rel_path.clone(),
                    what: p.what.clone(),
                    line: p.line,
                    in_lib,
                });
            }
        }
    }
    let (calls, discards) = match (&f.body, in_test) {
        (Some(body), false) => (body.calls.clone(), body.discards.clone()),
        _ => (Vec::new(), Vec::new()),
    };
    model.fns.push(FnDef {
        file: file_idx,
        crate_dir,
        module: module.to_vec(),
        self_ty: self_ty.map(str::to_owned),
        name: f.name.clone(),
        qualified: qualified.join("::"),
        vis: f.vis,
        returns_result: f.returns_result,
        has_panics_doc: f.has_panics_doc,
        param_names: f.params.iter().flat_map(|p| p.names.clone()).collect(),
        arity,
        is_method,
        line: f.line,
        in_test,
        calls,
        discards,
        panics,
    });
}

/// Normalize an extern-crate path segment to a crate directory name.
/// `burstcap` is the lib name of `crates/core`; everything else follows
/// the `burstcap_<dir>` convention.
#[must_use]
pub fn extern_to_crate_dir(segment: &str) -> Option<String> {
    if segment == "burstcap" {
        return Some("core".to_owned());
    }
    if segment == "burstcap_repro" {
        return Some("repro".to_owned());
    }
    segment.strip_prefix("burstcap_").map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_and_module_derivation() {
        let cases: &[(&str, &str, &[&str])] = &[
            ("crates/qn/src/lib.rs", "qn", &[]),
            ("crates/qn/src/ctmc.rs", "qn", &["ctmc"]),
            ("crates/qn/src/bin/tool.rs", "qn", &["bin", "tool"]),
            ("crates/online/src/sources/mod.rs", "online", &["sources"]),
            (
                "crates/online/src/sources/replay.rs",
                "online",
                &["sources", "replay"],
            ),
            ("src/lib.rs", "repro", &[]),
            ("examples/quickstart.rs", "example", &["quickstart"]),
            ("crates/qn/tests/scale.rs", "qn", &["tests", "scale"]),
        ];
        for (path, crate_dir, module) in cases {
            let (c, m) = crate_and_module(path);
            assert_eq!(&c, crate_dir, "{path}");
            assert_eq!(m, *module, "{path}");
        }
    }

    #[test]
    fn build_ties_panics_to_fns() {
        let src = "\
pub struct S;
impl S {
    pub fn risky(&self) -> u64 {
        #[expect(clippy::unwrap_used, reason = \"invariant: always Some here\")]
        self.inner.unwrap()
    }
    fn helper(&self) { other.expect(\"boom\"); }
}
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}
";
        let model = build(&[("crates/qn/src/s.rs".to_owned(), src.to_owned())]);
        assert_eq!(model.fns.len(), 3);
        let risky = model.fns.iter().find(|f| f.name == "risky").expect("risky");
        assert_eq!(risky.qualified, "qn::s::S::risky");
        assert_eq!(risky.vis, Visibility::Pub);
        assert!(risky.is_method);
        assert_eq!(risky.panics.len(), 1);
        assert_eq!(model.panic_sites[risky.panics[0]].line, 5);
        let helper = model
            .fns
            .iter()
            .find(|f| f.name == "helper")
            .expect("helper");
        assert_eq!(helper.panics.len(), 1);
        assert_eq!(model.panic_sites[helper.panics[0]].what, "expect");
        // The cfg(test) fn contributes no panic sites.
        assert_eq!(model.panic_sites.len(), 2);
        let t = model.fns.iter().find(|f| f.name == "t").expect("t");
        assert!(t.in_test);
    }
}
