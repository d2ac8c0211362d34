//! A lightweight recursive-descent parser over the [`crate::lexer`] token
//! stream: items, `impl` blocks, `fn` signatures and bodies, call and
//! method-call expressions, and `use` trees.
//!
//! This is deliberately **not** a full Rust grammar. Items are parsed
//! structurally (visibility, keyword, name, delimiter matching); function
//! bodies are scanned for the events the semantic rules need — call
//! expressions with their argument token sets, panic sites, `let _ =`
//! bindings, and `.ok()` discards — without building an expression tree.
//! Anything the parser cannot place is recorded as a [`ParseError`] and
//! skipped token-by-token; the workspace-totality test asserts the error
//! list stays empty for every real workspace file, so the parser cannot
//! silently rot as new syntax lands.

use crate::lexer::{TokKind, Token};

/// Visibility of an item, as far as the linter cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// `pub` — part of the crate's public API surface.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in …)` — scoped, not public API.
    Scoped,
    /// No visibility qualifier.
    Private,
}

/// What kind of call expression a [`Call`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `path::to::fn(...)` — resolved through the symbol table by path.
    Path,
    /// `.method(...)` — resolved by method name across workspace impls.
    Method,
}

/// One call expression found in a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Path segments (`["seeds", "derive"]`) or the bare method name.
    pub path: Vec<String>,
    /// Path call or method call.
    pub kind: CallKind,
    /// 1-based line of the called name.
    pub line: u32,
    /// 1-based column of the called name.
    pub col: u32,
    /// Identifier texts appearing anywhere in the argument list.
    pub arg_idents: Vec<String>,
    /// Number of top-level arguments (comma-split at delimiter depth 1).
    pub arg_count: usize,
    /// Whether the argument list contains a closure pipe (`|…|`), which
    /// makes the comma-based `arg_count` unreliable.
    pub args_have_closure: bool,
    /// True when the method call is `.ok()` with no arguments and the
    /// token after the closing paren is `;` (a statement-level discard).
    pub is_ok_discard: bool,
    /// For `.ok()`/method calls: the path of the call expression whose
    /// result is the receiver (`fit(x).ok()` records `fit`), when the
    /// receiver is syntactically a call.
    pub receiver_call: Option<Vec<String>>,
}

/// A statically-detected panic site (the vocabulary of the library roots'
/// clippy deny list: `.unwrap()` / `.expect()` method calls and `panic!` /
/// `todo!` / `unimplemented!` macros; `unreachable!` documents a closed
/// branch and is not counted).
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// The panicking name (`unwrap`, `panic`, ...).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// A `let _ = <expr>;` statement in a function body.
#[derive(Debug, Clone)]
pub struct Discard {
    /// 1-based line of the `let`.
    pub line: u32,
    /// 1-based column of the `let`.
    pub col: u32,
    /// Paths of all call expressions inside the discarded expression.
    pub calls: Vec<Vec<String>>,
}

/// One parameter of a function signature.
#[derive(Debug, Clone)]
pub struct Param {
    /// Identifiers bound by the parameter pattern (`mut seed` → `seed`).
    pub names: Vec<String>,
}

/// A parsed function (free fn, or method inside an `impl`/`trait` block).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Visibility qualifier.
    pub vis: Visibility,
    /// Parameters in order (the `self` receiver is recorded as a param
    /// named `self`).
    pub params: Vec<Param>,
    /// Whether the return type mentions `Result`.
    pub returns_result: bool,
    /// Whether the doc comment block carries a `# Panics` section.
    pub has_panics_doc: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Last line of the body (or of the `;` for a bodyless declaration).
    pub end_line: u32,
    /// Whether the fn itself carried a `#[cfg(test)]`-style gate or
    /// `#[test]` marker.
    pub cfg_test: bool,
    /// Body events (`None` for trait method declarations without bodies).
    pub body: Option<FnBody>,
}

/// Events extracted from one function body.
#[derive(Debug, Clone, Default)]
pub struct FnBody {
    /// Call and method-call expressions, in source order.
    pub calls: Vec<Call>,
    /// Panic sites.
    pub panics: Vec<PanicSite>,
    /// `let _ = ...;` statements.
    pub discards: Vec<Discard>,
}

/// One `use` mapping: local name → full path segments.
#[derive(Debug, Clone)]
pub struct UseImport {
    /// The name the import binds locally (last segment or rename).
    pub local: String,
    /// Full path segments as written (`["crate", "seeds", "derive"]`).
    pub path: Vec<String>,
}

/// A top-level or module-nested item.
#[derive(Debug, Clone)]
pub enum Item {
    /// A free function.
    Fn(FnItem),
    /// An `impl` block (inherent or trait) with its associated functions.
    Impl {
        /// Name of the implemented-on type (last path segment).
        self_ty: String,
        /// Trait name for `impl Trait for Type` blocks.
        trait_name: Option<String>,
        /// Associated functions.
        fns: Vec<FnItem>,
        /// 1-based line of the `impl` keyword.
        line: u32,
    },
    /// An inline module with its items (`mod x;` declarations are
    /// recorded with an empty item list).
    Mod {
        /// Module name.
        name: String,
        /// Items inside an inline `mod name { ... }` body.
        items: Vec<Item>,
        /// Whether the module body was inline.
        inline: bool,
        /// 1-based line of the `mod` keyword.
        line: u32,
        /// Whether the module carried a `#[cfg(test)]` gate.
        cfg_test: bool,
    },
    /// Flattened `use` imports.
    Use(Vec<UseImport>),
    /// A struct / enum / trait / const / static / type / macro item the
    /// call graph does not need beyond its existence.
    Other {
        /// Item keyword (`struct`, `enum`, ...).
        keyword: String,
        /// Item name when present.
        name: Option<String>,
        /// 1-based line.
        line: u32,
    },
}

/// A recoverable parse problem, recorded with its location.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// 1-based line.
    pub line: u32,
    /// What the parser could not place.
    pub message: String,
}

/// Result of parsing one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Top-level items.
    pub items: Vec<Item>,
    /// Recoverable errors (empty for every file the compiler accepts, per
    /// the workspace-totality test).
    pub errors: Vec<ParseError>,
}

/// Parse a lexed file.
#[must_use]
pub fn parse(tokens: &[Token]) -> ParsedFile {
    let mut p = Parser::new(tokens);
    let items = p.parse_items(true);
    ParsedFile {
        items,
        errors: p.errors,
    }
}

/// Count items and functions (recursively, including impl members) — the
/// totality snapshot numbers.
#[must_use]
pub fn count_items_and_fns(items: &[Item]) -> (usize, usize) {
    let mut n_items = 0;
    let mut n_fns = 0;
    for item in items {
        n_items += 1;
        match item {
            Item::Fn(_) => n_fns += 1,
            Item::Impl { fns, .. } => n_fns += fns.len(),
            Item::Mod { items, .. } => {
                let (i, f) = count_items_and_fns(items);
                n_items += i;
                n_fns += f;
            }
            _ => {}
        }
    }
    (n_items, n_fns)
}

struct Parser<'a> {
    /// Code tokens (comments removed).
    toks: Vec<&'a Token>,
    /// Doc-comment tokens by line, for `# Panics` attachment.
    docs: Vec<(u32, &'a str)>,
    pos: usize,
    errors: Vec<ParseError>,
}

impl<'a> Parser<'a> {
    fn new(tokens: &'a [Token]) -> Self {
        let toks: Vec<&Token> = tokens
            .iter()
            .filter(|t| t.kind != TokKind::Comment)
            .collect();
        let docs: Vec<(u32, &str)> = tokens
            .iter()
            .filter(|t| {
                t.kind == TokKind::Comment
                    && (t.text.starts_with("///") || t.text.starts_with("/**"))
            })
            .map(|t| (t.line, t.text.as_str()))
            .collect();
        Parser {
            toks,
            docs,
            pos: 0,
            errors: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos).copied();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek(0).is_some_and(|t| t.is_ident(s))
    }

    fn at_punct(&self, s: &str) -> bool {
        self.peek(0).is_some_and(|t| t.is_punct(s))
    }

    fn error_at(&mut self, line: u32, message: String) {
        self.errors.push(ParseError { line, message });
    }

    /// Skip a balanced delimiter group; the cursor sits on the opener.
    /// Returns the line of the closing delimiter.
    fn skip_group(&mut self, open: &str, close: &str) -> u32 {
        let mut depth = 0usize;
        let mut last = self.peek(0).map_or(0, |t| t.line);
        while let Some(t) = self.bump() {
            last = t.line;
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        last
    }

    /// Skip an angle-bracketed generic group; the cursor sits on `<`.
    /// Handles fused `<<`/`>>` shift tokens inside nested generics.
    fn skip_generics(&mut self) {
        let mut depth = 0i64;
        while let Some(t) = self.bump() {
            match t.text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                // `->` inside `Fn(...) -> T` bounds carries a `>` glyph but
                // does not close a generic group.
                _ => {}
            }
            if t.kind == TokKind::Punct && depth <= 0 && matches!(t.text.as_str(), ">" | ">>") {
                break;
            }
        }
    }

    /// Skip `#[...]` / `#![...]` attributes; report whether any attribute
    /// was a `cfg(test)`-style gate, and the derive-macro names seen.
    fn skip_attrs(&mut self) -> bool {
        let mut cfg_test = false;
        while self.at_punct("#") {
            let mut j = self.pos + 1;
            if self.toks.get(j).is_some_and(|t| t.is_punct("!")) {
                j += 1;
            }
            if !self.toks.get(j).is_some_and(|t| t.is_punct("[")) {
                break;
            }
            // Inspect attribute tokens for `cfg` + `test`.
            let mut depth = 0usize;
            let mut has_cfg = false;
            let mut has_test = false;
            let mut len = 0usize;
            let mut k = j;
            while let Some(t) = self.toks.get(k) {
                if t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if t.is_ident("cfg") {
                        has_cfg = true;
                    }
                    if t.is_ident("test") {
                        has_test = true;
                    }
                    len += 1;
                }
                k += 1;
            }
            if has_test && (has_cfg || len == 1) {
                cfg_test = true;
            }
            self.pos = k + 1;
        }
        cfg_test
    }

    /// Parse a visibility qualifier if present.
    fn parse_vis(&mut self) -> Visibility {
        if !self.at_ident("pub") {
            return Visibility::Private;
        }
        self.bump();
        if self.at_punct("(") {
            self.skip_group("(", ")");
            return Visibility::Scoped;
        }
        Visibility::Pub
    }

    /// Parse items until end-of-file (`top` true) or a closing `}`.
    fn parse_items(&mut self, top: bool) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            let cfg_test = self.skip_attrs();
            let Some(tok) = self.peek(0) else {
                break;
            };
            if tok.is_punct("}") && !top {
                break;
            }
            let line = tok.line;
            let vis = self.parse_vis();
            // Item qualifiers that may precede the keyword.
            while self.at_ident("unsafe")
                || self.at_ident("async")
                || self.at_ident("extern")
                || (self.at_ident("const") && self.peek(1).is_some_and(|t| t.is_ident("fn")))
            {
                // `extern "C"` carries an ABI string.
                let was_extern = self.at_ident("extern");
                self.bump();
                if was_extern && self.peek(0).is_some_and(|t| t.kind == TokKind::Str) {
                    self.bump();
                }
            }
            let Some(kw) = self.peek(0) else {
                break;
            };
            match kw.text.as_str() {
                "fn" => {
                    let f = self.parse_fn(vis, cfg_test);
                    items.push(Item::Fn(f));
                }
                "impl" => items.push(self.parse_impl(line)),
                "mod" => items.push(self.parse_mod(line, cfg_test)),
                "use" => items.push(self.parse_use()),
                "struct" | "enum" | "union" | "trait" => {
                    items.push(self.parse_structural(cfg_test));
                }
                "const" | "static" | "type" => {
                    let keyword = kw.text.clone();
                    self.bump();
                    let name = self
                        .peek(0)
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text.clone());
                    self.skip_to_semi();
                    items.push(Item::Other {
                        keyword,
                        name,
                        line,
                    });
                }
                "macro_rules" => {
                    self.bump(); // macro_rules
                    self.bump(); // !
                    let name = self
                        .peek(0)
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text.clone());
                    self.bump();
                    if self.at_punct("{") {
                        self.skip_group("{", "}");
                    } else {
                        self.skip_to_semi();
                    }
                    items.push(Item::Other {
                        keyword: "macro_rules".to_owned(),
                        name,
                        line,
                    });
                }
                _ => {
                    // Item-position macro invocation (`thread_local! {..}`,
                    // `macro_rules! m {..}`, `foo!(..);`): skip the delimited
                    // body wholesale — macro input is not item syntax.
                    if kw.kind == TokKind::Ident && self.peek(1).is_some_and(|t| t.is_punct("!")) {
                        let name = kw.text.clone();
                        self.bump(); // macro name
                        self.bump(); // !
                        match self.peek(0) {
                            Some(t) if t.is_punct("{") => {
                                self.skip_group("{", "}");
                            }
                            Some(t) if t.is_punct("(") => {
                                self.skip_group("(", ")");
                                self.skip_to_semi();
                            }
                            Some(t) if t.is_punct("[") => {
                                self.skip_group("[", "]");
                                self.skip_to_semi();
                            }
                            _ => self.skip_to_semi(),
                        }
                        items.push(Item::Other {
                            keyword: "macro".to_owned(),
                            name: Some(name),
                            line,
                        });
                        continue;
                    }
                    if top || !kw.is_punct("}") {
                        self.error_at(line, format!("unexpected token `{}`", kw.text));
                    }
                    self.bump();
                }
            }
        }
        items
    }

    /// Parse `struct`/`enum`/`union`/`trait`: name + delimited body. Trait
    /// bodies are parsed for associated fns (default bodies make calls).
    fn parse_structural(&mut self, _cfg_test: bool) -> Item {
        let kw = self.bump().map(|t| t.text.clone()).unwrap_or_default();
        let line = self.peek(0).map_or(0, |t| t.line);
        let name = self
            .peek(0)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone());
        self.bump();
        if self.at_punct("<") {
            self.skip_generics();
        }
        if kw == "trait" {
            // Supertraits / where clause up to the body.
            while !self.at_punct("{") && self.peek(0).is_some() {
                self.bump();
            }
            let fns = self.parse_assoc_fns();
            return Item::Impl {
                self_ty: name.clone().unwrap_or_default(),
                trait_name: name.clone(),
                fns,
                line,
            };
        }
        // Struct/enum/union: tuple structs end with `;`, braced bodies are
        // skipped wholesale (field types make no calls).
        while let Some(t) = self.peek(0) {
            if t.is_punct(";") {
                self.bump();
                break;
            }
            if t.is_punct("{") {
                self.skip_group("{", "}");
                break;
            }
            if t.is_punct("(") {
                self.skip_group("(", ")");
                continue;
            }
            if t.is_punct("<") {
                self.skip_generics();
                continue;
            }
            self.bump();
        }
        Item::Other {
            keyword: kw,
            name,
            line,
        }
    }

    /// Parse an `impl` header and its associated functions.
    fn parse_impl(&mut self, line: u32) -> Item {
        self.bump(); // impl
        if self.at_punct("<") {
            self.skip_generics();
        }
        // Collect header tokens up to the body `{` (or `;` — never in real
        // code), splitting on a depth-0 `for`.
        let mut before_for: Vec<String> = Vec::new();
        let mut after_for: Vec<String> = Vec::new();
        let mut saw_for = false;
        while let Some(t) = self.peek(0) {
            if t.is_punct("{") || t.is_punct(";") {
                break;
            }
            if t.is_ident("for") {
                saw_for = true;
                self.bump();
                continue;
            }
            if t.is_ident("where") {
                // Skip the whole where clause up to `{`.
                while self.peek(0).is_some() && !self.at_punct("{") {
                    if self.at_punct("<") {
                        self.skip_generics();
                    } else {
                        self.bump();
                    }
                }
                break;
            }
            if t.is_punct("<") {
                self.skip_generics();
                continue;
            }
            if t.kind == TokKind::Ident {
                if saw_for {
                    after_for.push(t.text.clone());
                } else {
                    before_for.push(t.text.clone());
                }
            }
            self.bump();
        }
        let ty_tokens = if saw_for { &after_for } else { &before_for };
        let strip = ["dyn", "mut", "crate", "super", "self"];
        let self_ty = ty_tokens
            .iter()
            .rfind(|s| !strip.contains(&s.as_str()))
            .cloned()
            .unwrap_or_default();
        let trait_name = if saw_for {
            before_for
                .iter()
                .rfind(|s| !strip.contains(&s.as_str()))
                .cloned()
        } else {
            None
        };
        let fns = self.parse_assoc_fns();
        Item::Impl {
            self_ty,
            trait_name,
            fns,
            line,
        }
    }

    /// Parse the `{ ... }` body of an impl/trait: associated fns, consts,
    /// and types.
    fn parse_assoc_fns(&mut self) -> Vec<FnItem> {
        let mut fns = Vec::new();
        if !self.at_punct("{") {
            return fns;
        }
        self.bump(); // {
        loop {
            let cfg_test = self.skip_attrs();
            let Some(t) = self.peek(0) else {
                break;
            };
            if t.is_punct("}") {
                self.bump();
                break;
            }
            let line = t.line;
            let vis = self.parse_vis();
            while self.at_ident("unsafe")
                || self.at_ident("async")
                || self.at_ident("default")
                || (self.at_ident("const") && self.peek(1).is_some_and(|t| t.is_ident("fn")))
            {
                self.bump();
            }
            if self.at_ident("fn") {
                fns.push(self.parse_fn(vis, cfg_test));
            } else if self.at_ident("const") || self.at_ident("type") {
                self.bump();
                self.skip_to_semi();
            } else {
                self.error_at(line, format!("unexpected token `{}` in impl body", t.text));
                self.bump();
            }
        }
        fns
    }

    /// Parse `mod name;` or `mod name { items }`.
    fn parse_mod(&mut self, line: u32, cfg_test: bool) -> Item {
        self.bump(); // mod
        let name = self
            .peek(0)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        self.bump();
        if self.at_punct(";") {
            self.bump();
            return Item::Mod {
                name,
                items: Vec::new(),
                inline: false,
                line,
                cfg_test,
            };
        }
        // Inline body.
        if self.at_punct("{") {
            self.bump();
            let items = self.parse_items(false);
            if self.at_punct("}") {
                self.bump();
            }
            return Item::Mod {
                name,
                items,
                inline: true,
                line,
                cfg_test,
            };
        }
        self.error_at(line, "malformed mod item".to_owned());
        Item::Mod {
            name,
            items: Vec::new(),
            inline: false,
            line,
            cfg_test,
        }
    }

    /// Parse a `use` item, flattening trees into (local, path) pairs.
    fn parse_use(&mut self) -> Item {
        self.bump(); // use
        let mut imports = Vec::new();
        let mut prefix: Vec<String> = Vec::new();
        self.parse_use_tree(&mut prefix, &mut imports);
        if self.at_punct(";") {
            self.bump();
        }
        Item::Use(imports)
    }

    fn parse_use_tree(&mut self, prefix: &mut Vec<String>, out: &mut Vec<UseImport>) {
        let depth_at_entry = prefix.len();
        loop {
            let Some(t) = self.peek(0) else {
                return;
            };
            if t.kind == TokKind::Ident && t.text != "as" {
                prefix.push(t.text.clone());
                self.bump();
                if self.at_punct("::") {
                    self.bump();
                    continue;
                }
                // Terminal segment, maybe renamed. `{self, ...}` binds the
                // parent segment's own name.
                let mut path = prefix.clone();
                if path.last().is_some_and(|s| s == "self") {
                    path.pop();
                }
                let mut local = path.last().cloned().unwrap_or_default();
                if self.at_ident("as") {
                    self.bump();
                    if let Some(alias) = self.peek(0).filter(|t| t.kind == TokKind::Ident) {
                        local = alias.text.clone();
                        self.bump();
                    }
                }
                out.push(UseImport { local, path });
                prefix.truncate(depth_at_entry);
            } else if t.is_punct("{") {
                self.bump();
                loop {
                    self.parse_use_tree(prefix, out);
                    if self.at_punct(",") {
                        self.bump();
                        continue;
                    }
                    break;
                }
                if self.at_punct("}") {
                    self.bump();
                }
                prefix.truncate(depth_at_entry);
                return;
            } else if t.is_punct("*") {
                // Glob imports carry no local names the resolver can use.
                self.bump();
                prefix.truncate(depth_at_entry);
                return;
            } else {
                return;
            }
            // After a terminal segment: either `,`/`}`/`;` (caller's job).
            return;
        }
    }

    /// Parse a `fn` item from the `fn` keyword.
    fn parse_fn(&mut self, vis: Visibility, cfg_test: bool) -> FnItem {
        let fn_line = self.peek(0).map_or(0, |t| t.line);
        self.bump(); // fn
        let name = self
            .peek(0)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        self.bump();
        if self.at_punct("<") {
            self.skip_generics();
        }
        // Parameter list.
        let mut params = Vec::new();
        if self.at_punct("(") {
            params = self.parse_params();
        }
        // Return type: scan to `{`, `;`, or `where` at depth 0.
        let mut returns_result = false;
        if self.at_punct("->") {
            self.bump();
            while let Some(t) = self.peek(0) {
                if t.is_punct("{") || t.is_punct(";") || t.is_ident("where") {
                    break;
                }
                if t.is_punct("<") {
                    // Generic args of the return type may mention Result
                    // (`Option<Result<..>>` is not the fn's own contract,
                    // but treating it as Result-returning only
                    // over-approximates, which is the safe direction).
                    let start = self.pos;
                    self.skip_generics();
                    returns_result |= self.toks[start..self.pos]
                        .iter()
                        .any(|t| t.kind == TokKind::Ident && t.text.contains("Result"));
                    continue;
                }
                if t.is_punct("(") {
                    let start = self.pos;
                    self.skip_group("(", ")");
                    returns_result |= self.toks[start..self.pos]
                        .iter()
                        .any(|t| t.kind == TokKind::Ident && t.text.contains("Result"));
                    continue;
                }
                if t.is_punct("[") {
                    // Array types carry a `;` inside the brackets
                    // (`[[f64; 2]; 2]`) that must not end the scan.
                    self.skip_group("[", "]");
                    continue;
                }
                if t.kind == TokKind::Ident && t.text.contains("Result") {
                    returns_result = true;
                }
                self.bump();
            }
        }
        if self.at_ident("where") {
            while self.peek(0).is_some() && !self.at_punct("{") && !self.at_punct(";") {
                if self.at_punct("<") {
                    self.skip_generics();
                } else if self.at_punct("[") {
                    self.skip_group("[", "]");
                } else {
                    self.bump();
                }
            }
        }
        // Body or declaration.
        let (body, end_line) = if self.at_punct("{") {
            let start = self.pos;
            let end_line = self.skip_group("{", "}");
            let body = extract_body(&self.toks[start..self.pos]);
            (Some(body), end_line)
        } else {
            let end_line = self.peek(0).map_or(fn_line, |t| t.line);
            if self.at_punct(";") {
                self.bump();
            }
            (None, end_line)
        };
        let has_panics_doc = self.doc_block_has_panics(fn_line);
        FnItem {
            name,
            vis,
            params,
            returns_result,
            has_panics_doc,
            line: fn_line,
            end_line,
            cfg_test,
            body,
        }
    }

    /// Does the contiguous doc block above `fn_line` contain `# Panics`?
    /// Attributes between the docs and the `fn` are tolerated by walking
    /// upwards through doc lines from the first doc line at or above the
    /// item, allowing a gap of up to 4 attribute lines.
    fn doc_block_has_panics(&self, fn_line: u32) -> bool {
        // Find the nearest doc line above the fn within a small window
        // (attributes like #[must_use] sit between the docs and the fn).
        let mut top = None;
        for gap in 1..=5u32 {
            let line = fn_line.saturating_sub(gap);
            if self.docs.iter().any(|(l, _)| *l == line) {
                top = Some(line);
                break;
            }
        }
        let Some(mut line) = top else {
            return false;
        };
        // Walk the contiguous doc block upwards.
        while let Some((_, text)) = self.docs.iter().find(|(l, _)| *l == line) {
            if text.contains("# Panics") {
                return true;
            }
            if line == 1 {
                break;
            }
            line -= 1;
        }
        false
    }

    /// Parse the parenthesized parameter list; cursor on `(`.
    fn parse_params(&mut self) -> Vec<Param> {
        let start = self.pos;
        self.skip_group("(", ")");
        let toks = &self.toks[start + 1..self.pos.saturating_sub(1)];
        let mut params = Vec::new();
        // Split on commas at depth 0 (parens/brackets/braces/angles).
        let mut depth = 0i64;
        let mut angle = 0i64;
        let mut current: Vec<&Token> = Vec::new();
        let flush = |current: &mut Vec<&Token>, params: &mut Vec<Param>| {
            if current.is_empty() {
                return;
            }
            // Names: idents in the pattern before the top-level `:`.
            let mut names = Vec::new();
            for t in current.iter() {
                if t.is_punct(":") {
                    break;
                }
                if t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "ref") {
                    names.push(t.text.clone());
                }
            }
            params.push(Param { names });
            current.clear();
        };
        for t in toks {
            match t.text.as_str() {
                "(" | "[" | "{" if t.kind == TokKind::Punct => depth += 1,
                ")" | "]" | "}" if t.kind == TokKind::Punct => depth -= 1,
                "<" if t.kind == TokKind::Punct => angle += 1,
                "<<" if t.kind == TokKind::Punct => angle += 2,
                ">" if t.kind == TokKind::Punct => angle -= 1,
                ">>" if t.kind == TokKind::Punct => angle -= 2,
                "," if t.kind == TokKind::Punct && depth == 0 && angle <= 0 => {
                    flush(&mut current, &mut params);
                    continue;
                }
                _ => {}
            }
            current.push(t);
        }
        flush(&mut current, &mut params);
        params
    }

    fn skip_to_semi(&mut self) {
        while let Some(t) = self.peek(0) {
            if t.is_punct(";") {
                self.bump();
                return;
            }
            if t.is_punct("{") {
                self.skip_group("{", "}");
                // `const X: Foo = Foo { .. };` — keep scanning for the `;`.
                continue;
            }
            if t.is_punct("(") {
                self.skip_group("(", ")");
                continue;
            }
            if t.is_punct("[") {
                self.skip_group("[", "]");
                continue;
            }
            self.bump();
        }
    }
}

/// Names whose `.method(` / `name!(` forms are panic sites.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

/// Keywords that may be followed by `(` without being a call expression.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "in", "return", "loop", "move", "as", "let", "mut",
    "ref", "break", "continue", "unsafe", "await", "dyn", "impl", "fn", "where", "use", "pub",
    "crate", "super", "box",
];

/// Scan a function-body token range (including the outer braces) for the
/// events the semantic rules need. No expression tree is built: calls are
/// maximal `path::seg(` / `.name(` matches with argument-token capture.
fn extract_body(toks: &[&Token]) -> FnBody {
    let mut body = FnBody::default();
    let mut i = 0usize;
    while i < toks.len() {
        let t = toks[i];
        // Statement attributes (`#[expect(..)]`) are not calls.
        if t.is_punct("#") && toks.get(i + 1).is_some_and(|n| n.is_punct("[")) {
            let mut depth = 0usize;
            i += 1;
            while let Some(n) = toks.get(i) {
                depth = if n.is_punct("[") {
                    depth + 1
                } else if n.is_punct("]") {
                    depth - 1
                } else {
                    depth
                };
                i += 1;
                if depth == 0 {
                    break;
                }
            }
            continue;
        }
        // `let _ = <expr>;` discard statements.
        if t.is_ident("let")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("_"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("="))
        {
            let (calls, end) = calls_in_statement(toks, i + 3);
            body.discards.push(Discard {
                line: t.line,
                col: t.col,
                calls,
            });
            // Do not skip: the same range is rescanned below so the calls
            // also enter the call list (needed for graph edges).
            let _ = end;
            i += 3;
            continue;
        }
        if t.kind == TokKind::Ident {
            // Macro call?
            if toks.get(i + 1).is_some_and(|n| n.is_punct("!")) {
                if PANIC_MACROS.contains(&t.text.as_str()) {
                    body.panics.push(PanicSite {
                        what: t.text.clone(),
                        line: t.line,
                        col: t.col,
                    });
                }
                i += 2;
                continue;
            }
            // Path or method call: Ident [turbofish] `(`.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|n| n.is_punct("::"))
                && toks.get(j + 1).is_some_and(|n| n.is_punct("<"))
            {
                j = skip_angle(toks, j + 1);
            }
            if toks.get(j).is_some_and(|n| n.is_punct("(")) {
                let is_method = i > 0 && toks[i - 1].is_punct(".");
                let is_def = i > 0 && toks[i - 1].is_ident("fn");
                let is_keyword = NON_CALL_KEYWORDS.contains(&t.text.as_str());
                if !is_def && !is_keyword {
                    let path = if is_method {
                        vec![t.text.clone()]
                    } else {
                        collect_path_backwards(toks, i)
                    };
                    let (arg_idents, arg_count, args_have_closure, close) = scan_args(toks, j);
                    let is_ok_discard = is_method
                        && t.text == "ok"
                        && close == j + 1
                        && toks.get(close + 1).is_some_and(|n| n.is_punct(";"));
                    let receiver_call = if is_method {
                        receiver_call_path(toks, i - 1)
                    } else {
                        None
                    };
                    if is_method && PANIC_METHODS.contains(&t.text.as_str()) {
                        body.panics.push(PanicSite {
                            what: t.text.clone(),
                            line: t.line,
                            col: t.col,
                        });
                    } else {
                        body.calls.push(Call {
                            path,
                            kind: if is_method {
                                CallKind::Method
                            } else {
                                CallKind::Path
                            },
                            line: t.line,
                            col: t.col,
                            arg_idents,
                            arg_count,
                            args_have_closure,
                            is_ok_discard,
                            receiver_call,
                        });
                    }
                }
            }
        }
        i += 1;
    }
    body
}

/// Skip from an opening `<` at `toks[at]` to just past its matching `>`.
fn skip_angle(toks: &[&Token], at: usize) -> usize {
    let mut depth = 0i64;
    let mut k = at;
    while let Some(t) = toks.get(k) {
        match t.text.as_str() {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            _ => {}
        }
        k += 1;
        if depth <= 0 && t.kind == TokKind::Punct && matches!(t.text.as_str(), ">" | ">>") {
            break;
        }
    }
    k
}

/// Collect the `::`-joined path ending at the ident `toks[end]`.
fn collect_path_backwards(toks: &[&Token], end: usize) -> Vec<String> {
    let mut segs = vec![toks[end].text.clone()];
    let mut k = end;
    while k >= 2 && toks[k - 1].is_punct("::") && toks[k - 2].kind == TokKind::Ident {
        segs.push(toks[k - 2].text.clone());
        k -= 2;
    }
    segs.reverse();
    segs
}

/// Scan a call's argument list from the opening paren at `toks[open]`;
/// returns (identifier texts inside, top-level argument count, whether a
/// closure pipe appears, index of the closing paren).
fn scan_args(toks: &[&Token], open: usize) -> (Vec<String>, usize, bool, usize) {
    let mut idents = Vec::new();
    let mut depth = 0usize;
    let mut inner = 0i64;
    let mut commas = 0usize;
    let mut nonempty = false;
    let mut has_closure = false;
    let mut k = open;
    while let Some(t) = toks.get(k) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Punct && matches!(t.text.as_str(), "[" | "{") {
            inner += 1;
        } else if t.kind == TokKind::Punct && matches!(t.text.as_str(), "]" | "}") {
            inner -= 1;
        } else if t.is_punct(",") && depth == 1 && inner == 0 {
            commas += 1;
        } else if t.is_punct("|") || t.is_punct("||") {
            has_closure = true;
        } else if t.kind == TokKind::Ident {
            idents.push(t.text.clone());
        }
        if depth > 0 && !(t.is_punct("(") && depth == 1) {
            nonempty = true;
        }
        k += 1;
    }
    let arg_count = if nonempty { commas + 1 } else { 0 };
    (idents, arg_count, has_closure, k)
}

/// For a method call whose `.` sits at `toks[dot]`: if the receiver is
/// syntactically a call (`foo(x).m()`, `a::b(x).m()`), return that call's
/// path.
fn receiver_call_path(toks: &[&Token], dot: usize) -> Option<Vec<String>> {
    if dot == 0 || !toks[dot - 1].is_punct(")") {
        return None;
    }
    // Walk back over the balanced paren group.
    let mut depth = 0usize;
    let mut k = dot - 1;
    loop {
        if toks[k].is_punct(")") {
            depth += 1;
        } else if toks[k].is_punct("(") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if k == 0 {
            return None;
        }
        k -= 1;
    }
    if k == 0 || toks[k - 1].kind != TokKind::Ident {
        return None;
    }
    Some(collect_path_backwards(toks, k - 1))
}

/// Collect call paths inside one statement starting at `toks[from]`,
/// scanning to the terminating `;` at delimiter depth 0. Returns the call
/// paths and the index just past the `;`.
fn calls_in_statement(toks: &[&Token], from: usize) -> (Vec<Vec<String>>, usize) {
    let mut depth = 0i64;
    let mut k = from;
    let mut calls = Vec::new();
    while let Some(t) = toks.get(k) {
        match t.text.as_str() {
            "(" | "[" | "{" if t.kind == TokKind::Punct => depth += 1,
            ")" | "]" | "}" if t.kind == TokKind::Punct => depth -= 1,
            ";" if t.kind == TokKind::Punct && depth == 0 => {
                k += 1;
                break;
            }
            _ => {}
        }
        if t.kind == TokKind::Ident
            && toks.get(k + 1).is_some_and(|n| n.is_punct("("))
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
        {
            if k > 0 && toks[k - 1].is_punct(".") {
                calls.push(vec![t.text.clone()]);
            } else if !(k > 0 && toks[k - 1].is_ident("fn")) {
                calls.push(collect_path_backwards(toks, k));
            }
        }
        k += 1;
    }
    (calls, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn parses_items_fns_and_impls() {
        let src = "\
/// Docs.
///
/// # Panics
/// When x is odd.
pub fn f(x: u64, mut seed: u64) -> Result<u64, String> { g(x); Ok(x) }

struct S { a: u64 }

impl S {
    pub fn new() -> Self { S { a: 0 } }
    fn helper(&self) -> u64 { self.a }
}

impl std::fmt::Display for S {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { write!(f, \"\") }
}

mod inner {
    pub fn h() {}
}
";
        let file = parse_src(src);
        assert!(file.errors.is_empty(), "{:?}", file.errors);
        let (items, fns) = count_items_and_fns(&file.items);
        assert_eq!(items, 6, "{:?}", file.items);
        assert_eq!(fns, 5);
        let Item::Fn(f) = &file.items[0] else {
            panic!("first item is a fn");
        };
        assert_eq!(f.name, "f");
        assert_eq!(f.vis, Visibility::Pub);
        assert!(f.returns_result);
        assert!(f.has_panics_doc);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[1].names, vec!["seed"]);
        let Item::Impl {
            self_ty,
            trait_name,
            fns,
            ..
        } = &file.items[2]
        else {
            panic!("third item is an impl");
        };
        assert_eq!(self_ty, "S");
        assert!(trait_name.is_none());
        assert_eq!(fns[0].name, "new");
        assert_eq!(fns[0].vis, Visibility::Pub);
        let Item::Impl {
            self_ty,
            trait_name,
            ..
        } = &file.items[3]
        else {
            panic!("fourth item is a trait impl");
        };
        assert_eq!(self_ty, "S");
        assert_eq!(trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn body_events_calls_panics_discards() {
        let src = "\
fn f(seed: u64) {
    let rng = SmallRng::seed_from_u64(seeds::derive(seed, 1, 0));
    let _ = fallible();
    store(rng).ok();
    opt.unwrap();
    panic!(\"boom\");
}
";
        let file = parse_src(src);
        assert!(file.errors.is_empty(), "{:?}", file.errors);
        let Item::Fn(f) = &file.items[0] else {
            panic!()
        };
        let body = f.body.as_ref().expect("has body");
        let names: Vec<String> = body.calls.iter().map(|c| c.path.join("::")).collect();
        assert!(
            names.contains(&"SmallRng::seed_from_u64".to_owned()),
            "{names:?}"
        );
        assert!(names.contains(&"seeds::derive".to_owned()));
        assert!(names.contains(&"fallible".to_owned()));
        assert!(names.contains(&"ok".to_owned()));
        let seed_call = body
            .calls
            .iter()
            .find(|c| c.path.last().is_some_and(|s| s == "seed_from_u64"))
            .expect("found");
        assert!(seed_call.arg_idents.iter().any(|s| s == "derive"));
        assert!(seed_call.arg_idents.iter().any(|s| s == "seed"));
        let ok_call = body.calls.iter().find(|c| c.path == ["ok"]).expect("ok");
        assert!(ok_call.is_ok_discard);
        assert_eq!(
            ok_call.receiver_call.as_deref(),
            Some(&["store".to_owned()][..])
        );
        assert_eq!(body.panics.len(), 2);
        assert_eq!(body.panics[0].what, "unwrap");
        assert_eq!(body.panics[1].what, "panic");
        assert_eq!(body.discards.len(), 1);
        assert_eq!(body.discards[0].calls, vec![vec!["fallible".to_owned()]]);
    }

    #[test]
    fn use_trees_flatten_with_renames() {
        let src = "use std::collections::{BTreeMap, BTreeSet as Set};\nuse crate::seeds::derive;\n";
        let file = parse_src(src);
        assert!(file.errors.is_empty(), "{:?}", file.errors);
        let mut all = Vec::new();
        for item in &file.items {
            if let Item::Use(imports) = item {
                for i in imports {
                    all.push((i.local.clone(), i.path.join("::")));
                }
            }
        }
        assert!(all.contains(&(
            "BTreeMap".to_owned(),
            "std::collections::BTreeMap".to_owned()
        )));
        assert!(all.contains(&("Set".to_owned(), "std::collections::BTreeSet".to_owned())));
        assert!(all.contains(&("derive".to_owned(), "crate::seeds::derive".to_owned())));
    }

    #[test]
    fn generics_where_clauses_and_fn_types_parse() {
        let src = "\
pub fn run<T, E, F>(items: Vec<(u64, F)>, f: F) -> Result<Vec<T>, E>
where
    F: Fn(u64) -> Result<T, E> + Send,
{
    helper::<T>(f)
}
fn takes_dyn(live: &dyn Fn(&u64) -> bool) -> bool { live(&1) }
";
        let file = parse_src(src);
        assert!(file.errors.is_empty(), "{:?}", file.errors);
        let (_, fns) = count_items_and_fns(&file.items);
        assert_eq!(fns, 2);
        let Item::Fn(f) = &file.items[0] else {
            panic!()
        };
        assert!(f.returns_result);
        assert_eq!(f.params.len(), 2);
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let file = parse_src(src);
        assert!(file.errors.is_empty());
        let Item::Mod {
            cfg_test, items, ..
        } = &file.items[0]
        else {
            panic!()
        };
        assert!(cfg_test);
        assert_eq!(items.len(), 1);
    }
}
