//! Symbol table and name resolution: the half of the call-graph layer
//! that knows *what can be called*.
//!
//! [`SymbolTable::build`] walks every non-test source file and records a
//! [`FnDef`] per function the scope tracker attributed tokens to, plus
//! per-crate type-name sets and the manifest-derived dependency closure.
//! [`parse_imports`] recovers each file's `use` map (grouped imports,
//! `as` renames, glob counting), and [`SymbolTable::resolve`] classifies
//! a call site into one of four [`Resolution`]s:
//!
//! * **Resolved** — the precise workspace definition(s) are known;
//! * **External** — no workspace definition can be the target (std,
//!   derive-generated, tuple/variant constructors);
//! * **Ambiguous** — several workspace definitions share the name; the
//!   graph keeps a conservative edge to *every* candidate, but the site
//!   counts against the resolution rate;
//! * **Unknown** — a bare call through a closure or function-pointer
//!   parameter; nothing lexical identifies the target.
//!
//! Method calls resolve by receiver-name heuristics: `self.m(…)` uses
//! the enclosing impl type, other receivers fall back to same-crate
//! definitions named `m`, then a shadow list of ubiquitous std method
//! names, then the caller crate's dependency closure. The rules are
//! deliberately over-approximate — a `Vec::pop` may pick up an edge to
//! a workspace `Heap::pop` — because the passes built on the graph
//! (transitive hot-path discipline) only ever get *stricter* from an
//! extra edge, never unsound.

use std::collections::{HashMap, HashSet};

use crate::lexer::TokenKind;
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// One function definition discovered in the workspace.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Owning package name (e.g. `hqs-sat`).
    pub crate_name: String,
    /// Qualified symbol as the tracker reports it (`Type::fn` or `fn`).
    pub symbol: String,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Line of the first token attributed to the fn body.
    pub line: u32,
}

impl FnDef {
    /// The unqualified function name (`pop` for `Heap::pop`).
    #[must_use]
    pub fn bare_name(&self) -> &str {
        self.symbol.rsplit("::").next().unwrap_or(&self.symbol)
    }

    /// The impl type prefix, if the def is a method (`Heap` for
    /// `Heap::pop`).
    #[must_use]
    pub fn type_prefix(&self) -> Option<&str> {
        self.symbol.split_once("::").map(|(t, _)| t)
    }
}

/// Why a call site has no workspace target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExternalKind {
    /// std/core or another non-workspace crate.
    Std,
    /// A tuple-struct or enum-variant constructor (`Some(…)`,
    /// `Outcome::Sat(…)`).
    Constructor,
    /// A workspace type's derive-generated or trait-provided method
    /// (`X::default()`, `X::from(…)`) with no explicit definition.
    Derived,
}

/// The outcome of resolving one call site.
#[derive(Clone, Debug)]
pub enum Resolution {
    /// The target definition(s); almost always one, more only when the
    /// same free-fn name is defined in several modules of one crate.
    Resolved(Vec<usize>),
    /// No workspace definition can be the target.
    External(ExternalKind),
    /// Several workspace candidates; edges go to all of them.
    Ambiguous(Vec<usize>),
    /// Call to a closure bound (`let f = |…|`) or `fn` nested in the
    /// same file: no `FnDef` node exists, but
    /// the target is lexically exact, so the site counts as precisely
    /// resolved rather than as guesswork.
    LocalClosure,
    /// Closure or function-pointer call — lexically untargetable.
    Unknown,
}

/// The lexical shape of a call site.
#[derive(Clone, Debug)]
pub enum CallKind {
    /// `f(…)` with no qualifier or receiver.
    Free(String),
    /// `self.m(…)`.
    SelfMethod(String),
    /// `expr.m(…)` with a non-`self` receiver.
    Method(String),
    /// `A::B::m(…)` — qualifiers (outermost first) plus the callee.
    Path(Vec<String>, String),
    /// A path containing turbofish/generics the scanner does not model
    /// (`Vec::<u8>::with_capacity`); treated as external std.
    PathComplex,
}

/// One scanned call site with its resolution.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// File of the call.
    pub path: String,
    /// 1-based line of the callee token.
    pub line: u32,
    /// Crate the caller lives in.
    pub caller_crate: String,
    /// Enclosing function of the call.
    pub caller_symbol: String,
    /// Lexical shape.
    pub kind: CallKind,
    /// Resolution outcome.
    pub resolution: Resolution,
}

/// Std method names so common that an unqualified `.m(…)` on a
/// non-`self` receiver is assumed external *unless* the caller's own
/// crate defines a method of that name. Keeps `v.len()` from edging to
/// some other crate's `Clause::len` while still letting a same-crate
/// `self.heap.pop()` reach `Heap::pop`.
const STD_SHADOW: &[&str] = &[
    "len",
    "is_empty",
    "push",
    "pop",
    "get",
    "get_mut",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "extend",
    "clear",
    "drain",
    "swap",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "retain",
    "last",
    "first",
    "take",
    "replace",
    "min",
    "max",
    "rev",
    "map",
    "filter",
    "fold",
    "sum",
    "count",
    "chain",
    "zip",
    "enumerate",
    "collect",
    "clone",
    "to_vec",
    "to_string",
    "as_str",
    "as_ref",
    "as_mut",
    "as_slice",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "abs",
    "saturating_sub",
    "saturating_add",
    "wrapping_add",
    "entry",
    "or_insert",
    "or_insert_with",
    "split",
    "trim",
    "starts_with",
    "ends_with",
    "find",
    "position",
    "any",
    "all",
    "join",
    "push_str",
    "write",
    "write_all",
    "flush",
    "lock",
    "send",
    "recv",
    "spawn",
    "elapsed",
    "resize",
    "fill",
    "copied",
    "cloned",
    "truncate",
    "reserve",
    "rotate_left",
    "keys",
    "values",
    "then",
    "then_some",
    "and_then",
    "map_or",
    "map_err",
    "ok",
    "err",
    "expect",
    "unwrap",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "fmt",
    "min_by_key",
    "max_by_key",
    "binary_search",
    "windows",
    "chunks",
    "swap_remove",
    "split_off",
    "append",
    "front",
    "back",
    "push_back",
    "push_front",
    "pop_back",
    "pop_front",
];

/// Identifiers that can never be a callee.
const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "as", "in",
    "move", "ref", "mut", "box", "dyn", "impl", "where", "unsafe", "let", "fn", "pub", "use",
    "mod", "struct", "enum", "trait", "union", "type", "const", "static", "async", "await",
    "yield", "self", "super", "crate",
];

/// A resolved `use` entry: the original (pre-rename) item name and the
/// workspace crate it came from, `None` when the path root is external.
#[derive(Clone, Debug)]
pub struct ImportTarget {
    /// `Some("hqs-base")` for workspace paths, `None` for std etc.
    pub krate: Option<String>,
    /// The item's original name (last path segment before any `as`).
    pub name: String,
}

/// One file's `use` map.
#[derive(Clone, Debug, Default)]
pub struct Imports {
    /// In-scope alias → target.
    pub map: HashMap<String, ImportTarget>,
    /// Number of glob imports (`use foo::*`), which map no name.
    pub globs: usize,
}

/// The workspace symbol table.
pub struct SymbolTable {
    /// Every discovered function definition.
    pub defs: Vec<FnDef>,
    by_key: HashMap<(String, String), Vec<usize>>,
    methods: HashMap<String, Vec<usize>>,
    types: HashMap<String, HashSet<String>>,
    dep_closure: HashMap<String, HashSet<String>>,
    crate_names: HashSet<String>,
}

impl SymbolTable {
    /// Builds the table from every non-test file in the workspace.
    #[must_use]
    pub fn build(ws: &Workspace) -> Self {
        let mut table = SymbolTable {
            defs: Vec::new(),
            by_key: HashMap::new(),
            methods: HashMap::new(),
            types: HashMap::new(),
            dep_closure: HashMap::new(),
            crate_names: ws.crates.iter().map(|c| c.name.clone()).collect(),
        };
        table.build_dep_closure(ws);
        for file in &ws.files {
            if crate::passes::is_test_path(&file.path) {
                continue;
            }
            table.collect_defs(file);
            table.collect_types(file);
        }
        table
    }

    fn build_dep_closure(&mut self, ws: &Workspace) {
        for c in &ws.crates {
            let mut seen: HashSet<String> = HashSet::new();
            let mut stack = vec![c.name.clone()];
            while let Some(cur) = stack.pop() {
                if !seen.insert(cur.clone()) {
                    continue;
                }
                if let Some(info) = ws.crate_named(&cur) {
                    for dep in &info.manifest.deps {
                        if self.crate_names.contains(dep) {
                            stack.push(dep.clone());
                        }
                    }
                }
            }
            self.dep_closure.insert(c.name.clone(), seen);
        }
    }

    fn collect_defs(&mut self, file: &SourceFile) {
        let mut seen: HashSet<String> = HashSet::new();
        let mut prev_fn = String::new();
        for (i, tok) in file.tokens.iter().enumerate() {
            if tok.is_trivia() {
                continue;
            }
            let ctx = &file.ctx[i];
            if ctx.in_fn == prev_fn {
                continue;
            }
            prev_fn = ctx.in_fn.clone();
            if ctx.in_fn.is_empty() || ctx.in_test || !seen.insert(ctx.in_fn.clone()) {
                continue;
            }
            let id = self.defs.len();
            self.defs.push(FnDef {
                crate_name: file.crate_name.clone(),
                symbol: ctx.in_fn.clone(),
                path: file.path.clone(),
                line: tok.line,
            });
            self.by_key
                .entry((file.crate_name.clone(), ctx.in_fn.clone()))
                .or_default()
                .push(id);
            let bare = self.defs[id].bare_name().to_string();
            if self.defs[id].type_prefix().is_some() {
                self.methods.entry(bare).or_default().push(id);
            }
            if let Some(ty) = self.defs[id].type_prefix() {
                self.types
                    .entry(file.crate_name.clone())
                    .or_default()
                    .insert(ty.to_string());
            }
        }
    }

    fn collect_types(&mut self, file: &SourceFile) {
        let code = crate::passes::code_indices(file);
        for (k, &i) in code.iter().enumerate() {
            let tok = &file.tokens[i];
            if tok.kind != TokenKind::Ident
                || !matches!(file.text_of(tok), "struct" | "enum" | "trait" | "union")
                || file.ctx[i].in_attr
            {
                continue;
            }
            if let Some(&j) = code.get(k + 1) {
                let name = &file.tokens[j];
                if name.kind == TokenKind::Ident {
                    self.types
                        .entry(file.crate_name.clone())
                        .or_default()
                        .insert(file.text_of(name).to_string());
                }
            }
        }
    }

    /// Definition ids for `(crate, symbol)`.
    #[must_use]
    pub fn lookup(&self, krate: &str, symbol: &str) -> &[usize] {
        self.by_key
            .get(&(krate.to_string(), symbol.to_string()))
            .map_or(&[], Vec::as_slice)
    }

    /// The crates visible from `krate` (itself plus transitive deps).
    #[must_use]
    pub fn visible_from(&self, krate: &str) -> HashSet<String> {
        self.dep_closure.get(krate).cloned().unwrap_or_default()
    }

    /// Is `name` a type declared anywhere in the crates of `scope`?
    fn is_known_type(&self, scope: &HashSet<String>, name: &str) -> bool {
        scope
            .iter()
            .any(|c| self.types.get(c).is_some_and(|t| t.contains(name)))
    }

    fn methods_in(&self, krate: &str, name: &str) -> Vec<usize> {
        self.methods.get(name).map_or_else(Vec::new, |ids| {
            ids.iter()
                .filter(|&&id| self.defs[id].crate_name == krate)
                .copied()
                .collect()
        })
    }

    fn methods_in_deps(&self, krate: &str, name: &str) -> Vec<usize> {
        let scope = self.visible_from(krate);
        self.methods.get(name).map_or_else(Vec::new, |ids| {
            ids.iter()
                .filter(|&&id| {
                    let c = &self.defs[id].crate_name;
                    c != krate && scope.contains(c)
                })
                .copied()
                .collect()
        })
    }

    /// Maps a snake_case path root (`hqs_base`) to a workspace crate
    /// name (`hqs-base`), if it is one.
    fn crate_from_root(&self, root: &str) -> Option<String> {
        let dashed = root.replace('_', "-");
        self.crate_names.contains(&dashed).then_some(dashed)
    }

    /// Resolves one call site.
    #[must_use]
    pub fn resolve(
        &self,
        krate: &str,
        caller_symbol: &str,
        imports: &Imports,
        kind: &CallKind,
    ) -> Resolution {
        match kind {
            CallKind::Free(name) => self.resolve_free(krate, imports, name),
            CallKind::SelfMethod(name) => {
                if let Some((ty, _)) = caller_symbol.split_once("::") {
                    let hits = self.lookup(krate, &format!("{ty}::{name}"));
                    if !hits.is_empty() {
                        return Resolution::Resolved(hits.to_vec());
                    }
                }
                self.resolve_method(krate, name)
            }
            CallKind::Method(name) => self.resolve_method(krate, name),
            CallKind::Path(quals, name) => {
                self.resolve_path(krate, caller_symbol, imports, quals, name)
            }
            CallKind::PathComplex => Resolution::External(ExternalKind::Std),
        }
    }

    fn resolve_free(&self, krate: &str, imports: &Imports, name: &str) -> Resolution {
        let local = self.lookup(krate, name);
        if !local.is_empty() {
            return Resolution::Resolved(local.to_vec());
        }
        if let Some(target) = imports.map.get(name) {
            return match &target.krate {
                None => Resolution::External(ExternalKind::Std),
                Some(k) => {
                    if is_uppercase(&target.name) {
                        Resolution::External(ExternalKind::Constructor)
                    } else {
                        let hits = self.lookup(k, &target.name);
                        if hits.is_empty() {
                            Resolution::External(ExternalKind::Std)
                        } else {
                            Resolution::Resolved(hits.to_vec())
                        }
                    }
                }
            };
        }
        if is_uppercase(name) {
            return Resolution::External(ExternalKind::Constructor);
        }
        if name == "drop" {
            return Resolution::External(ExternalKind::Std);
        }
        Resolution::Unknown
    }

    fn resolve_method(&self, krate: &str, name: &str) -> Resolution {
        let same = self.methods_in(krate, name);
        match same.len() {
            1 => return Resolution::Resolved(same),
            n if n > 1 => return Resolution::Ambiguous(same),
            _ => {}
        }
        if STD_SHADOW.contains(&name) {
            return Resolution::External(ExternalKind::Std);
        }
        let deps = self.methods_in_deps(krate, name);
        match deps.len() {
            0 => Resolution::External(ExternalKind::Std),
            1 => Resolution::Resolved(deps),
            _ => Resolution::Ambiguous(deps),
        }
    }

    fn resolve_path(
        &self,
        krate: &str,
        caller_symbol: &str,
        imports: &Imports,
        quals: &[String],
        name: &str,
    ) -> Resolution {
        let root = quals[0].as_str();
        if root == "Self" {
            if let Some((ty, _)) = caller_symbol.split_once("::") {
                let hits = self.lookup(krate, &format!("{ty}::{name}"));
                if !hits.is_empty() {
                    return Resolution::Resolved(hits.to_vec());
                }
            }
            return Resolution::External(ExternalKind::Derived);
        }
        // Work out the target crate and the qualifiers within it.
        let (target, rest): (Option<String>, Vec<String>) =
            if matches!(root, "crate" | "self" | "super") {
                let rest = quals
                    .iter()
                    .skip_while(|q| matches!(q.as_str(), "crate" | "self" | "super"))
                    .cloned()
                    .collect();
                (Some(krate.to_string()), rest)
            } else if let Some(k) = self.crate_from_root(root) {
                (Some(k), quals[1..].to_vec())
            } else if let Some(t) = imports.map.get(root) {
                match &t.krate {
                    None => return Resolution::External(ExternalKind::Std),
                    Some(k) => {
                        let mut rest = vec![t.name.clone()];
                        rest.extend(quals[1..].iter().cloned());
                        (Some(k.clone()), rest)
                    }
                }
            } else if matches!(root, "std" | "core" | "alloc") {
                return Resolution::External(ExternalKind::Std);
            } else {
                (None, quals.to_vec())
            };

        if let Some(target) = target {
            return self.resolve_in_crate(&target, &rest, name);
        }
        // Unqualified `A::m` / `a::m` relative to the caller crate.
        match rest.last() {
            Some(last) if is_uppercase(last) => {
                if is_uppercase(name) {
                    return Resolution::External(ExternalKind::Constructor);
                }
                let local = self.lookup(krate, &format!("{last}::{name}"));
                if !local.is_empty() {
                    return Resolution::Resolved(local.to_vec());
                }
                let scope = self.visible_from(krate);
                let mut hits: Vec<usize> = Vec::new();
                for c in &scope {
                    if c != krate {
                        hits.extend_from_slice(self.lookup(c, &format!("{last}::{name}")));
                    }
                }
                match hits.len() {
                    1 => Resolution::Resolved(hits),
                    n if n > 1 => Resolution::Ambiguous(hits),
                    _ if self.is_known_type(&scope, last) => {
                        Resolution::External(ExternalKind::Derived)
                    }
                    _ => Resolution::External(ExternalKind::Std),
                }
            }
            // Module-qualified free call (`jsonl::write(…)`).
            _ => {
                let hits = self.lookup(krate, name);
                if hits.is_empty() {
                    Resolution::External(ExternalKind::Std)
                } else {
                    Resolution::Resolved(hits.to_vec())
                }
            }
        }
    }

    /// Resolves `rest…::name(…)` inside a known workspace crate.
    fn resolve_in_crate(&self, krate: &str, rest: &[String], name: &str) -> Resolution {
        match rest.last() {
            Some(last) if is_uppercase(last) => {
                let hits = self.lookup(krate, &format!("{last}::{name}"));
                if !hits.is_empty() {
                    Resolution::Resolved(hits.to_vec())
                } else if is_uppercase(name) {
                    Resolution::External(ExternalKind::Constructor)
                } else {
                    Resolution::External(ExternalKind::Derived)
                }
            }
            _ => {
                if is_uppercase(name) {
                    return Resolution::External(ExternalKind::Constructor);
                }
                let hits = self.lookup(krate, name);
                if hits.is_empty() {
                    Resolution::External(ExternalKind::Derived)
                } else {
                    Resolution::Resolved(hits.to_vec())
                }
            }
        }
    }
}

fn is_uppercase(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// Parses every `use` declaration in the file into an [`Imports`] map.
#[must_use]
pub fn parse_imports(file: &SourceFile, table: &SymbolTable) -> Imports {
    let code = crate::passes::code_indices(file);
    let texts: Vec<&str> = code
        .iter()
        .map(|&i| file.tokens[i].text(&file.text))
        .collect();
    let mut imports = Imports::default();
    let mut k = 0;
    while k < texts.len() {
        if texts[k] == "use" && !file.ctx[code[k]].in_attr {
            // Collect tokens up to the terminating `;`.
            let start = k + 1;
            let mut end = start;
            while end < texts.len() && texts[end] != ";" {
                end += 1;
            }
            let toks = &texts[start..end];
            let mut pos = 0;
            let mut prefix: Vec<String> = Vec::new();
            parse_use_tree(
                toks,
                &mut pos,
                &mut prefix,
                &mut imports,
                &file.crate_name,
                table,
            );
            k = end;
        }
        k += 1;
    }
    imports
}

/// Recursive descent over one `use` tree (`a::b::{c, d as e, f::*}`).
fn parse_use_tree(
    toks: &[&str],
    pos: &mut usize,
    prefix: &mut Vec<String>,
    imports: &mut Imports,
    krate: &str,
    table: &SymbolTable,
) {
    let depth = prefix.len();
    loop {
        match toks.get(*pos).copied() {
            Some("{") => {
                *pos += 1;
                loop {
                    match toks.get(*pos).copied() {
                        Some("}") | None => {
                            *pos += 1;
                            break;
                        }
                        Some(",") => *pos += 1,
                        Some(_) => {
                            parse_use_tree(toks, pos, prefix, imports, krate, table);
                        }
                    }
                }
                prefix.truncate(depth);
                return;
            }
            Some("*") => {
                imports.globs += 1;
                *pos += 1;
                prefix.truncate(depth);
                return;
            }
            Some(seg) if is_ident_like(seg) => {
                prefix.push(seg.to_string());
                *pos += 1;
                if toks.get(*pos).copied() == Some(":") && toks.get(*pos + 1).copied() == Some(":")
                {
                    *pos += 2;
                    continue;
                }
                // Terminal segment; check for `as` rename.
                let mut alias = seg.to_string();
                if toks.get(*pos).copied() == Some("as") {
                    if let Some(renamed) = toks.get(*pos + 1) {
                        alias = (*renamed).to_string();
                        *pos += 2;
                    }
                }
                record_import(&alias, prefix, imports, krate, table);
                prefix.truncate(depth);
                return;
            }
            _ => {
                // `::` at the path start, stray punctuation: skip it.
                *pos += 1;
                if *pos > toks.len() {
                    return;
                }
                if toks.get(*pos).is_none() {
                    prefix.truncate(depth);
                    return;
                }
            }
        }
    }
}

fn record_import(
    alias: &str,
    path: &[String],
    imports: &mut Imports,
    krate: &str,
    table: &SymbolTable,
) {
    let Some(root) = path.first() else { return };
    let name = path.last().cloned().unwrap_or_default();
    let target_crate = if matches!(root.as_str(), "crate" | "self" | "super") {
        Some(krate.to_string())
    } else {
        table.crate_from_root(root)
    };
    imports.map.insert(
        alias.to_string(),
        ImportTarget {
            krate: target_crate,
            name,
        },
    );
}

fn is_ident_like(s: &str) -> bool {
    s.chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
}

/// Scans one file for call sites and resolves each against the table.
#[must_use]
pub fn scan_calls(file: &SourceFile, table: &SymbolTable, imports: &Imports) -> Vec<CallSite> {
    let code = crate::passes::code_indices(file);
    let texts: Vec<&str> = code
        .iter()
        .map(|&i| file.tokens[i].text(&file.text))
        .collect();
    let at = |k: usize| -> &str { texts.get(k).copied().unwrap_or("") };
    let locals = local_callables(&texts);
    let mut sites = Vec::new();
    for k in 0..code.len() {
        let i = code[k];
        let tok = &file.tokens[i];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let text = texts[k];
        if KEYWORDS.contains(&text) || text == "Self" {
            continue;
        }
        let ctx = &file.ctx[i];
        if ctx.in_fn.is_empty() || ctx.in_test || ctx.in_attr {
            continue;
        }
        // Forward: require `(`, possibly through a turbofish. A `::`
        // followed by an identifier means this token is a qualifier —
        // the callee will be visited at its own position.
        let mut j = k + 1;
        if at(j) == "!" {
            continue; // macro invocation
        }
        if at(j) == ":" && at(j + 1) == ":" {
            if at(j + 2) != "<" {
                continue;
            }
            let Some(after) = skip_generics(&texts, j + 2) else {
                continue;
            };
            j = after;
        }
        if at(j) != "(" {
            continue;
        }
        // Backward: classify the shape.
        let prev = if k > 0 { texts[k - 1] } else { "" };
        if prev == "fn" {
            continue; // definition or fn-pointer type, not a call
        }
        let kind = if prev == "." {
            let recv = if k >= 2 { texts[k - 2] } else { "" };
            let recv_prev = if k >= 3 { texts[k - 3] } else { "" };
            if recv == "self" && recv_prev != "." {
                CallKind::SelfMethod(text.to_string())
            } else {
                CallKind::Method(text.to_string())
            }
        } else if prev == ":" && k >= 2 && texts[k - 2] == ":" {
            match collect_path_back(file, &code, &texts, k) {
                Some(quals) => CallKind::Path(quals, text.to_string()),
                None => CallKind::PathComplex,
            }
        } else {
            CallKind::Free(text.to_string())
        };
        let mut resolution = table.resolve(&file.crate_name, &ctx.in_fn, imports, &kind);
        // A bare call the table cannot target is still exact when the
        // file itself binds the name as a closure or nested fn.
        if matches!(resolution, Resolution::Unknown)
            && matches!(&kind, CallKind::Free(n) if locals.contains(&n.as_str()))
        {
            resolution = Resolution::LocalClosure;
        }
        sites.push(CallSite {
            path: file.path.clone(),
            line: tok.line,
            caller_crate: file.crate_name.clone(),
            caller_symbol: ctx.in_fn.clone(),
            kind,
            resolution,
        });
    }
    sites
}

/// Names a file binds as callables with no [`FnDef`]: closures
/// (`name = |…|`, `name = move |…|`) and `fn` items (nested fns are
/// not in the symbol table; top-level ones resolve earlier anyway, so
/// over-collecting them is harmless — the set is only consulted for
/// sites the table already failed to target).
fn local_callables<'a>(texts: &[&'a str]) -> std::collections::HashSet<&'a str> {
    let mut names = std::collections::HashSet::new();
    for w in texts.windows(3) {
        if w[0] == "fn" {
            names.insert(w[1]);
        } else if w[1] == "=" && (w[2] == "|" || w[2] == "move") {
            names.insert(w[0]);
        }
    }
    names
}

/// Skips a balanced `<…>` starting at `open` (which must be `<`);
/// returns the position after the closing `>`. `>` preceded by `-` is
/// an arrow inside a fn-pointer type, not a closer.
fn skip_generics(texts: &[&str], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = open;
    while k < texts.len() {
        match texts[k] {
            "<" => depth += 1,
            ">" if k > 0 && texts[k - 1] == "-" => {}
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k + 1);
                }
            }
            _ => {}
        }
        k += 1;
        if k - open > 64 {
            return None; // degenerate; give up rather than scan the file
        }
    }
    None
}

/// Collects the `::`-separated qualifiers before the callee at view
/// position `k`, outermost first. Returns `None` when the path carries
/// generics the scanner does not model.
fn collect_path_back(
    file: &SourceFile,
    code: &[usize],
    texts: &[&str],
    k: usize,
) -> Option<Vec<String>> {
    let mut segs: Vec<String> = Vec::new();
    let mut j = k;
    while j >= 3 && texts[j - 1] == ":" && texts[j - 2] == ":" {
        let p = j - 3;
        if texts[p] == ">" {
            return None; // `Vec::<u8>::new` and friends
        }
        let tok = &file.tokens[code[p]];
        if tok.kind != TokenKind::Ident {
            break;
        }
        segs.push(texts[p].to_string());
        j = p;
    }
    segs.reverse();
    if segs.is_empty() {
        None
    } else {
        Some(segs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;
    use crate::workspace::CrateInfo;
    use std::path::PathBuf;

    fn ws(files: Vec<(&str, &str, &str)>, crates: Vec<(&str, &str, Vec<&str>)>) -> Workspace {
        Workspace {
            root: PathBuf::from("."),
            crates: crates
                .into_iter()
                .map(|(name, dir, deps)| CrateInfo {
                    name: name.into(),
                    dir: dir.into(),
                    manifest: Manifest {
                        name: name.into(),
                        deps: deps.into_iter().map(String::from).collect(),
                        dev_deps: vec![],
                    },
                })
                .collect(),
            files: files
                .into_iter()
                .map(|(path, krate, text)| {
                    SourceFile::analyze(path.into(), krate.into(), text.into())
                })
                .collect(),
        }
    }

    fn site_for<'a>(sites: &'a [CallSite], callee: &str) -> &'a CallSite {
        sites
            .iter()
            .find(|s| match &s.kind {
                CallKind::Free(n)
                | CallKind::SelfMethod(n)
                | CallKind::Method(n)
                | CallKind::Path(_, n) => n == callee,
                CallKind::PathComplex => false,
            })
            .unwrap_or_else(|| panic!("no site calling {callee}"))
    }

    #[test]
    fn free_and_self_method_resolution() {
        let w = ws(
            vec![(
                "crates/sat/src/lib.rs",
                "hqs-sat",
                "pub struct Solver;\n\
                 impl Solver {\n\
                     pub fn propagate(&mut self) { self.helper(); free_fn(); }\n\
                     fn helper(&self) {}\n\
                 }\n\
                 fn free_fn() {}\n",
            )],
            vec![("hqs-sat", "crates/sat", vec![])],
        );
        let table = SymbolTable::build(&w);
        let imports = parse_imports(&w.files[0], &table);
        let sites = scan_calls(&w.files[0], &table, &imports);
        assert!(matches!(
            site_for(&sites, "helper").resolution,
            Resolution::Resolved(_)
        ));
        assert!(matches!(
            site_for(&sites, "free_fn").resolution,
            Resolution::Resolved(_)
        ));
    }

    #[test]
    fn method_call_through_use_as_rename() {
        let w = ws(
            vec![
                (
                    "crates/base/src/lib.rs",
                    "hqs-base",
                    "pub struct Counter;\nimpl Counter { pub fn fresh() -> Self { Counter } }\n",
                ),
                (
                    "crates/sat/src/lib.rs",
                    "hqs-sat",
                    "use hqs_base::Counter as Tally;\n\
                     pub fn make() { let _t = Tally::fresh(); }\n",
                ),
            ],
            vec![
                ("hqs-base", "crates/base", vec![]),
                ("hqs-sat", "crates/sat", vec!["hqs-base"]),
            ],
        );
        let table = SymbolTable::build(&w);
        let imports = parse_imports(&w.files[1], &table);
        assert_eq!(
            imports.map.get("Tally").map(|t| t.name.as_str()),
            Some("Counter")
        );
        let sites = scan_calls(&w.files[1], &table, &imports);
        let site = site_for(&sites, "fresh");
        match &site.resolution {
            Resolution::Resolved(ids) => {
                assert_eq!(table.defs[ids[0]].symbol, "Counter::fresh");
                assert_eq!(table.defs[ids[0]].crate_name, "hqs-base");
            }
            other => panic!("expected resolved, got {other:?}"),
        }
    }

    #[test]
    fn std_paths_and_constructors_are_external() {
        let w = ws(
            vec![(
                "crates/sat/src/lib.rs",
                "hqs-sat",
                "use std::collections::HashMap;\n\
                 pub fn f() {\n\
                     let _m: HashMap<u32, u32> = HashMap::new();\n\
                     let _v = Vec::<u8>::with_capacity(4);\n\
                     let _s = Some(1);\n\
                     let _t = std::mem::take(&mut vec![1]);\n\
                 }\n",
            )],
            vec![("hqs-sat", "crates/sat", vec![])],
        );
        let table = SymbolTable::build(&w);
        let imports = parse_imports(&w.files[0], &table);
        let sites = scan_calls(&w.files[0], &table, &imports);
        for s in &sites {
            assert!(
                matches!(s.resolution, Resolution::External(_)),
                "{s:?} should be external"
            );
        }
    }

    #[test]
    fn closure_param_call_is_unknown() {
        let w = ws(
            vec![(
                "crates/sat/src/lib.rs",
                "hqs-sat",
                "pub fn f(should_stop: impl Fn() -> bool) { if should_stop() {} }\n",
            )],
            vec![("hqs-sat", "crates/sat", vec![])],
        );
        let table = SymbolTable::build(&w);
        let imports = parse_imports(&w.files[0], &table);
        let sites = scan_calls(&w.files[0], &table, &imports);
        assert!(matches!(
            site_for(&sites, "should_stop").resolution,
            Resolution::Unknown
        ));
    }

    #[test]
    fn grouped_imports_and_globs() {
        let w = ws(
            vec![(
                "crates/sat/src/lib.rs",
                "hqs-sat",
                "use hqs_base::{Budget, cancel::{CancelToken, poll as check_poll}};\n\
                 use super::*;\n",
            )],
            vec![
                ("hqs-base", "crates/base", vec![]),
                ("hqs-sat", "crates/sat", vec!["hqs-base"]),
            ],
        );
        let table = SymbolTable::build(&w);
        let imports = parse_imports(&w.files[0], &table);
        assert_eq!(imports.globs, 1);
        assert_eq!(
            imports.map.get("Budget").map(|t| t.name.as_str()),
            Some("Budget")
        );
        assert_eq!(
            imports.map.get("check_poll").map(|t| t.name.as_str()),
            Some("poll")
        );
        assert_eq!(
            imports
                .map
                .get("CancelToken")
                .and_then(|t| t.krate.as_deref()),
            Some("hqs-base")
        );
    }
}
