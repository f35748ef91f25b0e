//! Determinism taint: nondeterminism sources denied in the callee
//! closure of the declared deterministic roots.
//!
//! Portfolio cross-checking and certificate emission are only evidence
//! if a re-run is byte-reproducible, so the functions listed under
//! `[determinism] roots` in `analyze-hot-paths.toml` (deterministic
//! arbitration, the batch JSONL writer, Skolem/Herbrand extraction)
//! anchor a closure over the workspace [`CallGraph`] in which the pass
//! denies:
//!
//! * **hash-ordered iteration** — `iter`/`keys`/`values`/`drain`/
//!   `into_*` calls and `for … in` loops over locals or fields the
//!   file declares as `HashMap`/`HashSet`: their order varies per
//!   process (SipHash keys are randomly seeded), so any use that can
//!   reach output is a reproducibility hole;
//! * **explicit `RandomState`** — opting into the random hasher;
//! * **wall-clock reads** — `Instant::now` / `SystemTime::now`;
//! * **ambient identity** — `thread::current` (thread ids) and
//!   `env::var`-family reads.
//!
//! Every diagnostic carries the seed-to-sink chain
//! (`[deterministic via hqs-engine::arbitrate → …]`) so the finding is
//! file:line evidence of *how* the source reaches a deterministic
//! root. Sites with a harmless order (e.g. folding into an
//! order-insensitive aggregate) are silenced with
//! `// analyze::allow(determinism): <reason>` — the two-way ratchet
//! reports the annotation itself if the site disappears.

use std::collections::{HashMap, HashSet};

use crate::callgraph::CallGraph;
use crate::config::AnalyzeConfig;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use crate::workspace::Workspace;

use super::{code_indices, is_test_path, resolve_entries, text_at};

/// Methods whose result order follows the hasher, not the data.
const ORDER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Runs the determinism pass.
#[must_use]
pub fn run(ws: &Workspace, cfg: &AnalyzeConfig, graph: &CallGraph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let seeds = resolve_entries(
        graph,
        &cfg.determinism_roots,
        "determinism",
        "determinism",
        &mut diags,
    );
    let reach = graph.closure(&seeds);

    let mut per_file: HashMap<&str, HashMap<&str, String>> = HashMap::new();
    for &id in reach.keys() {
        let def = &graph.table.defs[id];
        per_file
            .entry(def.path.as_str())
            .or_default()
            .insert(def.symbol.as_str(), graph.chain(&reach, id));
    }

    for file in &ws.files {
        let Some(symbols) = per_file.get(file.path.as_str()) else {
            continue;
        };
        if is_test_path(&file.path) {
            continue;
        }
        let code = code_indices(file);
        let hashy = hash_bound_idents(file, &code);
        for k in 0..code.len() {
            let ctx = &file.ctx[code[k]];
            if ctx.in_fn.is_empty() || ctx.in_test || ctx.in_attr {
                continue;
            }
            let Some(chain) = symbols.get(ctx.in_fn.as_str()) else {
                continue;
            };
            let Some(message) = finding(file, &code, k, &hashy) else {
                continue;
            };
            let tok = &file.tokens[code[k]];
            if file.allowed("determinism", tok.line).is_none() {
                diags.push(Diagnostic {
                    pass: "determinism".into(),
                    path: file.path.clone(),
                    line: tok.line,
                    symbol: ctx.in_fn.clone(),
                    message: format!("{message} [deterministic via {chain}]"),
                });
            }
        }
    }
    diags
}

/// The nondeterminism source at view position `k`, if any.
fn finding(file: &SourceFile, code: &[usize], k: usize, hashy: &HashSet<String>) -> Option<String> {
    let tok = &file.tokens[code[k]];
    if tok.kind != TokenKind::Ident {
        return None;
    }
    let txt = |i: usize| text_at(file, code, i);
    let text = tok.text(&file.text);
    // `env`/`thread` must be the path root or follow `std ::` —
    // `my_mod::env::var` is someone else's `env`.
    let std_rooted = |k: usize| {
        k == 0 || txt(k - 1) != ":" || (k >= 3 && txt(k - 2) == ":" && txt(k - 3) == "std")
    };

    // Direct sources first: they never depend on the hashy set.
    match text {
        "RandomState" => {
            return Some("explicit `RandomState` hasher is randomly seeded per process".into());
        }
        "Instant" | "SystemTime"
            if k + 3 < code.len() && txt(k + 1) == ":" && txt(k + 3) == "now" =>
        {
            return Some(format!(
                "wall-clock read `{text}::now()` varies across runs"
            ));
        }
        "thread"
            if k + 3 < code.len()
                && txt(k + 1) == ":"
                && txt(k + 3) == "current"
                && std_rooted(k) =>
        {
            return Some("`thread::current()` exposes a per-run thread identity".into());
        }
        "env"
            if k + 3 < code.len()
                && txt(k + 1) == ":"
                && matches!(txt(k + 3), "var" | "vars" | "var_os" | "vars_os")
                && std_rooted(k) =>
        {
            return Some(format!(
                "environment read `env::{}` is ambient, non-reproducible input",
                txt(k + 3)
            ));
        }
        _ => {}
    }

    if !hashy.contains(text) {
        return None;
    }
    // `x.iter()` / `self.x.keys()` / … — an order-following method on a
    // hash-bound binding.
    if k + 2 < code.len() && txt(k + 1) == "." && ORDER_METHODS.contains(&txt(k + 2)) {
        return Some(format!(
            "iteration order of hash-bound `{text}.{}()` varies per process",
            txt(k + 2)
        ));
    }
    // `for … in x {` / `for … in &mut self.x {` — the implicit
    // IntoIterator form of the same thing.
    let mut p = k;
    while p >= 2 && txt(p - 1) == "." && file.tokens[code[p - 2]].kind == TokenKind::Ident {
        p -= 2;
    }
    while p >= 1 && matches!(txt(p - 1), "&" | "mut") {
        p -= 1;
    }
    if p >= 1 && txt(p - 1) == "in" {
        return Some(format!(
            "`for` over hash-bound `{text}` iterates in per-process hash order",
        ));
    }
    None
}

/// Identifiers the file binds to a `HashMap`/`HashSet`: via a type
/// annotation (`let m: HashMap<…>`, a struct field, an fn param) or a
/// constructor assignment (`m = HashMap::new()`). File-wide on
/// purpose — a field declared hashy taints `self.field` uses in every
/// method.
fn hash_bound_idents(file: &SourceFile, code: &[usize]) -> HashSet<String> {
    let txt = |i: usize| text_at(file, code, i);
    let is_ident = |i: usize| file.tokens[code[i]].kind == TokenKind::Ident;
    let mut hashy = HashSet::new();
    for k in 0..code.len() {
        if !is_ident(k) || !matches!(txt(k), "HashMap" | "HashSet") {
            continue;
        }
        // Walk back over the path prefix (`std :: collections ::`).
        let mut p = k;
        while p >= 3 && txt(p - 1) == ":" && txt(p - 2) == ":" && is_ident(p - 3) {
            p -= 3;
        }
        if p == 0 {
            continue;
        }
        if p < 2 {
            continue;
        }
        // `name : HashMap` — annotation (let, field, or param).
        if txt(p - 1) == ":" && txt(p - 2) != ":" && is_ident(p - 2) {
            hashy.insert(txt(p - 2).to_string());
            continue;
        }
        // `name = HashMap :: …` — constructor assignment.
        if txt(p - 1) == "=" && !matches!(txt(p - 2), "=" | "!" | "<" | ">") && is_ident(p - 2) {
            hashy.insert(txt(p - 2).to_string());
        }
    }
    hashy
}
