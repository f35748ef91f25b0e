//! Concurrency hygiene: two checks over the parallel engine's idioms.
//!
//! **Ordering audit** (`concurrency-ordering`): every atomic
//! `Ordering::` use site in production code must appear in the
//! committed allowlist (`[concurrency] ordering` in
//! `analyze-hot-paths.toml`), where each entry carries a justification
//! comment. The check is two-way — an unlisted site fails, and a stale
//! entry fails — so the allowlist is always exactly the set of sites.
//! `std::cmp::Ordering` never matches: its variants (`Less`, `Equal`,
//! `Greater`) are not atomic orderings.
//!
//! **Lock-hold hygiene** (`concurrency-lock`): inside hot-path
//! functions (seeds plus the transitive closure), no allocation and no
//! solver call may execute while a `MutexGuard` is **live** — where
//! liveness is the real guard-liveness dataflow from
//! `super::guards` over the function CFG, not a syntactic region
//! scan. A guard bound before a loop is live across the back edge; a
//! guard bound inside an `if` arm dies at the join; `drop(guard)`
//! kills it on that path only, so an allocation reachable on the
//! un-dropped path is still flagged. Guard temporaries
//! (`lock(&queue).pop_front()`) are fine — the guard drops at the end
//! of the statement. Justified holds carry
//! `// analyze::allow(lock): <reason>`.

use std::collections::{HashMap, HashSet};

use crate::callgraph::CallGraph;
use crate::cfg;
use crate::config::AnalyzeConfig;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::workspace::Workspace;

use super::{alloc_finding, code_indices, guards, is_test_path, text_at};

/// Atomic ordering variants (the `std::cmp::Ordering` variants are
/// deliberately absent).
const ATOMIC_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Calls that must never run under a held guard.
const SOLVER_CALLS: &[&str] = &[
    "solve",
    "solve_certified",
    "solve_budgeted",
    "main_loop",
    "solve_inner",
];

/// Runs both concurrency checks.
#[must_use]
pub fn run(ws: &Workspace, config: &AnalyzeConfig, graph: &CallGraph) -> Vec<Diagnostic> {
    let mut diags = ordering_audit(ws, config);
    diags.extend(lock_hold(ws, config, graph));
    diags
}

fn ordering_audit(ws: &Workspace, config: &AnalyzeConfig) -> Vec<Diagnostic> {
    // Multiset of allowlisted sites.
    let mut allowed: HashMap<(String, String, String), usize> = HashMap::new();
    for site in &config.ordering_allow {
        *allowed
            .entry((site.path.clone(), site.symbol.clone(), site.variant.clone()))
            .or_default() += 1;
    }
    let mut diags = Vec::new();
    // Scan every production file for `Ordering::Variant` sites.
    let mut seen: HashMap<(String, String, String), Vec<u32>> = HashMap::new();
    for file in &ws.files {
        if is_test_path(&file.path) {
            continue;
        }
        let code = code_indices(file);
        for (k, &i) in code.iter().enumerate() {
            let tok = &file.tokens[i];
            let ctx = &file.ctx[i];
            if tok.kind != TokenKind::Ident
                || file.text_of(tok) != "Ordering"
                || ctx.in_test
                || ctx.in_attr
            {
                continue;
            }
            if text_at(file, &code, k + 1) != ":" || text_at(file, &code, k + 2) != ":" {
                continue;
            }
            let variant = text_at(file, &code, k + 3);
            if !ATOMIC_VARIANTS.contains(&variant) {
                continue;
            }
            seen.entry((file.path.clone(), ctx.in_fn.clone(), variant.to_string()))
                .or_default()
                .push(tok.line);
        }
    }
    // Two-way diff.
    for (key, lines) in &seen {
        let quota = allowed.get(key).copied().unwrap_or(0);
        for &line in lines.iter().skip(quota) {
            diags.push(Diagnostic {
                pass: "concurrency-ordering".into(),
                path: key.0.clone(),
                line,
                symbol: key.1.clone(),
                message: format!(
                    "`Ordering::{}` site is not in the committed allowlist — add \
                     `{}::{}::{}` with a justification comment to `[concurrency] ordering` \
                     in analyze-hot-paths.toml, or use a stronger ordering",
                    key.2, key.0, key.1, key.2
                ),
            });
        }
    }
    for (key, &quota) in &allowed {
        let used = seen.get(key).map_or(0, Vec::len);
        for _ in used..quota {
            diags.push(Diagnostic {
                pass: "concurrency-ordering".into(),
                path: key.0.clone(),
                line: 0,
                symbol: key.1.clone(),
                message: format!(
                    "stale ordering allowlist entry `{}::{}::{}` — no matching \
                     `Ordering::{}` site remains; remove it from analyze-hot-paths.toml",
                    key.0, key.1, key.2, key.2
                ),
            });
        }
    }
    diags
}

/// The guard-liveness check: allocations and solver calls at any token
/// where a guard binding is live, in hot-path functions.
fn lock_hold(ws: &Workspace, config: &AnalyzeConfig, graph: &CallGraph) -> Vec<Diagnostic> {
    // Hot set: seeds plus the transitive closure.
    let mut seeds: Vec<usize> = Vec::new();
    for f in &config.hot.functions {
        seeds.extend(graph.seed_ids(&f.crate_name, &f.symbol));
    }
    if seeds.is_empty() {
        return Vec::new();
    }
    let reach = graph.closure(&seeds);
    let hot: HashSet<(String, String)> = reach
        .keys()
        .map(|&id| {
            let d = &graph.table.defs[id];
            (d.crate_name.clone(), d.symbol.clone())
        })
        .collect();

    let mut diags = Vec::new();
    for file in &ws.files {
        if is_test_path(&file.path) {
            continue;
        }
        // Pre-filter: no lock vocabulary, no work.
        if !guards::LOCK_FNS.iter().any(|f| file.text.contains(f)) {
            continue;
        }
        let code = code_indices(file);
        for fn_cfg in cfg::build_all(file, &code) {
            if !hot.contains(&(file.crate_name.clone(), fn_cfg.symbol.clone())) {
                continue;
            }
            if fn_cfg
                .blocks
                .iter()
                .find_map(|b| b.tokens.first())
                .is_some_and(|&k| file.ctx[code[k]].in_test)
            {
                continue;
            }
            let locks = guards::analyze_fn(file, &code, &fn_cfg);
            if locks.bindings.is_empty() {
                continue;
            }
            for b in 0..fn_cfg.blocks.len() {
                locks.walk_block(file, &code, &fn_cfg, b, |k, live| {
                    if live.is_empty() {
                        return;
                    }
                    let i = code[k];
                    let tok = &file.tokens[i];
                    let line = tok.line;
                    let guard = &locks.bindings[live[0]].name;
                    let text = file.text_of(tok);
                    if tok.kind == TokenKind::Ident
                        && SOLVER_CALLS.contains(&text)
                        && text_at(file, &code, k + 1) == "("
                    {
                        if file.allowed("lock", line).is_some() {
                            return;
                        }
                        diags.push(Diagnostic {
                            pass: "concurrency-lock".into(),
                            path: file.path.clone(),
                            line,
                            symbol: fn_cfg.symbol.clone(),
                            message: format!(
                                "solver call `{text}(…)` while MutexGuard `{guard}` is held in a \
                                 hot-path function — drop the guard first, or justify with \
                                 `// analyze::allow(lock): …`"
                            ),
                        });
                    } else if let Some(msg) = alloc_finding(file, &code, k) {
                        if file.allowed("lock", line).is_some() {
                            return;
                        }
                        let construct = msg.split(" allocates").next().unwrap_or("allocation");
                        diags.push(Diagnostic {
                            pass: "concurrency-lock".into(),
                            path: file.path.clone(),
                            line,
                            symbol: fn_cfg.symbol.clone(),
                            message: format!(
                                "{construct} allocation while MutexGuard `{guard}` is held in a \
                                 hot-path function — move it outside the critical section, or \
                                 justify with `// analyze::allow(lock): …`"
                            ),
                        });
                    }
                });
            }
        }
    }
    diags
}
