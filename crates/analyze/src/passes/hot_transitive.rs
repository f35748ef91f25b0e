//! Hot-path discipline: the panic/alloc denies apply to the functions
//! hand-listed in `analyze-hot-paths.toml` and follow the call graph to
//! everything they reach.
//!
//! The pass seeds from `[hot-paths] functions`, computes the callee
//! closure over the workspace [`CallGraph`], and applies three matchers
//! to every function in it, seeds included:
//!
//! * the panic matcher (`super::panic_finding`), at any position:
//!   `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!` and `[…]`
//!   indexing;
//! * the *implicit* panic matcher (`super::implicit_panic_finding`):
//!   `split_at`, `copy_from_slice`/`clone_from_slice`, `/` and `%` by a
//!   non-literal divisor — guarded or not, since the pass reads tokens,
//!   not values;
//! * the allocation matcher (`super::alloc_finding`), inside loops
//!   only: `Vec::new`, `Box::new`, `.clone()`, `.collect()`, `format!`,
//!   `vec!` and kin. The idiomatic fix is a scratch buffer on the owning
//!   struct reused via `std::mem::take`.
//!
//! Every diagnostic carries the discovered call chain
//! (`hqs-sat::Solver::propagate → Solver::value → helper`), so a CI
//! failure shows *why* a function is considered hot without the reader
//! reconstructing the graph. The fix is a non-panicking form
//! (`get`, `checked_div`, `split_at_checked`); a site whose invariant
//! makes the panic impossible carries
//! `// analyze::allow(panic|alloc): <reason>` stating that invariant —
//! an allow is a statement about the site, not about who calls it. A
//! `[hot-paths]` entry that matches no function is itself a finding, so
//! renaming a seed cannot switch its discipline off silently.

use std::collections::HashMap;

use crate::callgraph::CallGraph;
use crate::config::AnalyzeConfig;
use crate::diag::Diagnostic;
use crate::workspace::Workspace;

use super::{
    alloc_finding, code_indices, implicit_panic_finding, is_test_path, panic_finding,
    resolve_entries,
};

/// Runs the transitive hot-path pass.
#[must_use]
pub fn run(ws: &Workspace, cfg: &AnalyzeConfig, graph: &CallGraph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let seeds = resolve_entries(
        graph,
        &cfg.hot.functions,
        "hot-transitive",
        "hot-paths",
        &mut diags,
    );
    let reach = graph.closure(&seeds);

    // Group reached defs by file so each file is scanned once;
    // remember the chain per (path, symbol).
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
        for (k, &i) in code.iter().enumerate() {
            let ctx = &file.ctx[i];
            if ctx.in_fn.is_empty() || ctx.in_test || ctx.in_attr {
                continue;
            }
            let Some(chain) = symbols.get(ctx.in_fn.as_str()) else {
                continue;
            };
            let tok = &file.tokens[i];
            if let Some(message) = implicit_panic_finding(file, &code, k) {
                if file.allowed("panic", tok.line).is_none() {
                    diags.push(Diagnostic {
                        pass: "hot-transitive".into(),
                        path: file.path.clone(),
                        line: tok.line,
                        symbol: ctx.in_fn.clone(),
                        message: format!("{message} [hot via {chain}]"),
                    });
                }
                continue;
            }
            if let Some(message) = panic_finding(file, &code, k) {
                if file.allowed("panic", tok.line).is_none() {
                    diags.push(Diagnostic {
                        pass: "hot-transitive".into(),
                        path: file.path.clone(),
                        line: tok.line,
                        symbol: ctx.in_fn.clone(),
                        message: format!("{message} [hot via {chain}]"),
                    });
                }
                continue;
            }
            if ctx.loop_depth > 0 {
                if let Some(message) = alloc_finding(file, &code, k) {
                    if file.allowed("alloc", tok.line).is_none() {
                        diags.push(Diagnostic {
                            pass: "hot-transitive".into(),
                            path: file.path.clone(),
                            line: tok.line,
                            symbol: ctx.in_fn.clone(),
                            message: format!("{message} [hot via {chain}]"),
                        });
                    }
                }
            }
        }
    }
    diags
}
