//! Cancel-poll coverage, path-sensitive: **every path that completes a
//! loop iteration** inside a declared solver-entry function must reach
//! a cancellation poll.
//!
//! Entry functions come from `[cancel-poll] functions` in
//! `analyze-hot-paths.toml` — the elimination loop, the CDCL
//! conflict/decision loop, the QBF finish, the scheduler claim loop.
//! For each, the pass builds the function's CFG ([`crate::cfg`]) and,
//! for every loop, searches the loop body for a cycle — a path from the
//! loop head back to the loop head (a back edge or a `continue`) — that
//! crosses no poll-shaped call. Poll shapes: `is_cancelled`,
//! `stop_requested`, `cancelled`, `cancel_requested`, `should_stop`,
//! `.check(…)` (the `Budget` poll), `solve_budgeted`, or a call to
//! another declared entry function (recursion polls at its own entry;
//! the budget-polling `hqs-sat::Solver::solve` is itself an entry).
//!
//! This is strictly stronger than the old "loop body contains a poll
//! token" span check: a fast-path `if cheap { continue; }` branch that
//! skips the poll is a cycle with no poll on it and is reported, with
//! the concrete line path rendered in the diagnostic. Likewise a poll
//! that lives inside an inner `while` only covers outer iterations that
//! actually enter the inner body — the zero-iteration skip path is a
//! real path and must poll too (or be annotated).
//!
//! Paths that *leave* the loop (`break`, `return`, `?`) need no poll:
//! cancellation only has to bound the time spent looping. Bounded loops
//! that genuinely need no poll carry `// analyze::allow(cancel):
//! <reason>` on the loop header line or the first body line (both are
//! honored; the diagnostic anchors on the loop header).

use crate::cfg::{self, Cfg, EXIT};
use crate::config::AnalyzeConfig;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use crate::workspace::Workspace;

use super::{code_indices, is_test_path, text_at, unmatched_entry};

/// Poll vocabulary: method/function names that observe cancellation.
const POLLS: &[&str] = &[
    "is_cancelled",
    "stop_requested",
    "cancelled",
    "cancel_requested",
    "should_stop",
    "solve_budgeted",
];

/// Runs the cancel-poll pass.
#[must_use]
pub fn run(ws: &Workspace, config: &AnalyzeConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // Bare names of every entry: a recursive call to an entry function
    // counts as a poll (the callee polls at its own entry).
    let entry_bare: Vec<&str> = config
        .cancel
        .iter()
        .map(|f| f.symbol.rsplit("::").next().unwrap_or(&f.symbol))
        .collect();
    for entry in &config.cancel {
        let mut found = false;
        for file in &ws.files {
            if file.crate_name != entry.crate_name || is_test_path(&file.path) {
                continue;
            }
            // Cheap pre-filter before building CFGs for the file.
            let bare = entry.symbol.rsplit("::").next().unwrap_or(&entry.symbol);
            if !file.text.contains(bare) {
                continue;
            }
            let code = code_indices(file);
            for fn_cfg in cfg::build_all(file, &code) {
                if fn_cfg.symbol != entry.symbol || cfg_in_test(file, &code, &fn_cfg) {
                    continue;
                }
                found = true;
                check_fn(file, &code, &fn_cfg, &entry_bare, &mut diags);
            }
        }
        if !found {
            diags.push(unmatched_entry("cancel-poll", "cancel-poll", entry));
        }
    }
    diags
}

/// Does the CFG belong to a `#[cfg(test)]` / `#[test]` context?
fn cfg_in_test(file: &SourceFile, code: &[usize], fn_cfg: &Cfg) -> bool {
    fn_cfg
        .blocks
        .iter()
        .find_map(|b| b.tokens.first())
        .is_some_and(|&k| file.ctx[code[k]].in_test)
}

/// Checks every loop of one function CFG for unpolled iteration cycles.
fn check_fn(
    file: &SourceFile,
    code: &[usize],
    fn_cfg: &Cfg,
    entry_bare: &[&str],
    diags: &mut Vec<Diagnostic>,
) {
    // Which blocks contain a poll-shaped call (computed once per fn).
    let polls: Vec<bool> = fn_cfg
        .blocks
        .iter()
        .map(|b| b.tokens.iter().any(|&k| is_poll(file, code, k, entry_bare)))
        .collect();
    for l in &fn_cfg.loops {
        if let Some(path) = unpolled_cycle(fn_cfg, l, &polls) {
            // Consult the allow only once a violation exists, so an
            // annotation on a fully-polled loop stays unused and the
            // two-way ratchet reports it as stale.
            if file.allowed("cancel", l.line).is_some()
                || file.allowed("cancel", l.body_line).is_some()
            {
                continue;
            }
            diags.push(Diagnostic {
                pass: "cancel-poll".into(),
                path: file.path.clone(),
                line: l.line,
                symbol: fn_cfg.symbol.clone(),
                message: format!(
                    "loop at line {} in solver entry has a path that completes an iteration \
                     without a cancellation poll [path: {}] — poll \
                     `Budget::check`/`CancelToken::is_cancelled` on every iterating path, or \
                     justify with `// analyze::allow(cancel): …`",
                    l.line,
                    render_path(fn_cfg, &path),
                ),
            });
        }
    }
}

/// Searches for a cycle head → … → head inside the loop body that
/// crosses no poll block. Returns the block path (head first, the block
/// taking the back/continue edge last) if one exists.
fn unpolled_cycle(fn_cfg: &Cfg, l: &cfg::LoopInfo, polls: &[bool]) -> Option<Vec<usize>> {
    let body = fn_cfg.loop_body(l);
    let in_body = |b: usize| body.contains(&b);
    // BFS of "reached from the head without crossing a poll".
    let mut parent: Vec<Option<usize>> = vec![None; fn_cfg.blocks.len()];
    let mut visited = vec![false; fn_cfg.blocks.len()];
    let mut queue = std::collections::VecDeque::new();
    visited[l.head] = true;
    if polls[l.head] {
        // `while !token.is_cancelled()`-style header polls every
        // iteration; no unpolled cycle can exist.
        return None;
    }
    queue.push_back(l.head);
    while let Some(b) = queue.pop_front() {
        for &(s, _) in &fn_cfg.blocks[b].succs {
            if s == l.head {
                // Completed an iteration without passing a poll.
                let mut path = vec![b];
                let mut cur = b;
                while let Some(p) = parent[cur] {
                    path.push(p);
                    cur = p;
                }
                path.push(l.head); // BFS root (parent chain ends there)
                path.dedup();
                path.reverse();
                return Some(path);
            }
            if s != EXIT && in_body(s) && !visited[s] && !polls[s] {
                visited[s] = true;
                parent[s] = Some(b);
                queue.push_back(s);
            }
        }
    }
    None
}

/// Renders a block path as `line → line → … → back to line`.
fn render_path(fn_cfg: &Cfg, path: &[usize]) -> String {
    let mut lines: Vec<u32> = Vec::new();
    for &b in path {
        let line = fn_cfg.blocks[b].line;
        if line != 0 && lines.last() != Some(&line) {
            lines.push(line);
        }
    }
    let head_line = lines.first().copied().unwrap_or(0);
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        if i > 0 {
            out.push_str(" → ");
        }
        out.push_str(&format!("L{line}"));
    }
    out.push_str(&format!(" → back to L{head_line}"));
    out
}

/// Is the code token at view position `k` a poll-shaped call?
fn is_poll(file: &SourceFile, code: &[usize], k: usize, entry_bare: &[&str]) -> bool {
    let Some(&i) = code.get(k) else { return false };
    let tok = &file.tokens[i];
    if tok.kind != TokenKind::Ident || text_at(file, code, k + 1) != "(" {
        return false;
    }
    let text = file.text_of(tok);
    if POLLS.contains(&text) || entry_bare.contains(&text) {
        return true;
    }
    // `.check(…)` — the `Budget` poll; require the receiver dot so a
    // free `check(…)` helper does not count.
    text == "check" && k > 0 && text_at(file, code, k - 1) == "."
}
