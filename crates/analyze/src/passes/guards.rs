//! Shared guard-liveness machinery: which `MutexGuard` bindings are
//! live at which program points of a function.
//!
//! Both consumers sit on top of the same analysis:
//!
//! * `concurrency-lock` flags allocations and solver calls at tokens
//!   where a guard is live;
//! * `lock-order` records which lock classes are acquired while which
//!   guards are live, intra-function, and exposes per-line liveness so
//!   the pass can compose holds across call-graph edges.
//!
//! A *binding* is a `let [mut] name = <lock-fn>(…)[.unwrap()…];`
//! statement — the guard is live from the end of that statement. A
//! lock call that is not bound (`lock(&queue).pop_front()`) is a
//! *temporary*: the guard drops at the end of its own statement and
//! generates no liveness, but it is still an acquisition event for
//! lock-order purposes.
//!
//! Liveness is a forward may-analysis over the function CFG
//! ([`crate::dataflow`]): the binding block generates the fact,
//! `drop(name)` kills it, and leaving the binding's brace scope kills
//! it structurally (each block records its scope depth, so a fact whose
//! binding scope is deeper than the block it flows into is dead on
//! arrival — this is what makes loop back-edges and early returns come
//! out right without special cases).

use std::collections::HashMap;

use crate::cfg::Cfg;
use crate::dataflow::{self, BitSet, Direction, GenKill, Meet};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

use super::text_at;

/// Functions returning a guard the liveness analysis tracks.
pub(crate) const LOCK_FNS: &[&str] = &["lock", "lock_result"];

/// A guard-producing `let` binding.
#[derive(Clone, Debug)]
pub(crate) struct GuardBinding {
    /// The bound variable name (`guard` in `let guard = …`).
    pub name: String,
    /// Lock class the binding acquires (see [`lock_class`]).
    pub class: String,
    /// Line of the lock call.
    pub line: u32,
    /// Scope depth owning the binding; leaving it drops the guard.
    pub scope: u32,
    /// View position of the statement's terminating `;`.
    pub stmt_end: usize,
}

/// Any lock acquisition site (bound or temporary).
#[derive(Clone, Debug)]
pub(crate) struct Acquisition {
    /// Lock class acquired (see [`lock_class`]).
    pub class: String,
    /// Line of the lock call.
    pub line: u32,
    /// View position of the lock-fn identifier.
    pub pos: usize,
}

/// The per-function liveness result.
pub(crate) struct FnLocks {
    /// All guard bindings, in source order (fact index = vec index).
    pub bindings: Vec<GuardBinding>,
    /// All acquisition sites, in source order.
    pub acquisitions: Vec<Acquisition>,
    /// Per block: binding indices live on entry, scope-filtered.
    pub live_in: Vec<Vec<usize>>,
}

/// Runs guard liveness over one function CFG.
pub(crate) fn analyze_fn(file: &SourceFile, code: &[usize], fn_cfg: &Cfg) -> FnLocks {
    // Map view position → owning block.
    let mut block_of: HashMap<usize, usize> = HashMap::new();
    for (b, blk) in fn_cfg.blocks.iter().enumerate() {
        for &k in &blk.tokens {
            block_of.insert(k, b);
        }
    }

    let mut bindings: Vec<GuardBinding> = Vec::new();
    let mut acquisitions: Vec<Acquisition> = Vec::new();
    for (b, blk) in fn_cfg.blocks.iter().enumerate() {
        for &k in &blk.tokens {
            let Some(&i) = code.get(k) else { continue };
            let tok = &file.tokens[i];
            if tok.kind != TokenKind::Ident
                || !LOCK_FNS.contains(&file.text_of(tok))
                || text_at(file, code, k + 1) != "("
            {
                continue;
            }
            let class = lock_class(file, code, k);
            acquisitions.push(Acquisition {
                class: class.clone(),
                line: tok.line,
                pos: k,
            });
            if let Some((name, stmt_end)) = held_guard(file, code, k) {
                // The guard is live from the end of the binding
                // statement; a `?` in the chain may have split the
                // statement across blocks, so anchor on the `;`.
                let bind_block = block_of.get(&stmt_end).copied().unwrap_or(b);
                bindings.push(GuardBinding {
                    name,
                    class,
                    line: tok.line,
                    scope: fn_cfg.blocks[bind_block].scope,
                    stmt_end,
                });
            }
        }
    }

    if bindings.is_empty() {
        return FnLocks {
            bindings,
            acquisitions,
            live_in: vec![Vec::new(); fn_cfg.blocks.len()],
        };
    }

    // Gen/kill per block: gen = facts live at block end starting from
    // nothing; kill = facts dropped by name in the block, plus facts
    // whose binding scope is deeper than the block (structural drop).
    let n = fn_cfg.blocks.len();
    let facts = bindings.len();
    let mut gk = GenKill::new(n, facts);
    for b in 0..n {
        let mut live = vec![false; facts];
        sim_block(file, code, fn_cfg, &bindings, b, &mut live, |_, _| {});
        for (f, &l) in live.iter().enumerate() {
            if l {
                gk.gen[b].insert(f);
            }
        }
        for (f, binding) in bindings.iter().enumerate() {
            let dropped = fn_cfg.blocks[b]
                .tokens
                .iter()
                .any(|&k| is_drop_of(file, code, k, &binding.name));
            if dropped || binding.scope > fn_cfg.blocks[b].scope {
                gk.kill[b].insert(f);
            }
        }
    }
    let sol = dataflow::solve(
        fn_cfg,
        &gk,
        Direction::Forward,
        Meet::Union,
        &BitSet::empty(facts),
    );
    let live_in: Vec<Vec<usize>> = (0..n)
        .map(|b| {
            sol.in_[b]
                .iter()
                .filter(|&f| bindings[f].scope <= fn_cfg.blocks[b].scope)
                .collect()
        })
        .collect();
    FnLocks {
        bindings,
        acquisitions,
        live_in,
    }
}

impl FnLocks {
    /// Walks block `b` from its in-state, calling `on_tok(view_pos,
    /// live_binding_indices)` for every token with the liveness *at*
    /// that token (binding's own fact activates after its statement).
    pub(crate) fn walk_block(
        &self,
        file: &SourceFile,
        code: &[usize],
        fn_cfg: &Cfg,
        b: usize,
        mut on_tok: impl FnMut(usize, &[usize]),
    ) {
        let mut live = vec![false; self.bindings.len()];
        for &f in &self.live_in[b] {
            live[f] = true;
        }
        sim_block(file, code, fn_cfg, &self.bindings, b, &mut live, |k, l| {
            let idxs: Vec<usize> = (0..l.len()).filter(|&f| l[f]).collect();
            on_tok(k, &idxs);
        });
    }

    /// Liveness by line: line → binding indices live at some token on
    /// that line. Used to compose holds across call-graph edges, whose
    /// sites are (path, line) pairs.
    pub(crate) fn live_by_line(
        &self,
        file: &SourceFile,
        code: &[usize],
        fn_cfg: &Cfg,
    ) -> HashMap<u32, Vec<usize>> {
        let mut map: HashMap<u32, Vec<usize>> = HashMap::new();
        for b in 0..fn_cfg.blocks.len() {
            self.walk_block(file, code, fn_cfg, b, |k, live| {
                if live.is_empty() {
                    return;
                }
                let line = file.tokens[code[k]].line;
                let entry = map.entry(line).or_default();
                for &f in live {
                    if !entry.contains(&f) {
                        entry.push(f);
                    }
                }
            });
        }
        map
    }
}

/// One pass over a block's tokens updating `live` in place:
/// `on_tok` observes the liveness in effect *at* each token, then
/// `drop(name)` kills and a binding's `;` gens.
fn sim_block(
    file: &SourceFile,
    code: &[usize],
    fn_cfg: &Cfg,
    bindings: &[GuardBinding],
    b: usize,
    live: &mut [bool],
    mut on_tok: impl FnMut(usize, &[bool]),
) {
    for &k in &fn_cfg.blocks[b].tokens {
        on_tok(k, live);
        if text_at(file, code, k) == "drop" && text_at(file, code, k + 1) == "(" {
            let name = text_at(file, code, k + 2);
            if text_at(file, code, k + 3) == ")" {
                for (f, binding) in bindings.iter().enumerate() {
                    if binding.name == name {
                        live[f] = false;
                    }
                }
            }
        }
        for (f, binding) in bindings.iter().enumerate() {
            if binding.stmt_end == k {
                live[f] = true;
            }
        }
    }
}

/// Is the token at view position `k` the `drop` of `drop(name)`?
fn is_drop_of(file: &SourceFile, code: &[usize], k: usize, name: &str) -> bool {
    text_at(file, code, k) == "drop"
        && text_at(file, code, k + 1) == "("
        && text_at(file, code, k + 2) == name
        && text_at(file, code, k + 3) == ")"
}

/// The lock class of the lock call at view position `k`: the helper's
/// target for the engine's result-slot helper (`lock_result` →
/// `result`), the receiver identifier for a raw
/// `.lock()` (`self.slots[i].lock()` → `slots`, `spans.lock()` →
/// `spans`), `anon` when no receiver name is recoverable. Classes are
/// crate-qualified by the lock-order pass, so equal names in different
/// crates never alias.
pub(crate) fn lock_class(file: &SourceFile, code: &[usize], k: usize) -> String {
    match text_at(file, code, k) {
        "lock_result" => "result".to_string(),
        _ => {
            // `recv . lock (` — walk back over `.`-chains, `[idx]` and
            // `(args)` to the nearest plain identifier.
            if k == 0 || text_at(file, code, k - 1) != "." {
                return "anon".to_string();
            }
            let mut j = k - 1; // at the `.`
            loop {
                if j == 0 {
                    return "anon".to_string();
                }
                j -= 1;
                match text_at(file, code, j) {
                    "]" | ")" => {
                        // Skip the bracketed group.
                        let open = if text_at(file, code, j) == "]" {
                            "["
                        } else {
                            "("
                        };
                        let close = text_at(file, code, j);
                        let mut depth = 0i32;
                        loop {
                            let t = text_at(file, code, j);
                            if t == close {
                                depth += 1;
                            } else if t == open {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            if j == 0 {
                                return "anon".to_string();
                            }
                            j -= 1;
                        }
                    }
                    "." => {}
                    _ => break,
                }
            }
            let i = code.get(j).copied();
            let name = i
                .map(|i| &file.tokens[i])
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| file.text_of(t))
                .unwrap_or("anon");
            if name == "self" {
                // `self.lock()` — the receiver is the type itself; use
                // the field-less marker so distinct `self` locks in one
                // crate at least share a class.
                "self".to_string()
            } else {
                name.to_string()
            }
        }
    }
}

/// If the lock call at view position `k` binds a guard that outlives
/// its statement, returns the guard name and the view position of the
/// statement's `;`. Temporaries (`lock(&queue).pop_front()`) return
/// `None`.
pub(crate) fn held_guard(file: &SourceFile, code: &[usize], k: usize) -> Option<(String, usize)> {
    // Forward: match the call's parens, then skip transparent
    // `.unwrap()`/`.expect(…)` chains and a `?`; a held binding ends
    // with `;`.
    let mut j = k + 1; // at `(`
    let mut depth = 0i32;
    loop {
        match text_at(file, code, j) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "" => return None,
            _ => {}
        }
        j += 1;
    }
    let mut j = j + 1;
    loop {
        if text_at(file, code, j) == "?" {
            j += 1;
            continue;
        }
        if text_at(file, code, j) == "."
            && matches!(
                text_at(file, code, j + 1),
                "unwrap" | "expect" | "unwrap_or_else"
            )
        {
            // Skip `.name(…)`.
            let mut p = j + 2;
            if text_at(file, code, p) != "(" {
                break;
            }
            let mut d = 0i32;
            loop {
                match text_at(file, code, p) {
                    "(" => d += 1,
                    ")" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    "" => return None,
                    _ => {}
                }
                p += 1;
            }
            j = p + 1;
            continue;
        }
        break;
    }
    if text_at(file, code, j) != ";" {
        return None;
    }
    let stmt_end = j;
    // Backward: the statement must be a `let` binding; capture the name.
    let mut b = k;
    while b > 0 {
        b -= 1;
        match text_at(file, code, b) {
            ";" | "{" | "}" => return None,
            "let" => {
                let mut n = b + 1;
                if text_at(file, code, n) == "mut" {
                    n += 1;
                }
                let name = text_at(file, code, n).to_string();
                return Some((name, stmt_end));
            }
            _ => {}
        }
    }
    None
}
