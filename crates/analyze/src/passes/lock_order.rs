//! Lock-order discipline (`lock-order`): the workspace's locks must
//! form an acyclic acquisition order.
//!
//! For every production function the pass runs the guard-liveness
//! dataflow from `super::guards` and records each lock acquisition
//! that happens **while another guard is live** — an intra-function
//! `held → acquired` edge. Holds also compose across the call graph: a
//! call made while a guard is live contributes `held → c` for every
//! lock class `c` the callee (transitively) acquires. The union over
//! the workspace is the **lock-order graph**; a cycle in it is a
//! potential deadlock (two threads taking the same pair of locks in
//! opposite orders), and the pass fails with one diagnostic per cycle,
//! rendering every acquisition chain with file:line evidence.
//!
//! Lock *classes* are crate-qualified receiver names
//! (`hqs-engine/result`, `hqs-obs/spans`) — see
//! `super::guards::lock_class`. Class granularity is coarser than
//! lock *instances*: two different result slots share the class
//! `result`, so a `result → result` self-loop is reported too — which
//! is exactly the hazard of worker A holding one slot and locking B's
//! while B does the reverse. Deliberate same-class nesting must be justified
//! at the acquisition site with `// analyze::allow(lock): <reason>`,
//! which suppresses the edge.
//!
//! The graph itself is part of the analysis result: `xtask analyze
//! --lock-graph` dumps it as JSON and `--lock-dot` as Graphviz, and CI
//! uploads both, so the committed invariant is not just "no cycles" but
//! a reviewable artifact of which orders exist at all.

use std::collections::{HashMap, HashSet};

use crate::callgraph::CallGraph;
use crate::cfg;
use crate::diag::Diagnostic;
use crate::json::Json;
use crate::workspace::Workspace;

use super::{code_indices, guards, is_test_path};

/// One directed edge of the lock-order graph.
#[derive(Clone, Debug)]
pub struct LockEdge {
    /// Class held when the acquisition happened.
    pub from: String,
    /// Class acquired while `from` was held.
    pub to: String,
    /// Human-readable acquisition chains, each with file:line evidence.
    pub evidence: Vec<String>,
}

/// The workspace lock-order graph.
#[derive(Clone, Debug, Default)]
pub struct LockGraph {
    /// All lock classes seen anywhere (acquired at all, held or not).
    pub nodes: Vec<String>,
    /// Held → acquired edges, deduplicated, evidence merged.
    pub edges: Vec<LockEdge>,
}

/// Runs the lock-order pass: builds the graph and reports cycles.
#[must_use]
pub fn run(ws: &Workspace, graph: &CallGraph) -> (LockGraph, Vec<Diagnostic>) {
    let lg = build(ws, graph);
    let diags = cycle_diagnostics(&lg);
    (lg, diags)
}

/// Builds the workspace lock-order graph.
#[must_use]
pub fn build(ws: &Workspace, graph: &CallGraph) -> LockGraph {
    let mut nodes: Vec<String> = Vec::new();
    let mut edge_map: HashMap<(String, String), Vec<String>> = HashMap::new();
    let add_node = |nodes: &mut Vec<String>, c: &str| {
        if !nodes.iter().any(|n| n == c) {
            nodes.push(c.to_string());
        }
    };

    // Per-def direct acquisitions, and per-(path, symbol) held-liveness
    // by line for the call-composition step.
    let mut direct: HashMap<usize, HashSet<String>> = HashMap::new();
    struct HeldSite {
        class: String,
        guard: String,
        bind_line: u32,
    }
    // (caller path, caller symbol, call line) → held guards there.
    let mut held_at: HashMap<(String, String, u32), Vec<HeldSite>> = HashMap::new();

    // Def ids by (crate, symbol) — a symbol may legitimately map to
    // several defs (same name in sibling modules).
    let mut ids_of: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
    for (id, d) in graph.table.defs.iter().enumerate() {
        ids_of
            .entry((d.crate_name.as_str(), d.symbol.as_str()))
            .or_default()
            .push(id);
    }

    for file in &ws.files {
        if is_test_path(&file.path) {
            continue;
        }
        if !guards::LOCK_FNS.iter().any(|f| file.text.contains(f)) {
            continue;
        }
        let code = code_indices(file);
        for fn_cfg in cfg::build_all(file, &code) {
            if fn_cfg
                .blocks
                .iter()
                .find_map(|b| b.tokens.first())
                .is_some_and(|&k| file.ctx[code[k]].in_test)
            {
                continue;
            }
            let locks = guards::analyze_fn(file, &code, &fn_cfg);
            if locks.acquisitions.is_empty() {
                continue;
            }
            let qualify = |c: &str| format!("{}/{}", file.crate_name, c);
            for a in &locks.acquisitions {
                add_node(&mut nodes, &qualify(&a.class));
            }
            // Direct acquisition sets feed the transitive closure.
            for &id in ids_of
                .get(&(file.crate_name.as_str(), fn_cfg.symbol.as_str()))
                .map_or(&[][..], |v| &v[..])
            {
                let entry = direct.entry(id).or_default();
                for a in &locks.acquisitions {
                    entry.insert(qualify(&a.class));
                }
            }
            if locks.bindings.is_empty() {
                continue;
            }
            // Intra-function edges: an acquisition while a guard is
            // live. The acquiring binding's own fact only activates
            // after its statement, so a binding never edges to itself.
            for b in 0..fn_cfg.blocks.len() {
                locks.walk_block(file, &code, &fn_cfg, b, |k, live| {
                    if live.is_empty() {
                        return;
                    }
                    let Some(a) = locks.acquisitions.iter().find(|a| a.pos == k) else {
                        return;
                    };
                    if file.allowed("lock", a.line).is_some() {
                        return;
                    }
                    for &f in live {
                        let held = &locks.bindings[f];
                        edge_map
                            .entry((qualify(&held.class), qualify(&a.class)))
                            .or_default()
                            .push(format!(
                                "`{}` held via `{}` ({}:{}) → acquires `{}` at {}:{} in {}",
                                qualify(&held.class),
                                held.name,
                                file.path,
                                held.line,
                                qualify(&a.class),
                                file.path,
                                a.line,
                                fn_cfg.symbol,
                            ));
                    }
                });
            }
            // Calls made while a guard is live: composed below once the
            // transitive acquisition sets are known. The allow check
            // happens at composition time — only a line that actually
            // hosts a call edge to a lock-acquiring callee is a
            // suppression point.
            let by_line = locks.live_by_line(file, &code, &fn_cfg);
            for (line, live) in by_line {
                let sites: Vec<HeldSite> = live
                    .iter()
                    .map(|&f| {
                        let held = &locks.bindings[f];
                        HeldSite {
                            class: qualify(&held.class),
                            guard: held.name.clone(),
                            bind_line: held.line,
                        }
                    })
                    .collect();
                held_at.insert((file.path.clone(), fn_cfg.symbol.clone(), line), sites);
            }
        }
    }

    // Transitive acquisition sets over the call graph:
    // trans(f) = direct(f) ∪ ⋃ trans(callee).
    let n = graph.table.defs.len();
    let mut trans: Vec<HashSet<String>> = (0..n)
        .map(|id| direct.get(&id).cloned().unwrap_or_default())
        .collect();
    loop {
        let mut changed = false;
        for e in &graph.edges {
            if e.caller == e.callee {
                continue;
            }
            let add: Vec<String> = trans[e.callee]
                .iter()
                .filter(|c| !trans[e.caller].contains(*c))
                .cloned()
                .collect();
            if !add.is_empty() {
                trans[e.caller].extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Composed edges: a call under a held guard inherits everything the
    // callee transitively acquires.
    let file_of: HashMap<&str, &crate::source::SourceFile> =
        ws.files.iter().map(|f| (f.path.as_str(), f)).collect();
    for e in &graph.edges {
        let caller = &graph.table.defs[e.caller];
        let key = (caller.path.clone(), caller.symbol.clone(), e.line);
        let Some(sites) = held_at.get(&key) else {
            continue;
        };
        if trans[e.callee].is_empty() {
            continue;
        }
        if file_of
            .get(caller.path.as_str())
            .is_some_and(|f| f.allowed("lock", e.line).is_some())
        {
            continue;
        }
        let callee = &graph.table.defs[e.callee];
        for site in sites {
            for acquired in &trans[e.callee] {
                add_node(&mut nodes, acquired);
                add_node(&mut nodes, &site.class);
                edge_map
                    .entry((site.class.clone(), acquired.clone()))
                    .or_default()
                    .push(format!(
                        "`{}` held via `{}` ({}:{}) → {} calls {} at {}:{}, which acquires `{}`",
                        site.class,
                        site.guard,
                        caller.path,
                        site.bind_line,
                        caller.symbol,
                        callee.symbol,
                        e.path,
                        e.line,
                        acquired,
                    ));
            }
        }
    }

    let mut edges: Vec<LockEdge> = edge_map
        .into_iter()
        .map(|((from, to), mut evidence)| {
            evidence.sort();
            evidence.dedup();
            LockEdge { from, to, evidence }
        })
        .collect();
    edges.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
    nodes.sort();
    LockGraph { nodes, edges }
}

impl LockGraph {
    /// Strongly connected components with ≥ 2 nodes, plus self-loops —
    /// i.e. every cycle witness, one entry per component.
    #[must_use]
    pub fn cycles(&self) -> Vec<Vec<String>> {
        let idx: HashMap<&str, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let n = self.nodes.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            if let (Some(&f), Some(&t)) = (idx.get(e.from.as_str()), idx.get(e.to.as_str())) {
                adj[f].push(t);
            }
        }
        let sccs = kosaraju(n, &adj);
        let mut out = Vec::new();
        for scc in sccs {
            let is_cycle = scc.len() > 1 || (scc.len() == 1 && adj[scc[0]].contains(&scc[0]));
            if is_cycle {
                let mut names: Vec<String> = scc.iter().map(|&i| self.nodes[i].clone()).collect();
                names.sort();
                out.push(names);
            }
        }
        out.sort();
        out
    }

    /// JSON dump (schema `hqs-analyze-lockgraph/1`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            (
                "schema".into(),
                Json::String("hqs-analyze-lockgraph/1".into()),
            ),
            (
                "nodes".into(),
                Json::Array(self.nodes.iter().map(|n| Json::String(n.clone())).collect()),
            ),
            (
                "edges".into(),
                Json::Array(
                    self.edges
                        .iter()
                        .map(|e| {
                            Json::Object(vec![
                                ("from".into(), Json::String(e.from.clone())),
                                ("to".into(), Json::String(e.to.clone())),
                                (
                                    "evidence".into(),
                                    Json::Array(
                                        e.evidence
                                            .iter()
                                            .map(|s| Json::String(s.clone()))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "cycles".into(),
                Json::Array(
                    self.cycles()
                        .into_iter()
                        .map(|c| Json::Array(c.into_iter().map(Json::String).collect()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Graphviz rendering: one node per lock class, one edge per order,
    /// cycle members drawn red.
    #[must_use]
    pub fn to_dot(&self) -> String {
        let cyclic: HashSet<String> = self.cycles().into_iter().flatten().collect();
        let mut out = String::from("digraph lock_order {\n  rankdir=LR;\n  node [shape=box];\n");
        for n in &self.nodes {
            if cyclic.contains(n) {
                out.push_str(&format!("  \"{n}\" [color=red, fontcolor=red];\n"));
            } else {
                out.push_str(&format!("  \"{n}\";\n"));
            }
        }
        for e in &self.edges {
            let attr = if cyclic.contains(&e.from) && cyclic.contains(&e.to) {
                " [color=red]"
            } else {
                ""
            };
            out.push_str(&format!("  \"{}\" -> \"{}\"{attr};\n", e.from, e.to));
        }
        out.push_str("}\n");
        out
    }
}

/// One diagnostic per cycle, rendering every acquisition chain inside
/// the component.
fn cycle_diagnostics(lg: &LockGraph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for cycle in lg.cycles() {
        let members: HashSet<&str> = cycle.iter().map(String::as_str).collect();
        let mut chains: Vec<&str> = Vec::new();
        let mut anchor: Option<(&str, &str)> = None; // (path, first evidence)
        for e in &lg.edges {
            if members.contains(e.from.as_str()) && members.contains(e.to.as_str()) {
                for ev in &e.evidence {
                    chains.push(ev);
                    if anchor.is_none() {
                        anchor = Some((path_of(ev).unwrap_or(""), ev));
                    }
                }
            }
        }
        let rendered: Vec<String> = chains
            .iter()
            .enumerate()
            .map(|(i, c)| format!("({}) {c}", i + 1))
            .collect();
        diags.push(Diagnostic {
            pass: "lock-order".into(),
            path: anchor.map_or(String::new(), |(p, _)| p.to_string()),
            line: 0,
            symbol: cycle.join(" ⇄ "),
            message: format!(
                "lock-order cycle between {{{}}} — two threads taking these locks in opposite \
                 orders deadlock; acquisition chains: {} — break the cycle by reordering, or \
                 justify an acquisition with `// analyze::allow(lock): …`",
                cycle.join(", "),
                rendered.join("; "),
            ),
        });
    }
    diags
}

/// Extracts the `path:line` path from an evidence string (first
/// parenthesized site).
fn path_of(ev: &str) -> Option<&str> {
    let start = ev.find('(')? + 1;
    let rest = &ev[start..];
    let colon = rest.find(':')?;
    Some(&rest[..colon])
}

/// Kosaraju SCC: two DFS sweeps, iterative.
fn kosaraju(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, vs) in adj.iter().enumerate() {
        for &v in vs {
            radj[v].push(u);
        }
    }
    // First sweep: finish order.
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for s in 0..n {
        if seen[s] {
            continue;
        }
        let mut stack = vec![(s, 0usize)];
        seen[s] = true;
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            if *next < adj[u].len() {
                let v = adj[u][*next];
                *next += 1;
                if !seen[v] {
                    seen[v] = true;
                    stack.push((v, 0));
                }
            } else {
                order.push(u);
                stack.pop();
            }
        }
    }
    // Second sweep on the reverse graph in reverse finish order.
    let mut comp = vec![usize::MAX; n];
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for &s in order.iter().rev() {
        if comp[s] != usize::MAX {
            continue;
        }
        let c = sccs.len();
        let mut members = vec![s];
        comp[s] = c;
        let mut stack = vec![s];
        while let Some(u) = stack.pop() {
            for &v in &radj[u] {
                if comp[v] == usize::MAX {
                    comp[v] = c;
                    members.push(v);
                    stack.push(v);
                }
            }
        }
        sccs.push(members);
    }
    sccs
}
