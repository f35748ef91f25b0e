//! Workspace call graph: edges between [`crate::symbols::FnDef`]s,
//! reachability with recorded call chains, and resolution statistics.
//!
//! The graph is built once per analyzer run and shared by the
//! interprocedural passes: transitive hot-path discipline walks the
//! callee closure of the seeds in `analyze-hot-paths.toml`, and the
//! concurrency pass uses the same closure to decide which functions'
//! lock regions are hot. The resolution *rate* — the share of call
//! sites classified `Resolved` or `External` rather than `Ambiguous` or
//! `Unknown` — is ratcheted in CI via `[callgraph]
//! min-resolution-percent`, so refactors cannot silently decay the
//! graph into guesswork.

use std::collections::{HashMap, VecDeque};

use crate::symbols::{self, CallSite, Imports, Resolution, SymbolTable};
use crate::workspace::Workspace;

/// One call edge.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Caller definition id.
    pub caller: usize,
    /// Callee definition id.
    pub callee: usize,
    /// File of the call site.
    pub path: String,
    /// Line of the call site.
    pub line: u32,
    /// True when the site resolved to several candidates and this edge
    /// is one of the conservative fan-out.
    pub ambiguous: bool,
}

/// Aggregate call-site statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct GraphStats {
    /// Total call sites scanned.
    pub total_sites: usize,
    /// Sites with a unique workspace target.
    pub resolved: usize,
    /// Sites with provably no workspace target.
    pub external: usize,
    /// Calls to closures or nested fns bound in the same file — exact
    /// targets with no graph node.
    pub local_closures: usize,
    /// Sites with several candidates (conservative edges).
    pub ambiguous: usize,
    /// Closure/fn-pointer calls with no lexical target.
    pub unknown: usize,
}

impl GraphStats {
    /// Share of call sites whose targets are precisely known, in
    /// percent. `Resolved`, `External` and `LocalClosure` count;
    /// `Ambiguous` and `Unknown` count against.
    #[must_use]
    pub fn resolution_rate(&self) -> f64 {
        if self.total_sites == 0 {
            return 100.0;
        }
        // Plain percentage arithmetic on counters.
        100.0 * (self.resolved + self.external + self.local_closures) as f64
            / self.total_sites as f64
    }
}

/// The built graph.
pub struct CallGraph {
    /// The symbol table the graph indexes into.
    pub table: SymbolTable,
    /// All edges, in file order.
    pub edges: Vec<Edge>,
    /// Statistics over every scanned site.
    pub stats: GraphStats,
    out: HashMap<usize, Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph for the whole workspace (test files excluded).
    #[must_use]
    pub fn build(ws: &Workspace) -> Self {
        let table = SymbolTable::build(ws);
        let mut edges: Vec<Edge> = Vec::new();
        let mut stats = GraphStats::default();
        let mut out: HashMap<usize, Vec<usize>> = HashMap::new();
        for file in &ws.files {
            if crate::passes::is_test_path(&file.path) {
                continue;
            }
            let imports: Imports = symbols::parse_imports(file, &table);
            for site in symbols::scan_calls(file, &table, &imports) {
                stats.total_sites += 1;
                let (targets, ambiguous) = match &site.resolution {
                    Resolution::Resolved(ids) => {
                        stats.resolved += 1;
                        (ids.clone(), false)
                    }
                    Resolution::External(_) => {
                        stats.external += 1;
                        (Vec::new(), false)
                    }
                    Resolution::LocalClosure => {
                        stats.local_closures += 1;
                        (Vec::new(), false)
                    }
                    Resolution::Ambiguous(ids) => {
                        stats.ambiguous += 1;
                        (ids.clone(), true)
                    }
                    Resolution::Unknown => {
                        stats.unknown += 1;
                        (Vec::new(), false)
                    }
                };
                if targets.is_empty() {
                    continue;
                }
                let Some(caller) = caller_id(&table, &site) else {
                    continue;
                };
                for callee in targets {
                    let idx = edges.len();
                    edges.push(Edge {
                        caller,
                        callee,
                        path: site.path.clone(),
                        line: site.line,
                        ambiguous,
                    });
                    out.entry(caller).or_default().push(idx);
                }
            }
        }
        CallGraph {
            table,
            edges,
            stats,
            out,
        }
    }

    /// Definition ids matching a `(crate, symbol)` seed.
    #[must_use]
    pub fn seed_ids(&self, crate_name: &str, symbol: &str) -> Vec<usize> {
        self.table.lookup(crate_name, symbol).to_vec()
    }

    /// BFS over callee edges from `seeds`. Returns reached-def →
    /// parent-def; a seed is its own parent. The parent chain is the
    /// shortest call chain from some seed, used verbatim in
    /// diagnostics.
    #[must_use]
    pub fn closure(&self, seeds: &[usize]) -> HashMap<usize, usize> {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &s in seeds {
            if parent.insert(s, s).is_none() {
                queue.push_back(s);
            }
        }
        while let Some(cur) = queue.pop_front() {
            if let Some(edge_ids) = self.out.get(&cur) {
                for &e in edge_ids {
                    let callee = self.edges[e].callee;
                    if let std::collections::hash_map::Entry::Vacant(v) = parent.entry(callee) {
                        v.insert(cur);
                        queue.push_back(callee);
                    }
                }
            }
        }
        parent
    }

    /// Renders the call chain from a seed to `target` as
    /// `crate::Seed::fn → mid → target`. Crate prefixes appear on the
    /// seed and on any hop that changes crate.
    #[must_use]
    pub fn chain(&self, parents: &HashMap<usize, usize>, target: usize) -> String {
        let mut ids = vec![target];
        let mut cur = target;
        while let Some(&p) = parents.get(&cur) {
            if p == cur {
                break;
            }
            ids.push(p);
            cur = p;
            if ids.len() > 64 {
                break; // defensive: parents always terminate at a seed
            }
        }
        ids.reverse();
        let mut parts: Vec<String> = Vec::new();
        let mut prev_crate = "";
        for id in ids {
            let def = &self.table.defs[id];
            if def.crate_name == prev_crate {
                parts.push(def.symbol.clone());
            } else {
                parts.push(format!("{}::{}", def.crate_name, def.symbol));
                prev_crate = &def.crate_name;
            }
        }
        parts.join(" → ")
    }
}

/// The defining id of the function containing a call site, preferring a
/// definition in the same file when the symbol is multiply defined.
fn caller_id(table: &SymbolTable, site: &CallSite) -> Option<usize> {
    let ids = table.lookup(&site.caller_crate, &site.caller_symbol);
    ids.iter()
        .find(|&&id| table.defs[id].path == site.path)
        .or_else(|| ids.first())
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;
    use crate::source::SourceFile;
    use crate::workspace::CrateInfo;
    use std::path::PathBuf;

    fn ws_two_deep() -> Workspace {
        Workspace {
            root: PathBuf::from("."),
            crates: vec![CrateInfo {
                name: "hqs-sat".into(),
                dir: "crates/sat".into(),
                manifest: Manifest {
                    name: "hqs-sat".into(),
                    deps: vec![],
                    dev_deps: vec![],
                },
            }],
            files: vec![SourceFile::analyze(
                "crates/sat/src/lib.rs".into(),
                "hqs-sat".into(),
                "pub struct Solver;\n\
                 impl Solver {\n\
                     pub fn propagate(&mut self) { self.helper_one(); }\n\
                     fn helper_one(&self) { helper_two(); }\n\
                 }\n\
                 fn helper_two() {}\n\
                 fn unrelated() {}\n"
                    .into(),
            )],
        }
    }

    #[test]
    fn closure_reaches_two_deep_with_chain() {
        let graph = CallGraph::build(&ws_two_deep());
        let seeds = graph.seed_ids("hqs-sat", "Solver::propagate");
        assert_eq!(seeds.len(), 1);
        let reach = graph.closure(&seeds);
        let two = graph.seed_ids("hqs-sat", "helper_two")[0];
        assert!(reach.contains_key(&two));
        let unrelated = graph.seed_ids("hqs-sat", "unrelated")[0];
        assert!(!reach.contains_key(&unrelated));
        let chain = graph.chain(&reach, two);
        assert_eq!(
            chain,
            "hqs-sat::Solver::propagate → Solver::helper_one → helper_two"
        );
    }

    #[test]
    fn stats_count_and_rate() {
        let graph = CallGraph::build(&ws_two_deep());
        assert_eq!(graph.stats.total_sites, 2);
        assert_eq!(graph.stats.resolved, 2);
        // Exact float comparison of a computed constant.
        assert!((graph.stats.resolution_rate() - 100.0).abs() < 1e-9);
    }
}
