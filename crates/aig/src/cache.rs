//! A cross-session FRAIG cache: canonical cone snapshots that outlive
//! any single [`Aig`] manager.
//!
//! FRAIG sweeps are the most expensive rewrites in the pipeline (each
//! merge candidate is a SAT call). A long-lived server sees the same
//! cones again and again — re-solves of the same formula, shared gate
//! structure across a family of instances — so the reduced result is
//! worth keeping after the session's `Aig` is gone.
//!
//! Both the key and the value are *canonical encodings* of a cone:
//! nodes renumbered densely in topological order, inputs identified by
//! their [`Var`] label, AND fanins by canonical index plus complement
//! bit. The encoding is independent of the arena indices of the manager
//! the cone lives in, so a snapshot taken in one session replays
//! exactly in another. Keys are the full encoding (not a hash), so a
//! lookup can never confuse two different functions — a cache hit
//! replays a cone that was *proven* equivalent when it was stored.

use crate::{Aig, AigEdge, AigNode};
use hqs_base::{ByteBudgetLru, CacheStatsSnapshot, Var};
use hqs_obs::Metric;

/// The canonical encoding of a cone, used both as cache key (the
/// pre-sweep cone) and as cache value (the reduced cone).
///
/// `nodes[i]` defines canonical node `i + 1`; canonical node 0 is the
/// constant TRUE. Edge codes are `canonical_index * 2 + complement`,
/// so code 0 is TRUE and code 1 is FALSE.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ConeSnapshot {
    nodes: Vec<SnapNode>,
    root: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum SnapNode {
    Input(Var),
    And(u32, u32),
}

impl ConeSnapshot {
    /// Approximate heap footprint, charged against the cache budget.
    fn cost_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.nodes.len() * std::mem::size_of::<SnapNode>()
    }
}

/// A byte-budgeted cache of FRAIG results, shared across sessions.
///
/// Clone an [`std::sync::Arc`]`<FraigCache>` into every session's `Aig`
/// via [`Aig::set_fraig_cache`]; [`Aig::fraig`] then consults it before
/// sweeping and stores the reduced cone afterwards.
#[derive(Debug)]
pub struct FraigCache {
    lru: ByteBudgetLru<ConeSnapshot, ConeSnapshot>,
}

impl FraigCache {
    /// Creates a cache bounded by `budget_bytes` of snapshot data.
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        FraigCache {
            lru: ByteBudgetLru::new(budget_bytes),
        }
    }

    /// Hit/miss/eviction counters and current occupancy.
    #[must_use]
    pub fn stats(&self) -> CacheStatsSnapshot {
        self.lru.stats()
    }

    /// Drops every entry (counters are retained).
    pub fn clear(&self) {
        self.lru.clear();
    }
}

impl Aig {
    /// Attaches (or detaches) a shared cross-session FRAIG cache;
    /// [`Aig::fraig`] consults it transparently.
    pub fn set_fraig_cache(&mut self, cache: Option<std::sync::Arc<FraigCache>>) {
        self.fraig_cache = cache;
    }

    /// Canonically encodes the cone of `root`: nodes densely renumbered
    /// in topological order, independent of this manager's arena
    /// indices.
    pub(crate) fn snapshot_cone(&mut self, root: AigEdge) -> ConeSnapshot {
        let walk = self.walk(root);
        // Arena index -> canonical edge code of the uncomplemented node.
        let mut canon = std::collections::HashMap::with_capacity(walk.order().len());
        let mut nodes = Vec::with_capacity(walk.order().len());
        for &idx in walk.order() {
            match self.nodes[idx as usize] {
                AigNode::True => {
                    canon.insert(idx, 0u32);
                }
                AigNode::Input(var) => {
                    nodes.push(SnapNode::Input(var));
                    canon.insert(idx, nodes.len() as u32 * 2);
                }
                AigNode::And(f0, f1) => {
                    // Indexing is safe: topo order lists fanins before fanouts.
                    let c0 = canon[&f0.node()] | u32::from(f0.is_complemented());
                    let c1 = canon[&f1.node()] | u32::from(f1.is_complemented());
                    nodes.push(SnapNode::And(c0, c1));
                    canon.insert(idx, nodes.len() as u32 * 2);
                }
            }
        }
        // Indexing is safe: the root's node is always in its own cone.
        let root_code = canon[&root.node()] | u32::from(root.is_complemented());
        ConeSnapshot {
            nodes,
            root: root_code,
        }
    }

    /// Rebuilds a snapshot inside this manager, returning the root edge.
    /// Construction goes through [`Aig::and`], so structural hashing and
    /// the simplification rules apply as usual.
    pub(crate) fn replay_snapshot(&mut self, snap: &ConeSnapshot) -> AigEdge {
        let mut edges: Vec<AigEdge> = Vec::with_capacity(snap.nodes.len() + 1);
        edges.push(AigEdge::TRUE);
        for node in &snap.nodes {
            let edge = match *node {
                SnapNode::Input(var) => self.input(var),
                SnapNode::And(c0, c1) => {
                    let a = decode(&edges, c0);
                    let b = decode(&edges, c1);
                    self.and(a, b)
                }
            };
            edges.push(edge);
        }
        decode(&edges, snap.root)
    }

    /// The cache consult in front of a sweep: `Some(edge)` replays a
    /// stored reduced cone, `None` means the caller must sweep cold
    /// (and should then call [`Aig::fraig_cache_store`]).
    pub(crate) fn fraig_cache_lookup(&mut self, key: &ConeSnapshot) -> Option<AigEdge> {
        let cache = self.fraig_cache.as_ref()?;
        match cache.lru.get(key) {
            Some(reduced) => {
                self.obs.add(Metric::FraigCacheHits, 1);
                Some(self.replay_snapshot(&reduced))
            }
            None => {
                self.obs.add(Metric::FraigCacheMisses, 1);
                None
            }
        }
    }

    /// Stores the reduced cone for `key` after a cold sweep.
    pub(crate) fn fraig_cache_store(&mut self, key: ConeSnapshot, reduced: AigEdge) {
        if self.fraig_cache.is_none() {
            return;
        }
        let value = self.snapshot_cone(reduced);
        let Some(cache) = self.fraig_cache.as_ref() else {
            return;
        };
        let cost = key.cost_bytes() + value.cost_bytes();
        let evictions_before = cache.lru.stats().evictions;
        cache.lru.insert(key, value, cost);
        let evicted = cache.lru.stats().evictions - evictions_before;
        if evicted > 0 {
            self.obs.add(Metric::CacheEvictions, evicted);
        }
    }
}

#[inline]
fn decode(edges: &[AigEdge], code: u32) -> AigEdge {
    // Indexing is safe: codes reference earlier snapshot positions.
    edges[(code / 2) as usize].xor_complement(code & 1 == 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn check_equiv(aig: &Aig, a: AigEdge, b: AigEdge, num_vars: u32) {
        for bits in 0u32..(1 << num_vars) {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            assert_eq!(aig.eval(a, val), aig.eval(b, val), "bits {bits:b}");
        }
    }

    fn build_redundant_cone(aig: &mut Aig) -> AigEdge {
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        // or(x, y) and mux(x, TRUE, y) are structurally different but equal.
        let f = aig.or(x, y);
        let g = aig.mux(x, Aig::TRUE, y);
        aig.and(f, g)
    }

    #[test]
    fn snapshot_round_trips_into_a_fresh_manager() {
        let mut a = Aig::new();
        let root = build_redundant_cone(&mut a);
        let snap = a.snapshot_cone(root);
        let mut b = Aig::new();
        let replayed = b.replay_snapshot(&snap);
        for bits in 0u32..4 {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            assert_eq!(a.eval(root, val), b.eval(replayed, val));
        }
    }

    #[test]
    fn snapshot_is_arena_independent() {
        // The same cone built after unrelated garbage must encode
        // identically — that is what makes it a cross-session key.
        let mut a = Aig::new();
        let root_a = build_redundant_cone(&mut a);
        let mut b = Aig::new();
        let z = b.input(Var::new(7));
        let w = b.input(Var::new(8));
        let _garbage = b.xor(z, w);
        let root_b = build_redundant_cone(&mut b);
        assert_eq!(a.snapshot_cone(root_a), b.snapshot_cone(root_b));
    }

    #[test]
    fn second_session_hits_the_cache_and_preserves_the_function() {
        let cache = Arc::new(FraigCache::new(1 << 20));

        let mut first = Aig::new();
        first.set_fraig_cache(Some(Arc::clone(&cache)));
        let root1 = build_redundant_cone(&mut first);
        let reduced1 = first.fraig(root1, 11, 1000);
        check_equiv(&first, root1, reduced1, 2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
        assert_eq!(s.entries, 1);

        // A brand-new manager (fresh session) on the same cone.
        let mut second = Aig::new();
        second.set_fraig_cache(Some(Arc::clone(&cache)));
        let root2 = build_redundant_cone(&mut second);
        let reduced2 = second.fraig(root2, 99, 1000);
        check_equiv(&second, root2, reduced2, 2);
        assert!(second.walk(reduced2).ands() <= 2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn constant_and_input_roots_bypass_the_cache() {
        let cache = Arc::new(FraigCache::new(1 << 20));
        let mut aig = Aig::new();
        aig.set_fraig_cache(Some(Arc::clone(&cache)));
        let x = aig.input(Var::new(0));
        assert_eq!(aig.fraig(Aig::TRUE, 0, 10), Aig::TRUE);
        assert_eq!(aig.fraig(x, 0, 10), x);
        assert_eq!(aig.fraig(!x, 0, 10), !x);
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 0);
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn tiny_budget_evicts_old_cones() {
        let cache = Arc::new(FraigCache::new(200));
        let mut aig = Aig::new();
        aig.set_fraig_cache(Some(Arc::clone(&cache)));
        // Distinct cones, each a few dozen snapshot bytes: the budget
        // cannot hold all of them.
        let mut roots = Vec::new();
        for i in 0..6u32 {
            let a = aig.input(Var::new(2 * i));
            let b = aig.input(Var::new(2 * i + 1));
            let f = aig.or(a, b);
            let g = aig.mux(a, Aig::TRUE, b);
            roots.push(aig.and(f, g));
        }
        for &r in &roots {
            let _ = aig.fraig(r, 5, 100);
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "{s:?}");
        assert!(s.bytes <= 200, "{s:?}");
    }
}
