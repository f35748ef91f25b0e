//! The AIG manager: node storage, hashing, Boolean and quantification
//! operations.

use crate::AigEdge;
use hqs_base::{Var, VarSet};
use hqs_obs::{Metric, Obs};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A node of the AIG.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AigNode {
    /// The constant-true node (always node 0).
    True,
    /// A primary input labelled with a variable.
    Input(Var),
    /// A two-input AND gate.
    And(AigEdge, AigEdge),
}

/// Multiplicative (Fx-style) hasher for the structural-hash table.
///
/// `strash` keys are pairs of edge codes the manager mints itself, so no
/// input can choose keys that collide, and SipHash's protection against
/// crafted collisions buys nothing there; its cost was most of the time
/// of [`Aig::and`]. Every other map keeps the default hasher: `inputs`
/// and the [`Aig::compose_many`] map are keyed by variables, which come
/// from the input formula.
#[derive(Clone, Copy, Default)]
pub(crate) struct EdgeHasher(u64);

impl Hasher for EdgeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.add(u64::from(word));
    }

    fn finish(&self) -> u64 {
        // The multiply mixes best into the high bits, but the table picks
        // its bucket from the low ones: rotate the high bits down.
        self.0.rotate_left(26)
    }
}

impl EdgeHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// The structural-hash table: canonical fanin pair to AND node index.
pub(crate) type Strash = HashMap<(AigEdge, AigEdge), u32, BuildHasherDefault<EdgeHasher>>;

/// One slot of the traversal memo: the images of a node under the
/// current traversal (`c0`/`c1` are its two cofactors in
/// [`Aig::cofactors`]; a substitution or a copy uses `c0` only). The slot
/// is empty unless `stamp` equals the manager's epoch.
#[derive(Clone, Copy)]
struct MemoSlot {
    stamp: u32,
    c0: AigEdge,
    c1: AigEdge,
}

impl MemoSlot {
    const EMPTY: MemoSlot = MemoSlot {
        stamp: 0,
        c0: AigEdge::TRUE,
        c1: AigEdge::TRUE,
    };
}

/// An And-Inverter-Graph manager.
///
/// Nodes are stored in a single arena; [`AigEdge`]s reference them with a
/// complement bit. Structural hashing guarantees that the same `(fanin,
/// fanin)` pair is never stored twice, and one-level simplification rules
/// catch constants, idempotence and complements.
///
/// See the [crate docs](crate) for an overview and examples.
pub struct Aig {
    pub(crate) nodes: Vec<AigNode>,
    pub(crate) strash: Strash,
    pub(crate) inputs: HashMap<Var, u32>,
    /// Traversal memo of [`Aig::compose`], [`Aig::compose_many`],
    /// [`Aig::cofactors`] and [`Aig::compact`], indexed by node. Each
    /// traversal takes a new `epoch`, which empties every slot at once.
    memo: Vec<MemoSlot>,
    epoch: u32,
    /// Cross-session FRAIG cache, consulted by [`Aig::fraig`]; attached
    /// via [`Aig::set_fraig_cache`].
    pub(crate) fraig_cache: Option<std::sync::Arc<crate::FraigCache>>,
    pub(crate) obs: Obs,
}

impl Default for Aig {
    fn default() -> Self {
        Aig::new()
    }
}

impl fmt::Debug for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Aig")
            .field("nodes", &self.nodes.len())
            .field("inputs", &self.inputs.len())
            .finish()
    }
}

/// Seed of the simulation patterns [`Aig::reduce`] sweeps with.
const REDUCE_FRAIG_SEED: u64 = 0x5EED;
/// Conflict budget of each equivalence query in [`Aig::reduce`]'s sweep.
const REDUCE_FRAIG_CONFLICTS: u64 = 200;

impl Aig {
    /// The constant-true function.
    pub const TRUE: AigEdge = AigEdge::TRUE;
    /// The constant-false function.
    pub const FALSE: AigEdge = AigEdge::FALSE;

    /// Creates a manager containing only the constant node.
    #[must_use]
    pub fn new() -> Self {
        Aig {
            nodes: vec![AigNode::True],
            strash: Strash::default(),
            inputs: HashMap::new(),
            memo: Vec::new(),
            epoch: 0,
            fraig_cache: None,
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle: rewrites ([`Aig::fraig`],
    /// [`Aig::compact`]) then report sweep/merge/reclaim counters
    /// through it. The node-construction hot path is untouched.
    pub fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Returns the number of allocated nodes (constant and inputs included).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Returns the node behind an edge (ignoring the complement bit).
    #[must_use]
    pub fn node(&self, edge: AigEdge) -> AigNode {
        // analyze::allow(panic): edge indices are only minted by push_node, so they are in bounds
        self.nodes[edge.node() as usize]
    }

    /// Returns the edge for the primary input labelled `var`, creating the
    /// input node on first use.
    pub fn input(&mut self, var: Var) -> AigEdge {
        if let Some(&idx) = self.inputs.get(&var) {
            return AigEdge::new(idx, false);
        }
        let idx = self.push_node(AigNode::Input(var));
        self.inputs.insert(var, idx);
        AigEdge::new(idx, false)
    }

    fn push_node(&mut self, node: AigNode) -> u32 {
        // analyze::allow(panic): more than u32::MAX AIG nodes is unrecoverable by design
        let idx = u32::try_from(self.nodes.len()).expect("AIG node overflow");
        self.nodes.push(node);
        idx
    }

    /// Conjunction with one-level simplification rules and structural
    /// hashing.
    pub fn and(&mut self, a: AigEdge, b: AigEdge) -> AigEdge {
        if a == Self::FALSE || b == Self::FALSE || a == !b {
            return Self::FALSE;
        }
        if a == Self::TRUE || a == b {
            return b;
        }
        if b == Self::TRUE {
            return a;
        }
        // Normalise operand order for hashing.
        let (a, b) = if a.code() <= b.code() { (a, b) } else { (b, a) };
        // Two-level "contradiction" and "subsumption" rules on AND fanins.
        if let AigNode::And(f0, f1) = self.node(a) {
            if !a.is_complemented() {
                if f0 == !b || f1 == !b {
                    return Self::FALSE; // (x∧y)∧¬x = 0
                }
                if f0 == b || f1 == b {
                    return a; // (x∧y)∧x = x∧y
                }
            } else if f0 == b {
                // ¬(x∧y)∧x = x∧¬y
                let nf1 = !f1;
                return self.and(b, nf1);
            } else if f1 == b {
                let nf0 = !f0;
                return self.and(b, nf0);
            }
        }
        if let AigNode::And(g0, g1) = self.node(b) {
            if !b.is_complemented() {
                if g0 == !a || g1 == !a {
                    return Self::FALSE;
                }
                if g0 == a || g1 == a {
                    return b;
                }
            } else if g0 == a {
                let ng1 = !g1;
                return self.and(a, ng1);
            } else if g1 == a {
                let ng0 = !g0;
                return self.and(a, ng0);
            }
        }
        if let Some(&idx) = self.strash.get(&(a, b)) {
            return AigEdge::new(idx, false);
        }
        let idx = self.push_node(AigNode::And(a, b));
        self.strash.insert((a, b), idx);
        let edge = AigEdge::new(idx, false);
        self.debug_check_new_and(edge);
        edge
    }

    /// Disjunction (`a ∨ b`).
    pub fn or(&mut self, a: AigEdge, b: AigEdge) -> AigEdge {
        let conj = self.and(!a, !b);
        !conj
    }

    /// Exclusive or (`a ⊕ b`).
    pub fn xor(&mut self, a: AigEdge, b: AigEdge) -> AigEdge {
        let both = self.and(a, b);
        let neither = self.and(!a, !b);
        let either_not = self.or(both, neither);
        !either_not
    }

    /// Implication (`a → b`).
    pub fn implies(&mut self, a: AigEdge, b: AigEdge) -> AigEdge {
        let bad = self.and(a, !b);
        !bad
    }

    /// Equivalence (`a ↔ b`).
    pub fn iff(&mut self, a: AigEdge, b: AigEdge) -> AigEdge {
        let x = self.xor(a, b);
        !x
    }

    /// Multiplexer (`if s then t else e`).
    pub fn mux(&mut self, s: AigEdge, t: AigEdge, e: AigEdge) -> AigEdge {
        let then_branch = self.and(s, t);
        let else_branch = self.and(!s, e);
        self.or(then_branch, else_branch)
    }

    /// Balanced conjunction of many edges.
    pub fn and_many(&mut self, edges: &[AigEdge]) -> AigEdge {
        self.reduce_balanced(edges, Self::TRUE, Aig::and)
    }

    /// Balanced disjunction of many edges.
    pub fn or_many(&mut self, edges: &[AigEdge]) -> AigEdge {
        self.reduce_balanced(edges, Self::FALSE, Aig::or)
    }

    fn reduce_balanced(
        &mut self,
        edges: &[AigEdge],
        unit: AigEdge,
        op: fn(&mut Aig, AigEdge, AigEdge) -> AigEdge,
    ) -> AigEdge {
        match edges.len() {
            0 => unit,
            1 => edges[0],
            _ => {
                let mid = edges.len() / 2;
                let left = self.reduce_balanced(&edges[..mid], unit, op);
                let right = self.reduce_balanced(&edges[mid..], unit, op);
                op(self, left, right)
            }
        }
    }

    /// The cofactor `f[value/var]`.
    pub fn cofactor(&mut self, root: AigEdge, var: Var, value: bool) -> AigEdge {
        let replacement = if value { Self::TRUE } else { Self::FALSE };
        self.compose(root, var, replacement)
    }

    /// Both cofactors `(f[0/var], f[1/var])` in one traversal of the cone.
    ///
    /// Builds the same nodes as two [`cofactor`](Aig::cofactor) calls, in
    /// another order.
    pub fn cofactors(&mut self, root: AigEdge, var: Var) -> (AigEdge, AigEdge) {
        self.begin_traversal();
        let pair = self.cofactors_rec(root, var);
        self.debug_audit("after cofactors");
        pair
    }

    fn cofactors_rec(&mut self, edge: AigEdge, var: Var) -> (AigEdge, AigEdge) {
        let idx = edge.node() as usize;
        let flip = edge.is_complemented();
        if let Some(slot) = self.memo.get(idx).filter(|s| s.stamp == self.epoch) {
            return (slot.c0.xor_complement(flip), slot.c1.xor_complement(flip));
        }
        let (c0, c1) = match self.node(edge) {
            AigNode::True => (Self::TRUE, Self::TRUE),
            AigNode::Input(v) if v == var => (Self::FALSE, Self::TRUE),
            AigNode::Input(_) => (edge.regular(), edge.regular()),
            AigNode::And(f0, f1) => {
                let (a0, a1) = self.cofactors_rec(f0, var);
                let (b0, b1) = self.cofactors_rec(f1, var);
                let c0 = self.rebuild(edge.regular(), (f0, f1), (a0, b0));
                let c1 = self.rebuild(edge.regular(), (f0, f1), (a1, b1));
                (c0, c1)
            }
        };
        self.memoise(idx, c0, c1);
        (c0.xor_complement(flip), c1.xor_complement(flip))
    }

    /// Substitutes the function `replacement` for every occurrence of input
    /// `var` in `root` (the `compose` operation on AIGs).
    pub fn compose(&mut self, root: AigEdge, var: Var, replacement: AigEdge) -> AigEdge {
        self.begin_traversal();
        let result = self.compose_rec(root, &|v| (v == var).then_some(replacement));
        self.debug_audit("after compose");
        result
    }

    /// Substitutes several variables simultaneously.
    ///
    /// Unlike iterated [`compose`](Aig::compose), a simultaneous
    /// substitution is safe when replacement functions mention substituted
    /// variables.
    pub fn compose_many(&mut self, root: AigEdge, map: &HashMap<Var, AigEdge>) -> AigEdge {
        self.begin_traversal();
        let result = self.compose_rec(root, &|v| map.get(&v).copied());
        self.debug_audit("after compose_many");
        result
    }

    /// Rebuilds the cone of `edge` with every input `v` for which
    /// `image_of(v)` is `Some` replaced by that function.
    fn compose_rec<F: Fn(Var) -> Option<AigEdge>>(
        &mut self,
        edge: AigEdge,
        image_of: &F,
    ) -> AigEdge {
        let idx = edge.node() as usize;
        let flip = edge.is_complemented();
        if let Some(slot) = self.memo.get(idx).filter(|s| s.stamp == self.epoch) {
            return slot.c0.xor_complement(flip);
        }
        let image = match self.node(edge) {
            AigNode::True => Self::TRUE,
            AigNode::Input(v) => image_of(v).unwrap_or_else(|| edge.regular()),
            AigNode::And(f0, f1) => {
                let new0 = self.compose_rec(f0, image_of);
                let new1 = self.compose_rec(f1, image_of);
                self.rebuild(edge.regular(), (f0, f1), (new0, new1))
            }
        };
        self.memoise(idx, image, image);
        image.xor_complement(flip)
    }

    /// The AND of the rebuilt fanins of `node`, or `node` itself when
    /// neither fanin changed. The shortcut is exact: only [`Aig::and`]
    /// mints AND nodes, so `and` on the unchanged fanins would find `node`
    /// in `strash`.
    fn rebuild(
        &mut self,
        node: AigEdge,
        fanins: (AigEdge, AigEdge),
        rebuilt: (AigEdge, AigEdge),
    ) -> AigEdge {
        if rebuilt == fanins {
            node
        } else {
            self.and(rebuilt.0, rebuilt.1)
        }
    }

    /// Starts a memoised traversal: sizes the memo to the arena (a
    /// traversal only visits nodes older than its start) and moves to a
    /// fresh epoch, which empties every slot without touching it. When the
    /// epoch counter would wrap, the stamps are cleared instead, so a stale
    /// stamp never reads as current.
    fn begin_traversal(&mut self) {
        self.memo.resize(self.nodes.len(), MemoSlot::EMPTY);
        if self.epoch == u32::MAX {
            self.memo.fill(MemoSlot::EMPTY);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    fn memoise(&mut self, idx: usize, c0: AigEdge, c1: AigEdge) {
        let stamp = self.epoch;
        if let Some(slot) = self.memo.get_mut(idx) {
            *slot = MemoSlot { stamp, c0, c1 };
        }
    }

    /// Moves the memo epoch, so a test can drive it across the wrap.
    #[cfg(test)]
    fn set_memo_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Existential quantification `∃var. f`.
    pub fn exists(&mut self, root: AigEdge, var: Var) -> AigEdge {
        let (f0, f1) = self.cofactors(root, var);
        self.or(f0, f1)
    }

    /// Universal quantification `∀var. f`.
    pub fn forall(&mut self, root: AigEdge, var: Var) -> AigEdge {
        let (f0, f1) = self.cofactors(root, var);
        self.and(f0, f1)
    }

    /// Existential quantification of a set, cheapest variable first
    /// (fewest occurrences in the cone — the scheduling heuristic of the
    /// QBF solver, exposed on the manager).
    pub fn exists_set(&mut self, root: AigEdge, vars: &VarSet) -> AigEdge {
        self.quantify_set(root, vars, true)
    }

    /// Universal quantification of a set, cheapest variable first.
    pub fn forall_set(&mut self, root: AigEdge, vars: &VarSet) -> AigEdge {
        self.quantify_set(root, vars, false)
    }

    fn quantify_set(&mut self, root: AigEdge, vars: &VarSet, existential: bool) -> AigEdge {
        let mut root = root;
        let mut remaining: Vec<Var> = vars.iter().collect();
        while !remaining.is_empty() {
            let support = self.support(root);
            remaining.retain(|&v| support.contains(v));
            if remaining.is_empty() {
                break;
            }
            // Cheapest first: smallest cone footprint.
            let counts = self.occurrence_counts(root, &remaining);
            let Some((pos, _)) = counts.iter().enumerate().min_by_key(|&(_, c)| *c) else {
                break;
            };
            let var = remaining.swap_remove(pos);
            root = if existential {
                self.exists(root, var)
            } else {
                self.forall(root, var)
            };
        }
        self.debug_audit("after quantify_set");
        root
    }

    /// For each variable, the number of cone nodes whose support contains
    /// it — the cofactor-cost estimate used to order eliminations
    /// (bit-parallel over chunks of 64 variables).
    #[must_use]
    pub fn occurrence_counts(&self, root: AigEdge, vars: &[Var]) -> Vec<usize> {
        let order = self.topo_order(root);
        let mut counts = vec![0usize; vars.len()];
        // Dense per-node masks: every cone node is written (in topological
        // order) before any parent reads it, so the buffer never needs
        // clearing between chunks and is allocated exactly once.
        let mut masks = vec![0u64; self.nodes.len()];
        for chunk_start in (0..vars.len()).step_by(64) {
            let chunk_end = (chunk_start + 64).min(vars.len());
            let chunk = &vars[chunk_start..chunk_end];
            for &idx in &order {
                let mask = match self.nodes[idx as usize] {
                    AigNode::True => 0,
                    AigNode::Input(v) => {
                        chunk.iter().position(|&c| c == v).map_or(0, |b| 1u64 << b)
                    }
                    AigNode::And(f0, f1) => masks[f0.node() as usize] | masks[f1.node() as usize],
                };
                masks[idx as usize] = mask;
                let mut m = mask;
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    counts[chunk_start + b] += 1;
                    m &= m - 1;
                }
            }
        }
        counts
    }

    /// The set of input variables `root` structurally depends on.
    #[must_use]
    pub fn support(&self, root: AigEdge) -> VarSet {
        let mut support = VarSet::new();
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![root.node()];
        while let Some(idx) = stack.pop() {
            if std::mem::replace(&mut visited[idx as usize], true) {
                continue;
            }
            match self.nodes[idx as usize] {
                AigNode::True => {}
                AigNode::Input(v) => {
                    support.insert(v);
                }
                AigNode::And(f0, f1) => {
                    stack.push(f0.node());
                    stack.push(f1.node());
                }
            }
        }
        support
    }

    /// The number of AND nodes in the cone of `root`.
    #[must_use]
    pub fn cone_size(&self, root: AigEdge) -> usize {
        let mut count = 0;
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![root.node()];
        while let Some(idx) = stack.pop() {
            if std::mem::replace(&mut visited[idx as usize], true) {
                continue;
            }
            if let AigNode::And(f0, f1) = self.nodes[idx as usize] {
                count += 1;
                stack.push(f0.node());
                stack.push(f1.node());
            }
        }
        count
    }

    /// Evaluates `root` under the variable valuation `value_of`.
    pub fn eval<F: Fn(Var) -> bool>(&self, root: AigEdge, value_of: F) -> bool {
        let mut values: Vec<Option<bool>> = vec![None; self.nodes.len()];
        self.eval_rec(root.node(), &value_of, &mut values) ^ root.is_complemented()
    }

    fn eval_rec<F: Fn(Var) -> bool>(
        &self,
        idx: u32,
        value_of: &F,
        values: &mut Vec<Option<bool>>,
    ) -> bool {
        if let Some(v) = values[idx as usize] {
            return v;
        }
        let result = match self.nodes[idx as usize] {
            AigNode::True => true,
            AigNode::Input(var) => value_of(var),
            AigNode::And(f0, f1) => {
                let v0 = self.eval_rec(f0.node(), value_of, values) ^ f0.is_complemented();
                let v1 = self.eval_rec(f1.node(), value_of, values) ^ f1.is_complemented();
                v0 && v1
            }
        };
        values[idx as usize] = Some(result);
        result
    }

    /// Keeps the manager small between quantifier eliminations — the
    /// one rule both elimination loops (DQBF and QBF) apply after each
    /// step. First [`fraig`](Self::fraig) the cone of `root` if it has
    /// more than `fraig_threshold` AND nodes (0 disables the sweep),
    /// then [`compact`](Self::compact) if the manager holds more than
    /// 256 nodes and more than four times the live cone.
    ///
    /// Returns the reduced root. Compaction invalidates every other
    /// edge.
    pub fn reduce(&mut self, root: AigEdge, fraig_threshold: usize) -> AigEdge {
        let mut root = root;
        if fraig_threshold > 0 && self.cone_size(root) > fraig_threshold {
            root = self.fraig(root, REDUCE_FRAIG_SEED, REDUCE_FRAIG_CONFLICTS);
        }
        let live = self.cone_size(root);
        if self.nodes.len() > 256 && self.nodes.len() > 4 * live {
            root = self.compact(&[root])[0];
        }
        root
    }

    /// Garbage-collects the manager, keeping only the cones of `roots`.
    ///
    /// Returns the remapped root edges (same order). All other edges are
    /// invalidated.
    pub fn compact(&mut self, roots: &[AigEdge]) -> Vec<AigEdge> {
        let nodes_before = self.nodes.len();
        let mut fresh = Aig::new();
        // The fresh arena replaces `self` wholesale below; the observer
        // and the attached cross-session cache must survive the swap.
        fresh.obs = self.obs.clone();
        fresh.fraig_cache = self.fraig_cache.clone();
        self.begin_traversal();
        let new_roots = roots
            .iter()
            .map(|&root| self.copy_into(root, &mut fresh))
            .collect();
        *self = fresh;
        self.debug_audit("after compact");
        self.obs.add(Metric::CompactRuns, 1);
        self.obs.add(
            Metric::CompactFreedNodes,
            nodes_before.saturating_sub(self.nodes.len()) as u64,
        );
        new_roots
    }

    fn copy_into(&mut self, edge: AigEdge, target: &mut Aig) -> AigEdge {
        let idx = edge.node() as usize;
        let flip = edge.is_complemented();
        if let Some(slot) = self.memo.get(idx).filter(|s| s.stamp == self.epoch) {
            return slot.c0.xor_complement(flip);
        }
        let image = match self.node(edge) {
            AigNode::True => Self::TRUE,
            AigNode::Input(v) => target.input(v),
            AigNode::And(f0, f1) => {
                let new0 = self.copy_into(f0, target);
                let new1 = self.copy_into(f1, target);
                target.and(new0, new1)
            }
        };
        self.memoise(idx, image, image);
        image.xor_complement(flip)
    }

    /// Returns the nodes of the cone of `root` in topological order
    /// (fanins before fanouts).
    #[must_use]
    pub fn topo_order(&self, root: AigEdge) -> Vec<u32> {
        let mut order = Vec::new();
        let mut state = vec![0u8; self.nodes.len()]; // 0 unseen, 1 open, 2 done
        let mut stack = vec![(root.node(), false)];
        while let Some((idx, expanded)) = stack.pop() {
            if state[idx as usize] == 2 {
                continue;
            }
            if expanded {
                state[idx as usize] = 2;
                order.push(idx);
                continue;
            }
            if state[idx as usize] == 1 {
                continue;
            }
            state[idx as usize] = 1;
            stack.push((idx, true));
            if let AigNode::And(f0, f1) = self.nodes[idx as usize] {
                stack.push((f0.node(), false));
                stack.push((f1.node(), false));
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Aig, AigEdge, AigEdge, AigEdge) {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let z = aig.input(Var::new(2));
        (aig, x, y, z)
    }

    #[test]
    fn and_simplification_rules() {
        let (mut aig, x, y, _) = setup();
        assert_eq!(aig.and(x, Aig::FALSE), Aig::FALSE);
        assert_eq!(aig.and(Aig::TRUE, y), y);
        assert_eq!(aig.and(x, x), x);
        assert_eq!(aig.and(x, !x), Aig::FALSE);
        let a1 = aig.and(x, y);
        let a2 = aig.and(y, x);
        assert_eq!(a1, a2, "structural hashing is order-independent");
    }

    #[test]
    fn two_level_rules() {
        let (mut aig, x, y, _) = setup();
        let xy = aig.and(x, y);
        assert_eq!(aig.and(xy, !x), Aig::FALSE);
        assert_eq!(aig.and(xy, x), xy);
        // ¬(x∧y) ∧ x = x ∧ ¬y
        let lhs = aig.and(!xy, x);
        let rhs = aig.and(x, !y);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn input_is_hashed() {
        let mut aig = Aig::new();
        let a = aig.input(Var::new(7));
        let b = aig.input(Var::new(7));
        assert_eq!(a, b);
        assert_eq!(aig.num_nodes(), 2);
    }

    #[test]
    fn eval_or_xor_mux() {
        let (mut aig, x, y, z) = setup();
        let or = aig.or(x, y);
        let xor = aig.xor(x, y);
        let mux = aig.mux(x, y, z);
        for bits in 0u32..8 {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            let (bx, by, bz) = (val(Var::new(0)), val(Var::new(1)), val(Var::new(2)));
            assert_eq!(aig.eval(or, val), bx || by);
            assert_eq!(aig.eval(xor, val), bx ^ by);
            assert_eq!(aig.eval(mux, val), if bx { by } else { bz });
        }
    }

    #[test]
    fn cofactor_and_compose() {
        let (mut aig, x, y, z) = setup();
        let f = aig.mux(x, y, z);
        assert_eq!(aig.cofactor(f, Var::new(0), true), y);
        assert_eq!(aig.cofactor(f, Var::new(0), false), z);
        // compose x := y yields mux(y,y,z) = y ∨ (¬y∧z) = y ∨ z
        let g = aig.compose(f, Var::new(0), y);
        let expected = aig.or(y, z);
        for bits in 0u32..8 {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            assert_eq!(aig.eval(g, val), aig.eval(expected, val));
        }
    }

    #[test]
    fn memo_epoch_wrap_never_reads_stale_slots() {
        let (mut aig, x, y, z) = setup();
        let f = aig.mux(x, y, z);
        let g = aig.xor(y, z);
        let h = aig.or(x, y);
        // Early epochs: 1 stamps the cone of `g`, 2 the cone of `h`.
        let g_y1 = aig.cofactor(g, Var::new(1), true);
        let h_x0 = aig.cofactor(h, Var::new(0), false);
        aig.set_memo_epoch(u32::MAX - 1);
        let f_x0 = aig.cofactor(f, Var::new(0), false);
        // Across the wrap. A counter that wrapped to 0, or restarted at 1,
        // without clearing the stamps would read the early slots of `g` or
        // `h` as current here.
        let g_z1 = aig.cofactor(g, Var::new(2), true);
        let f_z_y = aig.compose(f, Var::new(2), y);
        let (h_y0, h_y1) = aig.cofactors(h, Var::new(1));
        for bits in 0u32..8 {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            let (bx, by, bz) = (val(Var::new(0)), val(Var::new(1)), val(Var::new(2)));
            assert_eq!(aig.eval(g_y1, val), !bz);
            assert_eq!(aig.eval(h_x0, val), by);
            assert_eq!(aig.eval(f_x0, val), bz);
            assert_eq!(aig.eval(g_z1, val), !by);
            assert_eq!(aig.eval(f_z_y, val), by);
            assert_eq!(aig.eval(h_y0, val), bx);
            assert!(aig.eval(h_y1, val));
        }
    }

    #[test]
    fn compose_many_is_simultaneous() {
        // Swap x and y in f = x ∧ ¬y. Sequential substitution would collapse.
        let (mut aig, x, y, _) = setup();
        let f = aig.and(x, !y);
        let map: HashMap<Var, AigEdge> = [(Var::new(0), y), (Var::new(1), x)].into_iter().collect();
        let g = aig.compose_many(f, &map);
        let expected = aig.and(y, !x);
        assert_eq!(g, expected);
    }

    #[test]
    fn quantification() {
        let (mut aig, x, y, _) = setup();
        let f = aig.and(x, y);
        assert_eq!(aig.exists(f, Var::new(0)), y);
        assert_eq!(aig.forall(f, Var::new(0)), Aig::FALSE);
        let g = aig.or(x, y);
        assert_eq!(aig.exists(g, Var::new(0)), Aig::TRUE);
        assert_eq!(aig.forall(g, Var::new(0)), y);
        // Quantifying a variable not in the support is the identity.
        assert_eq!(aig.exists(f, Var::new(9)), f);
        assert_eq!(aig.forall(f, Var::new(9)), f);
    }

    #[test]
    fn set_quantification_matches_iterated() {
        let (mut aig, x, y, z) = setup();
        let f = aig.mux(x, y, z);
        let set: VarSet = [Var::new(0), Var::new(2)].into_iter().collect();
        let ex_set = aig.exists_set(f, &set);
        let e1 = aig.exists(f, Var::new(0));
        let ex_iter = aig.exists(e1, Var::new(2));
        for bits in 0u32..8 {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            assert_eq!(aig.eval(ex_set, val), aig.eval(ex_iter, val));
        }
        let fa_set = aig.forall_set(f, &set);
        let a1 = aig.forall(f, Var::new(0));
        let fa_iter = aig.forall(a1, Var::new(2));
        for bits in 0u32..8 {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            assert_eq!(aig.eval(fa_set, val), aig.eval(fa_iter, val));
        }
        // Quantified variables leave the support.
        assert!(!aig.support(ex_set).contains(Var::new(0)));
        assert!(!aig.support(fa_set).contains(Var::new(2)));
    }

    #[test]
    fn occurrence_counts_match_supports() {
        let (mut aig, x, y, z) = setup();
        let f = aig.mux(x, y, z);
        let vars: Vec<Var> = (0..3).map(Var::new).collect();
        let counts = aig.occurrence_counts(f, &vars);
        // Every variable occurs in at least one node of the mux cone.
        assert!(counts.iter().all(|&c| c >= 1), "{counts:?}");
        // A variable outside the cone counts zero.
        let counts = aig.occurrence_counts(f, &[Var::new(9)]);
        assert_eq!(counts, vec![0]);
    }

    #[test]
    fn support_and_cone_size() {
        let (mut aig, x, y, z) = setup();
        let f = aig.mux(x, y, z);
        let support = aig.support(f);
        assert_eq!(support.len(), 3);
        assert!(aig.cone_size(f) >= 3);
        assert_eq!(aig.support(Aig::TRUE).len(), 0);
        assert_eq!(aig.support(x).len(), 1);
    }

    #[test]
    fn compact_preserves_function_and_drops_garbage() {
        let (mut aig, x, y, z) = setup();
        let garbage = aig.xor(x, z);
        let f = aig.and(x, y);
        let before = aig.num_nodes();
        let remapped = aig.compact(&[f]);
        assert_eq!(remapped.len(), 1);
        assert!(aig.num_nodes() < before, "garbage {garbage:?} dropped");
        let f2 = remapped[0];
        for bits in 0u32..4 {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            assert_eq!(aig.eval(f2, val), (bits & 1 == 1) && (bits >> 1 & 1 == 1));
        }
    }

    #[test]
    fn topo_order_is_consistent() {
        let (mut aig, x, y, z) = setup();
        let f = aig.mux(x, y, z);
        let order = aig.topo_order(f);
        let position: HashMap<u32, usize> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for &idx in &order {
            if let AigNode::And(f0, f1) = aig.node(AigEdge::new(idx, false)) {
                assert!(position[&f0.node()] < position[&idx]);
                assert!(position[&f1.node()] < position[&idx]);
            }
        }
        assert_eq!(*order.last().unwrap(), f.node());
    }

    #[test]
    fn paper_example_2_aig() {
        // Fig. 1 of the paper: φ = (y1∨x1) ∧ (y1∨x2) ∧ (y2∨¬x1) ∧ (y2∨¬x2)
        let mut aig = Aig::new();
        let x1 = aig.input(Var::new(0));
        let x2 = aig.input(Var::new(1));
        let y1 = aig.input(Var::new(2));
        let y2 = aig.input(Var::new(3));
        let c1 = aig.or(y1, x1);
        let c2 = aig.or(y1, x2);
        let c3 = aig.or(y2, !x1);
        let c4 = aig.or(y2, !x2);
        let phi = aig.and_many(&[c1, c2, c3, c4]);
        for bits in 0u32..16 {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            let (bx1, bx2, by1, by2) = (
                val(Var::new(0)),
                val(Var::new(1)),
                val(Var::new(2)),
                val(Var::new(3)),
            );
            #[allow(clippy::nonminimal_bool)] // mirror the paper's clause list
            let expected = (by1 || bx1) && (by1 || bx2) && (by2 || !bx1) && (by2 || !bx2);
            assert_eq!(aig.eval(phi, val), expected);
        }
    }
}
