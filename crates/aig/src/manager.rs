//! The AIG manager: node storage, hashing, Boolean and quantification
//! operations.

use crate::{AigEdge, ConeWalk};
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
/// current sweep (`c0`/`c1` are its two cofactors in [`Aig::cofactors`];
/// a substitution and a compaction use `c0` only). The slot is empty
/// unless `stamp` equals the manager's epoch. A walk ([`Aig::walk`]) only
/// stamps the slot, and the sweeps that build no node keep one 64-bit
/// word per node in the two image halves.
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

    fn word(self) -> u64 {
        u64::from(self.c0.code()) | u64::from(self.c1.code()) << 32
    }

    fn with_word(stamp: u32, word: u64) -> MemoSlot {
        MemoSlot {
            stamp,
            // Truncation keeps the low half; the shift leaves the high one.
            c0: AigEdge::from_code(word as u32),
            c1: AigEdge::from_code((word >> 32) as u32),
        }
    }
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
    /// Traversal memo of [`Aig::walk`] and the sweeps over a walk,
    /// indexed by node. Each traversal takes a new `epoch`, which empties
    /// every slot at once.
    memo: Vec<MemoSlot>,
    epoch: u32,
    /// Scratch of [`Aig::quantify_block`]: the 2^k images of each cone
    /// node that depends on the block, at the node's position in the
    /// walk's order. Reused between calls like `memo`.
    pub(crate) block_images: Vec<AigEdge>,
    obs: Obs,
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
            block_images: Vec::new(),
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle: the compaction in
    /// [`Aig::reduce`] then reports its run and reclaim counters through
    /// it. The node-construction
    /// hot path is untouched.
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

    /// The AND of the rebuilt fanins of `node`, or `node` itself when
    /// neither fanin changed. The shortcut is exact: only [`Aig::and`]
    /// mints AND nodes, so `and` on the unchanged fanins would find `node`
    /// in `strash`.
    pub(crate) fn rebuild(
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
    pub(crate) fn begin_traversal(&mut self) {
        self.memo.resize(self.nodes.len(), MemoSlot::EMPTY);
        if self.epoch == u32::MAX {
            self.memo.fill(MemoSlot::EMPTY);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Keeps the two images of node `idx` in its slot and stamps it.
    pub(crate) fn memoise(&mut self, idx: u32, c0: AigEdge, c1: AigEdge) {
        let stamp = self.epoch;
        if let Some(slot) = self.memo.get_mut(idx as usize) {
            *slot = MemoSlot { stamp, c0, c1 };
        }
    }

    /// The two images `edge` has under the current sweep: those kept in
    /// its node's slot, complemented like the edge, or the edge itself
    /// twice when the slot is empty.
    pub(crate) fn images(&self, edge: AigEdge) -> (AigEdge, AigEdge) {
        let flip = edge.is_complemented();
        self.memo
            .get(edge.node() as usize)
            .filter(|slot| slot.stamp == self.epoch)
            .map_or((edge, edge), |slot| {
                (slot.c0.xor_complement(flip), slot.c1.xor_complement(flip))
            })
    }

    /// Moves the memo epoch, so a test can drive it across the wrap.
    #[cfg(test)]
    pub(crate) fn set_memo_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Returns `true` if node `idx` is stamped with the current epoch.
    pub(crate) fn is_marked(&self, idx: u32) -> bool {
        self.memo
            .get(idx as usize)
            .is_some_and(|slot| slot.stamp == self.epoch)
    }

    /// Stamps node `idx` with the current epoch.
    pub(crate) fn mark(&mut self, idx: u32) {
        let stamp = self.epoch;
        if let Some(slot) = self.memo.get_mut(idx as usize) {
            slot.stamp = stamp;
        }
    }

    /// The sweep word of node `idx`: 0 unless stamped this epoch.
    pub(crate) fn memo_word(&self, idx: u32) -> u64 {
        self.memo
            .get(idx as usize)
            .filter(|slot| slot.stamp == self.epoch)
            .map_or(0, |slot| slot.word())
    }

    /// Sets the sweep word of node `idx` and stamps it.
    pub(crate) fn set_memo_word(&mut self, idx: u32, word: u64) {
        let stamp = self.epoch;
        if let Some(slot) = self.memo.get_mut(idx as usize) {
            *slot = MemoSlot::with_word(stamp, word);
        }
    }

    /// ORs `bits` into the sweep word of node `idx` (an unstamped word
    /// reads as 0) and stamps it.
    pub(crate) fn or_memo_word(&mut self, idx: u32, bits: u64) {
        let stamp = self.epoch;
        if let Some(slot) = self.memo.get_mut(idx as usize) {
            let word = if slot.stamp == stamp { slot.word() } else { 0 };
            *slot = MemoSlot::with_word(stamp, word | bits);
        }
    }

    /// The set of input variables `root` structurally depends on.
    #[must_use]
    pub fn support(&mut self, root: AigEdge) -> VarSet {
        self.walk(root).support
    }

    /// Evaluates `root` under the variable valuation `value_of`.
    ///
    /// The reference the tests check the rebuilding sweeps against: it
    /// builds no node and shares no code with them. It recurses on the
    /// depth of the cone, so no solver path calls it.
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
    /// one rule the elimination loop applies after each step, QBF finish
    /// included: if the manager holds more than 256 nodes and more than
    /// four times the live cone of `root`, a forward sweep over the walk
    /// of `root` rebuilds the cone in a fresh manager, which replaces
    /// this one.
    ///
    /// Returns the [walk](Self::walk) of the reduced root, which the loop
    /// reads before its next step. Compaction invalidates every other
    /// edge.
    pub fn reduce(&mut self, root: AigEdge) -> ConeWalk {
        let walk = self.walk(root);
        if self.nodes.len() <= 256 || self.nodes.len() <= 4 * walk.ands {
            return walk;
        }
        let nodes_before = self.nodes.len();
        let mut fresh = Aig::new();
        // The fresh arena replaces `self` wholesale below; the observer
        // must survive the swap.
        fresh.obs = self.obs.clone();
        let root = self.compact_sweep(&walk, &mut fresh);
        drop(walk);
        *self = fresh;
        self.debug_audit("after compact");
        self.obs.add(Metric::CompactRuns, 1);
        self.obs.add(
            Metric::CompactFreedNodes,
            nodes_before.saturating_sub(self.nodes.len()) as u64,
        );
        self.walk(root)
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
        let walk = aig.walk(f);
        assert_eq!(aig.cofactors(&walk, Var::new(0)), (z, y));
        // compose x := y yields mux(y,y,z) = y ∨ (¬y∧z) = y ∨ z
        let g = aig.compose_many(&walk, &HashMap::from([(Var::new(0), y)]));
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
        // Early epochs: 1 walks `g` and 2 sweeps it, 3 walks `h` and 4
        // sweeps it, 5 walks `f`.
        let g_walk = aig.walk(g);
        let (_, g_y1) = aig.cofactors(&g_walk, Var::new(1));
        let h_walk = aig.walk(h);
        let (h_x0, _) = aig.cofactors(&h_walk, Var::new(0));
        let f_walk = aig.walk(f);
        aig.set_memo_epoch(u32::MAX - 1);
        let (f_x0, _) = aig.cofactors(&f_walk, Var::new(0));
        // Across the wrap. A counter that wrapped to 0, or restarted at 1,
        // without clearing the stamps would read the early slots of `g` or
        // `h` as current here.
        let (_, g_z1) = aig.cofactors(&g_walk, Var::new(2));
        let f_z_y = aig.compose_many(&f_walk, &HashMap::from([(Var::new(2), y)]));
        let (h_y0, h_y1) = aig.cofactors(&h_walk, Var::new(1));
        // The walk marks visits with the same stamps, so across a second
        // wrap it must not read a slot stamped before it as visited: epoch
        // 1 comes back while the AND nodes of `g` still carry the stamp
        // of `g_z1` above, and epoch 4 while `k` carries its first walk's.
        let k = aig.and(x, !z);
        let early_k = aig.walk(k);
        aig.set_memo_epoch(u32::MAX);
        let g_walk = aig.walk(g);
        let h_walk = aig.walk(h);
        let f_walk = aig.walk(f);
        let k_walk = aig.walk(k);
        assert_eq!((g_walk.ands(), g_walk.support().len()), (3, 2));
        assert_eq!((h_walk.ands(), h_walk.support().len()), (1, 2));
        assert_eq!((f_walk.ands(), f_walk.support().len()), (3, 3));
        assert_eq!(k_walk.order(), early_k.order());
        let status = aig.unit_pure(&f_walk);
        assert_eq!(status.status(Var::new(0)), crate::VarStatus::Unknown);
        assert_eq!(status.status(Var::new(1)), crate::VarStatus::PositivePure);
        // x occurs in its input node and all three ANDs; y and z in their
        // input node, their AND and the top one.
        let vars = [Var::new(0), Var::new(1), Var::new(2)];
        assert_eq!(aig.occurrence_counts(&f_walk, &vars), vec![4, 3, 3]);
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
        let map = HashMap::from([(Var::new(0), y), (Var::new(1), x)]);
        let walk = aig.walk(f);
        let g = aig.compose_many(&walk, &map);
        let expected = aig.and(y, !x);
        assert_eq!(g, expected);
    }

    #[test]
    fn quantification() {
        use hqs_cnf::Quantifier::{Existential, Universal};
        let (mut aig, x, y, _) = setup();
        let f = aig.and(x, y);
        let g = aig.or(x, y);
        let (x_only, outside) = ([Var::new(0)], [Var::new(9)]);
        let f_walk = aig.walk(f);
        assert_eq!(aig.quantify_block(&f_walk, &x_only, Existential), y);
        assert_eq!(aig.quantify_block(&f_walk, &x_only, Universal), Aig::FALSE);
        let g_walk = aig.walk(g);
        assert_eq!(aig.quantify_block(&g_walk, &x_only, Existential), Aig::TRUE);
        assert_eq!(aig.quantify_block(&g_walk, &x_only, Universal), y);
        // Quantifying a variable not in the support is the identity.
        assert_eq!(aig.quantify_block(&f_walk, &outside, Existential), f);
        assert_eq!(aig.quantify_block(&f_walk, &outside, Universal), f);
        assert_eq!(aig.cofactors(&f_walk, Var::new(9)), (f, f));
    }

    #[test]
    fn occurrence_counts_match_supports() {
        let (mut aig, x, y, z) = setup();
        let f = aig.mux(x, y, z);
        let vars: Vec<Var> = (0..3).map(Var::new).collect();
        let walk = aig.walk(f);
        let counts = aig.occurrence_counts(&walk, &vars);
        // Every variable occurs in at least one node of the mux cone.
        assert!(counts.iter().all(|&c| c >= 1), "{counts:?}");
        // A variable outside the cone counts zero.
        let counts = aig.occurrence_counts(&walk, &[Var::new(9)]);
        assert_eq!(counts, vec![0]);
    }

    #[test]
    fn support_and_cone_size() {
        let (mut aig, x, y, z) = setup();
        let f = aig.mux(x, y, z);
        let support = aig.support(f);
        assert_eq!(support.len(), 3);
        assert!(aig.walk(f).ands() >= 3);
        assert_eq!(aig.support(Aig::TRUE).len(), 0);
        assert_eq!(aig.support(x).len(), 1);
        assert_eq!(aig.walk(x).ands(), 0);
    }

    /// The nodes reachable from `root`, from a worklist over a set: the
    /// reference the walk is checked against.
    fn reachable(aig: &Aig, root: AigEdge) -> std::collections::BTreeSet<u32> {
        let mut seen = std::collections::BTreeSet::new();
        let mut todo = vec![root.node()];
        while let Some(idx) = todo.pop() {
            if seen.insert(idx) {
                if let AigNode::And(f0, f1) = aig.node(AigEdge::new(idx, false)) {
                    todo.extend([f0.node(), f1.node()]);
                }
            }
        }
        seen
    }

    #[test]
    fn walk_order_is_ascending_node_index() {
        let (mut aig, x, y, z) = setup();
        let f = aig.mux(x, y, z);
        // Garbage below the root's index, one node of it a fanout of the
        // cone, and garbage above it.
        let _ = aig.and(f, !z);
        let _ = aig.xor(y, z);
        let g = aig.xor(f, x);
        let h = aig.and(g, !y);
        let _ = aig.or(h, z);
        let _ = aig.and(!x, !y);
        assert!(h.node() + 1 < u32::try_from(aig.num_nodes()).unwrap());
        for root in [!g, h, !h, x, !z, Aig::TRUE, Aig::FALSE] {
            let cone = reachable(&aig, root);
            let walk = aig.walk(root);
            let ascending: Vec<u32> = cone.iter().copied().collect();
            assert_eq!(walk.order(), ascending.as_slice(), "{root:?}");
            let nodes = cone.iter().map(|&idx| aig.node(AigEdge::new(idx, false)));
            let ands = nodes
                .clone()
                .filter(|node| matches!(node, AigNode::And(..)))
                .count();
            assert_eq!(walk.ands(), ands, "{root:?}");
            let support: VarSet = nodes
                .filter_map(|node| match node {
                    AigNode::Input(var) => Some(var),
                    _ => None,
                })
                .collect();
            assert_eq!(walk.support(), &support, "{root:?}");
        }
    }

    #[test]
    fn reduce_after_compaction_walks_the_whole_arena() {
        let mut aig = Aig::new();
        let inputs: Vec<AigEdge> = (0..100).map(|i| aig.input(Var::new(i))).collect();
        // Garbage: enough nodes outside the live cone to trigger compaction.
        for pair in inputs.windows(2) {
            let _ = aig.xor(pair[0], pair[1]);
        }
        let live = aig.and(inputs[0], !inputs[1]);
        let walk = aig.reduce(live);
        assert_eq!(aig.num_nodes(), 4, "constant, two inputs, one AND");
        assert_eq!(walk.ands(), 1);
        assert_eq!(walk.support().len(), 2);
        let mut order = walk.order().to_vec();
        assert_eq!(order.last(), Some(&walk.root().node()));
        order.sort_unstable();
        assert_eq!(order, [1, 2, 3]);
        assert!(!aig.eval(walk.root(), |v| v.index() == 1));
        assert!(aig.eval(walk.root(), |v| v.index() == 0));
    }

    #[test]
    fn compact_preserves_function_and_drops_garbage() {
        let (mut aig, x, y, z) = setup();
        // Garbage over variables outside the live cone, enough for reduce
        // to compact.
        let pads: Vec<AigEdge> = (3..103).map(|i| aig.input(Var::new(i))).collect();
        for pair in pads.windows(2) {
            let _ = aig.xor(pair[0], pair[1]);
        }
        let f = aig.mux(x, y, z);
        let before = aig.num_nodes();
        let walk = aig.reduce(!f);
        assert!(aig.num_nodes() < before, "garbage dropped");
        assert_eq!(
            aig.num_nodes(),
            walk.order().len() + 1,
            "the constant and the cone are left"
        );
        for bits in 0u32..8 {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            let (bx, by, bz) = (val(Var::new(0)), val(Var::new(1)), val(Var::new(2)));
            assert_eq!(aig.eval(walk.root(), val), if bx { !by } else { !bz });
        }
    }

    #[test]
    fn topo_order_is_consistent() {
        let (mut aig, x, y, z) = setup();
        let f = aig.mux(x, y, z);
        let walk = aig.walk(f);
        let order = walk.order();
        let position: HashMap<u32, usize> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for &idx in order {
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
