//! A worklist dataflow engine over gen/kill bitset lattices on
//! [`crate::cfg::Cfg`]s.
//!
//! Facts are bits in a fixed-size bitset; a pass instantiates the
//! engine with per-block **gen** and **kill** sets and [`solve`]
//! iterates the transfer functions to a fixpoint.
//!
//! # Transfer-function contract
//!
//! Every block's transfer function is
//!
//! ```text
//! out(b) = gen(b) ∪ (in(b) \ kill(b))
//! ```
//!
//! with `in(b)` the meet over the predecessors' `out` sets (successors'
//! for a backward analysis):
//!
//! * [`Meet::Union`] — *may* analysis: a fact holds at `b` if it holds
//!   on **some** path into `b`. The lattice bottom is ∅ and facts only
//!   grow, so initialization is all-zeros everywhere.
//! * [`Meet::Intersection`] — *must* analysis: a fact holds only if it
//!   holds on **every** path. Interior blocks initialize to ⊤ (all
//!   ones) and shrink; the entry (exit, when backward) initializes to
//!   the caller-provided boundary set.
//!
//! Passes must keep `gen` and `kill` *path-independent* per block —
//! they may depend only on the block's own tokens, never on the in-set.
//! That makes the transfer monotone, the fixpoint well-defined, and
//! termination certain: each block's out-set moves monotonically in a
//! lattice of height `facts` bits.
//!
//! The engine is deliberately small: no widening, no SSA, no demand
//! structure. Workspace functions have tens of blocks; a bitset
//! worklist converges in a handful of sweeps and keeps the whole
//! analyze run dependency-free.

use crate::cfg::{Cfg, ENTRY, EXIT};

/// Direction of propagation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow entry → exit along edges (in = meet over preds).
    Forward,
    /// Facts flow exit → entry against edges (in = meet over succs).
    Backward,
}

/// How flow facts combine at joins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Meet {
    /// May analysis: union — reachable along *some* path.
    Union,
    /// Must analysis: intersection — holds along *every* path.
    Intersection,
}

/// A fixed-width bitset of dataflow facts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// The empty set over `len` facts.
    #[must_use]
    pub fn empty(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The full set (⊤) over `len` facts.
    #[must_use]
    pub fn full(len: usize) -> Self {
        let mut s = Self::empty(len);
        for (i, w) in s.words.iter_mut().enumerate() {
            let bits = (s.len - i * 64).min(64);
            *w = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
        }
        s
    }

    /// Sets fact `i`.
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears fact `i`.
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Is fact `i` set?
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Any fact set at all?
    #[must_use]
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Iterates the set facts in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.contains(i))
    }

    /// `self ∪= other`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// `self ∩= other`; returns true if `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a & b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// `self \= other` (set difference).
    pub fn subtract(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }
}

/// Per-block gen/kill sets for one analysis instance.
pub struct GenKill {
    /// Facts a block establishes (`gen`), one set per CFG block.
    pub gen: Vec<BitSet>,
    /// Facts a block destroys (`kill`), one set per CFG block.
    pub kill: Vec<BitSet>,
}

impl GenKill {
    /// All-empty gen/kill for `blocks` blocks over `facts` facts.
    #[must_use]
    pub fn new(blocks: usize, facts: usize) -> Self {
        GenKill {
            gen: vec![BitSet::empty(facts); blocks],
            kill: vec![BitSet::empty(facts); blocks],
        }
    }

    /// The transfer function of `block`: `gen(b) ∪ (fact \ kill(b))`.
    fn transfer(&self, block: usize, fact: &BitSet) -> BitSet {
        let mut out = self.gen[block].clone();
        let mut pass_through = fact.clone();
        pass_through.subtract(&self.kill[block]);
        out.union_with(&pass_through);
        out
    }
}

/// The fixpoint solution: one in-set and one out-set per block. For a
/// backward analysis `in_` is the set at block *exit* and `out` the set
/// at block *entry* (facts flow against the edges); callers mostly read
/// whichever side faces their query.
pub struct Solution {
    /// Facts on entry to each block (meet over incoming edges).
    pub in_: Vec<BitSet>,
    /// Facts on exit from each block (after the transfer function).
    pub out: Vec<BitSet>,
}

/// Runs gen/kill dataflow to fixpoint over `cfg`.
///
/// `boundary` seeds the entry block (forward) or exit block (backward).
/// See the module docs for the transfer-function contract. Chaotic
/// iteration with a dedup'd worklist; block counts are small enough
/// that O(n) membership checks beat a visited bitmap in clarity and
/// lose nothing in practice.
#[must_use]
pub fn solve(
    cfg: &Cfg,
    gk: &GenKill,
    direction: Direction,
    meet: Meet,
    boundary: &BitSet,
) -> Solution {
    let n = cfg.blocks.len();
    let init = || match meet {
        Meet::Union => BitSet::empty(boundary.len),
        Meet::Intersection => BitSet::full(boundary.len),
    };
    let boundary_block = match direction {
        Direction::Forward => ENTRY,
        Direction::Backward => EXIT,
    };
    let mut in_: Vec<BitSet> = (0..n)
        .map(|b| {
            if b == boundary_block {
                boundary.clone()
            } else {
                init()
            }
        })
        .collect();
    let mut out: Vec<BitSet> = (0..n).map(|b| gk.transfer(b, &in_[b])).collect();
    let mut work: Vec<usize> = (0..n).collect();
    while let Some(b) = work.pop() {
        if b != boundary_block {
            // in(b) = meet over flow-predecessors' out-sets.
            let sources: Vec<usize> = match direction {
                Direction::Forward => cfg.blocks[b].preds.clone(),
                Direction::Backward => cfg.blocks[b].succs.iter().map(|&(s, _)| s).collect(),
            };
            let mut acc = init();
            for s in sources {
                match meet {
                    Meet::Union => acc.union_with(&out[s]),
                    Meet::Intersection => acc.intersect_with(&out[s]),
                };
            }
            in_[b] = acc;
        }
        let o = gk.transfer(b, &in_[b]);
        if o != out[b] {
            out[b] = o;
            let dependents: Vec<usize> = match direction {
                Direction::Forward => cfg.blocks[b].succs.iter().map(|&(s, _)| s).collect(),
                Direction::Backward => cfg.blocks[b].preds.clone(),
            };
            for d in dependents {
                if !work.contains(&d) {
                    work.push(d);
                }
            }
        }
    }
    Solution { in_, out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::code_indices;
    use crate::source::SourceFile;

    fn cfg_of(src: &str) -> (Cfg, SourceFile, Vec<usize>) {
        let file = SourceFile::analyze("t.rs".into(), "hqs-test".into(), src.into());
        let code = code_indices(&file);
        let cfgs = crate::cfg::build_all(&file, &code);
        assert_eq!(cfgs.len(), 1);
        (cfgs.into_iter().next().expect("cfg"), file, code)
    }

    fn block_of(cfg: &Cfg, file: &SourceFile, code: &[usize], needle: &str) -> usize {
        cfg.blocks
            .iter()
            .position(|b| {
                b.tokens
                    .iter()
                    .any(|&k| file.tokens[code[k]].text(&file.text) == needle)
            })
            .expect("needle block")
    }

    #[test]
    fn bitset_full_and_ops() {
        let mut a = BitSet::full(70);
        assert!(a.contains(0) && a.contains(69));
        assert_eq!(a.iter().count(), 70);
        a.remove(69);
        assert!(!a.contains(69));
        let mut b = BitSet::empty(70);
        b.insert(69);
        assert!(a.union_with(&b));
        assert!(a.contains(69));
        assert!(!a.union_with(&b)); // already present: no change
    }

    /// Forward may-reach: a fact gen'd before an `if` reaches the join
    /// through both arms.
    #[test]
    fn forward_union_reaches_join() {
        let src = "fn f() { seed; if c { t; } else { e; } after; }";
        let (cfg, file, code) = cfg_of(src);
        let seed_b = block_of(&cfg, &file, &code, "seed");
        let after = block_of(&cfg, &file, &code, "after");
        let mut gk = GenKill::new(cfg.blocks.len(), 1);
        gk.gen[seed_b].insert(0);
        let sol = solve(
            &cfg,
            &gk,
            Direction::Forward,
            Meet::Union,
            &BitSet::empty(1),
        );
        assert!(sol.in_[after].contains(0));
    }

    /// Forward must-reach: a fact gen'd in only one `if` arm does NOT
    /// hold at the join under intersection, but one gen'd in both does.
    #[test]
    fn forward_intersection_requires_all_paths() {
        let src = "fn f() { if c { t; both; } else { e; both2; } after; }";
        let (cfg, file, code) = cfg_of(src);
        let t = block_of(&cfg, &file, &code, "t");
        let e = block_of(&cfg, &file, &code, "e");
        let after = block_of(&cfg, &file, &code, "after");
        let mut gk = GenKill::new(cfg.blocks.len(), 2);
        gk.gen[t].insert(0); // fact 0: only then-arm
        gk.gen[t].insert(1); // fact 1: both arms
        gk.gen[e].insert(1);
        let sol = solve(
            &cfg,
            &gk,
            Direction::Forward,
            Meet::Intersection,
            &BitSet::empty(2),
        );
        assert!(!sol.in_[after].contains(0));
        assert!(sol.in_[after].contains(1));
    }

    /// Kill stops propagation along that path only.
    #[test]
    fn kill_is_per_path() {
        let src = "fn f() { seed; if c { killer; } else { e; } after; }";
        let (cfg, file, code) = cfg_of(src);
        let seed_b = block_of(&cfg, &file, &code, "seed");
        let killer = block_of(&cfg, &file, &code, "killer");
        let after = block_of(&cfg, &file, &code, "after");
        let mut gk = GenKill::new(cfg.blocks.len(), 1);
        gk.gen[seed_b].insert(0);
        gk.kill[killer].insert(0);
        // May: survives via the else path.
        let sol = solve(
            &cfg,
            &gk,
            Direction::Forward,
            Meet::Union,
            &BitSet::empty(1),
        );
        assert!(sol.in_[after].contains(0));
        // Must: the killed path breaks it.
        let sol = solve(
            &cfg,
            &gk,
            Direction::Forward,
            Meet::Intersection,
            &BitSet::empty(1),
        );
        assert!(!sol.in_[after].contains(0));
    }

    /// Facts circulate around a loop back edge to earlier blocks.
    #[test]
    fn loop_back_edge_propagates() {
        let src = "fn f() { loop { head_marker; if c { break; } late; } after; }";
        let (cfg, file, code) = cfg_of(src);
        let head_b = block_of(&cfg, &file, &code, "head_marker");
        let late = block_of(&cfg, &file, &code, "late");
        let mut gk = GenKill::new(cfg.blocks.len(), 1);
        gk.gen[late].insert(0);
        let sol = solve(
            &cfg,
            &gk,
            Direction::Forward,
            Meet::Union,
            &BitSet::empty(1),
        );
        // The fact gen'd late in the body flows around the back edge to
        // the body start.
        assert!(sol.in_[head_b].contains(0));
    }

    /// Backward liveness-style query: a fact gen'd at a use point is
    /// visible walking back to the definition.
    #[test]
    fn backward_union_flows_against_edges() {
        let src = "fn f() { def; if c { t; } use_site; }";
        let (cfg, file, code) = cfg_of(src);
        let def = block_of(&cfg, &file, &code, "def");
        let use_b = block_of(&cfg, &file, &code, "use_site");
        let mut gk = GenKill::new(cfg.blocks.len(), 1);
        gk.gen[use_b].insert(0);
        let sol = solve(
            &cfg,
            &gk,
            Direction::Backward,
            Meet::Union,
            &BitSet::empty(1),
        );
        assert!(sol.in_[def].contains(0) || sol.out[def].contains(0));
    }

    // ---- lattice laws, checked against a naive set-model oracle ----

    /// Deterministic pseudo-random bitsets: a tiny xorshift so the law
    /// tests cover many shapes without depending on a RNG crate.
    fn sample_sets(len: usize, count: usize) -> Vec<BitSet> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut sets = Vec::with_capacity(count);
        for _ in 0..count {
            let mut s = BitSet::empty(len);
            for i in 0..len {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state & 1 == 1 {
                    s.insert(i);
                }
            }
            sets.push(s);
        }
        sets
    }

    fn model(s: &BitSet) -> std::collections::BTreeSet<usize> {
        s.iter().collect()
    }

    fn subset(a: &BitSet, b: &BitSet) -> bool {
        a.iter().all(|i| b.contains(i))
    }

    /// Every BitSet op agrees with the naive set model.
    #[test]
    fn bitset_ops_match_set_model_oracle() {
        let sets = sample_sets(70, 8);
        for a in &sets {
            for b in &sets {
                let (ma, mb) = (model(a), model(b));
                let mut u = a.clone();
                u.union_with(b);
                assert_eq!(model(&u), ma.union(&mb).copied().collect());
                let mut i = a.clone();
                i.intersect_with(b);
                assert_eq!(model(&i), ma.intersection(&mb).copied().collect());
                let mut d = a.clone();
                d.subtract(b);
                assert_eq!(model(&d), ma.difference(&mb).copied().collect());
            }
        }
    }

    /// Join (∪) and meet (∩) are commutative, associative and
    /// idempotent — the semilattice laws the fixpoint relies on.
    #[test]
    fn bitset_join_meet_semilattice_laws() {
        let sets = sample_sets(70, 6);
        let join = |a: &BitSet, b: &BitSet| {
            let mut r = a.clone();
            r.union_with(b);
            r
        };
        let meet = |a: &BitSet, b: &BitSet| {
            let mut r = a.clone();
            r.intersect_with(b);
            r
        };
        for op in [&join as &dyn Fn(&BitSet, &BitSet) -> BitSet, &meet] {
            for a in &sets {
                assert_eq!(op(a, a), *a, "idempotence");
                for b in &sets {
                    assert_eq!(op(a, b), op(b, a), "commutativity");
                    for c in &sets {
                        assert_eq!(op(&op(a, b), c), op(a, &op(b, c)), "associativity");
                    }
                }
            }
        }
    }

    /// The gen/kill transfer is monotone: in₁ ⊆ in₂ ⇒ T(in₁) ⊆ T(in₂).
    #[test]
    fn genkill_transfer_is_monotone() {
        let (cfg, _file, _code) = cfg_of("fn f() { a; }");
        let sets = sample_sets(70, 6);
        let mut gk = GenKill::new(cfg.blocks.len(), 70);
        // An arbitrary but fixed gen/kill pair on every block.
        for b in 0..cfg.blocks.len() {
            gk.gen[b] = sets[0].clone();
            gk.kill[b] = sets[1].clone();
        }
        for a in &sets {
            for b in &sets {
                if !subset(a, b) {
                    continue;
                }
                let ta = gk.transfer(ENTRY, a);
                let tb = gk.transfer(ENTRY, b);
                assert!(subset(&ta, &tb), "transfer broke ⊆");
            }
        }
    }

    /// Boundary facts enter at the entry block in a forward analysis.
    #[test]
    fn boundary_seeds_entry() {
        let src = "fn f() { a; }";
        let (cfg, file, code) = cfg_of(src);
        let a = block_of(&cfg, &file, &code, "a");
        let gk = GenKill::new(cfg.blocks.len(), 1);
        let mut boundary = BitSet::empty(1);
        boundary.insert(0);
        let sol = solve(&cfg, &gk, Direction::Forward, Meet::Union, &boundary);
        assert!(sol.out[a].contains(0));
    }
}
