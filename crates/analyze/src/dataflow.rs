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
//! with `in(b)` the union of the predecessors' `out` sets: a forward
//! *may* analysis, in which a fact holds at `b` if it holds on **some**
//! path into `b`. The lattice bottom is ∅ and facts only grow, so every
//! block but the entry initializes to all-zeros; the entry initializes
//! to the caller-provided boundary set.
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

use crate::cfg::{Cfg, ENTRY};

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

/// The fixpoint solution: one in-set and one out-set per block.
pub struct Solution {
    /// Facts on entry to each block (union over incoming edges).
    pub in_: Vec<BitSet>,
    /// Facts on exit from each block (after the transfer function).
    pub out: Vec<BitSet>,
}

/// Runs forward gen/kill dataflow to fixpoint over `cfg`.
///
/// `boundary` seeds the entry block. See the module docs for the
/// transfer-function contract. Chaotic iteration with a dedup'd
/// worklist; block counts are small enough that O(n) membership checks
/// beat a visited bitmap in clarity and lose nothing in practice.
#[must_use]
pub fn solve(cfg: &Cfg, gk: &GenKill, boundary: &BitSet) -> Solution {
    let n = cfg.blocks.len();
    let mut in_: Vec<BitSet> = (0..n)
        .map(|b| {
            if b == ENTRY {
                boundary.clone()
            } else {
                BitSet::empty(boundary.len)
            }
        })
        .collect();
    let mut out: Vec<BitSet> = (0..n).map(|b| gk.transfer(b, &in_[b])).collect();
    let mut work: Vec<usize> = (0..n).collect();
    while let Some(b) = work.pop() {
        if b != ENTRY {
            // in(b) = union over predecessors' out-sets.
            let mut acc = BitSet::empty(boundary.len);
            for &p in &cfg.blocks[b].preds {
                acc.union_with(&out[p]);
            }
            in_[b] = acc;
        }
        let o = gk.transfer(b, &in_[b]);
        if o != out[b] {
            out[b] = o;
            for &(d, _) in &cfg.blocks[b].succs {
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
        let mut a = BitSet::empty(70);
        for i in 0..70 {
            a.insert(i);
        }
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
        let sol = solve(&cfg, &gk, &BitSet::empty(1));
        assert!(sol.in_[after].contains(0));
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
        let sol = solve(&cfg, &gk, &BitSet::empty(1));
        // Gone past the killer, but it survives to the join via the
        // else path.
        assert!(!sol.out[killer].contains(0));
        assert!(sol.in_[after].contains(0));
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
        let sol = solve(&cfg, &gk, &BitSet::empty(1));
        // The fact gen'd late in the body flows around the back edge to
        // the body start.
        assert!(sol.in_[head_b].contains(0));
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
                let mut d = a.clone();
                d.subtract(b);
                assert_eq!(model(&d), ma.difference(&mb).copied().collect());
            }
        }
    }

    /// Join (∪) is commutative, associative and idempotent — the
    /// semilattice laws the fixpoint relies on.
    #[test]
    fn bitset_join_meet_semilattice_laws() {
        let sets = sample_sets(70, 6);
        let join = |a: &BitSet, b: &BitSet| {
            let mut r = a.clone();
            r.union_with(b);
            r
        };
        for a in &sets {
            assert_eq!(join(a, a), *a, "idempotence");
            for b in &sets {
                assert_eq!(join(a, b), join(b, a), "commutativity");
                for c in &sets {
                    assert_eq!(join(&join(a, b), c), join(a, &join(b, c)), "associativity");
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
        let sol = solve(&cfg, &gk, &boundary);
        assert!(sol.out[a].contains(0));
    }
}
