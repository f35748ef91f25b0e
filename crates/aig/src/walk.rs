//! One walk of a cone, and the sweeps over it.
//!
//! Both elimination loops (DQBF and QBF) need the same facts about the
//! matrix between two steps: its support, its AND count (for
//! [`Aig::reduce`]), the Theorem-6 status of every input
//! ([`Aig::unit_pure`]) and the occurrence cost of the variables they
//! may eliminate next ([`Aig::occurrence_counts`]). [`Aig::walk`] makes
//! one depth-first walk of the cone that yields its topological order,
//! AND count and support; the statuses and the costs are linear sweeps
//! over that order. The walk marks visits with the stamps of the
//! traversal memo, and the sweeps keep their per-node words in its
//! slots, so nothing here allocates an array sized to the arena.

use crate::{Aig, AigEdge, AigNode};
use hqs_base::{Var, VarSet};

/// What one [walk](Aig::walk) of the cone of a root found.
///
/// The walk describes the cone for as long as the manager is not
/// compacted; building more nodes leaves it valid, since nodes never
/// change.
#[derive(Clone, Debug)]
pub struct ConeWalk {
    pub(crate) root: AigEdge,
    /// The cone's nodes, fanins before fanouts; the root's node is last.
    pub(crate) order: Vec<u32>,
    pub(crate) ands: usize,
    pub(crate) support: VarSet,
}

impl ConeWalk {
    /// The walked root.
    #[must_use]
    pub fn root(&self) -> AigEdge {
        self.root
    }

    /// The cone's nodes in topological order (fanins before fanouts),
    /// the root's node last: the depth-first post-order that finishes
    /// each AND node's second fanin before its first.
    #[must_use]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The number of AND nodes in the cone.
    #[must_use]
    pub fn ands(&self) -> usize {
        self.ands
    }

    /// The input variables the root structurally depends on.
    #[must_use]
    pub fn support(&self) -> &VarSet {
        &self.support
    }
}

impl Aig {
    /// Walks the cone of `root` once, depth first, and returns its
    /// topological order, AND count and support.
    ///
    /// # Examples
    ///
    /// ```
    /// use hqs_aig::Aig;
    /// use hqs_base::Var;
    ///
    /// let mut aig = Aig::new();
    /// let x = aig.input(Var::new(0));
    /// let y = aig.input(Var::new(1));
    /// let f = aig.or(x, y);
    /// let walk = aig.walk(f);
    /// assert_eq!(walk.ands(), 1);
    /// assert_eq!(walk.support().len(), 2);
    /// assert_eq!(aig.occurrence_counts(&walk, &[Var::new(0)]), vec![2]);
    /// ```
    pub fn walk(&mut self, root: AigEdge) -> ConeWalk {
        self.begin_traversal();
        let mut walk = ConeWalk {
            root,
            order: Vec::new(),
            ands: 0,
            support: VarSet::new(),
        };
        // Entries are node indices shifted left once; a set low bit marks
        // an AND node whose fanins are all done, so it goes to the order.
        let mut stack = vec![root.node() << 1];
        while let Some(entry) = stack.pop() {
            let idx = entry >> 1;
            if entry & 1 == 1 {
                walk.order.push(idx);
                continue;
            }
            if !self.mark(idx) {
                continue;
            }
            match self.node(AigEdge::new(idx, false)) {
                AigNode::And(f0, f1) => {
                    walk.ands += 1;
                    stack.push(entry | 1);
                    // f1's subtree is finished first.
                    for fanin in [f0.node(), f1.node()] {
                        if !self.is_marked(fanin) {
                            stack.push(fanin << 1);
                        }
                    }
                }
                AigNode::Input(var) => {
                    walk.support.insert(var);
                    walk.order.push(idx);
                }
                AigNode::True => walk.order.push(idx),
            }
        }
        walk
    }

    /// For each of `vars`, the number of cone nodes whose support
    /// contains it — the cofactor-cost estimate the elimination loop
    /// orders its eliminations by.
    ///
    /// One forward sweep over the walk's order per 64 variables; each
    /// node's mask of those variables lives in its memo slot, written
    /// before any fanout reads it.
    pub fn occurrence_counts(&mut self, walk: &ConeWalk, vars: &[Var]) -> Vec<usize> {
        self.begin_traversal();
        let mut counts = vec![0usize; vars.len()];
        for (chunk, first) in vars.chunks(64).zip((0..).step_by(64)) {
            for &idx in &walk.order {
                let mask = match self.node(AigEdge::new(idx, false)) {
                    AigNode::True => 0,
                    AigNode::Input(v) => chunk.iter().position(|&c| c == v).map_or(0, |b| 1 << b),
                    AigNode::And(f0, f1) => self.memo_word(f0.node()) | self.memo_word(f1.node()),
                };
                self.set_memo_word(idx, mask);
                let mut bits = mask;
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    if let Some(count) = counts.get_mut(first + bit) {
                        *count += 1;
                    }
                    bits &= bits - 1;
                }
            }
        }
        counts
    }
}
