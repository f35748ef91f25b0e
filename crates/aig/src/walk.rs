//! One walk of a cone, and the sweeps over it.
//!
//! Both phases of the elimination loop need the same facts about the
//! matrix between two steps: its support, its AND count (for
//! [`Aig::reduce`]), the Theorem-6 status of every input
//! ([`Aig::unit_pure`]) and the occurrence cost of the variables they
//! may eliminate next ([`Aig::occurrence_counts`]). [`Aig::walk`] finds
//! the cone's nodes, AND count and support in one backward scan of the
//! arena from the root's index, and lists the nodes in ascending index.
//! Every AND node's fanins have smaller indices than it, so that is a
//! topological order, and each sweep over it reads the node arena and
//! the memo front to back. Everything else that reads or rebuilds the
//! cone is a linear sweep over that order: the statuses
//! and the costs; the cofactor pair and the substitution
//! ([`Aig::cofactors`], [`Aig::compose_many`]), which build the
//! elimination steps before the QBF finish and unit/pure; the finish's
//! block elimination ([`Aig::quantify_block`]); the compaction in
//! [`Aig::reduce`], which mints the cone in that order, so a compacted
//! arena keeps it; and the Tseitin encoding. So no kernel's stack use
//! depends on the depth of the cone. The walk marks the cone with the
//! stamps of the traversal memo, and the sweeps keep their per-node
//! images or words in its slots, so nothing here allocates an array
//! sized to the arena.

use crate::{Aig, AigEdge, AigNode};
use hqs_base::{Var, VarSet};
use hqs_cnf::Quantifier;
use std::collections::HashMap;

/// The bits of a [`Aig::quantify_block`] memo word that hold the node's
/// mask of block variables; the node's position in the order sits above
/// them.
const BLOCK_MASK: u64 = (1 << Aig::MAX_BLOCK) - 1;

/// What one [walk](Aig::walk) of the cone of a root found.
///
/// The walk describes the cone for as long as the manager is not
/// compacted; building more nodes leaves it valid, since nodes never
/// change.
#[derive(Clone, Debug)]
pub struct ConeWalk {
    pub(crate) root: AigEdge,
    /// The cone's nodes in ascending index; the root's node is last.
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

    /// The cone's nodes in ascending node index, the root's node last.
    /// The arena is topologically ordered, so every fanin comes before
    /// its fanouts.
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
    /// Walks the cone of `root` once and returns its nodes in ascending
    /// node index, which is a topological order, with its AND count and
    /// support.
    ///
    /// One scan down the arena from the root's index: it marks the root,
    /// and each marked node it reaches marks its two fanins, which have
    /// smaller indices, so no stack is needed. The scan costs O(root
    /// index), not O(cone): it also steps over the garbage below the
    /// root. [`reduce`](Aig::reduce) bounds that, since the elimination
    /// loop compacts whenever the arena holds more than four times the
    /// live cone.
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
        // Every fanout of a node has a larger index than the node, so the
        // scan down from the root marks a node before it reaches it.
        self.mark(root.node());
        for idx in (0..=root.node()).rev() {
            if !self.is_marked(idx) {
                continue;
            }
            walk.order.push(idx);
            match self.node(AigEdge::new(idx, false)) {
                AigNode::And(f0, f1) => {
                    walk.ands += 1;
                    self.mark(f0.node());
                    self.mark(f1.node());
                }
                AigNode::Input(var) => {
                    walk.support.insert(var);
                }
                AigNode::True => {}
            }
        }
        walk.order.reverse();
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

    /// Both cofactors `(f[0/var], f[1/var])` of the walked root `f`, from
    /// one forward sweep over the walk's order that maps `var`'s input to
    /// the pair `(false, true)` and keeps each node's two images in its
    /// memo slot. A `var` outside the support returns the root twice and
    /// mints no node. The walk must describe a cone of this manager, that
    /// is, no compaction since it was taken.
    pub fn cofactors(&mut self, walk: &ConeWalk, var: Var) -> (AigEdge, AigEdge) {
        let pair = self.image_sweep(walk, |v| (v == var).then_some((Self::FALSE, Self::TRUE)));
        self.debug_audit("after cofactors");
        pair
    }

    /// Substitutes `map[v]` for every input `v` of the walked root that
    /// `map` names, all at once: the sweep of [`Aig::cofactors`] with one
    /// image per node. Unlike one variable after another, the
    /// simultaneous substitution is safe when the replacements mention
    /// substituted variables. A map that names no support variable
    /// returns the root and mints no node. The walk must describe a cone
    /// of this manager.
    pub fn compose_many(&mut self, walk: &ConeWalk, map: &HashMap<Var, AigEdge>) -> AigEdge {
        let (image, _) = self.image_sweep(walk, |v| map.get(&v).map(|&e| (e, e)));
        self.debug_audit("after compose_many");
        image
    }

    /// The sweep behind [`Aig::cofactors`] and [`Aig::compose_many`]:
    /// builds each cone node's two images, fanins before fanouts, and
    /// returns the root's. An input `v` has the images `leaf(v)`, or is
    /// its own when that is `None`. An AND node rebuilds its first image
    /// from its fanins' first images, then its second from their second
    /// ones ([`Aig::rebuild`]), and calls `and` once when both take the
    /// same operands. The images live in the node's memo slot; an input
    /// that `leaf` leaves alone, and the constant, are their own images
    /// and leave it unwritten.
    fn image_sweep(
        &mut self,
        walk: &ConeWalk,
        leaf: impl Fn(Var) -> Option<(AigEdge, AigEdge)>,
    ) -> (AigEdge, AigEdge) {
        self.begin_traversal();
        for &idx in &walk.order {
            let node = AigEdge::new(idx, false);
            let images = match self.node(node) {
                AigNode::True => None,
                AigNode::Input(v) => leaf(v),
                AigNode::And(f0, f1) => {
                    let (a0, a1) = self.images(f0);
                    let (b0, b1) = self.images(f1);
                    let c0 = self.rebuild(node, (f0, f1), (a0, b0));
                    let c1 = if (a1, b1) == (a0, b0) {
                        c0
                    } else {
                        self.rebuild(node, (f0, f1), (a1, b1))
                    };
                    Some((c0, c1))
                }
            };
            if let Some((c0, c1)) = images {
                self.memoise(idx, c0, c1);
            }
        }
        self.images(walk.root)
    }

    /// The sweep behind the compaction in [`Aig::reduce`]: rebuilds the
    /// walked cone in `fresh`, fanins before fanouts, and returns the
    /// root's image there. Each node's image in `fresh` lives in its memo
    /// slot; the constant node, the one node left unwritten, is node 0 in
    /// both managers.
    pub(crate) fn compact_sweep(&mut self, walk: &ConeWalk, fresh: &mut Aig) -> AigEdge {
        self.begin_traversal();
        for &idx in &walk.order {
            let image = match self.node(AigEdge::new(idx, false)) {
                AigNode::True => continue,
                AigNode::Input(v) => fresh.input(v),
                AigNode::And(f0, f1) => {
                    let (new0, _) = self.images(f0);
                    let (new1, _) = self.images(f1);
                    fresh.and(new0, new1)
                }
            };
            self.memoise(idx, image, image);
        }
        self.images(walk.root).0
    }

    /// The most variables [`quantify_block`](Aig::quantify_block) takes
    /// in one sweep: a node's mask of block variables is four bits of its
    /// memo word, and it keeps at most 2^4 = 16 images.
    pub const MAX_BLOCK: usize = 4;

    /// Quantifies the block `vars`, 1 to [`MAX_BLOCK`](Aig::MAX_BLOCK)
    /// distinct variables, out of the walked cone: `∀vars. f` or
    /// `∃vars. f` for `f` the walk's root.
    ///
    /// One forward sweep over the walk's order builds each node's images
    /// under the 2^k assignments of the block, where bit `i` of an
    /// assignment is the value of `vars[i]`. A node with no block
    /// variable in its support is its own image and keeps nothing. A node
    /// that depends on the block builds its images over the block
    /// variables in its own support and copies the rest. Its mask of
    /// block variables and its position in the order sit in its memo word,
    /// and its images in a scratch buffer at that position, so the scratch
    /// is sized to the cone, not to the arena. The root's images are then
    /// combined with AND (∀) or OR (∃): first the pairs that differ only
    /// in `vars[0]`, then those that differ in `vars[1]`, and so on, which
    /// is the order one-variable steps in `vars` order, each an AND or OR
    /// of a [`cofactors`](Aig::cofactors) pair, combine them.
    ///
    /// A block with no variable in the support returns the root and mints
    /// no node. The walk must describe a cone of this manager, that is, no
    /// compaction by [`reduce`](Aig::reduce) since it was taken.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or holds more than `MAX_BLOCK` variables.
    ///
    /// # Examples
    ///
    /// ```
    /// use hqs_aig::Aig;
    /// use hqs_base::Var;
    /// use hqs_cnf::Quantifier;
    ///
    /// let mut aig = Aig::new();
    /// let x = aig.input(Var::new(0));
    /// let y = aig.input(Var::new(1));
    /// let z = aig.input(Var::new(2));
    /// let xy = aig.and(x, y);
    /// let f = aig.or(xy, z);
    /// let walk = aig.walk(f);
    /// let block = [Var::new(0), Var::new(1)];
    /// // ∃x y. (x ∧ y) ∨ z ≡ true, and ∀x y. (x ∧ y) ∨ z ≡ z
    /// assert_eq!(aig.quantify_block(&walk, &block, Quantifier::Existential), Aig::TRUE);
    /// assert_eq!(aig.quantify_block(&walk, &block, Quantifier::Universal), z);
    /// ```
    pub fn quantify_block(
        &mut self,
        walk: &ConeWalk,
        vars: &[Var],
        quantifier: Quantifier,
    ) -> AigEdge {
        assert!(
            (1..=Self::MAX_BLOCK).contains(&vars.len()),
            "a block holds 1 to {} variables, not {}",
            Self::MAX_BLOCK,
            vars.len()
        );
        debug_assert!(
            vars.iter()
                .enumerate()
                .all(|(i, v)| !vars.iter().take(i).any(|w| w == v)),
            "block variables are distinct"
        );
        let result = self.quantify_block_sweep(walk, vars, quantifier);
        self.debug_audit("after quantify_block");
        result
    }

    /// The sweep and the combination of [`Aig::quantify_block`], for a
    /// block of 1 to [`MAX_BLOCK`](Aig::MAX_BLOCK) variables.
    fn quantify_block_sweep(
        &mut self,
        walk: &ConeWalk,
        vars: &[Var],
        quantifier: Quantifier,
    ) -> AigEdge {
        let k = vars.len();
        let width = 1usize << k;
        self.begin_traversal();
        self.block_images.resize(walk.order.len() << k, Self::TRUE);
        for (pos, &idx) in walk.order.iter().enumerate() {
            let node = AigEdge::new(idx, false);
            let base = pos << k;
            let mask = match self.node(node) {
                AigNode::True => 0,
                AigNode::Input(v) => match vars.iter().position(|&c| c == v) {
                    Some(bit) => {
                        let images = self.block_images.iter_mut().skip(base).take(width);
                        for (a, image) in images.enumerate() {
                            *image = if a >> bit & 1 == 1 {
                                Self::TRUE
                            } else {
                                Self::FALSE
                            };
                        }
                        1 << bit
                    }
                    None => 0,
                },
                AigNode::And(f0, f1) => {
                    let (w0, w1) = (self.memo_word(f0.node()), self.memo_word(f1.node()));
                    let mask = (w0 | w1) & BLOCK_MASK;
                    if mask != 0 {
                        for a in 0..width {
                            let image = if a as u64 & !mask == 0 {
                                let new0 = self.block_image(f0, w0, k, a);
                                let new1 = self.block_image(f1, w1, k, a);
                                self.rebuild(node, (f0, f1), (new0, new1))
                            } else {
                                // Already built: the same assignment of the
                                // block variables this node depends on.
                                let own = a & mask as usize;
                                self.block_images.get(base | own).copied().unwrap_or(node)
                            };
                            if let Some(slot) = self.block_images.get_mut(base | a) {
                                *slot = image;
                            }
                        }
                    }
                    mask
                }
            };
            if mask != 0 {
                self.set_memo_word(idx, (pos as u64) << Self::MAX_BLOCK | mask);
            }
        }
        let root = walk.root;
        let word = self.memo_word(root.node());
        let mut images = [root; 1 << Self::MAX_BLOCK];
        for (a, image) in images.iter_mut().take(width).enumerate() {
            *image = self.block_image(root, word, k, a);
        }
        let combine = match quantifier {
            Quantifier::Universal => Aig::and,
            Quantifier::Existential => Aig::or,
        };
        let mut len = width;
        while len > 1 {
            len /= 2;
            for j in 0..len {
                if let (Some(&lo), Some(&hi)) = (images.get(2 * j), images.get(2 * j + 1)) {
                    let joined = combine(self, lo, hi);
                    if let Some(slot) = images.get_mut(j) {
                        *slot = joined;
                    }
                }
            }
        }
        images.first().copied().unwrap_or(root)
    }

    /// The image of `fanin` under block assignment `a`, from the memo word
    /// `word` of its node: the edge itself when its node does not depend
    /// on the block.
    fn block_image(&self, fanin: AigEdge, word: u64, k: usize, a: usize) -> AigEdge {
        if word & BLOCK_MASK == 0 {
            return fanin;
        }
        let base = ((word >> Self::MAX_BLOCK) as usize) << k;
        self.block_images
            .get(base | a)
            .map_or(fanin, |image| image.xor_complement(fanin.is_complemented()))
    }
}
