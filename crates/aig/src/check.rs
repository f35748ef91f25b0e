//! Runtime structural-invariant audit of the AIG manager.
//!
//! Theorem 6's linear-time unit/pure detection — and every elimination
//! step built on [`Aig::and`] — is only sound while the manager keeps its
//! structural guarantees: an acyclic, topologically ordered arena, a
//! strash table that exactly mirrors the live AND nodes, canonical
//! operand order, no node the one-level simplification rules would have
//! folded, and a bijective input registry. This module makes those
//! guarantees machine-checkable.
//!
//! [`Aig::check_invariants`] performs the full audit in one arena pass
//! and is cheap enough to call from tests after every operation; the
//! mutating operations additionally run it (or a constant-time local
//! variant, for [`Aig::and`]) under `debug_assert!`, so any corruption is
//! caught at the mutation site in debug and `-C debug-assertions` builds.
//! The `--paranoid` solver option re-runs the full audit after every
//! elimination step in release builds too.

use crate::{Aig, AigEdge, AigNode};
use hqs_base::InvariantViolation;

impl Aig {
    /// Audits every structural invariant of the manager.
    ///
    /// Checked, in one pass over the arena:
    ///
    /// 1. **arena** — node 0 is the constant; AND fanins reference
    ///    strictly smaller indices (so the arena is topologically ordered
    ///    and therefore acyclic).
    /// 2. **canonical-order** — AND operands satisfy
    ///    `fanin0.code() <= fanin1.code()`.
    /// 3. **folded** — no AND node survives that the one-level
    ///    simplification rules fold away (constant operand, `x ∧ x`,
    ///    `x ∧ ¬x`).
    /// 4. **strash** — the structural-hash table exactly mirrors the live
    ///    AND nodes: every AND node has its entry, and there are no
    ///    stale or aliased entries.
    /// 5. **inputs** — the input registry is a bijection between
    ///    variables and `Input` nodes.
    ///
    /// Returns the first violation found. Runs in `O(nodes)`.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let err = |component, detail| Err(InvariantViolation::new(component, detail));
        if self.nodes.is_empty() || self.nodes[0] != AigNode::True {
            return err("arena", "node 0 must be the constant-true node".to_string());
        }
        let mut and_count = 0usize;
        let mut input_count = 0usize;
        for (idx, &node) in self.nodes.iter().enumerate() {
            match node {
                AigNode::True => {
                    if idx != 0 {
                        return err("arena", format!("duplicate constant node at index {idx}"));
                    }
                }
                AigNode::Input(var) => {
                    input_count += 1;
                    match self.inputs.get(&var) {
                        Some(&mapped) if mapped as usize == idx => {}
                        Some(&mapped) => {
                            return err(
                                "inputs",
                                format!(
                                    "input node {idx} holds {var:?} but the registry maps it \
                                     to node {mapped}"
                                ),
                            );
                        }
                        None => {
                            return err(
                                "inputs",
                                format!("input node {idx} ({var:?}) missing from the registry"),
                            );
                        }
                    }
                }
                AigNode::And(f0, f1) => {
                    and_count += 1;
                    if f0.node() as usize >= idx || f1.node() as usize >= idx {
                        return err(
                            "arena",
                            format!(
                                "AND node {idx} references a non-smaller index \
                                 ({f0:?}, {f1:?}) — arena not topologically ordered"
                            ),
                        );
                    }
                    if f0.code() > f1.code() {
                        return err(
                            "canonical-order",
                            format!("AND node {idx} operands out of order ({f0:?}, {f1:?})"),
                        );
                    }
                    if f0.is_constant() || f1.is_constant() {
                        return err(
                            "folded",
                            format!("AND node {idx} has a constant operand ({f0:?}, {f1:?})"),
                        );
                    }
                    if f0 == f1 || f0 == !f1 {
                        return err(
                            "folded",
                            format!(
                                "AND node {idx} is idempotent or contradictory \
                                 ({f0:?}, {f1:?})"
                            ),
                        );
                    }
                    match self.strash.get(&(f0, f1)) {
                        Some(&mapped) if mapped as usize == idx => {}
                        Some(&mapped) => {
                            return err(
                                "strash",
                                format!(
                                    "AND node {idx} ({f0:?}, {f1:?}) aliased: strash maps the \
                                     pair to node {mapped}"
                                ),
                            );
                        }
                        None => {
                            return err(
                                "strash",
                                format!("AND node {idx} ({f0:?}, {f1:?}) missing from strash"),
                            );
                        }
                    }
                }
            }
        }
        if self.strash.len() != and_count {
            return err(
                "strash",
                format!(
                    "strash holds {} entries but the arena has {and_count} AND nodes \
                     (stale entries)",
                    self.strash.len()
                ),
            );
        }
        if self.inputs.len() != input_count {
            return err(
                "inputs",
                format!(
                    "registry holds {} variables but the arena has {input_count} input nodes",
                    self.inputs.len()
                ),
            );
        }
        Ok(())
    }

    /// Constant-time audit of a freshly built AND node, run under
    /// `debug_assert!` after every [`Aig::and`] (a full
    /// [`check_invariants`](Aig::check_invariants) there would make
    /// construction quadratic).
    pub(crate) fn debug_check_new_and(&self, edge: AigEdge) {
        if !cfg!(debug_assertions) || edge.is_constant() {
            return;
        }
        if let AigNode::And(f0, f1) = self.node(edge) {
            debug_assert!(
                f0.code() <= f1.code(),
                "post-and: operands out of order ({f0:?}, {f1:?})"
            );
            debug_assert!(
                f0.node() < edge.node() && f1.node() < edge.node(),
                "post-and: fanin does not precede node {} in the arena",
                edge.node()
            );
            debug_assert!(
                !f0.is_constant() && !f1.is_constant() && f0 != f1 && f0 != !f1,
                "post-and: node {} should have been folded ({f0:?}, {f1:?})",
                edge.node()
            );
            debug_assert!(
                self.strash.get(&(f0, f1)) == Some(&edge.node()),
                "post-and: strash does not mirror node {}",
                edge.node()
            );
        }
    }

    /// Panics with the violation if the full audit fails; used by the
    /// `debug_assert!` hooks on the compound operations and by the
    /// `--paranoid` solver mode.
    pub fn assert_invariants(&self, context: &str) {
        if let Err(violation) = self.check_invariants() {
            panic!("AIG invariant violated {context}: {violation}");
        }
    }

    /// Full audit compiled to a no-op unless debug assertions are on;
    /// called after every compound mutation (compose, quantify, compact).
    pub(crate) fn debug_audit(&self, context: &str) {
        if cfg!(debug_assertions) {
            self.assert_invariants(context);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqs_base::Var;

    fn sample() -> (Aig, AigEdge) {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let z = aig.input(Var::new(2));
        let f = aig.mux(x, y, z);
        let g = aig.xor(f, x);
        (aig, g)
    }

    #[test]
    fn healthy_manager_passes() {
        let (aig, _) = sample();
        assert_eq!(aig.check_invariants(), Ok(()));
        assert_eq!(Aig::new().check_invariants(), Ok(()));
    }

    #[test]
    fn corrupted_strash_is_caught() {
        // A stale entry (removed pair) and an aliased entry must both be
        // reported as strash violations.
        let (mut aig, _) = sample();
        let (&pair, &idx) = aig.strash.iter().next().expect("sample has AND nodes");
        aig.strash.remove(&pair);
        let missing = aig
            .check_invariants()
            .expect_err("missing entry undetected");
        assert_eq!(missing.component(), "strash");
        aig.strash.insert(pair, idx + 1);
        let aliased = aig
            .check_invariants()
            .expect_err("aliased entry undetected");
        assert!(aliased.component() == "strash" || aliased.component() == "folded");
    }

    #[test]
    fn stale_strash_entry_is_caught() {
        let (mut aig, _) = sample();
        let phantom = (AigEdge::new(2, false), AigEdge::new(4, true));
        if aig.strash.contains_key(&phantom) {
            return; // sample happened to build this pair; nothing to inject
        }
        aig.strash.insert(phantom, 1);
        let violation = aig.check_invariants().expect_err("stale entry undetected");
        assert_eq!(violation.component(), "strash");
    }

    #[test]
    fn cyclic_arena_is_caught() {
        let (mut aig, root) = sample();
        let idx = root.node() as usize;
        // Redirect a node's fanin to itself: breaks topological order.
        aig.nodes[idx] = AigNode::And(
            AigEdge::new(root.node(), false),
            AigEdge::new(root.node(), true),
        );
        let violation = aig.check_invariants().expect_err("cycle undetected");
        assert_eq!(violation.component(), "arena");
    }

    #[test]
    fn non_canonical_order_is_caught() {
        let (mut aig, root) = sample();
        let idx = root.node() as usize;
        if let AigNode::And(f0, f1) = aig.nodes[idx] {
            aig.nodes[idx] = AigNode::And(f1, f0);
            aig.strash.remove(&(f0, f1));
            aig.strash.insert((f1, f0), root.node());
            let violation = aig.check_invariants().expect_err("swap undetected");
            assert_eq!(violation.component(), "canonical-order");
        } else {
            panic!("sample root must be an AND node");
        }
    }

    #[test]
    fn foldable_node_is_caught() {
        let (mut aig, root) = sample();
        let idx = root.node() as usize;
        let x = AigEdge::new(1, false); // input node from sample()
        if let AigNode::And(f0, f1) = aig.nodes[idx] {
            aig.nodes[idx] = AigNode::And(x, !x);
            aig.strash.remove(&(f0, f1));
            aig.strash.insert((x, !x), root.node());
            let violation = aig
                .check_invariants()
                .expect_err("contradiction undetected");
            assert_eq!(violation.component(), "folded");
        } else {
            panic!("sample root must be an AND node");
        }
    }

    #[test]
    fn broken_input_registry_is_caught() {
        let (mut aig, _) = sample();
        let var = Var::new(0);
        let idx = aig.inputs[&var];
        aig.inputs.remove(&var);
        let missing = aig
            .check_invariants()
            .expect_err("unregistered input undetected");
        assert_eq!(missing.component(), "inputs");
        aig.inputs.insert(var, idx);
        aig.inputs.insert(Var::new(99), idx);
        let extra = aig
            .check_invariants()
            .expect_err("phantom registry entry undetected");
        assert_eq!(extra.component(), "inputs");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "AIG invariant violated")]
    fn assert_invariants_panics_on_corruption() {
        let (mut aig, _) = sample();
        let (&pair, _) = aig.strash.iter().next().expect("sample has AND nodes");
        aig.strash.remove(&pair);
        aig.assert_invariants("in test");
    }
}
