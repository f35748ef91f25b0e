//! Syntactic unit/pure detection on AIGs (Theorem 6 of the paper).
//!
//! Given a matrix `φ` represented as an AIG with output edge `root`, the
//! traversal classifies every input variable `v` by inspecting the
//! inverter parities of the paths from the input node `n_v` to the output:
//!
//! * a path with **no** negation ⇒ `v` is *positive unit* (`φ → v`),
//! * a path whose only negation sits directly on the edge incident to
//!   `n_v` ⇒ `v` is *negative unit*,
//! * **all** paths carry an even number of negations ⇒ *positive pure*,
//! * **all** paths carry an odd number ⇒ *negative pure*.
//!
//! The check is sufficient but not necessary (see Example 4 of the paper);
//! it runs in `O(|φ| + |V|)` as one reverse sweep over a
//! [walk](Aig::walk) of the cone. [`VarStatus::step`] is Theorem 5's table
//! of what each classification licenses, and [`UnitPureStatus::batch`]
//! collects every step one classification licenses, which both
//! elimination loops (DQBF and QBF) apply together.
//!
//! Applying the whole batch at once is sound because unit and pure are
//! semantic properties that survive substituting constants for *other*
//! variables: positive unit means `φ[0/v] ≡ 0` and positive pure means
//! `φ[0/v] ≤ φ[1/v]`, and both stay true when the same constant replaces
//! some `w ≠ v` on both sides. So after any subset of the batch has been
//! applied, every remaining step is still licensed by Theorem 5, and the
//! batch equals applying its steps one at a time in any order.

use crate::{Aig, AigEdge, AigNode, ConeWalk};
use hqs_base::Var;
use hqs_cnf::Quantifier;

/// Classification of one variable by the syntactic traversal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VarStatus {
    /// `φ[0/v]` is unsatisfiable: the variable can be fixed to 1 (if
    /// existential) or decides the formula (if universal).
    PositiveUnit,
    /// `φ[1/v]` is unsatisfiable.
    NegativeUnit,
    /// Every path has even inverter parity: fixing `v := 1` (existential)
    /// or `v := 0` (universal) preserves truth.
    PositivePure,
    /// Every path has odd inverter parity.
    NegativePure,
    /// The traversal could not classify the variable.
    Unknown,
}

/// What Theorem 5 does with a classified variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnitPureStep {
    /// The variable is a universal unit: the formula is false.
    Refute,
    /// Replace the variable by this constant and drop it from the prefix.
    Assign(bool),
}

/// Every step Theorem 5 licenses from one classification, taken
/// together ([`UnitPureStatus::batch`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum UnitPureBatch {
    /// Some universal is unit: the formula is false, and nothing is
    /// assigned.
    Refute,
    /// Replace each variable by its constant, all at once (one
    /// [`Aig::compose_many`]), and drop it from the prefix. Sorted by
    /// variable; empty when nothing applies.
    Assign(Vec<(Var, bool)>),
}

impl VarStatus {
    /// Theorem 5's table: the step for a variable of this status bound
    /// by `quantifier`, or `None` for [`VarStatus::Unknown`].
    ///
    /// | status        | ∃        | ∀        |
    /// |---------------|----------|----------|
    /// | positive unit | assign 1 | refute   |
    /// | negative unit | assign 0 | refute   |
    /// | positive pure | assign 1 | assign 0 |
    /// | negative pure | assign 0 | assign 1 |
    #[must_use]
    pub fn step(self, quantifier: Quantifier) -> Option<UnitPureStep> {
        use Quantifier::{Existential, Universal};
        match (quantifier, self) {
            (_, VarStatus::Unknown) => None,
            (Universal, VarStatus::PositiveUnit | VarStatus::NegativeUnit) => {
                Some(UnitPureStep::Refute)
            }
            (Existential, VarStatus::PositiveUnit | VarStatus::PositivePure)
            | (Universal, VarStatus::NegativePure) => Some(UnitPureStep::Assign(true)),
            (Existential, VarStatus::NegativeUnit | VarStatus::NegativePure)
            | (Universal, VarStatus::PositivePure) => Some(UnitPureStep::Assign(false)),
        }
    }
}

/// Result of [`Aig::unit_pure`]: the classified variables.
#[derive(Clone, Debug, Default)]
pub struct UnitPureStatus {
    /// Every classified input of the cone, sorted by variable.
    statuses: Vec<(Var, VarStatus)>,
}

impl UnitPureStatus {
    /// Returns the classification of `var` (inputs outside the cone are
    /// [`VarStatus::Unknown`]).
    #[must_use]
    pub fn status(&self, var: Var) -> VarStatus {
        self.statuses
            .binary_search_by_key(&var, |&(v, _)| v)
            .ok()
            .and_then(|pos| self.statuses.get(pos))
            .map_or(VarStatus::Unknown, |&(_, status)| status)
    }

    /// Iterates over all variables with a non-`Unknown` classification,
    /// in variable order.
    pub fn classified(&self) -> impl Iterator<Item = (Var, VarStatus)> + '_ {
        self.statuses.iter().copied()
    }

    /// Returns `true` if no variable was classified.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.statuses.is_empty()
    }

    /// Every step Theorem 5 licenses from this classification, to be
    /// applied together (the module docs give the soundness argument).
    /// `quantifier_of` names each variable's quantifier in the current
    /// prefix; variables it maps to `None` are skipped. A universal unit
    /// anywhere refutes the formula before any assignment.
    pub fn batch(&self, quantifier_of: impl Fn(Var) -> Option<Quantifier>) -> UnitPureBatch {
        let mut assigns = Vec::new();
        for (var, status) in self.classified() {
            match quantifier_of(var).and_then(|q| status.step(q)) {
                Some(UnitPureStep::Refute) => return UnitPureBatch::Refute,
                Some(UnitPureStep::Assign(value)) => assigns.push((var, value)),
                None => {}
            }
        }
        UnitPureBatch::Assign(assigns)
    }
}

/// Per-node flags of the reverse sweep, one bit each in the node's memo
/// word.
///
/// `CLEAN` — reachable from the root along a path with zero negations;
/// `EVEN` / `ODD` — reachable with even/odd negation parity (`CLEAN`
/// implies `EVEN`); `NEG_UNIT` — reached by a complemented edge whose
/// source lies on an otherwise inverter-free path from the root. The
/// first three propagate to the fanins, `NEG_UNIT` describes the edges
/// into the node only.
#[derive(Clone, Copy)]
struct Flags(u64);

impl Flags {
    const CLEAN: u64 = 1;
    const EVEN: u64 = 2;
    const ODD: u64 = 4;
    const NEG_UNIT: u64 = 8;

    fn has(self, bit: u64) -> bool {
        self.0 & bit != 0
    }

    /// The flags a fanin reached through an edge from this node gets.
    fn through_edge(self, complemented: bool) -> Flags {
        if complemented {
            let mut flags = 0;
            if self.has(Self::CLEAN) {
                flags |= Self::NEG_UNIT;
            }
            if self.has(Self::ODD) {
                flags |= Self::EVEN;
            }
            if self.has(Self::EVEN) {
                flags |= Self::ODD;
            }
            Flags(flags)
        } else {
            Flags(self.0 & !Self::NEG_UNIT)
        }
    }

    /// Unit status takes precedence over purity, mirroring the priority
    /// HQS applies when eliminating.
    fn status(self) -> VarStatus {
        if self.has(Self::CLEAN) {
            VarStatus::PositiveUnit
        } else if self.has(Self::NEG_UNIT) {
            VarStatus::NegativeUnit
        } else if self.has(Self::EVEN) && !self.has(Self::ODD) {
            VarStatus::PositivePure
        } else if self.has(Self::ODD) && !self.has(Self::EVEN) {
            VarStatus::NegativePure
        } else {
            VarStatus::Unknown
        }
    }
}

impl Aig {
    /// Runs the Theorem-6 syntactic unit/pure detection on a walked cone.
    ///
    /// Unit detection: an input reached by a completely inverter-free path
    /// is positive unit; one whose only inverter is the final edge into the
    /// input is negative unit. Purity: an input is positive (negative) pure
    /// if every path to it has even (odd) parity. Unit status takes
    /// precedence over purity in the returned classification.
    ///
    /// One sweep over the walk's order in reverse: every fanout of a node
    /// comes before it, so the node's flags, kept in its memo slot, are
    /// final when the sweep reaches it.
    pub fn unit_pure(&mut self, walk: &ConeWalk) -> UnitPureStatus {
        self.begin_traversal();
        let root = walk.root;
        let seed = Flags(Flags::CLEAN | Flags::EVEN).through_edge(root.is_complemented());
        self.or_memo_word(root.node(), seed.0);
        let mut statuses = Vec::new();
        for &idx in walk.order.iter().rev() {
            let flags = Flags(self.memo_word(idx));
            match self.node(AigEdge::new(idx, false)) {
                AigNode::And(f0, f1) => {
                    for fanin in [f0, f1] {
                        let reached = flags.through_edge(fanin.is_complemented());
                        self.or_memo_word(fanin.node(), reached.0);
                    }
                }
                AigNode::Input(var) => match flags.status() {
                    VarStatus::Unknown => {}
                    status => statuses.push((var, status)),
                },
                AigNode::True => {}
            }
        }
        statuses.sort_unstable_by_key(|&(var, _)| var);
        UnitPureStatus { statuses }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Theorem-6 classification of `root`, from one walk.
    fn classify(aig: &mut Aig, root: AigEdge) -> UnitPureStatus {
        let walk = aig.walk(root);
        aig.unit_pure(&walk)
    }

    #[test]
    fn theorem_5_table_covers_every_status_and_quantifier() {
        use Quantifier::{Existential, Universal};
        use UnitPureStep::{Assign, Refute};
        let table = [
            (VarStatus::PositiveUnit, Some(Assign(true)), Some(Refute)),
            (VarStatus::NegativeUnit, Some(Assign(false)), Some(Refute)),
            (
                VarStatus::PositivePure,
                Some(Assign(true)),
                Some(Assign(false)),
            ),
            (
                VarStatus::NegativePure,
                Some(Assign(false)),
                Some(Assign(true)),
            ),
            (VarStatus::Unknown, None, None),
        ];
        for (status, existential, universal) in table {
            assert_eq!(status.step(Existential), existential, "∃ {status:?}");
            assert_eq!(status.step(Universal), universal, "∀ {status:?}");
        }
    }

    #[test]
    fn batch_skips_unquantified_variables() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let f = aig.and(x, !y);
        let status = classify(&mut aig, f);
        // x is positive unit but free; y is negative unit and universal.
        let batch = status.batch(|v| (v == Var::new(1)).then_some(Quantifier::Universal));
        assert_eq!(batch, UnitPureBatch::Refute);
        assert_eq!(status.batch(|_| None), UnitPureBatch::Assign(Vec::new()));
    }

    #[test]
    fn batch_takes_every_licensed_step() {
        // x ∧ (y ∨ ¬z): x positive unit, y positive pure, z negative pure.
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let z = aig.input(Var::new(2));
        let clause = aig.or(y, !z);
        let f = aig.and(x, clause);
        let status = classify(&mut aig, f);
        let batch = status.batch(|v| match v.index() {
            0 | 1 => Some(Quantifier::Existential),
            _ => Some(Quantifier::Universal),
        });
        let expected = vec![
            (Var::new(0), true),
            (Var::new(1), true),
            (Var::new(2), true),
        ];
        assert_eq!(batch, UnitPureBatch::Assign(expected));
        let constants = [Var::new(0), Var::new(1), Var::new(2)]
            .into_iter()
            .map(|var| (var, Aig::TRUE))
            .collect();
        let walk = aig.walk(f);
        assert_eq!(aig.compose_many(&walk, &constants), Aig::TRUE);
    }

    #[test]
    fn universal_unit_refutes_before_any_assignment() {
        // y ∧ x with existential y (var 0) sorting before universal x.
        let mut aig = Aig::new();
        let y = aig.input(Var::new(0));
        let x = aig.input(Var::new(1));
        let f = aig.and(y, x);
        let status = classify(&mut aig, f);
        let batch = status.batch(|v| {
            Some(if v == Var::new(0) {
                Quantifier::Existential
            } else {
                Quantifier::Universal
            })
        });
        assert_eq!(batch, UnitPureBatch::Refute);
    }

    #[test]
    fn conjunction_inputs_are_positive_unit() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let f = aig.and(x, y);
        let status = classify(&mut aig, f);
        assert_eq!(status.status(Var::new(0)), VarStatus::PositiveUnit);
        assert_eq!(status.status(Var::new(1)), VarStatus::PositiveUnit);
    }

    #[test]
    fn negated_conjunct_is_negative_unit() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let f = aig.and(!x, y);
        let status = classify(&mut aig, f);
        assert_eq!(status.status(Var::new(0)), VarStatus::NegativeUnit);
        assert_eq!(status.status(Var::new(1)), VarStatus::PositiveUnit);
    }

    #[test]
    fn disjunction_inputs_are_positive_pure() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let f = aig.or(x, y);
        // or(x,y) = !(¬x ∧ ¬y): two negations on each path ⇒ even parity,
        // but not clean ⇒ positive pure, not unit.
        let status = classify(&mut aig, f);
        assert_eq!(status.status(Var::new(0)), VarStatus::PositivePure);
        assert_eq!(status.status(Var::new(1)), VarStatus::PositivePure);
    }

    #[test]
    fn negated_disjunct_is_negative_pure() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let f = aig.or(!x, y);
        let status = classify(&mut aig, f);
        assert_eq!(status.status(Var::new(0)), VarStatus::NegativePure);
    }

    #[test]
    fn xor_input_is_unknown() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let f = aig.xor(x, y);
        let status = classify(&mut aig, f);
        assert_eq!(status.status(Var::new(0)), VarStatus::Unknown);
        assert_eq!(status.status(Var::new(1)), VarStatus::Unknown);
    }

    #[test]
    fn variable_outside_cone_is_unknown() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let _y = aig.input(Var::new(1));
        let status = classify(&mut aig, x);
        assert_eq!(status.status(Var::new(1)), VarStatus::Unknown);
        assert_eq!(status.status(Var::new(0)), VarStatus::PositiveUnit);
    }

    #[test]
    fn complemented_root_flips_everything() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let f = aig.and(x, y);
        // ¬(x ∧ y): paths have one negation ⇒ odd ⇒ negative pure; the
        // negation is not adjacent to the inputs, so not negative unit.
        let status = classify(&mut aig, !f);
        assert_eq!(status.status(Var::new(0)), VarStatus::NegativePure);
        assert_eq!(status.status(Var::new(1)), VarStatus::NegativePure);
    }

    #[test]
    fn root_is_single_input() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let status = classify(&mut aig, x);
        assert_eq!(status.status(Var::new(0)), VarStatus::PositiveUnit);
        let status = classify(&mut aig, !x);
        assert_eq!(status.status(Var::new(0)), VarStatus::NegativeUnit);
    }

    /// Example 4 of the paper, on the CNF of Fig. 1:
    /// φ = (y1∨x1)(y1∨x2)(y2∨¬x1)(y2∨¬x2). With the straightforward AIG
    /// construction, the syntactic check classifies y2 (and y1) as positive
    /// pure but fails for x1 and x2, whose paths have mixed inverter
    /// parity.
    #[test]
    fn paper_example_4_formula() {
        let mut aig = Aig::new();
        let x1 = aig.input(Var::new(0));
        let x2 = aig.input(Var::new(1));
        let y1 = aig.input(Var::new(2));
        let y2 = aig.input(Var::new(3));
        let c1 = aig.and(!y1, !x1); // ¬c1 = y1∨x1
        let c2 = aig.and(!y1, !x2);
        let c3 = aig.and(x1, !y2); // ¬c3 = ¬x1∨y2
        let c4 = aig.and(x2, !y2);
        let left = aig.and(!c1, !c2);
        let right = aig.and(!c3, !c4);
        let phi = aig.and(left, right);
        let status = classify(&mut aig, phi);
        assert_eq!(status.status(Var::new(3)), VarStatus::PositivePure, "y2");
        assert_eq!(status.status(Var::new(2)), VarStatus::PositivePure, "y1");
        assert_eq!(status.status(Var::new(0)), VarStatus::Unknown, "x1");
        assert_eq!(status.status(Var::new(1)), VarStatus::Unknown, "x2");
    }

    /// The incompleteness phenomenon of Example 4: a variable that is
    /// semantically unit can be missed when the AIG structure hides it —
    /// here φ = (y ⊕ x) ⊕ x ≡ y, but the traversal sees mixed parities.
    #[test]
    fn syntactic_check_is_incomplete() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let inner = aig.xor(y, x);
        let phi = aig.xor(inner, x);
        // Semantically φ ≡ y (structural hashing may or may not collapse
        // it; the test only makes sense if it did not).
        if phi != y {
            let status = classify(&mut aig, phi);
            assert_eq!(status.status(Var::new(1)), VarStatus::Unknown);
            // ... even though y is semantically positive unit:
            assert!(!aig.eval(phi, |_| false));
        }
    }

    /// Cross-check the semantic definition (Definition 5) against the
    /// syntactic classification on random small AIGs: syntactic claims must
    /// always be semantically true.
    #[test]
    fn syntactic_implies_semantic() {
        use hqs_base::Rng;
        let mut rng = Rng::seed_from_u64(0xD51);
        for _ in 0..200 {
            let mut aig = Aig::new();
            let num_vars = 4u32;
            let mut pool: Vec<AigEdge> = (0..num_vars).map(|i| aig.input(Var::new(i))).collect();
            for _ in 0..6 {
                let a = pool[rng.gen_range(0..pool.len())];
                let b = pool[rng.gen_range(0..pool.len())];
                let a = a.xor_complement(rng.gen_bool(0.5));
                let b = b.xor_complement(rng.gen_bool(0.5));
                pool.push(aig.and(a, b));
            }
            let root = (*pool.last().unwrap()).xor_complement(rng.gen_bool(0.5));
            let status = classify(&mut aig, root);
            for v in 0..num_vars {
                let var = Var::new(v);
                // Truth table of root, cofactors on var.
                let mut f0_any_true = false;
                let mut f1_any_true = false;
                let mut f0_gt_f1 = false; // φ[0/v] ∧ ¬φ[1/v] satisfiable
                let mut f1_gt_f0 = false;
                for bits in 0u32..(1 << num_vars) {
                    if bits >> v & 1 == 1 {
                        continue;
                    }
                    let v0 = aig.eval(root, |w| {
                        if w == var {
                            false
                        } else {
                            bits >> w.index() & 1 == 1
                        }
                    });
                    let v1 = aig.eval(root, |w| {
                        if w == var {
                            true
                        } else {
                            bits >> w.index() & 1 == 1
                        }
                    });
                    f0_any_true |= v0;
                    f1_any_true |= v1;
                    f0_gt_f1 |= v0 && !v1;
                    f1_gt_f0 |= v1 && !v0;
                }
                match status.status(var) {
                    VarStatus::PositiveUnit => assert!(!f0_any_true, "φ[0/v] must be UNSAT"),
                    VarStatus::NegativeUnit => assert!(!f1_any_true, "φ[1/v] must be UNSAT"),
                    VarStatus::PositivePure => assert!(!f0_gt_f1, "φ[0/v]∧¬φ[1/v] must be UNSAT"),
                    VarStatus::NegativePure => assert!(!f1_gt_f0, "φ[1/v]∧¬φ[0/v] must be UNSAT"),
                    VarStatus::Unknown => {}
                }
            }
        }
    }
}
