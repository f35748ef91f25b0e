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
//! it runs in `O(|φ| + |V|)`. [`VarStatus::step`] is Theorem 5's table
//! of what each classification licenses, and
//! [`UnitPureStatus::first_step`] picks the step both elimination loops
//! (DQBF and QBF) apply next.

use crate::{Aig, AigEdge, AigNode};
use hqs_base::Var;
use hqs_cnf::Quantifier;
use std::collections::BTreeMap;

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
    statuses: BTreeMap<Var, VarStatus>,
}

impl UnitPureStatus {
    /// Returns the classification of `var` (inputs outside the cone are
    /// [`VarStatus::Unknown`]).
    #[must_use]
    pub fn status(&self, var: Var) -> VarStatus {
        self.statuses
            .get(&var)
            .copied()
            .unwrap_or(VarStatus::Unknown)
    }

    /// Iterates over all variables with a non-`Unknown` classification.
    pub fn classified(&self) -> impl Iterator<Item = (Var, VarStatus)> + '_ {
        self.statuses
            .iter()
            .filter(|(_, &s)| s != VarStatus::Unknown)
            .map(|(&v, &s)| (v, s))
    }

    /// Returns `true` if no variable was classified.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classified().next().is_none()
    }

    /// The first classified variable, in variable order, that Theorem 5
    /// acts on, with its [`step`](VarStatus::step). `quantifier_of`
    /// names each variable's quantifier in the current prefix; variables
    /// it maps to `None` are skipped. Apply one step per traversal: a
    /// cofactor makes the other classifications stale.
    pub fn first_step(
        &self,
        quantifier_of: impl Fn(Var) -> Option<Quantifier>,
    ) -> Option<(Var, UnitPureStep)> {
        self.classified()
            .find_map(|(var, status)| Some((var, status.step(quantifier_of(var)?)?)))
    }
}

/// Per-node reachability flags during the traversal.
///
/// `clean` — reachable from the root along a path with zero negations;
/// `even` / `odd` — reachable with even/odd negation parity. `clean`
/// implies `even`.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Flags {
    clean: bool,
    even: bool,
    odd: bool,
}

impl Flags {
    fn merge(&mut self, other: Flags) -> bool {
        let before = *self;
        self.clean |= other.clean;
        self.even |= other.even;
        self.odd |= other.odd;
        *self != before
    }

    fn through_edge(self, complemented: bool) -> Flags {
        if complemented {
            Flags {
                clean: false,
                even: self.odd,
                odd: self.even,
            }
        } else {
            self
        }
    }
}

impl Aig {
    /// Runs the Theorem-6 syntactic unit/pure detection from `root`.
    ///
    /// Unit detection: an input reached by a completely inverter-free path
    /// is positive unit; one whose only inverter is the final edge into the
    /// input is negative unit. Purity: an input is positive (negative) pure
    /// if every path to it has even (odd) parity. Unit status takes
    /// precedence over purity in the returned classification, mirroring the
    /// priority HQS applies when eliminating.
    #[must_use]
    pub fn unit_pure(&self, root: AigEdge) -> UnitPureStatus {
        let num_nodes = self.num_nodes();
        let mut flags: Vec<Flags> = vec![Flags::default(); num_nodes];
        // neg_unit[n]: node n is reached by a complemented edge whose source
        // lies on an otherwise inverter-free path from the root.
        let mut neg_unit = vec![false; num_nodes];
        let root_flags = Flags {
            clean: true,
            even: true,
            odd: false,
        }
        .through_edge(root.is_complemented());
        flags[root.node() as usize] = root_flags;
        if root.is_complemented() {
            neg_unit[root.node() as usize] = true;
        }
        // Worklist propagation until fixpoint; each node's flags can only
        // grow and change at most three times, so this is linear.
        let mut worklist = vec![root.node()];
        while let Some(idx) = worklist.pop() {
            let node_flags = flags[idx as usize];
            if let AigNode::And(f0, f1) = self.nodes_kind(idx) {
                for edge in [f0, f1] {
                    if node_flags.clean && edge.is_complemented() {
                        neg_unit[edge.node() as usize] = true;
                    }
                    let child_flags = node_flags.through_edge(edge.is_complemented());
                    if flags[edge.node() as usize].merge(child_flags) {
                        worklist.push(edge.node());
                    }
                }
            }
        }
        let mut statuses = BTreeMap::new();
        for idx in 0..num_nodes {
            let AigNode::Input(var) = self.nodes_kind(idx as u32) else {
                continue;
            };
            let f = flags[idx];
            if !f.even && !f.odd {
                continue; // not in the cone
            }
            let status = if f.clean {
                VarStatus::PositiveUnit
            } else if neg_unit[idx] {
                VarStatus::NegativeUnit
            } else if f.even && !f.odd {
                VarStatus::PositivePure
            } else if f.odd && !f.even {
                VarStatus::NegativePure
            } else {
                VarStatus::Unknown
            };
            statuses.insert(var, status);
        }
        UnitPureStatus { statuses }
    }

    fn nodes_kind(&self, idx: u32) -> AigNode {
        self.node(AigEdge::new(idx, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn first_step_skips_unquantified_variables() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let f = aig.and(x, !y);
        let status = aig.unit_pure(f);
        // x is positive unit but free; y is negative unit and universal.
        let step = status.first_step(|v| (v == Var::new(1)).then_some(Quantifier::Universal));
        assert_eq!(step, Some((Var::new(1), UnitPureStep::Refute)));
        assert_eq!(status.first_step(|_| None), None);
    }

    #[test]
    fn conjunction_inputs_are_positive_unit() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let f = aig.and(x, y);
        let status = aig.unit_pure(f);
        assert_eq!(status.status(Var::new(0)), VarStatus::PositiveUnit);
        assert_eq!(status.status(Var::new(1)), VarStatus::PositiveUnit);
    }

    #[test]
    fn negated_conjunct_is_negative_unit() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let f = aig.and(!x, y);
        let status = aig.unit_pure(f);
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
        let status = aig.unit_pure(f);
        assert_eq!(status.status(Var::new(0)), VarStatus::PositivePure);
        assert_eq!(status.status(Var::new(1)), VarStatus::PositivePure);
    }

    #[test]
    fn negated_disjunct_is_negative_pure() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let f = aig.or(!x, y);
        let status = aig.unit_pure(f);
        assert_eq!(status.status(Var::new(0)), VarStatus::NegativePure);
    }

    #[test]
    fn xor_input_is_unknown() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let f = aig.xor(x, y);
        let status = aig.unit_pure(f);
        assert_eq!(status.status(Var::new(0)), VarStatus::Unknown);
        assert_eq!(status.status(Var::new(1)), VarStatus::Unknown);
    }

    #[test]
    fn variable_outside_cone_is_unknown() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let _y = aig.input(Var::new(1));
        let status = aig.unit_pure(x);
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
        let status = aig.unit_pure(!f);
        assert_eq!(status.status(Var::new(0)), VarStatus::NegativePure);
        assert_eq!(status.status(Var::new(1)), VarStatus::NegativePure);
    }

    #[test]
    fn root_is_single_input() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let status = aig.unit_pure(x);
        assert_eq!(status.status(Var::new(0)), VarStatus::PositiveUnit);
        let status = aig.unit_pure(!x);
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
        let status = aig.unit_pure(phi);
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
            let status = aig.unit_pure(phi);
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
            let status = aig.unit_pure(root);
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
