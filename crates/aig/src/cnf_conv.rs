//! Conversion between AIGs and CNF.
//!
//! * [`Aig::to_cnf`] — Tseitin encoding of a cone. Input variables keep
//!   their identities; internal AND nodes receive fresh variables starting
//!   at a caller-chosen offset, so the CNF can be combined with other
//!   constraints over the same variable space.
//! * [`Aig::from_cnf`] — builds the conjunction-of-disjunctions AIG of a
//!   CNF (balanced, so the depth stays logarithmic).

use crate::{Aig, AigEdge, AigNode};
use hqs_base::Lit;
#[cfg(test)]
use hqs_base::Var;
use hqs_cnf::{Clause, Cnf};
use std::collections::HashMap;

impl Aig {
    /// Tseitin-encodes the cone of `root` into a CNF.
    ///
    /// Primary inputs keep their variable identity. Auxiliary variables for
    /// AND nodes are allocated from `first_aux` upwards (`first_aux` must be
    /// larger than every input variable index in the cone). Returns the CNF
    /// and the literal equivalent to `root`; the caller typically adds a
    /// unit clause on that literal.
    ///
    /// # Panics
    ///
    /// Panics if an input variable in the cone has index `>= first_aux`.
    #[must_use]
    pub fn to_cnf(&mut self, root: AigEdge, first_aux: u32) -> (Cnf, Lit) {
        let mut cnf = Cnf::new(first_aux);
        let mut node_lit: HashMap<u32, Lit> = HashMap::new();
        for &idx in self.walk(root).order() {
            match self.node(AigEdge::new(idx, false)) {
                AigNode::True => {
                    // Represent the constant with a fresh always-true var.
                    let var = cnf.fresh_var();
                    cnf.add_clause(Clause::unit(Lit::positive(var)));
                    node_lit.insert(idx, Lit::positive(var));
                }
                AigNode::Input(var) => {
                    assert!(
                        var.index() < first_aux,
                        "input {var} collides with auxiliary variables"
                    );
                    node_lit.insert(idx, Lit::positive(var));
                }
                AigNode::And(f0, f1) => {
                    let out = Lit::positive(cnf.fresh_var());
                    let l0 = node_lit[&f0.node()].xor_sign(f0.is_complemented());
                    let l1 = node_lit[&f1.node()].xor_sign(f1.is_complemented());
                    cnf.add_clause(Clause::binary(!out, l0));
                    cnf.add_clause(Clause::binary(!out, l1));
                    cnf.add_clause(Clause::from_lits([out, !l0, !l1]));
                    node_lit.insert(idx, out);
                }
            }
        }
        let out = node_lit[&root.node()].xor_sign(root.is_complemented());
        (cnf, out)
    }

    /// Builds the AIG of a CNF: a balanced conjunction of balanced clause
    /// disjunctions. Returns the output edge.
    pub fn from_cnf(&mut self, cnf: &Cnf) -> AigEdge {
        let clause_edges: Vec<AigEdge> = cnf
            .clauses()
            .iter()
            .map(|clause| self.clause_edge(clause))
            .collect();
        self.and_many(&clause_edges)
    }

    /// Builds the disjunction AIG of one clause.
    pub fn clause_edge(&mut self, clause: &Clause) -> AigEdge {
        let lit_edges: Vec<AigEdge> = clause
            .lits()
            .iter()
            .map(|&lit| {
                let input = self.input(lit.var());
                input.xor_complement(lit.is_negative())
            })
            .collect();
        self.or_many(&lit_edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqs_base::{Assignment, TruthValue};
    use hqs_sat::reference::dpll;

    fn exhaustive_equiv(aig: &Aig, root: AigEdge, cnf: &Cnf, out: Lit, num_inputs: u32) {
        // For every input assignment: AIG value == exists aux assignment
        // satisfying CNF with out forced true... Tseitin aux values are
        // functionally determined, so extend and check directly.
        for bits in 0u32..(1 << num_inputs) {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            let expected = aig.eval(root, val);
            // Check: CNF ∧ (inputs fixed) ∧ out  is SAT iff expected.
            let mut query = cnf.clone();
            for i in 0..num_inputs {
                query.add_clause(Clause::unit(Lit::new(Var::new(i), !val(Var::new(i)))));
            }
            query.add_clause(Clause::unit(out));
            assert_eq!(dpll(&query).is_some(), expected, "bits {bits:b}");
        }
    }

    #[test]
    fn tseitin_roundtrip_mux() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let z = aig.input(Var::new(2));
        let f = aig.mux(x, y, z);
        let (cnf, out) = aig.to_cnf(f, 3);
        exhaustive_equiv(&aig, f, &cnf, out, 3);
    }

    #[test]
    fn tseitin_constant_root() {
        let mut aig = Aig::new();
        let (cnf, out) = aig.to_cnf(Aig::TRUE, 0);
        let mut q = cnf.clone();
        q.add_clause(Clause::unit(out));
        assert!(dpll(&q).is_some());
        let (cnf, out) = aig.to_cnf(Aig::FALSE, 0);
        let mut q = cnf;
        q.add_clause(Clause::unit(out));
        assert!(dpll(&q).is_none());
    }

    #[test]
    fn tseitin_complemented_root() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let f = aig.and(x, y);
        let (cnf, out) = aig.to_cnf(!f, 2);
        exhaustive_equiv(&aig, !f, &cnf, out, 2);
    }

    #[test]
    fn from_cnf_matches_semantics() {
        let text = "p cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n";
        let cnf = hqs_cnf::dimacs::parse_dimacs(text).unwrap();
        let mut aig = Aig::new();
        let root = aig.from_cnf(&cnf);
        for bits in 0u32..8 {
            let mut assignment = Assignment::new();
            for i in 0..3 {
                assignment.assign(Var::new(i), bits >> i & 1 == 1);
            }
            let expected = cnf.evaluate(&assignment) == TruthValue::True;
            assert_eq!(aig.eval(root, |v| bits >> v.index() & 1 == 1), expected);
        }
    }

    #[test]
    fn empty_cnf_is_true_and_empty_clause_false() {
        let mut aig = Aig::new();
        assert_eq!(aig.from_cnf(&Cnf::new(0)), Aig::TRUE);
        let mut cnf = Cnf::new(0);
        cnf.add_clause(Clause::empty());
        assert_eq!(aig.from_cnf(&cnf), Aig::FALSE);
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn aux_collision_panics() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(5));
        let y = aig.input(Var::new(6));
        let f = aig.and(x, y);
        let _ = aig.to_cnf(f, 3);
    }
}
