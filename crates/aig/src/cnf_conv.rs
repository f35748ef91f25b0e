//! Conversion between AIGs and CNF.
//!
//! * [`Aig::tseitin`] — Tseitin encoding of a walked cone, streamed
//!   clause by clause to a consumer (the QBF finish feeds its SAT solver
//!   this way). Input variables keep their identities; internal AND
//!   nodes receive fresh variables starting at a caller-chosen offset, so
//!   the clauses can be combined with other constraints over the same
//!   variable space.
//! * [`Aig::to_cnf`] — the same encoding collected into a [`Cnf`].
//! * [`Aig::from_cnf`] — builds the conjunction-of-disjunctions AIG of a
//!   CNF (balanced, so the depth stays logarithmic).

use crate::walk::ConeWalk;
use crate::{Aig, AigEdge, AigNode};
use hqs_base::{Lit, Var};
use hqs_cnf::{Clause, Cnf};

impl Aig {
    /// Tseitin-encodes the cone `walk` describes, handing each clause to
    /// `emit` in the walk's topological order.
    ///
    /// Primary inputs keep their variable identity. Auxiliary variables
    /// for AND nodes (and one for the constant node, forced true by a
    /// unit clause) are numbered from `first_aux` upwards in walk order;
    /// `first_aux` must be larger than every input variable index in the
    /// cone. Each node's literal is kept in its traversal-memo slot, so
    /// the encoding allocates nothing sized to the cone. Returns the
    /// literal equivalent to the walked root and the number of variables
    /// used, `first_aux` plus the auxiliaries; the caller typically adds
    /// a unit clause on that literal.
    ///
    /// # Panics
    ///
    /// Panics if an input variable in the cone has index `>= first_aux`.
    pub fn tseitin(
        &mut self,
        walk: &ConeWalk,
        first_aux: u32,
        mut emit: impl FnMut(&[Lit]),
    ) -> (Lit, u32) {
        self.begin_traversal();
        let mut next_var = first_aux;
        let mut fresh = || {
            let lit = Lit::positive(Var::new(next_var));
            next_var += 1;
            lit
        };
        for &idx in walk.order() {
            let lit = match self.node(AigEdge::new(idx, false)) {
                AigNode::True => {
                    // Represent the constant with a fresh always-true var.
                    let out = fresh();
                    emit(&[out]);
                    out
                }
                AigNode::Input(var) => {
                    assert!(
                        var.index() < first_aux,
                        "input {var} collides with auxiliary variables"
                    );
                    Lit::positive(var)
                }
                AigNode::And(f0, f1) => {
                    let out = fresh();
                    let l0 = self.memo_lit(f0);
                    let l1 = self.memo_lit(f1);
                    emit(&[!out, l0]);
                    emit(&[!out, l1]);
                    emit(&[out, !l0, !l1]);
                    out
                }
            };
            self.set_memo_word(idx, u64::from(lit.code()));
        }
        let out = self.memo_lit(walk.root());
        (out, next_var)
    }

    /// The literal [`Aig::tseitin`] gave `edge`'s node, signed by the
    /// edge.
    fn memo_lit(&self, edge: AigEdge) -> Lit {
        let code = u32::try_from(self.memo_word(edge.node())).unwrap_or(u32::MAX);
        Lit::from_code(code).xor_sign(edge.is_complemented())
    }

    /// Tseitin-encodes the cone of `root` into a CNF: [`Aig::tseitin`]'s
    /// clauses, collected. Returns the CNF, over `first_aux` plus the
    /// auxiliary variables, and the literal equivalent to `root`.
    ///
    /// # Panics
    ///
    /// Panics if an input variable in the cone has index `>= first_aux`.
    #[must_use]
    pub fn to_cnf(&mut self, root: AigEdge, first_aux: u32) -> (Cnf, Lit) {
        let walk = self.walk(root);
        let mut clauses: Vec<Clause> = Vec::new();
        let (out, num_vars) = self.tseitin(&walk, first_aux, |lits| {
            clauses.push(Clause::from_lits(lits.iter().copied()));
        });
        let mut cnf = Cnf::new(num_vars);
        *cnf.clauses_mut() = clauses;
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
