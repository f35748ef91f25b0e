//! Skolem-function extraction and certification.
//!
//! A DQBF is satisfied iff *Skolem functions* `s_y : A(D_y) → {0,1}` exist
//! whose substitution turns the matrix into a tautology (Definition 2).
//! This module makes satisfaction verdicts *checkable*:
//!
//! * [`extract_skolem`] builds explicit function tables from a model of
//!   the universal expansion (exact, exponential — intended for the sizes
//!   the certification literature handles, cf. Balabanov et al. \[13\]);
//! * [`SkolemCertificate::verify`] independently checks a certificate
//!   with one SAT call: `¬φ ∧ (y ↔ s_y(D_y) for all y)` must be
//!   unsatisfiable.
//!
//! For PEC instances the certificate *is* the synthesis result: the table
//! of each black-box output over its input cut is a concrete
//! implementation of the box.

use crate::expand::expand_to_cnf;
use crate::Dqbf;
use hqs_base::{Lit, Var};
use hqs_cnf::Cnf;
use hqs_sat::{ProofBuffer, SolveResult, Solver, TextDratLogger};

/// An explicit Skolem function: a truth table over the dependency set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SkolemFunction {
    /// The existential variable this function defines.
    pub var: Var,
    /// Dependency variables in table-index order (bit `i` of a row index
    /// is the value of `deps[i]`).
    pub deps: Vec<Var>,
    /// The table, `2^deps.len()` entries.
    pub table: Vec<bool>,
}

impl SkolemFunction {
    /// Evaluates the function on a universal valuation.
    pub fn eval<F: Fn(Var) -> bool>(&self, value_of: F) -> bool {
        let mut index = 0usize;
        for (i, &dep) in self.deps.iter().enumerate() {
            if value_of(dep) {
                index |= 1 << i;
            }
        }
        self.table[index]
    }
}

/// A full certificate: one function per existential variable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SkolemCertificate {
    /// Functions in the formula's existential order.
    pub functions: Vec<SkolemFunction>,
}

impl SkolemCertificate {
    /// Looks up the function for `var`.
    #[must_use]
    pub fn function(&self, var: Var) -> Option<&SkolemFunction> {
        self.functions.iter().find(|f| f.var == var)
    }

    /// Builds the propositional verification problem `¬φ ∧ (y ↔ s_y(D_y))`:
    /// unsatisfiable iff the certificate is valid. `None` when the
    /// certificate is structurally invalid (a missing function) or
    /// trivially valid (empty matrix) — distinguished by the `bool`.
    fn verification_cnf(&self, dqbf: &Dqbf) -> Result<Cnf, bool> {
        let mut dqbf = dqbf.clone();
        dqbf.bind_free_vars();
        // Every existential needs a function.
        for &y in dqbf.existentials() {
            if self.function(y).is_none() {
                return Err(false);
            }
        }
        if dqbf.matrix().clauses().is_empty() {
            return Err(true); // empty matrix is a tautology
        }
        let mut cnf = Cnf::new(dqbf.num_vars());
        // ¬φ via per-clause selectors.
        let mut selectors = Vec::with_capacity(dqbf.matrix().clauses().len());
        for clause in dqbf.matrix().clauses() {
            let s = Lit::positive(cnf.fresh_var());
            for &lit in clause.lits() {
                cnf.add_lits([!s, !lit]);
            }
            selectors.push(s);
        }
        cnf.add_lits(selectors);
        // y ↔ s_y: one clause per table row: (deps = row) → (y = value).
        for function in &self.functions {
            for (row, &value) in function.table.iter().enumerate() {
                let mut clause: Vec<Lit> = function
                    .deps
                    .iter()
                    .enumerate()
                    .map(|(i, &dep)| Lit::new(dep, row >> i & 1 == 1))
                    .collect();
                clause.push(Lit::new(function.var, !value));
                cnf.add_lits(clause);
            }
        }
        Ok(cnf)
    }

    /// Verifies the certificate against `dqbf` with one SAT call:
    /// `¬φ` conjoined with clauses forcing each existential to its table
    /// value must be unsatisfiable. Sound and complete for total
    /// certificates (a function per existential).
    #[must_use]
    pub fn verify(&self, dqbf: &Dqbf) -> bool {
        let cnf = match self.verification_cnf(dqbf) {
            Ok(cnf) => cnf,
            Err(trivial) => return trivial,
        };
        let mut solver = Solver::new();
        solver.ensure_vars(cnf.num_vars());
        solver.add_cnf(&cnf);
        solver.solve(&[]) == SolveResult::Unsat
    }

    /// Like [`verify`](SkolemCertificate::verify), but the verifying SAT
    /// call is itself proof-logged and its UNSAT answer validated by the
    /// independent `hqs-proof` checker — closing the last trust gap (a
    /// buggy verifier vacuously answering UNSAT).
    #[must_use]
    pub fn verify_certified(&self, dqbf: &Dqbf) -> bool {
        let cnf = match self.verification_cnf(dqbf) {
            Ok(cnf) => cnf,
            Err(trivial) => return trivial,
        };
        let buffer = ProofBuffer::new();
        let mut solver = Solver::builder()
            .proof_logger(Box::new(TextDratLogger::new(buffer.clone())))
            .build()
            .expect("default SAT configuration is valid");
        solver.ensure_vars(cnf.num_vars());
        solver.add_cnf(&cnf);
        if solver.solve(&[]) != SolveResult::Unsat || solver.proof_had_error() {
            return false;
        }
        String::from_utf8(buffer.contents())
            .ok()
            .and_then(|text| hqs_proof::parse_text_drat(&text).ok())
            .is_some_and(|proof| hqs_proof::check_proof(&cnf, &proof).is_ok())
    }
}

/// Extracts Skolem functions for a satisfiable DQBF by solving its full
/// universal expansion; returns `None` when the formula is unsatisfied.
///
/// # Panics
///
/// Panics on formulas beyond
/// [`MAX_EXPANSION_UNIVERSALS`](crate::expand::MAX_EXPANSION_UNIVERSALS)
/// universal variables (the table representation is exponential anyway).
#[must_use]
pub fn extract_skolem(dqbf: &Dqbf) -> Option<SkolemCertificate> {
    let mut bound = dqbf.clone();
    bound.bind_free_vars();
    let (cnf, instances) = expand_to_cnf(&bound);
    if cnf.has_empty_clause() {
        return None;
    }
    let mut solver = Solver::new();
    solver.ensure_vars(cnf.num_vars());
    solver.add_cnf(&cnf);
    if solver.solve(&[]) != SolveResult::Sat {
        return None;
    }
    let mut functions = Vec::with_capacity(bound.existentials().len());
    for &y in bound.existentials() {
        let deps: Vec<Var> = bound.dependencies(y).expect("existential").iter().collect();
        assert!(deps.len() < 20, "table would not fit");
        let mut table = vec![false; 1 << deps.len()];
        for (row, entry) in table.iter_mut().enumerate() {
            // The expansion keys instances by the packed restriction in
            // dependency-iteration order — the same order as `deps`.
            if let Some(&instance) = instances.get(&(y, row as u64)) {
                *entry = solver.model_value(instance).unwrap_or(false);
            }
            // Unsampled restrictions (y never occurred under that
            // restriction) are unconstrained; `false` works.
        }
        functions.push(SkolemFunction {
            var: y,
            deps,
            table,
        });
    }
    Some(SkolemCertificate { functions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DqbfResult, HqsSolver};

    fn example_one() -> Dqbf {
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        let y1 = d.add_existential([x1]);
        let y2 = d.add_existential([x2]);
        for (x, y) in [(x1, y1), (x2, y2)] {
            d.add_clause([Lit::positive(x), Lit::negative(y)]);
            d.add_clause([Lit::negative(x), Lit::positive(y)]);
        }
        d
    }

    #[test]
    fn extraction_yields_the_copy_functions() {
        let d = example_one();
        let cert = extract_skolem(&d).expect("satisfiable");
        assert_eq!(cert.functions.len(), 2);
        for f in &cert.functions {
            assert_eq!(f.deps.len(), 1);
            // The forced function is the identity on the dependency.
            assert_eq!(f.table, vec![false, true]);
        }
        assert!(cert.verify(&d));
    }

    #[test]
    fn unsatisfiable_formula_has_no_certificate() {
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        let y = d.add_existential([x1]);
        d.add_clause([Lit::positive(x2), Lit::negative(y)]);
        d.add_clause([Lit::negative(x2), Lit::positive(y)]);
        assert!(extract_skolem(&d).is_none());
    }

    #[test]
    fn tampered_certificate_fails_verification() {
        let d = example_one();
        let mut cert = extract_skolem(&d).unwrap();
        cert.functions[0].table[0] = !cert.functions[0].table[0];
        assert!(!cert.verify(&d));
    }

    /// Exhaustive tamper check: both Skolem functions of Example 1 are
    /// forced (y = x), so corrupting *any single* table row must be
    /// caught — in both the plain and the proof-checked verifier.
    #[test]
    fn every_single_row_corruption_is_rejected() {
        let d = example_one();
        let cert = extract_skolem(&d).expect("satisfiable");
        assert!(cert.verify(&d));
        assert!(cert.verify_certified(&d));
        for f in 0..cert.functions.len() {
            for row in 0..cert.functions[f].table.len() {
                let mut tampered = cert.clone();
                tampered.functions[f].table[row] = !tampered.functions[f].table[row];
                assert!(
                    !tampered.verify(&d),
                    "corruption of function {f} row {row} went undetected"
                );
                assert!(
                    !tampered.verify_certified(&d),
                    "certified verify missed corruption of function {f} row {row}"
                );
            }
        }
    }

    #[test]
    fn certified_verification_agrees_with_plain() {
        let d = example_one();
        let cert = extract_skolem(&d).unwrap();
        assert!(cert.verify_certified(&d));
        let mut broken = cert.clone();
        broken.functions.pop();
        assert!(!broken.verify_certified(&d));
    }

    #[test]
    fn partial_certificate_is_rejected() {
        let d = example_one();
        let mut cert = extract_skolem(&d).unwrap();
        cert.functions.pop();
        assert!(!cert.verify(&d));
    }

    #[test]
    fn empty_matrix_certificate() {
        let mut d = Dqbf::new();
        let _x = d.add_universal();
        let y = d.add_existential([]);
        let _ = y;
        let cert = extract_skolem(&d).expect("trivially satisfiable");
        assert!(cert.verify(&d));
    }

    /// On random satisfiable instances: extraction succeeds exactly when
    /// HQS says Sat, and the certificate always verifies.
    #[test]
    fn extraction_matches_solver_and_verifies() {
        use hqs_base::Rng;
        let mut rng = Rng::seed_from_u64(60);
        let mut verified = 0;
        for _ in 0..60 {
            let mut d = Dqbf::new();
            let nu = rng.gen_range(1..=3u32);
            let xs: Vec<Var> = (0..nu).map(|_| d.add_universal()).collect();
            let mut all: Vec<Var> = xs.clone();
            for _ in 0..rng.gen_range(1..=3u32) {
                let deps: Vec<Var> = xs.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
                all.push(d.add_existential(deps));
            }
            for _ in 0..rng.gen_range(1..=7usize) {
                let len = rng.gen_range(1..=3usize);
                let lits: Vec<Lit> = (0..len)
                    .map(|_| Lit::new(all[rng.gen_range(0..all.len())], rng.gen_bool(0.5)))
                    .collect();
                d.add_clause(lits);
            }
            let verdict = HqsSolver::new().run(&d);
            match extract_skolem(&d) {
                Some(cert) => {
                    assert_eq!(verdict, DqbfResult::Sat, "{d:?}");
                    assert!(cert.verify(&d), "{d:?}");
                    verified += 1;
                }
                None => assert_eq!(verdict, DqbfResult::Unsat, "{d:?}"),
            }
        }
        assert!(verified > 5, "expected a healthy mix of SAT instances");
    }

    /// PEC view: the certificate of a carved instance is a concrete
    /// implementation of the black box.
    #[test]
    fn certificate_implements_the_black_box() {
        // spec: o = a ∧ b; impl: o = BB(a, b). The extracted table for the
        // box output must be the AND table.
        let mut d = Dqbf::new();
        let a = d.add_universal();
        let b = d.add_universal();
        let h = d.add_existential([a, b]);
        // matrix: h ↔ (a ∧ b)
        d.add_clause([Lit::negative(h), Lit::positive(a)]);
        d.add_clause([Lit::negative(h), Lit::positive(b)]);
        d.add_clause([Lit::positive(h), Lit::negative(a), Lit::negative(b)]);
        let cert = extract_skolem(&d).expect("realizable");
        let f = cert.function(h).unwrap();
        assert_eq!(f.table, vec![false, false, false, true]);
    }
}
