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
//!   against the formula alone: it checks that each existential has one
//!   function, over a subset of its dependency set, with a full table,
//!   and then evaluates the matrix under every universal assignment with
//!   each existential set to its table entry. No solver answer is
//!   trusted: the tables are functions, and a function given as a table
//!   is checked by evaluating it.
//!
//! For PEC instances the certificate *is* the synthesis result: the table
//! of each black-box output over its input cut is a concrete
//! implementation of the box.

use crate::expand::{expand, restriction, row_bits, MAX_EXPANSION_UNIVERSALS};
use crate::Dqbf;
use hqs_base::{Lit, Var};
use hqs_sat::{SolveResult, Solver};

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

    /// Verifies the certificate against `dqbf` (Definition 2), treating
    /// free variables as existentials with empty dependency sets.
    ///
    /// The certificate must hold exactly one function per existential and
    /// none for any other variable; each function's `deps` must be a
    /// subset of its existential's dependency set, without repeats, and
    /// its table must have `2^deps.len()` entries. Then, for each of the
    /// `2^u` universal assignments, each existential is set to its table
    /// entry and every matrix clause must hold. Cost:
    /// `2^u · (Σ|deps| + |φ|)`, the order of the expansion
    /// [`extract_skolem`] builds.
    ///
    /// # Panics
    ///
    /// Panics on formulas beyond [`MAX_EXPANSION_UNIVERSALS`] universal
    /// variables, like the expansion.
    #[must_use]
    pub fn verify(&self, dqbf: &Dqbf) -> bool {
        let mut bound = dqbf.clone();
        bound.bind_free_vars();
        let universals = bound.universals();
        assert!(
            universals.len() <= MAX_EXPANSION_UNIVERSALS,
            "certificate checks limited to {MAX_EXPANSION_UNIVERSALS} universals"
        );
        let position = row_bits(&bound);
        // Structure: one function per existential, reading only (and each
        // at most once) variables of its dependency set, with a full table.
        let mut has_function = vec![false; position.len()];
        let mut readers: Vec<(Var, Vec<u32>, &[bool])> = Vec::with_capacity(self.functions.len());
        for function in &self.functions {
            let Some(allowed) = bound.dependencies(function.var) else {
                return false; // universal, or not a variable of the formula
            };
            if std::mem::replace(&mut has_function[function.var.uidx()], true) {
                return false; // a second function for the same existential
            }
            let mut positions: Vec<u32> = Vec::with_capacity(function.deps.len());
            for &dep in &function.deps {
                let Some(pos) = position.get(dep.uidx()).copied().flatten() else {
                    return false;
                };
                if !allowed.contains(dep) || positions.contains(&pos) {
                    return false;
                }
                positions.push(pos);
            }
            if function.table.len() != 1usize << positions.len() {
                return false;
            }
            readers.push((function.var, positions, &function.table));
        }
        if bound.existentials().iter().any(|y| !has_function[y.uidx()]) {
            return false;
        }
        // Evaluation: the matrix must hold in every row.
        let mut value = vec![false; position.len()];
        for omega in 0u64..(1u64 << universals.len()) {
            for (i, &x) in universals.iter().enumerate() {
                value[x.uidx()] = omega >> i & 1 == 1;
            }
            for (var, positions, table) in &readers {
                value[var.uidx()] = table[restriction(omega, positions)];
            }
            let holds = |lits: &[Lit]| {
                lits.iter()
                    .any(|&lit| value[lit.var().uidx()] != lit.is_negative())
            };
            if !bound.matrix().clauses().iter().all(|c| holds(c.lits())) {
                return false;
            }
        }
        true
    }
}

/// Extracts Skolem functions for a satisfiable DQBF by solving its full
/// universal expansion, streamed clause by clause into the SAT solver;
/// returns `None` when the formula is unsatisfied.
///
/// # Panics
///
/// Panics on formulas beyond [`MAX_EXPANSION_UNIVERSALS`] universal
/// variables (the table representation is exponential anyway). Within
/// that limit a table has at most `2^24` entries.
#[must_use]
pub fn extract_skolem(dqbf: &Dqbf) -> Option<SkolemCertificate> {
    let mut bound = dqbf.clone();
    bound.bind_free_vars();
    let mut solver = Solver::new();
    let instances = expand(&bound, |lits| {
        solver.add_clause(lits.iter().copied());
    });
    solver.ensure_vars(instances.len());
    if solver.solve(&[]) != SolveResult::Sat {
        return None;
    }
    let mut functions = Vec::with_capacity(bound.existentials().len());
    for &y in bound.existentials() {
        let deps: Vec<Var> = bound.dependencies(y).expect("existential").iter().collect();
        let mut table = vec![false; 1 << deps.len()];
        for (row, entry) in table.iter_mut().enumerate() {
            // The expansion keys instances by the packed restriction in
            // dependency-iteration order — the same order as `deps`.
            if let Some(instance) = instances.get(y, row as u64) {
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
    /// caught.
    #[test]
    fn every_single_row_corruption_is_rejected() {
        let d = example_one();
        let cert = extract_skolem(&d).expect("satisfiable");
        assert!(cert.verify(&d));
        for f in 0..cert.functions.len() {
            for row in 0..cert.functions[f].table.len() {
                let mut tampered = cert.clone();
                tampered.functions[f].table[row] = !tampered.functions[f].table[row];
                assert!(
                    !tampered.verify(&d),
                    "corruption of function {f} row {row} went undetected"
                );
            }
        }
    }

    /// ∀x₁∀x₂ ∃y(x₁) with matrix y ↔ x₂: unsatisfiable, so no certificate
    /// may verify. Each malformed one below would make the matrix hold
    /// if it were taken at its word.
    fn dependency_mismatch() -> (Dqbf, Var, Var, Var) {
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        let y = d.add_existential([x1]);
        d.add_clause([Lit::positive(x2), Lit::negative(y)]);
        d.add_clause([Lit::negative(x2), Lit::positive(y)]);
        (d, x1, x2, y)
    }

    fn certificate(functions: Vec<(Var, Vec<Var>, Vec<bool>)>) -> SkolemCertificate {
        SkolemCertificate {
            functions: functions
                .into_iter()
                .map(|(var, deps, table)| SkolemFunction { var, deps, table })
                .collect(),
        }
    }

    #[test]
    fn function_reading_outside_its_dependency_set_is_rejected() {
        let (d, _, x2, y) = dependency_mismatch();
        assert!(!certificate(vec![(y, vec![x2], vec![false, true])]).verify(&d));
    }

    #[test]
    fn table_longer_than_its_dependencies_allow_is_rejected() {
        // Rows 2 and 3 alias rows 0 and 1 and contradict them.
        let (d, x1, _, y) = dependency_mismatch();
        let cert = certificate(vec![(y, vec![x1], vec![false, false, true, true])]);
        assert!(!cert.verify(&d));
    }

    #[test]
    fn two_functions_for_one_existential_are_rejected() {
        let (d, _, _, y) = dependency_mismatch();
        let cert = certificate(vec![(y, vec![], vec![false]), (y, vec![], vec![true])]);
        assert!(!cert.verify(&d));
    }

    #[test]
    fn function_for_a_universal_is_rejected() {
        // With x₂ pinned to false, y = false would satisfy the matrix.
        let (d, x1, x2, y) = dependency_mismatch();
        let cert = certificate(vec![
            (y, vec![x1], vec![false, false]),
            (x2, vec![], vec![false]),
        ]);
        assert!(!cert.verify(&d));
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
