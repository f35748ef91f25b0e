//! Refutation certificates for unsatisfiable DQBFs.
//!
//! The SAT side of certification returns Skolem functions
//! ([`crate::skolem`]); this module supplies the UNSAT side. A DQBF is
//! unsatisfied iff its full universal expansion
//! ([`expand_to_cnf`](crate::expand::expand_to_cnf)) is propositionally
//! unsatisfiable, so a refutation certificate consists of
//!
//! 1. the **expansion trace**: which instance variable stands for which
//!    `(existential, dependency-restriction)` pair, making the expansion
//!    CNF reproducible and auditable, and
//! 2. a **DRAT proof** of that CNF's unsatisfiability, emitted by the
//!    proof-logging CDCL solver (`hqs-sat`) and accepted by the
//!    *independent* checker in `hqs-proof`.
//!
//! [`RefutationCertificate::verify`] mirrors
//! [`SkolemCertificate::verify`](crate::skolem::SkolemCertificate::verify):
//! it recomputes the expansion from the formula alone, validates the trace
//! against it, and runs the DRAT proof through `hqs-proof`'s checker — at
//! no point trusting the solver that produced the verdict.
//!
//! Neither side stores the expansion: extraction streams it into the
//! proof-logging solver, verification into the checker. The solver does
//! not log its root-level simplification of the expansion clauses (the
//! checker propagates them at the root itself), so an expansion that unit
//! propagation alone refutes has a one-line proof, `0`.

use crate::expand::{expand, MAX_EXPANSION_UNIVERSALS};
use crate::Dqbf;
use hqs_base::Var;
use hqs_proof::{parse_text_drat, ProofChecker};
use hqs_sat::{ProofBuffer, SolveResult, Solver, TextDratLogger};

/// One row of the expansion trace: the instance variable standing for an
/// existential under a restriction of its dependency set.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct InstanceBinding {
    /// The existential (or bound free) variable of the original formula.
    pub existential: Var,
    /// The restriction of the universal assignment to the dependency set,
    /// packed in dependency-iteration order (bit `i` = value of the `i`-th
    /// dependency).
    pub restriction: u64,
    /// The propositional variable representing this instance in the
    /// expansion CNF.
    pub instance: Var,
}

/// A machine-checkable refutation of a DQBF.
///
/// Produced by [`extract_refutation`]; validated by
/// [`RefutationCertificate::verify`], which depends only on the formula,
/// the certificate, and the independent `hqs-proof` checker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RefutationCertificate {
    /// Number of universal variables of the (free-bound) formula — the
    /// expansion enumerates `2^num_universals` rows.
    pub num_universals: usize,
    /// The expansion trace, sorted by `(existential, restriction)`.
    pub bindings: Vec<InstanceBinding>,
    /// The DRAT refutation of the expansion CNF, in text format.
    pub drat: String,
}

impl RefutationCertificate {
    /// Verifies the certificate against `dqbf` without trusting the
    /// producing solver: recomputes the universal expansion, streaming it
    /// into the independent checker, checks that the recorded trace
    /// matches its instances exactly, and validates the DRAT proof.
    /// [`extract_refutation`] does not run this check.
    #[must_use]
    pub fn verify(&self, dqbf: &Dqbf) -> bool {
        let mut bound = dqbf.clone();
        bound.bind_free_vars();
        if bound.universals().len() > MAX_EXPANSION_UNIVERSALS
            || bound.universals().len() != self.num_universals
        {
            return false;
        }
        let Ok(proof) = parse_text_drat(&self.drat) else {
            return false;
        };
        let mut checker = ProofChecker::new(0);
        let instances = expand(&bound, |lits| checker.add_original(lits));
        // The trace must be a faithful image of the expansion's instance
        // map: same size, and every row present with the same variable.
        let faithful = self.bindings.len() == instances.len() as usize
            && self.bindings.iter().all(|binding| {
                instances.get(binding.existential, binding.restriction) == Some(binding.instance)
            });
        faithful && checker.check(&proof).is_ok()
    }
}

/// Extracts a refutation certificate for an unsatisfiable DQBF by solving
/// its full universal expansion, streamed clause by clause into a
/// proof-logging solver; returns `None` when the expansion is satisfiable
/// (the formula is satisfied) or when proof logging failed.
///
/// The certificate is returned unchecked: a caller that relies on it must
/// first [`verify`](RefutationCertificate::verify) it.
///
/// # Panics
///
/// Panics on formulas beyond
/// [`MAX_EXPANSION_UNIVERSALS`]
/// universal variables, like the expansion itself.
#[must_use]
pub fn extract_refutation(dqbf: &Dqbf) -> Option<RefutationCertificate> {
    let mut bound = dqbf.clone();
    bound.bind_free_vars();
    let buffer = ProofBuffer::new();
    let mut solver = Solver::builder()
        .proof_logger(Box::new(TextDratLogger::new(buffer.clone())))
        .build()
        .expect("default SAT configuration is valid");
    let instances = expand(&bound, |lits| {
        solver.add_clause(lits.iter().copied());
    });
    solver.ensure_vars(instances.len());
    if solver.solve(&[]) != SolveResult::Unsat || solver.proof_had_error() {
        return None;
    }
    let drat = String::from_utf8(buffer.contents()).ok()?;
    // In (existential, restriction) order, the order of the trace.
    let bindings: Vec<InstanceBinding> = instances
        .iter()
        .map(|(existential, restriction, instance)| InstanceBinding {
            existential,
            restriction,
            instance,
        })
        .collect();
    Some(RefutationCertificate {
        num_universals: bound.universals().len(),
        bindings,
        drat,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqs_base::Lit;

    /// ∀x₁∀x₂ ∃y(x₁) with matrix y↔x₂: classic dependency-mismatch UNSAT.
    fn wrong_dependency() -> Dqbf {
        let mut d = Dqbf::new();
        let _x1 = d.add_universal();
        let x2 = d.add_universal();
        let y = d.add_existential([Var::new(0)]);
        d.add_clause([Lit::positive(x2), Lit::negative(y)]);
        d.add_clause([Lit::negative(x2), Lit::positive(y)]);
        d
    }

    #[test]
    fn unsat_formula_yields_a_verifying_certificate() {
        let d = wrong_dependency();
        let cert = extract_refutation(&d).expect("unsatisfiable");
        assert_eq!(cert.num_universals, 2);
        assert!(!cert.bindings.is_empty());
        assert!(cert.verify(&d));
    }

    #[test]
    fn sat_formula_has_no_refutation() {
        let mut d = Dqbf::new();
        let x = d.add_universal();
        let y = d.add_existential([x]);
        d.add_clause([Lit::positive(x), Lit::negative(y)]);
        d.add_clause([Lit::negative(x), Lit::positive(y)]);
        assert!(extract_refutation(&d).is_none());
    }

    #[test]
    fn tampered_trace_is_rejected() {
        let d = wrong_dependency();
        let cert = extract_refutation(&d).unwrap();
        // Flip the instance variable of one trace row.
        let mut tampered = cert.clone();
        let wrong = Var::new(tampered.bindings[0].instance.index() + 1000);
        tampered.bindings[0].instance = wrong;
        assert!(!tampered.verify(&d));
        // Drop a trace row.
        let mut tampered = cert.clone();
        tampered.bindings.pop();
        assert!(!tampered.verify(&d));
        // Key a row by a restriction wider than its dependency set.
        let mut tampered = cert.clone();
        tampered.bindings[0].restriction = 1 << 40;
        assert!(!tampered.verify(&d));
        // Claim a different universal count.
        let mut tampered = cert;
        tampered.num_universals = 1;
        assert!(!tampered.verify(&d));
    }

    #[test]
    fn gutted_proof_is_rejected() {
        // The expansion of wrong_dependency() collapses to conflicting
        // units, which the checker refutes with no proof steps at all; use
        // a formula whose expansion needs a real lemma instead:
        // ∃y∃z : (y∨z)(¬y∨z)(y∨¬z)(¬y∨¬z).
        let mut d = Dqbf::new();
        let y = d.add_existential([]);
        let z = d.add_existential([]);
        for (sy, sz) in [(true, true), (false, true), (true, false), (false, false)] {
            d.add_clause([Lit::new(y, !sy), Lit::new(z, !sz)]);
        }
        let cert = extract_refutation(&d).unwrap();
        // Keep only deletion lines: the refutation disappears.
        let mut tampered = cert.clone();
        tampered.drat = cert
            .drat
            .lines()
            .filter(|l| l.trim_start().starts_with('d'))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!tampered.verify(&d));
        // Unparseable proof text is rejected, not a panic.
        let mut tampered = cert;
        tampered.drat = "not a proof".to_string();
        assert!(!tampered.verify(&d));
    }

    #[test]
    fn certificate_against_the_wrong_formula_is_rejected() {
        let d = wrong_dependency();
        let cert = extract_refutation(&d).unwrap();
        // A formula with the right dependencies (SAT) must reject it.
        let mut d2 = Dqbf::new();
        let _x1 = d2.add_universal();
        let x2 = d2.add_universal();
        let y = d2.add_existential([x2]);
        d2.add_clause([Lit::positive(x2), Lit::negative(y)]);
        d2.add_clause([Lit::negative(x2), Lit::positive(y)]);
        assert!(!cert.verify(&d2));
    }

    #[test]
    fn empty_expansion_clause_needs_no_proof_steps() {
        // ∀x: x — the expansion contains the empty clause directly.
        let mut d = Dqbf::new();
        let x = d.add_universal();
        d.add_clause([Lit::positive(x)]);
        let cert = extract_refutation(&d).expect("unsatisfiable");
        assert!(cert.verify(&d));
    }
}
