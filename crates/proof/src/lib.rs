//! An independent DRAT proof checker.
//!
//! The HQS pipeline certifies its SAT verdicts with Skolem-function
//! certificates (`hqs-core::skolem`); this crate supplies the UNSAT half:
//! it checks **DRAT** refutation proofs — the standard clausal proof
//! format of the SAT competitions — against the original CNF, so an UNSAT
//! answer becomes a machine-checkable artifact instead of an act of faith
//! in the solver.
//!
//! Independence is the design constraint: this crate depends only on
//! `hqs-base` (literals) and `hqs-cnf` (formulas) and shares **no code**
//! with the CDCL solver in `hqs-sat`. The checker reimplements unit
//! propagation from scratch; a bug would have to occur twice, in two
//! unrelated implementations, to let a bogus proof through.
//!
//! [`ProofChecker`] is the one checker: it verifies every addition in
//! proof order — reverse unit propagation (RUP), with a fallback to the
//! resolution asymmetric tautology (RAT) on the clause's first literal —
//! until a root-level contradiction is established. It is loaded with
//! the original formula one clause at a time, so a formula that is
//! generated (the universal expansion behind `hqs-core`'s refutation
//! certificates) is streamed in and never stored twice;
//! [`check_proof`] loads a [`Cnf`](hqs_cnf::Cnf). Proofs are read in the
//! text DRAT format ([`parse_text_drat`]), the format `drat-trim` reads
//! and `hqs-sat`'s `TextDratLogger` writes. They need not record the
//! solver's simplification of the original clauses at the root: the
//! checker propagates the originals there to a fixpoint before the first
//! step.
//!
//! # Examples
//!
//! ```
//! use hqs_cnf::dimacs::parse_dimacs;
//! use hqs_proof::{check_proof, parse_text_drat};
//!
//! // (a∨b)(¬a∨b)(a∨¬b)(¬a∨¬b) refuted by deriving b, then ⊥.
//! let cnf = parse_dimacs("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n").unwrap();
//! let proof = parse_text_drat("2 0\n0\n").unwrap();
//! let report = check_proof(&cnf, &proof).unwrap();
//! // Unit b already propagates to a conflict: the empty clause is skipped.
//! assert_eq!(report.steps_checked, 1);
//! assert_eq!(report.steps_skipped, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod drat;

pub use checker::{check_proof, CheckError, CheckReport, ProofChecker};
pub use drat::{parse_text_drat, Proof, ProofParseError, ProofStep};
