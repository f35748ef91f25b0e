//! An AIG-based quantifier-elimination QBF solver.
//!
//! This crate reimplements the role AIGSOLVE (Pigorsch & Scholl) plays in
//! the HQS pipeline: once HQS has eliminated enough universal variables
//! that the DQBF prefix linearises, the remaining QBF — already available
//! as an AIG — is handed to this solver. The algorithm:
//!
//! 1. eliminate quantifier blocks innermost-first by AIG quantification
//!    (`∃` = or-of-cofactors, `∀` = and-of-cofactors), cheapest variable
//!    first,
//! 2. between eliminations, run the syntactic unit/pure detection of the
//!    paper's Theorem 6 and apply Theorem 5,
//! 3. stop early when the AIG collapses to a constant,
//! 4. once only the outermost existential block remains, finish with a
//!    single CDCL SAT call on the Tseitin encoding.
//!
//! # Examples
//!
//! ```
//! use hqs_cnf::dimacs::parse_qdimacs;
//! use hqs_qbf::{QbfResult, QbfSolver};
//!
//! // ∀x ∃y. (x ↔ y)  — satisfiable (y copies x).
//! let file = parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n1 -2 0\n-1 2 0\n")?;
//! let mut solver = QbfSolver::new();
//! assert_eq!(solver.solve_file(&file), QbfResult::Sat);
//!
//! // ∃y ∀x. (x ↔ y)  — unsatisfiable.
//! let file = parse_qdimacs("p cnf 2 2\ne 2 0\na 1 0\n1 -2 0\n-1 2 0\n")?;
//! assert_eq!(solver.solve_file(&file), QbfResult::Unsat);
//! # Ok::<(), hqs_cnf::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod prefix;
pub mod reference;
mod solver;

pub use prefix::Prefix;
pub use solver::{QbfResult, QbfSolver, QbfStats};
