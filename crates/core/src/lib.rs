//! HQS — an elimination-based DQBF solver.
//!
//! This crate is a from-scratch reproduction of the solver described in
//! K. Gitina, R. Wimmer, S. Reimer, M. Sauer, C. Scholl, B. Becker:
//! *Solving DQBF Through Quantifier Elimination*, DATE 2015.
//!
//! A dependency quantified Boolean formula (DQBF)
//!
//! ```text
//! ∀x₁ … ∀xₙ ∃y₁(D_{y₁}) … ∃yₘ(D_{yₘ}) : φ
//! ```
//!
//! generalises QBF by annotating each existential variable with an explicit
//! *dependency set* `D_y ⊆ {x₁,…,xₙ}`; deciding DQBF is NEXPTIME-complete.
//! HQS decides a DQBF by:
//!
//! 1. **CNF preprocessing** (§III-C): unit propagation, universal
//!    reduction, equivalent-variable substitution and Tseitin gate
//!    detection ([`preprocess`]).
//! 2. Building an **AIG** for the matrix and composing detected gates back
//!    in ([`build`]).
//! 3. Computing the **dependency graph** (Definition 4) and, via a partial
//!    **MaxSAT** problem (Equations 1–2), a *minimum* set of universal
//!    variables whose elimination linearises the prefix ([`depgraph`],
//!    [`elimset`]).
//! 4. A main loop that interleaves syntactic **unit/pure elimination**
//!    (Theorems 5–6), **existential elimination** (Theorem 2) and
//!    **universal elimination** (Theorem 1) until the dependency graph is
//!    acyclic ([`solver`], [`elim`]).
//! 5. Deciding the remaining **QBF** — still an AIG — in the same loop
//!    (the AIGSOLVE role): the prefix is linearised, then innermost
//!    variables go first by the same rules, and one SAT call decides
//!    what is left once no universal remains.
//!
//! # Examples
//!
//! ```
//! use hqs_core::{Dqbf, Outcome, Session};
//! use hqs_base::Lit;
//!
//! // ∀x₁∀x₂ ∃y₁(x₁) ∃y₂(x₂) : (y₁↔x₁) ∧ (y₂↔x₂)   — satisfiable.
//! let mut dqbf = Dqbf::new();
//! let x1 = dqbf.add_universal();
//! let x2 = dqbf.add_universal();
//! let y1 = dqbf.add_existential([x1]);
//! let y2 = dqbf.add_existential([x2]);
//! for (x, y) in [(x1, y1), (x2, y2)] {
//!     dqbf.add_clause([Lit::positive(x), Lit::negative(y)]);
//!     dqbf.add_clause([Lit::negative(x), Lit::positive(y)]);
//! }
//! let mut session = Session::builder().build().expect("default config is valid");
//! assert_eq!(session.solve(&dqbf), Outcome::Sat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
mod check;
mod config;
pub mod depgraph;
mod dqbf;
pub mod elim;
pub mod elimset;
pub mod expand;
mod formula_hash;
mod outcome;
pub mod preprocess;
pub mod random;
pub mod refute;
mod session;
pub mod skolem;
pub mod solver;

pub use config::ConfigError;
pub use dqbf::Dqbf;
pub use formula_hash::canonical_formula_hash;
pub use hqs_base::InvariantViolation;
pub use outcome::Outcome;
pub use refute::{extract_refutation, InstanceBinding, RefutationCertificate};
pub use session::{Session, SessionBuilder};
pub use skolem::{extract_skolem, SkolemCertificate, SkolemFunction};
#[cfg(test)]
pub(crate) use solver::HqsSolver;
pub use solver::{CertifiedOutcome, CertifyError, DqbfResult, ElimStrategy, HqsConfig, HqsStats};
