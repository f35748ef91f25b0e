//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! This crate reimplements the SAT substrate the HQS paper relies on
//! (the authors used *antom*): a MiniSat-style CDCL solver with
//!
//! * a contiguous clause arena (one `Vec<u32>` of headers + literals,
//!   compacted by garbage collection) and flat two-watched-literal
//!   propagation,
//! * first-UIP conflict analysis with clause minimisation,
//! * VSIDS variable activities with phase saving,
//! * Glucose-style LBD-EMA restarts with a Luby fallback on
//!   conflict-starved stretches,
//! * chronological backtracking for backjumps longer than
//!   [`SatConfig::chrono_threshold`] levels,
//! * three-tier learnt-clause database reduction (core / tier2 / local,
//!   with glue protection and used-recently second chances),
//! * incremental solving under assumptions with failed-assumption
//!   extraction (used by the MaxSAT layer),
//! * a typed, validated configuration ([`SatConfig`]), and
//! * optional text DRAT proof logging through [`ProofLogger`], so UNSAT
//!   verdicts can be validated by the independent checker in `hqs-proof`.
//!
//! # Examples
//!
//! ```
//! use hqs_base::{Lit, Var};
//! use hqs_sat::{SolveResult, Solver};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var();
//! let y = solver.new_var();
//! solver.add_clause([Lit::positive(x), Lit::positive(y)]);
//! solver.add_clause([Lit::negative(x)]);
//! assert_eq!(solver.solve(&[]), SolveResult::Sat);
//! assert_eq!(solver.model_value(y), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod check;
mod config;
mod heap;
mod luby;
mod proof;
pub mod reference;
mod restart;
mod solver;
mod watch;

pub use config::{SatConfig, SatConfigError};
pub use hqs_base::InvariantViolation;
pub use proof::{ProofBuffer, ProofLogger, TextDratLogger};
pub use solver::{SolveResult, Solver, SolverBuilder, SolverStats};
