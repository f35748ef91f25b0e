//! Linear QBF prefixes and a brute-force QBF evaluator.
//!
//! HQS decides the QBF that remains once its dependency graph is acyclic
//! inside its own elimination loop (`hqs-core`), in the role AIGSOLVE
//! (Pigorsch & Scholl) plays in the paper. This crate holds what that
//! finish and its tests share:
//!
//! * [`Prefix`], the linear prefix `hqs_core::depgraph::linearise`
//!   builds from an acyclic dependency graph;
//! * [`reference`](mod@reference), an exhaustive QBF evaluator that tests and the
//!   fuzzer use as an oracle.
//!
//! # Examples
//!
//! ```
//! use hqs_cnf::dimacs::parse_qdimacs;
//! use hqs_qbf::reference::eval_qdimacs;
//!
//! // ∀x ∃y. (x ↔ y)  — true (y copies x).
//! let file = parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n1 -2 0\n-1 2 0\n")?;
//! assert!(eval_qdimacs(&file));
//!
//! // ∃y ∀x. (x ↔ y)  — false.
//! let file = parse_qdimacs("p cnf 2 2\ne 2 0\na 1 0\n1 -2 0\n-1 2 0\n")?;
//! assert!(!eval_qdimacs(&file));
//! # Ok::<(), hqs_cnf::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod prefix;
pub mod reference;

pub use prefix::Prefix;
