//! Foundation types for the HQS DQBF solver stack.
//!
//! This crate defines the identifiers and small data structures that every
//! other crate in the workspace builds on:
//!
//! * [`Var`] — a Boolean variable, a dense index starting at 0.
//! * [`Lit`] — a literal (a variable together with a sign), encoded in a
//!   single `u32` so vectors of literals are cache-friendly.
//! * [`VarSet`] — a dense bitset over variables, used for dependency sets,
//!   supports and elimination sets.
//! * [`Assignment`] — a partial assignment mapping variables to
//!   [`TruthValue`]s.
//! * [`Budget`] / [`CancelToken`] — resource limits and the shared
//!   cooperative-cancellation flag observed at every budget poll site.
//! * [`ByteBudgetLru`] — the byte-budgeted LRU cache behind the serving
//!   architecture's cross-request verdict cache.
//! * [`InvariantViolation`] — the shared error type returned by the
//!   `check_invariants` audits across the solver crates.
//!
//! # Examples
//!
//! ```
//! use hqs_base::{Var, Lit, VarSet};
//!
//! let x = Var::new(0);
//! let y = Var::new(1);
//! let lit = Lit::positive(x);
//! assert_eq!(lit.var(), x);
//! assert!(!lit.is_negative());
//! assert_eq!(!lit, Lit::negative(x));
//!
//! let mut deps = VarSet::new();
//! deps.insert(x);
//! deps.insert(y);
//! assert_eq!(deps.len(), 2);
//! assert!(deps.contains(x));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod budget;
mod cache;
pub mod check;
mod lit;
pub mod rng;
mod varset;

pub use assignment::{Assignment, TruthValue};
pub use budget::{Budget, CancelToken, Exhaustion};
pub use cache::{ByteBudgetLru, CacheStatsSnapshot};
pub use check::InvariantViolation;
pub use lit::{Lit, Var};
pub use rng::Rng;
pub use varset::VarSet;
