//! An And-Inverter-Graph (AIG) package.
//!
//! This crate reimplements the AIG substrate the HQS paper builds on (the
//! authors used the C++ library *aigpp*): Boolean functions are represented
//! as DAGs of two-input AND gates with complemented edges, with
//!
//! * structural hashing and one-level simplification rules,
//! * the Boolean operations `and`, `or`, `xor`, `mux`, `implies`, `iff`,
//! * cofactors (one, or both in one pass with
//!   [`cofactors`](Aig::cofactors)), [`compose`](Aig::compose) (function
//!   substitution), and single-variable existential/universal
//!   quantification,
//! * one [walk](Aig::walk) of a cone that yields its topological order,
//!   AND count and support, with three linear sweeps over it: the
//!   *syntactic unit/pure detection* of Theorem 6 of the paper
//!   ([`unit_pure`](Aig::unit_pure)), the occurrence costs that order
//!   eliminations ([`occurrence_counts`](Aig::occurrence_counts)) and
//!   the quantification of a block of up to four variables under one
//!   quantifier ([`quantify_block`](Aig::quantify_block)), which the
//!   QBF finish applies instead of one `exists` or `forall` per
//!   variable, and
//! * Tseitin conversion to CNF and back.
//!
//! aigpp also turns AIGs into functionally reduced AIGs by SAT sweeping;
//! this package does not, because sweeping decided no corpus instance
//! that the plain manager misses (DESIGN.md §3).
//!
//! # Examples
//!
//! ```
//! use hqs_aig::Aig;
//! use hqs_base::Var;
//!
//! let mut aig = Aig::new();
//! let x = aig.input(Var::new(0));
//! let y = aig.input(Var::new(1));
//! let f = aig.and(x, y);
//! // Quantify x away: ∃x. (x ∧ y) ≡ y
//! let g = aig.exists(f, Var::new(0));
//! assert_eq!(g, y);
//! // ∀x. (x ∧ y) ≡ false
//! let h = aig.forall(f, Var::new(0));
//! assert_eq!(h, Aig::FALSE);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod cnf_conv;
mod edge;
mod manager;
mod unitpure;
mod walk;

pub use edge::AigEdge;
pub use hqs_base::InvariantViolation;
pub use manager::{Aig, AigNode};
pub use unitpure::{UnitPureBatch, UnitPureStatus, UnitPureStep, VarStatus};
pub use walk::ConeWalk;
