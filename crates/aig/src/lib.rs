//! An And-Inverter-Graph (AIG) package.
//!
//! This crate reimplements the AIG substrate the HQS paper builds on (the
//! authors used the C++ library *aigpp*): Boolean functions are represented
//! as DAGs of two-input AND gates with complemented edges, with
//!
//! * structural hashing and one-level simplification rules,
//! * the Boolean operations `and`, `or`, `xor` and `mux`,
//! * one [walk](Aig::walk) of a cone that yields its nodes in ascending
//!   index, AND count and support: the arena is topologically ordered
//!   (every AND node's fanins are older than it), so one backward scan
//!   from the root's index finds the cone, and ascending index is a
//!   topological order, and
//! * forward and reverse sweeps over that order, which are the only way
//!   the package reads or rebuilds a cone, each reading the node arena
//!   front to back or back to front:
//!   - the cofactor pair ([`cofactors`](Aig::cofactors)) and simultaneous
//!     substitution ([`compose_many`](Aig::compose_many)), one sweep that
//!     keeps each node's images in its memo slot,
//!   - the compaction inside [`reduce`](Aig::reduce), which rebuilds the
//!     live cone in a fresh manager,
//!   - the quantification of a block of up to four variables under one
//!     quantifier ([`quantify_block`](Aig::quantify_block)), which the
//!     QBF finish applies,
//!   - the *syntactic unit/pure detection* of Theorem 6 of the paper
//!     ([`unit_pure`](Aig::unit_pure)) and the occurrence costs that
//!     order eliminations ([`occurrence_counts`](Aig::occurrence_counts)),
//!   - Tseitin conversion to CNF ([`tseitin`](Aig::tseitin)); CNF is
//!     read back with [`from_cnf`](Aig::from_cnf).
//!
//! No sweep's stack use depends on the depth of the cone, so a cone as
//! deep as the input makes it is rebuilt on a small worker stack.
//! [`eval`](Aig::eval), a recursion, is the reference the tests compare
//! the sweeps against.
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
//! use hqs_cnf::Quantifier;
//!
//! let mut aig = Aig::new();
//! let x = aig.input(Var::new(0));
//! let y = aig.input(Var::new(1));
//! let f = aig.and(x, y);
//! let walk = aig.walk(f);
//! // The cofactors of x ∧ y on x are false and y.
//! assert_eq!(aig.cofactors(&walk, Var::new(0)), (Aig::FALSE, y));
//! // Quantify x away: ∃x. (x ∧ y) ≡ y and ∀x. (x ∧ y) ≡ false.
//! let x_only = [Var::new(0)];
//! assert_eq!(aig.quantify_block(&walk, &x_only, Quantifier::Existential), y);
//! assert_eq!(aig.quantify_block(&walk, &x_only, Quantifier::Universal), Aig::FALSE);
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
