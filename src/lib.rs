//! HQS — solving DQBF through quantifier elimination.
//!
//! This is the facade crate of the workspace: it re-exports the public API
//! of every layer so applications can depend on a single crate. The
//! implementation reproduces, from scratch in Rust, the DQBF solver HQS of
//!
//! > K. Gitina, R. Wimmer, S. Reimer, M. Sauer, C. Scholl, B. Becker:
//! > *Solving DQBF Through Quantifier Elimination*, DATE 2015,
//!
//! together with every substrate the paper relies on: a CDCL SAT solver,
//! a partial MaxSAT solver, an AIG package with syntactic unit/pure
//! detection, an AIGSOLVE-style QBF finish inside the HQS elimination
//! loop, an iDQ-style instantiation baseline, and the PEC benchmark
//! circuit families of the evaluation.
//!
//! # Quickstart
//!
//! Solve through a [`Session`], the blessed entry point — it validates
//! the configuration and carries the observer/cancellation wiring:
//!
//! ```
//! use hqs::{Dqbf, Outcome, Session};
//! use hqs::base::Lit;
//!
//! // Example 1 of the paper: ∀x₁∀x₂ ∃y₁(x₁) ∃y₂(x₂) : (y₁↔x₁) ∧ (y₂↔x₂).
//! let mut dqbf = Dqbf::new();
//! let x1 = dqbf.add_universal();
//! let x2 = dqbf.add_universal();
//! let y1 = dqbf.add_existential([x1]);
//! let y2 = dqbf.add_existential([x2]);
//! for (x, y) in [(x1, y1), (x2, y2)] {
//!     dqbf.add_clause([Lit::positive(x), Lit::negative(y)]);
//!     dqbf.add_clause([Lit::negative(x), Lit::positive(y)]);
//! }
//! let mut session = Session::builder().build().expect("defaults are valid");
//! assert_eq!(session.solve(&dqbf), Outcome::Sat);
//! ```
//!
//! # Layer map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`base`] | `hqs-base` | variables, literals, bitsets, budgets |
//! | [`cnf`] | `hqs-cnf` | clauses, CNF, (D)QDIMACS I/O |
//! | [`sat`] | `hqs-sat` | CDCL SAT solver with DRAT proof logging |
//! | [`proof`] | `hqs-proof` | independent DRAT/RUP proof checker |
//! | [`maxsat`] | `hqs-maxsat` | partial MaxSAT (totalizer) |
//! | [`aig`] | `hqs-aig` | AIG manager, quantification, unit/pure, Tseitin conversion |
//! | [`qbf`] | `hqs-qbf` | QBF prefixes and a brute-force QBF evaluator |
//! | [`core`] | `hqs-core` | the HQS DQBF solver itself, QBF finish included |
//! | [`obs`] | `hqs-obs` | observability: metrics, phase spans, exporters |
//! | [`idq`] | `hqs-idq` | instantiation-based baseline (iDQ role) |
//! | [`pec`] | `hqs-pec` | PEC benchmark circuits and encoding |
//! | [`engine`] | `hqs-engine` | parallel portfolio racing + batch scheduler |
//! | [`serve`] | `hqs-serve` | long-lived solver service with a cross-request verdict cache |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hqs_aig as aig;
pub use hqs_base as base;
pub use hqs_cnf as cnf;
pub use hqs_core as core;
pub use hqs_engine as engine;
pub use hqs_idq as idq;
pub use hqs_maxsat as maxsat;
pub use hqs_obs as obs;
pub use hqs_pec as pec;
pub use hqs_proof as proof;
pub use hqs_qbf as qbf;
pub use hqs_sat as sat;
pub use hqs_serve as serve;

pub use hqs_core::{
    CertifiedOutcome, CertifyError, ConfigError, Dqbf, DqbfResult, ElimStrategy, HqsConfig,
    HqsStats, Outcome, RefutationCertificate, Session, SessionBuilder, SkolemCertificate,
};
pub use hqs_idq::InstantiationSolver;
