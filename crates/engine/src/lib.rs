//! Parallel solving engine for HQS: portfolio racing and batch scheduling.
//!
//! DQBF solving is wildly heterogeneous — the same instance that times out
//! under one [`HqsConfig`](hqs_core::HqsConfig) falls in milliseconds under
//! another, and nothing cheap predicts which. This crate exploits that
//! variance two ways, both built from `std` only (OS threads, atomics,
//! channels — no external runtime):
//!
//! - **Portfolio solving** ([`solve_portfolio`]): race a deck of
//!   strategy variants ([`standard_deck`]: the paper's default and the
//!   all-universals strategy) on one formula across OS threads.
//!   The first definitive SAT/UNSAT verdict wins and the losers are torn
//!   down cooperatively through the shared
//!   [`CancelToken`](hqs_base::CancelToken) threaded into every worker's
//!   [`Budget`](hqs_base::Budget) — every existing budget poll site in the
//!   elimination loop, the CDCL restart loop and the QBF backends doubles
//!   as a cancellation point. Workers that *disagree* (one says SAT, one
//!   says UNSAT) raise an [`hqs_base::InvariantViolation`]
//!   carrying both configurations rather than silently picking one.
//! - **Batch scheduling** ([`run_batch`]): drive a whole corpus of jobs
//!   through a worker pool that claims job indices from one shared atomic
//!   cursor. Each job gets its own wall-clock/node budget,
//!   panics are isolated per job via `catch_unwind`, and results stream out
//!   as machine-readable JSONL records with per-job wall and CPU time.
//!
//! Portfolio workers, batch jobs and `hqs-serve` requests are all solved
//! by [`solve_job`], the one place a session is built and a verdict
//! certified.
//!
//! The CLI surfaces both: `hqs --portfolio [--jobs N]` and
//! `hqs batch <dir>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod deck;
mod job;
mod jsonl;
mod portfolio;
mod scheduler;

pub use corpus::{load_corpus, CorpusError};
pub use deck::{standard_deck, DeckEntry};
pub use job::{solve_job, JobError};
pub use jsonl::escape_json;
pub use portfolio::{
    run_custom_portfolio, solve_portfolio, PortfolioOptions, PortfolioOutcome, PortfolioTask,
    TaskFn, WorkerReport, WorkerVerdict,
};
pub use scheduler::{
    run_batch, run_batch_with, BatchJob, BatchOptions, BatchSummary, BatchTag, JobOutcome,
    JobRecord, JobResult,
};

use hqs_base::InvariantViolation;
use hqs_core::{CertifyError, ConfigError};
use std::fmt;

/// A failure of the engine itself, as opposed to a resource limit.
///
/// Every variant is loud by design: a portfolio that swallowed a
/// disagreement or a panicked worker would convert a soundness bug into a
/// wrong answer.
#[derive(Debug)]
pub enum EngineError {
    /// Two portfolio workers returned contradictory definitive verdicts.
    ///
    /// This can only happen if at least one strategy variant is unsound, so
    /// the race refuses to pick a winner and surfaces both configurations.
    Disagreement {
        /// Deck name of the worker that answered SAT.
        sat_worker: String,
        /// Deck name of the worker that answered UNSAT.
        unsat_worker: String,
        /// The violation report; its detail embeds both configurations.
        violation: InvariantViolation,
    },
    /// A worker's certificate extraction or verification failed — the
    /// solver's verdict could not be independently confirmed.
    Certification {
        /// Deck name of the worker whose certificate failed.
        worker: String,
        /// The underlying certification failure.
        error: CertifyError,
    },
    /// A portfolio worker panicked; the panic was caught at the worker
    /// boundary so the other racers kept their threads.
    WorkerPanic {
        /// Deck name of the worker that panicked.
        worker: String,
        /// The panic payload, stringified when possible.
        message: String,
    },
    /// A worker's configuration failed validation when its solve session
    /// was built — the deck entry is broken, not the formula.
    InvalidConfig {
        /// Deck name of the worker with the rejected configuration.
        worker: String,
        /// The validation failure.
        error: ConfigError,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Disagreement {
                sat_worker,
                unsat_worker,
                violation,
            } => write!(
                f,
                "portfolio disagreement: worker '{sat_worker}' answered SAT while worker \
                 '{unsat_worker}' answered UNSAT: {violation}"
            ),
            EngineError::Certification { worker, error } => {
                write!(f, "certification failed in worker '{worker}': {error}")
            }
            EngineError::WorkerPanic { worker, message } => {
                write!(f, "portfolio worker '{worker}' panicked: {message}")
            }
            EngineError::InvalidConfig { worker, error } => {
                write!(f, "invalid configuration in worker '{worker}': {error}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Stringifies a caught panic payload (`&str` and `String` payloads are
/// recovered verbatim; anything else gets a placeholder).
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
