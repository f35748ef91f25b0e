//! Parallel solving engine for HQS: batch scheduling and portfolio racing.
//!
//! DQBF solving is wildly heterogeneous — the same instance that times out
//! under one [`HqsConfig`](hqs_core::HqsConfig) falls in milliseconds under
//! another, and nothing cheap predicts which. This crate exploits that
//! variance two ways, both on one scheduler built from `std` only (OS
//! threads, atomics — no external runtime):
//!
//! - **Batch scheduling** ([`run_batch`]): drive a whole corpus of jobs
//!   through a worker pool that claims job indices from one shared atomic
//!   cursor. Each job gets its own wall-clock/node budget,
//!   panics are isolated per job via `catch_unwind`, and results stream out
//!   as machine-readable JSONL records with per-job wall and CPU time.
//! - **Portfolio solving** ([`solve_portfolio`]): a batch whose jobs are
//!   the entries of a strategy deck ([`standard_deck`]: the paper's
//!   default and the all-universals strategy) on one formula, with a stop
//!   rule. The race owns one [`CancelToken`](hqs_base::CancelToken): it
//!   is the batch's cancel token and rides in every entry's
//!   [`Budget`](hqs_base::Budget), so the first definitive SAT/UNSAT
//!   verdict stops dispatch and every existing budget poll site in the
//!   elimination loop, the CDCL restart loop and the QBF finish tears
//!   the losers down cooperatively. Entries that *disagree* (one says
//!   SAT, one says UNSAT) raise an [`hqs_base::InvariantViolation`]
//!   carrying both configurations rather than silently picking one.
//!
//! Portfolio entries, batch jobs and `hqs-serve` requests are all solved
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
pub use job::{solve_job, JobError, WorkerVerdict};
pub use jsonl::escape_json;
pub use portfolio::{race_with, solve_portfolio, PortfolioOptions, PortfolioOutcome};
pub use scheduler::{
    run_batch, run_batch_with, BatchJob, BatchOptions, BatchSummary, BatchTag, JobOutcome,
    JobRecord, JobResult,
};

use hqs_base::InvariantViolation;
use std::fmt;

/// A failure of the engine itself, as opposed to a resource limit.
///
/// Every variant is loud by design: a portfolio that swallowed a
/// disagreement or a failed entry would convert a soundness bug into a
/// wrong answer.
#[derive(Debug)]
pub enum EngineError {
    /// Two portfolio entries returned contradictory definitive verdicts.
    ///
    /// This can only happen if at least one strategy variant is unsound, so
    /// the race refuses to pick a winner and surfaces both configurations.
    Disagreement {
        /// Deck name of the entry that answered SAT.
        sat_worker: String,
        /// Deck name of the entry that answered UNSAT.
        unsat_worker: String,
        /// The violation report; its detail embeds both configurations.
        violation: InvariantViolation,
    },
    /// A portfolio entry panicked (the panic was caught at the job
    /// boundary), its configuration was rejected, or its certificate
    /// could not be built or checked.
    WorkerFailed {
        /// Deck name of the entry that failed.
        worker: String,
        /// The message of the entry's `PANIC` or `ERROR` record.
        message: String,
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
            EngineError::WorkerFailed { worker, message } => {
                write!(f, "portfolio worker '{worker}' failed: {message}")
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
