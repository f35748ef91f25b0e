//! Racing a strategy deck on one formula: a batch of deck entries with
//! a stop rule.
//!
//! ## Scheduling
//!
//! The deck entries are the jobs of one [`run_batch_with`] call, so a
//! portfolio entry is claimed and run by the same cursor loop as a
//! corpus job. The race owns one [`CancelToken`]: it is the batch's
//! cancel token, and every entry's [`Budget`] carries it. Firing it
//! stops dispatch (the claim loop polls it before every claim, so an
//! entry never started reports `Limit(Cancelled)`), and every budget
//! poll site in a running entry — the core elimination loop, the CDCL
//! conflict and decision loops, the QBF finish, iDQ's CEGAR loop —
//! observes [`Exhaustion::Cancelled`] and unwinds cooperatively. No
//! thread is ever killed.
//!
//! With at least as many workers as entries, every entry runs under the
//! race budget's deadline. With fewer, the entries run in `⌈entries /
//! workers⌉` waves, so each entry gets that share of the time left at
//! race start, counted from its own start: an entry that starts after
//! another one overran still has time to answer.
//!
//! ## Stop rule
//!
//! The batch's record callback runs on the worker thread that finished
//! an entry, before that thread claims again. It fires the token on
//! the first SAT/UNSAT record in race mode, and on any PANIC/ERROR
//! record in both modes.
//!
//! ## Arbitration rules
//!
//! - **Race mode** (default): the first definitive verdict stops the
//!   race. Which entry answers first depends on OS scheduling.
//! - **Deterministic mode** ([`PortfolioOptions::deterministic`]): no
//!   verdict stops the race; every entry runs to completion (or to its
//!   budget). Two runs over the same deck therefore report the same
//!   winner and verdict, at the price of race-mode latency.
//! - In both modes a failed entry outranks every verdict, the winner is
//!   the *lowest deck index* holding a definitive verdict, and if one
//!   finished entry says SAT and another says UNSAT, the race refuses
//!   to answer and raises [`EngineError::Disagreement`] carrying both
//!   configurations. In race mode a loser is normally cancelled before
//!   finishing, so full cross-checking is only guaranteed in
//!   deterministic mode.

use crate::{
    run_batch_with, solve_job, BatchTag, DeckEntry, EngineError, JobOutcome, JobRecord, JobResult,
};
use hqs_base::{Budget, CancelToken, Exhaustion, InvariantViolation};
use hqs_core::{Dqbf, Outcome};
use hqs_obs::Obs;

/// How a portfolio run is driven.
#[derive(Clone, Debug)]
pub struct PortfolioOptions {
    /// Number of batch workers racing the deck. Clamped to between 1
    /// and the deck size.
    pub threads: usize,
    /// Reproducible arbitration: run every entry to completion and pick
    /// the lowest deck index with a definitive verdict (see module docs).
    pub deterministic: bool,
    /// Ask each entry to certify its verdict; the outcome's `certified`
    /// flag reports whether the winner's certificate checked out.
    pub certify: bool,
    /// Budget template for every entry (deadline, node limit). The race
    /// owns its cancel token: a token already in this budget is
    /// replaced by the race's own, so firing it does not reach the race.
    pub budget: Budget,
    /// Observability handle shared by every entry's session. The default
    /// disabled handle keeps entries fully uninstrumented; attach one
    /// [`MetricsObserver`](hqs_obs::MetricsObserver) to aggregate
    /// counters and spans across the whole race (the sharded registry
    /// is built for exactly this concurrency).
    pub observer: Obs,
}

impl Default for PortfolioOptions {
    fn default() -> Self {
        PortfolioOptions {
            threads: 4,
            deterministic: false,
            certify: false,
            budget: Budget::new(),
            observer: Obs::disabled(),
        }
    }
}

/// The aggregate result of a portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The winning verdict, or [`Outcome::Unknown`] if no entry was
    /// definitive.
    pub result: Outcome,
    /// Deck index of the winner, if any entry was definitive.
    pub winner: Option<usize>,
    /// Deck entry name of the winner.
    pub winner_name: Option<String>,
    /// Whether the winning verdict was certified.
    pub certified: bool,
    /// One batch record per deck entry, in deck order; a record's
    /// `name` is the entry's name. Entries stopped before they started
    /// report `Limit(Cancelled)` with zero time.
    pub reports: Vec<JobRecord>,
}

/// Races the given deck on one formula and returns the arbitrated outcome.
///
/// Each entry solves through [`solve_job`] under its own configuration,
/// with [`PortfolioOptions::certify`] OR-ed in and the race budget. See
/// the module docs for the stop rule and the arbitration rules.
///
/// # Errors
///
/// [`EngineError::Disagreement`] when two entries contradict each
/// other, [`EngineError::WorkerFailed`] when an entry panicked or its
/// configuration or certificate failed. Errors are never converted
/// into verdicts.
pub fn solve_portfolio(
    dqbf: &Dqbf,
    deck: &[DeckEntry],
    opts: &PortfolioOptions,
) -> Result<PortfolioOutcome, EngineError> {
    let names: Vec<String> = deck.iter().map(|entry| entry.name.clone()).collect();
    let details: Vec<String> = deck
        .iter()
        .map(|entry| format!("{:?}", entry.config))
        .collect();
    race_with(&names, &details, opts, |index, budget| {
        let Some(entry) = deck.get(index) else {
            return (JobOutcome::Error("deck index out of range".into()), false).into();
        };
        let mut config = entry.config.clone();
        config.certify |= opts.certify;
        config.budget = budget.clone();
        match solve_job(dqbf, config, opts.observer.observer()) {
            Ok(verdict) => (verdict.result.into(), verdict.certified).into(),
            Err(error) => (JobOutcome::Error(error.to_string()), false).into(),
        }
    })
}

/// Races arbitrary entries (the generic seam under [`solve_portfolio`]).
///
/// `names[i]` and `details[i]` name entry `i` in records and in
/// disagreement reports; `runner` solves entry `i` under the race
/// budget, which it must poll, and may panic. Tests race mock entries
/// through it — a lying pair, a panicking entry, a busy loser —
/// without building solver configurations. The `observer` of `opts` is
/// the runner's business and is not read here.
///
/// # Errors
///
/// As [`solve_portfolio`].
pub fn race_with<F>(
    names: &[String],
    details: &[String],
    opts: &PortfolioOptions,
    runner: F,
) -> Result<PortfolioOutcome, EngineError>
where
    F: Fn(usize, &Budget) -> JobResult + Sync,
{
    let token = CancelToken::new();
    let budget = opts.budget.clone().with_cancel_token(token.clone());
    let deterministic = opts.deterministic;
    let stop = |record: &JobRecord| match record.outcome {
        JobOutcome::Sat | JobOutcome::Unsat if !deterministic => {
            token.cancel("portfolio winner found");
        }
        JobOutcome::Panicked(_) | JobOutcome::Error(_) => token.cancel("portfolio worker failed"),
        _ => {}
    };
    let workers = opts.threads.clamp(1, names.len().max(1));
    let waves = names.len().div_ceil(workers);
    let share = budget
        .time_left()
        .filter(|_| waves > 1)
        .map(|left| left / u32::try_from(waves).unwrap_or(u32::MAX));
    let summary = run_batch_with(
        names,
        workers,
        &token,
        &BatchTag::default(),
        |index| match share {
            Some(share) => runner(index, &budget.clone().with_timeout(share)),
            None => runner(index, &budget),
        },
        &stop,
    );
    arbitrate(summary.records, details)
}

/// Turns the race's records, in deck order, into an arbitrated outcome
/// or a loud error.
fn arbitrate(records: Vec<JobRecord>, details: &[String]) -> Result<PortfolioOutcome, EngineError> {
    // Failures outrank verdicts: a panicked or uncertifiable entry
    // means the race cannot be trusted end to end.
    for record in &records {
        if let JobOutcome::Panicked(message) | JobOutcome::Error(message) = &record.outcome {
            return Err(EngineError::WorkerFailed {
                worker: record.name.clone(),
                message: message.clone(),
            });
        }
    }

    // Cross-check every definitive pair before declaring a winner.
    let first = |outcome: JobOutcome| records.iter().find(|r| r.outcome == outcome);
    if let (Some(sat), Some(unsat)) = (first(JobOutcome::Sat), first(JobOutcome::Unsat)) {
        let detail = |record: &JobRecord| details.get(record.index).map_or("", String::as_str);
        let violation = InvariantViolation::new(
            "portfolio",
            format!(
                "contradictory verdicts: '{}' (deck {}) answered SAT with config {} while \
                 '{}' (deck {}) answered UNSAT with config {}",
                sat.name,
                sat.index,
                detail(sat),
                unsat.name,
                unsat.index,
                detail(unsat)
            ),
        );
        return Err(EngineError::Disagreement {
            sat_worker: sat.name.clone(),
            unsat_worker: unsat.name.clone(),
            violation,
        });
    }

    // Winner: lowest deck index with a definitive verdict. In race mode
    // at most one definitive verdict normally exists (the rest were
    // cancelled); in deterministic mode this is the reproducible pick.
    let winner = records.iter().find_map(|r| match r.outcome {
        JobOutcome::Sat => Some((r, Outcome::Sat)),
        JobOutcome::Unsat => Some((r, Outcome::Unsat)),
        _ => None,
    });
    let (result, winner, winner_name, certified) = match winner {
        Some((w, result)) => (result, Some(w.index), Some(w.name.clone()), w.certified),
        None => {
            // No definitive verdict: report the most informative limit —
            // a real exhaustion (timeout/memout) over a cancellation echo.
            let limit = records
                .iter()
                .find_map(|r| match r.outcome {
                    JobOutcome::Limit(e) if e != Exhaustion::Cancelled => Some(e),
                    _ => None,
                })
                .unwrap_or(Exhaustion::Cancelled);
            (Outcome::Unknown(limit), None, None, false)
        }
    };
    Ok(PortfolioOutcome {
        result,
        winner,
        winner_name,
        certified,
        reports: records,
    })
}
