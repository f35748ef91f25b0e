//! Racing a strategy deck on one formula across OS threads.
//!
//! ## Cancellation protocol
//!
//! The driver creates one [`CancelToken`] per race and installs it into
//! every worker's [`Budget`]. When a definitive verdict arrives (or a
//! worker fails), the driver fires the token; every budget poll site in
//! the losing workers — the core elimination loop, the CDCL conflict and
//! decision loops, the QBF backends, iDQ's CEGAR loop — then observes
//! [`Exhaustion::Cancelled`] and unwinds cooperatively. No thread is ever
//! killed.
//!
//! ## Arbitration rules
//!
//! - **Race mode** (default): the first definitive SAT/UNSAT verdict to
//!   arrive wins and cancels the rest. Which worker that is depends on OS
//!   scheduling.
//! - **Deterministic mode** ([`PortfolioOptions::deterministic`]): nobody
//!   is cancelled on a win; every worker runs to completion (or to its
//!   budget) and the winner is the *lowest deck index* holding a
//!   definitive verdict. Two runs over the same deck therefore report the
//!   same winner and verdict, at the price of race-mode latency.
//! - In both modes, if one finished worker says SAT and another says
//!   UNSAT, the race refuses to answer and raises
//!   [`EngineError::Disagreement`] carrying both configurations. In race
//!   mode a loser is normally cancelled before finishing, so full
//!   cross-checking is only guaranteed in deterministic mode.

use crate::{panic_message, solve_job, DeckEntry, EngineError, JobError};
use hqs_base::{Budget, CancelToken, Exhaustion, InvariantViolation};
use hqs_core::{Dqbf, Outcome};
use hqs_obs::Obs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// How a portfolio run is driven.
#[derive(Clone, Debug)]
pub struct PortfolioOptions {
    /// Number of OS threads racing the deck. Clamped to at least 1; more
    /// threads than deck entries is wasteful but harmless.
    pub threads: usize,
    /// Reproducible arbitration: run every entry to completion and pick
    /// the lowest deck index with a definitive verdict (see module docs).
    pub deterministic: bool,
    /// Ask each worker to certify its verdict; the outcome's `certified`
    /// flag reports whether the winner's certificate checked out.
    pub certify: bool,
    /// Budget template for every worker (deadline, node limit). Any cancel
    /// token already present is *replaced* by the race's own token; the
    /// original token is still polled by the driver, so cancelling it
    /// cancels the whole race.
    pub budget: Budget,
    /// Observability handle shared by every worker session. The default
    /// disabled handle keeps workers fully uninstrumented; attach one
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

/// What one worker concluded about the formula.
#[derive(Clone, Debug)]
pub struct WorkerVerdict {
    /// The solver verdict.
    pub result: Outcome,
    /// Whether the verdict carries an independently checked certificate.
    pub certified: bool,
}

/// One worker's contribution to a finished portfolio run.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// Index of the entry in the deck the portfolio was launched with.
    pub deck_index: usize,
    /// Deck entry name.
    pub name: String,
    /// The worker's verdict (definitive or a resource limit).
    pub result: Outcome,
    /// Whether the verdict was certified.
    pub certified: bool,
    /// Wall-clock seconds this worker ran.
    pub wall_seconds: f64,
}

/// The aggregate result of a portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The winning verdict, or [`Outcome::Unknown`] if no worker was
    /// definitive.
    pub result: Outcome,
    /// Deck index of the winner, if any worker was definitive.
    pub winner: Option<usize>,
    /// Deck entry name of the winner.
    pub winner_name: Option<String>,
    /// Whether the winning verdict was certified.
    pub certified: bool,
    /// One report per deck entry, sorted by deck index. Entries cancelled
    /// before finishing report `Limit(Cancelled)`.
    pub reports: Vec<WorkerReport>,
}

/// The boxed work closure of a [`PortfolioTask`]: budget in, verdict (or
/// engine failure) out.
pub type TaskFn = Box<dyn FnOnce(&Budget) -> Result<WorkerVerdict, EngineError> + Send>;

/// A unit of racing work: a name plus a closure producing a verdict.
///
/// [`solve_portfolio`] builds these from [`DeckEntry`]s; tests build them
/// directly to inject lying or panicking workers without touching the
/// solver.
pub struct PortfolioTask {
    /// Name used in reports and error messages.
    pub name: String,
    /// Description embedded in disagreement reports (for deck entries,
    /// the `Debug` rendering of the [`hqs_core::HqsConfig`]).
    pub detail: String,
    /// The work. Receives the budget (carrying the race's cancel token)
    /// that the task must poll.
    pub run: TaskFn,
}

/// Races the given deck on one formula and returns the arbitrated outcome.
///
/// See the module docs for the cancellation protocol and arbitration
/// rules. Errors ([`EngineError::Disagreement`], certification failures,
/// worker panics) are never converted into verdicts.
pub fn solve_portfolio(
    dqbf: &Dqbf,
    deck: &[DeckEntry],
    opts: &PortfolioOptions,
) -> Result<PortfolioOutcome, EngineError> {
    let tasks = deck
        .iter()
        .map(|entry| {
            let name = entry.name.clone();
            let mut config = entry.config.clone();
            let detail = format!("{config:?}");
            config.certify |= opts.certify;
            let formula = dqbf.clone();
            let observer = opts.observer.observer();
            PortfolioTask {
                name: name.clone(),
                detail,
                run: Box::new(move |budget: &Budget| {
                    config.budget = budget.clone();
                    solve_job(&formula, config, observer, None).map_err(|error| match error {
                        JobError::Config(error) => EngineError::InvalidConfig {
                            worker: name,
                            error,
                        },
                        JobError::Certify(error) => EngineError::Certification {
                            worker: name,
                            error,
                        },
                    })
                }),
            }
        })
        .collect();
    run_custom_portfolio(tasks, opts)
}

/// Message sent from a worker thread back to the driver.
struct Arrival {
    task_index: usize,
    name: String,
    detail: String,
    wall_seconds: f64,
    payload: Result<WorkerVerdict, EngineError>,
}

/// Races arbitrary tasks (the generic seam under [`solve_portfolio`]).
///
/// Exposed so integration tests can race mock tasks — a lying worker pair
/// to exercise disagreement detection, a panicking task to exercise panic
/// isolation — without constructing solver configurations.
pub fn run_custom_portfolio(
    tasks: Vec<PortfolioTask>,
    opts: &PortfolioOptions,
) -> Result<PortfolioOutcome, EngineError> {
    let task_count = tasks.len();
    let token = CancelToken::new();
    let caller_token = opts.budget.cancel_token().cloned();
    let worker_budget = opts.budget.clone().with_cancel_token(token.clone());
    let threads = opts.threads.max(1).min(task_count.max(1));
    let deterministic = opts.deterministic;

    // FnOnce tasks are claimed by index: a shared cursor hands out the next
    // index and the slot's mutex lets exactly one worker take the closure.
    let slots: Vec<Mutex<Option<PortfolioTask>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<Arrival>();

    let mut arrivals: Vec<Arrival> = Vec::with_capacity(task_count);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let token = token.clone();
            let worker_budget = worker_budget.clone();
            let slots = &slots;
            let cursor = &cursor;
            scope.spawn(move || loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(index) else { break };
                let Some(task) = take_task(slot) else {
                    continue;
                };
                let start = Instant::now();
                let payload = if token.is_cancelled() && !deterministic {
                    // The race is already over; don't start losing work.
                    Ok(WorkerVerdict {
                        result: Outcome::Unknown(Exhaustion::Cancelled),
                        certified: false,
                    })
                } else {
                    let run = AssertUnwindSafe(|| (task.run)(&worker_budget));
                    match catch_unwind(run) {
                        Ok(verdict) => verdict,
                        Err(panic) => Err(EngineError::WorkerPanic {
                            worker: task.name.clone(),
                            message: panic_message(panic.as_ref()),
                        }),
                    }
                };
                let sent = tx.send(Arrival {
                    task_index: index,
                    name: task.name,
                    detail: task.detail,
                    wall_seconds: start.elapsed().as_secs_f64(),
                    payload,
                });
                if sent.is_err() {
                    break; // driver is gone; nothing left to report to
                }
            });
        }
        drop(tx);

        // Drive the race: collect one arrival per task, firing the cancel
        // token on the first definitive verdict (race mode) or on the
        // first worker failure (both modes). The caller's original token,
        // if any, is polled so external cancellation reaches the race.
        while arrivals.len() < task_count {
            let arrival = match rx.recv_timeout(Duration::from_millis(25)) {
                Ok(a) => a,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if let Some(outer) = &caller_token {
                        if outer.is_cancelled() && !token.is_cancelled() {
                            token.cancel("portfolio cancelled by caller");
                        }
                    }
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            };
            match &arrival.payload {
                Ok(verdict) => {
                    let definitive = matches!(verdict.result, Outcome::Sat | Outcome::Unsat);
                    if definitive && !deterministic && !token.is_cancelled() {
                        token.cancel("portfolio winner found");
                    }
                }
                Err(_) => {
                    if !token.is_cancelled() {
                        token.cancel("portfolio worker failed");
                    }
                }
            }
            arrivals.push(arrival);
        }
    });

    arbitrate(arrivals, task_count)
}

/// Takes ownership of a task slot, recovering from lock poisoning (a
/// sibling worker panicking while holding the lock must not take the whole
/// portfolio down).
fn take_task(slot: &Mutex<Option<PortfolioTask>>) -> Option<PortfolioTask> {
    match slot.lock() {
        Ok(mut guard) => guard.take(),
        Err(poisoned) => poisoned.into_inner().take(),
    }
}

/// Turns the raw arrivals into an arbitrated outcome or a loud error.
fn arbitrate(
    mut arrivals: Vec<Arrival>,
    task_count: usize,
) -> Result<PortfolioOutcome, EngineError> {
    arrivals.sort_by_key(|a| a.task_index);

    // Worker failures outrank verdicts: a panicked or uncertifiable
    // worker means the race cannot be trusted end-to-end.
    if let Some(pos) = arrivals.iter().position(|a| a.payload.is_err()) {
        let failed = arrivals.remove(pos);
        failed.payload?;
    }

    let mut reports: Vec<WorkerReport> = Vec::with_capacity(task_count);
    for arrival in &arrivals {
        if let Ok(verdict) = &arrival.payload {
            reports.push(WorkerReport {
                deck_index: arrival.task_index,
                name: arrival.name.clone(),
                result: verdict.result,
                certified: verdict.certified,
                wall_seconds: arrival.wall_seconds,
            });
        }
    }

    // Cross-check every definitive pair before declaring a winner.
    let first_sat = reports.iter().find(|r| r.result == Outcome::Sat);
    let first_unsat = reports.iter().find(|r| r.result == Outcome::Unsat);
    if let (Some(sat), Some(unsat)) = (first_sat, first_unsat) {
        let sat_detail = detail_for(&arrivals, sat.deck_index);
        let unsat_detail = detail_for(&arrivals, unsat.deck_index);
        let violation = InvariantViolation::new(
            "portfolio",
            format!(
                "contradictory verdicts: '{}' (deck {}) answered SAT with config {} while \
                 '{}' (deck {}) answered UNSAT with config {}",
                sat.name, sat.deck_index, sat_detail, unsat.name, unsat.deck_index, unsat_detail
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
    let winner = reports
        .iter()
        .find(|r| matches!(r.result, Outcome::Sat | Outcome::Unsat));
    let outcome = match winner {
        Some(w) => PortfolioOutcome {
            result: w.result,
            winner: Some(w.deck_index),
            winner_name: Some(w.name.clone()),
            certified: w.certified,
            reports,
        },
        None => {
            // No definitive verdict: report the most informative limit —
            // a real exhaustion (timeout/memout) over a cancellation echo.
            let limit = reports
                .iter()
                .find_map(|r| match r.result {
                    Outcome::Unknown(e) if e != Exhaustion::Cancelled => Some(e),
                    _ => None,
                })
                .unwrap_or(Exhaustion::Cancelled);
            PortfolioOutcome {
                result: Outcome::Unknown(limit),
                winner: None,
                winner_name: None,
                certified: false,
                reports,
            }
        }
    };
    Ok(outcome)
}

/// Looks up the task detail string for a deck index.
fn detail_for(arrivals: &[Arrival], deck_index: usize) -> String {
    arrivals
        .iter()
        .find(|a| a.task_index == deck_index)
        .map(|a| a.detail.clone())
        .unwrap_or_default()
}
