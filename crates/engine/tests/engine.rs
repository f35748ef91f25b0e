//! End-to-end tests for the portfolio engine and the batch scheduler:
//! arbitration, disagreement detection, cancellation latency, panic
//! isolation and deterministic reproducibility.

use hqs_base::{CancelToken, Exhaustion, Lit};
use hqs_core::expand::MAX_EXPANSION_UNIVERSALS;
use hqs_core::{Dqbf, HqsConfig, Outcome};
use hqs_engine::{
    run_batch, run_batch_with, run_custom_portfolio, solve_portfolio, standard_deck, BatchJob,
    BatchOptions, BatchTag, EngineError, JobOutcome, PortfolioOptions, PortfolioTask,
    WorkerVerdict,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// `∀x ∃y(x). (y ∨ ¬x) ∧ (¬y ∨ x)` — satisfied by the Skolem function
/// `y := x`.
const SAT_DQDIMACS: &str = "p cnf 2 2\na 1 0\nd 2 1 0\n2 -1 0\n-2 1 0\n";

/// `∃y ∀x. (y ∨ x) ∧ (¬y ∨ ¬x)` — `y` may not depend on `x` but would
/// have to equal `¬x`; unsatisfiable.
const UNSAT_DQDIMACS: &str = "p cnf 2 2\ne 2 0\na 1 0\n2 1 0\n-2 -1 0\n";

fn parse(text: &str) -> Dqbf {
    Dqbf::from_file(&hqs_cnf::dimacs::parse_dqdimacs(text).expect("test instance parses"))
}

/// `∀x₁…x₂₅ ∃yᵢ(xᵢ). ⋀ᵢ (yᵢ ↔ xᵢ)` — one universal past the expansion
/// limit, so no certificate can be built. Preprocessing decides it SAT.
fn too_large_to_certify() -> Dqbf {
    let mut dqbf = Dqbf::new();
    for _ in 0..=MAX_EXPANSION_UNIVERSALS {
        let x = dqbf.add_universal();
        let y = dqbf.add_existential([x]);
        dqbf.add_clause([Lit::positive(x), Lit::negative(y)]);
        dqbf.add_clause([Lit::negative(x), Lit::positive(y)]);
    }
    dqbf
}

#[test]
fn race_mode_solves_sat_and_unsat() {
    let opts = PortfolioOptions {
        threads: 4,
        ..PortfolioOptions::default()
    };
    let deck = standard_deck();

    let sat = solve_portfolio(&parse(SAT_DQDIMACS), &deck, &opts).expect("no engine error");
    assert_eq!(sat.result, Outcome::Sat);
    assert!(sat.winner.is_some());
    assert_eq!(sat.reports.len(), deck.len());

    let unsat = solve_portfolio(&parse(UNSAT_DQDIMACS), &deck, &opts).expect("no engine error");
    assert_eq!(unsat.result, Outcome::Unsat);
    assert!(unsat.winner_name.is_some());
}

#[test]
fn deterministic_portfolio_is_reproducible_over_ten_runs() {
    let deck = standard_deck();
    let opts = PortfolioOptions {
        threads: 4,
        deterministic: true,
        ..PortfolioOptions::default()
    };
    let mut winners = Vec::new();
    for _ in 0..10 {
        let outcome = solve_portfolio(&parse(SAT_DQDIMACS), &deck, &opts).expect("no engine error");
        assert_eq!(outcome.result, Outcome::Sat);
        winners.push((outcome.winner, outcome.winner_name.clone()));
    }
    let first = winners.first().cloned().expect("ten runs happened");
    assert!(
        winners.iter().all(|w| *w == first),
        "deterministic mode must report the same winner every run, got {winners:?}"
    );
    // Every deck entry solves this formula, so the arbitrated winner must
    // be the lowest deck index.
    assert_eq!(first.0, Some(0));
}

#[test]
fn certified_portfolio_reports_a_checked_certificate() {
    let deck = standard_deck();
    let opts = PortfolioOptions {
        threads: 2,
        deterministic: true,
        certify: true,
        ..PortfolioOptions::default()
    };
    let outcome = solve_portfolio(&parse(SAT_DQDIMACS), &deck, &opts).expect("no engine error");
    assert_eq!(outcome.result, Outcome::Sat);
    assert!(
        outcome.certified,
        "winner's verdict must carry a certificate"
    );
}

/// A pair of mock workers that contradict each other must abort the race
/// with an `InvariantViolation` naming both configurations — never pick
/// a winner.
#[test]
fn lying_workers_raise_a_disagreement() {
    let liar = |name: &str, verdict: Outcome| PortfolioTask {
        name: name.to_string(),
        detail: format!("mock-config-{name}"),
        run: Box::new(move |_budget| {
            Ok(WorkerVerdict {
                result: verdict,
                certified: false,
            })
        }),
    };
    let tasks = vec![
        liar("liar-sat", Outcome::Sat),
        liar("liar-unsat", Outcome::Unsat),
    ];
    let opts = PortfolioOptions {
        threads: 2,
        deterministic: true,
        ..PortfolioOptions::default()
    };
    match run_custom_portfolio(tasks, &opts) {
        Err(EngineError::Disagreement {
            sat_worker,
            unsat_worker,
            violation,
        }) => {
            assert_eq!(sat_worker, "liar-sat");
            assert_eq!(unsat_worker, "liar-unsat");
            let text = violation.to_string();
            assert_eq!(violation.component(), "portfolio");
            assert!(text.contains("mock-config-liar-sat"), "violation: {text}");
            assert!(text.contains("mock-config-liar-unsat"), "violation: {text}");
        }
        other => panic!("expected a disagreement, got {other:?}"),
    }
}

#[test]
fn panicking_worker_is_reported_not_propagated() {
    let tasks = vec![
        PortfolioTask {
            name: "bomber".to_string(),
            detail: String::new(),
            run: Box::new(|_budget| panic!("kaboom")),
        },
        PortfolioTask {
            name: "honest".to_string(),
            detail: String::new(),
            run: Box::new(|_budget| {
                Ok(WorkerVerdict {
                    result: Outcome::Sat,
                    certified: false,
                })
            }),
        },
    ];
    let opts = PortfolioOptions {
        threads: 2,
        deterministic: true,
        ..PortfolioOptions::default()
    };
    match run_custom_portfolio(tasks, &opts) {
        Err(EngineError::WorkerPanic { worker, message }) => {
            assert_eq!(worker, "bomber");
            assert!(message.contains("kaboom"), "message: {message}");
        }
        other => panic!("expected a worker panic report, got {other:?}"),
    }
}

/// A winner must tear down a busy loser through the shared cancel token
/// quickly: the loser polls its budget and the whole race finishes in a
/// small fraction of the loser's natural runtime.
#[test]
fn cancellation_reaches_a_busy_loser_quickly() {
    let tasks = vec![
        PortfolioTask {
            name: "fast-winner".to_string(),
            detail: String::new(),
            run: Box::new(|_budget| {
                std::thread::sleep(Duration::from_millis(50));
                Ok(WorkerVerdict {
                    result: Outcome::Unsat,
                    certified: false,
                })
            }),
        },
        PortfolioTask {
            name: "busy-loser".to_string(),
            detail: String::new(),
            run: Box::new(|budget| {
                // Simulates a solver main loop: works in small slices and
                // polls the budget between them, for up to 30 s.
                let start = Instant::now();
                while start.elapsed() < Duration::from_secs(30) {
                    if budget.stop_requested() {
                        return Ok(WorkerVerdict {
                            result: Outcome::Unknown(budget.stop_reason()),
                            certified: false,
                        });
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(WorkerVerdict {
                    result: Outcome::Unknown(Exhaustion::Timeout),
                    certified: false,
                })
            }),
        },
    ];
    let opts = PortfolioOptions {
        threads: 2,
        ..PortfolioOptions::default()
    };
    let started = Instant::now();
    let outcome = run_custom_portfolio(tasks, &opts).expect("no engine error");
    let elapsed = started.elapsed();
    assert_eq!(outcome.result, Outcome::Unsat);
    assert_eq!(outcome.winner_name.as_deref(), Some("fast-winner"));
    assert!(
        elapsed < Duration::from_secs(5),
        "cancellation took {elapsed:?}; the loser would run 30 s uncancelled"
    );
    let loser = outcome
        .reports
        .iter()
        .find(|r| r.name == "busy-loser")
        .expect("loser reported");
    assert_eq!(loser.result, Outcome::Unknown(Exhaustion::Cancelled));
}

#[test]
fn batch_isolates_a_panicking_job() {
    let names: Vec<String> = (0..4).map(|i| format!("job-{i}")).collect();
    let cancel = CancelToken::new();
    let summary = run_batch_with(
        &names,
        2,
        &cancel,
        &BatchTag::default(),
        |index| {
            if index == 2 {
                panic!("job 2 exploded");
            }
            (JobOutcome::Sat, false)
        },
        &|_record| {},
    );
    assert_eq!(summary.records.len(), 4);
    assert_eq!(summary.sat, 3);
    assert_eq!(summary.failed, 1);
    match &summary.records[2].outcome {
        JobOutcome::Panicked(message) => {
            assert!(message.contains("job 2 exploded"), "message: {message}")
        }
        other => panic!("expected a panic record, got {other:?}"),
    }
    // The panic record still renders as JSONL with the message attached.
    let line = summary.records[2].to_jsonl();
    assert!(line.contains("\"outcome\":\"PANIC\""), "line: {line}");
    assert!(line.contains("job 2 exploded"), "line: {line}");
}

#[test]
fn batch_solves_a_corpus_in_input_order() {
    let jobs: Vec<BatchJob> = (0..6)
        .map(|i| BatchJob {
            name: format!("inst-{i}"),
            dqbf: parse(if i % 2 == 0 {
                SAT_DQDIMACS
            } else {
                UNSAT_DQDIMACS
            }),
        })
        .collect();
    let opts = BatchOptions {
        workers: 2,
        ..BatchOptions::default()
    };
    let observed = AtomicUsize::new(0);
    let summary = run_batch(&jobs, &opts, &|_record| {
        observed.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(
        observed.load(Ordering::Relaxed),
        6,
        "observer sees every job"
    );
    assert_eq!(summary.sat, 3);
    assert_eq!(summary.unsat, 3);
    assert_eq!(summary.failed, 0);
    for (i, record) in summary.records.iter().enumerate() {
        assert_eq!(record.index, i, "records come back in input order");
        assert_eq!(record.name, format!("inst-{i}"));
        let expected = if i % 2 == 0 {
            JobOutcome::Sat
        } else {
            JobOutcome::Unsat
        };
        assert_eq!(record.outcome, expected);
        assert!(record.wall_seconds >= 0.0);
    }
}

#[test]
fn pre_cancelled_batch_dispatches_nothing() {
    let names: Vec<String> = (0..8).map(|i| format!("job-{i}")).collect();
    let cancel = CancelToken::new();
    cancel.cancel("batch aborted before start");
    let summary = run_batch_with(
        &names,
        4,
        &cancel,
        &BatchTag::default(),
        |_| (JobOutcome::Sat, false),
        &|_| {},
    );
    assert_eq!(summary.sat, 0);
    assert_eq!(summary.unsolved, 8);
    assert!(summary
        .records
        .iter()
        .all(|r| r.outcome == JobOutcome::Limit(Exhaustion::Cancelled)));
}

#[test]
fn batch_collects_and_merges_per_job_metrics() {
    let jobs = vec![
        BatchJob {
            name: "sat".to_string(),
            dqbf: parse(SAT_DQDIMACS),
        },
        BatchJob {
            name: "unsat".to_string(),
            dqbf: parse(UNSAT_DQDIMACS),
        },
    ];
    let opts = BatchOptions {
        workers: 2,
        collect_metrics: true,
        ..BatchOptions::default()
    };
    let summary = run_batch(&jobs, &opts, &|_| {});
    assert_eq!(summary.failed, 0);
    for record in &summary.records {
        let metrics = record
            .metrics
            .as_ref()
            .expect("collect_metrics attaches a snapshot to every job");
        // These tiny instances are decided by preprocessing, so no
        // specific counter is guaranteed — but *something* must have
        // been recorded (preprocessing counters, phase spans).
        assert!(
            metrics.values.iter().any(|(_, v)| *v > 0),
            "{}: solving must record some metric",
            record.name
        );
        assert!(!metrics.spans.is_empty(), "{}: spans expected", record.name);
        // The per-job snapshot also rides into the JSONL line.
        assert!(record.to_jsonl().contains("\"metrics\":{"));
    }
    let merged = summary.metrics.expect("summary carries merged metrics");
    for &metric in hqs_obs::Metric::ALL {
        if metric.kind() != hqs_obs::MetricKind::Counter {
            continue;
        }
        let per_job: u64 = summary
            .records
            .iter()
            .filter_map(|r| r.metrics.as_ref())
            .map(|m| m.counter(metric))
            .sum();
        assert_eq!(
            merged.counter(metric),
            per_job,
            "merged {} must equal the per-job sum",
            metric.name()
        );
    }
}

#[test]
fn portfolio_aggregates_metrics_across_workers() {
    let observer = std::sync::Arc::new(hqs_obs::MetricsObserver::new());
    let opts = PortfolioOptions {
        threads: 4,
        deterministic: true,
        observer: hqs_obs::Obs::attached(observer.clone()),
        ..PortfolioOptions::default()
    };
    let outcome =
        solve_portfolio(&parse(SAT_DQDIMACS), &standard_deck(), &opts).expect("no engine error");
    assert_eq!(outcome.result, Outcome::Sat);
    let snapshot = observer.snapshot();
    assert!(
        snapshot.counter(hqs_obs::Metric::SatCalls) > 0,
        "racing eight workers must record SAT calls"
    );
    assert!(
        !snapshot.spans.is_empty(),
        "worker sessions must record phase spans"
    );
}

#[test]
fn batch_certify_checks_every_verdict() {
    let jobs = vec![
        BatchJob {
            name: "sat".to_string(),
            dqbf: parse(SAT_DQDIMACS),
        },
        BatchJob {
            name: "unsat".to_string(),
            dqbf: parse(UNSAT_DQDIMACS),
        },
    ];
    let opts = BatchOptions {
        workers: 2,
        config: HqsConfig {
            certify: true,
            ..HqsConfig::default()
        },
        ..BatchOptions::default()
    };
    let summary = run_batch(&jobs, &opts, &|_| {});
    assert_eq!(summary.failed, 0);
    for record in &summary.records {
        assert!(
            record.certified,
            "{}: definitive verdicts must be certified in certify mode",
            record.name
        );
    }
}

/// Past the expansion limit a certified batch keeps the plain verdict,
/// reported uncertified rather than as an `ERROR` record. The record's
/// config fingerprint is that of the certifying configuration the job
/// ran under.
#[test]
fn batch_certify_falls_back_past_the_expansion_limit() {
    let jobs = vec![BatchJob {
        name: "wide".to_string(),
        dqbf: too_large_to_certify(),
    }];
    let opts = BatchOptions {
        config: HqsConfig {
            certify: true,
            ..HqsConfig::default()
        },
        ..BatchOptions::default()
    };
    let summary = run_batch(&jobs, &opts, &|_| {});
    assert_eq!(summary.failed, 0);
    let record = &summary.records[0];
    assert_eq!(record.outcome, JobOutcome::Sat);
    assert!(!record.certified, "no certificate exists past the limit");
    assert_eq!(record.config_hash, opts.config.fingerprint());
    assert_ne!(record.config_hash, HqsConfig::default().fingerprint());
}

/// The portfolio's certify fallback: every worker answers the plain
/// verdict uncertified, and none raises an `EngineError`.
#[test]
fn portfolio_certify_falls_back_past_the_expansion_limit() {
    let opts = PortfolioOptions {
        threads: 2,
        deterministic: true,
        certify: true,
        ..PortfolioOptions::default()
    };
    let outcome =
        solve_portfolio(&too_large_to_certify(), &standard_deck(), &opts).expect("no engine error");
    assert_eq!(outcome.result, Outcome::Sat);
    assert!(!outcome.certified);
    assert!(outcome.reports.iter().all(|r| !r.certified));
}
