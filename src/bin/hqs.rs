//! The `hqs` command-line DQBF solver.
//!
//! ```text
//! hqs [OPTIONS] <file.dqdimacs>          solve one instance
//! hqs batch [OPTIONS] <dir>              solve a corpus of .dqdimacs files
//! hqs serve [--stdio | --socket PATH]    long-lived solver service (JSONL
//!                                        requests in, JSONL responses out,
//!                                        warm caches shared across requests;
//!                                        see `hqs serve --help`)
//!
//! OPTIONS:
//!   --solver hqs|idq|expansion   decision procedure (default: hqs)
//!   --portfolio[=DECK]           race a strategy deck across threads
//!                                (decks: standard, small, wide)
//!   --jobs <n>                   worker threads for --portfolio / batch
//!   --deterministic              reproducible portfolio arbitration:
//!                                every worker finishes, lowest deck
//!                                index with a verdict wins
//!   --jsonl <file>               batch: also write JSONL records here
//!   --entry <name>               batch: entry name stamped into JSONL
//!   --strategy maxsat|all        universal-elimination strategy
//!   --qbf-backend elim|search    QBF engine for the linearised remainder
//!   --no-preprocess              skip CNF preprocessing
//!   --no-gates                   skip Tseitin gate detection
//!   --no-unit-pure               skip Theorem-5/6 elimination
//!   --initial-sat                up-front SAT call on the matrix
//!   --subsume                    subsumption/self-subsumption preprocessing
//!   --dynamic-order              recompute elimination order per step
//!   --paranoid                   audit solver-state invariants after
//!                                every main-loop step (debug builds
//!                                always audit at mutation sites)
//!   --fraig <nodes>              SAT-sweep cones above this size
//!   --timeout <seconds>          wall-clock budget
//!   --node-limit <n>             AIG-node / ground-clause budget
//!   --certify                    certify the verdict: extract+verify Skolem
//!                                functions on SAT, an expansion trace + DRAT
//!                                refutation (checked by the independent
//!                                hqs-proof crate) on UNSAT; internal SAT
//!                                calls of the HQS pipeline are proof-logged
//!                                too (small instances)
//!   --proof <file>               with --certify: write the DRAT refutation
//!                                of an UNSAT verdict to this file
//!   --metrics[=json]             print solver metrics after the run: the
//!                                human summary as `c` comment lines, or
//!                                one stable hqs-metrics/1 JSON line
//!   --trace-out <file.json>      write a Chrome trace-event file of the
//!                                phase spans (load in Perfetto or
//!                                chrome://tracing)
//!   --stats                      print pipeline statistics
//! ```
//!
//! Exit codes follow the (Q)DIMACS convention: 10 = SAT, 20 = UNSAT,
//! 30 = UNKNOWN (a resource budget ran out first), 1 = error,
//! 2 = usage error. `hqs batch` exits 0 when every job ran (solved or
//! budget-limited) and 1 if any job panicked or failed certification.

#![forbid(unsafe_code)]

use hqs::base::Budget;
use hqs::cnf::dimacs;
use hqs::core::expand;
use hqs::core::refute;
use hqs::core::skolem;
use hqs::engine;
use hqs::obs::{MetricsObserver, Obs, Phase};
use hqs::{Dqbf, HqsConfig, InstantiationSolver, Outcome, Session};
use hqs::{ElimStrategy, QbfBackend};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug)]
struct Options {
    file: Option<String>,
    solver: SolverChoice,
    config: HqsConfig,
    timeout: Option<u64>,
    node_limit: Option<usize>,
    proof_file: Option<String>,
    stats: bool,
    portfolio: Option<String>,
    jobs: Option<usize>,
    deterministic: bool,
    metrics: Option<MetricsFormat>,
    trace_out: Option<String>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SolverChoice {
    Hqs,
    Idq,
    Expansion,
}

/// How `--metrics` renders the final snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MetricsFormat {
    /// Human summary as `c`-prefixed comment lines.
    Summary,
    /// One stable `hqs-metrics/1` JSON object on its own line.
    Json,
}

fn usage() -> ! {
    eprintln!(
        "usage: hqs [--solver hqs|idq|expansion] [--strategy maxsat|all] \
         [--no-preprocess] [--no-gates] [--no-unit-pure] [--initial-sat] \
         [--subsume] [--dynamic-order] [--paranoid] [--qbf-backend elim|search] \
         [--fraig N] [--timeout S] [--node-limit N] [--certify] [--proof FILE] \
         [--portfolio[=standard|small|wide]] [--jobs N] [--deterministic] \
         [--metrics[=json]] [--trace-out FILE] [--stats] <file.dqdimacs>\n\
         \x20      hqs batch [--jobs N] [--timeout S] [--node-limit N] [--certify] \
         [--jsonl FILE] [--entry NAME] [--metrics[=json]] [solver flags] <dir>"
    );
    std::process::exit(2);
}

/// Applies one solver-configuration flag shared between the single-solve,
/// batch and serve parsers. Returns `false` when the flag is not a config
/// flag.
fn apply_config_flag(
    arg: &str,
    args: &mut impl Iterator<Item = String>,
    config: &mut HqsConfig,
) -> bool {
    match arg {
        "--strategy" => {
            config.strategy = match args.next().as_deref() {
                Some("maxsat") => ElimStrategy::MaxSatMinimal,
                Some("all") => ElimStrategy::AllUniversals,
                _ => usage(),
            }
        }
        "--no-preprocess" => {
            config.preprocess = false;
            config.gate_detection = false;
        }
        "--no-gates" => config.gate_detection = false,
        "--no-unit-pure" => config.unit_pure = false,
        "--initial-sat" => config.initial_sat_check = true,
        "--subsume" => config.subsumption = true,
        "--qbf-backend" => {
            config.qbf_backend = match args.next().as_deref() {
                Some("elim") => QbfBackend::Elimination,
                Some("search") => QbfBackend::Search,
                _ => usage(),
            }
        }
        "--dynamic-order" => config.dynamic_order = true,
        "--paranoid" => config.paranoid = true,
        "--certify" => config.certify = true,
        "--fraig" => match args.next().and_then(|v| v.parse().ok()) {
            Some(n) => config.fraig_threshold = n,
            None => usage(),
        },
        _ => return false,
    }
    true
}

/// Parses a `--metrics` / `--metrics=json` / `--trace-out` flag shared
/// between the single-solve and batch parsers. Returns `false` when the
/// flag is not an observability flag.
fn apply_obs_flag(
    arg: &str,
    args: &mut impl Iterator<Item = String>,
    metrics: &mut Option<MetricsFormat>,
    trace_out: &mut Option<String>,
) -> bool {
    match arg {
        "--metrics" => *metrics = Some(MetricsFormat::Summary),
        "--metrics=json" => *metrics = Some(MetricsFormat::Json),
        "--trace-out" => match args.next() {
            Some(path) => *trace_out = Some(path),
            None => usage(),
        },
        _ => return false,
    }
    true
}

fn parse_options(args: impl Iterator<Item = String>) -> Options {
    let mut options = Options {
        file: None,
        solver: SolverChoice::Hqs,
        config: HqsConfig::default(),
        timeout: None,
        node_limit: None,
        proof_file: None,
        stats: false,
        portfolio: None,
        jobs: None,
        deterministic: false,
        metrics: None,
        trace_out: None,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if apply_config_flag(&arg, &mut args, &mut options.config) {
            continue;
        }
        if apply_obs_flag(
            &arg,
            &mut args,
            &mut options.metrics,
            &mut options.trace_out,
        ) {
            continue;
        }
        match arg.as_str() {
            "--solver" => {
                options.solver = match args.next().as_deref() {
                    Some("hqs") => SolverChoice::Hqs,
                    Some("idq") => SolverChoice::Idq,
                    Some("expansion") => SolverChoice::Expansion,
                    _ => usage(),
                }
            }
            "--timeout" => match args.next().and_then(|v| v.parse().ok()) {
                Some(secs) => options.timeout = Some(secs),
                None => usage(),
            },
            "--node-limit" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => options.node_limit = Some(n),
                None => usage(),
            },
            "--proof" => match args.next() {
                Some(path) => options.proof_file = Some(path),
                None => usage(),
            },
            "--portfolio" => options.portfolio = Some("standard".to_string()),
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => options.jobs = Some(n),
                _ => usage(),
            },
            "--deterministic" => options.deterministic = true,
            "--stats" => options.stats = true,
            "--help" | "-h" => usage(),
            other if other.starts_with("--portfolio=") => {
                options.portfolio = other.split_once('=').map(|(_, deck)| deck.to_string());
            }
            other if !other.starts_with('-') && options.file.is_none() => {
                options.file = Some(other.to_string());
            }
            _ => usage(),
        }
    }
    options
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("batch") {
        raw.next();
        return run_batch_command(raw);
    }
    if raw.peek().map(String::as_str) == Some("serve") {
        raw.next();
        return run_serve_command(raw);
    }
    let options = parse_options(raw);
    let Some(path) = options.file.clone() else {
        usage();
    };

    // One shared recorder feeds the session, the portfolio workers and
    // the CLI's own parse/total spans; disabled entirely when neither
    // --metrics nor --trace-out asked for it.
    let recorder = (options.metrics.is_some() || options.trace_out.is_some())
        .then(|| Arc::new(MetricsObserver::new()));
    let obs = match &recorder {
        Some(observer) => Obs::attached(Arc::clone(observer) as _),
        None => Obs::disabled(),
    };

    let total_span = obs.span(Phase::Total);
    let parse_span = obs.span(Phase::Parse);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("error: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let file = match dimacs::parse_dqdimacs(&text) {
        Ok(file) => file,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    let dqbf = Dqbf::from_file(&file);
    drop(parse_span);
    println!(
        "c {} universals, {} existentials, {} clauses",
        dqbf.universals().len(),
        dqbf.existentials().len(),
        dqbf.matrix().clauses().len()
    );

    let mut budget = Budget::new();
    if let Some(secs) = options.timeout {
        budget = budget.with_timeout(Duration::from_secs(secs));
    }
    if let Some(nodes) = options.node_limit {
        budget = budget.with_node_limit(nodes);
    }

    let solved = solve_command(&options, &dqbf, budget, &obs);
    drop(total_span);
    if let Some(recorder) = &recorder {
        if let Err(code) = export_observations(&options, recorder) {
            return code;
        }
    }
    match solved {
        Ok(result) => verdict_exit(result),
        Err(code) => code,
    }
}

/// Solves the parsed formula per the chosen procedure, including the
/// optional post-hoc certification. `Err` carries the exit code of a
/// failure that pre-empts the verdict line.
fn solve_command(
    options: &Options,
    dqbf: &Dqbf,
    budget: Budget,
    obs: &Obs,
) -> Result<Outcome, ExitCode> {
    if let Some(deck_name) = &options.portfolio {
        return run_portfolio(dqbf, deck_name, options, budget, obs);
    }

    let result = match options.solver {
        SolverChoice::Hqs => {
            let config = HqsConfig {
                budget,
                ..options.config.clone()
            };
            let mut builder = Session::builder().config(config);
            if let Some(observer) = obs.observer() {
                builder = builder.observer(observer);
            }
            let mut session = match builder.build() {
                Ok(session) => session,
                Err(err) => {
                    eprintln!("error: {err}");
                    return Err(ExitCode::from(2));
                }
            };
            let result = session.solve(dqbf);
            if options.stats {
                print_stats(&session.stats());
            }
            result
        }
        SolverChoice::Idq => {
            let mut solver = InstantiationSolver::new();
            solver.set_budget(budget);
            let result = solver.solve(dqbf).into();
            if options.stats {
                let stats = solver.stats();
                println!(
                    "c idq: {} iterations, {} instances, {} ground clauses, {} SAT calls",
                    stats.iterations, stats.instances, stats.ground_clauses, stats.sat_calls
                );
            }
            result
        }
        SolverChoice::Expansion => {
            if dqbf.universals().len() > expand::MAX_EXPANSION_UNIVERSALS {
                eprintln!(
                    "error: expansion limited to {} universals",
                    expand::MAX_EXPANSION_UNIVERSALS
                );
                return Err(ExitCode::FAILURE);
            }
            if expand::is_satisfiable_by_expansion(dqbf) {
                Outcome::Sat
            } else {
                Outcome::Unsat
            }
        }
    };

    if options.config.certify {
        if dqbf.universals().len() > expand::MAX_EXPANSION_UNIVERSALS {
            println!("c certificate skipped: too many universals for expansion");
        } else {
            let _certify_span = obs.span(Phase::Certify);
            match result {
                Outcome::Sat => match skolem::extract_skolem(dqbf) {
                    Some(cert) if cert.verify_certified(dqbf) => {
                        println!(
                            "c certificate: {} Skolem functions, verified (proof-checked)",
                            cert.functions.len()
                        );
                    }
                    Some(_) => {
                        eprintln!("error: certificate failed verification (bug!)");
                        return Err(ExitCode::FAILURE);
                    }
                    None => {
                        eprintln!("error: certification contradicts the SAT verdict (bug!)");
                        return Err(ExitCode::FAILURE);
                    }
                },
                Outcome::Unsat => match refute::extract_refutation(dqbf) {
                    Some(cert) if cert.verify(dqbf) => {
                        println!(
                            "c certificate: refutation over {} expansion instances, \
                             DRAT proof accepted",
                            cert.bindings.len()
                        );
                        if let Some(path) = &options.proof_file {
                            if let Err(err) = std::fs::write(path, &cert.drat) {
                                eprintln!("error: cannot write {path}: {err}");
                                return Err(ExitCode::FAILURE);
                            }
                            println!("c proof written to {path}");
                        }
                    }
                    Some(_) => {
                        eprintln!("error: refutation certificate failed verification (bug!)");
                        return Err(ExitCode::FAILURE);
                    }
                    None => {
                        eprintln!("error: certification contradicts the UNSAT verdict (bug!)");
                        return Err(ExitCode::FAILURE);
                    }
                },
                Outcome::Unknown(_) => {
                    println!("c certificate skipped: no verdict within the budget");
                }
            }
        }
    }

    Ok(result)
}

/// Prints the recorded metrics per `--metrics` and writes the Chrome
/// trace per `--trace-out`.
fn export_observations(options: &Options, recorder: &MetricsObserver) -> Result<(), ExitCode> {
    let snapshot = recorder.snapshot();
    match options.metrics {
        Some(MetricsFormat::Summary) => {
            for line in snapshot.render_summary().lines() {
                println!("c {line}");
            }
        }
        Some(MetricsFormat::Json) => println!("{}", snapshot.to_json()),
        None => {}
    }
    if let Some(path) = &options.trace_out {
        if let Err(err) = std::fs::write(path, snapshot.to_chrome_trace()) {
            eprintln!("error: cannot write {path}: {err}");
            return Err(ExitCode::FAILURE);
        }
        println!("c trace written to {path}");
    }
    Ok(())
}

/// Prints the `s cnf` verdict line and maps the outcome to the
/// documented exit code (10 SAT / 20 UNSAT / 30 UNKNOWN-budget).
fn verdict_exit(result: Outcome) -> ExitCode {
    match result {
        Outcome::Sat => println!("s cnf SAT"),
        Outcome::Unsat => println!("s cnf UNSAT"),
        Outcome::Unknown(e) => println!("s cnf UNKNOWN ({e})"),
    }
    ExitCode::from(u8::try_from(result.to_exit_code()).unwrap_or(1))
}

/// Worker-thread default when `--jobs` is absent.
fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Races a strategy deck on the parsed formula (`--portfolio`).
fn run_portfolio(
    dqbf: &Dqbf,
    deck_name: &str,
    options: &Options,
    budget: Budget,
    obs: &Obs,
) -> Result<Outcome, ExitCode> {
    let Some(deck) = engine::deck_by_name(deck_name) else {
        eprintln!(
            "error: unknown portfolio deck '{deck_name}' (have: {})",
            engine::DECK_NAMES.join(", ")
        );
        return Err(ExitCode::FAILURE);
    };
    let opts = engine::PortfolioOptions {
        threads: options.jobs.unwrap_or_else(default_jobs),
        deterministic: options.deterministic,
        certify: options.config.certify,
        budget,
        observer: obs.clone(),
    };
    match engine::solve_portfolio(dqbf, &deck, &opts) {
        Ok(outcome) => {
            match (&outcome.winner, &outcome.winner_name) {
                (Some(index), Some(name)) => {
                    // Keep this line free of timing so --deterministic
                    // runs are diffable byte-for-byte.
                    println!("c portfolio winner: {name} (deck {index})");
                }
                _ => println!("c portfolio: no definitive verdict"),
            }
            if options.config.certify && outcome.certified {
                println!("c certificate: winner verdict certified");
            }
            if options.stats {
                for report in &outcome.reports {
                    println!(
                        "c portfolio worker {} [{}]: {:?} in {:.3}s{}",
                        report.deck_index,
                        report.name,
                        report.result,
                        report.wall_seconds,
                        if report.certified { " (certified)" } else { "" },
                    );
                }
            }
            Ok(outcome.result)
        }
        Err(err) => {
            eprintln!("error: {err}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// The `hqs serve` subcommand: a long-lived solver service speaking the
/// batch JSONL record schema over stdio (single client) or a Unix
/// domain socket (concurrent clients), with preprocessing results,
/// FRAIG-reduced cones and verdicts cached across requests.
fn run_serve_command(args: impl Iterator<Item = String>) -> ExitCode {
    fn serve_usage() -> ! {
        eprintln!(
            "usage: hqs serve [--stdio | --socket PATH] [--jobs N] [--queue N] \
             [--timeout S] [--node-limit N] [--certify] [solver flags]\n\
             \x20      requests: one JSON object per line —\n\
             \x20        {{\"id\":\"r1\",\"file\":\"inst.dqdimacs\"}}\n\
             \x20        {{\"id\":\"r2\",\"dqdimacs\":\"p cnf 1 1\\n1 0\\n\",\
             \"timeout_ms\":500}}\n\
             \x20        {{\"cmd\":\"stats\"}} | {{\"cmd\":\"shutdown\"}}"
        );
        std::process::exit(2);
    }
    let mut socket: Option<String> = None;
    let mut stdio = false;
    let mut opts = hqs::serve::ServeOptions {
        workers: default_jobs(),
        ..hqs::serve::ServeOptions::default()
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if apply_config_flag(&arg, &mut args, &mut opts.config) {
            continue;
        }
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--socket" => match args.next() {
                Some(path) => socket = Some(path),
                None => serve_usage(),
            },
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.workers = n,
                _ => serve_usage(),
            },
            "--queue" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.queue_capacity = n,
                None => serve_usage(),
            },
            "--timeout" => match args.next().and_then(|v| v.parse().ok()) {
                Some(secs) => opts.default_timeout = Some(Duration::from_secs(secs)),
                None => serve_usage(),
            },
            "--node-limit" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.default_node_limit = Some(n),
                None => serve_usage(),
            },
            "--help" | "-h" => serve_usage(),
            _ => serve_usage(),
        }
    }
    if stdio == socket.is_some() {
        // Exactly one transport must be chosen.
        serve_usage();
    }
    let code = match socket {
        Some(path) => hqs::serve::run_socket(&path, opts),
        None => hqs::serve::run_stdio(opts),
    };
    ExitCode::from(u8::try_from(code).unwrap_or(1))
}

/// The `hqs batch <dir>` subcommand: solve every `.dqdimacs` file in a
/// directory through the batch scheduler, streaming one JSONL
/// record per job to stdout.
fn run_batch_command(args: impl Iterator<Item = String>) -> ExitCode {
    let mut dir: Option<String> = None;
    let mut opts = engine::BatchOptions {
        workers: default_jobs(),
        ..engine::BatchOptions::default()
    };
    let mut jsonl_file: Option<String> = None;
    let mut metrics: Option<MetricsFormat> = None;
    let mut trace_out: Option<String> = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if apply_config_flag(&arg, &mut args, &mut opts.config) {
            continue;
        }
        if apply_obs_flag(&arg, &mut args, &mut metrics, &mut trace_out) {
            continue;
        }
        match arg.as_str() {
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.workers = n,
                _ => usage(),
            },
            "--timeout" => match args.next().and_then(|v| v.parse().ok()) {
                Some(secs) => opts.job_timeout = Some(Duration::from_secs(secs)),
                None => usage(),
            },
            "--node-limit" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.node_limit = Some(n),
                None => usage(),
            },
            "--jsonl" => match args.next() {
                Some(path) => jsonl_file = Some(path),
                None => usage(),
            },
            "--entry" => match args.next() {
                Some(name) => opts.entry_name = name,
                None => usage(),
            },
            "--deterministic" => {
                // Batch outcomes are deterministic by construction (each
                // job is solved by the same single-threaded solver);
                // accepted for symmetry with --portfolio.
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && dir.is_none() => dir = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(dir) = dir else { usage() };
    opts.collect_metrics = metrics.is_some() || trace_out.is_some();

    let jobs = match engine::load_corpus(std::path::Path::new(&dir)) {
        Ok(jobs) => jobs,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!("c batch: {} jobs, {} workers", jobs.len(), opts.workers);
    let summary = engine::run_batch(&jobs, &opts, &|record| {
        println!("{}", record.to_jsonl());
    });
    if let Some(path) = jsonl_file {
        let mut out = String::new();
        for record in &summary.records {
            out.push_str(&record.to_jsonl());
            out.push('\n');
        }
        if let Err(err) = std::fs::write(&path, out) {
            eprintln!("error: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(merged) = &summary.metrics {
        match metrics {
            Some(MetricsFormat::Summary) => {
                for line in merged.render_summary().lines() {
                    println!("c {line}");
                }
            }
            Some(MetricsFormat::Json) => println!("{}", merged.to_json()),
            None => {}
        }
        if let Some(path) = &trace_out {
            if let Err(err) = std::fs::write(path, merged.to_chrome_trace()) {
                eprintln!("error: cannot write {path}: {err}");
                return ExitCode::FAILURE;
            }
            println!("c trace written to {path}");
        }
    }
    println!(
        "c batch done: {} sat, {} unsat, {} unsolved, {} failed in {:.3}s",
        summary.sat, summary.unsat, summary.unsolved, summary.failed, summary.wall_seconds
    );
    if summary.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_stats(stats: &hqs::HqsStats) {
    println!(
        "c preprocess: {} units, {} universal reductions, {} pures, \
         {} equivalences, {} subsumed, {} strengthened, {} gates{}",
        stats.preprocess.units,
        stats.preprocess.universal_reductions,
        stats.preprocess.pures,
        stats.preprocess.equivalences,
        stats.preprocess.subsumed,
        stats.preprocess.strengthened,
        stats.preprocess.gates,
        if stats.decided_by_preprocessing {
            " (decided)"
        } else {
            ""
        },
    );
    println!(
        "c main loop: {} universal elims, {} existential elims, {} unit/pure, \
         elimination set {}, peak {} nodes",
        stats.universal_elims,
        stats.existential_elims,
        stats.unit_pure_elims,
        stats.elimination_set_size,
        stats.peak_nodes,
    );
    if stats.reached_qbf {
        println!(
            "c qbf backend: {} universal elims, {} existential elims, \
             {} unit/pure, {} SAT calls, peak {} nodes",
            stats.qbf.universal_elims,
            stats.qbf.existential_elims,
            stats.qbf.unit_pure_elims,
            stats.qbf.sat_calls,
            stats.qbf.peak_nodes,
        );
    }
}
