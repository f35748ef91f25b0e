//! The `analyze` subcommand: drives the `hqs-analyze` passes and the
//! ratchet baseline.
//!
//! ```text
//! cargo run -p xtask -- analyze                      # print findings
//! cargo run -p xtask -- analyze --summary            # per-pass counts + graph stats
//! cargo run -p xtask -- analyze --bench <path>       # timing JSON (BENCH_analyze.json)
//! cargo run -p xtask -- analyze --explain <pass>     # rationale + fix recipe for a pass
//! cargo run -p xtask -- analyze --check-baseline     # CI gate
//! cargo run -p xtask -- analyze --write-baseline     # refresh baseline
//! ```
//!
//! `--check-baseline` compares findings against the committed
//! `analyze-baseline.json` and fails on any finding the baseline does
//! not cover **and** on any baseline entry that no longer matches — the
//! ratchet only turns one way. It also fails when the call-site
//! resolution rate drops below `[callgraph] min-resolution-percent`
//! in `analyze-hot-paths.toml`, so the graph cannot silently decay.
//! `--write-baseline` regenerates the file after debt has been paid
//! down (or deliberately, with review, when a new pass lands with
//! pre-existing findings).

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use hqs_analyze::baseline::Baseline;
use hqs_analyze::cfg;
use hqs_analyze::config;
use hqs_analyze::dataflow;
use hqs_analyze::json::{self, Json};
use hqs_analyze::passes;
use hqs_analyze::Workspace;

/// File names, relative to the workspace root.
const BASELINE_FILE: &str = "analyze-baseline.json";
const HOT_PATHS_FILE: &str = "analyze-hot-paths.toml";

/// Entry point for `cargo run -p xtask -- analyze …`.
pub fn run(args: &[String]) -> ExitCode {
    let mut check_baseline = false;
    let mut write_baseline = false;
    let mut summary = false;
    let mut bench: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check-baseline" => check_baseline = true,
            "--write-baseline" => write_baseline = true,
            "--summary" => summary = true,
            "--bench" => match it.next() {
                Some(path) => bench = Some(path.clone()),
                None => {
                    eprintln!("analyze: --bench requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--explain" => {
                return match it.next() {
                    Some(topic) => explain(topic),
                    None => {
                        eprintln!(
                            "analyze: --explain requires a pass name (one of: {})",
                            passes::PASS_NAMES.join(", ")
                        );
                        ExitCode::FAILURE
                    }
                };
            }
            other => {
                eprintln!(
                    "analyze: unknown flag `{other}` (expected --check-baseline, \
                     --write-baseline, --summary, --bench <path>, --explain <pass>)"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let root = crate::workspace_root();
    let started = Instant::now();
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(err) => {
            eprintln!("analyze: failed to load workspace: {err}");
            return ExitCode::FAILURE;
        }
    };
    let load_elapsed = started.elapsed();
    let cfg = match load_config(&root) {
        Ok(cfg) => cfg,
        Err(err) => {
            eprintln!("analyze: {err}");
            return ExitCode::FAILURE;
        }
    };
    let analysis_started = Instant::now();
    let analysis = passes::analyze(&ws, &cfg);
    let analyze_elapsed = analysis_started.elapsed();
    let diags = &analysis.diags;
    let graph = &analysis.graph;
    let rate = graph.stats.resolution_rate();

    if let Some(path) = &bench {
        let (cfg_count, block_count, cfg_build_ms, dataflow_ms) = bench_cfg_dataflow(&ws);
        let obj = Json::Object(vec![
            ("schema".into(), Json::String("hqs-bench-analyze/4".into())),
            ("files".into(), Json::Number(ws.files.len() as f64)),
            ("crates".into(), Json::Number(ws.crates.len() as f64)),
            (
                "functions".into(),
                Json::Number(graph.table.defs.len() as f64),
            ),
            ("edges".into(), Json::Number(graph.edges.len() as f64)),
            (
                "call_sites".into(),
                Json::Number(graph.stats.total_sites as f64),
            ),
            ("findings".into(), Json::Number(diags.len() as f64)),
            (
                "resolution_rate_percent".into(),
                Json::Number((rate * 100.0).round() / 100.0),
            ),
            (
                "load_ms".into(),
                Json::Number((load_elapsed.as_secs_f64() * 1e5).round() / 100.0),
            ),
            (
                "analyze_ms".into(),
                Json::Number((analyze_elapsed.as_secs_f64() * 1e5).round() / 100.0),
            ),
            ("cfg_functions".into(), Json::Number(cfg_count as f64)),
            ("cfg_blocks".into(), Json::Number(block_count as f64)),
            (
                "cfg_build_ms".into(),
                Json::Number((cfg_build_ms * 100.0).round() / 100.0),
            ),
            (
                "dataflow_ms".into(),
                Json::Number((dataflow_ms * 100.0).round() / 100.0),
            ),
        ]);
        if let Err(err) = std::fs::write(root.join(path), json::emit_pretty(&obj)) {
            eprintln!("analyze: failed to write bench {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("analyze: bench written to {path}");
    }
    if summary {
        println!(
            "analyze: {} files, {} crates, {} finding(s) in {:.2?}",
            ws.files.len(),
            ws.crates.len(),
            diags.len(),
            load_elapsed + analyze_elapsed
        );
        for pass in passes::PASS_NAMES {
            let count = diags.iter().filter(|d| d.pass == *pass).count();
            println!("  {pass:<20} {count}");
        }
        println!(
            "analyze: call graph: {} functions, {} edges, {} sites \
             ({} resolved, {} external, {} local closures, {} ambiguous, {} unknown) \
             — {rate:.2}% resolved",
            graph.table.defs.len(),
            graph.edges.len(),
            graph.stats.total_sites,
            graph.stats.resolved,
            graph.stats.external,
            graph.stats.local_closures,
            graph.stats.ambiguous,
            graph.stats.unknown,
        );
    }

    if write_baseline {
        let baseline = Baseline::from_diags(diags);
        if let Err(err) = std::fs::write(root.join(BASELINE_FILE), baseline.emit()) {
            eprintln!("analyze: failed to write {BASELINE_FILE}: {err}");
            return ExitCode::FAILURE;
        }
        println!(
            "analyze: baseline written to {BASELINE_FILE} ({} entry/ies covering {} finding(s))",
            baseline.entries.len(),
            diags.len()
        );
        return ExitCode::SUCCESS;
    }

    if check_baseline {
        let baseline = match load_baseline(&root) {
            Ok(b) => b,
            Err(err) => {
                eprintln!("analyze: {err}");
                return ExitCode::FAILURE;
            }
        };
        let result = baseline.check(diags);
        for line in &result.regressions {
            eprintln!("analyze: new finding: {line}");
        }
        for line in &result.stale {
            eprintln!("analyze: stale baseline entry: {line}");
        }
        let rate_ok = rate >= cfg.min_resolution_percent;
        if !rate_ok {
            eprintln!(
                "analyze: call-site resolution rate {rate:.2}% is below the \
                 [callgraph] min-resolution-percent floor {:.2}%",
                cfg.min_resolution_percent
            );
        }
        if result.ok() && rate_ok {
            println!(
                "analyze: OK ({} finding(s), all covered by the baseline; \
                 resolution rate {rate:.2}%)",
                diags.len()
            );
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "analyze: FAILED ({} regression(s), {} stale baseline entry/ies{})",
                result.regressions.len(),
                result.stale.len(),
                if rate_ok {
                    String::new()
                } else {
                    ", resolution rate below floor".to_string()
                }
            );
            ExitCode::FAILURE
        }
    } else {
        for d in diags {
            println!(
                "[{}] {}:{}{} {}",
                d.pass,
                d.path,
                d.line,
                symbol_suffix(&d.symbol),
                d.message
            );
        }
        if diags.is_empty() && !summary {
            println!("analyze: no findings");
        }
        ExitCode::SUCCESS
    }
}

/// Times the CFG and dataflow layers for `--bench`: one full CFG build
/// over the workspace, then a reachable-blocks dataflow (forward/union,
/// one fact per block) solved on every CFG — the same engine the
/// path-sensitive passes run, with a workload proportional to real
/// graph shapes. Returns (functions, blocks, cfg_build_ms, dataflow_ms).
fn bench_cfg_dataflow(ws: &Workspace) -> (usize, usize, f64, f64) {
    let started = Instant::now();
    let mut cfgs: Vec<hqs_analyze::cfg::Cfg> = Vec::new();
    for file in &ws.files {
        let code = passes::code_indices(file);
        cfgs.extend(cfg::build_all(file, &code));
    }
    let cfg_build_ms = started.elapsed().as_secs_f64() * 1e3;
    let block_count: usize = cfgs.iter().map(|c| c.blocks.len()).sum();

    let started = Instant::now();
    let mut reached = 0usize;
    for fn_cfg in &cfgs {
        let n = fn_cfg.blocks.len();
        let mut gk = dataflow::GenKill::new(n, n);
        for b in 0..n {
            gk.gen[b].insert(b);
        }
        let solution = dataflow::solve(fn_cfg, &gk, &dataflow::BitSet::empty(n));
        reached += solution.out[hqs_analyze::cfg::EXIT].iter().count();
    }
    let dataflow_ms = started.elapsed().as_secs_f64() * 1e3;
    // `reached` keeps the loop from being optimized out and is a cheap
    // sanity invariant: every block set is non-empty past ENTRY.
    debug_assert!(reached >= cfgs.len());
    (cfgs.len(), block_count, cfg_build_ms, dataflow_ms)
}

fn symbol_suffix(symbol: &str) -> String {
    if symbol.is_empty() {
        ":".to_string()
    } else {
        format!(" ({symbol}):")
    }
}

fn load_config(root: &Path) -> Result<config::AnalyzeConfig, String> {
    let path = root.join(HOT_PATHS_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
            eprintln!("analyze: note: {HOT_PATHS_FILE} not found, hot-path passes are vacuous");
            return Ok(config::AnalyzeConfig::default());
        }
        Err(err) => return Err(format!("failed to read {HOT_PATHS_FILE}: {err}")),
    };
    let (cfg, warnings) = config::parse(&text);
    if let Some(first) = warnings.first() {
        return Err(format!("{HOT_PATHS_FILE}: {first}"));
    }
    Ok(cfg)
}

fn load_baseline(root: &Path) -> Result<Baseline, String> {
    let path = root.join(BASELINE_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
            // No baseline committed: the ratchet starts at zero debt.
            return Ok(Baseline::default());
        }
        Err(err) => return Err(format!("failed to read {BASELINE_FILE}: {err}")),
    };
    Baseline::parse(&text).map_err(|e| format!("{BASELINE_FILE}: {e}"))
}

/// Prints the rationale and fix recipe for one pass, so a CI failure is
/// self-serve.
fn explain(topic: &str) -> ExitCode {
    let entry = EXPLANATIONS.iter().find(|(name, _)| *name == topic);
    match entry {
        Some((name, text)) => {
            println!("{name}\n{}\n{text}", "=".repeat(name.len()));
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "analyze: no explanation for `{topic}` (known passes: {})",
                passes::PASS_NAMES.join(", ")
            );
            ExitCode::FAILURE
        }
    }
}

/// One explanation per pass: why it exists, how to fix a finding, and
/// which annotation (if any) waives it.
const EXPLANATIONS: &[(&str, &str)] = &[
    (
        "layering",
        "Why: the crate DAG (base → cnf → {sat, proof} → {maxsat, aig} → qbf → core → apps)\n\
         keeps subsystem boundaries honest; cycles and reach-through make refactors unsafe.\n\
         Fix: depend only on lower layers; move shared code down; never import another\n\
         crate's private modules. No annotation waives this pass.",
    ),
    (
        "newtype",
        "Why: Lit/Var cross into raw integers only through the sanctioned helpers in\n\
         hqs-base, so encoding changes stay local.\n\
         Fix: use the helper methods; justified casts take\n\
         `// analyze::allow(newtype): <reason>`.",
    ),
    (
        "annotation",
        "Why: a suppression that fails to parse would silently look like an active waiver.\n\
         Fix: write `// analyze::allow(kind) [lines=N]: reason` with kind one of panic,\n\
         alloc, newtype, cancel, lock, determinism and a non-empty reason.",
    ),
    (
        "hot-transitive",
        "Why: the functions listed in [hot-paths] and everything they call run in the\n\
         solver's innermost loops, where a latent panic aborts a whole solve and a\n\
         per-iteration allocation dominates runtime. This pass computes the callee closure\n\
         of the seeds over the workspace call graph and denies unwrap/expect/panic!/\n\
         unreachable!/[] indexing, divisions by a non-literal, split_at and\n\
         copy_from_slice anywhere in it, and allocation inside its loops. The check is\n\
         token-level: a guard in front of a division or index does not discharge it. The\n\
         diagnostic shows the call chain that makes the function hot. A [hot-paths] entry\n\
         that matches no function is a finding too.\n\
         Fix: use get/match, checked_div/checked_rem or split_at_checked, or restructure\n\
         so the invariant is by-construction; hoist allocations to a scratch buffer reused\n\
         via std::mem::take. Sites whose invariant rules the panic out take\n\
         `// analyze::allow(panic|alloc): <reason>`. If the chain itself is a resolver\n\
         over-approximation (a same-named method on an unrelated type), tighten the\n\
         callee's name or accept the stricter standard. Rename or delete a stale entry.",
    ),
    (
        "cancel-poll",
        "Why: every loop in a solver-entry function ([cancel-poll] functions) must observe\n\
         cancellation, or a stuck instance makes the whole portfolio uncancellable. The\n\
         check is path-sensitive over the function's CFG: *every* path that completes an\n\
         iteration (including fast-path `continue`s and partial `break`-outs) must reach\n\
         a poll; the diagnostic renders one concrete unpolled path by line numbers.\n\
         Fix: poll `budget.check(…)`/`token.is_cancelled()`/`stop_requested()` on the\n\
         unpolled path (usually: before a `continue`, or at the loop head); genuinely\n\
         bounded loops take `// analyze::allow(cancel): <reason>` on the loop header or\n\
         the first line of the loop body.",
    ),
    (
        "concurrency-ordering",
        "Why: every atomic Ordering:: choice is a claim about a happens-before edge; the\n\
         committed allowlist in [concurrency] ordering forces each claim to be written\n\
         down once and reviewed when it changes. The check is two-way: unlisted sites and\n\
         stale entries both fail.\n\
         Fix: add `path::Type::fn::Variant` with a justification comment to\n\
         analyze-hot-paths.toml, or strengthen the ordering. Duplicate an entry to allow\n\
         two sites of the same variant in one function.",
    ),
    (
        "concurrency-lock",
        "Why: shared worker state (batch result slots, serve's request queue) stays\n\
         contention-free only if guards are short-lived; allocating or calling a solver\n\
         under a held MutexGuard serializes workers.\n\
         Guard liveness is a real dataflow over the function's CFG: an early `drop(guard)`\n\
         ends the hold on every path below it, a guard bound inside a loop is live across\n\
         the back edge, and an early `return` under a guard is still a hold.\n\
         Fix: narrow the critical section (bind, use, drop), clone out the needed data, or\n\
         annotate with `// analyze::allow(lock): <reason>`.",
    ),
    (
        "lock-order",
        "Why: two threads taking the same pair of locks in opposite orders deadlock. The\n\
         pass records every acquisition made while another guard is live — directly, or\n\
         through a call whose callee (transitively) acquires — into a global lock-order\n\
         graph of crate-qualified lock classes, and fails on any cycle, rendering each\n\
         acquisition chain with file:line evidence. Class granularity is deliberate: two\n\
         result slots share a class, so slot→slot nesting (two workers each holding one\n\
         slot and locking the other's) is reported too.\n\
         Fix: reorder the acquisitions so every chain agrees with the global order, or\n\
         drop the held guard before acquiring; a deliberate nesting is justified at the\n\
         acquisition site with `// analyze::allow(lock): <reason>`, which suppresses the\n\
         edge.",
    ),
    (
        "determinism",
        "Why: the solver's verdicts, certificates, and logs must be bit-identical across\n\
         runs, so CI diffs and incremental certificate checks stay meaningful. Every\n\
         function reachable from a [determinism] root is denied nondeterministic inputs:\n\
         HashMap/HashSet iteration (per-process hash order), explicit RandomState,\n\
         Instant::now/SystemTime::now, thread::current(), and env::var reads. Each\n\
         finding renders its root-to-sink call chain as evidence. A root that matches no\n\
         function is a finding too.\n\
         Fix: switch hash-ordered iteration to BTreeMap/BTreeSet (or sort before\n\
         iterating), thread timestamps and configuration in as explicit arguments; an\n\
         order-insensitive use (e.g. summation) is justified with\n\
         `// analyze::allow(determinism): <reason>`.",
    ),
];
