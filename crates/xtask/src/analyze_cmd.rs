//! The `analyze` subcommand: drives the `hqs-analyze` passes and the
//! ratchet baseline.
//!
//! ```text
//! cargo run -p xtask -- analyze                      # print findings
//! cargo run -p xtask -- analyze --summary            # per-pass counts + graph stats
//! cargo run -p xtask -- analyze --report <path>      # findings + call-graph stats as JSON
//! cargo run -p xtask -- analyze --callgraph <path>   # full call-graph dump as JSON
//! cargo run -p xtask -- analyze --cfg-dump <path>    # per-function CFG stats as JSON
//! cargo run -p xtask -- analyze --lock-graph <path>  # lock-order graph as JSON
//! cargo run -p xtask -- analyze --lock-dot <path>    # lock-order graph as Graphviz dot
//! cargo run -p xtask -- analyze --bench <path>       # timing JSON (BENCH_analyze.json)
//! cargo run -p xtask -- analyze --sarif <path>       # findings + advisories as SARIF 2.1.0
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
use hqs_analyze::diag;
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
    let mut report: Option<String> = None;
    let mut callgraph: Option<String> = None;
    let mut bench: Option<String> = None;
    let mut cfg_dump: Option<String> = None;
    let mut lock_graph: Option<String> = None;
    let mut lock_dot: Option<String> = None;
    let mut sarif: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check-baseline" => check_baseline = true,
            "--write-baseline" => write_baseline = true,
            "--summary" => summary = true,
            "--report" | "--callgraph" | "--bench" | "--cfg-dump" | "--lock-graph"
            | "--lock-dot" | "--sarif" => {
                let flag = arg.clone();
                match it.next() {
                    Some(path) => match flag.as_str() {
                        "--report" => report = Some(path.clone()),
                        "--callgraph" => callgraph = Some(path.clone()),
                        "--cfg-dump" => cfg_dump = Some(path.clone()),
                        "--lock-graph" => lock_graph = Some(path.clone()),
                        "--lock-dot" => lock_dot = Some(path.clone()),
                        "--sarif" => sarif = Some(path.clone()),
                        _ => bench = Some(path.clone()),
                    },
                    None => {
                        eprintln!("analyze: {flag} requires a path");
                        return ExitCode::FAILURE;
                    }
                }
            }
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
                     --write-baseline, --summary, --report <path>, --callgraph <path>, \
                     --cfg-dump <path>, --lock-graph <path>, --lock-dot <path>, \
                     --bench <path>, --sarif <path>, --explain <pass>)"
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

    if let Some(path) = &report {
        let obj = Json::Object(vec![
            ("schema".into(), Json::String("hqs-analyze-report/3".into())),
            (
                "findings".into(),
                json::parse(&diag::to_json_array(diags)).unwrap_or(Json::Array(vec![])),
            ),
            (
                "advisories".into(),
                json::parse(&diag::to_json_array(&analysis.advisories))
                    .unwrap_or(Json::Array(vec![])),
            ),
            ("callgraph".into(), graph.stats_json()),
        ]);
        if let Err(err) = std::fs::write(root.join(path), json::emit_pretty(&obj)) {
            eprintln!("analyze: failed to write report {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("analyze: report written to {path}");
    }
    if let Some(path) = &callgraph {
        if let Err(err) = std::fs::write(root.join(path), json::emit_pretty(&graph.to_json())) {
            eprintln!("analyze: failed to write call graph {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!(
            "analyze: call graph written to {path} ({} functions, {} edges)",
            graph.table.defs.len(),
            graph.edges.len()
        );
    }
    if let Some(path) = &cfg_dump {
        let (dump, cfg_count, block_count) = cfg_dump_json(&ws);
        if let Err(err) = std::fs::write(root.join(path), json::emit_pretty(&dump)) {
            eprintln!("analyze: failed to write CFG dump {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!(
            "analyze: CFG dump written to {path} ({cfg_count} functions, {block_count} blocks)"
        );
    }
    if let Some(path) = &lock_graph {
        if let Err(err) = std::fs::write(
            root.join(path),
            json::emit_pretty(&analysis.lock_graph.to_json()),
        ) {
            eprintln!("analyze: failed to write lock graph {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!(
            "analyze: lock-order graph written to {path} ({} classes, {} edges, {} cycle(s))",
            analysis.lock_graph.nodes.len(),
            analysis.lock_graph.edges.len(),
            analysis.lock_graph.cycles().len()
        );
    }
    if let Some(path) = &lock_dot {
        if let Err(err) = std::fs::write(root.join(path), analysis.lock_graph.to_dot()) {
            eprintln!("analyze: failed to write lock dot {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("analyze: lock-order dot written to {path}");
    }
    if let Some(path) = &sarif {
        let doc = sarif_json(diags, &analysis.advisories);
        if let Err(err) = std::fs::write(root.join(path), json::emit_pretty(&doc)) {
            eprintln!("analyze: failed to write SARIF {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!(
            "analyze: SARIF written to {path} ({} finding(s), {} advisory/ies)",
            diags.len(),
            analysis.advisories.len()
        );
    }
    if let Some(path) = &bench {
        let (cfg_count, block_count, cfg_build_ms, dataflow_ms) = bench_cfg_dataflow(&ws);
        let obj = Json::Object(vec![
            ("schema".into(), Json::String("hqs-bench-analyze/3".into())),
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
                "advisories".into(),
                Json::Number(analysis.advisories.len() as f64),
            ),
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
            "analyze: {} files, {} crates, {} finding(s), {} advisory/ies in {:.2?}",
            ws.files.len(),
            ws.crates.len(),
            diags.len(),
            analysis.advisories.len(),
            load_elapsed + analyze_elapsed
        );
        for pass in passes::PASS_NAMES {
            let count = diags.iter().filter(|d| d.pass == *pass).count()
                + analysis
                    .advisories
                    .iter()
                    .filter(|d| d.pass == *pass)
                    .count();
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
        // Advisories are suggestions, not ratcheted findings: printed
        // with a distinct prefix, never failing the run.
        for d in &analysis.advisories {
            println!(
                "[advice:{}] {}:{}{} {}",
                d.pass,
                d.path,
                d.line,
                symbol_suffix(&d.symbol),
                d.message
            );
        }
        if diags.is_empty() && analysis.advisories.is_empty() && !summary {
            println!("analyze: no findings");
        }
        ExitCode::SUCCESS
    }
}

/// Builds the SARIF 2.1.0 document for `--sarif`: ratcheted findings at
/// `error` level, advisories at `note`, one result per diagnostic with
/// the pass name as the rule id — the shape PR annotation tooling
/// ingests directly.
fn sarif_json(findings: &[diag::Diagnostic], advisories: &[diag::Diagnostic]) -> Json {
    let result = |d: &diag::Diagnostic, level: &str| {
        Json::Object(vec![
            ("ruleId".into(), Json::String(d.pass.clone())),
            ("level".into(), Json::String(level.to_string())),
            (
                "message".into(),
                Json::Object(vec![("text".into(), Json::String(d.message.clone()))]),
            ),
            (
                "locations".into(),
                Json::Array(vec![Json::Object(vec![(
                    "physicalLocation".into(),
                    Json::Object(vec![
                        (
                            "artifactLocation".into(),
                            Json::Object(vec![("uri".into(), Json::String(d.path.clone()))]),
                        ),
                        (
                            "region".into(),
                            Json::Object(vec![(
                                "startLine".into(),
                                Json::Number(f64::from(d.line.max(1))),
                            )]),
                        ),
                    ]),
                )])]),
            ),
        ])
    };
    let mut results: Vec<Json> = findings.iter().map(|d| result(d, "error")).collect();
    results.extend(advisories.iter().map(|d| result(d, "note")));
    let rules: Vec<Json> = passes::PASS_NAMES
        .iter()
        .map(|name| Json::Object(vec![("id".into(), Json::String((*name).to_string()))]))
        .collect();
    Json::Object(vec![
        (
            "$schema".into(),
            Json::String("https://json.schemastore.org/sarif-2.1.0.json".into()),
        ),
        ("version".into(), Json::String("2.1.0".into())),
        (
            "runs".into(),
            Json::Array(vec![Json::Object(vec![
                (
                    "tool".into(),
                    Json::Object(vec![(
                        "driver".into(),
                        Json::Object(vec![
                            ("name".into(), Json::String("hqs-analyze".into())),
                            ("rules".into(), Json::Array(rules)),
                        ]),
                    )]),
                ),
                ("results".into(), Json::Array(results)),
            ])]),
        ),
    ])
}

/// Builds the `--cfg-dump` JSON: per-function block/edge/loop counts,
/// so the CI artifact shows the shape the path-sensitive passes ran
/// over without dumping every token. Returns (json, functions, blocks).
fn cfg_dump_json(ws: &Workspace) -> (Json, usize, usize) {
    let mut functions = Vec::new();
    let mut cfg_count = 0usize;
    let mut block_count = 0usize;
    for file in &ws.files {
        let code = passes::code_indices(file);
        for fn_cfg in cfg::build_all(file, &code) {
            let edges: usize = fn_cfg.blocks.iter().map(|b| b.succs.len()).sum();
            cfg_count += 1;
            block_count += fn_cfg.blocks.len();
            let loops: Vec<Json> = fn_cfg
                .loops
                .iter()
                .map(|l| {
                    Json::Object(vec![
                        ("line".into(), Json::Number(f64::from(l.line))),
                        ("depth".into(), Json::Number(f64::from(l.depth))),
                        (
                            "label".into(),
                            l.label
                                .as_ref()
                                .map_or(Json::Null, |s| Json::String(s.clone())),
                        ),
                    ])
                })
                .collect();
            functions.push(Json::Object(vec![
                ("path".into(), Json::String(file.path.clone())),
                ("symbol".into(), Json::String(fn_cfg.symbol.clone())),
                (
                    "line".into(),
                    Json::Number(f64::from(
                        fn_cfg
                            .blocks
                            .iter()
                            .map(|b| b.line)
                            .find(|&l| l > 0)
                            .unwrap_or(0),
                    )),
                ),
                ("blocks".into(), Json::Number(fn_cfg.blocks.len() as f64)),
                ("edges".into(), Json::Number(edges as f64)),
                ("loops".into(), Json::Array(loops)),
            ]));
        }
    }
    let dump = Json::Object(vec![
        ("schema".into(), Json::String("hqs-analyze-cfg/1".into())),
        ("functions".into(), Json::Number(cfg_count as f64)),
        ("blocks".into(), Json::Number(block_count as f64)),
        ("cfgs".into(), Json::Array(functions)),
    ]);
    (dump, cfg_count, block_count)
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
        let solution = dataflow::solve(
            fn_cfg,
            &gk,
            dataflow::Direction::Forward,
            dataflow::Meet::Union,
            &dataflow::BitSet::empty(n),
        );
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
         copy_from_slice anywhere in it, and allocation inside its loops. The diagnostic\n\
         shows the call chain that makes the function hot. A [hot-paths] entry that\n\
         matches no function is a finding too.\n\
         Fix: use get/match or restructure so the invariant is by-construction; hoist\n\
         allocations to a scratch buffer reused via std::mem::take. Justified sites take\n\
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
         edge. Inspect the graph with --lock-graph <path> (JSON) or --lock-dot <path>\n\
         (Graphviz; cyclic nodes and edges are drawn red).",
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
    (
        "value-range",
        "Why: interval and bounds-predicate dataflow prove divisors nonzero and\n\
         split_at/index arguments in range, so the hot-transitive pass only reports\n\
         implicit panics it cannot discharge — guards on the wrong variable, missing\n\
         guards, or bounds killed by a length-changing call between guard and use.\n\
         The pass itself emits only advisories: a hot loop indexing with a provably\n\
         monotone counter is flagged with an iterator rewrite suggestion, because\n\
         iterators traverse without per-access bounds checks.\n\
         Fix: for surviving implicit-panic findings, strengthen the guard on the exact\n\
         divisor/index used (or checked ops); for loop advisories, rewrite with\n\
         iter().enumerate(), chunks, or windows. Advisories are never baselined and\n\
         never fail CI.",
    ),
];
