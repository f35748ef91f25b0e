//! Fixture-corpus integration tests: every seeded violation class in
//! `crates/analyze/fixtures/` must be detected, the clean fixtures must
//! produce zero findings, and every finding must survive a JSON
//! round-trip.
//!
//! The tests build [`Workspace`] values in memory (the fixture files are
//! excluded from real workspace walks) so the layering tests can pair
//! sources with synthetic manifests.

use std::path::PathBuf;

use hqs_analyze::callgraph::CallGraph;
use hqs_analyze::config::{AnalyzeConfig, HotFn, HotPaths, OrderingSite};
use hqs_analyze::diag::Diagnostic;
use hqs_analyze::manifest::Manifest;
use hqs_analyze::passes::{self, determinism, layering, lock_order, newtype, source_audit};
use hqs_analyze::source::SourceFile;
use hqs_analyze::workspace::{CrateInfo, Workspace};

const BAD_PANIC: &str = include_str!("../fixtures/bad_panic.rs");
const BAD_TRANSITIVE: &str = include_str!("../fixtures/bad_transitive.rs");
const BAD_CANCEL: &str = include_str!("../fixtures/bad_cancel.rs");
const BAD_CANCEL_PATHS: &str = include_str!("../fixtures/bad_cancel_paths.rs");
const BAD_ORDERING: &str = include_str!("../fixtures/bad_ordering.rs");
const BAD_LOCKHOLD: &str = include_str!("../fixtures/bad_lockhold.rs");
const BAD_LOCKORDER: &str = include_str!("../fixtures/bad_lockorder.rs");
const CLEAN_TRANSITIVE: &str = include_str!("../fixtures/clean_transitive.rs");
const CLEAN_CONCURRENCY: &str = include_str!("../fixtures/clean_concurrency.rs");
const BAD_ALLOC: &str = include_str!("../fixtures/bad_alloc.rs");
const BAD_NEWTYPE: &str = include_str!("../fixtures/bad_newtype.rs");
const BAD_AUDIT: &str = include_str!("../fixtures/bad_audit.rs");
const BAD_ANNOTATIONS: &str = include_str!("../fixtures/bad_annotations.rs");
const BAD_LAYERING: &str = include_str!("../fixtures/bad_layering.rs");
const STALE_INTERNAL_MODULE: &str = include_str!("../fixtures/stale_internal_module.rs");
const CLEAN_HOT: &str = include_str!("../fixtures/clean_hot.rs");
const CLEAN_STRINGS: &str = include_str!("../fixtures/clean_strings.rs");
const BAD_DETERMINISM: &str = include_str!("../fixtures/bad_determinism.rs");
const CLEAN_DETERMINISM: &str = include_str!("../fixtures/clean_determinism.rs");
const BAD_IMPLICIT_PANIC: &str = include_str!("../fixtures/bad_implicit_panic.rs");

fn member(name: &str, dir: &str, deps: &[&str], dev_deps: &[&str]) -> CrateInfo {
    CrateInfo {
        name: name.to_string(),
        dir: dir.to_string(),
        manifest: Manifest {
            name: name.to_string(),
            deps: deps.iter().map(ToString::to_string).collect(),
            dev_deps: dev_deps.iter().map(ToString::to_string).collect(),
        },
    }
}

fn workspace(crates: Vec<CrateInfo>, files: Vec<(&str, &str, &str)>) -> Workspace {
    Workspace {
        root: PathBuf::from("."),
        crates,
        files: files
            .into_iter()
            .map(|(path, crate_name, text)| {
                SourceFile::analyze(path.to_string(), crate_name.to_string(), text.to_string())
            })
            .collect(),
    }
}

fn hot_propagate() -> HotPaths {
    HotPaths {
        functions: vec![HotFn {
            crate_name: "hqs-sat".to_string(),
            symbol: "Solver::propagate".to_string(),
        }],
    }
}

fn cfg_with(hot: HotPaths) -> AnalyzeConfig {
    AnalyzeConfig {
        hot,
        ..AnalyzeConfig::default()
    }
}

fn count_containing(diags: &[Diagnostic], needle: &str) -> usize {
    diags.iter().filter(|d| d.message.contains(needle)).count()
}

/// Every finding of a full run over `text` as `path` in `hqs-sat`, with
/// `Solver::propagate` as the one hot seed; all of them must come from
/// `hot-transitive`.
fn hot_findings(path: &str, text: &str) -> Vec<Diagnostic> {
    let ws = workspace(
        vec![member("hqs-sat", "crates/sat", &[], &[])],
        vec![(path, "hqs-sat", text)],
    );
    let diags = passes::run_all(&ws, &cfg_with(hot_propagate()));
    assert!(
        diags.iter().all(|d| d.pass == "hot-transitive"),
        "{diags:#?}"
    );
    diags
}

#[test]
fn bad_panic_detects_every_class() {
    let diags = hot_findings("crates/sat/src/bad_panic.rs", BAD_PANIC);
    assert_eq!(diags.len(), 5, "{diags:#?}");
    assert_eq!(count_containing(&diags, "`.unwrap(…)`"), 1);
    assert_eq!(count_containing(&diags, "`.expect(…)`"), 1);
    assert_eq!(count_containing(&diags, "`panic!`"), 1);
    assert_eq!(count_containing(&diags, "`unreachable!`"), 1);
    assert_eq!(count_containing(&diags, "`[…]` indexing"), 1);
    // Only the declared-hot fn is held to the standard; `cold_helper`
    // is not reached from it and indexes a slice without any finding.
    assert!(diags.iter().all(|d| d.symbol == "Solver::propagate"));
}

#[test]
fn bad_alloc_detects_every_class() {
    let diags = hot_findings("crates/sat/src/bad_alloc.rs", BAD_ALLOC);
    assert_eq!(diags.len(), 7, "{diags:#?}");
    for needle in [
        "`.clone()`",
        "`.to_vec()`",
        "`.collect()`",
        "`Vec::new`",
        "`Box::new`",
        "`format!`",
        "`vec!`",
    ] {
        assert_eq!(count_containing(&diags, needle), 1, "missing {needle}");
    }
    // The post-loop `to_string` allocation is fine even in a hot fn.
    assert!(diags.iter().all(|d| d.line <= 21), "{diags:#?}");
}

#[test]
fn bad_newtype_detects_every_class() {
    let ws = workspace(
        vec![member("hqs-sat", "crates/sat", &["hqs-base"], &[])],
        vec![("crates/sat/src/bad_newtype.rs", "hqs-sat", BAD_NEWTYPE)],
    );
    let diags = newtype::run(&ws);
    assert_eq!(diags.len(), 5, "{diags:#?}");
    assert_eq!(count_containing(&diags, "`.index() as usize`"), 2);
    assert_eq!(count_containing(&diags, "`.code() as usize`"), 1);
    assert_eq!(count_containing(&diags, "integer-literal arithmetic"), 1);
    assert_eq!(count_containing(&diags, "`Var::new(…)`"), 1);
}

#[test]
fn newtype_pass_exempts_base_and_tests() {
    let ws = workspace(
        vec![member("hqs-base", "crates/base", &[], &[])],
        vec![
            ("crates/base/src/bad_newtype.rs", "hqs-base", BAD_NEWTYPE),
            ("crates/sat/tests/bad_newtype.rs", "hqs-sat", BAD_NEWTYPE),
        ],
    );
    assert!(newtype::run(&ws).is_empty());
}

#[test]
fn bad_audit_detects_every_class() {
    // As a crate root the file is also missing #![forbid(unsafe_code)]
    // and `//!` docs.
    let ws = workspace(
        vec![member("hqs-audit", "crates/audit", &[], &[])],
        vec![("crates/audit/src/lib.rs", "hqs-audit", BAD_AUDIT)],
    );
    let findings = source_audit::run(&ws);
    assert_eq!(findings.hard.len(), 5, "{:#?}", findings.hard);
    assert_eq!(count_containing(&findings.hard, "`todo!`"), 1);
    assert_eq!(count_containing(&findings.hard, "`unimplemented!`"), 1);
    assert_eq!(count_containing(&findings.hard, "`dbg!`"), 1);
    assert_eq!(count_containing(&findings.hard, "forbid(unsafe_code)"), 1);
    assert_eq!(
        count_containing(&findings.hard, "crate-level documentation"),
        1
    );
    assert_eq!(
        findings.unwrap_sites.len(),
        1,
        "{:#?}",
        findings.unwrap_sites
    );
    assert_eq!(findings.unwrap_sites[0].symbol, "risky");
}

#[test]
fn bad_annotations_are_findings() {
    let ws = workspace(
        vec![member("hqs-base", "crates/base", &[], &[])],
        vec![("crates/base/src/ann.rs", "hqs-base", BAD_ANNOTATIONS)],
    );
    let diags = passes::run_all(&ws, &AnalyzeConfig::default());
    assert_eq!(diags.len(), 3, "{diags:#?}");
    assert!(diags.iter().all(|d| d.pass == "annotation"));
    assert_eq!(count_containing(&diags, "empty reason"), 1);
    assert_eq!(count_containing(&diags, "unknown allow kind"), 1);
    // The well-formed allow(alloc) covers lines that never produce an
    // alloc finding: the two-way ratchet reports it as stale.
    let stale = diags
        .iter()
        .find(|d| d.message.contains("suppresses nothing"))
        .expect("stale-allow finding");
    assert_eq!(stale.line, 9);
    assert!(
        stale.message.contains("stale `analyze::allow(alloc)`"),
        "{}",
        stale.message
    );
}

#[test]
fn bad_layering_detects_every_class() {
    // hqs-base declaring a dependency on hqs-cnf is both outside its
    // allowed set and a declared cycle; hqs-rogue is not registered in
    // the layering table; the source fixture uses a dev-dependency
    // outside tests, an undeclared crate, and another crate's internal
    // module.
    let ws = workspace(
        vec![
            member("hqs-base", "crates/base", &["hqs-cnf"], &[]),
            member("hqs-cnf", "crates/cnf", &["hqs-base"], &[]),
            member("hqs-proof", "crates/proof", &["hqs-base", "hqs-cnf"], &[]),
            member("hqs-rogue", "crates/rogue", &[], &[]),
            member("hqs-sat", "crates/sat", &["hqs-base"], &["hqs-proof"]),
        ],
        vec![("crates/sat/src/helper.rs", "hqs-sat", BAD_LAYERING)],
    );
    let diags = layering::run(&ws);
    assert_eq!(diags.len(), 6, "{diags:#?}");
    assert_eq!(
        count_containing(&diags, "is not registered in the layering table"),
        1
    );
    assert_eq!(count_containing(&diags, "may not depend on"), 1);
    assert_eq!(count_containing(&diags, "dependency cycle"), 1);
    assert_eq!(
        count_containing(&diags, "dev-dependency and may only be used from test code"),
        1
    );
    assert_eq!(count_containing(&diags, "is not a declared dependency"), 1);
    assert_eq!(
        count_containing(&diags, "reaches into an internal module"),
        1
    );
}

#[test]
fn stale_internal_module_entries_are_findings_once_each() {
    // The fixture is an `hqs-serve` root that declares `server` but not
    // `io`, so the layering table's `hqs-serve::io` entry guards
    // nothing. `hqs-sat`'s root is not loaded, so its entries are not
    // checked.
    let ws = workspace(
        vec![
            member("hqs-sat", "crates/sat", &[], &[]),
            member("hqs-serve", "crates/serve", &[], &[]),
        ],
        vec![(
            "crates/serve/src/lib.rs",
            "hqs-serve",
            STALE_INTERNAL_MODULE,
        )],
    );
    let diags = layering::run(&ws);
    let found: Vec<(&str, &str)> = diags
        .iter()
        .map(|d| (d.pass.as_str(), d.symbol.as_str()))
        .collect();
    assert_eq!(found, [("layering", "hqs-serve::io")], "{diags:#?}");
    assert!(
        diags[0]
            .message
            .contains("names no `mod` item in crates/serve/src/lib.rs"),
        "{}",
        diags[0].message
    );
}

#[test]
fn bad_transitive_flags_panic_with_full_call_chain() {
    let ws = workspace(
        vec![member("hqs-sat", "crates/sat", &[], &[])],
        vec![(
            "crates/sat/src/bad_transitive.rs",
            "hqs-sat",
            BAD_TRANSITIVE,
        )],
    );
    let diags = passes::run_all(&ws, &cfg_with(hot_propagate()));
    assert_eq!(diags.len(), 3, "{diags:#?}");
    assert!(diags.iter().all(|d| d.pass == "hot-transitive"));
    let unwrap = diags
        .iter()
        .find(|d| d.message.contains("`.unwrap(…)`"))
        .expect("unwrap finding");
    assert_eq!(unwrap.symbol, "Solver::helper_two");
    // The diagnostic names the full chain from the seed to the sink.
    assert!(
        unwrap.message.contains(
            "[hot via hqs-sat::Solver::propagate → Solver::helper_one → Solver::helper_two]"
        ),
        "{}",
        unwrap.message
    );
    // Implicit panic shapes are reported through the whole closure,
    // seed included: `split_at` in the seed, `%` by a non-literal in a
    // reached helper.
    let split = diags
        .iter()
        .find(|d| d.message.contains("`.split_at(…)`"))
        .expect("split_at finding");
    assert_eq!(split.symbol, "Solver::propagate");
    let div = diags
        .iter()
        .find(|d| d.message.contains("`%` by a non-literal divisor"))
        .expect("modulo finding");
    assert_eq!(div.symbol, "Solver::helper_one");
    assert!(div.message.contains("checked_rem"), "{}", div.message);
}

#[test]
fn bad_cancel_flags_only_the_unpolled_loop() {
    let ws = workspace(
        vec![member("hqs-sat", "crates/sat", &[], &[])],
        vec![("crates/sat/src/bad_cancel.rs", "hqs-sat", BAD_CANCEL)],
    );
    let cfg = AnalyzeConfig {
        cancel: vec![HotFn {
            crate_name: "hqs-sat".to_string(),
            symbol: "Solver::solve_rounds".to_string(),
        }],
        ..AnalyzeConfig::default()
    };
    let diags = passes::run_all(&ws, &cfg);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    let d = &diags[0];
    assert_eq!(d.pass, "cancel-poll");
    assert_eq!(d.symbol, "Solver::solve_rounds");
    // The polled `loop` (budget.check) passes; only the bare `while`
    // spin is flagged, anchored at its header, with the concrete
    // unpolled iteration path rendered.
    assert_eq!(d.line, 27, "{diags:#?}");
    assert!(
        d.message
            .contains("without a cancellation poll [path: L27 → L29 → back to L27]"),
        "{}",
        d.message
    );
}

#[test]
fn cancel_paths_labeled_break_and_question_edges() {
    let ws = workspace(
        vec![member("hqs-sat", "crates/sat", &[], &[])],
        vec![(
            "crates/sat/src/bad_cancel_paths.rs",
            "hqs-sat",
            BAD_CANCEL_PATHS,
        )],
    );
    let cfg = AnalyzeConfig {
        cancel: ["Solver::solve_rounds", "Solver::solve_inner"]
            .iter()
            .map(|s| HotFn {
                crate_name: "hqs-sat".to_string(),
                symbol: (*s).to_string(),
            })
            .collect(),
        ..AnalyzeConfig::default()
    };
    let diags = passes::run_all(&ws, &cfg);
    // `solve_rounds` polls at the head; its `?` early exit and labeled
    // `break 'outer` are extra exits, not unpolled cycles. Only
    // `solve_inner`'s fast-path `continue` is flagged.
    assert_eq!(diags.len(), 1, "{diags:#?}");
    let d = &diags[0];
    assert_eq!(d.pass, "cancel-poll");
    assert_eq!(d.symbol, "Solver::solve_inner");
    assert_eq!(d.line, 37, "{diags:#?}");
    assert!(
        d.message.contains("without a cancellation poll [path:")
            && d.message.contains("back to L37"),
        "{}",
        d.message
    );
}

#[test]
fn bad_lockorder_cycle_renders_both_chains() {
    let ws = workspace(
        vec![member("hqs-sat", "crates/sat", &[], &[])],
        vec![("crates/sat/src/bad_lockorder.rs", "hqs-sat", BAD_LOCKORDER)],
    );
    // The graph has both directions: alpha → beta composed through the
    // `grab_beta` call, beta → alpha intra-function.
    assert_eq!(
        lock_order::build(&ws, &CallGraph::build(&ws)).cycles(),
        vec![vec![
            "hqs-sat/alpha".to_string(),
            "hqs-sat/beta".to_string()
        ]]
    );
    let diags = passes::run_all(&ws, &AnalyzeConfig::default());
    assert_eq!(diags.len(), 1, "{diags:#?}");
    let d = &diags[0];
    assert_eq!(d.pass, "lock-order");
    assert_eq!(d.symbol, "hqs-sat/alpha ⇄ hqs-sat/beta");
    assert!(
        d.message
            .contains("lock-order cycle between {hqs-sat/alpha, hqs-sat/beta}"),
        "{}",
        d.message
    );
    // Composed chain: alpha held, call reaches beta through the graph.
    assert!(
        d.message.contains(
            "`hqs-sat/alpha` held via `guard` (crates/sat/src/bad_lockorder.rs:16) → \
             Pair::forward calls Pair::grab_beta at crates/sat/src/bad_lockorder.rs:17, \
             which acquires `hqs-sat/beta`"
        ),
        "{}",
        d.message
    );
    // Intra chain: beta held, alpha temp-acquired two lines later.
    assert!(
        d.message.contains(
            "`hqs-sat/beta` held via `g` (crates/sat/src/bad_lockorder.rs:28) → acquires \
             `hqs-sat/alpha` at crates/sat/src/bad_lockorder.rs:29 in Pair::backward"
        ),
        "{}",
        d.message
    );
}

#[test]
fn bad_ordering_flags_unlisted_site_and_stale_entry() {
    let ws = workspace(
        vec![member("hqs-sat", "crates/sat", &[], &[])],
        vec![("crates/sat/src/bad_ordering.rs", "hqs-sat", BAD_ORDERING)],
    );
    let cfg = AnalyzeConfig {
        ordering_allow: vec![OrderingSite {
            path: "crates/sat/src/bad_ordering.rs".to_string(),
            symbol: "Flag::clear".to_string(),
            variant: "Release".to_string(),
        }],
        ..AnalyzeConfig::default()
    };
    let diags = passes::run_all(&ws, &cfg);
    assert_eq!(diags.len(), 2, "{diags:#?}");
    assert!(diags.iter().all(|d| d.pass == "concurrency-ordering"));
    assert_eq!(
        count_containing(&diags, "is not in the committed allowlist"),
        1
    );
    assert_eq!(
        count_containing(&diags, "stale ordering allowlist entry"),
        1
    );
}

#[test]
fn bad_lockhold_flags_solver_call_and_alloc_under_guard() {
    let ws = workspace(
        vec![member("hqs-sat", "crates/sat", &[], &[])],
        vec![("crates/sat/src/bad_lockhold.rs", "hqs-sat", BAD_LOCKHOLD)],
    );
    let diags = passes::run_all(&ws, &cfg_with(hot_propagate()));
    let lock: Vec<_> = diags
        .iter()
        .filter(|d| d.pass == "concurrency-lock")
        .collect();
    assert_eq!(lock.len(), 2, "{diags:#?}");
    assert_eq!(diags.len(), 2, "{diags:#?}");
    assert!(lock.iter().any(|d| d
        .message
        .contains("solver call `solve(…)` while MutexGuard `guard`")));
    assert!(lock
        .iter()
        .any(|d| d.message.contains("allocation while MutexGuard `guard`")));
}

#[test]
fn clean_concurrency_with_allowlisted_site_is_clean() {
    let ws = workspace(
        vec![member("hqs-sat", "crates/sat", &[], &[])],
        vec![(
            "crates/sat/src/clean_concurrency.rs",
            "hqs-sat",
            CLEAN_CONCURRENCY,
        )],
    );
    let cfg = AnalyzeConfig {
        hot: hot_propagate(),
        ordering_allow: vec![OrderingSite {
            path: "crates/sat/src/clean_concurrency.rs".to_string(),
            symbol: "Solver::propagate".to_string(),
            variant: "Relaxed".to_string(),
        }],
        ..AnalyzeConfig::default()
    };
    let diags = passes::run_all(&ws, &cfg);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn clean_fixtures_produce_zero_findings() {
    let ws = workspace(
        vec![member("hqs-sat", "crates/sat", &[], &[])],
        vec![
            ("crates/sat/src/clean_hot.rs", "hqs-sat", CLEAN_HOT),
            ("crates/sat/src/clean_strings.rs", "hqs-sat", CLEAN_STRINGS),
            (
                "crates/sat/src/clean_transitive.rs",
                "hqs-sat",
                CLEAN_TRANSITIVE,
            ),
        ],
    );
    let diags = passes::run_all(&ws, &cfg_with(hot_propagate()));
    assert!(diags.is_empty(), "{diags:#?}");
    let findings = source_audit::run(&ws);
    assert!(findings.hard.is_empty(), "{:#?}", findings.hard);
    assert!(
        findings.unwrap_sites.is_empty(),
        "{:#?}",
        findings.unwrap_sites
    );
}

#[test]
fn unmatched_config_entries_are_findings_once_each() {
    // A renamed function must not switch its check off silently: stale
    // `[hot-paths]` and `[determinism]` entries are reported like a
    // stale `[cancel-poll]` entry, once each — concurrency-lock resolves
    // the same `[hot-paths]` list without reporting it again.
    let ws = workspace(
        vec![member("hqs-sat", "crates/sat", &[], &[])],
        vec![("crates/sat/src/clean_hot.rs", "hqs-sat", CLEAN_HOT)],
    );
    let renamed = |symbol: &str| HotFn {
        crate_name: "hqs-sat".to_string(),
        symbol: symbol.to_string(),
    };
    let mut hot = hot_propagate();
    hot.functions.push(renamed("Solver::propagate_all"));
    let cfg = AnalyzeConfig {
        hot,
        determinism_roots: vec![renamed("Writer::emit")],
        cancel: vec![renamed("Solver::solve")],
        ..AnalyzeConfig::default()
    };
    let diags = passes::run_all(&ws, &cfg);
    let found: Vec<(&str, &str)> = diags
        .iter()
        .map(|d| (d.pass.as_str(), d.symbol.as_str()))
        .collect();
    assert_eq!(
        found,
        [
            ("cancel-poll", "hqs-sat::Solver::solve"),
            ("determinism", "hqs-sat::Writer::emit"),
            ("hot-transitive", "hqs-sat::Solver::propagate_all"),
        ],
        "{diags:#?}"
    );
    for d in &diags {
        assert_eq!(d.path, "analyze-hot-paths.toml");
        let tail = format!("entry `{}` matches no function in the workspace", d.symbol);
        assert!(d.message.ends_with(&tail), "{}", d.message);
    }
}

fn det_root() -> AnalyzeConfig {
    AnalyzeConfig {
        determinism_roots: vec![HotFn {
            crate_name: "hqs-sat".to_string(),
            symbol: "Writer::emit".to_string(),
        }],
        ..AnalyzeConfig::default()
    }
}

#[test]
fn bad_determinism_flags_every_source_with_chain() {
    let ws = workspace(
        vec![member("hqs-sat", "crates/sat", &[], &[])],
        vec![(
            "crates/sat/src/bad_determinism.rs",
            "hqs-sat",
            BAD_DETERMINISM,
        )],
    );
    let graph = CallGraph::build(&ws);
    let diags = determinism::run(&ws, &det_root(), &graph);
    assert_eq!(diags.len(), 4, "{diags:#?}");
    assert!(diags.iter().all(|d| d.pass == "determinism"));
    assert_eq!(
        count_containing(&diags, "`for` over hash-bound `counts`"),
        1
    );
    assert_eq!(count_containing(&diags, "`counts.keys()`"), 1);
    assert_eq!(count_containing(&diags, "`Instant::now()`"), 1);
    assert_eq!(count_containing(&diags, "`env::var`"), 1);
    // The wall-clock finding names the seed-to-sink chain verbatim.
    let clock = diags
        .iter()
        .find(|d| d.message.contains("Instant"))
        .expect("wall-clock finding");
    assert_eq!(clock.symbol, "Writer::stamp");
    assert!(
        clock
            .message
            .contains("[deterministic via hqs-sat::Writer::emit → Writer::stamp]"),
        "{}",
        clock.message
    );
}

#[test]
fn clean_determinism_reports_nothing() {
    let ws = workspace(
        vec![member("hqs-sat", "crates/sat", &[], &[])],
        vec![(
            "crates/sat/src/clean_determinism.rs",
            "hqs-sat",
            CLEAN_DETERMINISM,
        )],
    );
    // Through `run_all` so the two-way ratchet also validates the
    // fixture's allow annotation as *used* (a stale allow would be a
    // finding of its own).
    let diags = passes::run_all(&ws, &det_root());
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn bad_implicit_panic_flags_every_site_guarded_or_not() {
    let diags = hot_findings("crates/sat/src/bad_implicit_panic.rs", BAD_IMPLICIT_PANIC);
    // A wrong-variable guard, a missing guard, a bound killed by
    // `clear()` and a correct loop guard all leave their sites findings.
    assert_eq!(diags.len(), 5, "{diags:#?}");
    assert_eq!(count_containing(&diags, "`/` by a non-literal divisor"), 1);
    assert_eq!(count_containing(&diags, "`.split_at(…)`"), 2);
    let indexing: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.message.contains("`[…]` indexing"))
        .collect();
    assert_eq!(indexing.len(), 2, "{diags:#?}");
    assert!(indexing.iter().all(|d| d.symbol == "sum_squares"));
    // The messages point at the non-panicking forms.
    assert!(diags
        .iter()
        .any(|d| d.message.contains("`checked_div`") && d.symbol == "ratio"));
    assert!(diags
        .iter()
        .filter(|d| d.message.contains("`.split_at(…)`"))
        .all(|d| d.message.contains("`split_at_checked`/`get`")));
}
