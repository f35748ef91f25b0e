//! Layering pass: the crate DAG is architecture, not an accident.
//!
//! The sanctioned graph follows the paper's pipeline
//! `base → cnf → {sat, proof} → {maxsat, aig} → qbf → core` with the
//! application crates (`idq`, `pec`, `engine`, `serve`, `bench`, the
//! `hqs` facade and `xtask`) on top. Three things are enforced:
//!
//! 1. every member's `[dependencies]` stay inside its allowed set (and
//!    every member is registered here — adding a crate is an
//!    architectural decision, so the table is the place to record it);
//! 2. the declared graph is acyclic (belt-and-braces — Cargo would also
//!    reject a cycle, but only after a confusing resolver error);
//! 3. source files only name `hqs_*` crates they actually declare —
//!    dev-dependencies only from test code — and never path through
//!    another crate's private modules (`hqs_sat::solver::…`), which
//!    defends the layer boundaries against a module being made `pub`
//!    for convenience. An internal-module entry that names no `mod`
//!    item in its crate's `src/lib.rs` is itself a finding, so a
//!    deleted or renamed module cannot leave an entry that guards
//!    nothing.

use crate::diag::Diagnostic;
use crate::workspace::Workspace;

use super::{code_indices, is_test_path, text_at};

/// Allowed `[dependencies]` per member crate. Dev-dependencies are not
/// constrained by the DAG (tests may look upward, e.g. `hqs-sat` tests
/// checking its DRAT output with `hqs-proof`).
const ALLOWED_DEPS: &[(&str, &[&str])] = &[
    ("hqs-base", &[]),
    // Observability sits beside `base`: anything above may emit into it,
    // and it may depend on nothing but `base` (std-only by design).
    ("hqs-obs", &["hqs-base"]),
    ("hqs-cnf", &["hqs-base"]),
    ("hqs-sat", &["hqs-base", "hqs-obs", "hqs-cnf"]),
    ("hqs-proof", &["hqs-base", "hqs-cnf"]),
    ("hqs-maxsat", &["hqs-base", "hqs-obs", "hqs-cnf", "hqs-sat"]),
    ("hqs-aig", &["hqs-base", "hqs-obs", "hqs-cnf", "hqs-sat"]),
    (
        "hqs-qbf",
        &["hqs-base", "hqs-obs", "hqs-cnf", "hqs-sat", "hqs-aig"],
    ),
    (
        "hqs-core",
        &[
            "hqs-base",
            "hqs-obs",
            "hqs-cnf",
            "hqs-sat",
            "hqs-proof",
            "hqs-maxsat",
            "hqs-aig",
            "hqs-qbf",
        ],
    ),
    ("hqs-idq", &["hqs-base", "hqs-cnf", "hqs-sat", "hqs-core"]),
    ("hqs-pec", &["hqs-base", "hqs-cnf", "hqs-core"]),
    (
        "hqs-engine",
        &["hqs-base", "hqs-obs", "hqs-cnf", "hqs-core"],
    ),
    (
        "hqs-serve",
        &["hqs-base", "hqs-obs", "hqs-cnf", "hqs-core", "hqs-engine"],
    ),
    (
        "hqs-bench",
        &[
            "hqs-base",
            "hqs-obs",
            "hqs-cnf",
            "hqs-sat",
            "hqs-proof",
            "hqs-maxsat",
            "hqs-aig",
            "hqs-qbf",
            "hqs-core",
            "hqs-idq",
            "hqs-pec",
            "hqs-engine",
            "hqs-serve",
        ],
    ),
    (
        "hqs",
        &[
            "hqs-base",
            "hqs-obs",
            "hqs-cnf",
            "hqs-sat",
            "hqs-proof",
            "hqs-maxsat",
            "hqs-aig",
            "hqs-qbf",
            "hqs-core",
            "hqs-idq",
            "hqs-pec",
            "hqs-engine",
            "hqs-serve",
        ],
    ),
    ("xtask", &["hqs-base", "hqs-core", "hqs-pec", "hqs-analyze"]),
    ("hqs-analyze", &[]),
];

/// Private (non-`pub`) top-level modules per crate. Reaching for
/// `hqs_x::private_mod::…` from another crate is a layer-skip even if
/// someone later makes the module `pub`.
const INTERNAL_MODULES: &[(&str, &[&str])] = &[
    (
        "hqs-aig",
        &["check", "cnf_conv", "edge", "manager", "unitpure"],
    ),
    (
        "hqs-base",
        &["assignment", "budget", "cache", "lit", "varset"],
    ),
    ("hqs-cnf", &["clause", "cnf"]),
    ("hqs-core", &["check", "dqbf", "formula_hash"]),
    (
        "hqs-engine",
        &["corpus", "deck", "jsonl", "portfolio", "scheduler"],
    ),
    ("hqs-maxsat", &["totalizer"]),
    ("hqs-obs", &["export", "metric", "observer", "registry"]),
    ("hqs-proof", &["checker", "drat"]),
    ("hqs-qbf", &["prefix"]),
    ("hqs-sat", &["check", "heap", "luby", "proof", "solver"]),
    ("hqs-serve", &["io", "server"]),
];

fn allowed_deps(name: &str) -> Option<&'static [&'static str]> {
    ALLOWED_DEPS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, deps)| *deps)
}

fn internal_modules(name: &str) -> &'static [&'static str] {
    INTERNAL_MODULES
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(&[], |(_, mods)| *mods)
}

/// Runs the layering pass.
#[must_use]
pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    manifest_rules(ws, &mut diags);
    cycle_rule(ws, &mut diags);
    source_rules(ws, &mut diags);
    stale_internal_modules(ws, &mut diags);
    diags
}

fn manifest_path(ws: &Workspace, crate_name: &str) -> String {
    ws.crate_named(crate_name).map_or_else(
        || "Cargo.toml".to_string(),
        |c| {
            if c.dir.is_empty() {
                "Cargo.toml".to_string()
            } else {
                format!("{}/Cargo.toml", c.dir)
            }
        },
    )
}

fn manifest_rules(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for c in &ws.crates {
        let Some(allowed) = allowed_deps(&c.name) else {
            diags.push(Diagnostic {
                pass: "layering".into(),
                path: manifest_path(ws, &c.name),
                line: 1,
                symbol: c.name.clone(),
                message: format!(
                    "crate `{}` is not registered in the layering table — adding a crate is an \
                     architectural decision; register its allowed dependencies in \
                     crates/analyze/src/passes/layering.rs",
                    c.name
                ),
            });
            continue;
        };
        for dep in &c.manifest.deps {
            if !dep.starts_with("hqs") {
                continue;
            }
            if !allowed.contains(&dep.as_str()) {
                diags.push(Diagnostic {
                    pass: "layering".into(),
                    path: manifest_path(ws, &c.name),
                    line: 1,
                    symbol: c.name.clone(),
                    message: format!(
                        "`{}` may not depend on `{dep}`: the layer DAG is \
                         base → cnf → {{sat, proof}} → {{maxsat, aig}} → qbf → core → apps",
                        c.name
                    ),
                });
            }
        }
    }
}

/// Depth-first search for cycles over the *declared* dependency edges
/// between workspace members.
fn cycle_rule(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    // 0 = unvisited, 1 = on the current path, 2 = done.
    let mut state: Vec<u8> = vec![0; ws.crates.len()];
    let index_of = |name: &str| ws.crates.iter().position(|c| c.name == name);

    fn dfs(
        ws: &Workspace,
        i: usize,
        state: &mut Vec<u8>,
        path: &mut Vec<String>,
        index_of: &dyn Fn(&str) -> Option<usize>,
        diags: &mut Vec<Diagnostic>,
    ) {
        state[i] = 1;
        path.push(ws.crates[i].name.clone());
        let deps = ws.crates[i].manifest.deps.clone();
        for dep in deps {
            let Some(j) = index_of(&dep) else { continue };
            match state[j] {
                0 => dfs(ws, j, state, path, index_of, diags),
                1 => {
                    let start = path.iter().position(|n| *n == dep).unwrap_or(0);
                    let cycle = path[start..].join(" → ");
                    diags.push(Diagnostic {
                        pass: "layering".into(),
                        path: manifest_path(ws, &ws.crates[i].name),
                        line: 1,
                        symbol: ws.crates[i].name.clone(),
                        message: format!("dependency cycle: {cycle} → {dep}"),
                    });
                }
                _ => {}
            }
        }
        path.pop();
        state[i] = 2;
    }

    for i in 0..ws.crates.len() {
        if state[i] == 0 {
            dfs(ws, i, &mut state, &mut Vec::new(), &index_of, &mut *diags);
        }
    }
}

fn source_rules(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        let Some(owner) = ws.crate_named(&file.crate_name) else {
            continue;
        };
        let file_is_test = is_test_path(&file.path);
        let code = code_indices(file);
        for (k, &i) in code.iter().enumerate() {
            let tok = &file.tokens[i];
            let text = file.text_of(tok);
            if !text.starts_with("hqs_") && text != "hqs" {
                continue;
            }
            // Only a `crate::…` path is a crate reference — `hqs` and
            // `hqs_seconds` are perfectly good variable names.
            if text_at(file, &code, k + 1) != ":" || text_at(file, &code, k + 2) != ":" {
                continue;
            }
            let dep_name = text.replace('_', "-");
            if dep_name == file.crate_name {
                continue;
            }
            let ctx = &file.ctx[i];
            let in_test = file_is_test || ctx.in_test;
            let declared = owner.manifest.deps.contains(&dep_name);
            let declared_dev = owner.manifest.dev_deps.contains(&dep_name);
            if !(declared || declared_dev && in_test) {
                // Only report when this actually names a crate we know,
                // to avoid flagging unrelated `hqs_…` identifiers.
                if ws.crate_named(&dep_name).is_some() {
                    let detail = if declared_dev {
                        "is a dev-dependency and may only be used from test code"
                    } else {
                        "is not a declared dependency"
                    };
                    diags.push(Diagnostic {
                        pass: "layering".into(),
                        path: file.path.clone(),
                        line: tok.line,
                        symbol: ctx.in_fn.clone(),
                        message: format!(
                            "`{}` references `{dep_name}`, which {detail} of `{}`",
                            text, file.crate_name
                        ),
                    });
                }
                continue;
            }
            // Internal-module reach-through: `hqs_x :: private_mod`.
            if text_at(file, &code, k + 1) == ":" && text_at(file, &code, k + 2) == ":" {
                let module = text_at(file, &code, k + 3);
                if internal_modules(&dep_name).contains(&module) {
                    diags.push(Diagnostic {
                        pass: "layering".into(),
                        path: file.path.clone(),
                        line: tok.line,
                        symbol: ctx.in_fn.clone(),
                        message: format!(
                            "`{text}::{module}` reaches into an internal module of `{dep_name}` — \
                             go through its public API"
                        ),
                    });
                }
            }
        }
    }
}

/// One finding per [`INTERNAL_MODULES`] entry that names no `mod` item
/// in its crate's `src/lib.rs`. Crates whose root file is not loaded
/// are not checked.
fn stale_internal_modules(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for (crate_name, modules) in INTERNAL_MODULES {
        let Some(member) = ws.crate_named(crate_name) else {
            continue;
        };
        let root = if member.dir.is_empty() {
            "src/lib.rs".to_string()
        } else {
            format!("{}/src/lib.rs", member.dir)
        };
        let Some(file) = ws.files.iter().find(|f| f.path == root) else {
            continue;
        };
        let code = code_indices(file);
        let declared: Vec<&str> = (0..code.len())
            .filter(|&k| text_at(file, &code, k) == "mod")
            .map(|k| text_at(file, &code, k + 1))
            .collect();
        for module in *modules {
            if !declared.contains(module) {
                diags.push(Diagnostic {
                    pass: "layering".into(),
                    path: "crates/analyze/src/passes/layering.rs".into(),
                    line: 0,
                    symbol: format!("{crate_name}::{module}"),
                    message: format!(
                        "internal-module entry `{crate_name}::{module}` names no `mod` item in \
                         {root} — remove or rename it in INTERNAL_MODULES"
                    ),
                });
            }
        }
    }
}
