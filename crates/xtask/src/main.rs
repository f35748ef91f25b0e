//! Workspace maintenance tasks.
//!
//! Three tasks. The static-analysis driver
//!
//! ```text
//! cargo run -p xtask -- analyze [--check-baseline] [--write-baseline]
//!                               [--summary] [--bench <path>]
//!                               [--explain <pass>]
//! ```
//!
//! builds the workspace call graph and runs the nine token-level passes
//! from `hqs-analyze` (layering, newtype discipline, annotation
//! validation, hot-path discipline, determinism taint, cancel-poll
//! coverage, atomic-ordering and lock-hold hygiene, lock order) over the
//! whole workspace and ratchets the findings against the committed
//! `analyze-baseline.json` — see [`analyze_cmd`]. The certification gate
//!
//! ```text
//! cargo run -p xtask -- certify
//! ```
//!
//! solves a corpus of PEC and random DQBF instances under certification
//! (every SAT verdict must ship a verifying Skolem certificate, every
//! UNSAT verdict a DRAT refutation accepted by the independent
//! `hqs-proof` checker) and additionally requires deliberately corrupted
//! certificates to be rejected — see [`certify`]. And the source audit:
//!
//! ```text
//! cargo run -p xtask -- audit
//! ```
//!
//! It enforces, via the `hqs-analyze` lexer (so string literals and
//! comments can never trigger it):
//!
//! * `#![forbid(unsafe_code)]` in every crate root (`src/lib.rs`,
//!   `src/main.rs`, `src/bin/*.rs`),
//! * `//!` crate-level documentation in every crate root,
//! * no `todo!`/`unimplemented!`/`dbg!` anywhere,
//! * no `.unwrap()`/`.expect(` in library code — test modules, `tests/`,
//!   `benches/` and `examples/` are exempt, and remaining library sites
//!   are budgeted per file in `crates/xtask/audit-allowlist.txt` so the
//!   count can only be burned down, never grow.
//!
//! Earlier revisions scanned lines with substring matching and had to
//! exempt `crates/xtask` itself (its rule tables spell the banned
//! tokens out literally); the token-level port closes that hole, so the
//! audit now covers every workspace crate including this one.
//!
//! The process exits non-zero if any violation is found, which is how CI
//! consumes it.

#![forbid(unsafe_code)]

mod analyze_cmd;
mod certify;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hqs_analyze::passes::source_audit;
use hqs_analyze::Workspace;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("audit") => {
            let root = workspace_root();
            let allowlist_path = root.join("crates/xtask/audit-allowlist.txt");
            match run_audit(&root, &allowlist_path) {
                Ok(violations) if violations.is_empty() => {
                    println!("audit: OK");
                    ExitCode::SUCCESS
                }
                Ok(violations) => {
                    for v in &violations {
                        eprintln!("{v}");
                    }
                    eprintln!("audit: {} violation(s)", violations.len());
                    ExitCode::FAILURE
                }
                Err(err) => {
                    eprintln!("audit: {err}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("analyze") => analyze_cmd::run(&args.collect::<Vec<_>>()),
        Some("certify") => certify::run(),
        _ => {
            eprintln!("usage: cargo run -p xtask -- analyze|audit|certify");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root, resolved from this crate's manifest directory so
/// the tasks work from any working directory.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.clone(), Path::to_path_buf)
}

/// Runs every audit rule over the workspace rooted at `root`; returns
/// all violations as display-ready strings. `allowlist_path` may not
/// exist (empty budget).
fn run_audit(root: &Path, allowlist_path: &Path) -> std::io::Result<Vec<String>> {
    let allowlist = load_allowlist(allowlist_path)?;
    let ws = Workspace::load(root)?;
    let findings = source_audit::run(&ws);

    let mut violations: Vec<String> = findings
        .hard
        .iter()
        .map(|d| format!("{}:{}: {}", d.path, d.line, d.message))
        .collect();

    // Budget bookkeeping, unchanged from the line-based audit: every
    // allowlisted file must exist, must not be over budget, and
    // over-generous budgets must be burned down.
    let mut used_budget: BTreeMap<String, usize> = BTreeMap::new();
    for d in &findings.unwrap_sites {
        *used_budget.entry(d.path.clone()).or_insert(0) += 1;
    }
    for (file, &budget) in &allowlist {
        match used_budget.get(file) {
            None if !root.join(file).exists() => violations.push(format!(
                "{file}: allowlisted file no longer exists; drop the entry"
            )),
            None if budget > 0 => violations.push(format!(
                "{file}: allowlist grants {budget} unwrap/expect site(s) but the file has none; \
                 tighten the entry to 0 or drop it"
            )),
            _ => {}
        }
    }
    for (file, &used) in &used_budget {
        let budget = allowlist.get(file).copied().unwrap_or(0);
        if used > budget {
            violations.push(format!(
                "{file}: {used} unwrap/expect site(s) in library code, allowlist grants {budget} \
                 (convert to typed errors, or raise the budget only with justification)"
            ));
        } else if used < budget {
            violations.push(format!(
                "{file}: allowlist grants {budget} unwrap/expect site(s) but only {used} remain; \
                 burn the budget down to {used}"
            ));
        }
    }
    violations.sort();
    Ok(violations)
}

/// Parses the allowlist: `<path> <count>` per line, `#` comments.
fn load_allowlist(path: &Path) -> std::io::Result<BTreeMap<String, usize>> {
    let mut budget = BTreeMap::new();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(budget),
        Err(err) => return Err(err),
    };
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(file), Some(count), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}:{}: expected `<path> <count>`", path.display(), idx + 1),
            ));
        };
        let Ok(count) = count.parse::<usize>() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}:{}: `{count}` is not a count", path.display(), idx + 1),
            ));
        };
        budget.insert(file.to_string(), count);
    }
    Ok(budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempTree {
        root: PathBuf,
    }

    impl TempTree {
        fn new(tag: &str) -> Self {
            let root =
                std::env::temp_dir().join(format!("xtask-audit-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            std::fs::create_dir_all(root.join("crates")).expect("temp tree");
            TempTree { root }
        }

        /// Writes a file; for paths under `crates/<name>/` a minimal
        /// manifest is created alongside so the workspace loader picks
        /// the crate up.
        fn write(&self, rel: &str, content: &str) {
            let path = self.root.join(rel);
            std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            std::fs::write(path, content).expect("write");
            if let Some(rest) = rel.strip_prefix("crates/") {
                if let Some((name, _)) = rest.split_once('/') {
                    let manifest = self.root.join("crates").join(name).join("Cargo.toml");
                    if !manifest.exists() {
                        std::fs::write(
                            manifest,
                            format!("[package]\nname = \"{name}\"\n\n[dependencies]\n"),
                        )
                        .expect("manifest");
                    }
                }
            }
        }

        fn audit(&self) -> Vec<String> {
            run_audit(&self.root, &self.root.join("allow.txt")).expect("audit runs")
        }
    }

    impl Drop for TempTree {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }

    const CLEAN_ROOT: &str = "//! A documented crate.\n#![forbid(unsafe_code)]\npub fn f() {}\n";

    #[test]
    fn clean_tree_passes() {
        let tree = TempTree::new("clean");
        tree.write("crates/a/src/lib.rs", CLEAN_ROOT);
        tree.write("crates/a/tests/t.rs", "fn t() { Some(1).unwrap(); }\n");
        assert!(tree.audit().is_empty(), "{:?}", tree.audit());
    }

    #[test]
    fn missing_forbid_and_docs_fail() {
        let tree = TempTree::new("forbid");
        tree.write("crates/a/src/lib.rs", "pub fn f() {}\n");
        let violations = tree.audit();
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("forbid(unsafe_code)")));
        assert!(violations
            .iter()
            .any(|v| v.contains("crate-level documentation")));
    }

    #[test]
    fn todo_and_dbg_fail_everywhere() {
        let tree = TempTree::new("todo");
        tree.write("crates/a/src/lib.rs", CLEAN_ROOT);
        tree.write("crates/a/src/m.rs", "fn g() { todo!() }\n");
        tree.write("crates/a/tests/t.rs", "fn t() { dbg!(1); }\n");
        let violations = tree.audit();
        assert_eq!(violations.len(), 2, "{violations:?}");
    }

    #[test]
    fn commented_todo_is_ignored() {
        let tree = TempTree::new("comment");
        tree.write("crates/a/src/lib.rs", CLEAN_ROOT);
        tree.write("crates/a/src/m.rs", "// todo!() is banned\nfn g() {}\n");
        assert!(tree.audit().is_empty());
    }

    #[test]
    fn todo_inside_string_literal_is_ignored() {
        // The line-based scanner could not make this distinction; the
        // lexer can. A string spelling `todo!(` is data, not code.
        let tree = TempTree::new("string");
        tree.write("crates/a/src/lib.rs", CLEAN_ROOT);
        tree.write(
            "crates/a/src/m.rs",
            "pub fn banned() -> &'static str { \"todo!( and .unwrap() are banned\" }\n",
        );
        assert!(tree.audit().is_empty(), "{:?}", tree.audit());
    }

    #[test]
    fn library_unwrap_fails_without_allowlist() {
        let tree = TempTree::new("unwrap");
        tree.write("crates/a/src/lib.rs", CLEAN_ROOT);
        tree.write("crates/a/src/m.rs", "fn g() { Some(1).unwrap(); }\n");
        let violations = tree.audit();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("allowlist grants 0"));
    }

    #[test]
    fn allowlisted_unwrap_passes_and_burndown_is_enforced() {
        let tree = TempTree::new("allow");
        tree.write("crates/a/src/lib.rs", CLEAN_ROOT);
        tree.write("crates/a/src/m.rs", "fn g() { Some(1).unwrap(); }\n");
        tree.write("allow.txt", "crates/a/src/m.rs 1\n");
        assert!(tree.audit().is_empty());
        // Over-generous budget must be burned down.
        tree.write("allow.txt", "crates/a/src/m.rs 2\n");
        let violations = tree.audit();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("burn the budget down"));
    }

    #[test]
    fn unwrap_in_test_module_is_exempt() {
        let tree = TempTree::new("testmod");
        tree.write(
            "crates/a/src/lib.rs",
            "//! Docs.\n#![forbid(unsafe_code)]\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n",
        );
        assert!(tree.audit().is_empty());
    }

    #[test]
    fn expect_err_is_not_an_expect_site() {
        let tree = TempTree::new("expecterr");
        tree.write("crates/a/src/lib.rs", CLEAN_ROOT);
        tree.write(
            "crates/a/src/m.rs",
            "fn g(r: Result<(), ()>) { r.expect_err(\"x\"); }\n",
        );
        assert!(tree.audit().is_empty());
    }

    #[test]
    fn stale_allowlist_entry_fails() {
        let tree = TempTree::new("stale");
        tree.write("crates/a/src/lib.rs", CLEAN_ROOT);
        tree.write("allow.txt", "crates/a/src/gone.rs 3\n");
        let violations = tree.audit();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("no longer exists"));
    }
}
