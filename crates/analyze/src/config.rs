//! The `analyze-hot-paths.toml` configuration: hot-path seeds,
//! cancel-poll entry functions, the atomic-ordering allowlist, and the
//! call-graph resolution-rate floor.
//!
//! Format (a deliberate, tiny TOML subset — `[section]` headers,
//! string arrays, numeric scalars, `#` comments):
//!
//! ```toml
//! [hot-paths]
//! functions = [
//!     "hqs-sat::Solver::propagate",
//!     "hqs-aig::Aig::and",
//! ]
//!
//! [cancel-poll]
//! functions = [
//!     "hqs-core::Solver::main_loop",
//! ]
//!
//! [concurrency]
//! ordering = [
//!     "crates/base/src/budget.rs::CancelToken::cancel::Release",
//! ]
//!
//! [determinism]
//! roots = [
//!     "hqs-engine::arbitrate",
//! ]
//!
//! [callgraph]
//! min-resolution-percent = 90
//! ```
//!
//! Function entries are `<crate-name>::<symbol>` where `<symbol>`
//! matches the tracker's qualified fn name (`Type::fn` or a free
//! `fn`). Ordering entries are `<path>::<symbol>::<Variant>`; a
//! duplicate entry allows two sites of that variant in the same fn.

/// One declared hot (or cancel-entry) function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotFn {
    /// Package name (e.g. `hqs-sat`).
    pub crate_name: String,
    /// Qualified symbol within the crate (e.g. `Solver::propagate`).
    pub symbol: String,
}

/// The parsed hot-path declaration list.
#[derive(Clone, Debug, Default)]
pub struct HotPaths {
    /// All declared hot functions.
    pub functions: Vec<HotFn>,
}

/// One allowlisted `Ordering::` use site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrderingSite {
    /// Workspace-relative file path.
    pub path: String,
    /// Enclosing function (`Type::fn` or `fn`).
    pub symbol: String,
    /// The atomic ordering variant (`Relaxed`, `Acquire`, …).
    pub variant: String,
}

/// The whole parsed configuration file.
#[derive(Clone, Debug, Default)]
pub struct AnalyzeConfig {
    /// `[hot-paths] functions` — panic/alloc discipline seeds.
    pub hot: HotPaths,
    /// `[cancel-poll] functions` — solver-entry fns whose loops must
    /// poll cancellation.
    pub cancel: Vec<HotFn>,
    /// `[concurrency] ordering` — the committed `Ordering::` allowlist.
    pub ordering_allow: Vec<OrderingSite>,
    /// `[determinism] roots` — functions whose callee closure must be
    /// byte-reproducible (arbitration, batch writers, certificate
    /// emission).
    pub determinism_roots: Vec<HotFn>,
    /// `[callgraph] min-resolution-percent` — CI fails below this
    /// call-site resolution rate (0 disables the gate).
    pub min_resolution_percent: f64,
}

/// Parses the configuration. Malformed entries are returned as
/// warnings rather than silently dropped.
pub fn parse(text: &str) -> (AnalyzeConfig, Vec<String>) {
    let mut cfg = AnalyzeConfig::default();
    let mut warnings = Vec::new();
    let mut section = String::new();
    let mut array_key: Option<String> = None;
    for raw in text.lines() {
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if array_key.is_none() {
            if let Some(rest) = line.strip_prefix('[') {
                if let Some(name) = rest.strip_suffix(']') {
                    section = name.trim().to_string();
                }
                continue;
            }
        }
        if let Some(key) = &array_key {
            if line.starts_with(']') {
                array_key = None;
                continue;
            }
            let entry = line.trim_end_matches(',').trim().trim_matches('"');
            if !entry.is_empty() {
                record_entry(&mut cfg, &mut warnings, &section, key, entry);
            }
            continue;
        }
        let Some(eq) = line.find('=') else { continue };
        let key = line[..eq].trim().to_string();
        let value = line[eq + 1..].trim();
        if value.starts_with('[') {
            // Entries may follow on the same line (`functions = [ "a" ]`)
            // or on subsequent lines.
            let inline = value.trim_start_matches('[').trim_end_matches(']').trim();
            for entry in inline.split(',') {
                let entry = entry.trim().trim_matches('"');
                if !entry.is_empty() {
                    record_entry(&mut cfg, &mut warnings, &section, &key, entry);
                }
            }
            if !value.contains(']') {
                array_key = Some(key);
            }
            continue;
        }
        if section == "callgraph" && key == "min-resolution-percent" {
            match value.parse::<f64>() {
                Ok(v) => cfg.min_resolution_percent = v,
                Err(_) => warnings.push(format!("malformed min-resolution-percent `{value}`")),
            }
        }
    }
    (cfg, warnings)
}

fn record_entry(
    cfg: &mut AnalyzeConfig,
    warnings: &mut Vec<String>,
    section: &str,
    key: &str,
    entry: &str,
) {
    match (section, key) {
        ("hot-paths", "functions") => match parse_fn_entry(entry) {
            Some(f) => cfg.hot.functions.push(f),
            None => warnings.push(format!(
                "malformed hot-path entry `{entry}` (expected `crate::Type::fn` or `crate::fn`)"
            )),
        },
        ("cancel-poll", "functions") => match parse_fn_entry(entry) {
            Some(f) => cfg.cancel.push(f),
            None => warnings.push(format!(
                "malformed cancel-poll entry `{entry}` (expected `crate::Type::fn` or `crate::fn`)"
            )),
        },
        ("determinism", "roots") => match parse_fn_entry(entry) {
            Some(f) => cfg.determinism_roots.push(f),
            None => warnings.push(format!(
                "malformed determinism root `{entry}` (expected `crate::Type::fn` or `crate::fn`)"
            )),
        },
        ("concurrency", "ordering") => {
            // `<path>::<symbol>::<Variant>` — the path has no `::`, the
            // symbol may, so split the variant off the right and the
            // path off the left.
            let parsed = entry.split_once("::").and_then(|(path, rest)| {
                rest.rsplit_once("::")
                    .map(|(symbol, variant)| (path, symbol, variant))
            });
            match parsed {
                Some((path, symbol, variant))
                    if !path.is_empty() && !symbol.is_empty() && !variant.is_empty() =>
                {
                    cfg.ordering_allow.push(OrderingSite {
                        path: path.to_string(),
                        symbol: symbol.to_string(),
                        variant: variant.to_string(),
                    });
                }
                _ => warnings.push(format!(
                    "malformed ordering entry `{entry}` (expected `path::Type::fn::Variant`)"
                )),
            }
        }
        _ => warnings.push(format!("unknown config array `[{section}] {key}`")),
    }
}

fn parse_fn_entry(entry: &str) -> Option<HotFn> {
    match entry.split_once("::") {
        Some((crate_name, symbol)) if !crate_name.is_empty() && !symbol.is_empty() => Some(HotFn {
            crate_name: crate_name.to_string(),
            symbol: symbol.to_string(),
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries() {
        let (cfg, warnings) = parse(
            r#"
# Hot paths.
[hot-paths]
functions = [
    "hqs-sat::Solver::propagate",  # inner loop
    "hqs-aig::Aig::and",
    "hqs-proof::rup",
]
"#,
        );
        assert!(warnings.is_empty(), "{warnings:?}");
        let names: Vec<(&str, &str)> = cfg
            .hot
            .functions
            .iter()
            .map(|f| (f.crate_name.as_str(), f.symbol.as_str()))
            .collect();
        assert_eq!(
            names,
            [
                ("hqs-sat", "Solver::propagate"),
                ("hqs-aig", "Aig::and"),
                ("hqs-proof", "rup"),
            ]
        );
    }

    #[test]
    fn malformed_entry_warns() {
        let (cfg, warnings) = parse("[hot-paths]\nfunctions = [\n\"no-separator\",\n]\n");
        assert!(cfg.hot.functions.is_empty());
        assert_eq!(warnings.len(), 1);
    }

    #[test]
    fn parses_all_sections() {
        let (cfg, warnings) = parse(
            r#"
[hot-paths]
functions = [ "hqs-sat::Solver::propagate" ]

[cancel-poll]
functions = [
    "hqs-core::Solver::main_loop",  # elimination loop
]

[concurrency]
ordering = [
    "crates/base/src/budget.rs::CancelToken::cancel::Release",
    "crates/obs/src/registry.rs::MetricsRegistry::add::Relaxed",
]

[determinism]
roots = [
    "hqs-engine::arbitrate",
    "hqs-core::extract_skolem",
]

[callgraph]
min-resolution-percent = 90
"#,
        );
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(cfg.hot.functions.len(), 1);
        assert_eq!(cfg.cancel.len(), 1);
        assert_eq!(cfg.cancel[0].symbol, "Solver::main_loop");
        assert_eq!(cfg.determinism_roots.len(), 2);
        assert_eq!(cfg.determinism_roots[0].crate_name, "hqs-engine");
        assert_eq!(cfg.determinism_roots[1].symbol, "extract_skolem");
        assert_eq!(cfg.ordering_allow.len(), 2);
        assert_eq!(cfg.ordering_allow[0].path, "crates/base/src/budget.rs");
        assert_eq!(cfg.ordering_allow[0].symbol, "CancelToken::cancel");
        assert_eq!(cfg.ordering_allow[0].variant, "Release");
        // Exact comparison of a parsed literal.
        assert!((cfg.min_resolution_percent - 90.0).abs() < 1e-9);
    }

    #[test]
    fn malformed_ordering_and_scalar_warn() {
        let (cfg, warnings) = parse(
            "[concurrency]\nordering = [ \"nopath\" ]\n[callgraph]\nmin-resolution-percent = abc\n",
        );
        assert!(cfg.ordering_allow.is_empty());
        assert_eq!(warnings.len(), 2, "{warnings:?}");
    }
}
