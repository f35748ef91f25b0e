//! The ratchet baseline: the committed set of known findings that CI
//! allows only to shrink.
//!
//! Entries are keyed on `(pass, path, symbol, message)` with a count —
//! deliberately *not* on line numbers, so unrelated edits that shift
//! code down a file don't invalidate the baseline. The check is
//! two-way, matching the audit allowlist's burn-down semantics:
//!
//! * a finding not covered by the baseline (or exceeding its count)
//!   **fails** — no new debt;
//! * a baseline entry no longer matched in full also **fails** — fixed
//!   debt must be deleted from the baseline so it can never silently
//!   come back.

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::json::{self, Json};

/// Aggregation key for baseline entries.
pub type Key = (String, String, String, String);

/// The parsed baseline: finding key → allowed count.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// Allowed findings and how many of each.
    pub entries: BTreeMap<Key, u32>,
}

fn key_of(d: &Diagnostic) -> Key {
    (
        d.pass.clone(),
        d.path.clone(),
        d.symbol.clone(),
        d.message.clone(),
    )
}

/// Aggregates diagnostics into baseline counts.
#[must_use]
pub fn aggregate(diags: &[Diagnostic]) -> BTreeMap<Key, u32> {
    let mut counts: BTreeMap<Key, u32> = BTreeMap::new();
    for d in diags {
        *counts.entry(key_of(d)).or_insert(0) += 1;
    }
    counts
}

/// The outcome of checking current findings against the baseline.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Findings over budget: human-readable lines describing each.
    pub regressions: Vec<String>,
    /// Baseline entries now unmatched (stale debt to burn down).
    pub stale: Vec<String>,
}

impl CheckReport {
    /// Did the check pass?
    #[must_use]
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.stale.is_empty()
    }
}

impl Baseline {
    /// Compares `diags` against the baseline; see the module docs for
    /// the two-way semantics.
    #[must_use]
    pub fn check(&self, diags: &[Diagnostic]) -> CheckReport {
        let current = aggregate(diags);
        let mut report = CheckReport::default();
        for (key, &count) in &current {
            let allowed = self.entries.get(key).copied().unwrap_or(0);
            if count > allowed {
                let (pass, path, symbol, message) = key;
                let lines: Vec<String> = diags
                    .iter()
                    .filter(|d| &key_of(d) == key)
                    .map(|d| d.line.to_string())
                    .collect();
                report.regressions.push(format!(
                    "[{pass}] {path}:{} {sym}{message} ({count} found, {allowed} allowed by baseline)",
                    lines.join(","),
                    sym = if symbol.is_empty() {
                        String::new()
                    } else {
                        format!("({symbol}) ")
                    },
                ));
            }
        }
        for (key, &allowed) in &self.entries {
            let count = current.get(key).copied().unwrap_or(0);
            if count < allowed {
                let (pass, path, symbol, message) = key;
                report.stale.push(format!(
                    "[{pass}] {path} {sym}{message}: baseline allows {allowed} but only {count} remain — shrink the baseline (run `cargo run -p xtask -- analyze --write-baseline`)",
                    sym = if symbol.is_empty() {
                        String::new()
                    } else {
                        format!("({symbol}) ")
                    },
                ));
            }
        }
        report
    }

    /// Serializes the baseline deterministically.
    #[must_use]
    pub fn emit(&self) -> String {
        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|((pass, path, symbol, message), count)| {
                Json::Object(vec![
                    ("pass".into(), Json::String(pass.clone())),
                    ("path".into(), Json::String(path.clone())),
                    ("symbol".into(), Json::String(symbol.clone())),
                    ("message".into(), Json::String(message.clone())),
                    ("count".into(), Json::Number(f64::from(*count))),
                ])
            })
            .collect();
        json::emit_pretty(&Json::Object(vec![(
            "entries".into(),
            Json::Array(entries),
        )]))
    }

    /// Builds a baseline covering exactly `diags`.
    #[must_use]
    pub fn from_diags(diags: &[Diagnostic]) -> Self {
        Baseline {
            entries: aggregate(diags),
        }
    }

    /// Parses a baseline file.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let entries_json = v
            .get("entries")
            .and_then(Json::as_array)
            .ok_or("baseline missing `entries` array")?;
        let mut entries = BTreeMap::new();
        for e in entries_json {
            let get = |k: &str| -> Result<String, String> {
                e.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("baseline entry missing `{k}`"))
            };
            let count = e
                .get("count")
                .and_then(Json::as_number)
                .ok_or("baseline entry missing `count`")?;
            // JSON numbers are f64; counts fit losslessly.
            let count = count as u32;
            entries.insert(
                (get("pass")?, get("path")?, get("symbol")?, get("message")?),
                count,
            );
        }
        Ok(Baseline { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(pass: &str, path: &str, line: u32, msg: &str) -> Diagnostic {
        Diagnostic {
            pass: pass.into(),
            path: path.into(),
            line,
            symbol: String::new(),
            message: msg.into(),
        }
    }

    #[test]
    fn empty_baseline_rejects_any_finding() {
        let b = Baseline::default();
        let report = b.check(&[d("hot-transitive", "a.rs", 1, "unwrap")]);
        assert_eq!(report.regressions.len(), 1);
        assert!(report.stale.is_empty());
        assert!(!report.ok());
    }

    #[test]
    fn exact_match_passes() {
        let diags = [
            d("hot-transitive", "a.rs", 1, "unwrap"),
            d("hot-transitive", "a.rs", 9, "unwrap"),
        ];
        let b = Baseline::from_diags(&diags);
        assert!(b.check(&diags).ok());
        // Line drift does not matter.
        let drifted = [
            d("hot-transitive", "a.rs", 5, "unwrap"),
            d("hot-transitive", "a.rs", 90, "unwrap"),
        ];
        assert!(b.check(&drifted).ok());
    }

    #[test]
    fn growth_fails_and_shrink_requires_baseline_update() {
        let b = Baseline::from_diags(&[d("x", "a.rs", 1, "m"), d("x", "a.rs", 2, "m")]);
        // Growth.
        let grown = [
            d("x", "a.rs", 1, "m"),
            d("x", "a.rs", 2, "m"),
            d("x", "a.rs", 3, "m"),
        ];
        assert_eq!(b.check(&grown).regressions.len(), 1);
        // Shrink without baseline update = stale entry.
        let shrunk = [d("x", "a.rs", 1, "m")];
        let report = b.check(&shrunk);
        assert!(report.regressions.is_empty());
        assert_eq!(report.stale.len(), 1);
        assert!(!report.ok());
    }

    #[test]
    fn baseline_round_trip() {
        let b = Baseline::from_diags(&[
            d("x", "a.rs", 1, "m1"),
            d("x", "a.rs", 2, "m1"),
            d("y", "b.rs", 3, "m2"),
        ]);
        let text = b.emit();
        let back = Baseline::parse(&text).expect("parse");
        assert_eq!(b.entries, back.entries);
    }
}
