//! Diagnostics: the unit of output shared by every pass, with JSON
//! round-tripping used by both the report artifact and the baseline.

use crate::json::{self, Json};

/// One finding from one pass.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Which pass produced it: one of
    /// [`PASS_NAMES`](crate::passes::PASS_NAMES), or `audit`.
    pub pass: String,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The enclosing symbol (`Type::fn`, fn name, or crate name for
    /// manifest-level findings); may be empty.
    pub symbol: String,
    /// Human-readable description. Stable across line drift — the
    /// baseline keys on it.
    pub message: String,
}

impl Diagnostic {
    /// Serializes to a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("pass".into(), Json::String(self.pass.clone())),
            ("path".into(), Json::String(self.path.clone())),
            ("line".into(), Json::Number(f64::from(self.line))),
            ("symbol".into(), Json::String(self.symbol.clone())),
            ("message".into(), Json::String(self.message.clone())),
        ])
    }

    /// Deserializes from a JSON object produced by [`Self::to_json`].
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let obj = v.as_object().ok_or("diagnostic is not an object")?;
        let get_str = |key: &str| -> Result<String, String> {
            obj.iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("diagnostic missing string field `{key}`"))
        };
        let line = obj
            .iter()
            .find(|(k, _)| k == "line")
            .and_then(|(_, v)| v.as_number())
            .ok_or("diagnostic missing number field `line`")?;
        Ok(Diagnostic {
            pass: get_str("pass")?,
            path: get_str("path")?,
            // JSON numbers are f64; line numbers fit losslessly.
            line: line as u32,
            symbol: get_str("symbol")?,
            message: get_str("message")?,
        })
    }
}

/// Serializes a diagnostic slice as a JSON array (pretty-printed,
/// deterministic ordering is the caller's responsibility).
#[must_use]
pub fn to_json_array(diags: &[Diagnostic]) -> String {
    let arr = Json::Array(diags.iter().map(Diagnostic::to_json).collect());
    json::emit_pretty(&arr)
}

/// Parses a JSON array of diagnostics.
pub fn from_json_array(text: &str) -> Result<Vec<Diagnostic>, String> {
    let v = json::parse(text)?;
    let arr = v.as_array().ok_or("expected a JSON array of diagnostics")?;
    arr.iter().map(Diagnostic::from_json).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let diags = vec![
            Diagnostic {
                pass: "hot-transitive".into(),
                path: "crates/sat/src/solver.rs".into(),
                line: 42,
                symbol: "Solver::propagate".into(),
                message: "`.unwrap()` in hot-path fn".into(),
            },
            Diagnostic {
                pass: "newtype".into(),
                path: "crates/core/src/elim.rs".into(),
                line: 7,
                symbol: String::new(),
                message: "raw `as u32` cast on Var with \"quotes\" and \\ backslash".into(),
            },
        ];
        let text = to_json_array(&diags);
        let back = from_json_array(&text).expect("parse back");
        assert_eq!(diags, back);
    }

    #[test]
    fn empty_array() {
        assert_eq!(from_json_array("[]").expect("empty"), vec![]);
        assert_eq!(from_json_array(&to_json_array(&[])).expect("rt"), vec![]);
    }
}
