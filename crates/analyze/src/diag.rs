//! Diagnostics: the unit of output shared by every pass.

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
