//! The analysis passes.
//!
//! Every pass has the same shape: walk the loaded [`Workspace`], emit
//! [`Diagnostic`]s. Passes never read files themselves — they work off
//! the lexed and scope-tracked [`crate::source::SourceFile`]s, which is
//! what makes them immune to the strings-and-comments false positives
//! that plagued line-based scanning.
//!
//! The interprocedural passes (`hot-transitive`, `determinism`,
//! `concurrency-*`, `lock-order`) additionally consume the workspace
//! [`CallGraph`], built once per run by [`analyze`].

pub mod cancel_poll;
pub mod concurrency;
pub mod determinism;
pub(crate) mod guards;
pub mod hot_transitive;
pub mod layering;
pub mod lock_order;
pub mod newtype;
pub mod source_audit;

use crate::callgraph::CallGraph;
use crate::config::{AnalyzeConfig, HotFn};
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// The diagnostics plus the call graph they were computed against —
/// the driver reads the graph's resolution stats for the floor,
/// `--summary` and `--bench`.
pub struct Analysis {
    /// All findings, sorted.
    pub diags: Vec<Diagnostic>,
    /// The workspace call graph.
    pub graph: CallGraph,
}

/// Runs every ratcheted pass: layering, newtype discipline, annotation
/// validation, hot-path discipline over the seeds' callee closure,
/// determinism taint, cancel-poll coverage, concurrency hygiene and
/// lock order.
/// The source-audit pass is *not* included — it keeps its own allowlist
/// and exit semantics under `cargo run -p xtask -- audit`.
#[must_use]
pub fn analyze(ws: &Workspace, cfg: &AnalyzeConfig) -> Analysis {
    let graph = CallGraph::build(ws);
    let mut diags = Vec::new();
    diags.extend(layering::run(ws));
    diags.extend(newtype::run(ws));
    diags.extend(annotations(ws));
    diags.extend(hot_transitive::run(ws, cfg, &graph));
    diags.extend(determinism::run(ws, cfg, &graph));
    diags.extend(cancel_poll::run(ws, cfg));
    diags.extend(concurrency::run(ws, cfg, &graph));
    diags.extend(lock_order::run(ws, &graph));
    // Two-way ratchet, second direction: every pass has now had its
    // chance to consult the allow annotations, so any allow whose
    // `used` flag is still clear suppresses nothing — report it.
    diags.extend(unused_allows(ws));
    diags.sort();
    Analysis { diags, graph }
}

/// [`analyze`] without the graph, for callers that only want findings.
#[must_use]
pub fn run_all(ws: &Workspace, cfg: &AnalyzeConfig) -> Vec<Diagnostic> {
    analyze(ws, cfg).diags
}

/// Stale `analyze::allow` annotations become findings: an allow that
/// no pass consulted while suppressing a real finding is a claim about
/// a hazard that no longer exists, and keeping it would quietly waive
/// the next genuine finding that lands on its lines. Must run after
/// every other pass (it reads the `used` flags they set).
fn unused_allows(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        for a in &file.allows {
            if a.used.get() {
                continue;
            }
            diags.push(Diagnostic {
                pass: "annotation".into(),
                path: file.path.clone(),
                line: a.line,
                symbol: String::new(),
                message: format!(
                    "stale `analyze::allow({})` annotation suppresses nothing — the code it \
                     waived is gone or was never flagged; delete it (reason given: \"{}\")",
                    a.kind, a.reason
                ),
            });
        }
    }
    diags
}

/// Malformed `analyze::allow` annotations become findings themselves —
/// a suppression that silently fails to parse would otherwise *look*
/// like an active waiver.
fn annotations(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        for (line, message) in &file.bad_allows {
            diags.push(Diagnostic {
                pass: "annotation".into(),
                path: file.path.clone(),
                line: *line,
                symbol: String::new(),
                message: message.clone(),
            });
        }
    }
    diags
}

/// The names of the passes `analyze` executes, for `--summary` output
/// and `--explain`.
pub const PASS_NAMES: &[&str] = &[
    "layering",
    "newtype",
    "annotation",
    "hot-transitive",
    "determinism",
    "cancel-poll",
    "concurrency-ordering",
    "concurrency-lock",
    "lock-order",
];

/// Resolves the entries of the `analyze-hot-paths.toml` section
/// `section` to call-graph definitions. Each entry that matches no
/// function becomes an [`unmatched_entry`] finding of `pass`: a renamed
/// seed would otherwise switch its check off without a word.
pub(crate) fn resolve_entries(
    graph: &CallGraph,
    entries: &[HotFn],
    pass: &str,
    section: &str,
    diags: &mut Vec<Diagnostic>,
) -> Vec<usize> {
    let mut ids = Vec::new();
    for entry in entries {
        let found = graph.seed_ids(&entry.crate_name, &entry.symbol);
        if found.is_empty() {
            diags.push(unmatched_entry(pass, section, entry));
        }
        ids.extend(found);
    }
    ids
}

/// The finding for an entry of the `analyze-hot-paths.toml` section
/// `section` that matches no function in the workspace.
pub(crate) fn unmatched_entry(pass: &str, section: &str, entry: &HotFn) -> Diagnostic {
    let name = format!("{}::{}", entry.crate_name, entry.symbol);
    Diagnostic {
        pass: pass.into(),
        path: "analyze-hot-paths.toml".into(),
        line: 0,
        message: format!("{section} entry `{name}` matches no function in the workspace"),
        symbol: name,
    }
}

/// Is the file exempt test-adjacent code by location (integration
/// tests, benches, examples)?
#[must_use]
pub fn is_test_path(path: &str) -> bool {
    let in_dir =
        |dir: &str| path.starts_with(&format!("{dir}/")) || path.contains(&format!("/{dir}/"));
    in_dir("tests") || in_dir("benches") || in_dir("examples")
}

/// Indices of the file's non-trivia tokens, in order. All sequence
/// matching in the passes runs over this view so comments never split a
/// pattern.
#[must_use]
pub fn code_indices(file: &SourceFile) -> Vec<usize> {
    file.tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_trivia())
        .map(|(i, _)| i)
        .collect()
}

/// Text of the code token at view position `k`, or `""` past the end.
#[must_use]
pub fn text_at<'a>(file: &'a SourceFile, code: &[usize], k: usize) -> &'a str {
    code.get(k).map_or("", |&i| file.tokens[i].text(&file.text))
}

/// The panic-shaped construct at view position `k`, if any, for
/// `hot-transitive`. Returns the finding message.
#[must_use]
pub(crate) fn panic_finding(file: &SourceFile, code: &[usize], k: usize) -> Option<String> {
    let i = *code.get(k)?;
    let tok = &file.tokens[i];
    let text = file.text_of(tok);
    match (tok.kind, text) {
        (TokenKind::Ident, "unwrap" | "expect")
            if k > 0 && text_at(file, code, k - 1) == "." && text_at(file, code, k + 1) == "(" =>
        {
            Some(format!(
                "`.{text}(…)` in hot path — use `get`/`match`, or justify with \
                 `// analyze::allow(panic): …`"
            ))
        }
        (TokenKind::Ident, "panic" | "unreachable") if text_at(file, code, k + 1) == "!" => {
            Some(format!(
                "`{text}!` in hot path — return an error or make the state unrepresentable, \
                 or justify with `// analyze::allow(panic): …`"
            ))
        }
        (TokenKind::Punct, "[") if k > 0 && is_index_base(file, code, k - 1) => Some(
            "`[…]` indexing in hot path — use `get`, or justify with \
             `// analyze::allow(panic): …`"
                .to_string(),
        ),
        _ => None,
    }
}

/// The allocation-shaped construct at view position `k`, if any, for
/// `hot-transitive`. The caller decides the loop-depth requirement.
#[must_use]
pub(crate) fn alloc_finding(file: &SourceFile, code: &[usize], k: usize) -> Option<String> {
    let i = *code.get(k)?;
    let tok = &file.tokens[i];
    if tok.kind != TokenKind::Ident {
        return None;
    }
    let text = file.text_of(tok);
    let next = text_at(file, code, k + 1);
    let prev = if k > 0 {
        text_at(file, code, k - 1)
    } else {
        ""
    };
    match text {
        "Vec" | "Box" | "String"
            if next == ":"
                && text_at(file, code, k + 2) == ":"
                && matches!(text_at(file, code, k + 3), "new" | "with_capacity") =>
        {
            Some(format!(
                "`{text}::{}` allocates inside a hot loop — hoist to a reused scratch buffer",
                text_at(file, code, k + 3)
            ))
        }
        "clone" | "to_vec" | "collect" | "to_owned" if prev == "." && matches!(next, "(" | ":") => {
            Some(format!(
                "`.{text}()` allocates inside a hot loop — reuse a scratch buffer or borrow"
            ))
        }
        "format" | "vec" if next == "!" => Some(format!(
            "`{text}!` allocates inside a hot loop — hoist or pre-size outside the loop"
        )),
        _ => None,
    }
}

/// The *implicit* panic-shaped construct at view position `k`, if any:
/// operations that panic without any panic vocabulary at the site.
/// Complements [`panic_finding`] (which already covers `[…]` slice
/// indexing) for the `hot-transitive` pass:
///
/// * `.split_at(…)` / `.split_at_mut(…)` — panic when the index is past
///   the end;
/// * `.copy_from_slice(…)` / `.clone_from_slice(…)` — panic on length
///   mismatch (the "slice pattern with a length precondition" idiom);
/// * `/` and `%` with a non-literal right operand — divide-by-zero
///   panics on integers; a literal divisor is visibly nonzero, an
///   expression divisor is not.
///
/// The caller decides reachability; sites are silenced with
/// `// analyze::allow(panic): …` like every other panic shape.
#[must_use]
pub(crate) fn implicit_panic_finding(
    file: &SourceFile,
    code: &[usize],
    k: usize,
) -> Option<String> {
    let i = *code.get(k)?;
    let tok = &file.tokens[i];
    let text = file.text_of(tok);
    match (tok.kind, text) {
        (
            TokenKind::Ident,
            "split_at" | "split_at_mut" | "copy_from_slice" | "clone_from_slice",
        ) if k > 0 && text_at(file, code, k - 1) == "." && text_at(file, code, k + 1) == "(" => {
            Some(format!(
                "`.{text}(…)` panics when its length precondition fails — use \
                 `split_at_checked`/`get`, or justify with `// analyze::allow(panic): …`"
            ))
        }
        (TokenKind::Punct, "/" | "%")
            if k > 0
                && (is_index_base(file, code, k - 1)
                    || matches!(
                        file.tokens[code[k - 1]].kind,
                        TokenKind::Int | TokenKind::Float
                    )) =>
        {
            // Only divisions, never `&/&&` patterns: the previous token
            // must be an expression end and the next must not be a
            // literal. `x / 2` is visibly safe; `x / shards.len()` is a
            // potential divide-by-zero.
            let next_is_literal = code
                .get(k + 1)
                .is_some_and(|&j| matches!(file.tokens[j].kind, TokenKind::Int | TokenKind::Float));
            // `/=` `%=` compound assignment has the same hazard; skip
            // the `=` when peeking at the operand.
            let operand_pos = if text_at(file, code, k + 1) == "=" {
                k + 2
            } else {
                k + 1
            };
            let operand_is_literal = code
                .get(operand_pos)
                .is_some_and(|&j| matches!(file.tokens[j].kind, TokenKind::Int | TokenKind::Float));
            if next_is_literal || operand_is_literal {
                None
            } else {
                Some(format!(
                    "`{text}` by a non-literal divisor panics when the divisor is zero — use \
                     `checked_{}`, or justify with `// analyze::allow(panic): …`",
                    if text == "/" { "div" } else { "rem" }
                ))
            }
        }
        _ => None,
    }
}

/// Is the code token at view position `k` something a `[` after it
/// would index? (An identifier, a closing paren/bracket — i.e. an
/// expression — rather than the start of an array literal, slice type
/// or attribute.)
pub(crate) fn is_index_base(file: &SourceFile, code: &[usize], k: usize) -> bool {
    let Some(&i) = code.get(k) else { return false };
    let tok = &file.tokens[i];
    match tok.kind {
        TokenKind::Ident => {
            // `let x = [0; 4]` etc. start after keywords, not expressions.
            !matches!(
                file.text_of(tok),
                "mut" | "let" | "in" | "return" | "if" | "else" | "match" | "ref" | "box" | "as"
            )
        }
        TokenKind::Punct => matches!(file.text_of(tok), ")" | "]"),
        _ => false,
    }
}
