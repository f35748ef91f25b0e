//! `hqs-analyze`: the workspace's token-level static-analysis
//! framework.
//!
//! The crate is deliberately dependency-free: a hand-rolled Rust
//! [`lexer`], an item/brace tracker ([`source`]) that attributes every
//! token to its crate, module path, enclosing function and loop depth,
//! and a set of [`passes`] over the lexed workspace:
//!
//! * **layering** — the crate DAG (`base → cnf → {sat, proof} →
//!   {maxsat, aig} → qbf → core → apps`) is enforced at both the
//!   manifest and the source level, including dev-dependency scoping
//!   and reach-through into other crates' private modules;
//! * **newtype** — `Lit`/`Var` cross into raw integers only through the
//!   sanctioned helpers in `hqs-base`;
//! * **audit** — the PR-1 hygiene rules (`forbid(unsafe_code)`, crate
//!   docs, `todo!`-family bans, unwrap budgets), re-implemented on the
//!   lexer and run separately under `cargo run -p xtask -- audit`.
//!
//! On top of these per-file passes sits an interprocedural layer: a
//! name-resolution table ([`symbols`]) resolves `use` imports (including
//! grouped and `as`-renamed ones), free-function paths and receiver-type
//! method calls across the workspace, and [`callgraph`] assembles the
//! resulting edges into a workspace call graph that counts how
//! precisely each call site resolved. Several passes consume it:
//!
//! * **hot-transitive** — no `unwrap`/`expect`/`panic!`/`unreachable!`/
//!   `[]` indexing, and no per-iteration allocation inside loops, in the
//!   functions declared hot in `analyze-hot-paths.toml` and their full
//!   callee closure, with the seed-to-sink call chain in every
//!   diagnostic — plus implicit panics (`/` and `%` by a non-literal,
//!   `split_at`, `copy_from_slice`), guarded or not;
//! * **determinism** — nondeterministic inputs (`HashMap`/`HashSet`
//!   iteration order, `RandomState`, `Instant::now`/`SystemTime::now`,
//!   `thread::current`, `env::var`) are denied in the callee closure of
//!   the `[determinism]` roots, so solver verdicts, certificates and
//!   logs stay bit-identical across runs;
//! * **cancel-poll** — every loop in a declared solver-entry function
//!   must reach a cancellation poll in its body;
//! * **concurrency** — atomic `Ordering::` sites audited two-way
//!   against a committed allowlist, and no allocation or solver call
//!   while a `MutexGuard` is held in a hot-path function;
//! * **lock-order** — the locks acquired while another guard is held
//!   must form an acyclic order.
//!
//! The path-sensitive passes run on per-function [CFGs](mod@cfg): cancel-poll
//! searches them for unpolled iteration paths, and the guard liveness
//! behind concurrency-lock and lock-order is a gen/kill bitset
//! [`dataflow`] over them.
//!
//! Findings are [`diag::Diagnostic`]s, ratcheted against the committed
//! `analyze-baseline.json` (kept with the built-in [`json`] support)
//! via [`baseline`]: CI fails on any finding the baseline doesn't cover
//! *and* on any baseline entry that no longer matches, so recorded debt
//! can only shrink.
//!
//! Justified exceptions are written at the site as
//! `// analyze::allow(panic|alloc|newtype|cancel|lock|determinism):
//! <reason>` — annotations with a missing reason or unknown kind are
//! findings themselves.
//!
//! The driver lives in `xtask` (`cargo run -p xtask -- analyze`); this
//! crate is pure library so the passes stay unit-testable against the
//! fixture corpus in `crates/analyze/fixtures/`.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod callgraph;
pub mod cfg;
pub mod config;
pub mod dataflow;
pub mod diag;
pub mod json;
pub mod lexer;
pub mod manifest;
pub mod passes;
pub mod source;
pub mod symbols;
pub mod workspace;

pub use diag::Diagnostic;
pub use workspace::Workspace;
