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
//! * **panic-path** — no `unwrap`/`expect`/`panic!`/`unreachable!`/`[]`
//!   indexing in the functions declared hot in `analyze-hot-paths.toml`;
//! * **hot-alloc** — no per-iteration allocation inside the loops of
//!   those same functions;
//! * **newtype** — `Lit`/`Var` cross into raw integers only through the
//!   sanctioned helpers in `hqs-base`;
//! * **audit** — the PR-1 hygiene rules (`forbid(unsafe_code)`, crate
//!   docs, `todo!`-family bans, unwrap budgets), re-implemented on the
//!   lexer and run separately under `cargo run -p xtask -- audit`.
//!
//! On top of the per-function passes sits an interprocedural layer: a
//! name-resolution table ([`symbols`]) resolves `use` imports (including
//! grouped and `as`-renamed ones), free-function paths and receiver-type
//! method calls across the workspace, and [`callgraph`] assembles the
//! resulting edges into a workspace call graph with explicit
//! conservatism accounting (closures, `dyn` call sites, fn-pointer
//! types, glob imports). Several passes consume it:
//!
//! * **hot-transitive** — the panic/alloc denies above applied to the
//!   full callee closure of the hot seeds, with the seed-to-sink call
//!   chain in every diagnostic; implicit-panic sites (division,
//!   `split_at`, indexing) that the value-range layer proves safe are
//!   discharged before they become findings;
//! * **determinism** — nondeterministic inputs (`HashMap`/`HashSet`
//!   iteration order, `RandomState`, `Instant::now`/`SystemTime::now`,
//!   `thread::current`, `env::var`) are denied in the callee closure of
//!   the `[determinism]` roots, so solver verdicts, certificates and
//!   logs stay bit-identical across runs;
//! * **cancel-poll** — every loop in a declared solver-entry function
//!   must reach a cancellation poll in its body;
//! * **concurrency** — atomic `Ordering::` sites audited two-way
//!   against a committed allowlist, and no allocation or solver call
//!   while a `MutexGuard` is held in a hot-path function.
//!
//! Underneath the interprocedural passes sits a lattice-generic
//! [`dataflow`] engine (any [`dataflow::Domain`] solves on the
//! per-function CFGs): the bitset gen/kill domains from the
//! path-sensitive passes, an [`interval`] constant/range domain with
//! branch refinement and widening, and the bounds-predicate domain in
//! [`passes::value_range`] that turns the two into panic-freedom proofs
//! and hot-loop bounds-check advisories.
//!
//! Findings are [`diag::Diagnostic`]s, serialized with the built-in
//! [`json`] support and ratcheted against the committed
//! `analyze-baseline.json` via [`baseline`]: CI fails on any finding
//! the baseline doesn't cover *and* on any baseline entry that no
//! longer matches, so recorded debt can only shrink.
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
pub mod interval;
pub mod json;
pub mod lexer;
pub mod manifest;
pub mod passes;
pub mod source;
pub mod symbols;
pub mod workspace;

pub use diag::Diagnostic;
pub use workspace::Workspace;
