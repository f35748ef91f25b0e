//! `hqs-serve` — the long-lived HQS solver service.
//!
//! A one-shot `hqs <file>` invocation pays the whole pipeline — parse,
//! preprocess, build the AIG, sweep, solve — for every instance, then
//! throws the state away. Serving workloads (PEC sweeps over circuit
//! families, CEGIS-style refinement loops, IDE integrations) solve
//! *streams* of closely related formulas, where most of that work
//! repeats. This crate keeps a solver process alive and reuses warm
//! state across requests:
//!
//! * a shared [`WarmCache`](hqs_core::WarmCache) (preprocessing results
//!   keyed by the canonical formula hash + FRAIG-reduced cones keyed by
//!   their canonical cone encoding), attached to every session;
//! * a verdict cache short-circuiting formulas the server has already
//!   decided under the same configuration;
//! * a persistent worker pool fed by a bounded FIFO request queue with
//!   explicit `overloaded` backpressure.
//!
//! Each request is solved by [`hqs_engine::solve_job`], the per-job
//! solve that batch and portfolio share, so certification behaves the
//! same at every entry point.
//!
//! ## Wire protocol
//!
//! One JSON object per line in, one per line out (the batch JSONL
//! record schema plus `id`, `exit_code` and `cached`); see
//! [`proto`] for the request grammar and DESIGN.md §16 for the full
//! specification. Exit codes follow the (Q)DIMACS convention the CLI
//! already uses: 10 SAT, 20 UNSAT, 30 budget-limited.
//!
//! ```text
//! → {"id":"a","dqdimacs":"p cnf 1 2\n1 0\n-1 0\n"}
//! ← {"id":"a","exit_code":20,"cached":false,"index":0,...,"outcome":"UNSAT",...}
//! → {"cmd":"stats"}
//! ← {"id":"stats","stats":{"uptime_s":0.012,"in_flight":0,...}}
//! → {"cmd":"shutdown"}
//! ← {"id":"shutdown","ok":true,"drained":true,"hard":false}
//! ```
//!
//! ## Entry points
//!
//! [`run_stdio`] / [`run_socket`] are the CLI transports;
//! [`Server`] is the embeddable core (start a pool, feed it lines,
//! drain it) that the integration tests drive in-process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;
mod server;

#[cfg(unix)]
mod io;

pub use proto::{parse_request, Request, SolveRequest};
pub use server::{Control, ResponseSink, ServeOptions, ServeStats, Server};

#[cfg(unix)]
pub use io::{run_socket, run_stdio};
