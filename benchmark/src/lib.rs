//! The HQS benchmark: one harness that measures the solver stack end to
//! end and layer by layer, on workloads whose runs take seconds.
//!
//! The `benchmark` binary runs one of three workloads, checks every
//! verdict against the committed oracle (`expected/verdicts.tsv`) and
//! prints every metric by name with its unit. Its last stdout line is
//! one JSON object, `{"correct","attempted","failed","metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload table1-ci --seed 0 --seconds 20 --trace 0
//! ```
//!
//! # Workloads
//!
//! Every workload solves one job at a time on one thread.
//!
//! | name | what | why |
//! |---|---|---|
//! | `table1-ci` | the paper's Table I corpus at `Scale::Ci` (182 instances) | `elim-universal` on the seven C432 memouts dominates (~78 %); localisation and AIG-growth work shows here |
//! | `pec-graded` | 60 larger PEC instances | `qbf-finish` dominates; QBF-backend work shows here |
//! | `certify` | solve, extract and check a certificate for the 87 `table1-ci` instances with at most 11 universals | expansion SAT calls and the proof checker dominate |
//!
//! The instance corpora are fixed; the seed chooses the job order.
//! Seeding the instance generators or renaming variables instead changes
//! the solver's cost by up to 2.6× and turns solved instances into
//! memouts, which no bound on a regression could absorb (see
//! `BENCHMARK.md`).
//!
//! # Metrics
//!
//! End to end (untraced runs, [`metrics::END_TO_END`]): set-up time,
//! wall time, solved count, per-job latency median and tail. Each job is
//! timed by its median over the run's passes (the expected memouts run
//! once, untimed, as Table I times solved instances only), each pass's
//! times scaled to the reference
//! machine's usual speed by a probe timed between its jobs (see
//! `probe.rs`), and the percentiles are Harrell–Davis estimates,
//! which a gap between two jobs' latencies does not make jump. Peak
//! resident memory is printed but not tracked: runs of one seed differ
//! by up to 40 %. Per layer (traced runs, [`metrics::PER_LAYER`]):
//! self-time of each solver phase read from the `hqs-obs` phase tree,
//! solver counters, bench-side spans around the public calls (parse,
//! certificate extraction and checking), and the trace's coverage and
//! overhead.
//!
//! Layers are measured only from outside: the benchmark adds no
//! instrumentation to the solver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod corpus;
pub mod metrics;
pub mod oracle;
mod probe;
pub mod workloads;
