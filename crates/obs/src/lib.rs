//! Structured observability for the HQS solver stack.
//!
//! The paper's evaluation hinges on *per-phase* behaviour — how many
//! universals the MaxSAT step chooses to eliminate, how large the AIG
//! grows per elimination, how long preprocessing takes compared to the
//! QBF finish — yet a solver verdict alone exposes none of it. This
//! crate provides the event model, the storage, and the exporters for
//! exactly those measurements, built from `std` only and depending only
//! on `hqs-base`.
//!
//! # Event model
//!
//! Three kinds of events cover everything the solver stack emits:
//!
//! * **Counters** — monotone sums (`sat_conflicts`, `maxsat_calls`,
//!   `universal_elims`, …), see [`Metric`].
//! * **Gauges** — high-water marks (`aig_peak_nodes`, `elim_set_size`),
//!   merged by maximum.
//! * **Spans** — hierarchical phase intervals
//!   (`total → preprocess → …  → qbf-finish`), see [`Phase`], carrying
//!   both monotonic duration and a wall-clock epoch so traces align with
//!   external logs.
//!
//! # Zero cost when disabled
//!
//! Every solver component holds an [`Obs`] handle. A disabled handle
//! (`Obs::default()` / [`Obs::disabled`]) is a `None` — each emit call
//! is a branch on an `Option`, with **no allocation, no atomics, no
//! clock reads**. The emit functions are registered in the
//! `analyze-hot-paths.toml` ratchet, so instrumentation can never grow
//! an allocation or panic path without failing CI.
//!
//! # Recording and exporting
//!
//! [`MetricsObserver`] is the standard [`Observer`]: counters and gauges
//! land in a [`MetricsRegistry`] (sharded atomics, wait-free for
//! practical purposes), spans in a mutex-guarded log (phase boundaries
//! only, never inner loops). A finished solve is summarised through
//! [`MetricsSnapshot`]:
//!
//! * [`MetricsSnapshot::render_summary`] — a human table plus the phase
//!   tree with self-times;
//! * [`MetricsSnapshot::to_json`] — a stable machine schema
//!   (`"hqs-metrics/4"`);
//! * [`MetricsSnapshot::to_chrome_trace`] — Chrome trace-event JSON
//!   loadable by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
//!
//! # Examples
//!
//! ```
//! use hqs_obs::{Metric, MetricsObserver, Obs, Phase};
//! use std::sync::Arc;
//!
//! let observer = Arc::new(MetricsObserver::new());
//! let obs = Obs::attached(observer.clone());
//! {
//!     let _solve = obs.span(Phase::Total);
//!     obs.add(Metric::SatConflicts, 42);
//!     obs.gauge_max(Metric::AigPeakNodes, 1000);
//! }
//! let snapshot = observer.snapshot();
//! assert_eq!(snapshot.counter(Metric::SatConflicts), 42);
//! assert!(snapshot.to_json().starts_with("{\"schema\":\"hqs-metrics/4\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod metric;
mod observer;
mod registry;

pub use export::looks_like_valid_export;
pub use metric::{Metric, MetricKind, Phase};
pub use observer::{NoopObserver, Obs, Observer, SpanGuard};
pub use registry::{
    MetricsObserver, MetricsRegistry, MetricsSnapshot, PhaseNode, SpanRecord, SCHEMA_VERSION,
};
