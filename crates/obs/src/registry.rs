//! The sharded metrics registry and the standard recording observer.

use crate::metric::{Metric, MetricKind, Phase};
use crate::observer::Observer;
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// The schema identifier stamped into every metrics JSON export.
///
/// The promise: within one schema version, the set of top-level keys,
/// the set of counter/gauge names and the span-object shape never
/// change; any addition or removal bumps the version. `hqs-metrics/2`
/// dropped the five warm-cache counters of `/1`; `hqs-metrics/3`
/// dropped the subsumption and certified-SAT-call counters of `/2`;
/// `hqs-metrics/4` dropped the two SAT-sweeping counters of `/3`.
pub const SCHEMA_VERSION: &str = "hqs-metrics/4";

/// Number of shards; a power of two so the pick is a mask.
const SHARDS: usize = 8;

thread_local! {
    /// Cached shard index of the current thread (`usize::MAX` = unset).
    static SHARD_PICK: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// One shard: a flat counter and gauge slot per metric.
struct Shard {
    counters: Vec<AtomicU64>,
    gauges: Vec<AtomicU64>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            counters: (0..Metric::COUNT).map(|_| AtomicU64::new(0)).collect(),
            gauges: (0..Metric::COUNT).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// A thread-safe store of counters and gauges.
///
/// Writes go to one of eight shards picked per thread, so
/// concurrent workers (the portfolio race, the batch scheduler) do not
/// contend on a cache line; reads ([`MetricsRegistry::counter`],
/// snapshots) sum or max over the shards. All operations are relaxed
/// atomics — metrics tolerate reordering, they only have to add up.
pub struct MetricsRegistry {
    shards: Vec<Shard>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// The shard the current thread writes to.
fn shard_pick() -> usize {
    SHARD_PICK.with(|pick| {
        let cached = pick.get();
        if cached != usize::MAX {
            return cached;
        }
        let mut hasher = DefaultHasher::new();
        // analyze::allow(determinism): shard choice only spreads contention — counters are summed over all shards at snapshot
        std::thread::current().id().hash(&mut hasher);
        let fresh = (hasher.finish() as usize) & (SHARDS - 1);
        pick.set(fresh);
        fresh
    })
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
        }
    }

    /// Adds `delta` to a counter. Allocation- and panic-free (hot-path
    /// ratcheted): a relaxed `fetch_add` on the calling thread's shard.
    #[inline]
    pub fn add(&self, metric: Metric, delta: u64) {
        if let Some(shard) = self.shards.get(shard_pick()) {
            if let Some(slot) = shard.counters.get(metric.index()) {
                slot.fetch_add(delta, Ordering::Relaxed);
            }
        }
    }

    /// Raises a gauge to at least `value`. Allocation- and panic-free
    /// (hot-path ratcheted): a relaxed `fetch_max` on the calling
    /// thread's shard.
    #[inline]
    pub fn gauge_max(&self, metric: Metric, value: u64) {
        if let Some(shard) = self.shards.get(shard_pick()) {
            if let Some(slot) = shard.gauges.get(metric.index()) {
                slot.fetch_max(value, Ordering::Relaxed);
            }
        }
    }

    /// The current value of `metric`, summed (counters) or maxed
    /// (gauges) over all shards.
    #[must_use]
    pub fn counter(&self, metric: Metric) -> u64 {
        let index = metric.index();
        match metric.kind() {
            MetricKind::Counter => self
                .shards
                .iter()
                .filter_map(|s| s.counters.get(index))
                .map(|slot| slot.load(Ordering::Relaxed))
                .sum(),
            MetricKind::Gauge => self
                .shards
                .iter()
                .filter_map(|s| s.gauges.get(index))
                .map(|slot| slot.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
        }
    }

    /// Every metric with its current value, in schema order
    /// ([`Metric::ALL`]).
    #[must_use]
    pub fn values(&self) -> Vec<(Metric, u64)> {
        Metric::ALL.iter().map(|&m| (m, self.counter(m))).collect()
    }

    /// The counters and gauges as a snapshot. A registry records no span
    /// and has no epoch, so the snapshot's spans are empty and its
    /// `epoch_unix_ns` is 0.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            epoch_unix_ns: 0,
            values: self.values(),
            spans: Vec::new(),
        }
    }
}

/// A registry is an observer that keeps counters and gauges and drops
/// spans (the trait's no-op default): the sink for a caller that renders
/// no trace, without [`MetricsObserver`]'s span lock.
impl Observer for MetricsRegistry {
    fn counter_add(&self, metric: Metric, delta: u64) {
        self.add(metric, delta);
    }

    fn gauge_max(&self, metric: Metric, value: u64) {
        MetricsRegistry::gauge_max(self, metric, value);
    }
}

/// One recorded phase span, in nanoseconds relative to the observer's
/// epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The phase the span measures.
    pub phase: Phase,
    /// Start offset from the observer's epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration, in nanoseconds.
    pub dur_ns: u64,
    /// Stable per-thread identifier.
    pub tid: u64,
    /// Span-nesting depth on that thread (0 = outermost).
    pub depth: u32,
}

/// The standard [`Observer`]: counters and gauges in a
/// [`MetricsRegistry`], spans in a mutex-guarded log.
///
/// Span recording takes a lock, which is fine because spans are emitted
/// at *phase boundaries* (a few hundred per solve), never inside hot
/// loops — the hot-path ratchet keeps it that way.
pub struct MetricsObserver {
    registry: MetricsRegistry,
    spans: Mutex<Vec<SpanRecord>>,
    /// Monotonic epoch all span offsets are relative to.
    epoch: Instant,
    /// Wall-clock time of the epoch (nanoseconds since Unix epoch), so
    /// traces can be aligned with external logs.
    epoch_unix_ns: u64,
}

impl Default for MetricsObserver {
    fn default() -> Self {
        MetricsObserver::new()
    }
}

impl MetricsObserver {
    /// A fresh observer; its epoch is "now".
    #[must_use]
    pub fn new() -> Self {
        let epoch_unix_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        MetricsObserver {
            registry: MetricsRegistry::new(),
            spans: Mutex::new(Vec::new()),
            epoch: Instant::now(),
            epoch_unix_ns,
        }
    }

    /// Direct access to the registry (e.g. for merging).
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// A point-in-time copy of everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let spans = match self.spans.lock() {
            Ok(spans) => spans.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        let mut sorted = spans;
        sorted.sort_by_key(|s| (s.tid, s.start_ns, s.depth));
        MetricsSnapshot {
            epoch_unix_ns: self.epoch_unix_ns,
            values: self.registry.values(),
            spans: sorted,
        }
    }
}

impl Observer for MetricsObserver {
    fn counter_add(&self, metric: Metric, delta: u64) {
        self.registry.add(metric, delta);
    }

    fn gauge_max(&self, metric: Metric, value: u64) {
        self.registry.gauge_max(metric, value);
    }

    fn span_record(&self, phase: Phase, start: Instant, end: Instant, tid: u64, depth: u32) {
        let start_ns = u64::try_from(start.saturating_duration_since(self.epoch).as_nanos())
            .unwrap_or(u64::MAX);
        let dur_ns =
            u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX);
        let record = SpanRecord {
            phase,
            start_ns,
            dur_ns,
            tid,
            depth,
        };
        match self.spans.lock() {
            Ok(mut spans) => spans.push(record),
            Err(poisoned) => poisoned.into_inner().push(record),
        }
    }
}

/// A point-in-time copy of a [`MetricsObserver`]'s state, and the input
/// of every exporter.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Wall-clock time of the monotonic epoch (ns since Unix epoch).
    pub epoch_unix_ns: u64,
    /// Every metric with its value, in schema order ([`Metric::ALL`]).
    pub values: Vec<(Metric, u64)>,
    /// Recorded spans, sorted by `(tid, start_ns, depth)`.
    pub spans: Vec<SpanRecord>,
}

/// One node of the reconstructed phase tree
/// ([`MetricsSnapshot::phase_tree`]).
#[derive(Clone, Copy, Debug)]
pub struct PhaseNode {
    /// The span this node was built from.
    pub span: SpanRecord,
    /// Nanoseconds spent in this span *excluding* child spans on the
    /// same thread.
    pub self_ns: u64,
}

impl MetricsSnapshot {
    /// The value of `metric` in this snapshot.
    #[must_use]
    pub fn counter(&self, metric: Metric) -> u64 {
        self.values
            .iter()
            .find(|(m, _)| *m == metric)
            .map_or(0, |(_, v)| *v)
    }

    /// Merges `other` into `self`: counters add, gauges max, spans
    /// concatenate (still sorted). Both sides' spans are rebased onto the
    /// earlier of the two epochs, which the merged snapshot keeps, so the
    /// snapshots of observers created one after another (one per batch
    /// job) land on one clock and merging is order-independent.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (slot, (metric, theirs)) in self.values.iter_mut().zip(&other.values) {
            debug_assert_eq!(slot.0, *metric);
            match metric.kind() {
                MetricKind::Counter => slot.1 += theirs,
                MetricKind::Gauge => slot.1 = slot.1.max(*theirs),
            }
        }
        let epoch = self.epoch_unix_ns.min(other.epoch_unix_ns);
        let ours = self.epoch_unix_ns - epoch;
        let theirs = other.epoch_unix_ns - epoch;
        for span in &mut self.spans {
            span.start_ns = span.start_ns.saturating_add(ours);
        }
        self.spans.extend(other.spans.iter().map(|span| SpanRecord {
            start_ns: span.start_ns.saturating_add(theirs),
            ..*span
        }));
        self.epoch_unix_ns = epoch;
        self.spans.sort_by_key(|s| (s.tid, s.start_ns, s.depth));
    }

    /// Rebuilds the span tree: depth-first order, each node carrying its
    /// self-time (duration minus child spans on the same thread).
    ///
    /// By construction the self-times of a thread's nodes sum to the
    /// total duration of its outermost spans, which is what makes the
    /// summary's "self" column add up to the wall time of the run.
    #[must_use]
    pub fn phase_tree(&self) -> Vec<PhaseNode> {
        self.spans
            .iter()
            .map(|span| {
                let end = span.start_ns.saturating_add(span.dur_ns);
                let child_ns: u64 = self
                    .spans
                    .iter()
                    .filter(|c| {
                        c.tid == span.tid
                            && c.depth == span.depth + 1
                            && c.start_ns >= span.start_ns
                            && c.start_ns.saturating_add(c.dur_ns) <= end
                    })
                    .map(|c| c.dur_ns)
                    .sum();
                PhaseNode {
                    span: *span,
                    self_ns: span.dur_ns.saturating_sub(child_ns),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_sums_over_shards() {
        let registry = MetricsRegistry::new();
        registry.add(Metric::SatConflicts, 3);
        registry.add(Metric::SatConflicts, 4);
        registry.gauge_max(Metric::AigPeakNodes, 10);
        registry.gauge_max(Metric::AigPeakNodes, 7);
        assert_eq!(registry.counter(Metric::SatConflicts), 7);
        assert_eq!(registry.counter(Metric::AigPeakNodes), 10);
    }

    #[test]
    fn a_registry_observer_counts_and_raises_gauges_but_records_no_span() {
        let registry = std::sync::Arc::new(MetricsRegistry::new());
        let obs = crate::Obs::attached(registry.clone());
        {
            let _span = obs.span(Phase::QbfFinish);
            obs.add(Metric::QbfUniversalElims, 4);
            obs.add(Metric::QbfUniversalElims, 2);
            obs.gauge_max(Metric::QbfPeakNodes, 9);
            obs.gauge_max(Metric::QbfPeakNodes, 3);
        }
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter(Metric::QbfUniversalElims), 6);
        assert_eq!(snapshot.counter(Metric::QbfPeakNodes), 9);
        assert!(snapshot.spans.is_empty(), "{:?}", snapshot.spans);
        let moved: Vec<Metric> = snapshot
            .values
            .iter()
            .filter(|&&(_, v)| v > 0)
            .map(|&(m, _)| m)
            .collect();
        assert_eq!(moved, [Metric::QbfUniversalElims, Metric::QbfPeakNodes]);
    }

    #[test]
    fn registry_is_thread_safe_and_complete() {
        let registry = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        registry.add(Metric::SatPropagations, 1);
                        registry.gauge_max(Metric::QbfPeakNodes, 42);
                    }
                });
            }
        });
        assert_eq!(registry.counter(Metric::SatPropagations), 8000);
        assert_eq!(registry.counter(Metric::QbfPeakNodes), 42);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_maxes_gauges() {
        let a = MetricsObserver::new();
        a.counter_add(Metric::SatCalls, 2);
        a.gauge_max(Metric::AigPeakNodes, 5);
        let b = MetricsObserver::new();
        b.counter_add(Metric::SatCalls, 3);
        b.gauge_max(Metric::AigPeakNodes, 9);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter(Metric::SatCalls), 5);
        assert_eq!(merged.counter(Metric::AigPeakNodes), 9);
    }

    fn snapshot_at(epoch_unix_ns: u64, spans: &[(Phase, u64, u64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            epoch_unix_ns,
            values: Metric::ALL.iter().map(|&m| (m, 0)).collect(),
            spans: spans
                .iter()
                .map(|&(phase, start_ns, dur_ns)| SpanRecord {
                    phase,
                    start_ns,
                    dur_ns,
                    tid: 1,
                    depth: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn snapshot_merge_rebases_spans_onto_the_earlier_epoch() {
        const MS: u64 = 1_000_000;
        let first = snapshot_at(7 * MS, &[(Phase::Preprocess, 0, 2 * MS)]);
        let later = snapshot_at(12 * MS, &[(Phase::QbfFinish, 100, MS)]);
        let mut forward = first.clone();
        forward.merge(&later);
        let mut backward = later.clone();
        backward.merge(&first);
        for merged in [&forward, &backward] {
            assert_eq!(merged.epoch_unix_ns, 7 * MS);
            let starts: Vec<(Phase, u64)> =
                merged.spans.iter().map(|s| (s.phase, s.start_ns)).collect();
            assert_eq!(
                starts,
                [(Phase::Preprocess, 0), (Phase::QbfFinish, 5 * MS + 100)],
                "the later snapshot's spans shift by the 5 ms between the epochs"
            );
        }
        assert_eq!(forward.spans, backward.spans);
    }

    #[test]
    fn phase_tree_self_times_sum_to_root() {
        let snapshot = MetricsSnapshot {
            epoch_unix_ns: 0,
            values: Metric::ALL.iter().map(|&m| (m, 0)).collect(),
            spans: vec![
                SpanRecord {
                    phase: Phase::Total,
                    start_ns: 0,
                    dur_ns: 100,
                    tid: 1,
                    depth: 0,
                },
                SpanRecord {
                    phase: Phase::Preprocess,
                    start_ns: 10,
                    dur_ns: 30,
                    tid: 1,
                    depth: 1,
                },
                SpanRecord {
                    phase: Phase::QbfFinish,
                    start_ns: 50,
                    dur_ns: 40,
                    tid: 1,
                    depth: 1,
                },
            ],
        };
        let tree = snapshot.phase_tree();
        assert_eq!(tree.len(), 3);
        let root = tree
            .iter()
            .find(|n| n.span.phase == Phase::Total)
            .expect("root node");
        assert_eq!(root.self_ns, 30);
        let total_self: u64 = tree.iter().map(|n| n.self_ns).sum();
        assert_eq!(total_self, 100);
    }
}
