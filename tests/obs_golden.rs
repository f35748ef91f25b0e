//! Golden tests for the observability exporters, driven end-to-end
//! through [`Session`] on a fixed PEC smoke instance.
//!
//! Three properties are pinned here:
//!
//! 1. the stable JSON export (`hqs-metrics/1`) and the Chrome trace are
//!    structurally valid and carry every schema key plus nonzero solver
//!    counters and a nested span tree;
//! 2. the span tree's self-times account for the wall time of the run
//!    (within 10%), so the summary's "self" column can be trusted;
//! 3. attaching a [`NoopObserver`] perturbs nothing — same verdict, same
//!    solver statistics, and the same number of heap allocations as an
//!    uninstrumented solve.

use hqs::obs::{
    looks_like_valid_export, Metric, MetricsObserver, NoopObserver, Obs, Observer, Phase,
};
use hqs::pec::families::generate;
use hqs::pec::Family;
use hqs::{Dqbf, HqsConfig, Outcome, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// A pass-through allocator that counts allocations, for the
/// "instrumentation is allocation-identical" test below.
struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Per-thread, so sibling
    /// tests running on parallel threads never leak into a count;
    /// `Session::solve` runs on the calling thread, so the count still
    /// sees every allocation of the solve. Const-initialised with no
    /// destructor, so reading or bumping it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// This thread's allocation count so far.
fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down, when
    // nothing is measuring.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers every operation to `System`; the counter is a
// thread-local cell and does not affect allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The fixed smoke instance: a 3-stage arbiter bit-cell chain with two
/// black boxes, fault-free (realizable, so the verdict is known to be
/// SAT). Small enough to solve in milliseconds, large enough that the
/// main loop computes an elimination set and eliminates universals.
fn smoke_instance() -> Dqbf {
    generate(Family::Bitcell, 3, 2, 3, false).dqbf
}

/// Preprocessing alone would decide the instance; disable it so the solve
/// exercises the main elimination loop and its instrumentation.
fn loop_config() -> HqsConfig {
    HqsConfig::builder()
        .preprocess(false)
        .gate_detection(false)
        .build()
        .expect("loop config is valid")
}

fn observed_session(observer: Arc<dyn Observer>) -> Session {
    Session::builder()
        .config(loop_config())
        .observer(observer)
        .build()
        .expect("observed config is valid")
}

#[test]
fn metrics_json_export_is_schema_stable_on_pec_smoke() {
    let dqbf = smoke_instance();
    let observer = Arc::new(MetricsObserver::new());
    let obs = Obs::attached(observer.clone() as Arc<dyn Observer>);
    {
        let _total = obs.span(Phase::Total);
        assert_eq!(
            observed_session(observer.clone()).solve(&dqbf),
            Outcome::Sat
        );
    }
    let snapshot = observer.snapshot();
    let json = snapshot.to_json();

    assert!(
        json.starts_with("{\"schema\":\"hqs-metrics/1\",\"epoch_unix_ns\":"),
        "schema header moved: {json}"
    );
    assert!(looks_like_valid_export(
        &json,
        &["schema", "epoch_unix_ns", "counters", "gauges", "spans"]
    ));
    // Every metric appears by name even when zero — consumers index
    // without existence checks.
    for metric in Metric::ALL {
        assert!(
            json.contains(&format!("\"{}\":", metric.name())),
            "metric {} missing from JSON export",
            metric.name()
        );
    }
    // The solve actually went through the elimination loop.
    assert!(snapshot.counter(Metric::ElimSetsComputed) >= 1);
    assert!(snapshot.counter(Metric::UniversalElims) >= 1);
    assert!(snapshot.counter(Metric::AigPeakNodes) > 0);
    // The span tree nests: total at depth 0 wraps the elim loop.
    assert!(snapshot
        .spans
        .iter()
        .any(|s| s.phase == Phase::Total && s.depth == 0));
    assert!(snapshot
        .spans
        .iter()
        .any(|s| s.phase == Phase::ElimLoop && s.depth >= 1));
    // The compact per-job form stays balanced too.
    assert!(looks_like_valid_export(&snapshot.to_json_compact(), &[]));
}

#[test]
fn chrome_trace_export_loads_as_complete_events() {
    let dqbf = smoke_instance();
    let observer = Arc::new(MetricsObserver::new());
    let obs = Obs::attached(observer.clone() as Arc<dyn Observer>);
    {
        let _total = obs.span(Phase::Total);
        assert_eq!(
            observed_session(observer.clone()).solve(&dqbf),
            Outcome::Sat
        );
    }
    let trace = observer.snapshot().to_chrome_trace();
    assert!(looks_like_valid_export(
        &trace,
        &["displayTimeUnit", "traceEvents"]
    ));
    // Complete events only, with the phases the run must have touched.
    assert!(trace.contains("\"ph\":\"X\""));
    assert!(trace.contains("\"name\":\"total\""));
    assert!(trace.contains("\"name\":\"elim-loop\""));
    assert!(trace.contains("\"cat\":\"hqs\""));
    // Perfetto rejects events without pid/ts/dur.
    for key in ["\"pid\":", "\"tid\":", "\"ts\":", "\"dur\":"] {
        assert!(trace.contains(key), "trace missing {key}: {trace}");
    }
}

#[test]
fn span_self_times_account_for_wall_time() {
    let dqbf = smoke_instance();
    let observer = Arc::new(MetricsObserver::new());
    let obs = Obs::attached(observer.clone() as Arc<dyn Observer>);
    let wall_start = Instant::now();
    {
        let _total = obs.span(Phase::Total);
        assert_eq!(
            observed_session(observer.clone()).solve(&dqbf),
            Outcome::Sat
        );
    }
    let wall_ns = wall_start.elapsed().as_nanos() as u64;

    let snapshot = observer.snapshot();
    let tree = snapshot.phase_tree();
    let root = tree
        .iter()
        .find(|n| n.span.phase == Phase::Total)
        .expect("total span recorded");
    // Self-times are durations minus same-thread child spans, so across
    // the whole tree they sum back to the outermost span's duration.
    let self_sum: u64 = tree.iter().map(|n| n.self_ns).sum();
    assert_eq!(
        self_sum, root.span.dur_ns,
        "self-times must partition the total span"
    );
    // And the total span tracks the wall clock of the run within 10%.
    assert!(
        root.span.dur_ns <= wall_ns,
        "span outlived the wall clock: {} > {wall_ns}",
        root.span.dur_ns
    );
    assert!(
        wall_ns - root.span.dur_ns <= wall_ns / 10,
        "span misses more than 10% of wall time: span {} vs wall {wall_ns}",
        root.span.dur_ns
    );
}

#[test]
fn noop_observer_is_allocation_identical_and_does_not_perturb() {
    let dqbf = smoke_instance();

    let solve_counted = |observer: Option<Arc<dyn Observer>>| {
        let mut builder = Session::builder().config(loop_config());
        if let Some(observer) = observer {
            builder = builder.observer(observer);
        }
        let mut session = builder.build().expect("config is valid");
        let before = allocations();
        let verdict = session.solve(&dqbf);
        let allocs = allocations() - before;
        (verdict, session.stats(), allocs)
    };

    // Warm-up pass (lazy thread-locals, lock pools), then two baseline
    // passes to confirm the solve itself allocates deterministically.
    let _ = solve_counted(None);
    let (plain_verdict, plain_stats, plain_allocs) = solve_counted(None);
    let (_, _, repeat_allocs) = solve_counted(None);
    assert_eq!(
        plain_allocs, repeat_allocs,
        "baseline solve must allocate deterministically for this test to mean anything"
    );

    let (noop_verdict, noop_stats, noop_allocs) = solve_counted(Some(Arc::new(NoopObserver)));
    assert_eq!(noop_verdict, plain_verdict);
    assert_eq!(
        noop_allocs, plain_allocs,
        "NoopObserver changed the allocation count"
    );
    assert_eq!(noop_stats.universal_elims, plain_stats.universal_elims);
    assert_eq!(noop_stats.existential_elims, plain_stats.existential_elims);
    assert_eq!(noop_stats.unit_pure_elims, plain_stats.unit_pure_elims);
    assert_eq!(noop_stats.peak_nodes, plain_stats.peak_nodes);
    assert_eq!(
        noop_stats.elimination_set_size,
        plain_stats.elimination_set_size
    );
}
