//! The batch scheduler for solving whole corpora.
//!
//! ## Design
//!
//! Workers claim job indices from one shared atomic cursor: each
//! `fetch_add` hands out the next index exactly once, so jobs start in
//! input order and no queue structure exists at all. Jobs last
//! milliseconds to seconds, so a claim is noise next to a solve. The
//! claim loop ([`worker_loop`]) polls the batch token before every claim
//! and runs the job body through a `dyn Fn`, so it stays free of panics
//! and per-iteration allocation; both are enforced by the
//! `hqs-analyze` hot-path pass.
//!
//! ## Isolation
//!
//! Each job runs under `catch_unwind`: a panicking solver poisons nothing
//! and is reported as [`JobOutcome::Panicked`] while the remaining jobs
//! proceed. Each job gets a fresh [`Budget`] (per-job timeout, node
//! limit) chained to the batch-wide [`CancelToken`], so a batch can be
//! aborted mid-flight and every in-flight solver unwinds cooperatively.

use crate::{escape_json, panic_message, solve_job};
use hqs_base::{Budget, CancelToken, Exhaustion};
use hqs_core::{Dqbf, HqsConfig, Outcome};
use hqs_obs::{MetricsObserver, MetricsSnapshot, Observer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One corpus instance queued for solving.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// Display name (for corpus directories, the file name).
    pub name: String,
    /// The formula to solve.
    pub dqbf: Dqbf,
}

/// How a batch run is driven.
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Number of worker threads (clamped to at least 1).
    pub workers: usize,
    /// Per-job wall-clock limit; `None` runs unbounded.
    pub job_timeout: Option<Duration>,
    /// Per-job AIG node budget bounding memory; `None` runs unbounded.
    pub node_limit: Option<usize>,
    /// Solver configuration template; its `budget` field is replaced by
    /// the per-job budget. With `certify` set, every verdict is
    /// certified (per-job `certified` flag in the record).
    pub config: HqsConfig,
    /// Deck-entry name stamped into every record (see
    /// [`JobRecord::entry`]); batches launched from a named deck entry
    /// pass that name, ad-hoc configurations keep `"default"`.
    pub entry_name: String,
    /// Solve each job under its own [`MetricsObserver`]; the per-job
    /// snapshot lands in [`JobRecord::metrics`] and the merged batch
    /// totals in [`BatchSummary::metrics`].
    pub collect_metrics: bool,
    /// Batch-wide cancellation: firing this token stops job dispatch and
    /// unwinds every in-flight solver at its next budget poll.
    pub cancel: CancelToken,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            workers: 1,
            job_timeout: None,
            node_limit: None,
            config: HqsConfig::default(),
            entry_name: "default".to_string(),
            collect_metrics: false,
            cancel: CancelToken::new(),
        }
    }
}

/// How one batch job ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Definitive SAT.
    Sat,
    /// Definitive UNSAT.
    Unsat,
    /// A resource limit (timeout, memout, batch cancellation) hit first.
    Limit(Exhaustion),
    /// The solver panicked on this job; the payload message is attached.
    /// The panic was confined to the job.
    Panicked(String),
    /// Certification failed on this job (soundness alarm), or the
    /// session rejected its configuration.
    Error(String),
}

impl From<Outcome> for JobOutcome {
    fn from(result: Outcome) -> Self {
        match result {
            Outcome::Sat => JobOutcome::Sat,
            Outcome::Unsat => JobOutcome::Unsat,
            Outcome::Unknown(e) => JobOutcome::Limit(e),
        }
    }
}

impl JobOutcome {
    /// Short uppercase code used in JSONL records and progress lines.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            JobOutcome::Sat => "SAT",
            JobOutcome::Unsat => "UNSAT",
            JobOutcome::Limit(Exhaustion::Timeout) => "TIMEOUT",
            JobOutcome::Limit(Exhaustion::Memout) => "MEMOUT",
            JobOutcome::Limit(Exhaustion::Cancelled) => "CANCELLED",
            JobOutcome::Panicked(_) => "PANIC",
            JobOutcome::Error(_) => "ERROR",
        }
    }
}

/// The machine-readable result of one batch job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Position of the job in the input slice.
    pub index: usize,
    /// Job name.
    pub name: String,
    /// Deck-entry name of the configuration the job ran under, so JSONL
    /// output stays interpretable after deck edits.
    pub entry: String,
    /// Configuration fingerprint ([`HqsConfig::fingerprint`]) of that
    /// configuration.
    pub config_hash: u64,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Whether a definitive verdict carried a checked certificate.
    pub certified: bool,
    /// Wall-clock seconds spent on this job.
    pub wall_seconds: f64,
    /// CPU seconds the worker thread spent on this job, when the
    /// platform exposes per-thread CPU time (Linux); `None` elsewhere.
    pub cpu_seconds: Option<f64>,
    /// Which worker thread ran the job.
    pub worker: usize,
    /// Per-job metrics snapshot, when the batch collects metrics.
    pub metrics: Option<MetricsSnapshot>,
}

impl JobRecord {
    /// Renders the record as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let detail = match &self.outcome {
            JobOutcome::Panicked(m) | JobOutcome::Error(m) => {
                format!("\"{}\"", escape_json(m))
            }
            _ => "null".to_string(),
        };
        let cpu = match self.cpu_seconds {
            Some(s) => format!("{s:.6}"),
            None => "null".to_string(),
        };
        let metrics = match &self.metrics {
            Some(snapshot) => snapshot.to_json_compact(),
            None => "null".to_string(),
        };
        format!(
            "{{\"index\":{},\"job\":\"{}\",\"entry\":\"{}\",\"config\":\"{:016x}\",\
             \"outcome\":\"{}\",\"certified\":{},\
             \"wall_s\":{:.6},\"cpu_s\":{},\"worker\":{},\"detail\":{},\"metrics\":{}}}",
            self.index,
            escape_json(&self.name),
            escape_json(&self.entry),
            self.config_hash,
            self.outcome.code(),
            self.certified,
            self.wall_seconds,
            cpu,
            self.worker,
            detail,
            metrics
        )
    }
}

/// Aggregate statistics for a finished batch.
#[derive(Clone, Debug)]
pub struct BatchSummary {
    /// One record per job, in input order. Jobs never dispatched (batch
    /// cancelled first) report [`JobOutcome::Limit`] with
    /// [`Exhaustion::Cancelled`] and zero time.
    pub records: Vec<JobRecord>,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Worker count the batch ran with.
    pub workers: usize,
    /// Number of definitive SAT verdicts.
    pub sat: usize,
    /// Number of definitive UNSAT verdicts.
    pub unsat: usize,
    /// Number of jobs stopped by a resource limit.
    pub unsolved: usize,
    /// Number of jobs that panicked or failed certification.
    pub failed: usize,
    /// Merged metrics over every job's snapshot (counters summed,
    /// gauges maxed), when the batch collected metrics.
    pub metrics: Option<MetricsSnapshot>,
}

/// Identity of the configuration a batch ran under, stamped into every
/// [`JobRecord`] (deck-entry name + config fingerprint).
#[derive(Clone, Debug, Default)]
pub struct BatchTag {
    /// Deck-entry name.
    pub entry: String,
    /// [`HqsConfig::fingerprint`] of the configuration.
    pub config_hash: u64,
}

/// What one executed job produced before timing and identity are
/// attached: outcome, certification flag, optional metrics snapshot.
///
/// Plain `(JobOutcome, bool)` pairs convert via `Into`, so metric-less
/// runners (and the scheduler tests) stay terse.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Whether a definitive verdict carried a checked certificate.
    pub certified: bool,
    /// The job's metrics, when collected.
    pub metrics: Option<MetricsSnapshot>,
}

impl From<(JobOutcome, bool)> for JobResult {
    fn from((outcome, certified): (JobOutcome, bool)) -> Self {
        JobResult {
            outcome,
            certified,
            metrics: None,
        }
    }
}

/// One worker's dispatch loop: claim the next index from `cursor` and
/// run it, until all `jobs` are claimed or the batch is cancelled.
/// Hot-path clean: no allocation, no panic paths — job execution (and
/// its `catch_unwind`) lives behind `run`.
fn worker_loop(
    cursor: &AtomicUsize,
    jobs: usize,
    cancel: &CancelToken,
    worker: usize,
    run: &(dyn Fn(usize, usize) + Sync),
) {
    loop {
        if cancel.is_cancelled() {
            break;
        }
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        if index >= jobs {
            break;
        }
        run(index, worker);
    }
}

/// Returns this thread's accumulated CPU time in seconds, when the
/// platform exposes it.
#[cfg(target_os = "linux")]
fn thread_cpu_seconds() -> Option<f64> {
    // /proc/thread-self/stat fields 14 (utime) and 15 (stime), in clock
    // ticks. The comm field (2) may contain spaces, so split after the
    // closing ')' and count from field 3.
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    let after_comm = stat.rsplit(')').next()?;
    let mut fields = after_comm.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // Clock-tick frequency is fixed at 100 Hz on every supported Linux
    // configuration (sysconf(_SC_CLK_TCK)); good enough for reporting.
    Some((utime + stime) / 100.0)
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_seconds() -> Option<f64> {
    None
}

/// Runs a batch of generic jobs through the batch scheduler.
///
/// This is the seam under [`run_batch`]: `runner` maps a job index to a
/// [`JobResult`] (anything `Into<JobResult>`, so `(JobOutcome, bool)`
/// pairs work) and may panic — panics are caught at the job boundary and
/// become [`JobOutcome::Panicked`]. `tag` identifies the configuration
/// and is copied into every record. `observer` is called once per
/// finished job from the worker thread that ran it (so a JSONL stream
/// can be written live); it must be `Sync`.
///
/// Tests use this entry point to inject panicking or sleeping jobs
/// without constructing formulas.
pub fn run_batch_with<F, R>(
    names: &[String],
    workers: usize,
    cancel: &CancelToken,
    tag: &BatchTag,
    runner: F,
    observer: &(dyn Fn(&JobRecord) + Sync),
) -> BatchSummary
where
    F: Fn(usize) -> R + Sync,
    R: Into<JobResult>,
{
    let started = Instant::now();
    let workers = workers.max(1);
    let job_count = names.len();
    let results: Vec<Mutex<Option<JobRecord>>> = (0..job_count).map(|_| Mutex::new(None)).collect();

    let cursor = AtomicUsize::new(0);
    let execute = |index: usize, worker: usize| {
        let name = names.get(index).cloned().unwrap_or_default();
        let wall_start = Instant::now();
        let cpu_start = thread_cpu_seconds();
        let result: JobResult = match catch_unwind(AssertUnwindSafe(|| runner(index))) {
            Ok(produced) => produced.into(),
            Err(panic) => (JobOutcome::Panicked(panic_message(panic.as_ref())), false).into(),
        };
        let cpu_seconds = match (cpu_start, thread_cpu_seconds()) {
            (Some(a), Some(b)) => Some((b - a).max(0.0)),
            _ => None,
        };
        let record = JobRecord {
            index,
            name,
            entry: tag.entry.clone(),
            config_hash: tag.config_hash,
            outcome: result.outcome,
            certified: result.certified,
            wall_seconds: wall_start.elapsed().as_secs_f64(),
            cpu_seconds,
            worker,
            metrics: result.metrics,
        };
        observer(&record);
        if let Some(slot) = results.get(index) {
            *lock_result(slot) = Some(record);
        }
    };
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let (cursor, execute) = (&cursor, &execute);
            scope.spawn(move || worker_loop(cursor, job_count, cancel, worker, execute));
        }
    });

    let mut records: Vec<JobRecord> = Vec::with_capacity(job_count);
    for (index, slot) in results.iter().enumerate() {
        let record = lock_result(slot).take().unwrap_or_else(|| JobRecord {
            index,
            name: names.get(index).cloned().unwrap_or_default(),
            entry: tag.entry.clone(),
            config_hash: tag.config_hash,
            outcome: JobOutcome::Limit(Exhaustion::Cancelled),
            certified: false,
            wall_seconds: 0.0,
            cpu_seconds: None,
            worker: 0,
            metrics: None,
        });
        records.push(record);
    }

    let sat = records
        .iter()
        .filter(|r| r.outcome == JobOutcome::Sat)
        .count();
    let unsat = records
        .iter()
        .filter(|r| r.outcome == JobOutcome::Unsat)
        .count();
    let unsolved = records
        .iter()
        .filter(|r| matches!(r.outcome, JobOutcome::Limit(_)))
        .count();
    let failed = records
        .iter()
        .filter(|r| matches!(r.outcome, JobOutcome::Panicked(_) | JobOutcome::Error(_)))
        .count();
    let mut metrics: Option<MetricsSnapshot> = None;
    for record in &records {
        let Some(snapshot) = &record.metrics else {
            continue;
        };
        match &mut metrics {
            Some(merged) => merged.merge(snapshot),
            None => metrics = Some(snapshot.clone()),
        }
    }
    BatchSummary {
        records,
        wall_seconds: started.elapsed().as_secs_f64(),
        workers,
        sat,
        unsat,
        unsolved,
        failed,
        metrics,
    }
}

/// Locks a result slot, recovering from poisoning: a slot holds a
/// finished record or nothing, never a half-written one.
fn lock_result(slot: &Mutex<Option<JobRecord>>) -> MutexGuard<'_, Option<JobRecord>> {
    match slot.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Solves every job in `jobs` under the batch scheduler.
///
/// Each job gets a fresh [`Budget`] built from
/// [`BatchOptions::job_timeout`] / [`BatchOptions::node_limit`] — the
/// timeout clock starts when the job is *dispatched*, not when the batch
/// starts — chained to [`BatchOptions::cancel`]. `observer` streams
/// finished [`JobRecord`]s (e.g. as JSONL) from worker threads.
pub fn run_batch(
    jobs: &[BatchJob],
    opts: &BatchOptions,
    observer: &(dyn Fn(&JobRecord) + Sync),
) -> BatchSummary {
    let names: Vec<String> = jobs.iter().map(|j| j.name.clone()).collect();
    let tag = BatchTag {
        entry: opts.entry_name.clone(),
        config_hash: opts.config.fingerprint(),
    };
    let runner = |index: usize| -> JobResult {
        let Some(job) = jobs.get(index) else {
            return (
                JobOutcome::Error("job index out of range".to_string()),
                false,
            )
                .into();
        };
        let mut budget = Budget::new().with_cancel_token(opts.cancel.clone());
        if let Some(timeout) = opts.job_timeout {
            budget = budget.with_timeout(timeout);
        }
        if let Some(nodes) = opts.node_limit {
            budget = budget.with_node_limit(nodes);
        }
        let mut config = opts.config.clone();
        config.budget = budget;
        let metrics = opts
            .collect_metrics
            .then(|| Arc::new(MetricsObserver::new()));
        let observer = metrics.clone().map(|m| m as Arc<dyn Observer>);
        let (outcome, certified) = match solve_job(&job.dqbf, config, observer, None) {
            Ok(verdict) => (verdict.result.into(), verdict.certified),
            // A rejected config is a broken deck entry, not a property
            // of the formula; report it per job like a certification
            // failure.
            Err(error) => (JobOutcome::Error(error.to_string()), false),
        };
        JobResult {
            outcome,
            certified,
            metrics: metrics.map(|observer| observer.snapshot()),
        }
    };
    run_batch_with(&names, opts.workers, &opts.cancel, &tag, runner, observer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_record_shape_is_stable() {
        let record = JobRecord {
            index: 3,
            name: "a\"b.dqdimacs".to_string(),
            entry: "fraig-light".to_string(),
            config_hash: 0x1234_5678_9abc_def0,
            outcome: JobOutcome::Limit(Exhaustion::Timeout),
            certified: false,
            wall_seconds: 1.25,
            cpu_seconds: Some(0.5),
            worker: 1,
            metrics: None,
        };
        assert_eq!(
            record.to_jsonl(),
            "{\"index\":3,\"job\":\"a\\\"b.dqdimacs\",\"entry\":\"fraig-light\",\
             \"config\":\"123456789abcdef0\",\"outcome\":\"TIMEOUT\",\
             \"certified\":false,\"wall_s\":1.250000,\"cpu_s\":0.500000,\
             \"worker\":1,\"detail\":null,\"metrics\":null}"
        );
    }
}
