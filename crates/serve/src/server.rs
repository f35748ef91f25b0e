//! The long-lived solver service behind `hqs serve`.
//!
//! ## Architecture
//!
//! A [`Server`] owns a pool of persistent worker threads fed from one
//! bounded FIFO queue under a mutex and a condvar: requests arrive over
//! time instead of as a fixed corpus, so workers wait for work rather
//! than claim from a cursor as the batch scheduler does. Each request
//! is solved by [`hqs_engine::solve_job`], the same per-job solve batch
//! and portfolio use. Transports ([stdio](crate::run_stdio), [Unix
//! socket](crate::run_socket)) parse request lines, hand them to
//! [`Server::handle_line`] with a per-client response sink, and write
//! whatever the sink receives — workers answer out of order, which is
//! why every response echoes the request `id`.
//!
//! ## Warm state
//!
//! The only state shared across requests is a verdict cache keyed by
//! the canonical formula hash and the configuration fingerprint, so
//! resolving an already-answered formula is a lookup. Every session
//! solves from scratch. Certified requests bypass the verdict cache (a
//! certificate must be rebuilt).
//!
//! ## Lifecycle
//!
//! * **backpressure** — a full queue answers `overloaded` immediately
//!   instead of queueing unboundedly;
//! * **graceful drain** — `{"cmd":"shutdown"}` (or client EOF on
//!   stdio) stops intake, lets queued and in-flight jobs finish, joins
//!   the workers and only then acknowledges;
//! * **hard shutdown** — `{"cmd":"shutdown","hard":true}` additionally
//!   fires the server-wide [`CancelToken`] and every in-flight
//!   request's token, so running solves unwind at their next budget
//!   poll;
//! * **client disconnect** — response sinks swallow write failures:
//!   the job completes, the verdict cache keeps its answer, in-flight
//!   drops to zero and nothing leaks.

use crate::proto::{error_response, id_json, parse_request, Request, SolveRequest};
use hqs_base::{Budget, ByteBudgetLru, CacheStatsSnapshot, CancelToken};
use hqs_core::{canonical_formula_hash, Dqbf, HqsConfig};
use hqs_engine::{panic_message, solve_job, JobError, JobOutcome, JobRecord};
use hqs_obs::{MetricsRegistry, MetricsSnapshot};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Where a worker writes a finished response line. Sinks must tolerate
/// (swallow) downstream write failures — a disconnected client must not
/// take a worker down with it.
pub type ResponseSink = Arc<dyn Fn(&str) + Send + Sync>;

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Maximum queued (not yet dispatched) requests before new solve
    /// requests are answered `overloaded` (clamped to at least 1).
    pub queue_capacity: usize,
    /// Default per-request wall-clock limit; a request's `timeout_ms`
    /// overrides it.
    pub default_timeout: Option<Duration>,
    /// Default per-request AIG-node budget; a request's `node_limit`
    /// overrides it.
    pub default_node_limit: Option<usize>,
    /// Solver configuration template; its budget field is replaced per
    /// request, and a request's `certify` overrides its `certify`.
    pub config: HqsConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 1,
            queue_capacity: 64,
            default_timeout: None,
            default_node_limit: None,
            config: HqsConfig::default(),
        }
    }
}

/// What the transport loop should do after a handled line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep reading requests.
    Continue,
    /// A shutdown was requested: stop intake, call
    /// [`Server::shutdown`], acknowledge with the carried id, exit.
    Shutdown {
        /// Id to echo in the acknowledgement (after the drain).
        id: Option<String>,
        /// Whether in-flight jobs were cancelled rather than drained.
        hard: bool,
    },
}

/// A snapshot of the server's introspection counters (the `stats`
/// command renders exactly this).
#[derive(Clone, Debug)]
pub struct ServeStats {
    /// Seconds since [`Server::start`].
    pub uptime_seconds: f64,
    /// Requests accepted but not yet dispatched to a worker.
    pub queued: usize,
    /// Requests currently being solved.
    pub in_flight: usize,
    /// Solve responses written (including cached and errored ones).
    pub served: u64,
    /// Solve requests rejected with `overloaded`.
    pub overloaded: u64,
    /// Verdict-cache counters.
    pub verdicts: CacheStatsSnapshot,
    /// Counters and gauges merged over every completed request, when any
    /// completed; no spans, which nothing here renders.
    pub metrics: Option<MetricsSnapshot>,
}

/// One queued solve job.
struct Job {
    seq: u64,
    id: String,
    request: SolveRequest,
    sink: ResponseSink,
    cancel: CancelToken,
}

/// Queue state guarded by one mutex: the FIFO plus the counters that
/// must stay consistent with it.
struct QueueState {
    jobs: VecDeque<Job>,
    in_flight: usize,
    draining: bool,
}

struct ServerState {
    opts: ServeOptions,
    /// `(formula hash, config fingerprint) -> verdict` for definitive,
    /// uncertified answers.
    verdicts: ByteBudgetLru<(u128, u64), bool>,
    queue: Mutex<QueueState>,
    available: Condvar,
    /// Tokens of accepted-but-unfinished requests, for hard shutdown.
    tokens: Mutex<HashMap<u64, CancelToken>>,
    /// Fired on hard shutdown; every request token is chained to it at
    /// dispatch time (first cancellation wins, so the order is free).
    shutdown: CancelToken,
    served: AtomicU64,
    overloaded: AtomicU64,
    next_seq: AtomicU64,
    merged: Mutex<Option<MetricsSnapshot>>,
    started: Instant,
}

/// The running service: worker pool plus shared state. All methods take
/// `&self`, so transports can share the server behind an [`Arc`].
pub struct Server {
    state: Arc<ServerState>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Locks a mutex, recovering from poisoning: every guarded structure
/// here is counters and plain queues, never mid-mutation solver state.
fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Server {
    /// Starts the worker pool.
    #[must_use]
    pub fn start(mut opts: ServeOptions) -> Server {
        let workers = opts.workers.max(1);
        opts.queue_capacity = opts.queue_capacity.max(1);
        let state = Arc::new(ServerState {
            opts,
            verdicts: ByteBudgetLru::new(VERDICT_CACHE_BYTES),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                in_flight: 0,
                draining: false,
            }),
            available: Condvar::new(),
            tokens: Mutex::new(HashMap::new()),
            shutdown: CancelToken::new(),
            served: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            merged: Mutex::new(None),
            started: Instant::now(),
        });
        let handles = (0..workers)
            .map(|worker| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&state, worker))
            })
            .collect();
        Server {
            state,
            workers: Mutex::new(handles),
        }
    }

    /// The server-wide shutdown token; fires on hard shutdown.
    #[must_use]
    pub fn shutdown_token(&self) -> &CancelToken {
        &self.state.shutdown
    }

    /// Parses and dispatches one request line. Responses — including
    /// parse errors, `overloaded` rejections and the `stats` reply —
    /// go through `sink`; solve responses arrive later, from a worker
    /// thread. Shutdown requests are NOT acknowledged here: the
    /// transport must call [`Server::shutdown`] first and acknowledge
    /// after the drain (see [`Control::Shutdown`]).
    pub fn handle_line(&self, line: &str, sink: &ResponseSink) -> Control {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Control::Continue;
        }
        match parse_request(trimmed) {
            Err(message) => {
                sink(&error_response("?", &message));
                Control::Continue
            }
            Ok(Request::Stats { id }) => {
                sink(&self.render_stats(id.as_deref()));
                Control::Continue
            }
            Ok(Request::Shutdown { id, hard }) => Control::Shutdown { id, hard },
            Ok(Request::Solve(request)) => {
                self.submit(request, sink);
                Control::Continue
            }
        }
    }

    /// Enqueues a solve request (or rejects it when draining / over
    /// capacity).
    fn submit(&self, request: SolveRequest, sink: &ResponseSink) {
        let state = &self.state;
        let seq = state.next_seq.fetch_add(1, Ordering::Relaxed);
        let id = request.id.clone().unwrap_or_else(|| seq.to_string());
        // Register the request token before taking the queue lock (the
        // two locks are never nested); a hard shutdown racing this
        // window cancels a token whose job is then rejected below,
        // which is harmless — the rejection paths deregister it.
        let cancel = CancelToken::new();
        lock(&state.tokens).insert(seq, cancel.clone());
        let mut queue = lock(&state.queue);
        if queue.draining {
            drop(queue);
            lock(&state.tokens).remove(&seq);
            sink(&error_response(&id, "server is shutting down"));
            state.served.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if queue.jobs.len() >= state.opts.queue_capacity {
            drop(queue);
            lock(&state.tokens).remove(&seq);
            state.overloaded.fetch_add(1, Ordering::Relaxed);
            sink(&format!(
                "{{\"id\":{},\"error\":\"overloaded\",\"capacity\":{}}}",
                id_json(&id),
                state.opts.queue_capacity
            ));
            return;
        }
        queue.jobs.push_back(Job {
            seq,
            id,
            request,
            sink: Arc::clone(sink),
            cancel,
        });
        drop(queue);
        state.available.notify_one();
    }

    /// Stops intake and waits for outstanding work: queued and
    /// in-flight jobs finish (graceful) or unwind at their next budget
    /// poll (`hard`), the workers exit and are joined. Idempotent.
    pub fn shutdown(&self, hard: bool) {
        let state = &self.state;
        if hard {
            state.shutdown.cancel("server shutdown");
            for token in lock(&state.tokens).values() {
                token.cancel("server shutdown");
            }
        }
        lock(&state.queue).draining = true;
        state.available.notify_all();
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        for handle in handles {
            // A worker that panicked outside the per-job catch_unwind
            // already lost its thread; joining its remains is fine.
            let _ = handle.join();
        }
    }

    /// Current introspection counters.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let state = &self.state;
        let (queued, in_flight) = {
            let queue = lock(&state.queue);
            (queue.jobs.len(), queue.in_flight)
        };
        ServeStats {
            uptime_seconds: state.started.elapsed().as_secs_f64(),
            queued,
            in_flight,
            served: state.served.load(Ordering::Relaxed),
            overloaded: state.overloaded.load(Ordering::Relaxed),
            verdicts: state.verdicts.stats(),
            metrics: lock(&state.merged).clone(),
        }
    }

    /// Renders the `stats` response line.
    fn render_stats(&self, id: Option<&str>) -> String {
        let stats = self.stats();
        let cache = |s: &CacheStatsSnapshot| {
            format!(
                "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{},\"bytes\":{}}}",
                s.hits, s.misses, s.evictions, s.entries, s.bytes
            )
        };
        let metrics = match &stats.metrics {
            Some(snapshot) => snapshot.to_json_compact(),
            None => "null".to_string(),
        };
        format!(
            "{{\"id\":{},\"stats\":{{\"uptime_s\":{:.3},\"queued\":{},\"in_flight\":{},\
             \"served\":{},\"overloaded\":{},\"verdict_cache\":{},\"metrics\":{}}}}}",
            id_json(id.unwrap_or("stats")),
            stats.uptime_seconds,
            stats.queued,
            stats.in_flight,
            stats.served,
            stats.overloaded,
            cache(&stats.verdicts),
            metrics,
        )
    }

    /// Renders the post-drain shutdown acknowledgement.
    #[must_use]
    pub fn shutdown_ack(id: Option<&str>, hard: bool) -> String {
        format!(
            "{{\"id\":{},\"ok\":true,\"drained\":true,\"hard\":{}}}",
            id_json(id.unwrap_or("shutdown")),
            hard
        )
    }
}

/// One worker's dispatch loop: take the oldest queued job, wait when
/// the queue is dry, exit when the server drains. The server-wide
/// shutdown token is polled on every iterating path (claim wait and job
/// dispatch) so a hard shutdown also flushes still-queued jobs (their
/// request tokens are already cancelled; solving them is a no-op poll,
/// but skipping the solve entirely keeps the drain prompt).
fn worker_loop(state: &Arc<ServerState>, worker: usize) {
    loop {
        let job = {
            let mut queue = lock(&state.queue);
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    queue.in_flight += 1;
                    break Some(job);
                }
                if queue.draining || state.shutdown.is_cancelled() {
                    break None;
                }
                queue = match state.available.wait(queue) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        let Some(job) = job else {
            return;
        };
        let seq = job.seq;
        let sink = Arc::clone(&job.sink);
        let response = if state.shutdown.is_cancelled() {
            let outcome = JobOutcome::Limit(hqs_base::Exhaustion::Cancelled);
            unsolved_response(&job, outcome, worker)
        } else {
            match catch_unwind(AssertUnwindSafe(|| execute(state, &job, worker))) {
                Ok(response) => response,
                Err(panic) => {
                    let outcome = JobOutcome::Panicked(panic_message(panic.as_ref()));
                    unsolved_response(&job, outcome, worker)
                }
            }
        };
        sink(&response);
        state.served.fetch_add(1, Ordering::Relaxed);
        lock(&state.tokens).remove(&seq);
        lock(&state.queue).in_flight -= 1;
        state.available.notify_all();
    }
}

/// Solves one request end to end and renders its response line.
fn execute(state: &Arc<ServerState>, job: &Job, worker: usize) -> String {
    let started = Instant::now();
    let text = match (&job.request.file, &job.request.dqdimacs) {
        (Some(path), _) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => return error_response(&job.id, &format!("cannot read {path}: {err}")),
        },
        (None, Some(inline)) => inline.clone(),
        (None, None) => return error_response(&job.id, "request carries no formula"),
    };
    let file = match hqs_cnf::dimacs::parse_dqdimacs(&text) {
        Ok(file) => file,
        Err(err) => return error_response(&job.id, &err.to_string()),
    };
    let dqbf = Dqbf::from_file(&file);

    let mut config = state.opts.config.clone();
    config.certify = job.request.certify.unwrap_or(config.certify);
    let fingerprint = config.fingerprint();
    let verdict_key = (canonical_formula_hash(&dqbf), fingerprint);
    // Certified requests must rebuild their certificate; everything else
    // can be answered from the verdict cache.
    if !config.certify {
        if let Some(sat) = state.verdicts.get(&verdict_key) {
            let outcome = if sat {
                JobOutcome::Sat
            } else {
                JobOutcome::Unsat
            };
            return render_response(
                &job.id,
                &record(job, &outcome, false, started, worker, fingerprint, None),
                true,
            );
        }
    }

    let mut budget = Budget::new().with_cancel_token(job.cancel.clone());
    let timeout = job
        .request
        .timeout_ms
        .map(Duration::from_millis)
        .or(state.opts.default_timeout);
    if let Some(timeout) = timeout {
        budget = budget.with_timeout(timeout);
    }
    if let Some(nodes) = job.request.node_limit.or(state.opts.default_node_limit) {
        budget = budget.with_node_limit(nodes);
    }
    config.budget = budget;

    // `stats` and the response render counters and gauges only, so the
    // request records no span.
    let registry = Arc::new(MetricsRegistry::new());
    let attached = Some(Arc::clone(&registry) as _);
    let (outcome, certified) = match solve_job(&dqbf, config, attached) {
        Ok(verdict) => (JobOutcome::from(verdict.result), verdict.certified),
        Err(JobError::Config(err)) => return error_response(&job.id, &err.to_string()),
        Err(JobError::Certify(err)) => (JobOutcome::Error(err.to_string()), false),
    };

    match outcome {
        JobOutcome::Sat => state.verdicts.insert(verdict_key, true, VERDICT_COST),
        JobOutcome::Unsat => state.verdicts.insert(verdict_key, false, VERDICT_COST),
        _ => {}
    }
    let snapshot = registry.snapshot();
    {
        let mut merged = lock(&state.merged);
        match merged.as_mut() {
            Some(merged) => merged.merge(&snapshot),
            None => *merged = Some(snapshot.clone()),
        }
    }
    render_response(
        &job.id,
        &record(
            job,
            &outcome,
            certified,
            started,
            worker,
            fingerprint,
            Some(snapshot),
        ),
        false,
    )
}

/// Approximate byte cost of one verdict-cache entry (key + value +
/// map overhead).
const VERDICT_COST: usize = 64;

/// Byte budget of the verdict cache (1 MiB, about 16k verdicts).
const VERDICT_CACHE_BYTES: usize = 1 << 20;

/// Builds the batch-schema record for one served request.
fn record(
    job: &Job,
    outcome: &JobOutcome,
    certified: bool,
    started: Instant,
    worker: usize,
    fingerprint: u64,
    metrics: Option<MetricsSnapshot>,
) -> JobRecord {
    JobRecord {
        index: job.seq as usize,
        name: job.id.clone(),
        entry: "serve".to_string(),
        config_hash: fingerprint,
        outcome: outcome.clone(),
        certified,
        wall_seconds: started.elapsed().as_secs_f64(),
        cpu_seconds: None,
        worker,
        metrics,
    }
}

/// Maps a job outcome to the (Q)DIMACS-convention exit code the batch
/// runner uses: 10 SAT, 20 UNSAT, 30 budget-limited, 1 failure.
fn exit_code(outcome: &JobOutcome) -> u32 {
    match outcome {
        JobOutcome::Sat => 10,
        JobOutcome::Unsat => 20,
        JobOutcome::Limit(_) => 30,
        JobOutcome::Panicked(_) | JobOutcome::Error(_) => 1,
    }
}

/// Wraps a batch-schema record into a response line:
/// `{"id":…,"exit_code":…,"cached":…,` + the record's own fields.
fn render_response(id: &str, record: &JobRecord, cached: bool) -> String {
    let body = record.to_jsonl();
    format!(
        "{{\"id\":{},\"exit_code\":{},\"cached\":{},{}",
        id_json(id),
        exit_code(&record.outcome),
        cached,
        body.strip_prefix('{').unwrap_or(&body)
    )
}

/// Response for a job that produced no verdict: flushed by a hard
/// shutdown without solving, or panicked (the panic is confined to the
/// job, mirroring the batch scheduler).
fn unsolved_response(job: &Job, outcome: JobOutcome, worker: usize) -> String {
    render_response(
        &job.id,
        &record(job, &outcome, false, Instant::now(), worker, 0, None),
        false,
    )
}

/// Renders a `ServeStats` line fragment for logs (`c`-prefixed human
/// text used by the transports at drain time).
pub(crate) fn drain_summary(stats: &ServeStats) -> String {
    format!(
        "served {} (overloaded {}), verdict cache {}/{}",
        stats.served,
        stats.overloaded,
        stats.verdicts.hits,
        stats.verdicts.hits + stats.verdicts.misses,
    )
}
