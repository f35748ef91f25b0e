//! The three workloads: their set-up, one measured pass each, and the
//! metrics a run derives from its passes.
//!
//! Every workload solves its jobs one at a time on one thread: on the
//! two-vCPU machine the benchmark was sized on, a second worker made
//! each job's time depend on which job happened to share the machine
//! with it, and so on the seed's job order.
//!
//! An untraced run makes as many passes as [`Workload::passes`] gives
//! for `--seconds` over the jobs the oracle expects to solve, and sets
//! its workload up [`SETUPS_PER_PASS`] times before each pass. Between
//! jobs it times the [`Probe`], and it scales each pass's times by that
//! pass's probe factor. Each job is then timed by its median over the
//! passes. The instances the oracle expects to memout run once per run,
//! untimed, spread over the passes (see [`Inputs::memouts`]). A traced
//! run makes one untraced and one traced pass over every job, without
//! the probe: the per-layer metrics come from the traced one, the
//! tracing overhead from the pair.

use crate::corpus::{self, Corpus, Instance, CERTIFY_MAX_UNIVERSALS};
use crate::metrics::{self, Report, END_TO_END, PER_LAYER};
use crate::oracle::{Check, Oracle, Tally, JOB_TIMEOUT, NODE_LIMIT};
use crate::probe::Probe;
use hqs_base::Budget;
use hqs_cnf::dimacs::parse_dqdimacs;
use hqs_core::{extract_refutation, extract_skolem, Dqbf, HqsConfig, Outcome, Session};
use hqs_engine::{run_batch, BatchJob, BatchOptions, JobOutcome, JobRecord};
use hqs_obs::{Metric, MetricKind, MetricsObserver, MetricsSnapshot};
use hqs_pec::Family;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups before each pass; a run reports the median of all its set-ups.
const SETUPS_PER_PASS: usize = 5;

/// Least time between two set-ups timed between jobs. A set-up takes
/// about 20 ms, and the machine's speed holds for seconds at a time: the
/// set-ups before a pass all see one speed, while those spread over the
/// pass see as many as its jobs do.
const SETUP_EVERY: Duration = Duration::from_secs(1);

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The paper's Table I corpus.
    Table1Ci,
    /// Larger PEC instances on which the QBF backend dominates.
    PecGraded,
    /// Solve plus certificate extraction and checking.
    Certify,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Table1Ci, Workload::PecGraded, Workload::Certify];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Ci => "table1-ci",
            Workload::PecGraded => "pec-graded",
            Workload::Certify => "certify",
        }
    }

    /// Parses [`Workload::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Untraced passes a run of `seconds` makes: `seconds` over the
    /// workload's pass time on the reference machine (2 vCPUs), at least
    /// one. A `table1-ci` pass counts the seven memouts, about 25 s of
    /// its 33 s, as they run in every run. The count depends on `seconds`
    /// alone, never on how fast the passes went, so runs with equal
    /// `--seconds` compare like with like.
    #[must_use]
    pub fn passes(self, seconds: f64) -> usize {
        let pass_s = match self {
            Workload::Table1Ci => 33.0,
            Workload::PecGraded => 6.5,
            Workload::Certify => 10.0,
        };
        ((seconds / pass_s) as usize).max(1)
    }

    /// The workload's instances, in corpus order.
    #[must_use]
    pub fn instances(self, smoke: bool) -> Vec<Instance> {
        let instances = match self {
            Workload::Table1Ci => corpus::render(Corpus::Table1Ci),
            Workload::PecGraded => corpus::render(Corpus::PecGraded),
            Workload::Certify => corpus::render(Corpus::Table1Ci)
                .into_iter()
                .filter(|i| i.universals <= CERTIFY_MAX_UNIVERSALS)
                .collect(),
        };
        match (smoke, self) {
            (false, _) => instances,
            // Its smallest formulas are adders and comparators that take
            // minutes in a debug build; these take milliseconds.
            (true, Workload::PecGraded) => instances
                .into_iter()
                .filter(|i| matches!(i.family, Family::Bitcell | Family::Lookahead))
                .collect(),
            (true, _) => corpus::smoke(instances),
        }
    }
}

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Run length; sets the number of untraced passes.
    pub seconds: f64,
    /// Make a traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
    /// Use the small `--smoke` corpora.
    pub smoke: bool,
}

/// Everything a pass needs, built by the set-up.
struct Inputs {
    /// Instances in the seed's issue order.
    jobs: Vec<Instance>,
    /// Per job: the oracle expects a memout.
    memout: Vec<bool>,
}

impl Inputs {
    fn build(opts: &RunOptions, oracle: &Oracle) -> Inputs {
        let instances = opts.workload.instances(opts.smoke);
        let mut slots: Vec<Option<Instance>> = instances.into_iter().map(Some).collect();
        let jobs: Vec<Instance> = corpus::order(opts.seed, slots.len())
            .into_iter()
            .filter_map(|i| slots[i].take())
            .collect();
        let memout = jobs
            .iter()
            .map(|j| oracle.expects_memout(&j.name))
            .collect();
        Inputs { jobs, memout }
    }

    /// Every job, in issue order.
    fn every_job(&self) -> Vec<usize> {
        (0..self.jobs.len()).collect()
    }

    /// The jobs the oracle expects to solve, in issue order: every pass
    /// times all of them.
    fn timed(&self) -> Vec<usize> {
        (0..self.jobs.len())
            .filter(|&job| !self.memout[job])
            .collect()
    }

    /// Pass `pass` of `passes`'s share of the expected memouts, in issue
    /// order: every `passes`-th. A memout takes seconds and ends at the
    /// node limit, so one run of each per run shows whether a change
    /// solves it, and its time is no latency a user waits for: Table I,
    /// too, times solved instances only.
    fn memouts(&self, pass: usize, passes: usize) -> Vec<usize> {
        (0..self.jobs.len())
            .filter(|&job| self.memout[job])
            .skip(pass)
            .step_by(passes.max(1))
            .collect()
    }
}

/// The solver configuration every job runs under.
fn limits() -> HqsConfig {
    HqsConfig {
        budget: Budget::new()
            .with_timeout(JOB_TIMEOUT)
            .with_node_limit(NODE_LIMIT),
        ..HqsConfig::default()
    }
}

fn parse(text: &str) -> Result<Dqbf, String> {
    parse_dqdimacs(text)
        .map(|file| Dqbf::from_file(&file))
        .map_err(|e| e.to_string())
}

/// Per-layer measurements of one traced pass.
#[derive(Default)]
struct Layers {
    /// Self-time per phase name, in seconds.
    phases: BTreeMap<&'static str, f64>,
    /// Counters summed and gauges maxed over the pass's snapshots.
    counters: BTreeMap<&'static str, u64>,
    /// Time inside depth-0 phase spans.
    traced_s: f64,
    /// Largest per-job `elim-set` time.
    elim_set_max_inst_s: f64,
    /// Σ per-job latency: the base of the shares and of the coverage.
    job_s: f64,
    /// Time in spans the benchmark itself wraps around public calls.
    bench_span_s: f64,
    /// Per-layer metrics set directly.
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds one job's counters and spans.
    fn add_snapshot(&mut self, snapshot: &MetricsSnapshot) {
        for &(metric, value) in &snapshot.values {
            let slot = self.counters.entry(metric.name()).or_default();
            match metric.kind() {
                MetricKind::Counter => *slot += value,
                MetricKind::Gauge => *slot = (*slot).max(value),
            }
        }
        let mut elim_set_s = 0.0;
        for node in snapshot.phase_tree() {
            let self_s = node.self_ns as f64 * 1e-9;
            *self.phases.entry(node.span.phase.name()).or_default() += self_s;
            if node.span.phase == hqs_obs::Phase::ElimSet {
                elim_set_s += self_s;
            }
            if node.span.depth == 0 {
                self.traced_s += node.span.dur_ns as f64 * 1e-9;
            }
        }
        self.elim_set_max_inst_s = self.elim_set_max_inst_s.max(elim_set_s);
    }

    /// Every [`PER_LAYER`] metric except the overhead, which needs the
    /// untraced pass.
    fn finish(&self) -> BTreeMap<&'static str, f64> {
        let phase = |name: &str| self.phases.get(name).copied().unwrap_or(0.0);
        let counter =
            |metric: Metric| self.counters.get(metric.name()).copied().unwrap_or(0) as f64;
        let share = |s: f64| {
            if self.job_s > 0.0 {
                s / self.job_s
            } else {
                0.0
            }
        };
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        out.insert("core.preprocess_s", phase("preprocess"));
        out.insert("core.build_aig_s", phase("build-aig"));
        out.insert("core.elim_set_s", phase("elim-set"));
        out.insert("core.elim_set_max_inst_s", self.elim_set_max_inst_s);
        out.insert("core.elim_set_share", share(phase("elim-set")));
        out.insert("core.elim_universal_s", phase("elim-universal"));
        out.insert("core.elim_existential_s", phase("elim-existential"));
        out.insert("core.elim_loop_self_s", phase("elim-loop"));
        out.insert("core.elim_loop_self_share", share(phase("elim-loop")));
        out.insert("core.universal_elims", counter(Metric::UniversalElims));
        out.insert("core.elim_node_growth", counter(Metric::ElimNodeGrowth));
        out.insert("aig.peak_nodes", counter(Metric::AigPeakNodes));
        out.insert("qbf.finish_s", phase("qbf-finish"));
        out.insert("qbf.universal_elims", counter(Metric::QbfUniversalElims));
        out.insert(
            "qbf.existential_elims",
            counter(Metric::QbfExistentialElims),
        );
        out.insert("qbf.unit_pure_elims", counter(Metric::QbfUnitPureElims));
        out.insert("qbf.peak_nodes", counter(Metric::QbfPeakNodes));
        out.insert("sat.calls", counter(Metric::SatCalls));
        out.insert("sat.conflicts", counter(Metric::SatConflicts));
        out.insert("sat.propagations", counter(Metric::SatPropagations));
        out.insert(
            "trace.coverage_frac",
            share(self.traced_s + self.bench_span_s),
        );
        out.extend(self.values.iter().map(|(&k, &v)| (k, v)));
        out
    }
}

/// One job's run in a pass.
struct JobRun {
    /// Index into [`Inputs::jobs`].
    job: usize,
    latency_s: f64,
    /// A definitive verdict.
    solved: bool,
}

/// The result of one pass.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    runs: Vec<JobRun>,
    tally: Tally,
    layers: Layers,
}

impl Pass {
    /// Checks one job's outcome and records its run.
    fn record(&mut self, job: usize, latency_s: f64, check: Check) {
        self.runs.push(JobRun {
            job,
            latency_s,
            solved: check.solved(),
        });
        self.tally.record(check);
        self.layers.job_s += latency_s;
    }
}

/// What an untraced run times besides its jobs: the probe, and set-ups
/// spread over the run.
struct Between<'a> {
    probe: Probe,
    /// Unscaled set-up times since the last [`Between::end_pass`].
    setups: Vec<f64>,
    last_setup: Instant,
    opts: &'a RunOptions,
    oracle: &'a Oracle,
}

impl<'a> Between<'a> {
    fn new(opts: &'a RunOptions, oracle: &'a Oracle) -> Between<'a> {
        Between {
            probe: Probe::new(),
            setups: Vec::new(),
            last_setup: Instant::now(),
            opts,
            oracle,
        }
    }

    /// Times one set-up and returns its inputs.
    fn set_up(&mut self) -> Inputs {
        let started = Instant::now();
        let inputs = Inputs::build(self.opts, self.oracle);
        self.last_setup = Instant::now();
        self.setups.push((self.last_setup - started).as_secs_f64());
        inputs
    }

    /// Probes, and sets up [`SETUPS_PER_PASS`] times; returns the last
    /// set-up's inputs.
    fn start_pass(&mut self) -> Inputs {
        self.probe.sample();
        for _ in 1..SETUPS_PER_PASS {
            self.set_up();
        }
        self.set_up()
    }

    /// Between two jobs: the probe every 250 ms, a set-up every
    /// [`SETUP_EVERY`].
    fn tick(&mut self) {
        self.probe.tick();
        if self.last_setup.elapsed() >= SETUP_EVERY {
            self.set_up();
        }
    }

    /// Probes; returns the pass's probe factor and its set-up times.
    fn end_pass(&mut self) -> (f64, Vec<f64>) {
        self.probe.sample();
        (self.probe.factor(), std::mem::take(&mut self.setups))
    }
}

/// Times what an untraced pass times between two of its jobs.
fn tick(between: Option<&Mutex<Between>>) {
    if let Some(between) = between {
        between
            .lock()
            .expect("no job panics while holding the probe")
            .tick();
    }
}

/// `table1-ci` and `pec-graded`: parse every job, then solve the batch
/// through the engine's scheduler with one worker, as `hqs batch --jobs
/// 1` does. The worker calls the observer between its jobs, which is
/// where the probe and the set-ups run.
fn batch_pass(
    inputs: &Inputs,
    selection: &[usize],
    traced: bool,
    between: Option<&Mutex<Between>>,
    oracle: &Oracle,
) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    let mut parsed = Vec::with_capacity(selection.len());
    let mut batch = Vec::with_capacity(selection.len());
    for &job in selection {
        let instance = &inputs.jobs[job];
        let t = Instant::now();
        match parse(&instance.text) {
            Ok(dqbf) => {
                parsed.push((job, t.elapsed().as_secs_f64()));
                batch.push(BatchJob {
                    name: instance.name.clone(),
                    dqbf,
                });
            }
            Err(e) => pass
                .tally
                .record(Check::Wrong(format!("{}: {e}", instance.name))),
        }
    }
    let opts = BatchOptions {
        workers: 1,
        job_timeout: Some(JOB_TIMEOUT),
        node_limit: Some(NODE_LIMIT),
        collect_metrics: traced,
        ..BatchOptions::default()
    };
    let summary = run_batch(&batch, &opts, &|_: &JobRecord| tick(between));
    pass.wall_s = started.elapsed().as_secs_f64();
    let mut busy_s = 0.0;
    for (record, &(job, parse_s)) in summary.records.iter().zip(&parsed) {
        let check = oracle.check(&record.name, &record.outcome, false);
        pass.record(job, parse_s + record.wall_seconds, check);
        busy_s += record.wall_seconds;
        pass.layers.bench_span_s += parse_s;
        if let Some(snapshot) = &record.metrics {
            pass.layers.add_snapshot(snapshot);
        }
    }
    if traced {
        let parse_total: f64 = parsed.iter().map(|&(_, s)| s).sum();
        let values = &mut pass.layers.values;
        values.insert(
            "cnf.parse_ms_per_job",
            1e3 * parse_total / parsed.len().max(1) as f64,
        );
        values.insert("engine.job_busy_s", busy_s);
        values.insert("engine.idle_s", (summary.wall_seconds - busy_s).max(0.0));
    }
    pass
}

/// `certify`: per instance, parse, solve, extract a certificate and
/// check it — the steps of `Session::solve_certified`, called one by
/// one so each gets its own span.
fn certify_pass(
    inputs: &Inputs,
    selection: &[usize],
    traced: bool,
    between: Option<&Mutex<Between>>,
    oracle: &Oracle,
) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    let (mut parse_total, mut extract_total, mut verify_total) = (0.0, 0.0, 0.0);
    for &job in selection {
        tick(between);
        let instance = &inputs.jobs[job];
        let t0 = Instant::now();
        let dqbf = match parse(&instance.text) {
            Ok(dqbf) => dqbf,
            Err(e) => {
                pass.tally
                    .record(Check::Wrong(format!("{}: {e}", instance.name)));
                continue;
            }
        };
        let parse_s = t0.elapsed().as_secs_f64();
        let observer = traced.then(|| Arc::new(MetricsObserver::new()));
        let mut builder = Session::builder().config(limits());
        if let Some(observer) = &observer {
            builder = builder.observer(Arc::clone(observer) as _);
        }
        let outcome = match builder.build() {
            Ok(mut session) => session.solve(&dqbf),
            Err(e) => {
                pass.tally
                    .record(Check::Wrong(format!("{}: {e}", instance.name)));
                continue;
            }
        };
        let t1 = Instant::now();
        let (certified, extracted) = match outcome {
            Outcome::Sat => {
                let certificate = extract_skolem(&dqbf);
                let extracted = Instant::now();
                (certificate.is_some_and(|c| c.verify(&dqbf)), extracted)
            }
            Outcome::Unsat => {
                let certificate = extract_refutation(&dqbf);
                let extracted = Instant::now();
                (certificate.is_some_and(|c| c.verify(&dqbf)), extracted)
            }
            Outcome::Unknown(_) => (false, t1),
        };
        let done = Instant::now();
        let job_outcome = match outcome {
            Outcome::Sat => JobOutcome::Sat,
            Outcome::Unsat => JobOutcome::Unsat,
            Outcome::Unknown(e) => JobOutcome::Limit(e),
        };
        let check = if matches!(outcome, Outcome::Unknown(_)) || certified {
            oracle.check(&instance.name, &job_outcome, certified)
        } else {
            Check::Wrong(format!(
                "{}: certificate not produced or rejected",
                instance.name
            ))
        };
        pass.record(job, (done - t0).as_secs_f64(), check);
        parse_total += parse_s;
        extract_total += (extracted - t1).as_secs_f64();
        verify_total += (done - extracted).as_secs_f64();
        if let Some(observer) = observer {
            pass.layers.add_snapshot(&observer.snapshot());
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    let layers = &mut pass.layers;
    layers.bench_span_s = parse_total + extract_total + verify_total;
    layers.values.insert(
        "cnf.parse_ms_per_job",
        1e3 * parse_total / pass.runs.len().max(1) as f64,
    );
    layers.values.insert("cert.extract_s", extract_total);
    layers.values.insert("cert.verify_s", verify_total);
    pass
}

fn run_pass(
    workload: Workload,
    inputs: &Inputs,
    selection: &[usize],
    traced: bool,
    between: Option<&Mutex<Between>>,
    oracle: &Oracle,
) -> Pass {
    match workload {
        Workload::Table1Ci | Workload::PecGraded => {
            batch_pass(inputs, selection, traced, between, oracle)
        }
        Workload::Certify => certify_pass(inputs, selection, traced, between, oracle),
    }
}

/// Per job that ran: its median latency over the passes it ran in, and
/// whether every one of its runs gave a definitive verdict.
fn per_job<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> Vec<(f64, bool)> {
    let mut jobs: BTreeMap<usize, (Vec<f64>, bool)> = BTreeMap::new();
    for run in passes.into_iter().flat_map(|p| &p.runs) {
        let (latencies, solved) = jobs.entry(run.job).or_insert((Vec::new(), true));
        latencies.push(run.latency_s);
        *solved &= run.solved;
    }
    jobs.into_values()
        .map(|(latencies, solved)| (metrics::median(&latencies), solved))
        .collect()
}

/// Runs one workload and reports it.
#[must_use]
pub fn run(opts: &RunOptions, oracle: &Oracle) -> Report {
    let mut setup_s = Vec::new();
    // Untraced: passes over the jobs the oracle expects to solve; traced:
    // the untraced pass over every job.
    let mut passes: Vec<Pass> = Vec::new();
    // Untraced runs' expected memouts, untimed.
    let mut memouts: Vec<Pass> = Vec::new();
    let mut traced = None;
    // Per untraced pass: its probe factor, and its job time and median
    // set-up time unscaled.
    let mut factors: Vec<(f64, f64, f64)> = Vec::new();
    if opts.trace {
        let inputs = Inputs::build(opts, oracle);
        let every_job = inputs.every_job();
        let run = |traced| run_pass(opts.workload, &inputs, &every_job, traced, None, oracle);
        passes.push(run(false));
        traced = Some(run(true));
    } else {
        let between = Mutex::new(Between::new(opts, oracle));
        let lock = || {
            between
                .lock()
                .expect("no job panics while holding the probe")
        };
        let count = opts.workload.passes(opts.seconds);
        for k in 0..count {
            let inputs = lock().start_pass();
            let timed = inputs.timed();
            let mut pass = run_pass(
                opts.workload,
                &inputs,
                &timed,
                false,
                Some(&between),
                oracle,
            );
            let (factor, times) = lock().end_pass();
            let job_s: f64 = pass.runs.iter().map(|run| run.latency_s).sum();
            factors.push((factor, job_s, metrics::median(&times)));
            setup_s.extend(times.iter().map(|t| t * factor));
            for run in &mut pass.runs {
                run.latency_s *= factor;
            }
            passes.push(pass);
            let share = inputs.memouts(k, count);
            if !share.is_empty() {
                memouts.push(run_pass(
                    opts.workload,
                    &inputs,
                    &share,
                    false,
                    None,
                    oracle,
                ));
            }
        }
    }

    let mut tally = Tally::default();
    for pass in passes.iter().chain(&memouts).chain(&traced) {
        tally.absorb(&pass.tally);
    }
    let mut report = Report {
        workload: opts.workload.name().to_string(),
        seed: opts.seed,
        trace: opts.trace,
        passes: passes.len() + usize::from(traced.is_some()),
        correct: tally.wrong == 0,
        attempted: tally.attempted,
        failed: tally.failed + tally.wrong,
        ..Report::default()
    };

    match &traced {
        None => {
            let latencies: Vec<f64> = per_job(&passes)
                .into_iter()
                .map(|(latency, _)| latency)
                .collect();
            let solved = per_job(passes.iter().chain(&memouts))
                .into_iter()
                .filter(|&(_, solved)| solved)
                .count();
            let tail = metrics::tail_percentile(latencies.len());
            let values = [
                metrics::median(&setup_s),
                latencies.iter().sum(),
                solved as f64,
                1e3 * metrics::percentile(&latencies, 0.5),
                1e3 * metrics::percentile(&latencies, tail),
            ];
            report.metrics = END_TO_END.iter().map(|m| m.0).zip(values).collect();
            report.notes.push(format!(
                "  latencies are each job's median of {} pass(es); {} expected memouts run once, \
                 untimed; lat_tail_ms is p{} of {} jobs; {} set-ups",
                passes.len(),
                memouts.iter().map(|p| p.runs.len()).sum::<usize>(),
                100.0 * tail,
                latencies.len(),
                setup_s.len()
            ));
            for (k, (factor, job_s, setup_s)) in factors.iter().enumerate() {
                report.notes.push(format!(
                    "  pass {k}: probe factor {factor:.4}; unscaled, jobs {job_s:.3} s and set-up {setup_s:.5} s"
                ));
            }
        }
        Some(pass) => {
            let mut values = pass.layers.finish();
            let untraced_s = passes[0].wall_s;
            let overhead = if untraced_s > 0.0 {
                pass.wall_s / untraced_s - 1.0
            } else {
                0.0
            };
            values.insert("trace.overhead_frac", overhead);
            report.metrics = PER_LAYER
                .iter()
                .map(|&(name, _)| (name, values.get(name).copied().unwrap_or(0.0)))
                .collect();
            report
                .notes
                .extend(claims(&values, pass.wall_s, untraced_s));
        }
    }
    report.notes.push(format!(
        "  peak resident memory {:.1} MB, the probe's 34 MB table included in untraced runs \
         (not a tracked metric: runs of one seed differ by up to 12%)",
        metrics::peak_rss_mb()
    ));
    report.notes.push(format!(
        "  verdicts: {} jobs, {} solved ({} independently verified, {} pinned only, {} unverified), \
         {} expected memouts, {} failed, {} wrong",
        tally.attempted,
        tally.solved,
        tally.verified,
        tally.pinned,
        tally.unverified,
        tally.expected_memouts,
        tally.failed,
        tally.wrong
    ));
    for problem in tally.problems.iter().take(20) {
        report.notes.push(format!("  {problem}"));
    }
    report
}

/// The paper's per-layer claims, as fractions of end-to-end time.
fn claims(
    values: &BTreeMap<&'static str, f64>,
    traced_wall: f64,
    untraced_wall: f64,
) -> Vec<String> {
    let get = |name: &str| values.get(name).copied().unwrap_or(0.0);
    vec![
        "  paper per-layer claims:".to_string(),
        format!(
            "    MaxSAT elimination set under 0.06 s per instance: max {:.6} s ({:.2}% of job time)",
            get("core.elim_set_max_inst_s"),
            100.0 * get("core.elim_set_share")
        ),
        format!(
            "    unit/pure under 4% of run time: elim-loop self-time, an upper bound, is {:.2}%",
            100.0 * get("core.elim_loop_self_share")
        ),
        format!(
            "    trace covers {:.1}% of job time; traced pass {traced_wall:.3} s vs untraced {untraced_wall:.3} s",
            100.0 * get("trace.coverage_frac")
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_count_follows_the_run_length_only() {
        let counts = |seconds| Workload::ALL.map(|w| w.passes(seconds));
        assert_eq!(counts(20.0), [1, 3, 2]);
        assert_eq!(counts(0.0), [1, 1, 1]);
        assert_eq!(counts(66.0), [2, 10, 6]);
    }

    #[test]
    fn memouts_run_once_and_every_other_job_in_every_pass() {
        let job = |name: &str| Instance {
            name: name.to_string(),
            family: Family::C432,
            boxes: 3,
            universals: 0,
            text: String::new(),
        };
        let inputs = Inputs {
            jobs: ["a", "m1", "b", "m2", "m3", "c"].map(job).to_vec(),
            memout: vec![false, true, false, true, true, false],
        };
        assert_eq!(inputs.timed(), [0, 2, 5]);
        let shares: Vec<Vec<usize>> = (0..2).map(|k| inputs.memouts(k, 2)).collect();
        assert_eq!(shares, [vec![1, 4], vec![3]]);
        assert_eq!(inputs.memouts(0, 1), [1, 3, 4]);
        // More passes than memouts: the last passes run none.
        assert!(inputs.memouts(3, 4).is_empty());
        assert_eq!(inputs.every_job(), [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn each_job_keeps_its_median_pass() {
        let pass = |runs: &[(usize, f64, bool)]| Pass {
            runs: runs
                .iter()
                .map(|&(job, latency_s, solved)| JobRun {
                    job,
                    latency_s,
                    solved,
                })
                .collect(),
            ..Pass::default()
        };
        let passes = [
            pass(&[(0, 3.0, true), (1, 1.0, true), (2, 2.0, false)]),
            pass(&[(0, 2.0, true), (1, 4.0, false)]),
            pass(&[(0, 9.0, true)]),
        ];
        assert_eq!(per_job(&passes), [(3.0, true), (2.5, false), (2.0, false)]);
        assert_eq!(
            per_job(&passes[..1]),
            [(3.0, true), (1.0, true), (2.0, false)]
        );
    }
}
