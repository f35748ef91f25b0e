//! Batch-scheduler scaling benchmark: one PEC mini-corpus driven through
//! `hqs_engine::run_batch` at 1, 2 and 4 workers.
//!
//! It measures *throughput scaling* rather than single-kernel latency,
//! so it reports whole-batch wall time per worker count, plus the
//! speedup relative to the single-worker run. Results are written as
//! `BENCH_engine.json` (override the path with the `BENCH_ENGINE_JSON`
//! environment variable) so CI can archive and compare them.

use hqs_base::CancelToken;
use hqs_engine::{run_batch, BatchJob, BatchOptions};
use hqs_pec::families::generate;
use hqs_pec::Family;
use std::fmt::Write as _;
use std::time::Duration;

/// One representative mini-corpus: a spread of families and sizes whose
/// individual solve times are large enough (milliseconds) that worker
/// scaling, not scheduler overhead, dominates the measurement.
fn corpus() -> Vec<BatchJob> {
    let plan = [
        (Family::Adder, 4u32, 2u32),
        (Family::Bitcell, 6, 2),
        (Family::Lookahead, 8, 2),
        (Family::PecXor, 12, 3),
        (Family::Z4, 2, 2),
        (Family::Comp, 4, 2),
        (Family::C432, 4, 2),
    ];
    let mut jobs = Vec::new();
    for (family, size, boxes) in plan {
        for (seed, fault) in [(0u64, false), (1, true)] {
            let instance = generate(family, size, boxes, seed, fault);
            jobs.push(BatchJob {
                name: format!(
                    "{}_n{size}_b{boxes}_s{seed}{}",
                    family.name(),
                    if fault { "_fault" } else { "" }
                ),
                dqbf: instance.dqbf,
            });
        }
    }
    jobs
}

struct Run {
    workers: usize,
    wall_seconds: f64,
    cpu_seconds: f64,
    solved: usize,
    unsolved: usize,
}

fn run_at(jobs: &[BatchJob], workers: usize) -> Run {
    let opts = BatchOptions {
        workers,
        job_timeout: Some(Duration::from_secs(10)),
        node_limit: Some(2_000_000),
        cancel: CancelToken::new(),
        ..BatchOptions::default()
    };
    let summary = run_batch(jobs, &opts, &|_| {});
    Run {
        workers,
        wall_seconds: summary.wall_seconds,
        cpu_seconds: summary.records.iter().filter_map(|r| r.cpu_seconds).sum(),
        solved: summary.sat + summary.unsat,
        unsolved: summary.unsolved + summary.failed,
    }
}

fn main() {
    let jobs = corpus();
    println!("engine_batch: {} jobs", jobs.len());

    // Warm-up pass so first-touch effects (page faults, lazy init) don't
    // land on the single-worker measurement.
    let _ = run_at(&jobs, 1);

    let runs: Vec<Run> = [1usize, 2, 4].iter().map(|&w| run_at(&jobs, w)).collect();
    let base = runs.first().map_or(0.0, |r| r.wall_seconds);

    let mut entries = String::new();
    for run in &runs {
        let speedup = if run.wall_seconds > 0.0 {
            base / run.wall_seconds
        } else {
            0.0
        };
        println!(
            "  {} worker(s): {:.3} s wall, {:.3} s cpu, {} solved, {} unsolved ({speedup:.2}x)",
            run.workers, run.wall_seconds, run.cpu_seconds, run.solved, run.unsolved
        );
        if !entries.is_empty() {
            entries.push(',');
        }
        let _ = write!(
            entries,
            "{{\"workers\":{},\"wall_s\":{:.6},\"cpu_s\":{:.6},\"solved\":{},\
             \"unsolved\":{},\"speedup\":{speedup:.4}}}",
            run.workers, run.wall_seconds, run.cpu_seconds, run.solved, run.unsolved
        );
    }
    let json = format!(
        "{{\"bench\":\"engine_batch\",\"jobs\":{},\"runs\":[{entries}]}}\n",
        jobs.len()
    );
    let path =
        std::env::var("BENCH_ENGINE_JSON").unwrap_or_else(|_| "BENCH_engine.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(err) => eprintln!("warning: cannot write {path}: {err}"),
    }
}
