//! Benchmark harness regenerating the HQS paper's evaluation
//! (Table I and Fig. 4).
//!
//! The binaries:
//!
//! * `table1` — runs HQS and the iDQ-style baseline over the PEC suite and
//!   prints Table I (per-family solved/unsolved/total-time rows) together
//!   with the paper's headline claims (solved superset, <1 s fraction,
//!   speed-up factors).
//! * `fig4` — emits per-instance runtime pairs as CSV and an ASCII
//!   log-log scatter in the style of Fig. 4.
//!
//! Both accept `--scale smoke|ci|paper` and `--timeout <seconds>`;
//! instance sizes are scaled-down regenerations (see `DESIGN.md`), so the
//! *shape* of the results — who solves what, and by what kind of margin —
//! is the reproduction target, not absolute numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hqs_base::{Budget, Exhaustion};
use hqs_core::Session;
use hqs_idq::InstantiationSolver;
use hqs_pec::{benchmark_suite, Family, PecInstance, Scale};
use std::time::{Duration, Instant};

/// Outcome of one solver on one instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Solved: satisfiable.
    Sat,
    /// Solved: unsatisfiable.
    Unsat,
    /// Timed out (paper: TO).
    Timeout,
    /// Hit the memory/node ceiling (paper: MO).
    Memout,
}

impl Outcome {
    /// `true` for Sat/Unsat.
    #[must_use]
    pub fn solved(self) -> bool {
        matches!(self, Outcome::Sat | Outcome::Unsat)
    }

    fn from_verdict(result: hqs_core::Outcome) -> Self {
        match result {
            hqs_core::Outcome::Sat => Outcome::Sat,
            hqs_core::Outcome::Unsat => Outcome::Unsat,
            // Cancellation only occurs under the portfolio engine; the
            // sequential harness buckets it with timeouts for Table I.
            hqs_core::Outcome::Unknown(Exhaustion::Timeout | Exhaustion::Cancelled) => {
                Outcome::Timeout
            }
            hqs_core::Outcome::Unknown(Exhaustion::Memout) => Outcome::Memout,
        }
    }
}

/// Timing and outcome of both solvers on one instance.
#[derive(Clone, Debug)]
pub struct InstanceRun {
    /// Instance name.
    pub name: String,
    /// Family.
    pub family: Family,
    /// HQS outcome.
    pub hqs: Outcome,
    /// HQS wall-clock seconds.
    pub hqs_seconds: f64,
    /// Baseline outcome.
    pub idq: Outcome,
    /// Baseline wall-clock seconds.
    pub idq_seconds: f64,
}

/// Node ceiling used as the "8 GB" analogue for HQS (AIG nodes).
pub const HQS_NODE_LIMIT: usize = 3_000_000;
/// Ground-clause ceiling for the instantiation baseline.
pub const IDQ_CLAUSE_LIMIT: usize = 3_000_000;

/// Runs both solvers on one instance under the given per-solver timeout.
#[must_use]
pub fn run_instance(instance: &PecInstance, timeout: Duration) -> InstanceRun {
    let start = Instant::now();
    let mut hqs = Session::builder()
        .config(hqs_core::HqsConfig {
            budget: Budget::new()
                .with_timeout(timeout)
                .with_node_limit(HQS_NODE_LIMIT),
            ..hqs_core::HqsConfig::default()
        })
        .build()
        .expect("benchmark config is valid");
    let hqs_result = hqs.solve(&instance.dqbf);
    let hqs_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut idq = InstantiationSolver::new();
    idq.set_budget(
        Budget::new()
            .with_timeout(timeout)
            .with_node_limit(IDQ_CLAUSE_LIMIT),
    );
    let idq_result = idq.solve(&instance.dqbf);
    let idq_seconds = start.elapsed().as_secs_f64();

    InstanceRun {
        name: instance.name.clone(),
        family: instance.family,
        hqs: Outcome::from_verdict(hqs_result),
        hqs_seconds,
        idq: Outcome::from_verdict(idq_result.into()),
        idq_seconds,
    }
}

/// Runs the whole suite at `scale`; prints one progress dot per instance
/// to stderr when `progress` is set.
#[must_use]
pub fn run_suite(scale: Scale, timeout: Duration, progress: bool) -> Vec<InstanceRun> {
    let instances = benchmark_suite(scale);
    let mut runs = Vec::with_capacity(instances.len());
    for instance in &instances {
        let run = run_instance(instance, timeout);
        if progress {
            let marker = match (run.hqs.solved(), run.idq.solved()) {
                (true, true) => ".",
                (true, false) => "+",
                (false, true) => "-",
                (false, false) => "!",
            };
            eprint!("{marker}");
        }
        // Consistency guard: two solvers may never disagree on a verdict.
        if run.hqs.solved() && run.idq.solved() {
            assert_eq!(run.hqs, run.idq, "solver disagreement on {}", run.name);
        }
        runs.push(run);
    }
    if progress {
        eprintln!();
    }
    runs
}

/// Aggregated per-family row of Table I for one solver.
#[derive(Clone, Copy, Default, Debug)]
pub struct SolverRow {
    /// Solved instances.
    pub solved: usize,
    /// … of which satisfiable.
    pub sat: usize,
    /// … of which unsatisfiable.
    pub unsat: usize,
    /// Unsolved instances.
    pub unsolved: usize,
    /// … of which timeouts.
    pub timeouts: usize,
    /// … of which memouts.
    pub memouts: usize,
    /// Accumulated seconds on instances solved by *both* solvers.
    pub total_time_common: f64,
}

/// One row of Table I.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// The family (or "total").
    pub label: String,
    /// Number of instances.
    pub instances: usize,
    /// HQS aggregate.
    pub hqs: SolverRow,
    /// Baseline aggregate.
    pub idq: SolverRow,
}

/// Builds Table I rows (one per family plus a total row).
#[must_use]
pub fn tabulate(runs: &[InstanceRun]) -> Vec<TableRow> {
    let mut rows: Vec<TableRow> = Vec::new();
    for family in Family::ALL {
        let subset: Vec<&InstanceRun> = runs.iter().filter(|r| r.family == family).collect();
        if subset.is_empty() {
            continue;
        }
        rows.push(aggregate(family.name(), &subset));
    }
    let all: Vec<&InstanceRun> = runs.iter().collect();
    rows.push(aggregate("total", &all));
    rows
}

fn aggregate(label: &str, runs: &[&InstanceRun]) -> TableRow {
    let mut hqs = SolverRow::default();
    let mut idq = SolverRow::default();
    for run in runs {
        tally(&mut hqs, run.hqs);
        tally(&mut idq, run.idq);
        if run.hqs.solved() && run.idq.solved() {
            hqs.total_time_common += run.hqs_seconds;
            idq.total_time_common += run.idq_seconds;
        }
    }
    TableRow {
        label: label.to_string(),
        instances: runs.len(),
        hqs,
        idq,
    }
}

fn tally(row: &mut SolverRow, outcome: Outcome) {
    match outcome {
        Outcome::Sat => {
            row.solved += 1;
            row.sat += 1;
        }
        Outcome::Unsat => {
            row.solved += 1;
            row.unsat += 1;
        }
        Outcome::Timeout => {
            row.unsolved += 1;
            row.timeouts += 1;
        }
        Outcome::Memout => {
            row.unsolved += 1;
            row.memouts += 1;
        }
    }
}

/// Renders Table I in the paper's layout.
#[must_use]
pub fn render_table(rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>6} | {:>6} {:>11} {:>8} {:>9} {:>11} | {:>6} {:>11} {:>8} {:>9} {:>11}\n",
        "", "", "HQS", "", "", "", "", "iDQ-style", "", "", "", ""
    ));
    out.push_str(&format!(
        "{:<10} {:>6} | {:>6} {:>11} {:>8} {:>9} {:>11} | {:>6} {:>11} {:>8} {:>9} {:>11}\n",
        "benchmark",
        "#inst",
        "solved",
        "(SAT/UNSAT)",
        "unsolved",
        "(TO/MO)",
        "time[s]",
        "solved",
        "(SAT/UNSAT)",
        "unsolved",
        "(TO/MO)",
        "time[s]",
    ));
    out.push_str(&"-".repeat(132));
    out.push('\n');
    for row in rows {
        out.push_str(&format!(
            "{:<10} {:>6} | {:>6} {:>11} {:>8} {:>9} {:>11.2} | {:>6} {:>11} {:>8} {:>9} {:>11.2}\n",
            row.label,
            row.instances,
            row.hqs.solved,
            format!("({}/{})", row.hqs.sat, row.hqs.unsat),
            row.hqs.unsolved,
            format!("({}/{})", row.hqs.timeouts, row.hqs.memouts),
            row.hqs.total_time_common,
            row.idq.solved,
            format!("({}/{})", row.idq.sat, row.idq.unsat),
            row.idq.unsolved,
            format!("({}/{})", row.idq.timeouts, row.idq.memouts),
            row.idq.total_time_common,
        ));
    }
    out
}

/// Headline claims of Section IV, computed from the runs.
#[must_use]
pub fn render_claims(runs: &[InstanceRun]) -> String {
    let hqs_solved = runs.iter().filter(|r| r.hqs.solved()).count();
    let idq_solved = runs.iter().filter(|r| r.idq.solved()).count();
    let superset = runs.iter().all(|r| !r.idq.solved() || r.hqs.solved());
    let hqs_sub1s = runs
        .iter()
        .filter(|r| r.hqs.solved() && r.hqs_seconds < 1.0)
        .count();
    let idq_sub1s = runs
        .iter()
        .filter(|r| r.idq.solved() && r.idq_seconds < 1.0)
        .count();
    let common: Vec<&InstanceRun> = runs
        .iter()
        .filter(|r| r.hqs.solved() && r.idq.solved())
        .collect();
    let max_speedup = common
        .iter()
        .map(|r| r.idq_seconds / r.hqs_seconds.max(1e-6))
        .fold(0.0f64, f64::max);
    let mut out = String::new();
    out.push_str("Paper claims, recomputed on this run:\n");
    out.push_str(&format!(
        "  * HQS solves every instance the baseline solves: {superset}\n"
    ));
    out.push_str(&format!(
        "  * solved instances: HQS {hqs_solved}, baseline {idq_solved} (+{:.0}%)\n",
        if idq_solved > 0 {
            100.0 * (hqs_solved as f64 - idq_solved as f64) / idq_solved as f64
        } else {
            f64::INFINITY
        }
    ));
    out.push_str(&format!(
        "  * solved in <1s: HQS {hqs_sub1s}/{hqs_solved} ({:.0}%), baseline {idq_sub1s}/{idq_solved}\n",
        if hqs_solved > 0 {
            100.0 * hqs_sub1s as f64 / hqs_solved as f64
        } else {
            0.0
        }
    ));
    out.push_str(&format!(
        "  * max per-instance speed-up over the baseline: {max_speedup:.0}x\n"
    ));
    out
}

/// Renders the Fig. 4 scatter as CSV (`name,family,hqs_s,idq_s,hqs,idq`).
#[must_use]
pub fn render_csv(runs: &[InstanceRun]) -> String {
    let mut out = String::from("name,family,hqs_seconds,idq_seconds,hqs_outcome,idq_outcome\n");
    for run in runs {
        out.push_str(&format!(
            "{},{},{:.6},{:.6},{:?},{:?}\n",
            run.name, run.family, run.hqs_seconds, run.idq_seconds, run.hqs, run.idq
        ));
    }
    out
}

/// ASCII log-log scatter in the style of Fig. 4: x = HQS runtime,
/// y = baseline runtime; markers above the diagonal mean HQS was faster.
#[must_use]
pub fn render_scatter(runs: &[InstanceRun], timeout: Duration) -> String {
    const CELLS: usize = 48;
    let limit = timeout.as_secs_f64();
    let floor = 1e-4f64;
    let coord = |seconds: f64, solved: bool| -> usize {
        if !solved {
            return CELLS - 1; // TO/MO rail
        }
        let clamped = seconds.clamp(floor, limit);
        let t = (clamped / floor).ln() / (limit / floor).ln();
        ((t * (CELLS - 2) as f64) as usize).min(CELLS - 3) + 1
    };
    let mut grid = vec![vec![' '; CELLS]; CELLS];
    for (i, row) in grid.iter_mut().enumerate() {
        row[0] = '|';
        let diag = CELLS - 1 - i;
        if row[diag] == ' ' {
            row[diag] = '\\';
        }
    }
    for c in grid[CELLS - 1].iter_mut() {
        *c = '-';
    }
    for run in runs {
        let x = coord(run.hqs_seconds, run.hqs.solved());
        let y = coord(run.idq_seconds, run.idq.solved());
        let row = CELLS - 1 - y;
        grid[row][x] = match grid[row][x] {
            ' ' | '\\' | '-' | '|' => 'o',
            'o' => 'O',
            _ => '@',
        };
    }
    let mut out = String::new();
    out.push_str("baseline runtime (log, up) vs HQS runtime (log, right);\n");
    out.push_str("top / right rails = TO/MO; markers above the diagonal: HQS faster\n");
    for row in grid {
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out
}

/// Parses the `--scale` / `--timeout` command-line options shared by
/// the binaries. Returns `(scale, timeout)`.
#[must_use]
pub fn parse_args(args: &[String]) -> (Scale, Duration) {
    let mut scale = Scale::Ci;
    let mut timeout = Duration::from_secs(10);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("smoke") => Scale::Smoke,
                    Some("ci") => Scale::Ci,
                    Some("paper") => Scale::Paper,
                    other => panic!("unknown scale {other:?} (smoke|ci|paper)"),
                };
            }
            "--timeout" => {
                i += 1;
                let secs: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--timeout takes seconds");
                timeout = Duration::from_secs(secs);
            }
            other => panic!("unknown option {other} (--scale, --timeout)"),
        }
        i += 1;
    }
    (scale, timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqs_pec::families::generate;

    #[test]
    fn run_instance_produces_consistent_verdicts() {
        let instance = generate(Family::PecXor, 4, 2, 1, false);
        let run = run_instance(&instance, Duration::from_secs(30));
        assert!(run.hqs.solved());
        assert_eq!(run.hqs, Outcome::Sat);
        if run.idq.solved() {
            assert_eq!(run.idq, Outcome::Sat);
        }
    }

    #[test]
    fn tabulate_counts_add_up() {
        let runs = vec![
            InstanceRun {
                name: "a".into(),
                family: Family::Adder,
                hqs: Outcome::Sat,
                hqs_seconds: 0.1,
                idq: Outcome::Timeout,
                idq_seconds: 5.0,
            },
            InstanceRun {
                name: "b".into(),
                family: Family::Adder,
                hqs: Outcome::Unsat,
                hqs_seconds: 0.2,
                idq: Outcome::Unsat,
                idq_seconds: 1.0,
            },
        ];
        let rows = tabulate(&runs);
        let adder = &rows[0];
        assert_eq!(adder.instances, 2);
        assert_eq!(adder.hqs.solved, 2);
        assert_eq!(adder.hqs.sat, 1);
        assert_eq!(adder.idq.solved, 1);
        assert_eq!(adder.idq.timeouts, 1);
        // Common time only counts instance "b".
        assert!((adder.hqs.total_time_common - 0.2).abs() < 1e-9);
        let total = rows.last().unwrap();
        assert_eq!(total.instances, 2);
    }

    #[test]
    fn rendering_does_not_panic() {
        let runs = vec![InstanceRun {
            name: "x".into(),
            family: Family::Comp,
            hqs: Outcome::Sat,
            hqs_seconds: 0.01,
            idq: Outcome::Memout,
            idq_seconds: 2.0,
        }];
        let rows = tabulate(&runs);
        assert!(render_table(&rows).contains("comp"));
        assert!(render_claims(&runs).contains("HQS"));
        assert!(render_csv(&runs).contains("Memout"));
        let scatter = render_scatter(&runs, Duration::from_secs(10));
        assert!(scatter.contains('o'));
    }

    #[test]
    fn parse_args_defaults_and_overrides() {
        let (scale, timeout) = parse_args(&[]);
        assert_eq!(scale, Scale::Ci);
        assert_eq!(timeout, Duration::from_secs(10));
        let (scale, timeout) = parse_args(&[
            "--scale".into(),
            "smoke".into(),
            "--timeout".into(),
            "3".into(),
        ]);
        assert_eq!(scale, Scale::Smoke);
        assert_eq!(timeout, Duration::from_secs(3));
    }
}
