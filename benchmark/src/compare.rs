//! `benchmark compare <dir-a> <dir-b>`: the A/B verdict over two sets of
//! result files written with `--out`.
//!
//! For each (workload, metric) it prints both sides' median and
//! quartiles and how many seed-paired runs B won. Against the bounds in
//! `BENCHMARK.json` it then calls the pair:
//!
//! * `too few pairs` — fewer than ten seed-paired runs;
//! * `unresolved` — either side's interquartile spread exceeds the
//!   bound, and not every B run beats every A run;
//! * `REGRESSION` — B's median is worse than A's by more than the bound;
//! * `no gain: B failed more` — a `gain` on a workload where B failed
//!   more jobs than A, or gave a wrong verdict where A did not, at some
//!   seed: a faster run that fails more does not count;
//! * `gain` — B won at least nine tenths of the pairs and the medians
//!   differ by more than A's interquartile range;
//! * `within bound` — anything else.
//!
//! Each seed at which B failed more than A is listed after the
//! workload's rows and counts as a regression.

use crate::metrics::quartiles;
use hqs_analyze::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Seed-paired runs needed before a pair is called at all.
const MIN_PAIRS: usize = 10;

/// One result file.
#[derive(Clone, Debug)]
pub struct RunFile {
    /// Workload name.
    pub workload: String,
    /// Workload seed; runs of A and B with equal seeds form a pair.
    pub seed: u64,
    /// Whether the run was traced.
    pub trace: bool,
    /// Whether every verdict agreed with the oracle.
    pub correct: bool,
    /// Jobs without the expected outcome, wrong verdicts included.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// A metric's regression bound, from `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Bound {
    /// Smaller values are better.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of A's median.
    pub bound: f64,
}

/// Reads every `*.json` result file in `dir`.
///
/// # Errors
///
/// A message naming an unreadable directory or a malformed file.
pub fn load_dir(dir: &Path) -> Result<Vec<RunFile>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            parse_run(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

fn parse_run(text: &str) -> Result<RunFile, String> {
    let doc = json::parse(text)?;
    let field = |key: &str| doc.get(key).ok_or(format!("missing '{key}'"));
    let metrics = field("metrics")?
        .as_object()
        .ok_or("'metrics' is not an object")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_number()?)))
        .collect();
    Ok(RunFile {
        workload: field("workload")?
            .as_str()
            .ok_or("'workload' is not a string")?
            .to_string(),
        seed: field("seed")?.as_number().ok_or("'seed' is not a number")? as u64,
        trace: field("trace")?.as_number() == Some(1.0),
        correct: *field("correct")? == Json::Bool(true),
        failed: field("failed")?
            .as_number()
            .ok_or("'failed' is not a number")? as u64,
        metrics,
    })
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json`.
///
/// # Errors
///
/// A message when the file is unreadable or an entry is malformed.
pub fn load_bounds(path: &Path) -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::as_str);
            let better = entry.get("better").and_then(Json::as_str);
            let bound = entry.get("bound").and_then(Json::as_number);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok((
                    name.to_string(),
                    Bound {
                        lower_is_better: better == "lower",
                        bound,
                    },
                )),
                _ => Err(format!("malformed end_to_end entry {entry:?}")),
            }
        })
        .collect()
}

/// One side's summary of a metric.
struct Side {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let (q1, median, q3) = quartiles(values);
        Side { q1, median, q3 }
    }

    /// Interquartile range as a share of the median.
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Compares run sets `a` (the parent) and `b` (the change). Returns the
/// printed table and whether any metric regressed.
#[must_use]
pub fn compare(a: &[RunFile], b: &[RunFile], bounds: &BTreeMap<String, Bound>) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<26} {:>32} {:>32} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "B won"
    );
    let mut regressed = false;
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for workload in workloads {
        for trace in [false, true] {
            let side = |runs: &[RunFile]| -> Vec<RunFile> {
                runs.iter()
                    .filter(|r| r.workload == workload && r.trace == trace)
                    .cloned()
                    .collect()
            };
            let (runs_a, runs_b) = (side(a), side(b));
            let Some(first) = runs_a.first() else {
                continue;
            };
            let worse_seeds = failed_more(&runs_a, &runs_b);
            for metric in first.metrics.keys() {
                let values = |runs: &[RunFile]| -> Vec<(u64, f64)> {
                    runs.iter()
                        .filter_map(|r| Some((r.seed, *r.metrics.get(metric)?)))
                        .collect()
                };
                let (va, vb) = (values(&runs_a), values(&runs_b));
                if vb.is_empty() {
                    continue;
                }
                let bound = bounds.get(metric.as_str()).copied();
                let (line, worse) = row(&va, &vb, bound, !worse_seeds.is_empty());
                regressed |= worse;
                let _ = writeln!(out, "{workload:<14} {metric:<26} {line}");
            }
            if !worse_seeds.is_empty() {
                regressed = true;
                let _ = writeln!(
                    out,
                    "{workload:<14} REGRESSION: B failed more jobs than A at seed(s) {worse_seeds:?}"
                );
            }
        }
    }
    (out, regressed)
}

/// Seeds at which B failed more jobs than A, or gave a wrong verdict
/// where A did not.
fn failed_more(a: &[RunFile], b: &[RunFile]) -> Vec<u64> {
    b.iter()
        .filter(|rb| {
            a.iter()
                .find(|ra| ra.seed == rb.seed)
                .is_some_and(|ra| rb.failed > ra.failed || (ra.correct && !rb.correct))
        })
        .map(|rb| rb.seed)
        .collect()
}

/// One table row; the flag is set on a regression. `b_failed_more` says
/// B failed more jobs than A at some seed, which rules out a gain.
fn row(
    a: &[(u64, f64)],
    b: &[(u64, f64)],
    bound: Option<Bound>,
    b_failed_more: bool,
) -> (String, bool) {
    let only = |v: &[(u64, f64)]| -> Vec<f64> { v.iter().map(|&(_, x)| x).collect() };
    let (xa, xb) = (only(a), only(b));
    let (sa, sb) = (Side::of(&xa), Side::of(&xb));
    let lower = bound.is_none_or(|b| b.lower_is_better);
    let better = |x: f64, y: f64| if lower { x < y } else { x > y };
    let mut pairs = 0;
    let mut wins = 0;
    for &(seed, x) in b {
        if let Some(&(_, y)) = a.iter().find(|&&(s, _)| s == seed) {
            pairs += 1;
            wins += usize::from(better(x, y));
        }
    }
    let delta = if sa.median == 0.0 {
        0.0
    } else {
        (sb.median - sa.median) / sa.median.abs()
    };
    let cell = |s: &Side| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
    let (verdict, regressed) = match bound {
        None => ("-".to_string(), false),
        Some(_) if pairs < MIN_PAIRS => ("too few pairs".to_string(), false),
        Some(Bound { bound, .. }) => {
            let all_better = xb.iter().all(|&x| xa.iter().all(|&y| better(x, y)));
            let worsening = if lower { delta } else { -delta };
            let gain = better(sb.median, sa.median)
                && 10 * wins >= 9 * pairs
                && (sb.median - sa.median).abs() > sa.q3 - sa.q1;
            if (sa.spread() > bound || sb.spread() > bound) && !all_better {
                ("unresolved".to_string(), false)
            } else if worsening > bound {
                (format!("REGRESSION (bound {:.0}%)", 100.0 * bound), true)
            } else if gain && b_failed_more {
                ("no gain: B failed more".to_string(), false)
            } else if gain {
                ("gain".to_string(), false)
            } else {
                ("within bound".to_string(), false)
            }
        }
    };
    (
        format!(
            "{:>32} {:>32} {:>+7.1}% {:>3}/{:<2}  {verdict}",
            cell(&sa),
            cell(&sb),
            100.0 * delta,
            wins,
            pairs
        ),
        regressed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    const WALL: Option<Bound> = Some(Bound {
        lower_is_better: true,
        bound: 0.05,
    });

    #[test]
    fn a_clear_win_is_a_gain() {
        let a = seeds(&[10.0, 10.1, 10.2, 10.0, 10.1, 10.2, 10.0, 10.1, 10.2, 10.1]);
        let b = seeds(&[9.0, 9.1, 9.2, 9.0, 9.1, 9.2, 9.0, 9.1, 9.2, 9.1]);
        let (line, regressed) = row(&a, &b, WALL, false);
        assert!(line.ends_with("gain"), "{line}");
        assert!(!regressed);
    }

    fn run_file(seed: u64, wall_s: f64, failed: u64) -> RunFile {
        RunFile {
            workload: "pec-graded".to_string(),
            seed,
            trace: false,
            correct: true,
            failed,
            metrics: BTreeMap::from([("wall_s".to_string(), wall_s)]),
        }
    }

    #[test]
    fn a_faster_change_that_fails_more_is_no_gain() {
        let bounds = BTreeMap::from([("wall_s".to_string(), WALL.expect("bound"))]);
        let a: Vec<RunFile> = (0..10)
            .map(|s| run_file(s, 10.0 + 0.01 * s as f64, 0))
            .collect();
        let mut b: Vec<RunFile> = (0..10)
            .map(|s| run_file(s, 9.0 + 0.01 * s as f64, 0))
            .collect();
        let (table, regressed) = compare(&a, &b, &bounds);
        assert!(table.contains("  gain\n"), "{table}");
        assert!(!regressed);

        b[4].failed = 3;
        let (table, regressed) = compare(&a, &b, &bounds);
        assert!(!table.contains("  gain\n"), "{table}");
        assert!(table.contains("no gain: B failed more"), "{table}");
        assert!(
            table.contains("failed more jobs than A at seed(s) [4]"),
            "{table}"
        );
        assert!(regressed);

        b[4].failed = 0;
        b[7].correct = false;
        let (table, regressed) = compare(&a, &b, &bounds);
        assert!(table.contains("seed(s) [7]"), "{table}");
        assert!(regressed);
    }

    #[test]
    fn a_slowdown_beyond_the_bound_regresses() {
        let a = seeds(&[10.0, 10.1, 10.2, 10.0, 10.1, 10.2, 10.0, 10.1, 10.2, 10.1]);
        let b = seeds(&[11.0, 11.1, 11.2, 11.0, 11.1, 11.2, 11.0, 11.1, 11.2, 11.1]);
        let (line, regressed) = row(&a, &b, WALL, false);
        assert!(line.contains("REGRESSION"), "{line}");
        assert!(regressed);
    }

    #[test]
    fn too_few_pairs_are_not_called() {
        let a = seeds(&[10.0, 10.1, 10.2]);
        let b = seeds(&[12.0, 12.1, 12.2]);
        let (line, regressed) = row(&a, &b, WALL, false);
        assert!(line.ends_with("too few pairs"), "{line}");
        assert!(!regressed);
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let a = seeds(&[10.0, 12.0, 8.0, 11.0, 9.0, 10.0, 12.0, 8.0, 11.0, 9.0]);
        let b = seeds(&[10.5, 12.5, 8.5, 11.5, 9.5, 10.5, 12.5, 8.5, 11.5, 9.5]);
        let (line, regressed) = row(&a, &b, WALL, false);
        assert!(line.ends_with("unresolved"), "{line}");
        assert!(!regressed);
    }

    #[test]
    fn higher_is_better_metrics_flip_the_direction() {
        let solved = Some(Bound {
            lower_is_better: false,
            bound: 0.01,
        });
        let a = seeds(&[175.0; 10]);
        let b = seeds(&[170.0; 10]);
        assert!(row(&a, &b, solved, false).1);
        assert!(!row(&b, &a, solved, false).1);
    }

    #[test]
    fn run_files_round_trip() {
        let text = "{\"workload\":\"certify\",\"seed\":3,\"trace\":0,\"passes\":2,\"nproc\":2,\
                    \"correct\":true,\"attempted\":87,\"failed\":2,\
                    \"metrics\":{\"wall_s\":{\"value\":8.5,\"unit\":\"s\"}}}";
        let run = parse_run(text).expect("well-formed");
        assert_eq!(run.workload, "certify");
        assert_eq!(run.seed, 3);
        assert!(!run.trace);
        assert!(run.correct);
        assert_eq!(run.failed, 2);
        assert_eq!(run.metrics.get("wall_s"), Some(&8.5));
    }
}
