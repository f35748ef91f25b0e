//! Metric names and units, summary statistics, and the report a run
//! prints.

use std::fmt::Write as _;

/// End-to-end metrics, reported by untraced runs of every workload. Every
/// time is scaled by the probe factor of the pass it was measured in.
pub const END_TO_END: &[(&str, &str)] = &[
    // Median wall time of the run's set-ups: instance generation,
    // DQDIMACS rendering and the seed's job order.
    ("setup_s", "s"),
    // Time for the jobs the oracle expects to solve: the sum of each
    // job's median latency over the passes.
    ("wall_s", "s"),
    // Jobs with a definitive verdict in every pass they ran in, expected
    // memouts included.
    ("solved", "count"),
    // Median over the timed jobs of each job's median latency (parse
    // plus solve, plus certificate work for certify), as a Harrell–Davis
    // estimate.
    ("lat_p50_ms", "ms"),
    // The highest percentile of those latencies with at least ten jobs
    // beyond it, estimated the same way; the report names the
    // percentile and the job count.
    ("lat_tail_ms", "ms"),
];

/// Per-layer metrics, reported by traced runs. Times are self-times
/// summed over one traced pass; a layer the workload does not reach, or
/// cannot attribute, reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cnf.parse_ms_per_job", "ms"),
    ("core.preprocess_s", "s"),
    ("core.build_aig_s", "s"),
    ("core.elim_set_s", "s"),
    ("core.elim_set_max_inst_s", "s"),
    ("core.elim_set_share", "ratio"),
    ("core.elim_universal_s", "s"),
    ("core.elim_existential_s", "s"),
    ("core.elim_loop_self_s", "s"),
    ("core.elim_loop_self_share", "ratio"),
    ("core.universal_elims", "count"),
    ("core.elim_node_growth", "count"),
    ("aig.peak_nodes", "count"),
    ("qbf.finish_s", "s"),
    ("qbf.universal_elims", "count"),
    ("qbf.existential_elims", "count"),
    ("qbf.unit_pure_elims", "count"),
    ("qbf.peak_nodes", "count"),
    ("sat.calls", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("cert.extract_s", "s"),
    ("cert.verify_s", "s"),
    ("engine.job_busy_s", "s"),
    ("engine.idle_s", "s"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The unit of a metric named in [`END_TO_END`] or [`PER_LAYER`].
#[must_use]
pub(crate) fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}

/// The median of `values` (0 for none).
#[must_use]
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method).
#[must_use]
pub(crate) fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    match len {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Simpson steps per order statistic in [`percentile`]; even.
const SIMPSON_STEPS: usize = 16;

/// The Harrell–Davis estimate of percentile `p` (in `0..1`) of
/// `values`: a weighted mean of all order statistics, the `i`-th
/// smallest weighted by the chance that a Beta(p(n+1), (1−p)(n+1))
/// variable falls in `((i−1)/n, i/n]`. Where the sorted values have
/// gaps, as in the sparse tail of a few dozen jobs of unequal size, a
/// single order statistic jumps across a gap whenever two jobs swap
/// places; this estimate moves smoothly.
#[must_use]
pub(crate) fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let a = p * (n + 1) as f64;
    let b = (1.0 - p) * (n + 1) as f64;
    // The Beta density on a grid of SIMPSON_STEPS points per order
    // statistic, scaled by its largest value to stay in range; the
    // end points, where it may be unbounded, count as 0.
    let points = n * SIMPSON_STEPS;
    let log_density: Vec<f64> = (0..=points)
        .map(|k| {
            let x = k as f64 / points as f64;
            if k == 0 || k == points {
                f64::NEG_INFINITY
            } else {
                (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
            }
        })
        .collect();
    let peak = log_density
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let density = |k: usize| (log_density[k] - peak).exp();
    let (mut total, mut weighted) = (0.0, 0.0);
    for (i, &value) in sorted.iter().enumerate() {
        let first = i * SIMPSON_STEPS;
        let mass: f64 = (0..=SIMPSON_STEPS)
            .map(|k| {
                let weight = match k {
                    0 => 1.0,
                    k if k == SIMPSON_STEPS => 1.0,
                    k if k % 2 == 1 => 4.0,
                    _ => 2.0,
                };
                weight * density(first + k)
            })
            .sum();
        total += mass;
        weighted += mass * value;
    }
    weighted / total
}

/// The highest of p50/p80/p90/p95/p99/p99.9 that leaves at least ten of
/// `samples` beyond it (p50 when there are too few samples for any).
#[must_use]
pub(crate) fn tail_percentile(samples: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9, 0.8]
        .into_iter()
        .find(|p| (samples as f64 * (1.0 - p)).round() >= 10.0)
        .unwrap_or(0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// What one run prints.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was a traced run.
    pub trace: bool,
    /// Passes made.
    pub passes: usize,
    /// No verdict contradicted the oracle.
    pub correct: bool,
    /// Jobs issued.
    pub attempted: usize,
    /// Jobs without the expected answer.
    pub failed: usize,
    /// `(name, value)` in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra lines printed under the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// The human-readable report: one line per metric with its unit.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  trace {}  passes {}  nproc {}\n",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.passes,
            nproc()
        );
        for &(name, value) in &self.metrics {
            let unit = unit_of(name).unwrap_or("");
            let _ = writeln!(out, "  {name:<28} {value:>14.6} {unit}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        out
    }

    /// The result line: `{"correct","attempted","failed","metrics"}`.
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The result file `--out` writes: the result line plus the run's
    /// identity, which `benchmark compare` pairs runs by.
    #[must_use]
    pub fn file_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"passes\":{},\"nproc\":{},\
             \"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}\n",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.passes,
            nproc(),
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    json_number(value),
                    unit_of(name).unwrap_or("")
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// `value` as a JSON number with all its digits (non-finite values,
/// which JSON cannot carry, become 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// The parallelism the run had available.
#[must_use]
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        // Symmetric weights around the middle of 1..=100.
        assert!((percentile(&values, 0.5) - 50.5).abs() < 1e-6);
        let p99 = percentile(&values, 0.99);
        assert!((98.5..100.0).contains(&p99), "{p99}");
        assert_eq!(percentile(&[7.0; 5], 0.8), 7.0);
        assert_eq!(percentile(&[4.0], 0.9), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentiles_move_smoothly_across_a_gap() {
        // Ten small jobs and ten large ones: nudging the largest small
        // job past the smallest large one moves the 10th order
        // statistic from 10 to 100; this estimate moves a fifth of that.
        let mut values: Vec<f64> = (1..=10)
            .map(f64::from)
            .chain((100..110).map(f64::from))
            .collect();
        let before = percentile(&values, 0.5);
        values[9] = 100.5;
        let after = percentile(&values, 0.5);
        assert!(
            after > before && after - before < 20.0,
            "{before} -> {after}"
        );
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(182), 0.9);
        assert_eq!(tail_percentile(87), 0.8);
        assert_eq!(tail_percentile(56), 0.8);
        assert_eq!(tail_percentile(2000), 0.99);
        assert_eq!(tail_percentile(12), 0.5);
    }

    #[test]
    fn every_metric_has_a_unique_name() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            correct: true,
            attempted: 3,
            metrics: vec![("wall_s", 1.5)],
            ..Report::default()
        };
        assert_eq!(
            report.json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"wall_s\":{\"value\":1.5,\"unit\":\"s\"}}}"
        );
    }
}
