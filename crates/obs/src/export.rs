//! Exporters: human summary table, stable JSON, Chrome trace-event JSON.
//!
//! All three read a [`MetricsSnapshot`]; none of them touch live solver
//! state. The JSON exporters emit keys in a fixed order (schema order
//! for metrics, record order for spans) so output is byte-stable for a
//! given snapshot — the golden tests rely on that.

use crate::metric::{Metric, MetricKind};
use crate::registry::{MetricsSnapshot, SCHEMA_VERSION};
use std::fmt::Write as _;

/// Formats a nanosecond duration as seconds with millisecond precision.
fn secs(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e9)
}

/// Formats a nanosecond offset as fractional microseconds (the unit of
/// Chrome trace-event timestamps).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

impl MetricsSnapshot {
    /// Renders the human-readable summary: nonzero metrics grouped as
    /// counters and gauges, followed by the phase tree with total and
    /// self times per span.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let width = Metric::ALL
            .iter()
            .map(|m| m.name().len())
            .max()
            .unwrap_or(0);
        let _ = writeln!(out, "metrics:");
        let mut any = false;
        for (metric, value) in &self.values {
            if *value == 0 {
                continue;
            }
            any = true;
            let tag = match metric.kind() {
                MetricKind::Counter => " ",
                MetricKind::Gauge => "^",
            };
            let _ = writeln!(out, "  {:width$} {tag} {value}", metric.name());
        }
        if !any {
            let _ = writeln!(out, "  (all zero)");
        }
        let tree = self.phase_tree();
        if !tree.is_empty() {
            let _ = writeln!(out, "phases (total / self, seconds):");
            for node in &tree {
                let indent = "  ".repeat(node.span.depth as usize + 1);
                let _ = writeln!(
                    out,
                    "{indent}{:16} {:>9} / {:>9}",
                    node.span.phase.name(),
                    secs(node.span.dur_ns),
                    secs(node.self_ns),
                );
            }
        }
        out
    }

    /// Serialises the snapshot under the stable [`SCHEMA_VERSION`]
    /// schema.
    ///
    /// Shape (key order fixed):
    ///
    /// ```json
    /// {"schema":"hqs-metrics/4","epoch_unix_ns":0,
    ///  "counters":{"sat_calls":0,...},"gauges":{"elim_set_size":0,...},
    ///  "spans":[{"phase":"total","start_ns":0,"dur_ns":0,"tid":0,"depth":0}]}
    /// ```
    ///
    /// Every counter and gauge appears even when zero, so consumers can
    /// index by name without existence checks.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"{SCHEMA_VERSION}\",\"epoch_unix_ns\":{}",
            self.epoch_unix_ns
        );
        for (label, kind) in [
            ("counters", MetricKind::Counter),
            ("gauges", MetricKind::Gauge),
        ] {
            let _ = write!(out, ",\"{label}\":{{");
            let mut first = true;
            for (metric, value) in &self.values {
                if metric.kind() != kind {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{}\":{value}", metric.name());
            }
            out.push('}');
        }
        out.push_str(",\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"phase\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"tid\":{},\"depth\":{}}}",
                span.phase.name(),
                span.start_ns,
                span.dur_ns,
                span.tid,
                span.depth,
            );
        }
        out.push_str("]}");
        out
    }

    /// Serialises only the *nonzero* metrics as one flat JSON object
    /// (`{"sat_calls":3,...}`), smallest useful form for embedding into
    /// per-job JSONL records. Returns `{}` when nothing was recorded.
    ///
    /// Unlike [`to_json`](MetricsSnapshot::to_json) this is *not* under
    /// the schema-stability promise — zero metrics are elided, so keys
    /// come and go with the workload.
    #[must_use]
    pub fn to_json_compact(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (metric, value) in &self.values {
            if *value == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{value}", metric.name());
        }
        out.push('}');
        out
    }

    /// Serialises the spans as Chrome trace-event JSON.
    ///
    /// Each span becomes a complete event (`"ph":"X"`) with
    /// microsecond timestamps relative to the epoch; counters and gauges
    /// ride along as a single metadata-style counter event stream is
    /// deliberately *not* emitted — the JSON schema covers them, the
    /// trace covers time. Load the output in `chrome://tracing` or
    /// [Perfetto](https://ui.perfetto.dev).
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"hqs\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{}}}",
                span.phase.name(),
                micros(span.start_ns),
                micros(span.dur_ns),
                span.tid,
            );
        }
        out.push_str("]}");
        out
    }
}

/// A tiny structural validator for the exporters' output, shared with
/// the golden tests and the CI smoke job via `hqs_obs`.
///
/// This is not a JSON parser: it checks balanced braces/brackets outside
/// strings and that the required top-level keys appear, which is enough
/// to catch a broken writer without pulling in a parsing dependency.
#[must_use]
pub fn looks_like_valid_export(json: &str, required_keys: &[&str]) -> bool {
    let mut depth: i64 = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0
        && !in_string
        && required_keys
            .iter()
            .all(|k| json.contains(&format!("\"{k}\":")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Phase;
    use crate::registry::SpanRecord;

    fn sample() -> MetricsSnapshot {
        let mut values: Vec<(Metric, u64)> = Metric::ALL.iter().map(|&m| (m, 0)).collect();
        for slot in &mut values {
            if slot.0 == Metric::SatConflicts {
                slot.1 = 7;
            }
            if slot.0 == Metric::AigPeakNodes {
                slot.1 = 123;
            }
        }
        MetricsSnapshot {
            epoch_unix_ns: 42,
            values,
            spans: vec![
                SpanRecord {
                    phase: Phase::Total,
                    start_ns: 0,
                    dur_ns: 2_000_000,
                    tid: 9,
                    depth: 0,
                },
                SpanRecord {
                    phase: Phase::Preprocess,
                    start_ns: 500_000,
                    dur_ns: 1_000_000,
                    tid: 9,
                    depth: 1,
                },
            ],
        }
    }

    #[test]
    fn json_has_schema_and_every_metric() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"schema\":\"hqs-metrics/4\""));
        for m in Metric::ALL {
            assert!(
                json.contains(&format!("\"{}\":", m.name())),
                "missing {}",
                m.name()
            );
        }
        assert!(looks_like_valid_export(
            &json,
            &["schema", "epoch_unix_ns", "counters", "gauges", "spans"]
        ));
    }

    #[test]
    fn chrome_trace_is_complete_events() {
        let trace = sample().to_chrome_trace();
        assert!(trace.contains("\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"name\":\"preprocess\""));
        // 500_000 ns = 500 µs.
        assert!(trace.contains("\"ts\":500.000"));
        assert!(looks_like_valid_export(
            &trace,
            &["displayTimeUnit", "traceEvents"]
        ));
    }

    #[test]
    fn summary_lists_nonzero_metrics_and_phase_tree() {
        let summary = sample().render_summary();
        assert!(summary.contains("sat_conflicts"));
        assert!(summary.contains("aig_peak_nodes"));
        assert!(
            !summary.contains("maxsat_calls"),
            "zero metric leaked: {summary}"
        );
        assert!(summary.contains("total"));
        assert!(summary.contains("preprocess"));
    }

    #[test]
    fn validator_rejects_truncated_json() {
        assert!(!looks_like_valid_export("{\"a\":[1,2", &["a"]));
        assert!(!looks_like_valid_export("{\"a\":1}", &["b"]));
        assert!(looks_like_valid_export("{\"a\":1}", &["a"]));
    }
}
