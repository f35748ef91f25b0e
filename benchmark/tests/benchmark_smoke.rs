//! Runs every workload at `--smoke` size, untraced and traced, and
//! checks the output against `BENCHMARK.json`.

use hqs_analyze::json::{self, Json};
use hqs_benchmark::workloads::Workload;
use hqs_pec::{benchmark_suite, Scale};
use std::process::Command;

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// Runs one smoke workload; returns stdout and the parsed result line.
fn run(workload: Workload, trace: u8) -> (String, Json) {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "0",
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{} --trace {trace} failed:\n{stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    (stdout, result)
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let (stdout, result) = run(workload, trace);
            let keys: Vec<&str> = result
                .as_object()
                .expect("result object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
            let failed = result.get("failed").and_then(Json::as_number);
            assert_eq!(failed, Some(0.0), "{stdout}");
            let metrics = result.get("metrics").expect("metrics");
            let expected = declared(section);
            assert_eq!(
                metrics.as_object().expect("metrics object").len(),
                expected.len(),
                "{} --trace {trace} reports other metrics than BENCHMARK.json declares",
                workload.name()
            );
            for (name, unit) in expected {
                let metric = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{name} missing from {}", workload.name()));
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(unit.as_str())
                );
                let printed = stdout.lines().any(|line| {
                    let fields: Vec<&str> = line.split_whitespace().collect();
                    fields.len() == 3 && fields[0] == name && fields[2] == unit
                });
                assert!(printed, "{name} [{unit}] not printed:\n{stdout}");
            }
            // A release build solves the smoke instances in microseconds,
            // where building a session and an observer per job costs more
            // than 5 % of the job; a debug build's jobs are long enough.
            if trace == 1 && cfg!(debug_assertions) {
                let coverage = metrics
                    .get("trace.coverage_frac")
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_number)
                    .expect("coverage");
                assert!(
                    coverage >= 0.95,
                    "{}: trace covers only {coverage} of job time",
                    workload.name()
                );
            }
        }
    }
}

#[test]
fn table1_ci_is_the_papers_ci_corpus() {
    let ours: Vec<String> = Workload::Table1Ci
        .instances(false)
        .into_iter()
        .map(|i| i.name)
        .collect();
    let paper: Vec<String> = benchmark_suite(Scale::Ci)
        .into_iter()
        .map(|i| i.name)
        .collect();
    assert_eq!(ours, paper);
}
