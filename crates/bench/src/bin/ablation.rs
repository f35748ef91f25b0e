//! Ablation study over HQS's design choices (the knobs Section III
//! introduces): each configuration runs the same PEC instance set and the
//! table shows what every ingredient buys.
//!
//! Configurations:
//!
//! * `paper`        — HQS as evaluated in the paper (all optimisations),
//! * `all-univ` — eliminate *all* universals (\[10\]'s strategy) instead of
//!   the MaxSAT-minimal set,
//! * `no-unitpure`  — without Theorem-5/6 elimination in the main loop,
//! * `no-gates`     — without Tseitin gate detection,
//! * `no-preproc`   — without any CNF preprocessing.
//!
//! ```text
//! cargo run -p hqs-bench --release --bin ablation -- --scale smoke --timeout 5
//! ```

#![forbid(unsafe_code)]

use hqs_base::Budget;
use hqs_bench::{parse_args, HQS_NODE_LIMIT};
use hqs_core::{ElimStrategy, HqsConfig, Outcome, Session};
use hqs_pec::benchmark_suite;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, timeout) = parse_args(&args);
    let configs: [(&str, HqsConfig); 5] = [
        ("paper", HqsConfig::default()),
        (
            "all-univ",
            HqsConfig {
                strategy: ElimStrategy::AllUniversals,
                ..HqsConfig::default()
            },
        ),
        (
            "no-unitpure",
            HqsConfig {
                unit_pure: false,
                ..HqsConfig::default()
            },
        ),
        (
            "no-gates",
            HqsConfig {
                gate_detection: false,
                ..HqsConfig::default()
            },
        ),
        (
            "no-preproc",
            HqsConfig {
                preprocess: false,
                gate_detection: false,
                ..HqsConfig::default()
            },
        ),
    ];
    let instances = benchmark_suite(scale);
    eprintln!(
        "ablation over {} instances at {scale:?} scale, {}s timeout",
        instances.len(),
        timeout.as_secs()
    );
    println!(
        "{:<12} {:>7} {:>7} {:>7} {:>10} {:>12}",
        "config", "solved", "SAT", "UNSAT", "unsolved", "time[s]"
    );
    println!("{}", "-".repeat(60));
    let mut verdicts: Vec<Vec<Outcome>> = Vec::new();
    for (name, config) in configs {
        let mut solved = 0usize;
        let mut sat = 0usize;
        let mut unsat = 0usize;
        let mut total = 0.0f64;
        let mut row = Vec::with_capacity(instances.len());
        for instance in &instances {
            let start = Instant::now();
            let mut session = Session::builder()
                .config(HqsConfig {
                    budget: Budget::new()
                        .with_timeout(timeout)
                        .with_node_limit(HQS_NODE_LIMIT),
                    ..config
                })
                .build()
                .unwrap_or_else(|error| panic!("invalid config {name}: {error}"));
            let verdict = session.solve(&instance.dqbf);
            total += start.elapsed().as_secs_f64();
            match verdict {
                Outcome::Sat => {
                    solved += 1;
                    sat += 1;
                }
                Outcome::Unsat => {
                    solved += 1;
                    unsat += 1;
                }
                Outcome::Unknown(_) => {}
            }
            row.push(verdict);
        }
        verdicts.push(row);
        println!(
            "{:<12} {:>7} {:>7} {:>7} {:>10} {:>12.2}",
            name,
            solved,
            sat,
            unsat,
            instances.len() - solved,
            total
        );
    }
    // Cross-configuration consistency: no two configs may contradict.
    for i in 0..instances.len() {
        let mut decided: Option<Outcome> = None;
        for row in &verdicts {
            if let v @ (Outcome::Sat | Outcome::Unsat) = row[i] {
                match decided {
                    None => decided = Some(v),
                    Some(prev) => assert_eq!(prev, v, "disagreement on {}", instances[i].name),
                }
            }
        }
    }
    println!("\nall configurations agree on every decided instance ✓");
}
