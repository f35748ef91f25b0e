//! Regenerates Table I of the HQS paper: per-family solved/unsolved counts
//! and accumulated runtimes for HQS vs the instantiation-based baseline.
//!
//! ```text
//! cargo run -p hqs-bench --release --bin table1 -- --scale ci --timeout 10
//! ```

#![forbid(unsafe_code)]

use hqs_bench::{parse_args, render_claims, render_table, run_suite, tabulate};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, timeout) = parse_args(&args);
    eprintln!(
        "running PEC suite at {scale:?} scale, {}s per solver per instance",
        timeout.as_secs()
    );
    let start = std::time::Instant::now();
    let runs = run_suite(scale, timeout, true);
    println!("\nTABLE I (regenerated, scaled-down instances — see DESIGN.md)\n");
    println!("{}", render_table(&tabulate(&runs)));
    println!("{}", render_claims(&runs));
    println!(
        "suite wall-clock: {:.1}s for {} instances",
        start.elapsed().as_secs_f64(),
        runs.len()
    );
}
