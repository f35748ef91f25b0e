//! Regenerates Fig. 4 of the HQS paper: a log-log scatter of per-instance
//! runtimes, baseline vs HQS, with TO/MO rails.
//!
//! Emits the raw data as CSV on stdout (redirect to a file for plotting)
//! and an ASCII rendition of the scatter on stderr.
//!
//! ```text
//! cargo run -p hqs-bench --release --bin fig4 -- --scale ci > fig4.csv
//! ```

#![forbid(unsafe_code)]

use hqs_bench::{parse_args, render_csv, render_scatter, run_suite};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, timeout) = parse_args(&args);
    eprintln!(
        "running PEC suite at {scale:?} scale, {}s per solver per instance",
        timeout.as_secs()
    );
    let runs = run_suite(scale, timeout, true);
    print!("{}", render_csv(&runs));
    eprintln!("\nFIG. 4 (regenerated)\n");
    eprintln!("{}", render_scatter(&runs, timeout));
}
