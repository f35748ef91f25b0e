//! Warm-state benchmark of the serve subsystem: one PEC mini-corpus
//! driven twice through a live [`hqs_serve::Server`]. The first pass
//! is cold (every cache empty), the second replays the identical
//! requests against the now-warm verdict/preprocessing/FRAIG caches.
//!
//! Like `engine_batch` this bypasses the Criterion shim: the quantity
//! of interest is the per-request round-trip latency distribution, so
//! the bench reports the cold and warm p50/p95 plus the p50 speedup.
//! Results are written as `BENCH_serve.json` (override the path with
//! the `BENCH_SERVE_JSON` environment variable) so CI can archive and
//! compare them.

use hqs_cnf::dimacs::write_dqdimacs;
use hqs_engine::escape_json;
use hqs_pec::families::generate;
use hqs_pec::Family;
use hqs_serve::{ServeOptions, Server};
use std::fmt::Write as _;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engine_batch mini-corpus, rendered to inline DQDIMACS: a spread
/// of families and sizes whose solves are fast enough to sample many
/// round trips but slow enough that a verdict-cache hit is measurable.
fn corpus() -> Vec<(String, String)> {
    let plan = [
        (Family::Adder, 4u32, 2u32),
        (Family::Bitcell, 6, 2),
        (Family::Lookahead, 8, 2),
        (Family::PecXor, 12, 3),
        (Family::Z4, 2, 2),
        (Family::Comp, 4, 2),
        (Family::C432, 4, 2),
    ];
    let mut requests = Vec::new();
    for (family, size, boxes) in plan {
        for (seed, fault) in [(0u64, false), (1, true)] {
            let instance = generate(family, size, boxes, seed, fault);
            let name = format!(
                "{}_n{size}_b{boxes}_s{seed}{}",
                family.name(),
                if fault { "_fault" } else { "" }
            );
            let text = write_dqdimacs(&instance.dqbf.to_file());
            requests.push((name, text));
        }
    }
    requests
}

/// One synchronous round trip: submit the request line, block until
/// the response arrives. Sequential submission keeps latencies clean.
fn round_trip(server: &Server, line: &str) -> Duration {
    let (tx, rx) = mpsc::channel::<()>();
    let sink: hqs_serve::ResponseSink = Arc::new(move |_response: &str| {
        let _ = tx.send(());
    });
    let started = Instant::now();
    server.handle_line(line, &sink);
    rx.recv_timeout(Duration::from_secs(120))
        .expect("serve response within 120 s");
    started.elapsed()
}

fn percentile(sorted: &[Duration], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * pct).round() as usize;
    sorted[rank.min(sorted.len() - 1)].as_secs_f64() * 1e3
}

fn pass(server: &Server, requests: &[(String, String)], label: &str) -> (f64, f64) {
    let mut latencies: Vec<Duration> = requests
        .iter()
        .map(|(name, text)| {
            let line = format!(
                "{{\"id\":\"{name}\",\"dqdimacs\":\"{}\",\"timeout_ms\":60000}}",
                escape_json(text)
            );
            round_trip(server, &line)
        })
        .collect();
    latencies.sort();
    let p50 = percentile(&latencies, 0.50);
    let p95 = percentile(&latencies, 0.95);
    println!("  {label}: p50 {p50:.3} ms, p95 {p95:.3} ms");
    (p50, p95)
}

fn main() {
    let requests = corpus();
    println!("serve_warm: {} requests per pass", requests.len());

    let server = Server::start(ServeOptions::default(), None);

    // Warm-up request on a throwaway formula so first-touch effects
    // (page faults, lazy init) don't land on the cold measurement.
    round_trip(
        &server,
        "{\"id\":\"warmup\",\"dqdimacs\":\"p cnf 1 1\\n1 0\\n\"}",
    );

    let (cold_p50, cold_p95) = pass(&server, &requests, "cold");
    let (warm_p50, warm_p95) = pass(&server, &requests, "warm");
    server.shutdown(false);

    let speedup = if warm_p50 > 0.0 {
        cold_p50 / warm_p50
    } else {
        0.0
    };
    println!("  p50 speedup: {speedup:.2}x");

    let mut json = String::new();
    let _ = writeln!(
        json,
        "{{\"bench\":\"serve_warm\",\"requests\":{},\
         \"cold\":{{\"p50_ms\":{cold_p50:.4},\"p95_ms\":{cold_p95:.4}}},\
         \"warm\":{{\"p50_ms\":{warm_p50:.4},\"p95_ms\":{warm_p95:.4}}},\
         \"speedup_p50\":{speedup:.2}}}",
        requests.len()
    );
    let path = std::env::var("BENCH_SERVE_JSON").unwrap_or_else(|_| "BENCH_serve.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(err) => eprintln!("warning: cannot write {path}: {err}"),
    }
}
