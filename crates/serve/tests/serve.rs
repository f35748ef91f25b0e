//! In-process integration tests of the serving core: verdict contract,
//! warm-cache reuse, backpressure, timeouts, disconnects and drain.

use hqs_serve::{Control, ResponseSink, ServeOptions, Server};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A sink that records every response line.
fn recording_sink() -> (ResponseSink, Arc<Mutex<Vec<String>>>) {
    let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let captured = Arc::clone(&lines);
    let sink: ResponseSink = Arc::new(move |line: &str| {
        captured.lock().expect("sink mutex").push(line.to_string());
    });
    (sink, lines)
}

fn take_lines(lines: &Arc<Mutex<Vec<String>>>) -> Vec<String> {
    lines.lock().expect("sink mutex").clone()
}

/// Polls until `served` reaches `count` (responses are asynchronous).
fn wait_served(server: &Server, count: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.stats().served < count {
        assert!(
            Instant::now() < deadline,
            "server did not serve {count} responses in time"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

const SAT_CNF: &str = "p cnf 1 1\\n1 0\\n";
const UNSAT_CNF: &str = "p cnf 1 2\\n1 0\\n-1 0\\n";
/// Matching-pairs DQBF (Example 1 shape): satisfiable, decided by
/// preprocessing, certifiable.
const DQBF_SAT: &str =
    "p cnf 4 4\\na 1 2 0\\nd 3 1 0\\nd 4 2 0\\n1 -3 0\\n-1 3 0\\n2 -4 0\\n-2 4 0\\n";

/// One universal past the certification expansion limit: each `x_i`
/// has an existential `y_i(x_i)` with `y_i ↔ x_i`. SAT, decided by
/// preprocessing; inline DQDIMACS with literal `\n` escapes.
fn too_large_to_certify() -> String {
    let n = hqs_core::expand::MAX_EXPANSION_UNIVERSALS + 1;
    let universals: Vec<String> = (1..=n).map(|x| x.to_string()).collect();
    let mut lines = vec![
        format!("p cnf {} {}", 2 * n, 2 * n),
        format!("a {} 0", universals.join(" ")),
    ];
    for x in 1..=n {
        lines.push(format!("d {} {x} 0", n + x));
    }
    for x in 1..=n {
        lines.push(format!("{x} -{} 0", n + x));
        lines.push(format!("-{x} {} 0", n + x));
    }
    format!("{}\\n", lines.join("\\n"))
}

fn solve_line(id: &str, dqdimacs: &str, extra: &str) -> String {
    format!("{{\"id\":\"{id}\",\"dqdimacs\":\"{dqdimacs}\"{extra}}}")
}

/// A pigeonhole CNF (n+1 pigeons, n holes, UNSAT) that survives
/// preprocessing, as inline DIMACS with literal `\n` escapes.
fn pigeonhole(holes: usize) -> String {
    let pigeons = holes + 1;
    let var = |p: usize, h: usize| p * holes + h + 1;
    let mut clauses: Vec<String> = Vec::new();
    for p in 0..pigeons {
        let mut clause: Vec<String> = (0..holes).map(|h| var(p, h).to_string()).collect();
        clause.push("0".to_string());
        clauses.push(clause.join(" "));
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                clauses.push(format!("-{} -{} 0", var(p1, h), var(p2, h)));
            }
        }
    }
    format!(
        "p cnf {} {}\\n{}\\n",
        pigeons * holes,
        clauses.len(),
        clauses.join("\\n")
    )
}

#[test]
fn verdict_contract_and_out_of_order_ids() {
    let server = Server::start(
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
        None,
    );
    let (sink, lines) = recording_sink();
    for (id, formula) in [
        ("sat-1", SAT_CNF),
        ("unsat-1", UNSAT_CNF),
        ("dqbf-1", DQBF_SAT),
    ] {
        assert_eq!(
            server.handle_line(&solve_line(id, formula, ""), &sink),
            Control::Continue
        );
    }
    wait_served(&server, 3);
    server.shutdown(false);
    let responses = take_lines(&lines);
    assert_eq!(responses.len(), 3);
    let find = |id: &str| {
        responses
            .iter()
            .find(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .unwrap_or_else(|| panic!("no response for {id} in {responses:?}"))
    };
    assert!(find("sat-1").contains("\"exit_code\":10"));
    assert!(find("sat-1").contains("\"outcome\":\"SAT\""));
    assert!(find("unsat-1").contains("\"exit_code\":20"));
    assert!(find("dqbf-1").contains("\"exit_code\":10"));
    // Responses carry per-request metrics and the batch record schema.
    assert!(find("sat-1").contains("\"metrics\":{"));
    assert!(find("sat-1").contains("\"entry\":\"serve\""));
    let stats = server.stats();
    assert_eq!((stats.queued, stats.in_flight), (0, 0));
    assert_eq!(stats.served, 3);
}

#[test]
fn repeated_formula_hits_the_verdict_cache() {
    let server = Server::start(ServeOptions::default(), None);
    let (sink, lines) = recording_sink();
    server.handle_line(&solve_line("cold", UNSAT_CNF, ""), &sink);
    wait_served(&server, 1);
    server.handle_line(&solve_line("warm", UNSAT_CNF, ""), &sink);
    wait_served(&server, 2);
    server.shutdown(false);
    let responses = take_lines(&lines);
    let warm = responses
        .iter()
        .find(|l| l.contains("\"id\":\"warm\""))
        .expect("warm response");
    assert!(
        warm.contains("\"cached\":true"),
        "expected a cache hit: {warm}"
    );
    assert!(warm.contains("\"exit_code\":20"));
    let stats = server.stats();
    assert_eq!(stats.verdicts.hits, 1);
    assert_eq!(stats.verdicts.misses, 1);
}

#[test]
fn certified_requests_bypass_verdicts_but_share_the_preprocess_cache() {
    let server = Server::start(ServeOptions::default(), None);
    let (sink, lines) = recording_sink();
    server.handle_line(&solve_line("c1", DQBF_SAT, ",\"certify\":true"), &sink);
    wait_served(&server, 1);
    server.handle_line(&solve_line("c2", DQBF_SAT, ",\"certify\":true"), &sink);
    wait_served(&server, 2);
    server.shutdown(false);
    let responses = take_lines(&lines);
    for id in ["c1", "c2"] {
        let line = responses
            .iter()
            .find(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .expect("response");
        assert!(line.contains("\"exit_code\":10"));
        assert!(line.contains("\"certified\":true"));
        // Certificates are rebuilt each time, never verdict-cached.
        assert!(line.contains("\"cached\":false"));
    }
    let stats = server.stats();
    assert!(
        stats.preprocess.hits >= 1,
        "second certified solve should hit the preprocessing cache: {stats:?}"
    );
}

#[test]
fn certify_falls_back_past_the_expansion_limit() {
    let server = Server::start(ServeOptions::default(), None);
    let (sink, lines) = recording_sink();
    server.handle_line(
        &solve_line("wide", &too_large_to_certify(), ",\"certify\":true"),
        &sink,
    );
    wait_served(&server, 1);
    server.shutdown(false);
    let responses = take_lines(&lines);
    assert_eq!(responses.len(), 1);
    let line = &responses[0];
    // The plain verdict, uncertified: neither an ERROR record nor an
    // error response.
    assert!(line.contains("\"exit_code\":10"), "{line}");
    assert!(line.contains("\"outcome\":\"SAT\""), "{line}");
    assert!(line.contains("\"certified\":false"), "{line}");
    assert!(!line.contains("\"error\""), "{line}");
}

#[test]
fn overloaded_backpressure_is_explicit() {
    let server = Server::start(
        ServeOptions {
            workers: 1,
            queue_capacity: 0,
            ..ServeOptions::default()
        },
        None,
    );
    let (sink, lines) = recording_sink();
    server.handle_line(&solve_line("burst", SAT_CNF, ""), &sink);
    // Capacity 0 rejects synchronously; no wait needed.
    let responses = take_lines(&lines);
    assert_eq!(responses.len(), 1);
    assert!(responses[0].contains("\"error\":\"overloaded\""));
    assert!(responses[0].contains("\"capacity\":0"));
    assert_eq!(server.stats().overloaded, 1);
    server.shutdown(false);
}

#[test]
fn per_request_timeout_does_not_leak_the_job() {
    let server = Server::start(ServeOptions::default(), None);
    let (sink, lines) = recording_sink();
    server.handle_line(
        &solve_line("slow", &pigeonhole(4), ",\"timeout_ms\":0"),
        &sink,
    );
    wait_served(&server, 1);
    let stats = server.stats();
    assert_eq!(
        (stats.queued, stats.in_flight),
        (0, 0),
        "job leaked: {stats:?}"
    );
    server.shutdown(false);
    let responses = take_lines(&lines);
    assert_eq!(responses.len(), 1);
    assert!(
        responses[0].contains("\"exit_code\":30"),
        "expected a budget-limited verdict: {}",
        responses[0]
    );
    assert!(responses[0].contains("\"outcome\":\"TIMEOUT\""));
}

#[test]
fn client_disconnect_mid_request_leaks_nothing() {
    let server = Server::start(ServeOptions::default(), None);
    // This client vanished: its sink drops every response on the floor
    // (the transports likewise swallow write errors).
    let gone: ResponseSink = Arc::new(|_line: &str| {});
    server.handle_line(&solve_line("ghost", &pigeonhole(3), ""), &gone);
    wait_served(&server, 1);
    let stats = server.stats();
    assert_eq!(
        (stats.queued, stats.in_flight),
        (0, 0),
        "job leaked: {stats:?}"
    );
    // The work still warmed the caches and the server still serves.
    let (sink, lines) = recording_sink();
    server.handle_line(&solve_line("alive", SAT_CNF, ""), &sink);
    wait_served(&server, 2);
    server.shutdown(false);
    assert!(take_lines(&lines)[0].contains("\"exit_code\":10"));
}

#[test]
fn hard_shutdown_cancels_in_flight_work_and_drains() {
    let server = Server::start(
        ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        },
        None,
    );
    let (sink, lines) = recording_sink();
    // A pile of nontrivial jobs; with one worker most are still queued
    // when the hard shutdown fires.
    for i in 0..6 {
        server.handle_line(&solve_line(&format!("j{i}"), &pigeonhole(5), ""), &sink);
    }
    server.shutdown(true);
    let responses = take_lines(&lines);
    // Every accepted job got exactly one response — a verdict if it
    // finished before the cancellation, CANCELLED otherwise.
    assert_eq!(responses.len(), 6);
    for line in &responses {
        assert!(
            line.contains("\"outcome\":\"UNSAT\"") || line.contains("\"outcome\":\"CANCELLED\""),
            "unexpected response: {line}"
        );
    }
    let stats = server.stats();
    assert_eq!((stats.queued, stats.in_flight), (0, 0));
    assert!(server.shutdown_token().is_cancelled());
}

#[test]
fn stats_command_reports_shape_and_counts() {
    let server = Server::start(ServeOptions::default(), None);
    let (sink, lines) = recording_sink();
    server.handle_line(&solve_line("one", SAT_CNF, ""), &sink);
    wait_served(&server, 1);
    server.handle_line("{\"cmd\":\"stats\",\"id\":\"s\"}", &sink);
    server.shutdown(false);
    let responses = take_lines(&lines);
    let stats_line = responses
        .iter()
        .find(|l| l.contains("\"stats\":{"))
        .expect("stats response");
    for key in [
        "\"id\":\"s\"",
        "\"uptime_s\":",
        "\"queued\":0",
        "\"in_flight\":0",
        "\"served\":1",
        "\"verdict_cache\":{",
        "\"preprocess_cache\":{",
        "\"fraig_cache\":{",
        "\"metrics\":{",
    ] {
        assert!(stats_line.contains(key), "missing {key} in {stats_line}");
    }
}

#[test]
fn malformed_lines_and_draining_rejections_answer_with_errors() {
    let server = Server::start(ServeOptions::default(), None);
    let (sink, lines) = recording_sink();
    assert_eq!(server.handle_line("not json", &sink), Control::Continue);
    assert_eq!(server.handle_line("", &sink), Control::Continue); // blank: ignored
    assert_eq!(
        server.handle_line("{\"cmd\":\"shutdown\",\"id\":\"bye\"}", &sink),
        Control::Shutdown {
            id: Some("bye".to_string()),
            hard: false,
        }
    );
    server.shutdown(false);
    // Post-drain submissions are refused explicitly.
    server.handle_line(&solve_line("late", SAT_CNF, ""), &sink);
    let responses = take_lines(&lines);
    assert!(responses[0].contains("\"error\":"));
    assert!(responses
        .iter()
        .any(|l| l.contains("server is shutting down")));
    // The acknowledgement is rendered by the transport after draining.
    let ack = Server::shutdown_ack(Some("bye"), false);
    assert!(ack.contains("\"ok\":true") && ack.contains("\"drained\":true"));
}

#[test]
fn file_requests_solve_from_disk() {
    let dir = std::env::temp_dir().join(format!("hqs-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join("inst.dqdimacs");
    std::fs::write(&path, "p cnf 1 2\n1 0\n-1 0\n").expect("write");
    let server = Server::start(ServeOptions::default(), None);
    let (sink, lines) = recording_sink();
    server.handle_line(
        &format!(
            "{{\"id\":\"f\",\"file\":\"{}\"}}",
            path.display().to_string().replace('\\', "\\\\")
        ),
        &sink,
    );
    server.handle_line(
        "{\"id\":\"missing\",\"file\":\"/nonexistent/x.dqdimacs\"}",
        &sink,
    );
    wait_served(&server, 2);
    server.shutdown(false);
    let responses = take_lines(&lines);
    let find = |id: &str| {
        responses
            .iter()
            .find(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .expect("response")
    };
    assert!(find("f").contains("\"exit_code\":20"));
    assert!(find("missing").contains("\"error\":"));
    let _ = std::fs::remove_dir_all(&dir);
}
