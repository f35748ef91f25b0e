//! Transports: the stdio and Unix-socket front ends of [`Server`].
//!
//! Both speak the same line protocol ([`crate::proto`]); the transport
//! only owns connection plumbing. Responses can arrive out of request
//! order (workers race), so clients must correlate by `id`.
//!
//! There is no signal handling here (the crate is `std`-only, and a
//! portable SIGTERM hook is not): graceful drain is reached through
//! `{"cmd":"shutdown"}` or — on stdio — closing the input. A killed
//! process loses only in-flight answers; the verdict cache is process-local
//! by design.

use crate::proto::error_response;
use crate::server::{drain_summary, Control, ResponseSink, ServeOptions, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Locks a mutex, recovering from poisoning (output streams hold no
/// invariants a panic could tear).
fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The longest request line either transport reads, in bytes. The
/// largest request the bundled corpora produce — `pec-graded`'s
/// `lookahead_n64_b4` instance sent inline, newlines escaped — is about
/// 113 KB; larger formulas can be sent by `file` path instead.
const MAX_LINE_BYTES: usize = 4 << 20;

/// A shutdown request read off a connection: its id and whether it is
/// hard.
type ShutdownRequested = (Option<String>, bool);

/// The line loop both transports share: hands every request line of
/// `reader` to `server` until EOF, a read error or a shutdown request,
/// which it returns. A line that is not UTF-8 or is longer than
/// [`MAX_LINE_BYTES`] gets a typed `error` response, and the session
/// continues with the next line.
fn serve_lines(
    server: &Server,
    mut reader: impl BufRead,
    sink: &ResponseSink,
) -> Option<ShutdownRequested> {
    let cap = MAX_LINE_BYTES as u64 + 1;
    let mut line = Vec::new();
    loop {
        line.clear();
        match (&mut reader).take(cap).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return None,
            Ok(_) => {}
        }
        if line.last() != Some(&b'\n') && line.len() > MAX_LINE_BYTES {
            // Drop the rest of the oversized line without buffering it.
            if reader.skip_until(b'\n').is_err() {
                return None;
            }
            let message = format!("request line longer than {MAX_LINE_BYTES} bytes");
            sink(&error_response("?", &message));
            continue;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            sink(&error_response("?", "request line is not valid UTF-8"));
            continue;
        };
        match server.handle_line(text, sink) {
            Control::Continue => {}
            Control::Shutdown { id, hard } => return Some((id, hard)),
        }
    }
}

/// Serves one client over stdin/stdout until EOF or a shutdown
/// request; returns the process exit code (0 on a clean drain).
///
/// One response line per request, flushed immediately; diagnostics go
/// to stderr as `c`-prefixed comment lines so stdout stays pure JSONL.
#[must_use]
pub fn run_stdio(opts: ServeOptions) -> i32 {
    let server = Server::start(opts);
    let stdout = Arc::new(Mutex::new(std::io::stdout()));
    let sink: ResponseSink = Arc::new(move |line: &str| {
        let mut out = lock(&stdout);
        // A closed pipe must not take the worker down; the job already
        // completed and its verdict is cached.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    });
    let requested = serve_lines(&server, std::io::stdin().lock(), &sink);
    let explicit = requested.is_some();
    let (id, hard) = requested.unwrap_or((None, false));
    server.shutdown(hard);
    if explicit {
        sink(&Server::shutdown_ack(id.as_deref(), hard));
    }
    eprintln!("c serve: drained; {}", drain_summary(&server.stats()));
    0
}

/// Serves concurrent clients over a Unix domain socket at `path` until
/// some client sends `{"cmd":"shutdown"}`; returns the process exit
/// code.
///
/// A stale socket file from a previous run is removed before binding.
/// On shutdown the server drains, acknowledges to the requesting
/// client, closes every connection and removes the socket file.
#[must_use]
pub fn run_socket(path: &str, opts: ServeOptions) -> i32 {
    if std::path::Path::new(path).exists() {
        let _ = std::fs::remove_file(path);
    }
    let listener = match UnixListener::bind(path) {
        Ok(listener) => listener,
        Err(err) => {
            eprintln!("error: cannot bind {path}: {err}");
            return 1;
        }
    };
    if let Err(err) = listener.set_nonblocking(true) {
        eprintln!("error: cannot configure {path}: {err}");
        return 1;
    }
    let server = Arc::new(Server::start(opts));
    // Set once by the connection that carried the shutdown request:
    // (id, hard, that client's sink for the acknowledgement).
    type ShutdownRequest = (Option<String>, bool, ResponseSink);
    let pending: Arc<Mutex<Option<ShutdownRequest>>> = Arc::new(Mutex::new(None));
    let stop = Arc::new(AtomicBool::new(false));
    let streams: Arc<Mutex<Vec<UnixStream>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handlers = Vec::new();

    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                if let Ok(clone) = stream.try_clone() {
                    lock(&streams).push(clone);
                }
                let server = Arc::clone(&server);
                let pending = Arc::clone(&pending);
                let stop = Arc::clone(&stop);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(&server, stream, &pending, &stop);
                }));
            }
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(err) => {
                eprintln!("error: accept on {path} failed: {err}");
                break;
            }
        }
    }

    let (id, hard, ack_sink) = match lock(&pending).take() {
        Some((id, hard, sink)) => (id, hard, Some(sink)),
        None => (None, false, None),
    };
    server.shutdown(hard);
    if let Some(sink) = ack_sink {
        sink(&Server::shutdown_ack(id.as_deref(), hard));
    }
    // Unblock every reader still parked on its connection, then reap.
    for stream in lock(&streams).drain(..) {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    for handler in handlers {
        let _ = handler.join();
    }
    let _ = std::fs::remove_file(path);
    eprintln!("c serve: drained; {}", drain_summary(&server.stats()));
    0
}

/// Serves one client's request lines until EOF, a read error or a
/// shutdown request (which is recorded for the accept loop to act on).
fn handle_connection(
    server: &Server,
    stream: UnixStream,
    pending: &Mutex<Option<(Option<String>, bool, ResponseSink)>>,
    stop: &AtomicBool,
) {
    let writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let writer = Arc::new(Mutex::new(writer));
    let sink: ResponseSink = Arc::new(move |line: &str| {
        // Disconnected clients are tolerated: the job still completes
        // and its verdict stays in the verdict cache.
        let _ = writeln!(lock(&writer), "{line}");
    });
    if let Some((id, hard)) = serve_lines(server, BufReader::new(stream), &sink) {
        *lock(pending) = Some((id, hard, Arc::clone(&sink)));
        stop.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeStats;
    use std::io::Cursor;

    const SAT: &str = r#"{"id":"sat","dqdimacs":"p cnf 1 1\n1 0\n"}"#;
    const UNSAT: &str = r#"{"id":"unsat","dqdimacs":"p cnf 1 2\n1 0\n-1 0\n"}"#;

    /// Runs `lines` through the shared line loop, then drains the
    /// server; returns every response, the drained stats and what the
    /// loop returned.
    fn serve(lines: &[&[u8]]) -> (Vec<String>, ServeStats, Option<ShutdownRequested>) {
        let input: Vec<u8> = lines.iter().flat_map(|l| [*l, b"\n"].concat()).collect();
        let server = Server::start(ServeOptions::default());
        let responses: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let captured = Arc::clone(&responses);
        let sink: ResponseSink = Arc::new(move |line: &str| lock(&captured).push(line.to_string()));
        let requested = serve_lines(&server, Cursor::new(input), &sink);
        server.shutdown(false);
        let stats = server.stats();
        let responses = lock(&responses).clone();
        (responses, stats, requested)
    }

    /// The verdict response to request `id`, if one was written.
    fn answer<'a>(responses: &'a [String], id: &str) -> Option<&'a String> {
        let tag = format!("\"id\":\"{id}\"");
        responses
            .iter()
            .find(|r| r.contains(&tag) && r.contains("\"exit_code\""))
    }

    #[test]
    fn non_utf8_line_gets_an_error_and_the_session_continues() {
        let (responses, stats, requested) =
            serve(&[SAT.as_bytes(), b"\xff\xfe{\"id\":\"x\"}", UNSAT.as_bytes()]);
        assert_eq!(requested, None);
        assert!(answer(&responses, "sat").is_some_and(|r| r.contains("\"exit_code\":10")));
        assert!(answer(&responses, "unsat").is_some_and(|r| r.contains("\"exit_code\":20")));
        assert!(
            responses
                .iter()
                .any(|r| r.contains("\"error\":\"request line is not valid UTF-8\"")),
            "{responses:?}"
        );
        assert_eq!(responses.len(), 3);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn oversized_line_gets_an_error_and_the_session_continues() {
        let oversized = vec![b'x'; MAX_LINE_BYTES + 10];
        let (responses, stats, requested) = serve(&[SAT.as_bytes(), &oversized, UNSAT.as_bytes()]);
        assert_eq!(requested, None);
        assert!(answer(&responses, "sat").is_some());
        assert!(answer(&responses, "unsat").is_some());
        let message = format!("\"error\":\"request line longer than {MAX_LINE_BYTES} bytes\"");
        assert!(
            responses.iter().any(|r| r.contains(&message)),
            "{responses:?}"
        );
        assert_eq!(responses.len(), 3);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn zero_timeout_request_is_answered() {
        let zero = r#"{"id":"zero","dqdimacs":"p cnf 1 1\n1 0\n","timeout_ms":0}"#;
        let (responses, stats, requested) = serve(&[zero.as_bytes(), SAT.as_bytes()]);
        assert_eq!(requested, None);
        assert!(answer(&responses, "zero").is_some(), "{responses:?}");
        assert!(answer(&responses, "sat").is_some());
        assert_eq!(responses.len(), 2);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn shutdown_request_ends_the_loop() {
        let (responses, stats, requested) = serve(&[
            SAT.as_bytes(),
            br#"{"cmd":"shutdown","id":"bye"}"#,
            UNSAT.as_bytes(),
        ]);
        assert_eq!(requested, Some((Some("bye".to_string()), false)));
        assert!(answer(&responses, "sat").is_some());
        assert!(
            answer(&responses, "unsat").is_none(),
            "lines after shutdown are not read"
        );
        assert_eq!(stats.in_flight, 0);
    }
}
