//! The JSONL wire protocol: request parsing and response rendering.
//!
//! Each request is one flat JSON object per line. Three shapes exist:
//!
//! * **solve** — `{"id":"r1","file":"inst.dqdimacs"}` or
//!   `{"id":"r1","dqdimacs":"p cnf 1 1\n1 0\n"}`, with optional
//!   `"timeout_ms"`, `"node_limit"` and `"certify"` overrides;
//! * **stats** — `{"cmd":"stats","id":"s1"}` (the `id` is optional and
//!   echoed back);
//! * **shutdown** — `{"cmd":"shutdown","id":"bye"}`, optionally with
//!   `"hard":true` to cancel in-flight jobs instead of draining them.
//!
//! The parser accepts exactly the flat subset the protocol uses —
//! string, number, boolean and null values — and rejects nested
//! containers, which keeps it a few dozen lines and leaves no corner for
//! a malformed request to take down the server: every parse failure
//! becomes an `error` response on the same line.

use hqs_engine::escape_json;
use std::collections::BTreeMap;

/// A flat JSON scalar.
#[derive(Debug)]
enum JsonValue {
    /// A JSON string (unescaped).
    Str(String),
    /// A JSON number.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Solve a formula.
    Solve(SolveRequest),
    /// Report server statistics.
    Stats {
        /// Echoed request id.
        id: Option<String>,
    },
    /// Stop accepting requests; drain (or cancel) outstanding work.
    Shutdown {
        /// Echoed request id.
        id: Option<String>,
        /// `true` cancels in-flight jobs instead of letting them finish.
        hard: bool,
    },
}

/// One solve request.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveRequest {
    /// Client-chosen request id, echoed into the response (defaults to
    /// the request's sequence number when absent).
    pub id: Option<String>,
    /// Path of a (D)QDIMACS file to solve. Exactly one of `file` /
    /// `dqdimacs` must be present.
    pub file: Option<String>,
    /// Inline (D)QDIMACS text to solve.
    pub dqdimacs: Option<String>,
    /// Per-request wall-clock limit in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Per-request AIG-node budget.
    pub node_limit: Option<usize>,
    /// Certify the verdict (overrides the server default when present).
    pub certify: Option<bool>,
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable message describing the first problem found; the
/// server echoes it back as an `error` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let fields = parse_flat_object(line)?;
    let get_str = |key: &str| -> Result<Option<String>, String> {
        match fields.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(JsonValue::Str(s)) => Ok(Some(s.clone())),
            // Numeric ids are legal JSON and natural for clients that
            // count requests; normalise them to their literal text.
            Some(JsonValue::Num(n)) if key == "id" => Ok(Some(format_number(*n))),
            Some(other) => Err(format!("field '{key}' must be a string, got {other:?}")),
        }
    };
    let get_u64 = |key: &str| -> Result<Option<u64>, String> {
        match fields.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(JsonValue::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
            Some(other) => Err(format!(
                "field '{key}' must be a non-negative integer, got {other:?}"
            )),
        }
    };
    let get_bool = |key: &str| -> Result<Option<bool>, String> {
        match fields.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(JsonValue::Bool(b)) => Ok(Some(*b)),
            Some(other) => Err(format!("field '{key}' must be a boolean, got {other:?}")),
        }
    };

    let id = get_str("id")?;
    if let Some(cmd) = get_str("cmd")? {
        return match cmd.as_str() {
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown {
                id,
                hard: get_bool("hard")?.unwrap_or(false),
            }),
            other => Err(format!("unknown cmd '{other}'")),
        };
    }
    let request = SolveRequest {
        id,
        file: get_str("file")?,
        dqdimacs: get_str("dqdimacs")?,
        timeout_ms: get_u64("timeout_ms")?,
        node_limit: get_u64("node_limit")?.map(|n| n as usize),
        certify: get_bool("certify")?,
    };
    match (&request.file, &request.dqdimacs) {
        (None, None) => Err("request needs 'file', 'dqdimacs' or 'cmd'".to_string()),
        (Some(_), Some(_)) => Err("'file' and 'dqdimacs' are mutually exclusive".to_string()),
        _ => Ok(Request::Solve(request)),
    }
}

/// Renders `n` the way a JSON client wrote it (integers without the
/// trailing `.0` that `f64`'s `Display` would keep implicit anyway).
fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Parses a single-level JSON object of scalar values.
fn parse_flat_object(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut chars = line.char_indices().peekable();
    skip_ws(&mut chars);
    if chars.next().map(|(_, c)| c) != Some('{') {
        return Err("expected a JSON object".to_string());
    }
    let mut fields = BTreeMap::new();
    skip_ws(&mut chars);
    if chars.peek().map(|&(_, c)| c) == Some('}') {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars)?;
            skip_ws(&mut chars);
            if chars.next().map(|(_, c)| c) != Some(':') {
                return Err(format!("expected ':' after key '{key}'"));
            }
            skip_ws(&mut chars);
            let value = parse_scalar(line, &mut chars)?;
            fields.insert(key, value);
            skip_ws(&mut chars);
            match chars.next().map(|(_, c)| c) {
                Some(',') => continue,
                Some('}') => break,
                _ => return Err("expected ',' or '}' in object".to_string()),
            }
        }
    }
    skip_ws(&mut chars);
    if let Some((_, c)) = chars.next() {
        return Err(format!("trailing content after object: '{c}'"));
    }
    Ok(fields)
}

type Chars<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

fn skip_ws(chars: &mut Chars<'_>) {
    while matches!(chars.peek(), Some(&(_, c)) if c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn parse_scalar(line: &str, chars: &mut Chars<'_>) -> Result<JsonValue, String> {
    match chars.peek().copied() {
        Some((_, '"')) => Ok(JsonValue::Str(parse_string(chars)?)),
        Some((_, 't')) => parse_literal(chars, "true", JsonValue::Bool(true)),
        Some((_, 'f')) => parse_literal(chars, "false", JsonValue::Bool(false)),
        Some((_, 'n')) => parse_literal(chars, "null", JsonValue::Null),
        Some((_, '[')) | Some((_, '{')) => {
            Err("nested containers are not part of the protocol".to_string())
        }
        Some((start, c)) if c == '-' || c.is_ascii_digit() => {
            let mut end = start;
            while let Some(&(i, c)) = chars.peek() {
                if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
                    end = i + c.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            line[start..end]
                .parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| format!("invalid number '{}'", &line[start..end]))
        }
        _ => Err("expected a JSON value".to_string()),
    }
}

fn parse_literal(chars: &mut Chars<'_>, word: &str, value: JsonValue) -> Result<JsonValue, String> {
    for expected in word.chars() {
        if chars.next().map(|(_, c)| c) != Some(expected) {
            return Err(format!("invalid literal (expected '{word}')"));
        }
    }
    Ok(value)
}

fn parse_string(chars: &mut Chars<'_>) -> Result<String, String> {
    if chars.next().map(|(_, c)| c) != Some('"') {
        return Err("expected a string".to_string());
    }
    let mut out = String::new();
    loop {
        let Some((_, c)) = chars.next() else {
            return Err("unterminated string".to_string());
        };
        match c {
            '"' => return Ok(out),
            '\\' => {
                let Some((_, esc)) = chars.next() else {
                    return Err("unterminated escape".to_string());
                };
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let unit = parse_hex4(chars)?;
                        // Combine a UTF-16 surrogate pair when present.
                        let code = if (0xD800..0xDC00).contains(&unit) {
                            let mut tail = chars.clone();
                            if tail.next().map(|(_, c)| c) == Some('\\')
                                && tail.next().map(|(_, c)| c) == Some('u')
                            {
                                let low = parse_hex4(&mut tail)?;
                                if (0xDC00..0xE000).contains(&low) {
                                    *chars = tail;
                                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    unit
                                }
                            } else {
                                unit
                            }
                        } else {
                            unit
                        };
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("invalid escape '\\{other}'")),
                }
            }
            c => out.push(c),
        }
    }
}

fn parse_hex4(chars: &mut Chars<'_>) -> Result<u32, String> {
    let mut code = 0u32;
    for _ in 0..4 {
        let Some((_, c)) = chars.next() else {
            return Err("truncated \\u escape".to_string());
        };
        let digit = c
            .to_digit(16)
            .ok_or_else(|| format!("invalid hex digit '{c}' in \\u escape"))?;
        code = code * 16 + digit;
    }
    Ok(code)
}

/// Renders an id for embedding in a response (always as a JSON string).
pub(crate) fn id_json(id: &str) -> String {
    format!("\"{}\"", escape_json(id))
}

/// Renders an `error` response line.
pub(crate) fn error_response(id: &str, message: &str) -> String {
    format!(
        "{{\"id\":{},\"error\":\"{}\"}}",
        id_json(id),
        escape_json(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_solve_request() {
        let req = parse_request(
            r#"{"id":"r1","file":"a.dqdimacs","timeout_ms":500,"node_limit":100000,"certify":true}"#,
        )
        .expect("valid");
        let Request::Solve(solve) = req else {
            panic!("expected solve, got {req:?}");
        };
        assert_eq!(solve.id.as_deref(), Some("r1"));
        assert_eq!(solve.file.as_deref(), Some("a.dqdimacs"));
        assert_eq!(solve.timeout_ms, Some(500));
        assert_eq!(solve.node_limit, Some(100_000));
        assert_eq!(solve.certify, Some(true));
    }

    #[test]
    fn parses_inline_dqdimacs_with_escapes() {
        let req = parse_request(r#"{"id":7,"dqdimacs":"p cnf 1 1\n1 0\n"}"#).expect("valid");
        let Request::Solve(solve) = req else {
            panic!("expected solve");
        };
        assert_eq!(solve.id.as_deref(), Some("7"));
        assert_eq!(solve.dqdimacs.as_deref(), Some("p cnf 1 1\n1 0\n"));
    }

    #[test]
    fn parses_commands() {
        assert_eq!(
            parse_request(r#"{"cmd":"stats"}"#),
            Ok(Request::Stats { id: None })
        );
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown","id":"bye","hard":true}"#),
            Ok(Request::Shutdown {
                id: Some("bye".to_string()),
                hard: true,
            })
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("").is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"id":"x"}"#).is_err()); // no formula, no cmd
        assert!(parse_request(r#"{"file":"a","dqdimacs":"b"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"reboot"}"#).is_err());
        assert!(parse_request(r#"{"file":["a"]}"#).is_err()); // nested
        assert!(parse_request(r#"{"timeout_ms":-3,"file":"a"}"#).is_err());
        assert!(parse_request(r#"{"file":"a"} trailing"#).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let req = parse_request(r#"{"id":"q\"\\Aé","file":"f"}"#).expect("valid");
        let Request::Solve(solve) = req else {
            panic!("expected solve");
        };
        assert_eq!(solve.id.as_deref(), Some("q\"\\Aé"));
        assert_eq!(escape_json("a\"b\nc"), "a\\\"b\\nc");
    }

    #[test]
    fn surrogate_pairs_decode() {
        let req = parse_request(r#"{"id":"😀","file":"f"}"#).expect("valid");
        let Request::Solve(solve) = req else {
            panic!("expected solve");
        };
        assert_eq!(solve.id.as_deref(), Some("😀"));
    }
}
