//! Minimal JSON string escaping for the batch JSONL records and the
//! serve responses built on them.
//!
//! Both emit flat records (strings, numbers, booleans, null), so a
//! full JSON serialiser would be dead weight; only string escaping is
//! needed, and only the mandatory escapes (RFC 8259 §7).

use std::fmt::Write;

/// Escapes `s` for embedding inside a double-quoted JSON string.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                // Remaining control characters take the \u form. The write
                // cannot fail on a String; swallow the Result to keep the
                // escaper infallible.
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::escape_json;

    #[test]
    fn escapes_the_mandatory_set() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("héllo"), "héllo");
    }
}
