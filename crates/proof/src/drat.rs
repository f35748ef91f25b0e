//! The text DRAT proof format.
//!
//! A DRAT proof is a sequence of clause *additions* and *deletions*
//! applied to an initial CNF; the proof refutes the CNF when it derives
//! the empty clause and every added clause has the RAT property (RUP in
//! the common case) at the moment of its addition.
//!
//! One step per line: an addition is a clause in DIMACS notation
//! (`1 -2 0`), a deletion is the same prefixed with `d`; `c` lines are
//! comments.

use hqs_base::Lit;
use std::fmt;

/// One step of a clausal proof.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProofStep {
    /// Addition of a derived clause (the empty clause ends a refutation).
    Add(Vec<Lit>),
    /// Deletion of a clause from the active formula.
    Delete(Vec<Lit>),
}

/// A parsed DRAT proof: the ordered list of steps.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Proof {
    /// The steps, in proof order.
    pub steps: Vec<ProofStep>,
}

impl Proof {
    /// Number of addition steps.
    #[must_use]
    pub fn additions(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, ProofStep::Add(_)))
            .count()
    }

    /// Number of deletion steps.
    #[must_use]
    pub fn deletions(&self) -> usize {
        self.steps.len() - self.additions()
    }
}

/// Errors produced while parsing a DRAT proof.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProofParseError {
    /// A token of a text proof is not an integer.
    BadToken {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A text proof line is not terminated by `0`.
    MissingTerminator {
        /// 1-based line number.
        line: usize,
    },
    /// A literal's magnitude is out of the representable range.
    BadLiteral {
        /// 1-based line number.
        line: usize,
        /// The offending DIMACS value.
        value: i64,
    },
}

impl fmt::Display for ProofParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofParseError::BadToken { line, token } => {
                write!(f, "proof line {line}: cannot parse token `{token}`")
            }
            ProofParseError::MissingTerminator { line } => {
                write!(f, "proof line {line}: step not terminated by 0")
            }
            ProofParseError::BadLiteral { line, value } => {
                write!(f, "proof line {line}: literal {value} out of range")
            }
        }
    }
}

impl std::error::Error for ProofParseError {}

/// Parses a text DRAT proof.
///
/// # Errors
///
/// Returns a [`ProofParseError`] if a token is not an integer, a step is
/// unterminated, or a literal is out of range.
pub fn parse_text_drat(text: &str) -> Result<Proof, ProofParseError> {
    let mut steps = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') {
            continue;
        }
        let (delete, rest) = match trimmed.strip_prefix('d') {
            Some(rest) => (true, rest),
            None => (false, trimmed),
        };
        let mut lits = Vec::new();
        let mut terminated = false;
        for token in rest.split_whitespace() {
            if terminated {
                return Err(ProofParseError::BadToken {
                    line,
                    token: token.to_string(),
                });
            }
            let value: i64 = token.parse().map_err(|_| ProofParseError::BadToken {
                line,
                token: token.to_string(),
            })?;
            if value == 0 {
                terminated = true;
                continue;
            }
            let lit = Lit::from_dimacs(value).ok_or(ProofParseError::BadLiteral { line, value })?;
            lits.push(lit);
        }
        if !terminated {
            return Err(ProofParseError::MissingTerminator { line });
        }
        steps.push(if delete {
            ProofStep::Delete(lits)
        } else {
            ProofStep::Add(lits)
        });
    }
    Ok(Proof { steps })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_errors_are_typed() {
        assert_eq!(
            parse_text_drat("1 x 0\n"),
            Err(ProofParseError::BadToken {
                line: 1,
                token: "x".to_string()
            })
        );
        assert_eq!(
            parse_text_drat("1 2\n"),
            Err(ProofParseError::MissingTerminator { line: 1 })
        );
        assert_eq!(
            parse_text_drat("c ok\n\n1 0\n2 0 3\n"),
            Err(ProofParseError::BadToken {
                line: 4,
                token: "3".to_string()
            })
        );
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let proof = parse_text_drat("c preamble\n\n1 0\nc trailing\n").unwrap();
        assert_eq!(proof.steps.len(), 1);
        assert_eq!(proof.additions(), 1);
        assert_eq!(proof.deletions(), 0);
    }
}
