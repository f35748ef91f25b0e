//! DRAT proof logging.
//!
//! When a [`ProofLogger`](crate::ProofLogger) is attached to a
//! [`Solver`](crate::Solver), every clause the solver learns and the
//! final empty clause are emitted as DRAT additions, and every learnt
//! clause database reduction discards as a deletion. Together with the
//! original clauses — exactly those passed to `add_clause` — the emitted
//! steps form a refutation proof that an *independent* checker (the
//! `hqs-proof` crate) can validate.
//!
//! `add_clause` simplifies each original against the level-0 assignment
//! (dropping it when satisfied, shrinking it by its false literals) and
//! logs none of that: the checker loads the originals and propagates
//! them to a fixpoint at the root, under which an original acts as its
//! shrunk form, so a lemma that is RUP against the solver's clauses is
//! RUP against the checker's. Only an original that simplification
//! empties is logged, as the empty clause that ends the refutation. This module deliberately contains its own text DRAT writer:
//! the solver side and the checker side share no serialisation code, so
//! the proof file is a true arms-length artifact.
//!
//! The logger swallows I/O errors (a proof hook cannot abort conflict
//! analysis) but remembers them; query [`ProofLogger::had_error`] before
//! trusting an emitted proof.

use hqs_base::Lit;
use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

/// Sink for the DRAT steps a [`Solver`](crate::Solver) emits.
///
/// Implementations must tolerate being called from the hot path: no
/// panics, no unbounded work. The clause slices are in solver-internal
/// order; DRAT semantics are order-insensitive.
pub trait ProofLogger {
    /// A clause was derived (is redundant w.r.t. the current formula).
    fn add_clause(&mut self, lits: &[Lit]);
    /// A clause was removed from the active formula.
    fn delete_clause(&mut self, lits: &[Lit]);
    /// `true` if an earlier emission failed and the proof is incomplete.
    fn had_error(&self) -> bool {
        false
    }
}

/// Logs DRAT steps in the text format (`1 -2 0`, deletions `d 1 -2 0`).
#[derive(Debug)]
pub struct TextDratLogger<W: Write> {
    out: W,
    error: bool,
}

impl<W: Write> TextDratLogger<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        TextDratLogger { out, error: false }
    }

    /// Unwraps the underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }

    fn step(&mut self, prefix: &str, lits: &[Lit]) {
        if self.error {
            return;
        }
        let mut line = String::with_capacity(prefix.len() + 7 * lits.len() + 2);
        line.push_str(prefix);
        for lit in lits {
            line.push_str(&lit.to_dimacs().to_string());
            line.push(' ');
        }
        line.push_str("0\n");
        if self.out.write_all(line.as_bytes()).is_err() {
            self.error = true;
        }
    }
}

impl<W: Write> ProofLogger for TextDratLogger<W> {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.step("", lits);
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.step("d ", lits);
    }

    fn had_error(&self) -> bool {
        self.error
    }
}

/// A shared in-memory byte sink.
///
/// [`SolverBuilder::proof_logger`](crate::SolverBuilder::proof_logger)
/// takes a boxed trait object, which cannot be downcast to recover the
/// bytes afterwards; a `ProofBuffer` solves this by being cheaply
/// cloneable with shared contents — keep one clone, hand the other to
/// the logger.
///
/// # Examples
///
/// ```
/// use hqs_sat::{ProofBuffer, Solver, TextDratLogger};
/// use hqs_base::Lit;
///
/// let buffer = ProofBuffer::new();
/// let mut solver = Solver::builder()
///     .proof_logger(Box::new(TextDratLogger::new(buffer.clone())))
///     .build()
///     .unwrap();
/// let x = solver.new_var();
/// solver.add_clause([Lit::positive(x)]);
/// solver.add_clause([Lit::negative(x)]);
/// // ¬x simplifies to the empty clause, the whole refutation.
/// assert_eq!(String::from_utf8(buffer.contents()).unwrap(), "0\n");
/// ```
#[derive(Clone, Debug, Default)]
pub struct ProofBuffer {
    bytes: Rc<RefCell<Vec<u8>>>,
}

impl ProofBuffer {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        ProofBuffer::default()
    }

    /// Copies the accumulated bytes out.
    #[must_use]
    pub fn contents(&self) -> Vec<u8> {
        self.bytes.borrow().clone()
    }

    /// Number of bytes accumulated.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.borrow().len()
    }

    /// `true` if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.borrow().is_empty()
    }
}

impl Write for ProofBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i64) -> Lit {
        Lit::from_dimacs(v).unwrap()
    }

    #[test]
    fn text_logger_format() {
        let mut logger = TextDratLogger::new(Vec::new());
        logger.add_clause(&[lit(1), lit(-2)]);
        logger.delete_clause(&[lit(3)]);
        logger.add_clause(&[]);
        assert!(!logger.had_error());
        let text = String::from_utf8(logger.into_inner()).unwrap();
        assert_eq!(text, "1 -2 0\nd 3 0\n0\n");
    }

    #[test]
    fn proof_buffer_shares_contents() {
        let buffer = ProofBuffer::new();
        let mut logger = TextDratLogger::new(buffer.clone());
        logger.add_clause(&[lit(7)]);
        assert_eq!(buffer.contents(), b"7 0\n");
        assert_eq!(buffer.len(), 4);
        assert!(!buffer.is_empty());
    }

    #[test]
    fn failing_writer_is_remembered() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("broken pipe"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut logger = TextDratLogger::new(Broken);
        logger.add_clause(&[lit(1)]);
        assert!(logger.had_error());
    }
}
