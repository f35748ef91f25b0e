//! Linearly ordered QBF quantifier prefixes.

use hqs_base::Var;
use hqs_cnf::{QuantBlock, Quantifier};
use std::fmt;

/// A QBF prefix: a sequence of quantifier blocks, outermost first.
///
/// Invariant: adjacent blocks have different quantifiers and no variable
/// occurs twice (enforced by the constructors).
///
/// # Examples
///
/// ```
/// use hqs_base::Var;
/// use hqs_cnf::Quantifier;
/// use hqs_qbf::Prefix;
///
/// let mut prefix = Prefix::new();
/// prefix.push_block(Quantifier::Universal, vec![Var::new(0)]);
/// prefix.push_block(Quantifier::Existential, vec![Var::new(1)]);
/// assert_eq!(prefix.num_blocks(), 2);
/// assert_eq!(prefix.quantifier_of(Var::new(1)), Some(Quantifier::Existential));
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Prefix {
    blocks: Vec<QuantBlock>,
}

impl Prefix {
    /// Creates an empty prefix.
    #[must_use]
    pub fn new() -> Self {
        Prefix::default()
    }

    /// Appends a block (innermost position). Merges with the current
    /// innermost block if the quantifier matches; empty `vars` are ignored.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if a variable is already quantified.
    pub fn push_block(&mut self, quantifier: Quantifier, vars: Vec<Var>) {
        if vars.is_empty() {
            return;
        }
        debug_assert!(
            vars.iter().all(|&v| self.quantifier_of(v).is_none()),
            "variable quantified twice"
        );
        match self.blocks.last_mut() {
            Some(last) if last.quantifier == quantifier => last.vars.extend(vars),
            _ => self.blocks.push(QuantBlock { quantifier, vars }),
        }
    }

    /// Returns the blocks, outermost first.
    #[must_use]
    pub fn blocks(&self) -> &[QuantBlock] {
        &self.blocks
    }

    /// Returns the number of blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` if no variable is quantified.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Returns the quantifier binding `var`, if any.
    #[must_use]
    pub fn quantifier_of(&self, var: Var) -> Option<Quantifier> {
        self.blocks
            .iter()
            .find(|b| b.vars.contains(&var))
            .map(|b| b.quantifier)
    }

    /// Total number of quantified variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.blocks.iter().map(|b| b.vars.len()).sum()
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for block in &self.blocks {
            let symbol = match block.quantifier {
                Quantifier::Universal => '∀',
                Quantifier::Existential => '∃',
            };
            write!(f, "{symbol}{{")?;
            for (i, v) in block.vars.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, "}} ")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    #[test]
    fn push_merges_equal_quantifiers() {
        let mut p = Prefix::new();
        p.push_block(Quantifier::Universal, vec![v(0)]);
        p.push_block(Quantifier::Universal, vec![v(1)]);
        p.push_block(Quantifier::Existential, vec![v(2)]);
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.num_vars(), 3);
    }

    #[test]
    fn empty_blocks_ignored() {
        let mut p = Prefix::new();
        p.push_block(Quantifier::Universal, vec![]);
        assert!(p.is_empty());
    }
}
