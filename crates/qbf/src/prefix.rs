//! Linearly ordered QBF quantifier prefixes.

use hqs_base::{Var, VarSet};
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

    /// Returns the innermost block, if any.
    #[must_use]
    pub fn innermost(&self) -> Option<&QuantBlock> {
        self.blocks.last()
    }

    /// Removes `var` wherever it occurs; drops emptied blocks and re-merges
    /// neighbours. Returns `true` if the variable was quantified.
    pub fn remove_var(&mut self, var: Var) -> bool {
        let mut found = false;
        for block in &mut self.blocks {
            let before = block.vars.len();
            block.vars.retain(|&v| v != var);
            found |= block.vars.len() != before;
        }
        if found {
            self.normalise();
        }
        found
    }

    /// Keeps only variables in `support`; drops emptied blocks.
    pub fn retain_support(&mut self, support: &VarSet) {
        for block in &mut self.blocks {
            block.vars.retain(|&v| support.contains(v));
        }
        self.normalise();
    }

    /// Returns `true` if some universal variable remains.
    #[must_use]
    pub fn has_universal(&self) -> bool {
        self.blocks
            .iter()
            .any(|b| b.quantifier == Quantifier::Universal)
    }

    /// Total number of quantified variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.blocks.iter().map(|b| b.vars.len()).sum()
    }

    fn normalise(&mut self) {
        let mut merged: Vec<QuantBlock> = Vec::with_capacity(self.blocks.len());
        for block in self.blocks.drain(..) {
            if block.vars.is_empty() {
                continue;
            }
            match merged.last_mut() {
                Some(last) if last.quantifier == block.quantifier => {
                    last.vars.extend(block.vars);
                }
                _ => merged.push(block),
            }
        }
        self.blocks = merged;
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

    #[test]
    fn remove_var_merges_neighbours() {
        let mut p = Prefix::new();
        p.push_block(Quantifier::Universal, vec![v(0)]);
        p.push_block(Quantifier::Existential, vec![v(1)]);
        p.push_block(Quantifier::Universal, vec![v(2)]);
        assert!(p.remove_var(v(1)));
        assert_eq!(p.num_blocks(), 1);
        assert_eq!(p.num_vars(), 2);
        assert!(!p.remove_var(v(1)));
    }

    #[test]
    fn retain_support_drops_unused() {
        let mut p = Prefix::new();
        p.push_block(Quantifier::Universal, vec![v(0), v(1)]);
        p.push_block(Quantifier::Existential, vec![v(2)]);
        let support: VarSet = [v(0)].into_iter().collect();
        p.retain_support(&support);
        assert_eq!(p.num_vars(), 1);
        assert_eq!(p.quantifier_of(v(0)), Some(Quantifier::Universal));
        assert_eq!(p.quantifier_of(v(2)), None);
    }

    #[test]
    fn innermost_and_pop() {
        let mut p = Prefix::new();
        p.push_block(Quantifier::Universal, vec![v(0)]);
        p.push_block(Quantifier::Existential, vec![v(1)]);
        assert_eq!(p.innermost().unwrap().quantifier, Quantifier::Existential);
        // The finish pops a block by eliminating its last variable.
        p.remove_var(v(1));
        assert_eq!(p.innermost().unwrap().vars, vec![v(0)]);
        assert!(p.has_universal());
        p.remove_var(v(0));
        assert!(!p.has_universal());
        assert!(p.is_empty());
    }
}
