//! Clauses: normalised disjunctions of literals.

use hqs_base::{Assignment, Lit, TruthValue, Var, VarSet};
use std::fmt;

/// A clause — a disjunction of literals.
///
/// Clauses are kept *normalised*: literals are sorted by code and duplicate
/// literals are removed. A clause containing both a literal and its negation
/// is a *tautology* (see [`Clause::is_tautology`]); tautologies are kept
/// representable so parsers can report them, but formula-level code usually
/// drops them.
///
/// # Examples
///
/// ```
/// use hqs_base::{Lit, Var};
/// use hqs_cnf::Clause;
///
/// let x = Var::new(0);
/// let c = Clause::from_lits([Lit::negative(x), Lit::positive(x), Lit::negative(x)]);
/// assert!(c.is_tautology());
/// assert_eq!(c.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Clause {
    lits: Vec<Lit>,
}

impl Clause {
    /// Creates the empty clause (which is unsatisfiable).
    #[must_use]
    pub fn empty() -> Self {
        Clause { lits: Vec::new() }
    }

    /// Creates a clause from literals, sorting and deduplicating them.
    #[must_use]
    pub fn from_lits<I: IntoIterator<Item = Lit>>(lits: I) -> Self {
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        lits.sort_unstable();
        lits.dedup();
        Clause { lits }
    }

    /// Creates a unit clause.
    #[must_use]
    pub fn unit(lit: Lit) -> Self {
        Clause { lits: vec![lit] }
    }

    /// Creates a binary clause.
    #[must_use]
    pub fn binary(a: Lit, b: Lit) -> Self {
        Clause::from_lits([a, b])
    }

    /// Returns the literals, sorted by code.
    #[must_use]
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Returns the number of literals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Returns `true` if this is the empty clause.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Returns `true` if the clause contains `lit`.
    #[must_use]
    pub fn contains(&self, lit: Lit) -> bool {
        self.lits.binary_search(&lit).is_ok()
    }

    /// Returns `true` if the clause contains some literal together with its
    /// negation, i.e. is trivially true.
    #[must_use]
    pub fn is_tautology(&self) -> bool {
        self.lits.windows(2).any(|w| w[0].var() == w[1].var())
    }

    /// Returns the set of variables occurring in the clause.
    #[must_use]
    pub fn vars(&self) -> VarSet {
        self.lits.iter().map(|l| l.var()).collect()
    }

    /// Iterates over the variables of the clause (ascending, may repeat for
    /// tautologies).
    pub fn iter_vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.lits.iter().map(|l| l.var())
    }

    /// Evaluates the clause under a (possibly partial) assignment.
    ///
    /// Returns [`TruthValue::True`] if some literal is satisfied,
    /// [`TruthValue::False`] if all literals are falsified, and
    /// [`TruthValue::Unassigned`] otherwise.
    #[must_use]
    pub fn evaluate(&self, assignment: &Assignment) -> TruthValue {
        let mut all_false = true;
        for &lit in &self.lits {
            match assignment.lit_value(lit) {
                TruthValue::True => return TruthValue::True,
                TruthValue::False => {}
                TruthValue::Unassigned => all_false = false,
            }
        }
        if all_false {
            TruthValue::False
        } else {
            TruthValue::Unassigned
        }
    }

    /// Returns the resolvent of `self` and `other` on pivot variable `pivot`.
    ///
    /// `self` must contain the positive and `other` the negative pivot
    /// literal (or vice versa); returns `None` if the pivot does not occur in
    /// opposite phases.
    #[must_use]
    pub fn resolve(&self, other: &Clause, pivot: Var) -> Option<Clause> {
        let pos = Lit::positive(pivot);
        let neg = Lit::negative(pivot);
        let (with_pos, with_neg) = if self.contains(pos) && other.contains(neg) {
            (self, other)
        } else if self.contains(neg) && other.contains(pos) {
            (other, self)
        } else {
            return None;
        };
        let lits = with_pos
            .lits
            .iter()
            .copied()
            .filter(|&l| l != pos)
            .chain(with_neg.lits.iter().copied().filter(|&l| l != neg));
        Some(Clause::from_lits(lits))
    }
}

impl FromIterator<Lit> for Clause {
    fn from_iter<I: IntoIterator<Item = Lit>>(iter: I) -> Self {
        Clause::from_lits(iter)
    }
}

impl<'a> IntoIterator for &'a Clause {
    type Item = &'a Lit;
    type IntoIter = std::slice::Iter<'a, Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.iter()
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, lit) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{lit}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(value: i64) -> Lit {
        Lit::from_dimacs(value).unwrap()
    }

    #[test]
    fn normalisation_sorts_and_dedups() {
        let c = Clause::from_lits([lit(3), lit(-1), lit(3), lit(2)]);
        assert_eq!(c.lits().len(), 3);
        let codes: Vec<u32> = c.lits().iter().map(|l| l.code()).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        assert_eq!(codes, sorted);
    }

    #[test]
    fn tautology_detection() {
        assert!(Clause::from_lits([lit(1), lit(-1)]).is_tautology());
        assert!(!Clause::from_lits([lit(1), lit(2)]).is_tautology());
        assert!(!Clause::empty().is_tautology());
    }

    #[test]
    fn evaluation() {
        let c = Clause::from_lits([lit(1), lit(-2)]);
        let mut a = Assignment::new();
        assert_eq!(c.evaluate(&a), TruthValue::Unassigned);
        a.assign(Var::new(0), false);
        assert_eq!(c.evaluate(&a), TruthValue::Unassigned);
        a.assign(Var::new(1), true);
        assert_eq!(c.evaluate(&a), TruthValue::False);
        a.assign(Var::new(1), false);
        assert_eq!(c.evaluate(&a), TruthValue::True);
        assert_eq!(
            Clause::empty().evaluate(&Assignment::new()),
            TruthValue::False
        );
    }

    #[test]
    fn resolution() {
        let c1 = Clause::from_lits([lit(1), lit(2)]);
        let c2 = Clause::from_lits([lit(-1), lit(3)]);
        let r = c1.resolve(&c2, Var::new(0)).unwrap();
        assert_eq!(r, Clause::from_lits([lit(2), lit(3)]));
        assert!(c1.resolve(&c2, Var::new(1)).is_none());
        // symmetric
        assert_eq!(c2.resolve(&c1, Var::new(0)).unwrap(), r);
    }
}
