//! The DQBF data model (Definitions 1–2 of the paper).

use hqs_base::{Lit, Var, VarSet};
use hqs_cnf::{Clause, Cnf, DqdimacsFile};
use std::collections::HashMap;
use std::fmt;

/// A dependency quantified Boolean formula
/// `∀x₁…∀xₙ ∃y₁(D_{y₁})…∃yₘ(D_{yₘ}) : φ` with a CNF matrix.
///
/// Variables are allocated through [`add_universal`](Dqbf::add_universal)
/// and [`add_existential`](Dqbf::add_existential); the matrix may also
/// mention *free* variables, which are implicitly treated as existentials
/// with empty dependency sets (the DQDIMACS convention).
///
/// # Examples
///
/// ```
/// use hqs_base::Lit;
/// use hqs_core::Dqbf;
///
/// // Example 1 of the paper: ∀x₁∀x₂ ∃y₁(x₁) ∃y₂(x₂) : φ
/// let mut dqbf = Dqbf::new();
/// let x1 = dqbf.add_universal();
/// let x2 = dqbf.add_universal();
/// let y1 = dqbf.add_existential([x1]);
/// let _y2 = dqbf.add_existential([x2]);
/// dqbf.add_clause([Lit::positive(y1), Lit::positive(x2)]);
/// assert_eq!(dqbf.universals().len(), 2);
/// assert!(dqbf.dependencies(y1).unwrap().contains(x1));
/// ```
#[derive(Clone, Default)]
pub struct Dqbf {
    pub(crate) num_vars: u32,
    pub(crate) universals: Vec<Var>,
    pub(crate) universal_set: VarSet,
    pub(crate) existentials: Vec<Var>,
    pub(crate) deps: HashMap<Var, VarSet>,
    pub(crate) matrix: Cnf,
}

impl Dqbf {
    /// Creates an empty DQBF (no variables, empty — trivially true —
    /// matrix).
    #[must_use]
    pub fn new() -> Self {
        Dqbf::default()
    }

    /// Allocates a fresh universal variable.
    pub fn add_universal(&mut self) -> Var {
        let var = self.fresh_var();
        self.universals.push(var);
        self.universal_set.insert(var);
        var
    }

    /// Allocates a fresh existential variable with dependency set `deps`.
    ///
    /// # Panics
    ///
    /// Panics if some dependency is not a universal variable of this
    /// formula.
    pub fn add_existential<I: IntoIterator<Item = Var>>(&mut self, deps: I) -> Var {
        let deps: VarSet = deps.into_iter().collect();
        assert!(
            deps.is_subset(&self.universal_set),
            "dependencies must be universal variables"
        );
        let var = self.fresh_var();
        self.existentials.push(var);
        self.deps.insert(var, deps);
        var
    }

    /// Allocates a fresh existential depending on **all** current
    /// universals (the QBF-style innermost existential).
    pub fn add_existential_innermost(&mut self) -> Var {
        let deps = self.universal_set.clone();
        let var = self.fresh_var();
        self.existentials.push(var);
        self.deps.insert(var, deps);
        var
    }

    fn fresh_var(&mut self) -> Var {
        let var = Var::new(self.num_vars);
        self.num_vars += 1;
        self.matrix.ensure_num_vars(self.num_vars);
        var
    }

    /// Adds a clause to the matrix.
    ///
    /// Free variables (never quantified) are allowed and treated as
    /// empty-dependency existentials by the solvers.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.matrix.add_clause(Clause::from_lits(lits));
        self.num_vars = self.num_vars.max(self.matrix.num_vars());
    }

    /// Returns the number of allocated variables (quantified or free).
    #[must_use]
    pub fn num_vars(&self) -> u32 {
        self.num_vars.max(self.matrix.num_vars())
    }

    /// The universal variables, in prefix order.
    #[must_use]
    pub fn universals(&self) -> &[Var] {
        &self.universals
    }

    /// The existential variables, in prefix order.
    #[must_use]
    pub fn existentials(&self) -> &[Var] {
        &self.existentials
    }

    /// Returns `true` if `var` is universal.
    #[must_use]
    pub fn is_universal(&self, var: Var) -> bool {
        self.universal_set.contains(var)
    }

    /// Returns `true` if `var` is existential.
    #[must_use]
    pub fn is_existential(&self, var: Var) -> bool {
        self.deps.contains_key(&var)
    }

    /// The dependency set `D_y` of existential `y`, or `None` if `y` is not
    /// existential.
    #[must_use]
    pub fn dependencies(&self, y: Var) -> Option<&VarSet> {
        self.deps.get(&y)
    }

    /// The matrix.
    #[must_use]
    pub fn matrix(&self) -> &Cnf {
        &self.matrix
    }

    /// Mutable access to the matrix (used by preprocessing).
    pub fn matrix_mut(&mut self) -> &mut Cnf {
        &mut self.matrix
    }

    /// Free variables: in the matrix support but not quantified.
    #[must_use]
    pub fn free_vars(&self) -> Vec<Var> {
        self.matrix
            .support()
            .iter()
            .filter(|&v| !self.is_universal(v) && !self.is_existential(v))
            .collect()
    }

    /// Promotes every free variable to an existential with empty
    /// dependency set (the DQDIMACS convention); returns how many were
    /// promoted.
    pub fn bind_free_vars(&mut self) -> usize {
        let free = self.free_vars();
        for &v in &free {
            self.existentials.push(v);
            self.deps.insert(v, VarSet::new());
        }
        self.debug_audit("after bind_free_vars");
        free.len()
    }

    /// `E_x`: the existential variables depending on universal `x`
    /// (Theorem 1).
    #[must_use]
    pub fn depending_on(&self, x: Var) -> Vec<Var> {
        self.existentials
            .iter()
            .copied()
            .filter(|y| self.deps[y].contains(x))
            .collect()
    }

    /// Builds a DQBF from a parsed DQDIMACS file. Free matrix variables are
    /// bound as empty-dependency existentials.
    #[must_use]
    pub fn from_file(file: &DqdimacsFile) -> Self {
        let mut dqbf = Dqbf {
            num_vars: file.matrix.num_vars(),
            universals: file.universals.clone(),
            universal_set: file.universals.iter().copied().collect(),
            existentials: file.existentials.iter().map(|&(v, _)| v).collect(),
            deps: file.existentials.iter().cloned().collect(),
            matrix: file.matrix.clone(),
        };
        dqbf.bind_free_vars();
        dqbf.debug_audit("after from_file");
        dqbf
    }

    /// Builds a DQBF from raw parts **without** binding free matrix
    /// variables (the preprocessor uses this: detected gate outputs stay
    /// free until they are composed into the AIG).
    pub(crate) fn from_parts_raw(
        universals: Vec<Var>,
        existentials: Vec<(Var, VarSet)>,
        matrix: Cnf,
    ) -> Self {
        let universal_set: VarSet = universals.iter().copied().collect();
        let max_quantified = universals
            .iter()
            .map(|v| v.index())
            .chain(existentials.iter().map(|(v, _)| v.index()))
            .max()
            .map_or(0, |i| i + 1);
        Dqbf {
            num_vars: matrix.num_vars().max(max_quantified),
            universals,
            universal_set,
            existentials: existentials.iter().map(|&(v, _)| v).collect(),
            deps: existentials.into_iter().collect(),
            matrix,
        }
    }

    /// Renders this DQBF as a DQDIMACS file structure.
    #[must_use]
    pub fn to_file(&self) -> DqdimacsFile {
        DqdimacsFile {
            universals: self.universals.clone(),
            existentials: self
                .existentials
                .iter()
                .map(|&y| (y, self.deps[&y].clone()))
                .collect(),
            matrix: self.matrix.clone(),
        }
    }

    /// Returns `true` if every existential depends on every universal
    /// (i.e. the formula is a plain ∀∃ QBF).
    #[must_use]
    pub fn has_total_dependencies(&self) -> bool {
        self.existentials
            .iter()
            .all(|y| self.deps[y] == self.universal_set)
    }

    /// Returns `true` if the dependency sets are pairwise ⊆-comparable —
    /// i.e. an equivalent linearly ordered QBF prefix exists (Theorem 3).
    #[must_use]
    pub fn is_qbf_expressible(&self) -> bool {
        let deps: Vec<(Var, VarSet)> = self
            .existentials
            .iter()
            .map(|&y| (y, self.deps[&y].clone()))
            .collect();
        !crate::depgraph::DepGraph::new(&deps).is_cyclic()
    }

    /// Builds the equivalent QDIMACS file when the prefix linearises
    /// (Theorem 3); returns `None` for genuinely non-linear dependencies.
    ///
    /// Free matrix variables become outermost existentials, matching the
    /// QDIMACS convention.
    #[must_use]
    pub fn linearised_qbf(&self) -> Option<hqs_cnf::QdimacsFile> {
        let mut bound = self.clone();
        bound.bind_free_vars();
        let deps: Vec<(Var, VarSet)> = bound
            .existentials
            .iter()
            .map(|&y| (y, bound.deps[&y].clone()))
            .collect();
        let prefix = crate::depgraph::linearise(&bound.universals, &deps)?;
        Some(hqs_cnf::QdimacsFile {
            blocks: prefix.blocks().to_vec(),
            matrix: bound.matrix.clone(),
        })
    }
}

impl fmt::Debug for Dqbf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "∀{{")?;
        for (i, x) in self.universals.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, "}} ")?;
        for y in &self.existentials {
            write!(f, "∃{y}({:?}) ", self.deps[y])?;
        }
        write!(f, ": {} clauses", self.matrix.clauses().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqs_cnf::dimacs;

    #[test]
    fn construction_and_queries() {
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        let y1 = d.add_existential([x1]);
        let y2 = d.add_existential_innermost();
        assert!(d.is_universal(x1) && !d.is_existential(x1));
        assert!(d.is_existential(y1) && !d.is_universal(y1));
        assert_eq!(d.dependencies(y1).unwrap().len(), 1);
        assert_eq!(d.dependencies(y2).unwrap().len(), 2);
        assert_eq!(d.depending_on(x1), vec![y1, y2]);
        assert_eq!(d.depending_on(x2), vec![y2]);
        assert!(!d.has_total_dependencies());
    }

    #[test]
    #[should_panic(expected = "dependencies must be universal")]
    fn dependency_on_existential_panics() {
        let mut d = Dqbf::new();
        let x = d.add_universal();
        let y = d.add_existential([x]);
        let _ = d.add_existential([y]);
    }

    #[test]
    fn free_vars_are_bound() {
        let mut d = Dqbf::new();
        let x = d.add_universal();
        d.add_clause([Lit::positive(x), Lit::positive(Var::new(5))]);
        assert_eq!(d.free_vars(), vec![Var::new(5)]);
        assert_eq!(d.bind_free_vars(), 1);
        assert!(d.is_existential(Var::new(5)));
        assert!(d.dependencies(Var::new(5)).unwrap().is_empty());
        assert!(d.free_vars().is_empty());
    }

    #[test]
    fn file_roundtrip() {
        let text = "p cnf 4 2\na 1 2 0\nd 3 1 0\nd 4 2 0\n3 1 0\n-4 2 0\n";
        let file = dimacs::parse_dqdimacs(text).unwrap();
        let dqbf = Dqbf::from_file(&file);
        assert_eq!(dqbf.universals().len(), 2);
        assert_eq!(dqbf.existentials().len(), 2);
        let back = dqbf.to_file();
        let rendered = dimacs::write_dqdimacs(&back);
        let reparsed = dimacs::parse_dqdimacs(&rendered).unwrap();
        assert_eq!(reparsed.universals, file.universals);
        assert_eq!(reparsed.existentials, file.existentials);
    }

    #[test]
    fn qbf_expressibility_and_linearisation() {
        // Example 1: cyclic, not expressible.
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        let _y1 = d.add_existential([x1]);
        let _y2 = d.add_existential([x2]);
        assert!(!d.is_qbf_expressible());
        assert!(d.linearised_qbf().is_none());
        // Nested dependencies: expressible.
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        let y1 = d.add_existential([x1]);
        let _y2 = d.add_existential([x1, x2]);
        d.add_clause([Lit::positive(y1), Lit::positive(x2)]);
        assert!(d.is_qbf_expressible());
        let file = d.linearised_qbf().expect("expressible");
        assert!(file.blocks.len() >= 3);
        // The linearised QBF has the same truth value.
        let dqbf_result = crate::HqsSolver::new().run(&d);
        assert_eq!(
            hqs_qbf::reference::eval_qdimacs(&file),
            matches!(dqbf_result, crate::DqbfResult::Sat)
        );
    }

    #[test]
    fn total_dependencies_detection() {
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        let _y = d.add_existential([x1, x2]);
        assert!(d.has_total_dependencies());
        let _z = d.add_existential([x1]);
        assert!(!d.has_total_dependencies());
    }
}
