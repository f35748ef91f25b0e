//! Quantifier elimination on the AIG representation
//! (Theorems 1, 2 and 5 of the paper).
//!
//! [`AigDqbf`] is the solver's working state: the matrix as an AIG cone
//! plus the DQBF prefix (universals, existentials, dependency sets).
//! The three elimination rules transform it in place:
//!
//! * [`AigDqbf::eliminate_universal`] — Theorem 1:
//!   `φ ↦ φ[0/x] ∧ φ[1/x][y'/y for y ∈ E_x]`, introducing a fresh copy
//!   `y'` for every existential depending on `x`.
//! * [`AigDqbf::eliminate_one_total_existential`] — Theorem 2 on the
//!   cheapest existential `y` with `D_y = V^∀`: `φ ↦ φ[0/y] ∨ φ[1/y]`.
//! * [`AigDqbf::apply_unit_pure`] — Theorem 5, driven by the syntactic
//!   Theorem-6 traversal of [`hqs_aig`], every licensed step at once.
//!
//! Once the dependency graph is acyclic, `AigDqbf::linearise` puts the
//! prefix in QBF block order, and the QBF finish needs only two more
//! steps: `AigDqbf::eliminate_innermost_block`, Theorem 2 on the
//! innermost ∃ block or else Theorem 1 on the innermost ∀ block (whose
//! universals have no dependent to copy), up to four variables in one
//! [`Aig::quantify_block`] sweep, and `AigDqbf::decide_by_sat` once no
//! universal is left.
//!
//! The state keeps the [walk](hqs_aig::Aig::walk) of its matrix that
//! [`AigDqbf::reduce`] ends each elimination with. The next unit/pure
//! check, [`AigDqbf::drop_unused`], the choice of the next variable and
//! the step itself read that one walk instead of walking the cone again:
//! every step rebuilds the matrix by a forward sweep over it
//! ([`Aig::cofactors`], [`Aig::compose_many`] or [`Aig::quantify_block`]).
//! Theorem 1 walks its positive cofactor once more, for the support that
//! decides which existentials get a copy and for the sweep that renames
//! them. No step recurses on the depth of the matrix.

use crate::Dqbf;
use hqs_aig::{Aig, AigEdge, ConeWalk, UnitPureBatch};
use hqs_base::{Var, VarSet};
use hqs_cnf::Quantifier;
use std::collections::HashMap;

/// The most variables one QBF-finish step eliminates
/// ([`AigDqbf::eliminate_innermost_block`]). On `pec-graded` three and
/// four per sweep tie on time, well ahead of one and two, and four keeps
/// the lower node peak (EXPERIMENTS.md, "The QBF finish: block
/// elimination"); four is the kernel's limit, [`Aig::MAX_BLOCK`].
const FINISH_BLOCK: usize = 4;

/// The AIG-based working form of a DQBF.
///
/// # Examples
///
/// ```
/// use hqs_base::Lit;
/// use hqs_core::{Dqbf, elim::AigDqbf};
///
/// let mut dqbf = Dqbf::new();
/// let x = dqbf.add_universal();
/// let y = dqbf.add_existential([x]);
/// dqbf.add_clause([Lit::positive(x), Lit::positive(y)]);
/// let mut state = AigDqbf::from_dqbf(&dqbf);
/// assert_eq!(state.universals().len(), 1);
/// state.eliminate_universal(x);
/// assert!(state.universals().is_empty());
/// ```
#[derive(Debug)]
pub struct AigDqbf {
    /// The AIG manager holding the matrix.
    pub aig: Aig,
    /// The matrix cone; read it with [`AigDqbf::root`].
    root: AigEdge,
    /// The walk of `root` the last step left behind, if it still matches.
    walk: Option<ConeWalk>,
    pub(crate) universals: Vec<Var>,
    pub(crate) universal_set: VarSet,
    pub(crate) existentials: Vec<Var>,
    pub(crate) deps: HashMap<Var, VarSet>,
    pub(crate) next_var: u32,
}

impl AigDqbf {
    /// Builds the working state from a CNF-based DQBF (free variables are
    /// bound as empty-dependency existentials).
    #[must_use]
    pub fn from_dqbf(dqbf: &Dqbf) -> Self {
        let mut dqbf = dqbf.clone();
        dqbf.bind_free_vars();
        let mut aig = Aig::new();
        let root = aig.from_cnf(dqbf.matrix());
        AigDqbf {
            aig,
            root,
            walk: None,
            universals: dqbf.universals().to_vec(),
            universal_set: dqbf.universals().iter().copied().collect(),
            existentials: dqbf.existentials().to_vec(),
            deps: dqbf
                .existentials()
                .iter()
                .map(|&y| (y, dqbf.dependencies(y).expect("existential").clone()))
                .collect(),
            next_var: dqbf.num_vars(),
        }
    }

    /// Builds the state from pre-assembled parts (used by the solver after
    /// preprocessing and gate composition).
    ///
    /// `next_var` must exceed every allocated variable index.
    #[must_use]
    pub fn from_parts(
        aig: Aig,
        root: AigEdge,
        universals: Vec<Var>,
        existentials: Vec<(Var, VarSet)>,
        next_var: u32,
    ) -> Self {
        let universal_set: VarSet = universals.iter().copied().collect();
        AigDqbf {
            aig,
            root,
            walk: None,
            universals,
            universal_set,
            existentials: existentials.iter().map(|&(y, _)| y).collect(),
            deps: existentials.into_iter().collect(),
            next_var,
        }
    }

    /// The matrix cone.
    #[must_use]
    pub fn root(&self) -> AigEdge {
        self.root
    }

    /// The remaining universal variables, in order.
    #[must_use]
    pub fn universals(&self) -> &[Var] {
        &self.universals
    }

    /// The remaining existential variables, in order (copies appended).
    #[must_use]
    pub fn existentials(&self) -> &[Var] {
        &self.existentials
    }

    /// The dependency set of `y`.
    #[must_use]
    pub fn dependencies(&self, y: Var) -> Option<&VarSet> {
        self.deps.get(&y)
    }

    /// Existential/dependency pairs, for dependency-graph construction.
    #[must_use]
    pub fn existential_deps(&self) -> Vec<(Var, VarSet)> {
        self.existentials
            .iter()
            .map(|&y| (y, self.deps[&y].clone()))
            .collect()
    }

    /// `|E_x|`: how many existential copies eliminating `x` would create.
    #[must_use]
    pub fn copies_of(&self, x: Var) -> usize {
        self.existentials
            .iter()
            .filter(|y| self.deps[y].contains(x))
            .count()
    }

    /// Eliminates universal `x` by Theorem 1. Copies are created only for
    /// existentials that actually occur in the positive cofactor's support;
    /// the others keep their (now `x`-free) dependency sets.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a current universal variable.
    pub fn eliminate_universal(&mut self, x: Var) {
        assert!(self.universal_set.contains(x), "{x} is not universal");
        let walk = self.take_walk();
        let (cof0, cof1) = self.aig.cofactors(&walk, x);
        // Free the old matrix's walk before the positive cofactor's.
        drop(walk);
        let walk1 = self.aig.walk(cof1);
        let support1 = walk1.support();
        let mut replacement: HashMap<Var, AigEdge> = HashMap::new();
        let e_x: Vec<Var> = self
            .existentials
            .iter()
            .copied()
            .filter(|y| self.deps[y].contains(x))
            .collect();
        for y in e_x {
            self.deps.get_mut(&y).expect("existential").remove(x);
            if support1.contains(y) {
                let copy = Var::new(self.next_var);
                self.next_var += 1;
                let mut copy_deps = self.deps[&y].clone();
                copy_deps.remove(x);
                self.deps.insert(copy, copy_deps);
                self.existentials.push(copy);
                let edge = self.aig.input(copy);
                replacement.insert(y, edge);
            }
        }
        let cof1_renamed = self.aig.compose_many(&walk1, &replacement);
        self.root = self.aig.and(cof0, cof1_renamed);
        self.universals.retain(|&u| u != x);
        self.universal_set.remove(x);
        self.debug_audit("after eliminate_universal");
    }

    /// Eliminates a single total-dependency existential — the cheapest by
    /// cone-occurrence count — and returns `true`; `false` when none is
    /// left. Callers that enforce budgets use this to check limits between
    /// eliminations.
    pub fn eliminate_one_total_existential(&mut self) -> bool {
        let walk = self.take_walk();
        let candidates: Vec<Var> = self
            .existentials
            .iter()
            .copied()
            .filter(|y| self.deps[y] == self.universal_set && walk.support().contains(*y))
            .collect();
        // Cheapest first: fewest cone nodes mentioning the variable.
        let costs = self.aig.occurrence_counts(&walk, &candidates);
        let Some((pos, _)) = costs.iter().enumerate().min_by_key(|&(_, c)| *c) else {
            self.walk = Some(walk);
            return false;
        };
        let y = candidates[pos];
        let (cof0, cof1) = self.aig.cofactors(&walk, y);
        self.root = self.aig.or(cof0, cof1);
        self.remove_existential(y);
        self.debug_audit("after eliminate_one_total_existential");
        true
    }

    /// One QBF-finish step on a [linearised](AigDqbf::linearise) prefix:
    /// eliminates up to [`FINISH_BLOCK`] variables of the innermost block
    /// with one [`Aig::quantify_block`] sweep over the kept walk.
    ///
    /// The block is the existentials that depend on every universal
    /// (Theorem 2), or, when there are none, the universals that no
    /// existential depends on (Theorem 1 with no copy to make). One
    /// occurrence-cost sweep ranks its variables by cost, then by
    /// position, so the first is the one a one-variable step would pick.
    /// Returns the block's quantifier and how many variables went, or
    /// `None` when neither block has a variable in the matrix.
    pub(crate) fn eliminate_innermost_block(&mut self) -> Option<(Quantifier, usize)> {
        let walk = self.take_walk();
        let support = walk.support();
        let total: Vec<Var> = self
            .existentials
            .iter()
            .copied()
            .filter(|y| self.deps[y] == self.universal_set && support.contains(*y))
            .collect();
        let (quantifier, candidates) = if total.is_empty() {
            let mut depended = VarSet::new();
            for y in &self.existentials {
                depended.union_with(&self.deps[y]);
            }
            let free = self
                .universals
                .iter()
                .copied()
                .filter(|&x| !depended.contains(x) && support.contains(x))
                .collect();
            (Quantifier::Universal, free)
        } else {
            (Quantifier::Existential, total)
        };
        let costs = self.aig.occurrence_counts(&walk, &candidates);
        let mut ranked: Vec<(usize, Var)> = costs.into_iter().zip(candidates).collect();
        // A stable sort keeps equal costs in prefix order.
        ranked.sort_by_key(|&(cost, _)| cost);
        let block: Vec<Var> = ranked
            .into_iter()
            .take(FINISH_BLOCK)
            .map(|(_, var)| var)
            .collect();
        if block.is_empty() {
            self.walk = Some(walk);
            return None;
        }
        self.root = self.aig.quantify_block(&walk, &block, quantifier);
        for &var in &block {
            match quantifier {
                Quantifier::Existential => self.remove_existential(var),
                Quantifier::Universal => {
                    self.universals.retain(|&u| u != var);
                    self.universal_set.remove(var);
                }
            }
        }
        self.debug_audit("after eliminate_innermost_block");
        Some((quantifier, block.len()))
    }

    /// Puts the prefix into the block order of
    /// [`linearise`](crate::depgraph::linearise) and widens each
    /// existential's dependency set to the universals left of it, which
    /// keeps the truth value when the dependency sets form a ⊆-chain
    /// (Theorems 3 and 4); returns `false`, changing nothing, otherwise.
    /// Then the existentials that depend on every universal are the
    /// innermost ∃ block, and the universals nobody depends on the
    /// innermost ∀ block.
    pub(crate) fn linearise(&mut self) -> bool {
        let Some(prefix) = crate::depgraph::linearise(&self.universals, &self.existential_deps())
        else {
            return false;
        };
        self.universals.clear();
        self.existentials.clear();
        let mut left = VarSet::new();
        for block in prefix.blocks() {
            for &var in &block.vars {
                match block.quantifier {
                    Quantifier::Universal => {
                        left.insert(var);
                        self.universals.push(var);
                    }
                    Quantifier::Existential => {
                        self.deps.insert(var, left.clone());
                        self.existentials.push(var);
                    }
                }
            }
        }
        self.debug_audit("after linearise");
        true
    }

    /// Decides the matrix with one call of `solver` on its Tseitin
    /// encoding, every variable read as existential: the last step once no
    /// universal is left. `None` when the solver's budget ran out first.
    pub(crate) fn decide_by_sat(&mut self, mut solver: hqs_sat::Solver) -> Option<bool> {
        let walk = self.take_walk();
        let first_aux = walk.support().iter().map(|v| v.bound()).max().unwrap_or(0);
        let (out, num_vars) = self.aig.tseitin(&walk, first_aux, |lits| {
            solver.add_clause(lits.iter().copied());
        });
        self.walk = Some(walk);
        solver.ensure_vars(num_vars);
        solver.add_clause([out]);
        match solver.solve(&[]) {
            hqs_sat::SolveResult::Sat => Some(true),
            hqs_sat::SolveResult::Unsat => Some(false),
            hqs_sat::SolveResult::Unknown => None,
        }
    }

    /// One round of Theorem-5 elimination driven by the syntactic
    /// Theorem-6 check: applies every step the classification licenses at
    /// once (see [`hqs_aig::UnitPureStatus::batch`] for why that is
    /// sound). Returns
    ///
    /// * [`UnitPureBatch::Refute`] — a universal is unit, so the formula
    ///   is **unsatisfied**; nothing was assigned,
    /// * [`UnitPureBatch::Assign`] — the variables eliminated and their
    ///   values; empty when nothing applied, and the caller can stop
    ///   iterating.
    pub fn apply_unit_pure(&mut self) -> UnitPureBatch {
        let walk = self.take_walk();
        let batch = self
            .aig
            .unit_pure(&walk)
            .batch(|var| self.quantifier_of(var));
        match &batch {
            UnitPureBatch::Assign(values) if !values.is_empty() => {
                let constants: HashMap<Var, AigEdge> = values
                    .iter()
                    .map(|&(var, value)| (var, if value { Aig::TRUE } else { Aig::FALSE }))
                    .collect();
                self.root = self.aig.compose_many(&walk, &constants);
                self.remove_batch(&values.iter().map(|&(var, _)| var).collect());
                self.debug_audit("after unit/pure elimination");
            }
            _ => self.walk = Some(walk),
        }
        batch
    }

    /// Keeps the manager small after an elimination ([`Aig::reduce`]) and
    /// keeps the walk it ends with for the next step to read.
    pub fn reduce(&mut self) {
        let walk = self.aig.reduce(self.root);
        self.root = walk.root();
        self.walk = Some(walk);
    }

    /// The walk of the current matrix: the one the last step left if it
    /// still describes `root`, else a fresh one. Only [`AigDqbf::reduce`]
    /// compacts the manager, and it replaces the kept walk, so a kept
    /// walk of `root` is never stale.
    fn take_walk(&mut self) -> ConeWalk {
        match self.walk.take() {
            Some(walk) if walk.root() == self.root => walk,
            _ => self.aig.walk(self.root),
        }
    }

    /// The quantifier binding `var` in the current prefix, if any.
    fn quantifier_of(&self, var: Var) -> Option<Quantifier> {
        if self.universal_set.contains(var) {
            Some(Quantifier::Universal)
        } else if self.deps.contains_key(&var) {
            Some(Quantifier::Existential)
        } else {
            None
        }
    }

    fn remove_existential(&mut self, y: Var) {
        self.existentials.retain(|&v| v != y);
        self.deps.remove(&y);
    }

    /// Removes every variable of `vars` from the prefix at once: one
    /// `retain` of each quantifier's list and one pass over the
    /// dependency sets, whatever the size of the batch. The lists keep
    /// their order, as removing the variables one at a time would.
    fn remove_batch(&mut self, vars: &VarSet) {
        self.universals.retain(|&x| !vars.contains(x));
        self.existentials.retain(|&y| !vars.contains(y));
        let universals = vars.intersection(&self.universal_set);
        self.universal_set.difference_with(&universals);
        for var in vars.iter() {
            self.deps.remove(&var);
        }
        if !universals.is_empty() {
            // analyze::allow(determinism): each dependency set is mutated independently — visit order cannot affect the result
            for deps in self.deps.values_mut() {
                deps.difference_with(&universals);
            }
        }
    }

    /// Drops prefix variables that no longer occur in the matrix support.
    /// Unused universals are simply removed (their quantification is
    /// vacuous); unused existentials likewise.
    pub fn drop_unused(&mut self) {
        let walk = self.take_walk();
        let support = walk.support();
        self.universals.retain(|&x| {
            let keep = support.contains(x);
            if !keep {
                self.universal_set.remove(x);
            }
            keep
        });
        // Removed universals must disappear from dependency sets.
        // analyze::allow(determinism): each dependency set is mutated independently — visit order cannot affect the result
        for deps in self.deps.values_mut() {
            deps.intersect_with(&self.universal_set);
        }
        let deps = &mut self.deps;
        self.existentials.retain(|&y| {
            let keep = support.contains(y);
            if !keep {
                deps.remove(&y);
            }
            keep
        });
        self.walk = Some(walk);
        self.debug_audit("after drop_unused");
    }

    /// Converts back to a CNF-based [`Dqbf`] by Tseitin encoding; auxiliary
    /// gate variables become existentials depending on **all** current
    /// universals (their values are functions of the other variables, hence
    /// Skolem-representable). Used by the test oracle.
    #[must_use]
    pub fn to_dqbf(&mut self) -> Dqbf {
        let first_aux = self.next_var;
        let (cnf, out) = self.aig.to_cnf(self.root, first_aux);
        let mut dqbf = Dqbf::new();
        // Recreate prefix in variable order: universals first.
        let mut mapping: HashMap<Var, Var> = HashMap::new();
        for &x in &self.universals {
            mapping.insert(x, dqbf.add_universal());
        }
        for &y in &self.existentials {
            let deps: Vec<Var> = self.deps[&y].iter().map(|d| mapping[&d]).collect();
            mapping.insert(y, dqbf.add_existential(deps));
        }
        // Auxiliary variables: innermost existentials.
        for aux in first_aux..cnf.num_vars() {
            mapping.insert(Var::new(aux), dqbf.add_existential_innermost());
        }
        // Any other support variable (shouldn't happen) maps identically.
        for clause in cnf.clauses() {
            dqbf.add_clause(clause.lits().iter().map(|&l| {
                let var = *mapping.get(&l.var()).unwrap_or(&l.var());
                hqs_base::Lit::new(var, l.is_negative())
            }));
        }
        let out_var = *mapping.get(&out.var()).unwrap_or(&out.var());
        dqbf.add_clause([hqs_base::Lit::new(out_var, out.is_negative())]);
        dqbf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::is_satisfiable_by_expansion;
    use hqs_base::Lit;

    fn example_one() -> (Dqbf, Var, Var, Var, Var) {
        // ∀x1∀x2 ∃y1(x1) ∃y2(x2) : (y1↔x1) ∧ (y2↔x2)
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        let y1 = d.add_existential([x1]);
        let y2 = d.add_existential([x2]);
        for (x, y) in [(x1, y1), (x2, y2)] {
            d.add_clause([Lit::positive(x), Lit::negative(y)]);
            d.add_clause([Lit::negative(x), Lit::positive(y)]);
        }
        (d, x1, x2, y1, y2)
    }

    #[test]
    fn universal_elimination_creates_copies() {
        let (d, x1, _, _, _) = example_one();
        let mut state = AigDqbf::from_dqbf(&d);
        let before = state.existentials().len();
        state.eliminate_universal(x1);
        assert_eq!(state.universals().len(), 1);
        // y1 depended on x1 and occurs in the positive cofactor: one copy.
        assert_eq!(state.existentials().len(), before + 1);
        // All dependency sets no longer mention x1.
        for &y in state.existentials() {
            assert!(!state.dependencies(y).unwrap().contains(x1));
        }
    }

    #[test]
    fn elimination_preserves_truth() {
        let (d, x1, _, _, _) = example_one();
        assert!(is_satisfiable_by_expansion(&d));
        let mut state = AigDqbf::from_dqbf(&d);
        state.eliminate_universal(x1);
        assert!(is_satisfiable_by_expansion(&state.to_dqbf()));
        // After both universals: SAT matrix remains.
        let x2 = state.universals()[0];
        state.eliminate_universal(x2);
        assert!(state.universals().is_empty());
        assert!(is_satisfiable_by_expansion(&state.to_dqbf()));
    }

    #[test]
    fn elimination_preserves_falsity() {
        // ∀x1∀x2 ∃y(x1): y↔x2 — unsatisfiable.
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        let y = d.add_existential([x1]);
        d.add_clause([Lit::positive(x2), Lit::negative(y)]);
        d.add_clause([Lit::negative(x2), Lit::positive(y)]);
        assert!(!is_satisfiable_by_expansion(&d));
        let mut state = AigDqbf::from_dqbf(&d);
        state.eliminate_universal(x1);
        assert!(!is_satisfiable_by_expansion(&state.to_dqbf()));
        state.eliminate_universal(x2);
        assert!(!is_satisfiable_by_expansion(&state.to_dqbf()));
        // With all universals gone the matrix must be unsatisfiable
        // propositionally (all remaining vars existential).
    }

    #[test]
    fn existential_elimination_requires_total_deps() {
        // Neither y1 nor y2 depends on both universals: Theorem 2 applies
        // to neither, and nothing changes.
        let (d, _, _, y1, y2) = example_one();
        let mut state = AigDqbf::from_dqbf(&d);
        let root = state.root();
        assert!(!state.eliminate_one_total_existential());
        assert_eq!(state.root(), root);
        assert_eq!(state.existentials(), &[y1, y2]);
    }

    #[test]
    fn total_existential_elimination() {
        // ∀x ∃y(x): (y ↔ x) — y depends on all universals, eliminable.
        let mut d = Dqbf::new();
        let x = d.add_universal();
        let y = d.add_existential([x]);
        d.add_clause([Lit::positive(x), Lit::negative(y)]);
        d.add_clause([Lit::negative(x), Lit::positive(y)]);
        let mut state = AigDqbf::from_dqbf(&d);
        assert!(state.eliminate_one_total_existential());
        assert!(state.existentials().is_empty());
        // ∃y. y↔x ≡ TRUE for each x: the AIG collapses.
        assert_eq!(state.root(), Aig::TRUE);
        assert!(!state.eliminate_one_total_existential());
    }

    #[test]
    fn unit_pure_universal_unit_detects_unsat() {
        // ∀x: matrix = x — universal unit.
        let mut d = Dqbf::new();
        let x = d.add_universal();
        d.add_clause([Lit::positive(x)]);
        let mut state = AigDqbf::from_dqbf(&d);
        assert_eq!(state.apply_unit_pure(), UnitPureBatch::Refute);
    }

    #[test]
    fn unit_pure_eliminates_pure_existential() {
        // ∃y (free-style): matrix = (y ∨ x) ∧ (y ∨ ¬x), y positive pure.
        let mut d = Dqbf::new();
        let x = d.add_universal();
        let y = d.add_existential([]);
        d.add_clause([Lit::positive(y), Lit::positive(x)]);
        d.add_clause([Lit::positive(y), Lit::negative(x)]);
        let mut state = AigDqbf::from_dqbf(&d);
        // Repeated application ends in constant TRUE.
        loop {
            match state.apply_unit_pure() {
                UnitPureBatch::Refute => panic!("no unsat verdict expected"),
                UnitPureBatch::Assign(values) if values.is_empty() => break,
                UnitPureBatch::Assign(_) => {}
            }
        }
        assert_eq!(state.root(), Aig::TRUE);
    }

    #[test]
    fn one_walk_licenses_an_existential_and_a_universal_pure_together() {
        // ∃y ∀x: (y ∨ x). y is existential positive pure (y := 1) and x
        // universal positive pure (x := 0). One at a time, y := 1 would
        // satisfy the matrix and leave x to drop_unused.
        let mut d = Dqbf::new();
        let y = d.add_existential([]);
        let x = d.add_universal();
        d.add_clause([Lit::positive(y), Lit::positive(x)]);
        assert!(is_satisfiable_by_expansion(&d));
        let mut state = AigDqbf::from_dqbf(&d);
        assert_eq!(
            state.apply_unit_pure(),
            UnitPureBatch::Assign(vec![(y, true), (x, false)])
        );
        assert_eq!(state.root(), Aig::TRUE);
        assert!(state.universals().is_empty());
        assert!(state.existentials().is_empty());
        assert!(is_satisfiable_by_expansion(&state.to_dqbf()));
    }

    #[test]
    fn universal_unit_refutes_before_an_earlier_existential_assign() {
        // ∃y ∀x ∃z(x): (y ∨ z) ∧ x. The pure existential y (var 0) sorts
        // before the universal unit x (var 1), so one step at a time would
        // assign y first; the batch refutes with nothing assigned.
        let mut d = Dqbf::new();
        let y = d.add_existential([]);
        let x = d.add_universal();
        let z = d.add_existential([x]);
        d.add_clause([Lit::positive(y), Lit::positive(z)]);
        d.add_clause([Lit::positive(x)]);
        assert!(!is_satisfiable_by_expansion(&d));
        let mut state = AigDqbf::from_dqbf(&d);
        let root = state.root();
        assert_eq!(state.apply_unit_pure(), UnitPureBatch::Refute);
        assert_eq!(state.root(), root, "nothing assigned");
        assert_eq!(state.existentials(), &[y, z]);
        assert_eq!(state.universals(), &[x]);
    }

    /// One unit/pure batch of 10 000 assignments removes its variables
    /// from the prefix and from every dependency set exactly as removing
    /// them one at a time does, keeping the order of what is left.
    #[test]
    fn a_large_unit_pure_batch_leaves_the_prefix_one_at_a_time_removal_leaves() {
        const PURE_UNIVERSALS: usize = 2_000;
        const PURE_EXISTENTIALS: usize = 8_000;
        let mut d = Dqbf::new();
        // Two universals and two existentials occur in both polarities
        // and stay; the others occur positively only, so one batch
        // assigns every one of them.
        let kept_x: Vec<Var> = (0..2).map(|_| d.add_universal()).collect();
        let xs: Vec<Var> = (0..PURE_UNIVERSALS).map(|_| d.add_universal()).collect();
        let kept_y: Vec<Var> = kept_x
            .iter()
            .map(|&k| d.add_existential(xs.iter().copied().chain([k])))
            .collect();
        for (&k, &z) in kept_x.iter().zip(&kept_y) {
            d.add_clause([Lit::positive(k), Lit::positive(z)]);
            d.add_clause([Lit::negative(k), Lit::negative(z)]);
        }
        for i in 0..PURE_EXISTENTIALS {
            let (x, k) = (xs[i % PURE_UNIVERSALS], kept_x[i % 2]);
            let y = d.add_existential([x, k]);
            d.add_clause([Lit::positive(y), Lit::positive(x)]);
        }
        let mut state = AigDqbf::from_dqbf(&d);
        let (mut universals, mut existentials) =
            (state.universals.clone(), state.existentials.clone());
        let (mut universal_set, mut deps) = (state.universal_set.clone(), state.deps.clone());
        let UnitPureBatch::Assign(values) = state.apply_unit_pure() else {
            panic!("no universal is unit");
        };
        assert_eq!(values.len(), PURE_UNIVERSALS + PURE_EXISTENTIALS);
        for &(var, _) in &values {
            if universal_set.contains(var) {
                universals.retain(|&v| v != var);
                universal_set.remove(var);
                for set in deps.values_mut() {
                    set.remove(var);
                }
            } else {
                existentials.retain(|&v| v != var);
                deps.remove(&var);
            }
        }
        assert_eq!(state.universals, universals);
        assert_eq!(state.universals, kept_x);
        assert_eq!(state.universal_set, universal_set);
        assert_eq!(state.existentials, existentials);
        assert_eq!(state.existentials, kept_y);
        assert_eq!(state.deps, deps);
        assert_eq!(
            state.dependencies(kept_y[1]),
            Some(&VarSet::from_iter([kept_x[1]]))
        );
    }

    #[test]
    fn drop_unused_cleans_prefix() {
        let mut d = Dqbf::new();
        let _x = d.add_universal();
        let y = d.add_existential([]);
        d.add_clause([Lit::positive(y)]);
        let mut state = AigDqbf::from_dqbf(&d);
        state.drop_unused();
        assert!(state.universals().is_empty());
        assert_eq!(state.existentials(), &[y]);
    }

    /// The hand-off and the finish on random nested-dependency DQBFs:
    /// after [`AigDqbf::linearise`] the state lists its variables in the
    /// block order of `depgraph::linearise` and every existential depends
    /// on exactly the universals left of it; each finish ∀ then makes no
    /// copy, and no step changes the truth value.
    #[test]
    fn linearised_finish_steps_make_no_copies() {
        use hqs_base::Rng;
        let mut rng = Rng::seed_from_u64(1815);
        for round in 0..60 {
            let mut d = Dqbf::new();
            let nu = rng.gen_range(1..=4u32);
            let xs: Vec<Var> = (0..nu).map(|_| d.add_universal()).collect();
            let mut all = xs.clone();
            // Dependency sets that are prefixes of xs form a ⊆-chain.
            for _ in 0..rng.gen_range(1..=3u32) {
                let k = rng.gen_range(0..=nu) as usize;
                all.push(d.add_existential(xs[..k].iter().copied()));
            }
            for _ in 0..rng.gen_range(2..=8usize) {
                let len = rng.gen_range(1..=3usize);
                let lits: Vec<Lit> = (0..len)
                    .map(|_| Lit::new(all[rng.gen_range(0..all.len())], rng.gen_bool(0.5)))
                    .collect();
                d.add_clause(lits);
            }
            let expected = is_satisfiable_by_expansion(&d);
            let mut state = AigDqbf::from_dqbf(&d);
            let prefix = crate::depgraph::linearise(state.universals(), &state.existential_deps())
                .expect("nested dependency sets linearise");
            assert!(state.linearise());
            let (mut left, mut universals, mut existentials) = (VarSet::new(), vec![], vec![]);
            for block in prefix.blocks() {
                for &var in &block.vars {
                    if block.quantifier == Quantifier::Universal {
                        left.insert(var);
                        universals.push(var);
                    } else {
                        assert_eq!(state.dependencies(var), Some(&left), "round {round}");
                        existentials.push(var);
                    }
                }
            }
            assert_eq!(state.universals(), universals.as_slice(), "round {round}");
            assert_eq!(
                state.existentials(),
                existentials.as_slice(),
                "round {round}"
            );
            loop {
                state.drop_unused();
                if state.universals().is_empty() || state.root().is_constant() {
                    break;
                }
                let (existentials, next_var) = (state.existentials().len(), state.next_var);
                let universals = state.universals().len();
                match state.eliminate_innermost_block() {
                    Some((Quantifier::Existential, n)) => {
                        assert!((1..=FINISH_BLOCK).contains(&n), "round {round}");
                        assert_eq!(state.existentials().len(), existentials - n);
                        assert_eq!(state.universals().len(), universals, "round {round}");
                    }
                    Some((Quantifier::Universal, n)) => {
                        assert!((1..=FINISH_BLOCK).contains(&n), "round {round}");
                        assert_eq!(state.universals().len(), universals - n);
                        assert_eq!(state.existentials().len(), existentials, "round {round}");
                    }
                    None => panic!("round {round}: a linear prefix ends in a block"),
                }
                assert_eq!(state.next_var, next_var, "round {round}");
                state.reduce();
                let now = is_satisfiable_by_expansion(&state.to_dqbf());
                assert_eq!(now, expected, "round {round}");
            }
        }
    }

    /// Randomised soundness: a random sequence of Theorem-1/2 eliminations
    /// never changes the truth value (checked against the expansion
    /// oracle).
    #[test]
    fn random_elimination_sequences_preserve_truth() {
        use hqs_base::Rng;
        let mut rng = Rng::seed_from_u64(4242);
        for round in 0..60 {
            let mut d = Dqbf::new();
            let nu = rng.gen_range(1..=3u32);
            let ne = rng.gen_range(1..=3u32);
            let xs: Vec<Var> = (0..nu).map(|_| d.add_universal()).collect();
            let mut ys = Vec::new();
            for _ in 0..ne {
                let deps: Vec<Var> = xs.iter().copied().filter(|_| rng.gen_bool(0.6)).collect();
                ys.push(d.add_existential(deps));
            }
            let all_vars: Vec<Var> = xs.iter().chain(ys.iter()).copied().collect();
            for _ in 0..rng.gen_range(1..=6usize) {
                let len = rng.gen_range(1..=3usize);
                let lits: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = all_vars[rng.gen_range(0..all_vars.len())];
                        Lit::new(v, rng.gen_bool(0.5))
                    })
                    .collect();
                d.add_clause(lits);
            }
            let expected = is_satisfiable_by_expansion(&d);
            let mut state = AigDqbf::from_dqbf(&d);
            // Eliminate universals in random order, existentials whenever
            // total.
            let mut remaining = xs.clone();
            while !remaining.is_empty() {
                while state.eliminate_one_total_existential() {}
                let pick = rng.gen_range(0..remaining.len());
                let x = remaining.swap_remove(pick);
                state.eliminate_universal(x);
                let now = is_satisfiable_by_expansion(&state.to_dqbf());
                assert_eq!(now, expected, "round {round} after eliminating {x}");
            }
        }
    }
}
