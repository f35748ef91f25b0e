//! An exact partial MaxSAT solver.
//!
//! HQS (Gitina et al., DATE 2015, Section III-A) selects a *minimum* set of
//! universal variables to eliminate by solving a partial MaxSAT problem:
//! hard clauses encode that every binary dependency cycle must be broken
//! (Eq. 1 of the paper), soft unit clauses `¬x̂` ask for as few eliminated
//! variables as possible (Eq. 2). This crate provides the solver for such
//! instances: unweighted partial MaxSAT, solved exactly by
//! assumption-based linear search over a totalizer cardinality encoding on
//! top of the [`hqs_sat`] CDCL solver.
//!
//! # Examples
//!
//! ```
//! use hqs_base::{Lit, Var};
//! use hqs_maxsat::{MaxSatResult, MaxSatSolver};
//!
//! // Hard: (a ∨ b). Soft: ¬a, ¬b. Optimum violates exactly one soft clause.
//! let mut solver = MaxSatSolver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_hard([Lit::positive(a), Lit::positive(b)]);
//! solver.add_soft([Lit::negative(a)]);
//! solver.add_soft([Lit::negative(b)]);
//! match solver.solve() {
//!     MaxSatResult::Optimum { cost, model } => {
//!         assert_eq!(cost, 1);
//!         assert!(model.satisfies(Lit::positive(a)) || model.satisfies(Lit::positive(b)));
//!     }
//!     MaxSatResult::Unsatisfiable => unreachable!("hard clauses are satisfiable"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod totalizer;

pub use totalizer::Totalizer;

use hqs_base::{Assignment, Lit, Var};
use hqs_obs::{Metric, Obs};
use hqs_sat::{SolveResult, Solver};

/// Result of a [`MaxSatSolver::solve`] call.
#[derive(Clone, Debug)]
pub enum MaxSatResult {
    /// The hard clauses are satisfiable; `cost` is the minimum number of
    /// violated soft clauses and `model` attains it.
    Optimum {
        /// Minimum number of violated soft clauses.
        cost: usize,
        /// A model of the hard clauses attaining `cost`.
        model: Assignment,
    },
    /// The hard clauses alone are unsatisfiable.
    Unsatisfiable,
}

/// An exact solver for unweighted partial MaxSAT.
///
/// Soft clauses all have weight 1, which is what the HQS elimination-set
/// selection needs. See the [crate docs](crate) for background and an
/// example.
#[derive(Debug, Default)]
pub struct MaxSatSolver {
    sat: Solver,
    /// One relaxation literal per soft clause; the soft clause is violated
    /// iff its relaxation literal is true.
    relaxers: Vec<Lit>,
    obs: Obs,
}

impl MaxSatSolver {
    /// Creates an empty instance.
    #[must_use]
    pub fn new() -> Self {
        MaxSatSolver::default()
    }

    /// Attaches an observability handle: each [`solve`](MaxSatSolver::solve)
    /// then counts itself and its soft-clause load, and the inner CDCL
    /// solver reports its own conflict/propagation counters.
    ///
    /// Call this before adding variables or clauses — the inner CDCL
    /// solver is rebuilt with the observer installed.
    ///
    /// # Panics
    ///
    /// Panics if variables have already been allocated.
    pub fn set_observer(&mut self, obs: Obs) {
        assert_eq!(
            self.sat.num_vars(),
            0,
            "attach the observer before adding variables or clauses"
        );
        self.sat = Solver::builder()
            .observer(obs.clone())
            .build()
            .expect("default SAT configuration is valid");
        self.obs = obs;
    }

    /// Allocates a fresh problem variable.
    pub fn new_var(&mut self) -> Var {
        self.sat.new_var()
    }

    /// Ensures at least `n` variables exist.
    pub fn ensure_vars(&mut self, n: u32) {
        self.sat.ensure_vars(n);
    }

    /// Adds a hard clause.
    pub fn add_hard<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.sat.add_clause(lits);
    }

    /// Adds a weight-1 soft clause.
    ///
    /// Unit soft clauses need no auxiliary variable (the negation of the
    /// literal is the relaxation indicator); longer clauses get a fresh
    /// relaxation variable `r` and the hard clause `C ∨ r`.
    pub fn add_soft<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let lits: Vec<Lit> = lits.into_iter().collect();
        // Register clause variables before allocating any relaxation
        // variable, otherwise the fresh relaxer could collide with a clause
        // variable the solver has not seen yet.
        for &l in &lits {
            self.sat.ensure_vars(l.var().bound());
        }
        match lits.as_slice() {
            [] => {
                // An empty soft clause can never be satisfied: account for it
                // with a relaxer fixed to true.
                let r = self.sat.new_var();
                self.sat.add_clause([Lit::positive(r)]);
                self.relaxers.push(Lit::positive(r));
            }
            [unit] => {
                self.relaxers.push(!*unit);
            }
            _ => {
                let r = Lit::positive(self.sat.new_var());
                let mut clause = lits;
                clause.push(r);
                self.sat.add_clause(clause);
                self.relaxers.push(r);
            }
        }
    }

    /// Computes the exact optimum.
    ///
    /// Runs linear search from above: first a plain SAT call on the hard
    /// clauses gives an upper bound, then a totalizer over the relaxation
    /// literals is tightened one step at a time under assumptions until the
    /// bound becomes unsatisfiable.
    pub fn solve(&mut self) -> MaxSatResult {
        self.obs.add(Metric::MaxSatCalls, 1);
        self.obs
            .add(Metric::MaxSatSoftClauses, self.relaxers.len() as u64);
        match self.sat.solve(&[]) {
            SolveResult::Unsat => return MaxSatResult::Unsatisfiable,
            SolveResult::Sat => {}
            SolveResult::Unknown => unreachable!("no budget set on MaxSAT's SAT backend"),
        }
        let mut best_model = self.sat.model();
        let mut best_cost = self.current_cost(&best_model);
        if best_cost == 0 || self.relaxers.is_empty() {
            return MaxSatResult::Optimum {
                cost: best_cost,
                model: best_model,
            };
        }
        let totalizer = Totalizer::encode(&mut self.sat, &self.relaxers);
        while best_cost > 0 {
            // Forbid `best_cost` or more violated softs: ¬output[best_cost].
            let bound_lit = !totalizer.at_least(best_cost);
            match self.sat.solve(&[bound_lit]) {
                SolveResult::Sat => {
                    best_model = self.sat.model();
                    let cost = self.current_cost(&best_model);
                    debug_assert!(cost < best_cost, "cost strictly decreases");
                    best_cost = cost;
                }
                SolveResult::Unsat => break,
                SolveResult::Unknown => unreachable!("no budget set on MaxSAT's SAT backend"),
            }
        }
        MaxSatResult::Optimum {
            cost: best_cost,
            model: best_model,
        }
    }

    fn current_cost(&self, model: &Assignment) -> usize {
        self.relaxers
            .iter()
            .filter(|&&r| model.satisfies(r))
            .count()
    }
}

/// Brute-force partial MaxSAT oracle over all assignments of `num_vars`
/// variables; for tests on tiny instances only.
///
/// `hard` and `soft` are slices of clauses given as literal vectors. Returns
/// `None` if the hard clauses are unsatisfiable, otherwise the minimum
/// number of violated soft clauses.
#[must_use]
pub fn brute_force_optimum(num_vars: u32, hard: &[Vec<Lit>], soft: &[Vec<Lit>]) -> Option<usize> {
    assert!(num_vars <= 20, "brute force oracle limited to 20 variables");
    let mut best: Option<usize> = None;
    for bits in 0u64..(1u64 << num_vars) {
        let model: Assignment = (0..num_vars)
            .map(|i| (Var::new(i), bits >> i & 1 == 1))
            .collect();
        let sat_clause = |clause: &[Lit]| clause.iter().any(|&l| model.satisfies(l));
        if !hard.iter().all(|c| sat_clause(c)) {
            continue;
        }
        let cost = soft.iter().filter(|c| !sat_clause(c)).count();
        best = Some(best.map_or(cost, |b: usize| b.min(cost)));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(value: i64) -> Lit {
        Lit::from_dimacs(value).unwrap()
    }

    #[test]
    fn no_soft_clauses_is_plain_sat() {
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1), lit(2)]);
        match s.solve() {
            MaxSatResult::Optimum { cost, .. } => assert_eq!(cost, 0),
            MaxSatResult::Unsatisfiable => panic!("satisfiable hard clauses"),
        }
    }

    #[test]
    fn hard_unsat_detected() {
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1)]);
        s.add_hard([lit(-1)]);
        s.add_soft([lit(2)]);
        assert!(matches!(s.solve(), MaxSatResult::Unsatisfiable));
    }

    #[test]
    fn one_of_two_conflicting_softs() {
        let mut s = MaxSatSolver::new();
        s.add_soft([lit(1)]);
        s.add_soft([lit(-1)]);
        match s.solve() {
            MaxSatResult::Optimum { cost, .. } => assert_eq!(cost, 1),
            MaxSatResult::Unsatisfiable => panic!(),
        }
    }

    #[test]
    fn vertex_cover_style_instance() {
        // Edges (1,2), (2,3), (3,4): hard clauses x_i ∨ x_j; soft ¬x_i.
        // Minimum vertex cover is {2, 3} ⇒ cost 2... actually {2,4} or {2,3}:
        // size 2.
        let mut s = MaxSatSolver::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            s.add_hard([lit(a), lit(b)]);
        }
        for v in 1..=4 {
            s.add_soft([lit(-v)]);
        }
        match s.solve() {
            MaxSatResult::Optimum { cost, model } => {
                assert_eq!(cost, 2);
                for (a, b) in [(1, 2), (2, 3), (3, 4)] {
                    assert!(model.satisfies(lit(a)) || model.satisfies(lit(b)));
                }
            }
            MaxSatResult::Unsatisfiable => panic!(),
        }
    }

    #[test]
    fn non_unit_soft_clauses() {
        // Hard: ¬a. Softs: (a ∨ b), (a ∨ ¬b) — exactly one must break? No:
        // with a=false, choose b freely; (a∨b) holds iff b, (a∨¬b) iff ¬b.
        // Optimum violates exactly one.
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(-1)]);
        s.add_soft([lit(1), lit(2)]);
        s.add_soft([lit(1), lit(-2)]);
        match s.solve() {
            MaxSatResult::Optimum { cost, .. } => assert_eq!(cost, 1),
            MaxSatResult::Unsatisfiable => panic!(),
        }
    }

    #[test]
    fn empty_soft_clause_counts_once() {
        let mut s = MaxSatSolver::new();
        s.add_soft(std::iter::empty());
        s.add_soft([lit(1)]);
        match s.solve() {
            MaxSatResult::Optimum { cost, .. } => assert_eq!(cost, 1),
            MaxSatResult::Unsatisfiable => panic!(),
        }
    }

    #[test]
    fn matches_brute_force_on_fixed_instances() {
        type Case = (u32, Vec<Vec<i64>>, Vec<Vec<i64>>);
        let cases: Vec<Case> = vec![
            (3, vec![vec![1, 2, 3]], vec![vec![-1], vec![-2], vec![-3]]),
            (
                4,
                vec![vec![1, 2], vec![-2, 3], vec![-3, -4]],
                vec![vec![2], vec![4], vec![-1]],
            ),
            (2, vec![], vec![vec![1], vec![-1], vec![2], vec![-2]]),
        ];
        for (n, hard, soft) in cases {
            let to_lits = |cs: &Vec<Vec<i64>>| -> Vec<Vec<Lit>> {
                cs.iter()
                    .map(|c| c.iter().map(|&v| lit(v)).collect())
                    .collect()
            };
            let hard_l = to_lits(&hard);
            let soft_l = to_lits(&soft);
            let expected = brute_force_optimum(n, &hard_l, &soft_l).unwrap();
            let mut s = MaxSatSolver::new();
            s.ensure_vars(n);
            for c in &hard_l {
                s.add_hard(c.iter().copied());
            }
            for c in &soft_l {
                s.add_soft(c.iter().copied());
            }
            match s.solve() {
                MaxSatResult::Optimum { cost, .. } => assert_eq!(cost, expected),
                MaxSatResult::Unsatisfiable => panic!(),
            }
        }
    }

    #[test]
    fn hqs_style_cycle_breaking_instance() {
        // Two binary cycles as in Eq. (1): {y,y'} with D_y \ D_y' = {x1,x2},
        // D_y' \ D_y = {x3}; and {y,y''} with difference sets {x1}, {x4}.
        // Variables x̂1..x̂4 are 1..4. Selector encoding mimics hqs-core.
        let mut s = MaxSatSolver::new();
        s.ensure_vars(4);
        // Cycle 1: (x̂1 ∧ x̂2) ∨ x̂3  — with selector t=5.
        s.add_hard([lit(-5), lit(1)]);
        s.add_hard([lit(-5), lit(2)]);
        s.add_hard([lit(5), lit(3)]);
        // Cycle 2: x̂1 ∨ x̂4 — direct clause.
        s.add_hard([lit(1), lit(4)]);
        for v in 1..=4 {
            s.add_soft([lit(-v)]);
        }
        match s.solve() {
            MaxSatResult::Optimum { cost, model } => {
                // Best: eliminate only x3 and x4 (cost 2)? Or x1 + x3 (cost 2)?
                // Check optimum is 2 and hard constraints hold.
                assert_eq!(cost, 2);
                let elim: Vec<bool> = (1..=4).map(|v| model.satisfies(lit(v))).collect();
                let cycle1 = (elim[0] && elim[1]) || elim[2];
                let cycle2 = elim[0] || elim[3];
                assert!(cycle1 && cycle2);
            }
            MaxSatResult::Unsatisfiable => panic!(),
        }
    }
}
