//! The elimination-based QBF decision procedure.

use crate::Prefix;
use hqs_aig::{Aig, AigEdge, ConeWalk, UnitPureBatch};
use hqs_base::{Budget, Exhaustion, Var};
use hqs_cnf::{QdimacsFile, Quantifier};
use hqs_obs::{Metric, Obs};
use std::collections::HashMap;

/// Result of a QBF solve.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QbfResult {
    /// The formula is true.
    Sat,
    /// The formula is false.
    Unsat,
    /// A resource limit was hit first.
    Limit(Exhaustion),
}

/// Counters describing one solve.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct QbfStats {
    /// Universal variables eliminated by ∀-quantification.
    pub universal_elims: u64,
    /// Existential variables eliminated by ∃-quantification.
    pub existential_elims: u64,
    /// Variables removed by unit/pure reduction (Theorems 5/6).
    pub unit_pure_elims: u64,
    /// CDCL calls issued (final SAT checks).
    pub sat_calls: u64,
    /// Largest AIG node count observed.
    pub peak_nodes: usize,
}

/// An AIG-based quantifier-elimination QBF solver (AIGSOLVE-style).
///
/// See the [crate docs](crate) for the algorithm and examples. The solver
/// is reusable; [`QbfStats`] accumulate per call and can be read with
/// [`stats`](QbfSolver::stats).
#[derive(Debug, Default)]
pub struct QbfSolver {
    budget: Budget,
    stats: QbfStats,
    obs: Obs,
}

impl QbfSolver {
    /// Creates a solver with an unlimited budget.
    #[must_use]
    pub fn new() -> Self {
        QbfSolver {
            budget: Budget::new(),
            stats: QbfStats::default(),
            obs: Obs::disabled(),
        }
    }

    /// Sets the resource budget for subsequent calls.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Attaches an observability handle; `Qbf*` counters and the
    /// `QbfPeakNodes` gauge are flushed through it at the end of every
    /// [`solve`](QbfSolver::solve) call.
    pub fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Returns the accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> QbfStats {
        self.stats
    }

    /// Solves a parsed QDIMACS file. Free variables are treated as
    /// outermost existentials.
    pub fn solve_file(&mut self, file: &QdimacsFile) -> QbfResult {
        let mut aig = Aig::new();
        aig.set_observer(self.obs.clone());
        let root = aig.from_cnf(&file.matrix);
        let mut quantified: Vec<Var> = Vec::new();
        for block in &file.blocks {
            quantified.extend(block.vars.iter().copied());
        }
        let support = aig.support(root);
        let free: Vec<Var> = support.iter().filter(|v| !quantified.contains(v)).collect();
        let mut prefix = Prefix::new();
        prefix.push_block(Quantifier::Existential, free);
        for block in &file.blocks {
            prefix.push_block(block.quantifier, block.vars.clone());
        }
        self.solve(&mut aig, root, prefix)
    }

    /// Solves the QBF whose matrix is the cone of `root` in `aig` under
    /// `prefix`.
    ///
    /// Variables in the support of `root` but absent from `prefix` are
    /// treated as outermost existentials (they survive into the final SAT
    /// check).
    pub fn solve(&mut self, aig: &mut Aig, root: AigEdge, prefix: Prefix) -> QbfResult {
        let before = self.stats;
        let result = self.solve_inner(aig, root, prefix);
        self.flush_obs(before);
        result
    }

    /// Emits the [`QbfStats`] accumulated since `before` as counter deltas
    /// plus the peak-node gauge.
    fn flush_obs(&self, before: QbfStats) {
        if !self.obs.is_enabled() {
            return;
        }
        let s = self.stats;
        self.obs.add(
            Metric::QbfUniversalElims,
            s.universal_elims.saturating_sub(before.universal_elims),
        );
        self.obs.add(
            Metric::QbfExistentialElims,
            s.existential_elims.saturating_sub(before.existential_elims),
        );
        self.obs.add(
            Metric::QbfUnitPureElims,
            s.unit_pure_elims.saturating_sub(before.unit_pure_elims),
        );
        self.obs.add(
            Metric::QbfSatCalls,
            s.sat_calls.saturating_sub(before.sat_calls),
        );
        self.obs
            .gauge_max(Metric::QbfPeakNodes, s.peak_nodes as u64);
    }

    /// The elimination loop. Each iteration works from one walk of the
    /// matrix ([`Aig::walk`]): its Theorem-6 statuses drive unit/pure,
    /// its support trims the prefix, its occurrence counts pick the next
    /// variable, and [`Aig::reduce`] hands back the walk of the next
    /// matrix.
    fn solve_inner(&mut self, aig: &mut Aig, root: AigEdge, prefix: Prefix) -> QbfResult {
        let mut prefix = prefix;
        let mut walk = aig.walk(root);
        loop {
            if let Some(result) = constant_result(walk.root()) {
                return result;
            }
            self.stats.peak_nodes = self.stats.peak_nodes.max(aig.num_nodes());
            if let Some(e) = self.budget.check(aig.num_nodes()) {
                return QbfResult::Limit(e);
            }
            // Theorem 5 to a fixpoint, every step one walk licenses at once.
            // analyze::allow(cancel): each pass removes at least one prefix variable, so it ends within |prefix| passes
            loop {
                let assigns = match aig.unit_pure(&walk).batch(|var| prefix.quantifier_of(var)) {
                    UnitPureBatch::Refute => return QbfResult::Unsat,
                    UnitPureBatch::Assign(assigns) if assigns.is_empty() => break,
                    UnitPureBatch::Assign(assigns) => assigns,
                };
                let constants: HashMap<Var, AigEdge> = assigns
                    .iter()
                    .map(|&(var, value)| (var, if value { Aig::TRUE } else { Aig::FALSE }))
                    .collect();
                let root = walk.root();
                // The walk describes the old matrix: free it before the
                // cone grows.
                drop(walk);
                let root = aig.compose_many(root, &constants);
                self.stats.unit_pure_elims += assigns.len() as u64;
                // analyze::allow(cancel): bounded by the batch, one removal per assigned variable
                for &(var, _) in &assigns {
                    prefix.remove_var(var);
                }
                walk = aig.walk(root);
            }
            if walk.root().is_constant() {
                continue;
            }
            prefix.retain_support(walk.support());
            if !prefix.has_universal() {
                return self.final_sat(aig, &walk);
            }
            // Eliminate the cheapest variable of the innermost block.
            let block = prefix.innermost().expect("universal exists").clone();
            let costs = aig.occurrence_counts(&walk, &block.vars);
            let (pos, _) = costs
                .iter()
                .enumerate()
                .min_by_key(|&(_, c)| *c)
                .expect("non-empty block");
            let var = block.vars[pos];
            let root = walk.root();
            // The walk describes the old matrix: free it before the cone
            // grows.
            drop(walk);
            let root = match block.quantifier {
                Quantifier::Universal => {
                    self.stats.universal_elims += 1;
                    aig.forall(root, var)
                }
                Quantifier::Existential => {
                    self.stats.existential_elims += 1;
                    aig.exists(root, var)
                }
            };
            prefix.remove_var(var);
            walk = aig.reduce(root);
        }
    }

    /// Final step: only existentials left, one CDCL call decides.
    fn final_sat(&mut self, aig: &mut Aig, walk: &ConeWalk) -> QbfResult {
        let root = walk.root();
        if let Some(result) = constant_result(root) {
            return result;
        }
        self.stats.sat_calls += 1;
        let first_aux = walk.support().iter().map(|v| v.bound()).max().unwrap_or(0);
        let mut solver = hqs_sat::Solver::builder()
            .observer(self.obs.clone())
            .budget(self.budget.clone())
            .build()
            .expect("default SAT configuration is valid");
        let (out, num_vars) = aig.tseitin(walk, first_aux, |lits| {
            solver.add_clause(lits.iter().copied());
        });
        solver.ensure_vars(num_vars);
        solver.add_clause([out]);
        match solver.solve(&[]) {
            hqs_sat::SolveResult::Sat => QbfResult::Sat,
            hqs_sat::SolveResult::Unsat => QbfResult::Unsat,
            hqs_sat::SolveResult::Unknown => QbfResult::Limit(self.budget.stop_reason()),
        }
    }
}

fn constant_result(root: AigEdge) -> Option<QbfResult> {
    if root == Aig::TRUE {
        Some(QbfResult::Sat)
    } else if root == Aig::FALSE {
        Some(QbfResult::Unsat)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::eval_qdimacs;
    use hqs_cnf::dimacs::parse_qdimacs;

    fn solve_text(text: &str) -> QbfResult {
        let file = parse_qdimacs(text).unwrap();
        QbfSolver::new().solve_file(&file)
    }

    #[test]
    fn forall_exists_copy_is_sat() {
        assert_eq!(
            solve_text("p cnf 2 2\na 1 0\ne 2 0\n1 -2 0\n-1 2 0\n"),
            QbfResult::Sat
        );
    }

    #[test]
    fn exists_forall_copy_is_unsat() {
        assert_eq!(
            solve_text("p cnf 2 2\ne 2 0\na 1 0\n1 -2 0\n-1 2 0\n"),
            QbfResult::Unsat
        );
    }

    #[test]
    fn propositional_fallback() {
        assert_eq!(solve_text("p cnf 2 2\n1 2 0\n-1 2 0\n"), QbfResult::Sat);
        assert_eq!(solve_text("p cnf 1 2\n1 0\n-1 0\n"), QbfResult::Unsat);
    }

    #[test]
    fn universal_only_tautology_check() {
        // ∀x. (x ∨ ¬x) — true.
        assert_eq!(solve_text("p cnf 1 1\na 1 0\n1 -1 0\n"), QbfResult::Sat);
        // ∀x. x — false.
        assert_eq!(solve_text("p cnf 1 1\na 1 0\n1 0\n"), QbfResult::Unsat);
    }

    #[test]
    fn three_block_alternation() {
        // ∀x ∃y ∀z. (x⊕y⊕z is odd) is unsat; (y ↔ x) ∧ (z → z) is sat.
        // Use: ∀x ∃y ∀z. (x∨y∨z)(¬x∨¬y∨z)... craft: y must equal ¬x, then
        // clause (y∨x∨z)(…) — simpler known case:
        // ∀x ∃y ∀z. (x ∨ ¬y ∨ z) ∧ (¬x ∨ y) : pick y=x; z arbitrary:
        // x=0: (0∨¬0∨z)=1? y=0: c1=(0 ∨ 1 ∨ z)=1, c2=(1∨0)=1 ok.
        // x=1,y=1: c1=(1∨0∨z)=1, c2=(0∨1)=1. SAT.
        assert_eq!(
            solve_text("p cnf 3 2\na 1 0\ne 2 0\na 3 0\n1 -2 3 0\n-1 2 0\n"),
            QbfResult::Sat
        );
    }

    /// Solves `text` and checks the verdict against brute force; returns
    /// the solver's counters.
    fn solve_checked(text: &str) -> (QbfResult, QbfStats) {
        let file = parse_qdimacs(text).unwrap();
        let mut solver = QbfSolver::new();
        let result = solver.solve_file(&file);
        let expected = if eval_qdimacs(&file) {
            QbfResult::Sat
        } else {
            QbfResult::Unsat
        };
        assert_eq!(result, expected, "{text}");
        (result, solver.stats())
    }

    #[test]
    fn one_walk_licenses_an_existential_and_a_universal_pure_together() {
        // ∀x2 ∃y1. (y1 ∨ x2): y1 is existential positive pure (y1 := 1)
        // and x2 universal positive pure (x2 := 0). One at a time, y1 := 1
        // would satisfy the matrix before x2 was counted.
        let (result, stats) = solve_checked("p cnf 2 1\na 2 0\ne 1 0\n1 2 0\n");
        assert_eq!(result, QbfResult::Sat);
        assert_eq!(stats.unit_pure_elims, 2);
        assert_eq!(stats.universal_elims + stats.existential_elims, 0);
    }

    #[test]
    fn universal_unit_refutes_before_an_earlier_existential_assign() {
        // ∃y1 w3 ∀x2. (y1 ∨ w3) ∧ x2: y1 (pure) sorts before the universal
        // unit x2, but the unit answers first and nothing is assigned.
        let (result, stats) = solve_checked("p cnf 3 2\ne 1 3 0\na 2 0\n1 3 0\n2 0\n");
        assert_eq!(result, QbfResult::Unsat);
        assert_eq!(stats.unit_pure_elims, 0);
    }

    #[test]
    fn budget_memout_reported() {
        let file =
            parse_qdimacs("p cnf 4 3\na 1 2 0\ne 3 4 0\n1 2 3 0\n-1 -2 4 0\n1 -3 -4 0\n").unwrap();
        let mut solver = QbfSolver::new();
        solver.set_budget(Budget::new().with_node_limit(1));
        assert_eq!(
            solver.solve_file(&file),
            QbfResult::Limit(Exhaustion::Memout)
        );
    }

    #[test]
    fn agrees_with_brute_force_on_random_small_qbfs() {
        use hqs_base::Rng;
        let mut rng = Rng::seed_from_u64(2015);
        for round in 0..150 {
            let num_vars = rng.gen_range(2..=6u32);
            let num_clauses = rng.gen_range(1..=10usize);
            let mut text = format!("p cnf {num_vars} {num_clauses}\n");
            // Random prefix: each var universal or existential, grouped in
            // random alternating blocks by shuffling then chunking.
            let mut order: Vec<u32> = (1..=num_vars).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut pos = 0;
            let mut quantifier = if rng.gen_bool(0.5) { "a" } else { "e" };
            while pos < order.len() {
                let take = rng.gen_range(1..=order.len() - pos);
                let vars: Vec<String> = order[pos..pos + take].iter().map(u32::to_string).collect();
                text.push_str(&format!("{quantifier} {} 0\n", vars.join(" ")));
                quantifier = if quantifier == "a" { "e" } else { "a" };
                pos += take;
            }
            for _ in 0..num_clauses {
                let len = rng.gen_range(1..=3usize);
                let lits: Vec<String> = (0..len)
                    .map(|_| {
                        let v = rng.gen_range(1..=num_vars) as i64;
                        if rng.gen_bool(0.5) { v } else { -v }.to_string()
                    })
                    .collect();
                text.push_str(&format!("{} 0\n", lits.join(" ")));
            }
            let file = parse_qdimacs(&text).unwrap();
            let expected = if eval_qdimacs(&file) {
                QbfResult::Sat
            } else {
                QbfResult::Unsat
            };
            let got = QbfSolver::new().solve_file(&file);
            assert_eq!(got, expected, "round {round}:\n{text}");
        }
    }
}
