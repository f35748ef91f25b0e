//! Randomised tests: the CDCL solver against the reference DPLL oracle,
//! model validity, assumption semantics and incrementality.

use hqs_base::{Lit, Rng, TruthValue, Var};
use hqs_cnf::{Clause, Cnf};
use hqs_sat::{reference, SatConfig, SolveResult, Solver};

fn random_cnf(rng: &mut Rng, max_var: u32, max_clauses: usize) -> Cnf {
    let mut cnf = Cnf::new(max_var);
    for _ in 0..rng.gen_range(0..max_clauses) {
        let len = rng.gen_range(1..4usize);
        let lits =
            (0..len).map(|_| Lit::new(Var::new(rng.gen_range(0..max_var)), rng.gen_bool(0.5)));
        cnf.add_clause(Clause::from_lits(lits));
    }
    cnf
}

/// CDCL and DPLL agree on satisfiability; CDCL models really satisfy.
#[test]
fn cdcl_agrees_with_dpll() {
    for seed in 0..256u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let cnf = random_cnf(&mut rng, 8, 24);
        let expected = reference::is_satisfiable(&cnf);
        let mut solver = Solver::new();
        solver.add_cnf(&cnf);
        match solver.solve(&[]) {
            SolveResult::Sat => {
                assert!(expected, "seed {seed}: CDCL sat, DPLL unsat");
                let model = solver.model();
                assert_eq!(cnf.evaluate(&model), TruthValue::True, "seed {seed}");
            }
            SolveResult::Unsat => assert!(!expected, "seed {seed}: CDCL unsat, DPLL sat"),
            SolveResult::Unknown => panic!("seed {seed}: no budget was set"),
        }
    }
}

/// Both chronological-backtracking thresholds — 1, so the
/// chronological path actually runs on these tiny formulas, and the
/// default — agree with the DPLL oracle, and `Sat` verdicts come with
/// genuine models.
#[test]
fn every_search_policy_agrees_with_dpll() {
    let configs = [1, SatConfig::default().chrono_threshold].map(|chrono_threshold| SatConfig {
        chrono_threshold,
        ..SatConfig::default()
    });
    for seed in 0..96u64 {
        let mut rng = Rng::seed_from_u64(0x4000 + seed);
        let cnf = random_cnf(&mut rng, 8, 24);
        for config in &configs {
            assert!(
                reference::agrees_with_reference(&cnf, config),
                "seed {seed}: chrono threshold {} disagrees with the oracle",
                config.chrono_threshold
            );
        }
    }
}

/// Solving under assumptions equals solving the formula with the
/// assumptions added as unit clauses.
#[test]
fn assumptions_equal_units() {
    for seed in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x1000 + seed);
        let cnf = random_cnf(&mut rng, 6, 16);
        let mut assumptions: Vec<Lit> = Vec::new();
        for i in 0..6u32 {
            if rng.gen_bool(0.5) {
                assumptions.push(Lit::new(Var::new(i), rng.gen_bool(0.5)));
            }
        }
        let mut strengthened = cnf.clone();
        for &a in &assumptions {
            strengthened.add_clause(Clause::unit(a));
        }
        let expected = reference::is_satisfiable(&strengthened);
        let mut solver = Solver::new();
        solver.add_cnf(&cnf);
        let result = solver.solve(&assumptions);
        assert_eq!(result == SolveResult::Sat, expected, "seed {seed}");
        // And the solver stays reusable afterwards:
        let alone = reference::is_satisfiable(&cnf);
        assert_eq!(solver.solve(&[]) == SolveResult::Sat, alone, "seed {seed}");
    }
}

/// Failed assumptions are a genuine contradiction witness: asserting
/// just the failed subset is already unsatisfiable.
#[test]
fn failed_assumptions_form_a_core() {
    for seed in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x2000 + seed);
        let cnf = random_cnf(&mut rng, 6, 16);
        let assumptions: Vec<Lit> = (0..6u32)
            .map(|i| Lit::new(Var::new(i), rng.gen_bool(0.5)))
            .collect();
        let mut solver = Solver::new();
        solver.add_cnf(&cnf);
        if solver.solve(&assumptions) == SolveResult::Unsat {
            let failed: Vec<Lit> = solver.failed_assumptions().to_vec();
            for lit in &failed {
                assert!(
                    assumptions.contains(lit),
                    "seed {seed}: {lit:?} not an assumption"
                );
            }
            let mut check = cnf.clone();
            for &lit in &failed {
                check.add_clause(Clause::unit(lit));
            }
            assert!(
                !reference::is_satisfiable(&check),
                "seed {seed}: failed set {failed:?} is not contradictory"
            );
        }
    }
}

/// Incremental use: clause-by-clause addition gives the same verdicts
/// as monolithic solving at every step.
#[test]
fn incremental_matches_monolithic() {
    for seed in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x3000 + seed);
        let cnf = random_cnf(&mut rng, 6, 10);
        let mut solver = Solver::new();
        let mut so_far = Cnf::new(cnf.num_vars());
        for clause in cnf.clauses() {
            solver.add_clause(clause.lits().iter().copied());
            so_far.add_clause(clause.clone());
            let expected = reference::is_satisfiable(&so_far);
            assert_eq!(
                solver.solve(&[]) == SolveResult::Sat,
                expected,
                "seed {seed}"
            );
        }
    }
}
