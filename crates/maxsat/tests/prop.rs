//! Randomised tests: the MaxSAT solver against the brute-force optimum
//! on random partial instances.

use hqs_base::{Lit, Rng, Var};
use hqs_maxsat::{brute_force_optimum, MaxSatResult, MaxSatSolver};

const MAX_VARS: u32 = 6;

fn random_clauses(rng: &mut Rng, max_clauses: usize) -> Vec<Vec<Lit>> {
    (0..rng.gen_range(0..max_clauses))
        .map(|_| {
            (0..rng.gen_range(1..4usize))
                .map(|_| Lit::new(Var::new(rng.gen_range(0..MAX_VARS)), rng.gen_bool(0.5)))
                .collect()
        })
        .collect()
}

/// The solver's optimum equals the brute-force optimum, and the
/// returned model attains it.
#[test]
fn optimum_is_exact() {
    for seed in 0..192u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let hard = random_clauses(&mut rng, 8);
        let soft = random_clauses(&mut rng, 8);
        let expected = brute_force_optimum(MAX_VARS, &hard, &soft);
        let mut solver = MaxSatSolver::new();
        solver.ensure_vars(MAX_VARS);
        for clause in &hard {
            solver.add_hard(clause.iter().copied());
        }
        for clause in &soft {
            solver.add_soft(clause.iter().copied());
        }
        match solver.solve() {
            MaxSatResult::Optimum { cost, model } => {
                assert_eq!(Some(cost), expected, "seed {seed}");
                // The model satisfies all hard clauses and violates exactly
                // `cost` soft clauses.
                for clause in &hard {
                    assert!(clause.iter().any(|&l| model.satisfies(l)), "seed {seed}");
                }
                let violated = soft
                    .iter()
                    .filter(|c| !c.iter().any(|&l| model.satisfies(l)))
                    .count();
                assert_eq!(violated, cost, "seed {seed}");
            }
            MaxSatResult::Unsatisfiable => assert_eq!(expected, None, "seed {seed}"),
        }
    }
}

/// Adding a soft clause can increase the optimum by at most one.
#[test]
fn soft_clause_monotonicity() {
    for seed in 0..192u64 {
        let mut rng = Rng::seed_from_u64(0x1000 + seed);
        let hard = random_clauses(&mut rng, 6);
        let soft = random_clauses(&mut rng, 6);
        let extra: Vec<Lit> = (0..rng.gen_range(1..3usize))
            .map(|_| Lit::new(Var::new(rng.gen_range(0..MAX_VARS)), rng.gen_bool(0.5)))
            .collect();
        let solve = |softs: &[Vec<Lit>]| -> Option<usize> {
            let mut solver = MaxSatSolver::new();
            solver.ensure_vars(MAX_VARS);
            for clause in &hard {
                solver.add_hard(clause.iter().copied());
            }
            for clause in softs {
                solver.add_soft(clause.iter().copied());
            }
            match solver.solve() {
                MaxSatResult::Optimum { cost, .. } => Some(cost),
                MaxSatResult::Unsatisfiable => None,
            }
        };
        let base = solve(&soft);
        let mut extended = soft.clone();
        extended.push(extra);
        let more = solve(&extended);
        match (base, more) {
            (Some(b), Some(m)) => {
                assert!(m >= b && m <= b + 1, "seed {seed}: base {b}, extended {m}");
            }
            (None, None) => {}
            _ => panic!("seed {seed}: hard clauses unchanged, feasibility must match"),
        }
    }
}
