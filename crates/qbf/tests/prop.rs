//! Randomised tests: the elimination-based QBF solver against the
//! brute-force expansion oracle on random prefixes and matrices.

use hqs_base::{Lit, Rng, Var};
use hqs_cnf::{Clause, Cnf, QdimacsFile, QuantBlock, Quantifier};
use hqs_qbf::{reference, QbfResult, QbfSolver};

const MAX_VARS: u32 = 6;
const CASES: u64 = 192;

fn random_qbf(rng: &mut Rng) -> QdimacsFile {
    // Random variable order, chunked into alternating quantifier blocks.
    let mut order: Vec<u32> = (0..MAX_VARS).collect();
    rng.shuffle(&mut order);
    let mut blocks: Vec<QuantBlock> = Vec::new();
    let mut quantifier = if rng.gen_bool(0.5) {
        Quantifier::Universal
    } else {
        Quantifier::Existential
    };
    let mut current: Vec<Var> = Vec::new();
    for (i, &var) in order.iter().enumerate() {
        current.push(Var::new(var));
        if rng.gen_bool(0.5) || i + 1 == order.len() {
            blocks.push(QuantBlock {
                quantifier,
                vars: std::mem::take(&mut current),
            });
            quantifier = quantifier.flipped();
        }
    }
    let mut matrix = Cnf::new(MAX_VARS);
    for _ in 0..rng.gen_range(1..10usize) {
        let len = rng.gen_range(1..4usize);
        let lits =
            (0..len).map(|_| Lit::new(Var::new(rng.gen_range(0..MAX_VARS)), rng.gen_bool(0.5)));
        matrix.add_clause(Clause::from_lits(lits));
    }
    QdimacsFile { blocks, matrix }
}

/// The solver agrees with brute-force expansion on random QBFs.
#[test]
fn solver_matches_oracle() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let file = random_qbf(&mut rng);
        let expected = if reference::eval_qdimacs(&file) {
            QbfResult::Sat
        } else {
            QbfResult::Unsat
        };
        let got = QbfSolver::new().solve_file(&file);
        assert_eq!(got, expected, "seed {seed}: {file:?}");
    }
}

/// Adding a tautological clause never changes the verdict.
#[test]
fn tautologies_are_inert() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x2000 + seed);
        let file = random_qbf(&mut rng);
        let var = rng.gen_range(0..MAX_VARS);
        let before = QbfSolver::new().solve_file(&file);
        let mut extended = file.clone();
        extended.matrix.add_clause(Clause::from_lits([
            Lit::positive(Var::new(var)),
            Lit::negative(Var::new(var)),
        ]));
        let after = QbfSolver::new().solve_file(&extended);
        assert_eq!(before, after, "seed {seed}");
    }
}

/// Widening a dependency (moving an existential inward) can only help:
/// if the original is Sat, the widened prefix stays Sat.
#[test]
fn inward_existential_monotonicity() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x3000 + seed);
        let file = random_qbf(&mut rng);
        // Move the outermost existential block to the innermost position.
        let Some(pos) = file
            .blocks
            .iter()
            .position(|b| b.quantifier == Quantifier::Existential)
        else {
            continue;
        };
        let mut moved = file.clone();
        let block = moved.blocks.remove(pos);
        moved.blocks.push(block);
        let original = QbfSolver::new().solve_file(&file);
        let widened = QbfSolver::new().solve_file(&moved);
        if original == QbfResult::Sat {
            assert_eq!(widened, QbfResult::Sat, "seed {seed}");
        }
    }
}
