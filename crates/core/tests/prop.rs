//! Randomised tests of the DQBF layer: solver-vs-oracle agreement,
//! elimination soundness, preprocessing soundness and monotonicity laws,
//! and the QBF finish against the brute-force QBF evaluator.

use hqs_aig::UnitPureBatch;
use hqs_base::{Lit, Rng, Var, VarSet};
use hqs_cnf::dimacs::{parse_dqdimacs, write_qdimacs};
use hqs_cnf::{Clause, Cnf, QdimacsFile, QuantBlock, Quantifier};
use hqs_core::elim::AigDqbf;
use hqs_core::expand::is_satisfiable_by_expansion;
use hqs_core::{Dqbf, ElimStrategy, HqsConfig, Outcome, Session};
use hqs_qbf::reference::eval_qdimacs;

const MAX_UNIVERSALS: u32 = 4;
const MAX_EXISTENTIALS: u32 = 3;
const CASES: u64 = 96;

#[derive(Clone, Debug)]
struct RandomDqbf {
    dep_masks: Vec<u8>,
    clauses: Vec<Vec<(u8, bool)>>,
}

fn random_spec(rng: &mut Rng) -> RandomDqbf {
    let dep_masks = (0..rng.gen_range(1..=MAX_EXISTENTIALS as usize))
        .map(|_| rng.gen_range(0..=255u8))
        .collect();
    let clauses = (0..rng.gen_range(1..10usize))
        .map(|_| {
            (0..rng.gen_range(1..4usize))
                .map(|_| (rng.gen_range(0..=255u8), rng.gen_bool(0.5)))
                .collect()
        })
        .collect();
    RandomDqbf { dep_masks, clauses }
}

fn build(spec: &RandomDqbf) -> Dqbf {
    let mut d = Dqbf::new();
    let xs: Vec<Var> = (0..MAX_UNIVERSALS).map(|_| d.add_universal()).collect();
    let mut all = xs.clone();
    for &mask in &spec.dep_masks {
        let deps: Vec<Var> = xs
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &x)| x)
            .collect();
        all.push(d.add_existential(deps));
    }
    for clause in &spec.clauses {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&(pick, neg)| Lit::new(all[pick as usize % all.len()], neg))
            .collect();
        d.add_clause(lits);
    }
    d
}

/// HQS agrees with the expansion oracle in every configuration.
#[test]
fn hqs_matches_oracle() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let d = build(&random_spec(&mut rng));
        let expected = if is_satisfiable_by_expansion(&d) {
            Outcome::Sat
        } else {
            Outcome::Unsat
        };
        let mut session = Session::builder().build().expect("defaults are valid");
        assert_eq!(session.solve(&d), expected, "seed {seed}");
        let no_opt = HqsConfig {
            preprocess: false,
            gate_detection: false,
            unit_pure: false,
            strategy: ElimStrategy::AllUniversals,
            ..HqsConfig::default()
        };
        let mut session = Session::builder()
            .config(no_opt)
            .build()
            .expect("no-opt config is valid");
        assert_eq!(session.solve(&d), expected, "seed {seed}");
    }
}

/// Theorem 1 (universal elimination) preserves the truth value.
#[test]
fn universal_elimination_is_sound() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x1000 + seed);
        let d = build(&random_spec(&mut rng));
        let pick = rng.gen_range(0..MAX_UNIVERSALS);
        let expected = is_satisfiable_by_expansion(&d);
        let mut state = AigDqbf::from_dqbf(&d);
        let x = state.universals()[pick as usize];
        state.eliminate_universal(x);
        assert_eq!(
            is_satisfiable_by_expansion(&state.to_dqbf()),
            expected,
            "seed {seed}"
        );
    }
}

/// Theorem 2 (existential elimination of total-dependency variables)
/// preserves the truth value.
#[test]
fn existential_elimination_is_sound() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x2000 + seed);
        let d = build(&random_spec(&mut rng));
        let expected = is_satisfiable_by_expansion(&d);
        let mut state = AigDqbf::from_dqbf(&d);
        while state.eliminate_one_total_existential() {}
        assert_eq!(
            is_satisfiable_by_expansion(&state.to_dqbf()),
            expected,
            "seed {seed}"
        );
    }
}

/// Unit/pure rounds (Theorems 5/6) preserve the truth value; an
/// `Unsat` verdict is always confirmed by the oracle.
#[test]
fn unit_pure_is_sound() {
    'outer: for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x3000 + seed);
        let d = build(&random_spec(&mut rng));
        let expected = is_satisfiable_by_expansion(&d);
        let mut state = AigDqbf::from_dqbf(&d);
        loop {
            match state.apply_unit_pure() {
                UnitPureBatch::Refute => {
                    assert!(!expected, "seed {seed}: unit/pure declared Unsat wrongly");
                    continue 'outer;
                }
                UnitPureBatch::Assign(values) if values.is_empty() => break,
                UnitPureBatch::Assign(_) => {}
            }
        }
        assert_eq!(
            is_satisfiable_by_expansion(&state.to_dqbf()),
            expected,
            "seed {seed}"
        );
    }
}

/// Growing a dependency set is monotone: if ψ is satisfiable, letting
/// an existential observe more universals keeps it satisfiable.
#[test]
fn dependency_growth_is_monotone() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x4000 + seed);
        let spec = random_spec(&mut rng);
        let d = build(&spec);
        if !is_satisfiable_by_expansion(&d) {
            continue;
        }
        let mut widened = spec.clone();
        let idx = rng.gen_range(0..widened.dep_masks.len());
        widened.dep_masks[idx] = 0xFF; // depend on everything
        let w = build(&widened);
        assert!(
            is_satisfiable_by_expansion(&w),
            "seed {seed}: widening dependencies lost satisfiability"
        );
        let mut session = Session::builder().build().expect("defaults are valid");
        assert_eq!(session.solve(&w), Outcome::Sat, "seed {seed}");
    }
}

/// Skolem extraction succeeds exactly on satisfiable instances and its
/// certificates verify.
#[test]
fn skolem_certificates_verify() {
    use hqs_core::skolem::extract_skolem;
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x5000 + seed);
        let d = build(&random_spec(&mut rng));
        match extract_skolem(&d) {
            Some(cert) => {
                assert!(cert.verify(&d), "seed {seed}");
                let mut session = Session::builder().build().expect("defaults are valid");
                assert_eq!(session.solve(&d), Outcome::Sat, "seed {seed}");
            }
            None => {
                let mut session = Session::builder().build().expect("defaults are valid");
                assert_eq!(session.solve(&d), Outcome::Unsat, "seed {seed}");
            }
        }
    }
}

/// The dependency graph APIs are mutually consistent: cyclic ⇔ some
/// binary cycle ⇔ linearise fails.
#[test]
fn depgraph_consistency() {
    use hqs_core::depgraph::{linearise, DepGraph};
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x6000 + seed);
        let d = build(&random_spec(&mut rng));
        let deps: Vec<(Var, VarSet)> = d
            .existentials()
            .iter()
            .map(|&y| {
                let set = d.dependencies(y).expect("declared existential").clone();
                (y, set)
            })
            .collect();
        let graph = DepGraph::new(&deps);
        let cyclic = graph.is_cyclic();
        assert_eq!(cyclic, !graph.binary_cycles().is_empty(), "seed {seed}");
        assert_eq!(
            cyclic,
            linearise(d.universals(), &deps).is_none(),
            "seed {seed}"
        );
    }
}

// The QBF finish on plain QBFs: a QDIMACS file is a DQDIMACS file without
// `d` lines, each existential depending on the universals left of it.

const QBF_VARS: u32 = 6;
const QBF_CASES: u64 = 192;

fn random_qbf(rng: &mut Rng) -> QdimacsFile {
    // Random variable order, chunked into alternating quantifier blocks.
    let mut order: Vec<u32> = (0..QBF_VARS).collect();
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
    let mut matrix = Cnf::new(QBF_VARS);
    for _ in 0..rng.gen_range(1..10usize) {
        let len = rng.gen_range(1..4usize);
        let lits =
            (0..len).map(|_| Lit::new(Var::new(rng.gen_range(0..QBF_VARS)), rng.gen_bool(0.5)));
        matrix.add_clause(Clause::from_lits(lits));
    }
    QdimacsFile { blocks, matrix }
}

/// Solves `file` as a DQBF with preprocessing off, so the elimination
/// loop and its QBF finish decide it. With `unit_pure` off, unit/pure
/// runs in the finish only.
fn solve_qbf(file: &QdimacsFile, unit_pure: bool) -> Outcome {
    let text = write_qdimacs(file);
    let dqbf = Dqbf::from_file(&parse_dqdimacs(&text).expect("QDIMACS is DQDIMACS"));
    let config = HqsConfig {
        preprocess: false,
        gate_detection: false,
        unit_pure,
        ..HqsConfig::default()
    };
    Session::builder()
        .config(config)
        .build()
        .expect("valid config")
        .solve(&dqbf)
}

/// The loop agrees with brute-force expansion on random QBFs.
#[test]
fn solver_matches_oracle() {
    for seed in 0..QBF_CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let file = random_qbf(&mut rng);
        let expected = if eval_qdimacs(&file) {
            Outcome::Sat
        } else {
            Outcome::Unsat
        };
        for unit_pure in [true, false] {
            assert_eq!(
                solve_qbf(&file, unit_pure),
                expected,
                "seed {seed}: {file:?}"
            );
        }
    }
}

/// Adding a tautological clause never changes the verdict.
#[test]
fn tautologies_are_inert() {
    for seed in 0..QBF_CASES {
        let mut rng = Rng::seed_from_u64(0x2000 + seed);
        let file = random_qbf(&mut rng);
        let var = rng.gen_range(0..QBF_VARS);
        let mut extended = file.clone();
        extended.matrix.add_clause(Clause::from_lits([
            Lit::positive(Var::new(var)),
            Lit::negative(Var::new(var)),
        ]));
        for unit_pure in [true, false] {
            let before = solve_qbf(&file, unit_pure);
            assert_eq!(before, solve_qbf(&extended, unit_pure), "seed {seed}");
        }
    }
}

/// Widening a dependency (moving an existential inward) can only help:
/// if the original is Sat, the widened prefix stays Sat.
#[test]
fn inward_existential_monotonicity() {
    for seed in 0..QBF_CASES {
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
        for unit_pure in [true, false] {
            if solve_qbf(&file, unit_pure) == Outcome::Sat {
                assert_eq!(solve_qbf(&moved, unit_pure), Outcome::Sat, "seed {seed}");
            }
        }
    }
}
