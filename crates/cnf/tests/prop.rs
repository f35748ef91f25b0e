//! Randomised property tests for clauses, CNF and the DIMACS-family
//! parsers, driven by the deterministic workspace [`Rng`].

use hqs_base::{Assignment, Lit, Rng, TruthValue, Var};
use hqs_cnf::{dimacs, Clause, Cnf};

const CASES: u64 = 300;

fn random_lit(rng: &mut Rng, max_var: u32) -> Lit {
    Lit::new(Var::new(rng.gen_range(0..max_var)), rng.gen_bool(0.5))
}

fn random_clause(rng: &mut Rng, max_var: u32) -> Clause {
    let len = rng.gen_range(0..6usize);
    Clause::from_lits((0..len).map(|_| random_lit(rng, max_var)))
}

fn random_cnf(rng: &mut Rng, max_var: u32) -> Cnf {
    let mut cnf = Cnf::new(max_var);
    for _ in 0..rng.gen_range(0..12usize) {
        cnf.add_clause(random_clause(rng, max_var));
    }
    cnf
}

fn random_assignment(rng: &mut Rng, max_var: u32) -> Assignment {
    (0..max_var)
        .map(|i| (Var::new(i), rng.gen_bool(0.5)))
        .collect()
}

/// DIMACS write/parse round-trips exactly.
#[test]
fn dimacs_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let cnf = random_cnf(&mut rng, 8);
        let text = dimacs::write_dimacs(&cnf);
        let parsed = dimacs::parse_dimacs(&text).expect("writer output must parse");
        assert_eq!(cnf.clauses(), parsed.clauses(), "seed {seed}");
        assert_eq!(cnf.num_vars(), parsed.num_vars(), "seed {seed}");
    }
}

/// Clause normalisation is idempotent and order-insensitive.
#[test]
fn clause_normalisation() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x1000 + seed);
        let mut lits: Vec<Lit> = (0..rng.gen_range(0..8usize))
            .map(|_| random_lit(&mut rng, 6))
            .collect();
        let a = Clause::from_lits(lits.clone());
        lits.reverse();
        let b = Clause::from_lits(lits);
        assert_eq!(&a, &b, "seed {seed}");
        assert_eq!(
            Clause::from_lits(a.lits().iter().copied()),
            b,
            "seed {seed}"
        );
    }
}

/// Resolution: the resolvent is implied by its parents (any model of
/// both parents satisfies the resolvent).
#[test]
fn resolution_is_sound() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x2000 + seed);
        let c1 = random_clause(&mut rng, 5);
        let c2 = random_clause(&mut rng, 5);
        let pivot = Var::new(rng.gen_range(0..5u32));
        let assignment = random_assignment(&mut rng, 5);
        if let Some(resolvent) = c1.resolve(&c2, pivot) {
            let sat = |c: &Clause| c.evaluate(&assignment) == TruthValue::True;
            if sat(&c1) && sat(&c2) {
                assert!(
                    sat(&resolvent) || resolvent.is_tautology(),
                    "seed {seed}: resolvent {resolvent:?} falsified; parents {c1:?}, {c2:?}"
                );
            }
        }
    }
}

/// apply_assignment preserves the formula's value under any extension
/// of the applied assignment.
#[test]
fn apply_assignment_preserves_semantics() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x4000 + seed);
        let cnf = random_cnf(&mut rng, 6);
        let full = random_assignment(&mut rng, 6);
        let mut partial = Assignment::new();
        let mut combined = Assignment::new();
        for i in 0..6u32 {
            let var = Var::new(i);
            let fallback = full.value(var).to_bool().unwrap_or(false);
            if rng.gen_bool(0.5) {
                let b = rng.gen_bool(0.5);
                partial.assign(var, b);
                combined.assign(var, b);
            } else {
                combined.assign(var, fallback);
            }
        }
        let mut reduced = cnf.clone();
        reduced.apply_assignment(&partial);
        assert_eq!(
            reduced.evaluate(&combined),
            cnf.evaluate(&combined),
            "seed {seed}"
        );
    }
}

/// QDIMACS round-trip through the writer.
#[test]
fn qdimacs_roundtrip() {
    use hqs_cnf::{QdimacsFile, QuantBlock, Quantifier};
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x5000 + seed);
        let cnf = random_cnf(&mut rng, 6);
        let split = rng.gen_range(0..6u32);
        let blocks = vec![
            QuantBlock {
                quantifier: Quantifier::Universal,
                vars: (0..split).map(Var::new).collect(),
            },
            QuantBlock {
                quantifier: Quantifier::Existential,
                vars: (split..6).map(Var::new).collect(),
            },
        ];
        let blocks: Vec<QuantBlock> = blocks.into_iter().filter(|b| !b.vars.is_empty()).collect();
        let file = QdimacsFile {
            blocks,
            matrix: cnf,
        };
        let text = dimacs::write_qdimacs(&file);
        let parsed = dimacs::parse_qdimacs(&text).expect("writer output must parse");
        assert_eq!(&file.blocks, &parsed.blocks, "seed {seed}");
        assert_eq!(
            file.matrix.clauses(),
            parsed.matrix.clauses(),
            "seed {seed}"
        );
    }
}
