//! Randomised tests of the DQBF layer: solver-vs-oracle agreement,
//! elimination soundness, preprocessing soundness and monotonicity laws.

use hqs_aig::UnitPureBatch;
use hqs_base::{Lit, Rng, Var, VarSet};
use hqs_core::elim::AigDqbf;
use hqs_core::expand::is_satisfiable_by_expansion;
use hqs_core::{Dqbf, ElimStrategy, HqsConfig, Outcome, Session};

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
        state.eliminate_total_existentials();
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
