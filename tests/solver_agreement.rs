//! Workspace-level integration: the three decision procedures (HQS in
//! several configurations, the instantiation baseline, and the expansion
//! oracle) must agree on random DQBFs, and the file interface must
//! round-trip.

use hqs::base::{Lit, Var};
use hqs::cnf::dimacs;
use hqs::core::expand::is_satisfiable_by_expansion;
use hqs::{Dqbf, ElimStrategy, HqsConfig, InstantiationSolver, Outcome, Session};
use hqs_base::Rng;

fn random_dqbf(rng: &mut Rng) -> Dqbf {
    let mut d = Dqbf::new();
    let nu = rng.gen_range(1..=4u32);
    let ne = rng.gen_range(1..=4u32);
    let xs: Vec<Var> = (0..nu).map(|_| d.add_universal()).collect();
    let mut all: Vec<Var> = xs.clone();
    for _ in 0..ne {
        let deps: Vec<Var> = xs.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        all.push(d.add_existential(deps));
    }
    for _ in 0..rng.gen_range(2..=10usize) {
        let len = rng.gen_range(1..=3usize);
        let lits: Vec<Lit> = (0..len)
            .map(|_| Lit::new(all[rng.gen_range(0..all.len())], rng.gen_bool(0.5)))
            .collect();
        d.add_clause(lits);
    }
    d
}

#[test]
fn all_procedures_agree_on_random_dqbfs() {
    let mut rng = Rng::seed_from_u64(0xDA7E_2015);
    for round in 0..60 {
        let d = random_dqbf(&mut rng);
        let expected = if is_satisfiable_by_expansion(&d) {
            Outcome::Sat
        } else {
            Outcome::Unsat
        };
        let mut hqs = Session::builder().build().expect("defaults are valid");
        assert_eq!(hqs.solve(&d), expected, "hqs, round {round}");
        assert_eq!(
            Outcome::from(InstantiationSolver::new().solve(&d)),
            expected,
            "idq, round {round}"
        );
        let baseline_cfg = HqsConfig {
            strategy: ElimStrategy::AllUniversals,
            preprocess: false,
            gate_detection: false,
            unit_pure: false,
            ..HqsConfig::default()
        };
        let mut baseline = Session::builder()
            .config(baseline_cfg)
            .build()
            .expect("baseline config is valid");
        assert_eq!(
            baseline.solve(&d),
            expected,
            "gitina2013 baseline, round {round}"
        );
    }
}

#[test]
fn dqdimacs_file_roundtrip_preserves_verdict() {
    let mut rng = Rng::seed_from_u64(0xF11E);
    for _ in 0..25 {
        let d = random_dqbf(&mut rng);
        let mut session = Session::builder().build().expect("defaults are valid");
        let expected = session.solve(&d);
        let text = dimacs::write_dqdimacs(&d.to_file());
        let reparsed = dimacs::parse_dqdimacs(&text).expect("own output parses");
        let again = session.solve_file(&reparsed);
        assert_eq!(expected, again, "\n{text}");
    }
}

/// DQBFs whose dependency sets are nested (a chain under ⊆) are plain
/// QBFs; HQS must then agree with the brute-force QBF evaluator run on
/// the linearised prefix.
#[test]
fn qbf_expressible_dqbfs_match_reference_evaluator() {
    use hqs::qbf::reference::eval_qdimacs;
    let mut rng = Rng::seed_from_u64(0xABCD);
    for _ in 0..40 {
        let mut d = Dqbf::new();
        let nu = rng.gen_range(1..=4u32);
        let xs: Vec<Var> = (0..nu).map(|_| d.add_universal()).collect();
        let mut all: Vec<Var> = xs.clone();
        // Nested dependency sets: prefixes of xs.
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
        let hqs = Session::builder()
            .build()
            .expect("defaults are valid")
            .solve(&d);
        let qbf = d.linearised_qbf().expect("nested deps are acyclic");
        let expected = if eval_qdimacs(&qbf) {
            Outcome::Sat
        } else {
            Outcome::Unsat
        };
        assert_eq!(hqs, expected, "{d:?}");
    }
}
