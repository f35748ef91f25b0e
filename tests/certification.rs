//! Workspace-level certification: the full `--certify` pipeline must
//! produce independently checkable artefacts — Skolem function tables on
//! SAT, expansion traces with DRAT refutations on UNSAT — that survive a
//! DQDIMACS round-trip and reject deliberate corruption.

use hqs::base::{Lit, Rng, Var};
use hqs::cnf::dimacs;
use hqs::core::expand::is_satisfiable_by_expansion;
use hqs::pec::{benchmark_suite, Scale};
use hqs::proof::parse_text_drat;
use hqs::{CertifiedOutcome, Dqbf, HqsConfig, Outcome, Session};

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

fn certifying_session() -> Session {
    Session::builder()
        .config(HqsConfig {
            certify: true,
            ..HqsConfig::default()
        })
        .build()
        .expect("certifying config is valid")
}

#[test]
fn every_verdict_on_random_dqbfs_is_certified() {
    let mut rng = Rng::seed_from_u64(0xCE27_1F1C);
    for _ in 0..40 {
        let d = random_dqbf(&mut rng);
        let expected = is_satisfiable_by_expansion(&d);
        match certifying_session().solve_certified(&d).expect("certified") {
            CertifiedOutcome::Sat(cert) => {
                assert!(expected, "certified SAT on an unsatisfiable formula");
                assert!(cert.verify(&d));
            }
            CertifiedOutcome::Unsat(cert) => {
                assert!(!expected, "certified UNSAT on a satisfiable formula");
                assert!(cert.verify(&d));
                // The embedded DRAT text is well-formed on its own.
                assert!(parse_text_drat(&cert.drat).is_ok());
            }
            CertifiedOutcome::Limit(e) => panic!("unexpected limit: {e:?}"),
        }
    }
}

#[test]
fn certificates_survive_a_dqdimacs_round_trip() {
    let mut rng = Rng::seed_from_u64(0x0DD5_EED5);
    let mut checked = 0;
    while checked < 10 {
        let d = random_dqbf(&mut rng);
        // Round-trip the formula through the on-disk format; certificates
        // extracted from the original must verify against the reparsed
        // formula (same variable numbering by construction).
        let text = dimacs::write_dqdimacs(&d.to_file());
        let reparsed = Dqbf::from_file(&dimacs::parse_dqdimacs(&text).expect("own output parses"));
        match certifying_session().solve_certified(&d).expect("certified") {
            CertifiedOutcome::Sat(cert) => {
                assert!(cert.verify(&reparsed));
                checked += 1;
            }
            CertifiedOutcome::Unsat(cert) => {
                assert!(cert.verify(&reparsed));
                checked += 1;
            }
            CertifiedOutcome::Limit(e) => panic!("unexpected limit: {e:?}"),
        }
    }
}

#[test]
fn pec_smoke_instances_certify_end_to_end() {
    // One realizable and one faulty instance from the smallest PEC
    // benchmarks, kept tiny so the expansion-based certification is fast.
    let suite = benchmark_suite(Scale::Smoke);
    let mut small = suite.iter().filter(|inst| {
        let mut bound = inst.dqbf.clone();
        bound.bind_free_vars();
        bound.universals().len() <= 7
    });
    let mut seen = 0;
    for inst in small.by_ref().take(2) {
        let verdict = Session::builder()
            .build()
            .expect("defaults are valid")
            .solve(&inst.dqbf);
        match certifying_session()
            .solve_certified(&inst.dqbf)
            .expect("certified")
        {
            CertifiedOutcome::Sat(cert) => {
                assert_eq!(verdict, Outcome::Sat, "{}", inst.name);
                assert!(cert.verify(&inst.dqbf), "{}", inst.name);
            }
            CertifiedOutcome::Unsat(cert) => {
                assert_eq!(verdict, Outcome::Unsat, "{}", inst.name);
                assert!(cert.verify(&inst.dqbf), "{}", inst.name);
            }
            CertifiedOutcome::Limit(e) => panic!("{}: unexpected limit: {e:?}", inst.name),
        }
        seen += 1;
    }
    assert!(seen > 0, "smoke suite has no small instances");
}

#[test]
fn corrupted_certificates_are_rejected_end_to_end() {
    // ∀x ∃y(x): y ↔ x — unique Skolem function, every corruption rejected.
    let mut sat = Dqbf::new();
    let x = sat.add_universal();
    let y = sat.add_existential([x]);
    sat.add_clause([Lit::positive(x), Lit::negative(y)]);
    sat.add_clause([Lit::negative(x), Lit::positive(y)]);
    let CertifiedOutcome::Sat(cert) = certifying_session()
        .solve_certified(&sat)
        .expect("certified")
    else {
        panic!("y ↔ x is satisfiable");
    };
    for row in 0..cert.functions[0].table.len() {
        let mut tampered = cert.clone();
        tampered.functions[0].table[row] = !tampered.functions[0].table[row];
        assert!(!tampered.verify(&sat), "flipped row {row} accepted");
    }

    // ∀x₁∀x₂ ∃y(x₁): y ↔ x₂ — dependency-mismatch UNSAT.
    let mut unsat = Dqbf::new();
    let _x1 = unsat.add_universal();
    let x2 = unsat.add_universal();
    let y = unsat.add_existential([Var::new(0)]);
    unsat.add_clause([Lit::positive(x2), Lit::negative(y)]);
    unsat.add_clause([Lit::negative(x2), Lit::positive(y)]);
    let CertifiedOutcome::Unsat(cert) = certifying_session()
        .solve_certified(&unsat)
        .expect("certified")
    else {
        panic!("dependency mismatch is unsatisfiable");
    };
    let mut tampered = cert.clone();
    tampered.drat = "not a proof".to_string();
    assert!(!tampered.verify(&unsat));
    let mut tampered = cert.clone();
    tampered.num_universals = 0;
    assert!(!tampered.verify(&unsat));
    let mut tampered = cert;
    if let Some(binding) = tampered.bindings.first_mut() {
        binding.instance = Var::new(binding.instance.index() + 1000);
    }
    assert!(!tampered.verify(&unsat));
}

/// ∀x₁…∀x₂₀ ∃y(x₁…x₂₀): (y ∨ x₁). The Skolem table has 2^20 rows, within
/// the 24 universals the expansion admits, so certification must not
/// panic on it.
#[test]
fn twenty_dependency_skolem_table_is_certified() {
    let mut d = Dqbf::new();
    let xs: Vec<Var> = (0..20).map(|_| d.add_universal()).collect();
    let y = d.add_existential(xs.iter().copied());
    d.add_clause([Lit::positive(y), Lit::positive(xs[0])]);
    let CertifiedOutcome::Sat(cert) = certifying_session().solve_certified(&d).expect("certified")
    else {
        panic!("(y ∨ x₁) is satisfiable");
    };
    assert_eq!(cert.functions[0].table.len(), 1 << 20);
    assert!(cert.verify(&d));
}
