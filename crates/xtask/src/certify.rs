//! The end-to-end certification gate: `cargo run -p xtask -- certify`.
//!
//! Runs a corpus of DQBF instances — the small PEC smoke benchmarks plus a
//! deterministic random sweep — through
//! [`Session::solve_certified`](hqs_core::Session::solve_certified), so
//! every SAT verdict must ship a verifying Skolem certificate and every
//! UNSAT verdict a refutation whose DRAT proof is accepted by the
//! independent `hqs-proof` checker. It then corrupts known-good
//! certificates in deliberate ways, builds malformed Skolem certificates
//! for an unsatisfiable formula, and fails unless every one of them is
//! rejected. Any uncertified verdict or accepted corruption makes the
//! process exit non-zero, which is how CI consumes it.

use hqs_base::{Lit, Var};
use hqs_core::random::RandomDqbf;
use hqs_core::{
    extract_refutation, extract_skolem, CertifiedOutcome, Dqbf, HqsConfig, Session,
    SkolemCertificate, SkolemFunction,
};
use hqs_pec::{benchmark_suite, Scale};
use std::process::ExitCode;

/// Expansion-based certification enumerates `2^universals` rows; corpus
/// instances beyond this are skipped to keep the gate fast.
const MAX_CORPUS_UNIVERSALS: usize = 10;

/// How many PEC smoke instances (post-filter) to certify.
const MAX_PEC_INSTANCES: usize = 12;

/// How many random formulas to certify.
const RANDOM_INSTANCES: u64 = 24;

/// Runs the certification gate; prints one line per instance and a
/// summary, returning a failure exit code on the first class of problem.
pub fn run() -> ExitCode {
    let mut failures = 0usize;
    let (mut sat, mut unsat, mut limit) = (0usize, 0usize, 0usize);

    for (name, dqbf) in corpus() {
        let mut session = match Session::builder()
            .config(HqsConfig {
                certify: true,
                ..HqsConfig::default()
            })
            .build()
        {
            Ok(session) => session,
            Err(error) => {
                failures += 1;
                eprintln!("certify: {name}: invalid config: {error}");
                continue;
            }
        };
        match session.solve_certified(&dqbf) {
            Ok(CertifiedOutcome::Sat(cert)) => {
                sat += 1;
                println!(
                    "certify: {name}: SAT, {} Skolem functions verified",
                    cert.functions.len()
                );
            }
            Ok(CertifiedOutcome::Unsat(cert)) => {
                unsat += 1;
                println!(
                    "certify: {name}: UNSAT, DRAT proof over {} expansion instances accepted",
                    cert.bindings.len()
                );
            }
            Ok(CertifiedOutcome::Limit(e)) => {
                limit += 1;
                println!("certify: {name}: no verdict within budget ({e:?})");
            }
            Err(err) => {
                failures += 1;
                eprintln!("certify: {name}: FAILED: {err}");
            }
        }
    }

    failures += corruption_checks();

    println!(
        "certify: {sat} SAT + {unsat} UNSAT certified, {limit} skipped on budget, \
         {failures} failure(s)"
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The instance corpus: filtered PEC smoke suite plus random formulas.
fn corpus() -> Vec<(String, Dqbf)> {
    let mut instances: Vec<(String, Dqbf)> = benchmark_suite(Scale::Smoke)
        .into_iter()
        .filter(|inst| {
            let mut bound = inst.dqbf.clone();
            bound.bind_free_vars();
            bound.universals().len() <= MAX_CORPUS_UNIVERSALS
        })
        .take(MAX_PEC_INSTANCES)
        .map(|inst| (inst.name.clone(), inst.dqbf))
        .collect();
    let shapes = [
        RandomDqbf::default(),
        RandomDqbf {
            num_universals: 6,
            num_existentials: 5,
            num_clauses: 20,
            ..RandomDqbf::default()
        },
        RandomDqbf {
            num_universals: 3,
            num_existentials: 6,
            dependency_density: 0.25,
            num_clauses: 16,
            max_clause_len: 4,
        },
    ];
    for seed in 0..RANDOM_INSTANCES {
        let shape = shapes[(seed % shapes.len() as u64) as usize];
        instances.push((format!("random_s{seed}"), shape.generate(seed)));
    }
    instances
}

/// Corrupts known-good certificates of fixed instances, and builds
/// malformed ones, in ways that must always be rejected; returns the
/// number that were (wrongly) accepted.
fn corruption_checks() -> usize {
    let mut accepted = 0usize;

    // ∀x ∃y(x): y ↔ x — the identity table is the unique Skolem function,
    // so flipping any row must be rejected.
    let mut sat_formula = Dqbf::new();
    let x = sat_formula.add_universal();
    let y = sat_formula.add_existential([x]);
    sat_formula.add_clause([Lit::positive(x), Lit::negative(y)]);
    sat_formula.add_clause([Lit::negative(x), Lit::positive(y)]);
    match extract_skolem(&sat_formula) {
        Some(cert) if cert.verify(&sat_formula) => {
            for row in 0..cert.functions[0].table.len() {
                let mut tampered = cert.clone();
                tampered.functions[0].table[row] = !tampered.functions[0].table[row];
                if tampered.verify(&sat_formula) {
                    accepted += 1;
                    eprintln!("certify: corrupted Skolem table row {row} was ACCEPTED");
                }
            }
            println!("certify: corrupted Skolem certificates rejected");
        }
        _ => {
            accepted += 1;
            eprintln!("certify: could not build the baseline Skolem certificate");
        }
    }

    // ∀x₁∀x₂ ∃y(x₁): y ↔ x₂ is unsatisfiable, yet each malformed
    // certificate below makes the matrix hold if it is taken at its word.
    let mut mismatch = Dqbf::new();
    let x1 = mismatch.add_universal();
    let x2 = mismatch.add_universal();
    let y = mismatch.add_existential([x1]);
    mismatch.add_clause([Lit::positive(x2), Lit::negative(y)]);
    mismatch.add_clause([Lit::negative(x2), Lit::positive(y)]);
    let function = |var, deps, table| SkolemFunction { var, deps, table };
    let malformed = [
        (
            "a function reading outside its dependency set",
            vec![function(y, vec![x2], vec![false, true])],
        ),
        (
            "a table longer than its dependencies allow",
            vec![function(y, vec![x1], vec![false, false, true, true])],
        ),
        (
            "two functions for one existential",
            vec![
                function(y, vec![], vec![false]),
                function(y, vec![], vec![true]),
            ],
        ),
        (
            "a function for a universal",
            vec![
                function(y, vec![x1], vec![false, false]),
                function(x2, vec![], vec![false]),
            ],
        ),
    ];
    let before = accepted;
    for (what, functions) in malformed {
        if (SkolemCertificate { functions }).verify(&mismatch) {
            accepted += 1;
            eprintln!("certify: malformed Skolem certificate ({what}) was ACCEPTED");
        }
    }
    if accepted == before {
        println!("certify: malformed Skolem certificates rejected");
    }

    // ∃y∃z: XOR-style contradiction whose refutation needs real DRAT
    // lemmas (not just conflicting units), so gutting the proof must be
    // rejected.
    let mut unsat_formula = Dqbf::new();
    let y = unsat_formula.add_existential([]);
    let z = unsat_formula.add_existential([]);
    for (sy, sz) in [(true, true), (false, true), (true, false), (false, false)] {
        unsat_formula.add_clause([Lit::new(y, !sy), Lit::new(z, !sz)]);
    }
    match extract_refutation(&unsat_formula) {
        Some(cert) if cert.verify(&unsat_formula) => {
            // Keep only deletion lines: the refutation disappears.
            let mut gutted = cert.clone();
            gutted.drat = cert
                .drat
                .lines()
                .filter(|l| l.trim_start().starts_with('d'))
                .collect::<Vec<_>>()
                .join("\n");
            if gutted.verify(&unsat_formula) {
                accepted += 1;
                eprintln!("certify: gutted DRAT proof was ACCEPTED");
            }
            // A tampered expansion trace must be rejected too.
            let mut rebound = cert.clone();
            // analyze::allow(newtype): deliberately corrupts the binding to prove verification rejects it
            rebound.bindings[0].instance = Var::new(rebound.bindings[0].instance.index() + 1000);
            if rebound.verify(&unsat_formula) {
                accepted += 1;
                eprintln!("certify: tampered expansion trace was ACCEPTED");
            }
            if accepted == 0 {
                println!("certify: corrupted refutation certificates rejected");
            }
        }
        _ => {
            accepted += 1;
            eprintln!("certify: could not build the baseline refutation certificate");
        }
    }

    accepted
}
