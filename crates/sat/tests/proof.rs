//! End-to-end proof round trips: DRAT emitted by the CDCL solver in this
//! crate, checked by the independent checker in `hqs-proof`.
//!
//! The two crates share no propagation or serialisation code — the byte
//! stream produced by the logger is the only bridge — so these tests
//! exercise the full certification contract.

use hqs_base::{Lit, Rng};
use hqs_cnf::Cnf;
use hqs_proof::{check_proof, parse_text_drat, Proof, ProofChecker, ProofStep};
use hqs_sat::{ProofBuffer, SatConfig, SolveResult, Solver, TextDratLogger};

fn lit(v: i64) -> Lit {
    Lit::from_dimacs(v).unwrap()
}

/// Builds the CNF (for the checker) and a proof-logging solver loaded
/// with the same clauses.
fn logged_solver(clauses: &[&[i64]]) -> (Cnf, Solver, ProofBuffer) {
    logged_solver_with(SatConfig::default(), clauses)
}

/// [`logged_solver`] with a search configuration.
fn logged_solver_with(config: SatConfig, clauses: &[&[i64]]) -> (Cnf, Solver, ProofBuffer) {
    let mut cnf = Cnf::new(0);
    let buffer = ProofBuffer::new();
    let mut solver = Solver::builder()
        .config(config)
        .proof_logger(Box::new(TextDratLogger::new(buffer.clone())))
        .build()
        .expect("valid");
    for c in clauses {
        let lits: Vec<Lit> = c.iter().map(|&v| lit(v)).collect();
        for &l in &lits {
            cnf.ensure_num_vars(l.var().index() + 1);
        }
        cnf.add_lits(lits.iter().copied());
        solver.add_clause(lits);
    }
    (cnf, solver, buffer)
}

fn pigeonhole(pigeons: i64, holes: i64) -> Vec<Vec<i64>> {
    let var = |p: i64, h: i64| (p - 1) * holes + h;
    let mut clauses = Vec::new();
    for p in 1..=pigeons {
        clauses.push((1..=holes).map(|h| var(p, h)).collect());
    }
    for h in 1..=holes {
        for p1 in 1..=pigeons {
            for p2 in (p1 + 1)..=pigeons {
                clauses.push(vec![-var(p1, h), -var(p2, h)]);
            }
        }
    }
    clauses
}

#[test]
fn hand_built_unsat_proof_checks() {
    // (a∨b)(¬a∨b)(a∨¬b)(¬a∨¬b): the smallest real CDCL refutation.
    let (cnf, mut solver, buffer) = logged_solver(&[&[1, 2], &[-1, 2], &[1, -2], &[-1, -2]]);
    assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    assert!(!solver.proof_had_error());
    let proof = parse_text_drat(std::str::from_utf8(&buffer.contents()).unwrap()).unwrap();
    assert!(proof.additions() > 0);
    check_proof(&cnf, &proof).unwrap();
}

#[test]
fn pigeonhole_proof_checks_without_rat_steps() {
    let clauses = pigeonhole(4, 3);
    let refs: Vec<&[i64]> = clauses.iter().map(Vec::as_slice).collect();
    let (cnf, mut solver, buffer) = logged_solver(&refs);
    assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    let proof = parse_text_drat(std::str::from_utf8(&buffer.contents()).unwrap()).unwrap();
    let report = check_proof(&cnf, &proof).unwrap();
    // CDCL emits pure-RUP proofs: the RAT fallback must never fire.
    assert_eq!(report.rat_steps, 0);
}

#[test]
fn load_time_simplification_logs_only_the_empty_clause() {
    // Unit 1 shrinks (−1 2 3) to (2 3) and satisfies (1 4); −2 then forces
    // 3, and −3 simplifies to the empty clause. None of the simplification
    // is logged: the checker propagates the originals at the root itself.
    let (cnf, mut solver, buffer) = logged_solver(&[&[1], &[-1, 2, 3], &[1, 4], &[-2], &[-3]]);
    assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    let text = String::from_utf8(buffer.contents()).unwrap();
    assert_eq!(text, "0\n");
    check_proof(&cnf, &parse_text_drat(&text).unwrap()).unwrap();
}

#[test]
fn conflict_during_clause_addition_emits_the_empty_clause() {
    // Adding -2 after 1, (−1 2) closes the formula by unit propagation
    // inside add_clause; the proof must still end in the empty clause.
    let (cnf, mut solver, buffer) = logged_solver(&[&[1], &[-1, 2], &[-2]]);
    assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    let proof = parse_text_drat(std::str::from_utf8(&buffer.contents()).unwrap()).unwrap();
    assert!(proof
        .steps
        .iter()
        .any(|s| matches!(s, ProofStep::Add(c) if c.is_empty())));
    check_proof(&cnf, &proof).unwrap();
}

#[test]
fn aggressive_database_reduction_keeps_the_proof_valid() {
    // Force reduce_db to fire constantly; the emitted deletions must not
    // break checkability of the final refutation.
    let clauses = pigeonhole(6, 5);
    let refs: Vec<&[i64]> = clauses.iter().map(Vec::as_slice).collect();
    let mut cnf = Cnf::new(0);
    let buffer = ProofBuffer::new();
    // Zero tier cutoffs push every learnt into the Local tier, so the
    // tiny cap actually bites on a low-LBD instance like pigeonhole.
    let config = SatConfig {
        core_lbd_cutoff: 0,
        tier2_lbd_cutoff: 0,
        local_cap: 8,
        local_cap_growth: 1,
        ..SatConfig::default()
    };
    let mut solver = Solver::builder()
        .config(config)
        .proof_logger(Box::new(TextDratLogger::new(buffer.clone())))
        .build()
        .expect("valid");
    for c in &refs {
        let lits: Vec<Lit> = c.iter().map(|&v| lit(v)).collect();
        for &l in &lits {
            cnf.ensure_num_vars(l.var().index() + 1);
        }
        cnf.add_lits(lits.iter().copied());
        solver.add_clause(lits);
    }
    assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    assert!(solver.stats().deleted_clauses > 0, "reduce_db never fired");
    let proof = parse_text_drat(std::str::from_utf8(&buffer.contents()).unwrap()).unwrap();
    assert!(proof.deletions() > 0);
    check_proof(&cnf, &proof).unwrap();
}

/// A clause streamed into a [`ProofChecker`] counts as one loaded from a
/// [`Cnf`] by `check_proof`: equal reports on solver-emitted refutations
/// of random 3-CNFs, many of them with the deletions a tiny local tier
/// makes `reduce_db` log.
#[test]
fn streamed_loader_reports_like_check_proof() {
    let config = SatConfig {
        core_lbd_cutoff: 0,
        tier2_lbd_cutoff: 0,
        local_cap: 8,
        local_cap_growth: 1,
        ..SatConfig::default()
    };
    let mut rng = Rng::seed_from_u64(0x5742_EA3D);
    let (mut refuted, mut with_deletions) = (0, 0);
    for _ in 0..40 {
        let num_vars = rng.gen_range(25..=45i64);
        let clauses: Vec<Vec<i64>> = (0..5 * num_vars)
            .map(|_| {
                (0..3)
                    .map(|_| rng.gen_range(1..=num_vars) * if rng.gen_bool(0.5) { -1 } else { 1 })
                    .collect()
            })
            .collect();
        let refs: Vec<&[i64]> = clauses.iter().map(Vec::as_slice).collect();
        let (cnf, mut solver, buffer) = logged_solver_with(config.clone(), &refs);
        if solver.solve(&[]) != SolveResult::Unsat {
            continue;
        }
        let proof = parse_text_drat(std::str::from_utf8(&buffer.contents()).unwrap()).unwrap();
        let mut streamed = ProofChecker::new(0);
        for clause in &clauses {
            let lits: Vec<Lit> = clause.iter().map(|&v| lit(v)).collect();
            streamed.add_original(&lits);
        }
        let report = check_proof(&cnf, &proof).expect("solver proofs check");
        assert_eq!(streamed.check(&proof), Ok(report));
        refuted += 1;
        with_deletions += usize::from(proof.deletions() > 0);
    }
    assert!(refuted >= 30, "only {refuted} of 40 refuted");
    assert!(with_deletions >= 10, "only {with_deletions} proofs delete");
}

#[test]
fn corrupted_proof_is_rejected() {
    let clauses = pigeonhole(4, 3);
    let refs: Vec<&[i64]> = clauses.iter().map(Vec::as_slice).collect();
    let (cnf, mut solver, buffer) = logged_solver(&refs);
    assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    let proof = parse_text_drat(std::str::from_utf8(&buffer.contents()).unwrap()).unwrap();
    // Strip every addition: the gutted proof must not check (pigeonhole
    // needs real lemmas — plain unit propagation cannot refute it).
    let gutted = Proof {
        steps: proof
            .steps
            .iter()
            .filter(|s| matches!(s, ProofStep::Delete(_)))
            .cloned()
            .collect(),
    };
    assert!(check_proof(&cnf, &gutted).is_err());
    // Flipping a literal of a mid-proof lemma must also be caught.
    let mut tampered = proof.clone();
    let target = tampered
        .steps
        .iter()
        .position(|s| matches!(s, ProofStep::Add(c) if c.len() >= 2))
        .expect("a non-trivial lemma exists");
    if let ProofStep::Add(c) = &mut tampered.steps[target] {
        c[0] = !c[0];
    }
    assert!(
        check_proof(&cnf, &tampered).is_err(),
        "tampered lemma accepted"
    );
}

#[test]
fn sat_outcome_leaves_proof_without_contradiction() {
    let (cnf, mut solver, buffer) = logged_solver(&[&[1, 2], &[-1, 2]]);
    assert_eq!(solver.solve(&[]), SolveResult::Sat);
    let proof = parse_text_drat(std::str::from_utf8(&buffer.contents()).unwrap()).unwrap();
    assert!(check_proof(&cnf, &proof).is_err());
}
