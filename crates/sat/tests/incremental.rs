//! Incremental-session semantics: warm-state reuse across
//! [`Solver::solve`] queries, failed-assumption soundness, learnt-tier
//! retention, and DRAT proofs that span a whole session.
//!
//! These are the substrate guarantees the `hqs serve` architecture (and
//! the query-hungry DQBF backends it anticipates) rely on.

use hqs_base::Lit;
use hqs_cnf::Cnf;
use hqs_proof::{check_proof, parse_text_drat};
use hqs_sat::{ProofBuffer, SatConfig, SolveResult, Solver, TextDratLogger};

fn lit(v: i64) -> Lit {
    Lit::from_dimacs(v).unwrap()
}

/// Pigeonhole clauses over DIMACS variables `base+1 ..`: pigeon `i` in
/// hole `j` is variable `base + (i-1)*holes + j`.
fn pigeonhole(pigeons: i64, holes: i64, base: i64) -> Vec<Vec<i64>> {
    let var = |p: i64, h: i64| base + (p - 1) * holes + h;
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

/// A handful of extra binary clauses over the pigeonhole variables — the
/// "mutation" applied between the warm queries. They are consequences of
/// the at-most-one constraints' shape, keep the instance UNSAT, and
/// change the clause database enough that the second query is not the
/// byte-identical first one.
fn mutation(holes: i64, base: i64) -> Vec<Vec<i64>> {
    let var = |p: i64, h: i64| base + (p - 1) * holes + h;
    (1..=holes)
        .map(|h| vec![-var(1, h), -var(2, h), -var(3, h)])
        .collect()
}

/// The acceptance-criterion test: a warm second solve of a mutated
/// instance spends fewer conflicts than a cold solver on the same
/// mutated instance, because the learned clauses of the first query are
/// retained and reused.
#[test]
fn warm_second_solve_of_mutated_instance_beats_cold() {
    // Selector variable 31 (DIMACS) guards every clause so the UNSAT
    // verdict is assumption-scoped and the session stays alive.
    let selector = 31i64;
    let base = pigeonhole(6, 5, 0);

    let mut warm = Solver::new();
    for c in &base {
        warm.add_clause(c.iter().map(|&v| lit(v)).chain([lit(-selector)]));
    }
    assert_eq!(warm.solve(&[lit(selector)]), SolveResult::Unsat);
    let first_query_conflicts = warm.stats().conflicts;
    assert!(first_query_conflicts > 0, "PHP(6,5) needs real search");

    // Mutate the instance between queries, then re-solve warm.
    for c in mutation(5, 0) {
        warm.add_clause(c.iter().map(|&v| lit(v)).chain([lit(-selector)]));
    }
    assert_eq!(warm.solve(&[lit(selector)]), SolveResult::Unsat);
    let warm_conflicts = warm.stats().conflicts - first_query_conflicts;

    // Cold solver on exactly the mutated instance.
    let mut cold = Solver::new();
    for c in base.iter().chain(mutation(5, 0).iter()) {
        cold.add_clause(c.iter().map(|&v| lit(v)).chain([lit(-selector)]));
    }
    assert_eq!(cold.solve(&[lit(selector)]), SolveResult::Unsat);
    let cold_conflicts = cold.stats().conflicts;

    assert!(
        warm_conflicts < cold_conflicts,
        "warm retry should reuse learned clauses: warm {warm_conflicts} vs cold {cold_conflicts}"
    );
}

#[test]
fn failed_assumption_set_is_sound_and_excludes_irrelevant_assumptions() {
    // (¬a ∨ ¬b) with a=1, b=2; c=3 and d=4 are untouched by any clause.
    let mut s = Solver::new();
    s.add_clause([lit(-1), lit(-2)]);
    let assumptions = [lit(3), lit(1), lit(2), lit(4)];
    assert_eq!(s.solve(&assumptions), SolveResult::Unsat);
    let failed = s.failed_assumptions().to_vec();
    assert!(!failed.is_empty());
    // Every failed literal is one of the assumptions (soundness of the
    // reported set as a *subset*).
    assert!(failed.iter().all(|l| assumptions.contains(l)), "{failed:?}");
    // Minimal-ish: assumptions over variables no clause mentions cannot
    // be part of any failed core.
    assert!(!failed.contains(&lit(3)), "{failed:?}");
    assert!(!failed.contains(&lit(4)), "{failed:?}");
    // Soundness of the core itself: the failed subset alone is already
    // contradictory.
    assert_eq!(s.solve(&failed), SolveResult::Unsat);
    // And the session survives: dropping the core gives SAT.
    assert_eq!(s.solve(&[lit(3), lit(4)]), SolveResult::Sat);
}

#[test]
fn assumptions_round_trip_polarity_and_retention() {
    let mut s = Solver::new();
    s.add_clause([lit(1), lit(2)]);
    assert_eq!(s.solve(&[lit(-1)]), SolveResult::Sat);
    assert_eq!(s.model_value(lit(2).var()), Some(true));
    assert_eq!(s.solve(&[lit(-2)]), SolveResult::Sat);
    assert_eq!(s.model_value(lit(1).var()), Some(true));
    // Clauses added between queries take effect.
    s.add_clause([lit(-1)]);
    assert_eq!(s.solve(&[lit(-2)]), SolveResult::Unsat);
    assert_eq!(s.solve(&[]), SolveResult::Sat);
}

/// DRAT emitted across a whole incremental session — queries under
/// assumptions, clause additions in between, database reduction enabled —
/// still passes the independent checker in `hqs-proof` against the union
/// of every clause ever added.
#[test]
fn drat_from_incremental_session_passes_the_checker() {
    let mut cnf = Cnf::new(0);
    let buffer = ProofBuffer::new();
    // Zero tier cutoffs plus a tiny local cap force database reduction
    // to fire mid-session, so its deletions land in the proof stream too.
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

    let add = |solver: &mut Solver, cnf: &mut Cnf, c: &[i64]| {
        let lits: Vec<Lit> = c.iter().map(|&v| lit(v)).collect();
        for &l in &lits {
            cnf.ensure_num_vars(l.var().index() + 1);
        }
        cnf.add_lits(lits.iter().copied());
        solver.add_clause(lits);
    };

    // Query 1: PHP(5,4) under a selector assumption — UNSAT, learns.
    let selector = 61i64;
    for c in pigeonhole(5, 4, 0) {
        let mut guarded = c.clone();
        guarded.push(-selector);
        add(&mut solver, &mut cnf, &guarded);
    }
    assert_eq!(solver.solve(&[lit(selector)]), SolveResult::Unsat);
    // Query 2: without the selector the formula is SAT.
    assert_eq!(solver.solve(&[]), SolveResult::Sat);
    // Mutation: a second, unguarded pigeonhole over fresh variables
    // closes the formula outright.
    for c in pigeonhole(4, 3, 70) {
        add(&mut solver, &mut cnf, &c);
    }
    assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    assert!(!solver.proof_had_error());

    let proof = parse_text_drat(std::str::from_utf8(&buffer.contents()).unwrap()).unwrap();
    assert!(proof.additions() > 0);
    check_proof(&cnf, &proof).unwrap();
}
