//! Arena-compaction soundness: clause-database reduction and arena
//! garbage collection interleaved with incremental queries must be
//! invisible — verdicts, models, failed-assumption cores and DRAT
//! checkability are all preserved across compactions.
//!
//! Every test runs a GC-hostile configuration: zero tier cutoffs push
//! all learnt clauses into the Local tier, and a tiny `local_cap` keeps
//! `reduce_db` (and therefore arena compaction) firing constantly.

use hqs_base::{Lit, Rng, TruthValue, Var};
use hqs_cnf::{Clause, Cnf};
use hqs_proof::{check_proof, parse_text_drat};
use hqs_sat::{reference, ProofBuffer, SatConfig, SolveResult, Solver, TextDratLogger};

fn lit(v: i64) -> Lit {
    Lit::from_dimacs(v).unwrap()
}

/// Every learnt goes Local; the cap trips after a handful of clauses.
fn gc_config() -> SatConfig {
    SatConfig {
        core_lbd_cutoff: 0,
        tier2_lbd_cutoff: 0,
        local_cap: 8,
        local_cap_growth: 1,
        ..SatConfig::default()
    }
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

/// Random add/solve interleavings on a solver whose arena is under
/// constant GC pressure from a hard guarded sub-formula.
///
/// Each session first refutes a selector-guarded PHP(7,6) — generating
/// the learnt churn that drives reduction and compaction — then runs
/// rounds of random clause additions and queries over a disjoint block
/// of variables. Because the blocks share no variables, the reference
/// oracle only ever has to settle the small random part, while the
/// solver answers against the full post-GC database:
///
/// - `Sat` verdicts must match the oracle and come with a model of the
///   *entire* formula (including every guarded clause);
/// - `Unsat` verdicts must match the oracle, and the reported failed
///   assumptions restricted to the random block must already be
///   contradictory there;
/// - the guarded query must stay `Unsat` at every re-check.
#[test]
fn gc_interleavings_preserve_verdicts_models_and_cores() {
    // PHP(7,6) occupies DIMACS 1..42, the selector is 43, and the random
    // block is 44..51.
    let selector = 43i64;
    let random_base = 43u32; // 0-based index of DIMACS 44
    let random_vars = 8u32;

    let mut total_gcs = 0u64;
    for seed in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0x6C0_0000 + seed);
        let mut solver = Solver::builder()
            .config(gc_config())
            .build()
            .expect("valid");
        let mut full = Cnf::new(random_base + random_vars);
        let mut random_part = Cnf::new(random_base + random_vars);

        for c in pigeonhole(7, 6, 0) {
            let lits: Vec<Lit> = c.iter().map(|&v| lit(v)).chain([lit(-selector)]).collect();
            full.add_clause(Clause::from_lits(lits.iter().copied()));
            solver.add_clause(lits);
        }
        assert_eq!(
            solver.solve(&[lit(selector)]),
            SolveResult::Unsat,
            "seed {seed}"
        );
        assert!(
            solver.stats().deleted_clauses > 0,
            "seed {seed}: reduce_db never fired"
        );

        for round in 0..6 {
            for _ in 0..rng.gen_range(1..5usize) {
                let len = rng.gen_range(1..4usize);
                let lits: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = Var::new(random_base + rng.gen_range(0..random_vars));
                        Lit::new(v, rng.gen_bool(0.5))
                    })
                    .collect();
                full.add_clause(Clause::from_lits(lits.iter().copied()));
                random_part.add_clause(Clause::from_lits(lits.iter().copied()));
                solver.add_clause(lits);
            }
            let mut assumptions = vec![lit(-selector)];
            for i in 0..random_vars {
                if rng.gen_bool(0.3) {
                    assumptions.push(Lit::new(Var::new(random_base + i), rng.gen_bool(0.5)));
                }
            }
            // Disjointness makes the full formula under ¬selector exactly
            // as satisfiable as the strengthened random block.
            let mut strengthened = random_part.clone();
            for &a in &assumptions[1..] {
                strengthened.add_clause(Clause::unit(a));
            }
            let expected = reference::is_satisfiable(&strengthened);
            match solver.solve(&assumptions) {
                SolveResult::Sat => {
                    assert!(
                        expected,
                        "seed {seed} round {round}: solver Sat, oracle Unsat"
                    );
                    let model = solver.model();
                    assert_eq!(
                        full.evaluate(&model),
                        TruthValue::True,
                        "seed {seed} round {round}: model does not satisfy the formula"
                    );
                    assert!(
                        assumptions.iter().all(|&a| model.satisfies(a)),
                        "seed {seed} round {round}: model violates an assumption"
                    );
                }
                SolveResult::Unsat => {
                    assert!(
                        !expected,
                        "seed {seed} round {round}: solver Unsat, oracle Sat"
                    );
                    let failed = solver.failed_assumptions().to_vec();
                    assert!(
                        failed.iter().all(|l| assumptions.contains(l)),
                        "seed {seed} round {round}: failed set {failed:?} not a subset"
                    );
                    // The core restricted to the random block must already
                    // be contradictory there (¬selector only satisfies
                    // guarded clauses, it cannot carry a contradiction).
                    let mut core = random_part.clone();
                    for &l in failed.iter().filter(|l| l.var().index() >= random_base) {
                        core.add_clause(Clause::unit(l));
                    }
                    assert!(
                        !reference::is_satisfiable(&core),
                        "seed {seed} round {round}: failed set {failed:?} is not a core"
                    );
                }
                SolveResult::Unknown => panic!("seed {seed} round {round}: no budget was set"),
            }
            // The guarded refutation must survive every compaction.
            if round % 2 == 1 {
                assert_eq!(
                    solver.solve(&[lit(selector)]),
                    SolveResult::Unsat,
                    "seed {seed} round {round}: guarded verdict changed after GC"
                );
            }
        }
        total_gcs += solver.stats().arena_gcs;
    }
    assert!(total_gcs > 0, "no session ever compacted the arena");
}

/// DRAT emitted across a GC-heavy incremental session still passes the
/// independent checker: reduction deletions and arena compactions must
/// leave the proof stream well-formed and checkable against the union
/// of every clause ever added.
#[test]
fn drat_stays_checkable_across_arena_compactions() {
    let mut cnf = Cnf::new(0);
    let buffer = ProofBuffer::new();
    let mut solver = Solver::builder()
        .config(gc_config())
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

    // Query 1: guarded PHP(8,7) — enough churn to force real GC.
    let selector = 71i64;
    for c in pigeonhole(8, 7, 0) {
        let mut guarded = c.clone();
        guarded.push(-selector);
        add(&mut solver, &mut cnf, &guarded);
    }
    assert_eq!(solver.solve(&[lit(selector)]), SolveResult::Unsat);
    assert!(solver.stats().arena_gcs > 0, "the arena never compacted");
    // Query 2: without the selector the formula is SAT.
    assert_eq!(solver.solve(&[]), SolveResult::Sat);
    // Mutation: an unguarded PHP(4,3) over fresh variables closes the
    // formula outright; the post-GC database must still refute it.
    for c in pigeonhole(4, 3, 80) {
        add(&mut solver, &mut cnf, &c);
    }
    assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    assert!(!solver.proof_had_error());

    let proof = parse_text_drat(std::str::from_utf8(&buffer.contents()).unwrap()).unwrap();
    assert!(proof.deletions() > 0, "a GC-heavy run must delete clauses");
    check_proof(&cnf, &proof).unwrap();
}

/// Learnt tiers are retained across queries: a second identical query
/// reuses the tiered database instead of re-deriving it, and the tier
/// population survives (default configuration, no artificial pressure).
#[test]
fn learnt_tiers_are_retained_across_queries() {
    let selector = 31i64;
    let mut solver = Solver::new();
    for c in pigeonhole(6, 5, 0) {
        solver.add_clause(c.iter().map(|&v| lit(v)).chain([lit(-selector)]));
    }
    assert_eq!(solver.solve(&[lit(selector)]), SolveResult::Unsat);
    let after_first = solver.stats();
    let tiered_first =
        after_first.core_clauses + after_first.tier2_clauses + after_first.local_clauses;
    assert!(tiered_first > 0, "PHP(6,5) must learn clauses");
    assert!(after_first.conflicts > 0, "PHP(6,5) needs real search");

    assert_eq!(solver.solve(&[lit(selector)]), SolveResult::Unsat);
    let after_second = solver.stats();
    let tiered_second =
        after_second.core_clauses + after_second.tier2_clauses + after_second.local_clauses;
    assert!(
        tiered_second >= tiered_first,
        "tier population shrank across queries: {tiered_second} < {tiered_first}"
    );
    let second_conflicts = after_second.conflicts - after_first.conflicts;
    assert!(
        second_conflicts < after_first.conflicts,
        "warm re-query did not reuse the tiered database: \
         {second_conflicts} vs {} conflicts",
        after_first.conflicts
    );
}
