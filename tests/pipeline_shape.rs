//! Structural assertions on the solver pipeline: the statistics of a PEC
//! solve must reflect the paper's architecture — Tseitin gates are
//! detected and composed away, the MaxSAT elimination set is a small
//! fraction of the universals, and the linearised remainder reaches the
//! QBF finish.

use hqs::core::expand::is_satisfiable_by_expansion;
use hqs::pec::families::generate;
use hqs::pec::Family;
use hqs::{ElimStrategy, HqsConfig, Outcome, Session};

#[test]
fn pec_solve_exercises_every_pipeline_stage() {
    // A mid-size adder with two boxes: cyclic dependencies guaranteed.
    let instance = generate(Family::Adder, 5, 2, 1, true);
    let dqbf = &instance.dqbf;
    let num_universals = dqbf.universals().len();
    assert!(!dqbf.is_qbf_expressible(), "two boxes ⇒ non-linear prefix");

    let mut session = Session::builder().build().expect("defaults are valid");
    let verdict = session.solve(dqbf);
    assert!(matches!(verdict, Outcome::Sat | Outcome::Unsat));
    let stats = session.stats();

    // Circuit-derived CNF: the preprocessor must find Tseitin gates.
    assert!(
        stats.decided_by_preprocessing || stats.preprocess.gates > 0,
        "no gates detected in a Tseitin-encoded circuit: {stats:?}"
    );
    if !stats.decided_by_preprocessing {
        // The MaxSAT-minimal elimination set is much smaller than the
        // full universal count (that is the point of the paper).
        assert!(
            stats.elimination_set_size < num_universals,
            "elimination set {} should be < {} universals",
            stats.elimination_set_size,
            num_universals
        );
        assert!(stats.universal_elims as usize <= num_universals);
    }
}

#[test]
fn qbf_finish_is_reached_on_cyclic_instances() {
    // Disable preprocessing so the main loop (and the handoff) must run.
    let instance = generate(Family::Bitcell, 4, 2, 3, false);
    let config = HqsConfig {
        preprocess: false,
        gate_detection: false,
        ..HqsConfig::default()
    };
    let mut session = Session::builder().config(config).build().expect("valid");
    let verdict = session.solve(&instance.dqbf);
    assert_eq!(verdict, Outcome::Sat, "carved instance is realizable");
    let stats = session.stats();
    assert!(
        stats.reached_qbf || stats.universal_elims == 0,
        "a decided cyclic instance passes through the QBF finish \
         unless constants short-circuit: {stats:?}"
    );
    assert!(stats.peak_nodes > 0);
}

#[test]
fn default_solve_matches_expansion_on_pec_instances() {
    for family in [Family::Bitcell, Family::PecXor] {
        for fault in [false, true] {
            let instance = generate(family, 2, 1, 9, fault);
            let verdict = Session::builder()
                .build()
                .expect("defaults are valid")
                .solve(&instance.dqbf);
            let expected = if is_satisfiable_by_expansion(&instance.dqbf) {
                Outcome::Sat
            } else {
                Outcome::Unsat
            };
            assert_eq!(verdict, expected, "{}", instance.name);
        }
    }
}

#[test]
fn eliminate_all_strategy_never_reaches_qbf_with_universals() {
    let instance = generate(Family::PecXor, 6, 2, 2, true);
    let config = HqsConfig {
        strategy: ElimStrategy::AllUniversals,
        ..HqsConfig::default()
    };
    let mut session = Session::builder().config(config).build().expect("valid");
    let verdict = session.solve(&instance.dqbf);
    assert!(matches!(verdict, Outcome::Sat | Outcome::Unsat));
    let stats = session.stats();
    if stats.reached_qbf {
        // The [10] strategy only hands off once every universal is gone,
        // so the finish must have performed no universal eliminations.
        assert_eq!(stats.qbf_universal_elims, 0, "{stats:?}");
    }
}
