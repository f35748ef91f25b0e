//! Integration of the PEC application pipeline: circuit → black boxes →
//! DQBF encoding → both solvers, across all seven benchmark families.

use hqs::base::Budget;
use hqs::core::expand::{is_satisfiable_by_expansion, MAX_EXPANSION_UNIVERSALS};
use hqs::engine::{solve_portfolio, standard_deck, PortfolioOptions};
use hqs::pec::families::generate;
use hqs::pec::{benchmark_suite, Family, Scale};
use hqs::{HqsConfig, InstantiationSolver, Outcome, Session};
use std::time::Duration;

#[test]
fn carved_instances_of_every_family_are_realizable() {
    for family in Family::ALL {
        for (size, boxes) in [(2u32, 1u32), (3, 2)] {
            let instance = generate(family, size, boxes, 3, false);
            let verdict = Session::builder()
                .build()
                .expect("defaults are valid")
                .solve(&instance.dqbf);
            assert_eq!(verdict, Outcome::Sat, "{}", instance.name);
        }
    }
}

/// Instances of the loop below that the iDQ baseline needs over a minute
/// for in a debug build; they are left to the expansion oracle instead of
/// waiting out the baseline's budget.
const BASELINE_TOO_SLOW: [&str; 2] = ["z4_n2_b1_s5", "C432_n2_b1_s5"];

/// The other instances of the loop, which the baseline decides inside its
/// budget; the slowest needs under 4 s in a debug build.
const BASELINE_DECIDED: usize = 12;

#[test]
fn hqs_and_baseline_agree_on_small_pec_instances() {
    let mut compared = 0;
    for family in Family::ALL {
        for fault in [false, true] {
            let instance = generate(family, 2, 1, 5, fault);
            let hqs = Session::builder()
                .build()
                .expect("defaults are valid")
                .solve(&instance.dqbf);
            if !BASELINE_TOO_SLOW.contains(&instance.name.as_str()) {
                let mut baseline = InstantiationSolver::new();
                baseline.set_budget(
                    Budget::new()
                        .with_timeout(Duration::from_secs(10))
                        .with_node_limit(2_000_000),
                );
                let idq = Outcome::from(baseline.solve(&instance.dqbf));
                if !matches!(idq, Outcome::Unknown(_)) {
                    assert_eq!(hqs, idq, "{}", instance.name);
                    compared += 1;
                }
            }
            if instance.dqbf.universals().len() <= MAX_EXPANSION_UNIVERSALS {
                let oracle = if is_satisfiable_by_expansion(&instance.dqbf) {
                    Outcome::Sat
                } else {
                    Outcome::Unsat
                };
                assert_eq!(hqs, oracle, "{} vs oracle", instance.name);
            }
        }
    }
    // A slower baseline must fail here rather than skip comparisons.
    assert_eq!(
        compared, BASELINE_DECIDED,
        "the baseline decided {compared} of {BASELINE_DECIDED} instances in time"
    );
}

#[test]
fn smoke_suite_solves_under_hqs() {
    // Every smoke-scale instance must be decided by HQS within a generous
    // budget — the Table I harness depends on it.
    let suite = benchmark_suite(Scale::Smoke);
    assert!(suite.len() >= 28);
    for instance in &suite {
        let mut session = Session::builder()
            .config(HqsConfig {
                budget: Budget::new()
                    .with_timeout(Duration::from_secs(120))
                    .with_node_limit(3_000_000),
                ..HqsConfig::default()
            })
            .build()
            .expect("valid");
        let verdict = session.solve(&instance.dqbf);
        if matches!(verdict, Outcome::Unknown(_)) {
            // The paper's own Table I shows HQS running out of memory on
            // most C432 and many comp instances; the regenerated families
            // reproduce that hardness ordering.
            assert!(
                matches!(instance.family, Family::C432 | Family::Comp),
                "{} not decided: {verdict:?}",
                instance.name
            );
            continue;
        }
        if !instance.fault {
            assert_eq!(
                verdict,
                Outcome::Sat,
                "{} must be realizable",
                instance.name
            );
        }
    }
}

/// Why the deck holds `all-universals`: on this C432 instance the
/// MaxSAT-minimal set runs out of nodes (as in Table I's C432 memouts),
/// while eliminating every universal keeps the AIG small.
#[test]
fn portfolio_decides_a_default_memout_through_all_universals() {
    let instance = generate(Family::C432, 9, 3, 8, false);
    let budget = Budget::new().with_node_limit(200_000);
    let default = Session::builder()
        .config(HqsConfig {
            budget: budget.clone(),
            ..HqsConfig::default()
        })
        .build()
        .expect("valid")
        .solve(&instance.dqbf);
    assert!(
        matches!(default, Outcome::Unknown(_)),
        "{} was meant to exhaust the default's budget, got {default:?}",
        instance.name
    );
    let opts = PortfolioOptions {
        threads: 2,
        deterministic: true,
        budget,
        ..PortfolioOptions::default()
    };
    let outcome =
        solve_portfolio(&instance.dqbf, &standard_deck(), &opts).expect("no engine error");
    assert_eq!(outcome.result, Outcome::Sat);
    assert_eq!(outcome.winner_name.as_deref(), Some("all-universals"));
}

#[test]
fn encoding_structure_is_as_documented() {
    // One existential per black-box output, dependencies = the box's cut.
    let instance = generate(Family::Adder, 3, 2, 0, false);
    let dqbf = &instance.dqbf;
    // adder boxes have 2 outputs each.
    let bb_outputs: Vec<_> = dqbf
        .existentials()
        .iter()
        .filter(|&&y| {
            let deps = dqbf.dependencies(y).unwrap();
            !deps.is_empty() && deps.len() < dqbf.universals().len()
        })
        .collect();
    assert!(
        bb_outputs.len() >= 4,
        "two boxes × two outputs have restricted dependency sets"
    );
}
