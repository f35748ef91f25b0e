//! Quickstart: build and solve the paper's Example 1 DQBF, inspect the
//! dependency graph, and watch the preprocessing/elimination statistics.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use hqs::base::Lit;
use hqs::core::depgraph::DepGraph;
use hqs::obs::{MetricsObserver, Phase};
use hqs::{Dqbf, Outcome, Session};
use std::sync::Arc;

fn main() {
    // Example 1 of the paper:
    //   ψ = ∀x₁ ∀x₂ ∃y₁(x₁) ∃y₂(x₂) : (y₁ ↔ x₁) ∧ (y₂ ↔ x₂)
    // Each yᵢ must copy "its" universal — expressible in DQBF but not as a
    // linearly ordered QBF prefix.
    let mut dqbf = Dqbf::new();
    let x1 = dqbf.add_universal();
    let x2 = dqbf.add_universal();
    let y1 = dqbf.add_existential([x1]);
    let y2 = dqbf.add_existential([x2]);
    for (x, y) in [(x1, y1), (x2, y2)] {
        dqbf.add_clause([Lit::positive(x), Lit::negative(y)]);
        dqbf.add_clause([Lit::negative(x), Lit::positive(y)]);
    }
    println!("formula: {dqbf:?}");

    // The dependency graph (Definition 4) has a 2-cycle, so no equivalent
    // QBF prefix exists (Theorem 3) — this is genuinely DQBF.
    let deps: Vec<_> = dqbf
        .existentials()
        .iter()
        .map(|&y| (y, dqbf.dependencies(y).unwrap().clone()))
        .collect();
    let graph = DepGraph::new(&deps);
    println!(
        "dependency graph cyclic (needs DQBF): {}",
        graph.is_cyclic()
    );
    println!("binary cycles: {}", graph.binary_cycles().len());

    // Solve with HQS (paper defaults: preprocessing, gate detection,
    // unit/pure elimination, MaxSAT-minimal elimination set). On this tiny
    // formula the preprocessor alone decides: y₁ ≡ x₁ and y₂ ≡ x₂ are
    // equivalence substitutions.
    let mut session = Session::builder().build().expect("defaults are valid");
    let result = session.solve(&dqbf);
    let stats = session.stats();
    println!("verdict: {result:?}");
    println!(
        "decided by preprocessing: {} ({} equivalence substitutions)",
        stats.decided_by_preprocessing, stats.preprocess.equivalences
    );
    assert_eq!(result, Outcome::Sat);

    // Disable preprocessing to watch the full pipeline: MaxSAT picks a
    // minimum elimination set, Theorem 1 eliminates a universal, and the
    // loop decides the linearised remainder in its QBF finish. Attach a
    // metrics observer to see where the time went.
    let observer = Arc::new(MetricsObserver::new());
    let config = hqs::HqsConfig {
        preprocess: false,
        gate_detection: false,
        ..hqs::HqsConfig::default()
    };
    let mut session = Session::builder()
        .config(config)
        .observer(observer.clone())
        .build()
        .expect("valid configuration");
    let result = session.solve(&dqbf);
    let stats = session.stats();
    println!("without preprocessing: {result:?}");
    println!(
        "stats: {} universal eliminations, {} unit/pure eliminations, \
         elimination set of size {}, peak {} AIG nodes, QBF finish \
         reached: {}",
        stats.universal_elims,
        stats.unit_pure_elims,
        stats.elimination_set_size,
        stats.peak_nodes,
        stats.reached_qbf,
    );
    assert_eq!(result, Outcome::Sat);
    let snapshot = observer.snapshot();
    println!(
        "observed: {} spans recorded, elim-loop seen: {}",
        snapshot.spans.len(),
        snapshot.spans.iter().any(|s| s.phase == Phase::ElimLoop),
    );

    // Swap the dependencies (y₁ sees x₁ but must copy x₂): unsatisfiable.
    let mut wrong = Dqbf::new();
    let x1 = wrong.add_universal();
    let x2 = wrong.add_universal();
    let y1 = wrong.add_existential([x1]);
    wrong.add_clause([Lit::positive(x2), Lit::negative(y1)]);
    wrong.add_clause([Lit::negative(x2), Lit::positive(y1)]);
    let mut session = Session::builder().build().expect("defaults are valid");
    println!("with the wrong dependency set: {:?}", session.solve(&wrong));
}
