//! Differential soundness fuzzer: random DQBFs through every decision
//! procedure in the workspace, cross-checked against the exhaustive
//! expansion oracle. Any disagreement is a bug and aborts with a
//! reproducer seed.
//!
//! ```text
//! cargo run -p hqs-bench --release --bin fuzz_dqbf -- --rounds 500 --seed 1
//! ```
//!
//! With `--certify`, every round additionally runs the certified pipeline
//! ([`Session::solve_certified`](hqs_core::Session::solve_certified)): each
//! SAT verdict must ship a
//! verifying Skolem certificate and each UNSAT verdict a DRAT refutation
//! accepted by the independent `hqs-proof` checker; verdicts are
//! cross-checked against the reference DPLL solver on the expansion CNF
//! and — when the dependency sets form an inclusion chain — against the
//! brute-force QBF evaluator on an equivalent linearised prefix. Every
//! SAT certificate is then corrupted twice and must be rejected: a
//! dropped Skolem function, and a Skolem function that reads a universal
//! outside its dependency set. Every tenth UNSAT round claims a wrong
//! universal count for its refutation, which must be rejected too.
//!
//! Every round also checks the AIG kernels that rebuild the round's
//! matrix against brute-force `eval` of the matrix, on every assignment
//! of its support: the QBF finish's block kernel on up to four variables,
//! the cofactor pair, a substitution and the compaction in `reduce`. The
//! solvers alone rarely reach a multi-variable block, or a compaction,
//! whose error flips a verdict here. The walk those kernels sweep is
//! checked too, before and after the compaction: its order must be the
//! nodes reachable from the matrix in ascending index, with their AND
//! count and support.

#![forbid(unsafe_code)]

use hqs_aig::{Aig, AigEdge, AigNode, ConeWalk};
use hqs_base::{Var, VarSet};
use hqs_cnf::{QdimacsFile, QuantBlock, Quantifier};
use hqs_core::elim::AigDqbf;
use hqs_core::expand::{expand_to_cnf, is_satisfiable_by_expansion};
use hqs_core::random::RandomDqbf;
use hqs_core::{CertifiedOutcome, Dqbf, ElimStrategy, HqsConfig, Outcome, Session};
use hqs_idq::InstantiationSolver;
use std::collections::{BTreeSet, HashMap};

fn main() {
    let mut rounds = 200u64;
    let mut base_seed = 0u64;
    let mut certify = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rounds N")
            }
            "--seed" => base_seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--certify" => certify = true,
            other => panic!("unknown option {other} (--rounds, --seed, --certify)"),
        }
    }
    let configs: Vec<(&str, HqsConfig)> = vec![
        ("paper", HqsConfig::default()),
        (
            "bare",
            HqsConfig {
                preprocess: false,
                gate_detection: false,
                unit_pure: false,
                ..HqsConfig::default()
            },
        ),
        (
            "all-univ",
            HqsConfig {
                strategy: ElimStrategy::AllUniversals,
                ..HqsConfig::default()
            },
        ),
    ];
    let mut sat = 0u64;
    let mut unsat = 0u64;
    for round in 0..rounds {
        let seed = base_seed.wrapping_add(round);
        // Vary the distribution with the round for coverage.
        let shape = RandomDqbf {
            num_universals: 1 + (round % 4) as u32,
            num_existentials: 1 + (round % 5) as u32,
            dependency_density: 0.25 + 0.5 * ((round % 3) as f64) / 2.0,
            num_clauses: 2 + (round % 11) as usize,
            max_clause_len: 1 + (round % 3) as usize,
        };
        let dqbf = shape.generate(seed);
        let expected = if is_satisfiable_by_expansion(&dqbf) {
            sat += 1;
            Outcome::Sat
        } else {
            unsat += 1;
            Outcome::Unsat
        };
        for (name, config) in &configs {
            let mut session = Session::builder()
                .config(config.clone())
                .build()
                .unwrap_or_else(|error| panic!("invalid config {name}: {error}"));
            let got = session.solve(&dqbf);
            assert_eq!(
                got, expected,
                "HQS[{name}] disagrees with the oracle: seed {seed}, shape {shape:?}"
            );
        }
        let got = Outcome::from(InstantiationSolver::new().solve(&dqbf));
        assert_eq!(
            got, expected,
            "instantiation baseline disagrees: seed {seed}, shape {shape:?}"
        );
        check_kernels(&dqbf, seed);
        if certify {
            certify_round(&dqbf, expected, seed, round);
        }
        if (round + 1) % 50 == 0 {
            eprintln!("fuzzed {} instances ({sat} SAT / {unsat} UNSAT)", round + 1);
        }
    }
    println!(
        "fuzzing clean: {rounds} instances, {sat} SAT / {unsat} UNSAT, \
         {} procedures agree with the oracle on all of them{}",
        configs.len() + 1,
        if certify {
            ", every verdict certified and cross-checked"
        } else {
            ""
        }
    );
}

/// The kernels that rebuild the matrix of `dqbf`, each against
/// brute-force `eval` of the matrix on every assignment of its support:
/// `quantify_block` on up to four support variables (rotated by the
/// seed), ∀ on even seeds and ∃ on odd ones; the cofactor pair on the
/// block's first variable; a substitution that swaps its first and last;
/// and the compaction in `reduce`.
fn check_kernels(dqbf: &Dqbf, seed: u64) {
    let mut state = AigDqbf::from_dqbf(dqbf);
    let root = state.root();
    let support: Vec<Var> = state.aig.support(root).iter().collect();
    if support.is_empty() {
        return;
    }
    let start = (seed % support.len() as u64) as usize;
    let block: Vec<Var> = support
        .iter()
        .cycle()
        .skip(start)
        .take(4.min(support.len()))
        .copied()
        .collect();
    let quantifier = if seed.is_multiple_of(2) {
        Quantifier::Universal
    } else {
        Quantifier::Existential
    };
    let (first, last) = (block[0], block[block.len() - 1]);
    let walk = state.aig.walk(root);
    check_walk(&state.aig, &walk, seed);
    let quantified = state.aig.quantify_block(&walk, &block, quantifier);
    let (cof0, cof1) = state.aig.cofactors(&walk, first);
    let swap: HashMap<Var, _> = [(first, last), (last, first)]
        .into_iter()
        .map(|(var, image)| (var, state.aig.input(image)))
        .collect();
    let swapped = state.aig.compose_many(&walk, &swap);
    let ands = walk.ands();
    drop(walk);
    let context = format!("seed {seed}, {quantifier:?} {block:?}");
    let support = &support;
    // The valuation of the support that `bits` encodes.
    let value_of = |bits: u64| {
        move |v: Var| {
            support
                .iter()
                .position(|&s| s == v)
                .is_some_and(|i| bits >> i & 1 == 1)
        }
    };
    let mut table = Vec::new();
    for bits in 0u64..1 << support.len() {
        let value = value_of(bits);
        let aig = &state.aig;
        let mut images = (0u64..1 << block.len()).map(|a| {
            aig.eval(root, |v| match block.iter().position(|&b| b == v) {
                Some(i) => a >> i & 1 == 1,
                None => value(v),
            })
        });
        let expected = match quantifier {
            Quantifier::Universal => images.all(|b| b),
            Quantifier::Existential => images.any(|b| b),
        };
        assert_eq!(
            aig.eval(quantified, value),
            expected,
            "block kernel: {context}"
        );
        for (cofactor, constant) in [(cof0, false), (cof1, true)] {
            let expected = aig.eval(root, |v| if v == first { constant } else { value(v) });
            assert_eq!(
                aig.eval(cofactor, value),
                expected,
                "cofactor pair: {context}"
            );
        }
        let swapped_value = |v: Var| match v {
            v if v == first => value(last),
            v if v == last => value(first),
            v => value(v),
        };
        let expected = aig.eval(root, swapped_value);
        assert_eq!(
            aig.eval(swapped, value),
            expected,
            "substitution: {context}"
        );
        table.push(aig.eval(root, value));
    }
    // Garbage over variables no round uses, four nodes per pad and more
    // pads than the matrix has ANDs, so that reduce compacts.
    let pads: Vec<_> = (1_000_000..)
        .take(100 + ands)
        .map(|v| state.aig.input(Var::new(v)))
        .collect();
    for pair in pads.windows(2) {
        let _ = state.aig.xor(pair[0], pair[1]);
    }
    let before = state.aig.num_nodes();
    state.reduce();
    assert!(
        state.aig.num_nodes() < before,
        "reduce compacts the padded arena: {context}"
    );
    for (bits, &expected) in (0u64..).zip(&table) {
        let got = state.aig.eval(state.root(), value_of(bits));
        assert_eq!(got, expected, "compaction: {context}");
    }
    let walk = state.aig.walk(state.root());
    check_walk(&state.aig, &walk, seed);
}

/// The walk of a round's matrix against a worklist over a set: its order
/// is exactly the nodes reachable from the root, in ascending index (so
/// every fanin comes before its fanouts), and its AND count and support
/// are those of that set.
fn check_walk(aig: &Aig, walk: &ConeWalk, seed: u64) {
    let mut cone = BTreeSet::new();
    let mut todo = vec![walk.root().node()];
    while let Some(idx) = todo.pop() {
        if cone.insert(idx) {
            if let AigNode::And(f0, f1) = aig.node(AigEdge::new(idx, false)) {
                todo.extend([f0.node(), f1.node()]);
            }
        }
    }
    let ascending: Vec<u32> = cone.iter().copied().collect();
    assert_eq!(
        walk.order(),
        ascending.as_slice(),
        "walk order: seed {seed}"
    );
    let (mut ands, mut support) = (0, VarSet::new());
    for &idx in &cone {
        match aig.node(AigEdge::new(idx, false)) {
            AigNode::And(..) => ands += 1,
            AigNode::Input(var) => {
                support.insert(var);
            }
            AigNode::True => {}
        }
    }
    assert_eq!(walk.ands(), ands, "walk AND count: seed {seed}");
    assert_eq!(walk.support(), &support, "walk support: seed {seed}");
}

/// Certifies one fuzzed instance end-to-end and cross-checks the verdict
/// against the reference solvers.
fn certify_round(dqbf: &Dqbf, expected: Outcome, seed: u64, round: u64) {
    let mut session = Session::builder()
        .config(HqsConfig {
            certify: true,
            ..HqsConfig::default()
        })
        .build()
        .unwrap_or_else(|error| panic!("invalid certify config: {error}"));
    let outcome = session
        .solve_certified(dqbf)
        .unwrap_or_else(|err| panic!("certification failed: seed {seed}: {err}"));

    // Reference cross-check 1: DPLL on the expansion CNF.
    let mut bound = dqbf.clone();
    bound.bind_free_vars();
    let (expansion, _) = expand_to_cnf(&bound);
    let dpll_sat = hqs_sat::reference::dpll(&expansion).is_some();
    assert_eq!(
        dpll_sat,
        expected == Outcome::Sat,
        "reference DPLL disagrees on the expansion: seed {seed}"
    );

    // Reference cross-check 2: when the dependency sets form an inclusion
    // chain the DQBF is equivalent to a linear-prefix QBF; evaluate it by
    // brute force.
    if let Some(qbf) = linearise(&bound) {
        assert_eq!(
            hqs_qbf::reference::eval_qdimacs(&qbf),
            expected == Outcome::Sat,
            "reference QBF evaluation disagrees: seed {seed}"
        );
    }

    match outcome {
        CertifiedOutcome::Sat(cert) => {
            assert_eq!(
                expected,
                Outcome::Sat,
                "certified SAT is wrong: seed {seed}"
            );
            // Deliberate corruption must be rejected: a certificate with a
            // missing Skolem function never verifies, nor does one whose
            // function reads a universal outside its dependency set (its
            // table doubled, so it computes the same values). Every SAT
            // certificate is corrupted: the tenth rounds have a single
            // existential and are rarely satisfiable.
            if !cert.functions.is_empty() {
                let outside = cert.functions.iter().enumerate().find_map(|(i, f)| {
                    let deps = bound.dependencies(f.var)?;
                    let x = bound.universals().iter().find(|&&x| !deps.contains(x))?;
                    Some((i, *x))
                });
                if let Some((i, x)) = outside {
                    let mut tampered = cert.clone();
                    let function = &mut tampered.functions[i];
                    function.deps.push(x);
                    function.table.extend_from_within(..);
                    assert!(
                        !tampered.verify(dqbf),
                        "Skolem function reading outside its dependency set accepted: seed {seed}"
                    );
                }
                let mut tampered = cert;
                tampered.functions.pop();
                assert!(
                    dqbf.existentials().is_empty() || !tampered.verify(dqbf),
                    "corrupted Skolem certificate accepted: seed {seed}"
                );
            }
        }
        CertifiedOutcome::Unsat(cert) => {
            assert_eq!(
                expected,
                Outcome::Unsat,
                "certified UNSAT is wrong: seed {seed}"
            );
            // Deliberate corruption must be rejected: a wrong universal
            // count never matches the recomputed expansion.
            if round.is_multiple_of(10) {
                let mut tampered = cert;
                tampered.num_universals += 1;
                assert!(
                    !tampered.verify(dqbf),
                    "corrupted refutation certificate accepted: seed {seed}"
                );
            }
        }
        CertifiedOutcome::Limit(e) => {
            panic!("unbudgeted certification hit a limit: seed {seed}: {e:?}")
        }
    }
}

/// Linearises a DQBF with chain-ordered dependency sets into an
/// equivalent QBF prefix; `None` when the sets are incomparable.
fn linearise(dqbf: &Dqbf) -> Option<QdimacsFile> {
    let mut existentials: Vec<Var> = dqbf.existentials().to_vec();
    existentials.sort_by_key(|&y| dqbf.dependencies(y).map_or(0, hqs_base::VarSet::len));
    for pair in existentials.windows(2) {
        let smaller = dqbf.dependencies(pair[0])?;
        let larger = dqbf.dependencies(pair[1])?;
        if !smaller.is_subset(larger) {
            return None;
        }
    }
    // ∀(D₁) ∃Y₁ ∀(D₂∖D₁) ∃Y₂ … ∀(rest): introduce each universal right
    // before the first existential that depends on it.
    let mut blocks: Vec<QuantBlock> = Vec::new();
    let mut placed = hqs_base::VarSet::with_capacity(dqbf.num_vars());
    for &y in &existentials {
        let deps = dqbf.dependencies(y)?;
        let fresh: Vec<Var> = deps.iter().filter(|&u| !placed.contains(u)).collect();
        if !fresh.is_empty() {
            for &u in &fresh {
                placed.insert(u);
            }
            blocks.push(QuantBlock {
                quantifier: Quantifier::Universal,
                vars: fresh,
            });
        }
        blocks.push(QuantBlock {
            quantifier: Quantifier::Existential,
            vars: vec![y],
        });
    }
    let rest: Vec<Var> = dqbf
        .universals()
        .iter()
        .copied()
        .filter(|&u| !placed.contains(u))
        .collect();
    if !rest.is_empty() {
        blocks.push(QuantBlock {
            quantifier: Quantifier::Universal,
            vars: rest,
        });
    }
    Some(QdimacsFile {
        blocks,
        matrix: dqbf.matrix().clone(),
    })
}
