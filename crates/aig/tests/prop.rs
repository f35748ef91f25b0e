//! Randomised property tests of the AIG operations against truth-table
//! semantics on random cones, plus structural-invariant audits after
//! random operation sequences (the runtime half of the correctness-audit
//! layer; see DESIGN.md "Invariants & audit").

use hqs_aig::{Aig, AigEdge, AigNode, ConeWalk, UnitPureStatus, VarStatus};
use hqs_base::{Rng, Var};
use hqs_cnf::Quantifier;
use std::collections::{BTreeSet, HashMap};

const NUM_VARS: u32 = 4;
const CASES: u64 = 256;

/// A recipe for building a random cone: pairs of (operand indices,
/// complement flags) over a growing node pool.
#[derive(Clone, Debug)]
struct Recipe {
    steps: Vec<(usize, usize, bool, bool)>,
    complement_root: bool,
}

fn random_recipe(rng: &mut Rng) -> Recipe {
    let steps = (0..rng.gen_range(1..14usize))
        .map(|_| {
            (
                rng.gen_range(0..64usize),
                rng.gen_range(0..64usize),
                rng.gen_bool(0.5),
                rng.gen_bool(0.5),
            )
        })
        .collect();
    Recipe {
        steps,
        complement_root: rng.gen_bool(0.5),
    }
}

fn build(aig: &mut Aig, recipe: &Recipe) -> AigEdge {
    let mut pool: Vec<AigEdge> = (0..NUM_VARS).map(|i| aig.input(Var::new(i))).collect();
    for &(i, j, ci, cj) in &recipe.steps {
        let a = pool[i % pool.len()].xor_complement(ci);
        let b = pool[j % pool.len()].xor_complement(cj);
        pool.push(aig.and(a, b));
    }
    (*pool.last().expect("pool starts non-empty")).xor_complement(recipe.complement_root)
}

fn truth_table(aig: &Aig, root: AigEdge) -> u16 {
    let mut table = 0u16;
    for bits in 0u32..(1 << NUM_VARS) {
        if aig.eval(root, |v| bits >> v.index() & 1 == 1) {
            table |= 1 << bits;
        }
    }
    table
}

fn cofactor_table(table: u16, var: u32, value: bool) -> u16 {
    let mut out = 0u16;
    for bits in 0u32..(1 << NUM_VARS) {
        let mut src = bits;
        if value {
            src |= 1 << var;
        } else {
            src &= !(1 << var);
        }
        if table >> src & 1 == 1 {
            out |= 1 << bits;
        }
    }
    out
}

fn assert_invariants(aig: &Aig, context: &str) {
    if let Err(violation) = aig.check_invariants() {
        panic!("{context}: AIG invariant violated: {violation}");
    }
}

/// Structural hashing and the simplification rules never change the
/// function: two independent builds of the same recipe agree.
#[test]
fn construction_is_functional() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let recipe = random_recipe(&mut rng);
        let mut aig1 = Aig::new();
        let r1 = build(&mut aig1, &recipe);
        let mut aig2 = Aig::new();
        let r2 = build(&mut aig2, &recipe);
        assert_eq!(
            truth_table(&aig1, r1),
            truth_table(&aig2, r2),
            "seed {seed}"
        );
        assert_invariants(&aig1, &format!("seed {seed} after build"));
    }
}

/// Cofactor semantics match the truth-table cofactor.
#[test]
fn cofactor_semantics() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x1000 + seed);
        let recipe = random_recipe(&mut rng);
        let var = rng.gen_range(0..NUM_VARS);
        let value = rng.gen_bool(0.5);
        let mut aig = Aig::new();
        let root = build(&mut aig, &recipe);
        let before = truth_table(&aig, root);
        let cof = aig.cofactor(root, Var::new(var), value);
        assert_eq!(
            truth_table(&aig, cof),
            cofactor_table(before, var, value),
            "seed {seed}"
        );
    }
}

/// ∃x.f = f[0/x] ∨ f[1/x] and ∀x.f = f[0/x] ∧ f[1/x], and the
/// quantified variable leaves the support.
#[test]
fn quantification_semantics() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x2000 + seed);
        let recipe = random_recipe(&mut rng);
        let var = rng.gen_range(0..NUM_VARS);
        let mut aig = Aig::new();
        let root = build(&mut aig, &recipe);
        let table = truth_table(&aig, root);
        let t0 = cofactor_table(table, var, false);
        let t1 = cofactor_table(table, var, true);
        let ex = aig.exists(root, Var::new(var));
        let fa = aig.forall(root, Var::new(var));
        assert_eq!(truth_table(&aig, ex), t0 | t1, "seed {seed}");
        assert_eq!(truth_table(&aig, fa), t0 & t1, "seed {seed}");
        assert!(!aig.support(ex).contains(Var::new(var)), "seed {seed}");
        assert!(!aig.support(fa).contains(Var::new(var)), "seed {seed}");
    }
}

/// The one-pass cofactor pair builds the same nodes as two sequential
/// cofactors, and ∃/∀ the same as `or`/`and` of those: two managers built
/// from one recipe, one taking the fused path on every variable in turn
/// and the other the sequential one, agree on every function and on the
/// node count after each step.
#[test]
fn fused_cofactors_build_the_same_nodes_as_sequential() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xa000 + seed);
        let recipe = random_recipe(&mut rng);
        let mut fused = Aig::new();
        let f = build(&mut fused, &recipe);
        let mut sequential = Aig::new();
        let s = build(&mut sequential, &recipe);
        for var in (0..NUM_VARS).map(Var::new) {
            let (f0, f1) = fused.cofactors(f, var);
            let s0 = sequential.cofactor(s, var, false);
            let s1 = sequential.cofactor(s, var, true);
            assert_eq!(
                truth_table(&fused, f0),
                truth_table(&sequential, s0),
                "seed {seed}"
            );
            assert_eq!(
                truth_table(&fused, f1),
                truth_table(&sequential, s1),
                "seed {seed}"
            );
            assert_eq!(fused.num_nodes(), sequential.num_nodes(), "seed {seed}");

            let ex = fused.exists(f, var);
            let s_ex = sequential.or(s0, s1);
            let fa = fused.forall(f, var);
            let s_fa = sequential.and(s0, s1);
            assert_eq!(
                truth_table(&fused, ex),
                truth_table(&sequential, s_ex),
                "seed {seed}"
            );
            assert_eq!(
                truth_table(&fused, fa),
                truth_table(&sequential, s_fa),
                "seed {seed}"
            );
            assert_eq!(fused.num_nodes(), sequential.num_nodes(), "seed {seed}");
        }
        assert_invariants(&fused, &format!("seed {seed} after fused cofactors"));
    }
}

/// A random block of 1–4 distinct variables over the recipes' four and
/// two that no recipe uses.
fn random_block(rng: &mut Rng) -> Vec<Var> {
    let mut pool: Vec<Var> = (0..NUM_VARS + 2).map(Var::new).collect();
    (0..rng.gen_range(1..=Aig::MAX_BLOCK))
        .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
        .collect()
}

/// Block quantification equals one-variable `exists` or `forall` steps
/// in `vars` order, on every assignment of the support, for both
/// quantifiers and blocks of 1–4 variables (some outside the support);
/// a block that misses the support returns the root and mints no node.
#[test]
fn quantify_block_equals_one_variable_steps() {
    let (mut full_masks, mut missed) = (0, 0);
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xd000 + seed);
        let recipe = random_recipe(&mut rng);
        let mut aig = Aig::new();
        let root = build(&mut aig, &recipe);
        // The full block of the recipes' four variables fills every mask bit.
        let full: Vec<Var> = (0..NUM_VARS).rev().map(Var::new).collect();
        for vars in [random_block(&mut rng), random_block(&mut rng), full] {
            let support = aig.support(root);
            let in_support = vars.iter().filter(|&&v| support.contains(v)).count();
            full_masks += usize::from(in_support == 4);
            missed += usize::from(in_support == 0);
            for quantifier in [Quantifier::Universal, Quantifier::Existential] {
                let mut expected = root;
                for &var in &vars {
                    expected = match quantifier {
                        Quantifier::Universal => aig.forall(expected, var),
                        Quantifier::Existential => aig.exists(expected, var),
                    };
                }
                let walk = aig.walk(root);
                let before = aig.num_nodes();
                let block = aig.quantify_block(&walk, &vars, quantifier);
                let context = format!("seed {seed} {quantifier:?} {vars:?}");
                assert_eq!(
                    truth_table(&aig, block),
                    truth_table(&aig, expected),
                    "{context}"
                );
                if in_support == 0 {
                    assert_eq!(block, root, "{context}");
                    assert_eq!(aig.num_nodes(), before, "{context}: no node minted");
                }
                let block_support = aig.support(block);
                assert!(
                    vars.iter().all(|&v| !block_support.contains(v)),
                    "{context}"
                );
                assert_invariants(&aig, &context);
            }
        }
    }
    assert!(
        full_masks > 0 && missed > 0,
        "{full_masks} full, {missed} missed"
    );
}

/// Substituting a variable outside the support is the identity and adds
/// no node.
#[test]
fn substitution_outside_the_support_adds_no_node() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xb000 + seed);
        let recipe = random_recipe(&mut rng);
        let mut aig = Aig::new();
        let root = build(&mut aig, &recipe);
        let replacement = build(&mut aig, &random_recipe(&mut rng));
        let support = aig.support(root);
        let before = aig.num_nodes();
        for var in (0..NUM_VARS + 2).map(Var::new) {
            if support.contains(var) {
                continue;
            }
            assert_eq!(aig.compose(root, var, replacement), root, "seed {seed}");
            assert_eq!(aig.cofactor(root, var, false), root, "seed {seed}");
            assert_eq!(aig.cofactor(root, var, true), root, "seed {seed}");
            assert_eq!(aig.cofactors(root, var), (root, root), "seed {seed}");
            assert_eq!(aig.num_nodes(), before, "seed {seed} var {var}");
        }
    }
}

/// compose(f, x, g) equals the Shannon expansion g∧f[1/x] ∨ ¬g∧f[0/x].
#[test]
fn compose_is_shannon() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x3000 + seed);
        let f_recipe = random_recipe(&mut rng);
        let g_recipe = random_recipe(&mut rng);
        let var = rng.gen_range(0..NUM_VARS);
        let mut aig = Aig::new();
        let f = build(&mut aig, &f_recipe);
        let g = build(&mut aig, &g_recipe);
        let composed = aig.compose(f, Var::new(var), g);
        let tf = truth_table(&aig, f);
        let tg = truth_table(&aig, g);
        let t0 = cofactor_table(tf, var, false);
        let t1 = cofactor_table(tf, var, true);
        assert_eq!(
            truth_table(&aig, composed),
            (tg & t1) | (!tg & t0),
            "seed {seed}"
        );
    }
}

/// compact() preserves the function and never grows the cone.
#[test]
fn compact_preserves_function() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x4000 + seed);
        let recipe = random_recipe(&mut rng);
        let mut aig = Aig::new();
        let root = build(&mut aig, &recipe);
        let before = truth_table(&aig, root);
        let size_before = aig.walk(root).ands();
        let remapped = aig.compact(&[root]);
        assert_eq!(truth_table(&aig, remapped[0]), before, "seed {seed}");
        assert!(aig.walk(remapped[0]).ands() <= size_before, "seed {seed}");
        assert_invariants(&aig, &format!("seed {seed} after compact"));
    }
}

/// The Theorem-6 classification is semantically sound (Definition 5):
/// every syntactic unit/pure claim is confirmed by the semantic
/// cofactor oracle.
#[test]
fn unit_pure_claims_are_sound() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x6000 + seed);
        let recipe = random_recipe(&mut rng);
        let mut aig = Aig::new();
        let root = build(&mut aig, &recipe);
        let walk = aig.walk(root);
        let status = aig.unit_pure(&walk);
        assert_statuses_sound(&aig, root, &status, &format!("seed {seed}"));
    }
}

/// Every Theorem-6 claim in `status` is confirmed by the semantic
/// cofactor oracle (Definition 5).
fn assert_statuses_sound(aig: &Aig, root: AigEdge, status: &UnitPureStatus, context: &str) {
    let table = truth_table(aig, root);
    for var in 0..NUM_VARS {
        let t0 = cofactor_table(table, var, false);
        let t1 = cofactor_table(table, var, true);
        match status.status(Var::new(var)) {
            VarStatus::PositiveUnit => assert_eq!(t0, 0, "{context} var {var}"),
            VarStatus::NegativeUnit => assert_eq!(t1, 0, "{context} var {var}"),
            VarStatus::PositivePure => assert_eq!(t0 & !t1, 0, "{context} var {var}"),
            VarStatus::NegativePure => assert_eq!(t1 & !t0, 0, "{context} var {var}"),
            VarStatus::Unknown => {}
        }
    }
}

/// The cone of `root` by plain recursion over [`Aig::node`], independent
/// of the walk: the structural support of every cone node.
fn brute_force_cone(aig: &Aig, root: AigEdge) -> HashMap<u32, BTreeSet<Var>> {
    fn visit(aig: &Aig, idx: u32, supports: &mut HashMap<u32, BTreeSet<Var>>) {
        if supports.contains_key(&idx) {
            return;
        }
        let support = match aig.node(AigEdge::new(idx, false)) {
            AigNode::True => BTreeSet::new(),
            AigNode::Input(var) => BTreeSet::from([var]),
            AigNode::And(f0, f1) => {
                visit(aig, f0.node(), supports);
                visit(aig, f1.node(), supports);
                supports[&f0.node()]
                    .union(&supports[&f1.node()])
                    .copied()
                    .collect()
            }
        };
        supports.insert(idx, support);
    }
    let mut supports = HashMap::new();
    visit(aig, root.node(), &mut supports);
    supports
}

/// The walk's support, AND count and occurrence costs equal a brute-force
/// count over the cone, and its Theorem-6 statuses hold semantically.
fn assert_walk_exact(aig: &mut Aig, walk: &ConeWalk, context: &str) {
    let cone = brute_force_cone(aig, walk.root());
    let ands = cone
        .keys()
        .filter(|&&idx| matches!(aig.node(AigEdge::new(idx, false)), AigNode::And(..)))
        .count();
    assert_eq!(walk.ands(), ands, "{context}: AND count");
    let support: Vec<Var> = cone[&walk.root().node()].iter().copied().collect();
    assert_eq!(
        walk.support().iter().collect::<Vec<_>>(),
        support,
        "{context}: support"
    );
    assert_eq!(
        walk.order().len(),
        cone.len(),
        "{context}: order visits the cone once"
    );
    // Two variables outside every cone check that absent ones count 0.
    let vars: Vec<Var> = (0..NUM_VARS + 2).map(Var::new).collect();
    let expected: Vec<usize> = vars
        .iter()
        .map(|var| cone.values().filter(|s| s.contains(var)).count())
        .collect();
    assert_eq!(
        aig.occurrence_counts(walk, &vars),
        expected,
        "{context}: costs"
    );
    let status = aig.unit_pure(walk);
    assert_statuses_sound(aig, walk.root(), &status, context);
}

/// One walk yields what the separate traversals it replaced did, on a
/// fresh cone, on the same cone after `compact`, and on the walk
/// [`Aig::reduce`] derives from the compacted arena without a DFS.
#[test]
fn walk_matches_brute_force_before_and_after_compaction() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xc000 + seed);
        let recipe = random_recipe(&mut rng);
        let mut aig = Aig::new();
        let root = build(&mut aig, &recipe);
        let walk = aig.walk(root);
        assert_walk_exact(&mut aig, &walk, &format!("seed {seed} fresh"));
        let Some(&root) = aig.compact(&[root]).first() else {
            panic!("seed {seed}: compact returns one root per input root");
        };
        let walk = aig.walk(root);
        assert_walk_exact(&mut aig, &walk, &format!("seed {seed} after compact"));
        // Garbage over variables no recipe uses, so reduce compacts.
        let pads: Vec<AigEdge> = (0..100).map(|i| aig.input(Var::new(100 + i))).collect();
        for pair in pads.windows(2) {
            let _ = aig.xor(pair[0], pair[1]);
        }
        let walk = aig.reduce(root);
        assert!(
            aig.num_nodes() <= walk.order().len() + 1,
            "seed {seed}: compacted"
        );
        assert_walk_exact(&mut aig, &walk, &format!("seed {seed} after reduce"));
    }
}

/// Tseitin conversion: the CNF with the output asserted is
/// equisatisfiable with the function per input assignment.
#[test]
fn tseitin_equisatisfiable() {
    use hqs_cnf::Clause;
    use hqs_sat::reference::is_satisfiable;
    for seed in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0x8000 + seed);
        let recipe = random_recipe(&mut rng);
        let mut aig = Aig::new();
        let root = build(&mut aig, &recipe);
        let (cnf, out) = aig.to_cnf(root, NUM_VARS);
        for bits in 0u32..(1 << NUM_VARS) {
            let expected = aig.eval(root, |v| bits >> v.index() & 1 == 1);
            let mut query = cnf.clone();
            for i in 0..NUM_VARS {
                query.add_clause(Clause::unit(hqs_base::Lit::new(
                    Var::new(i),
                    bits >> i & 1 == 0,
                )));
            }
            query.add_clause(Clause::unit(out));
            assert_eq!(is_satisfiable(&query), expected, "seed {seed} bits {bits}");
        }
    }
}

/// The audit invariants hold after arbitrary interleaved sequences of
/// `and`, `compose`, `cofactor`, `exists`, `forall` and `compact`, and
/// unit/pure classification stays sound on the evolving cone — the
/// "random op sequence" audit required by the correctness-audit layer.
#[test]
fn invariants_hold_under_random_op_sequences() {
    for seed in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0x9000 + seed);
        let mut aig = Aig::new();
        let mut pool: Vec<AigEdge> = (0..NUM_VARS).map(|i| aig.input(Var::new(i))).collect();
        for step in 0..rng.gen_range(4..24usize) {
            let pick = |rng: &mut Rng, pool: &[AigEdge]| {
                pool[rng.gen_range(0..pool.len())].xor_complement(rng.gen_bool(0.5))
            };
            let var = Var::new(rng.gen_range(0..NUM_VARS));
            let fresh = match rng.gen_range(0..6u32) {
                0 | 1 => {
                    let a = pick(&mut rng, &pool);
                    let b = pick(&mut rng, &pool);
                    aig.and(a, b)
                }
                2 => {
                    let f = pick(&mut rng, &pool);
                    let g = pick(&mut rng, &pool);
                    aig.compose(f, var, g)
                }
                3 => {
                    let f = pick(&mut rng, &pool);
                    aig.cofactor(f, var, rng.gen_bool(0.5))
                }
                4 => {
                    let f = pick(&mut rng, &pool);
                    aig.exists(f, var)
                }
                _ => {
                    let f = pick(&mut rng, &pool);
                    aig.forall(f, var)
                }
            };
            // Interleaved semantic oracle: Theorem 6 claims about the new
            // cone must agree with the truth-table cofactors.
            let walk = aig.walk(fresh);
            let status = aig.unit_pure(&walk);
            assert_statuses_sound(&aig, fresh, &status, &format!("seed {seed} step {step}"));
            pool.push(fresh);
            assert_invariants(&aig, &format!("seed {seed} step {step}"));
            // Occasionally garbage-collect and continue on the survivors.
            if pool.len() > 6 && rng.gen_bool(0.15) {
                let keep: Vec<AigEdge> = pool.split_off(pool.len() - 4);
                pool = aig.compact(&keep);
                assert_invariants(&aig, &format!("seed {seed} step {step} post-compact"));
            }
        }
    }
}
