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

/// The cofactor pair matches the truth-table cofactors of `eval`.
#[test]
fn cofactor_semantics() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x1000 + seed);
        let recipe = random_recipe(&mut rng);
        let var = rng.gen_range(0..NUM_VARS);
        let mut aig = Aig::new();
        let root = build(&mut aig, &recipe);
        let before = truth_table(&aig, root);
        let walk = aig.walk(root);
        let (f0, f1) = aig.cofactors(&walk, Var::new(var));
        assert_eq!(
            truth_table(&aig, f0),
            cofactor_table(before, var, false),
            "seed {seed}"
        );
        assert_eq!(
            truth_table(&aig, f1),
            cofactor_table(before, var, true),
            "seed {seed}"
        );
    }
}

/// ∃x.f = f[0/x] ∨ f[1/x] and ∀x.f = f[0/x] ∧ f[1/x], whether built as a
/// one-variable block or from the cofactor pair, and the quantified
/// variable leaves the support.
#[test]
fn quantification_semantics() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x2000 + seed);
        let recipe = random_recipe(&mut rng);
        let var = Var::new(rng.gen_range(0..NUM_VARS));
        let mut aig = Aig::new();
        let root = build(&mut aig, &recipe);
        let table = truth_table(&aig, root);
        let t0 = cofactor_table(table, var.index(), false);
        let t1 = cofactor_table(table, var.index(), true);
        let walk = aig.walk(root);
        let ex = aig.quantify_block(&walk, &[var], Quantifier::Existential);
        let fa = aig.quantify_block(&walk, &[var], Quantifier::Universal);
        let (f0, f1) = aig.cofactors(&walk, var);
        let (ex_pair, fa_pair) = (aig.or(f0, f1), aig.and(f0, f1));
        for (edge, expected) in [
            (ex, t0 | t1),
            (ex_pair, t0 | t1),
            (fa, t0 & t1),
            (fa_pair, t0 & t1),
        ] {
            assert_eq!(truth_table(&aig, edge), expected, "seed {seed}");
            assert!(!aig.support(edge).contains(var), "seed {seed}");
        }
    }
}

/// The cofactor pair on every variable in turn, on one manager whose memo
/// carries the earlier sweeps' images, matches `eval`'s cofactors; a
/// second sweep on the same variable returns the same edges and mints no
/// node.
#[test]
fn cofactor_pair_matches_eval_on_every_variable() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xa000 + seed);
        let recipe = random_recipe(&mut rng);
        let mut aig = Aig::new();
        let root = build(&mut aig, &recipe);
        let table = truth_table(&aig, root);
        let walk = aig.walk(root);
        for var in 0..NUM_VARS {
            let pair = aig.cofactors(&walk, Var::new(var));
            let context = format!("seed {seed} var {var}");
            assert_eq!(
                truth_table(&aig, pair.0),
                cofactor_table(table, var, false),
                "{context}"
            );
            assert_eq!(
                truth_table(&aig, pair.1),
                cofactor_table(table, var, true),
                "{context}"
            );
            let nodes = aig.num_nodes();
            assert_eq!(aig.cofactors(&walk, Var::new(var)), pair, "{context}");
            assert_eq!(aig.num_nodes(), nodes, "{context}: no node minted");
        }
        assert_invariants(&aig, &format!("seed {seed} after the cofactor pairs"));
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

/// `∀vars. f` or `∃vars. f` by brute force: at each assignment of the
/// recipe variables, the AND or OR of `eval` of the root over the 2^k
/// assignments of the block.
fn block_table(aig: &Aig, root: AigEdge, vars: &[Var], quantifier: Quantifier) -> u16 {
    let mut table = 0u16;
    for bits in 0u32..(1 << NUM_VARS) {
        let mut values = (0u32..1 << vars.len()).map(|block| {
            aig.eval(root, |v| match vars.iter().position(|&b| b == v) {
                Some(i) => block >> i & 1 == 1,
                None => bits >> v.index() & 1 == 1,
            })
        });
        let value = match quantifier {
            Quantifier::Universal => values.all(|b| b),
            Quantifier::Existential => values.any(|b| b),
        };
        if value {
            table |= 1 << bits;
        }
    }
    table
}

/// Block quantification equals the brute-force `eval` of the root over
/// the block's assignments, on every assignment of the support, for both
/// quantifiers and blocks of 1–4 variables (some outside the support); a
/// block that misses the support returns the root and mints no node.
#[test]
fn quantify_block_matches_eval() {
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
                let walk = aig.walk(root);
                let before = aig.num_nodes();
                let block = aig.quantify_block(&walk, &vars, quantifier);
                let context = format!("seed {seed} {quantifier:?} {vars:?}");
                assert_eq!(
                    truth_table(&aig, block),
                    block_table(&aig, root, &vars, quantifier),
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

/// Substituting, cofactoring or quantifying a variable outside the
/// support is the identity and adds no node.
#[test]
fn substitution_outside_the_support_adds_no_node() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xb000 + seed);
        let recipe = random_recipe(&mut rng);
        let mut aig = Aig::new();
        let root = build(&mut aig, &recipe);
        let replacement = build(&mut aig, &random_recipe(&mut rng));
        let walk = aig.walk(root);
        let before = aig.num_nodes();
        for var in (0..NUM_VARS + 2).map(Var::new) {
            if walk.support().contains(var) {
                continue;
            }
            let map = HashMap::from([(var, replacement)]);
            assert_eq!(aig.compose_many(&walk, &map), root, "seed {seed}");
            assert_eq!(aig.cofactors(&walk, var), (root, root), "seed {seed}");
            for quantifier in [Quantifier::Universal, Quantifier::Existential] {
                let block = aig.quantify_block(&walk, &[var], quantifier);
                assert_eq!(block, root, "seed {seed}");
            }
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
        let walk = aig.walk(f);
        let composed = aig.compose_many(&walk, &HashMap::from([(Var::new(var), g)]));
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

/// A simultaneous substitution of up to three variables, by functions
/// that may mention substituted variables, equals `eval` of the root
/// with each substituted variable valued by `eval` of its image.
#[test]
fn compose_many_matches_eval() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xe000 + seed);
        let recipe = random_recipe(&mut rng);
        let mut aig = Aig::new();
        let root = build(&mut aig, &recipe);
        let mut map = HashMap::new();
        for _ in 0..rng.gen_range(1..=3usize) {
            let image = build(&mut aig, &random_recipe(&mut rng));
            map.insert(Var::new(rng.gen_range(0..NUM_VARS)), image);
        }
        let walk = aig.walk(root);
        let composed = aig.compose_many(&walk, &map);
        for bits in 0u32..(1 << NUM_VARS) {
            let value = |v: Var| bits >> v.index() & 1 == 1;
            let expected = aig.eval(root, |v| match map.get(&v) {
                Some(&image) => aig.eval(image, value),
                None => value(v),
            });
            assert_eq!(
                aig.eval(composed, value),
                expected,
                "seed {seed} bits {bits}"
            );
        }
        assert_invariants(&aig, &format!("seed {seed} after compose_many"));
    }
}

/// Fills the arena with garbage over variables no recipe uses, so that
/// the next [`Aig::reduce`] of a recipe's cone compacts.
fn pad_with_garbage(aig: &mut Aig) {
    let pads: Vec<AigEdge> = (0..100).map(|i| aig.input(Var::new(100 + i))).collect();
    for pair in pads.windows(2) {
        let _ = aig.xor(pair[0], pair[1]);
    }
}

/// The compaction in reduce preserves the function, keeps exactly the
/// cone and leaves a sound manager.
#[test]
fn compact_preserves_function() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x4000 + seed);
        let recipe = random_recipe(&mut rng);
        let mut aig = Aig::new();
        let root = build(&mut aig, &recipe);
        let before = truth_table(&aig, root);
        let ands = aig.walk(root).ands();
        pad_with_garbage(&mut aig);
        let walk = aig.reduce(root);
        assert_eq!(truth_table(&aig, walk.root()), before, "seed {seed}");
        assert_eq!(walk.ands(), ands, "seed {seed}");
        assert!(
            aig.num_nodes() <= walk.order().len() + 1,
            "seed {seed}: compacted"
        );
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
/// fresh cone and on the walk [`Aig::reduce`] returns after compacting
/// the arena to that cone.
#[test]
fn walk_matches_brute_force_before_and_after_compaction() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xc000 + seed);
        let recipe = random_recipe(&mut rng);
        let mut aig = Aig::new();
        let root = build(&mut aig, &recipe);
        let walk = aig.walk(root);
        assert_walk_exact(&mut aig, &walk, &format!("seed {seed} fresh"));
        pad_with_garbage(&mut aig);
        let walk = aig.reduce(root);
        assert!(
            aig.num_nodes() <= walk.order().len() + 1,
            "seed {seed}: compacted"
        );
        assert_walk_exact(&mut aig, &walk, &format!("seed {seed} after reduce"));
    }
}

/// The nodes reachable from `root`, from a worklist over a set.
fn reachable(aig: &Aig, root: AigEdge) -> BTreeSet<u32> {
    let mut seen = BTreeSet::new();
    let mut todo = vec![root.node()];
    while let Some(idx) = todo.pop() {
        if seen.insert(idx) {
            if let AigNode::And(f0, f1) = aig.node(AigEdge::new(idx, false)) {
                todo.extend([f0.node(), f1.node()]);
            }
        }
    }
    seen
}

/// The walk's order is strictly ascending, lists every fanin of a listed
/// AND node, and is exactly the set of nodes reachable from the root.
fn assert_order_is_the_ascending_cone(aig: &mut Aig, root: AigEdge, context: &str) {
    let walk = aig.walk(root);
    let order = walk.order();
    assert!(
        order.windows(2).all(|pair| pair[0] < pair[1]),
        "{context}: strictly ascending {order:?}"
    );
    for &idx in order {
        if let AigNode::And(f0, f1) = aig.node(AigEdge::new(idx, false)) {
            assert!(
                order.binary_search(&f0.node()).is_ok() && order.binary_search(&f1.node()).is_ok(),
                "{context}: node {idx}'s fanins are listed"
            );
        }
    }
    let cone: Vec<u32> = reachable(aig, root).into_iter().collect();
    assert_eq!(order, cone.as_slice(), "{context}: the reachable set");
}

/// A random edge of the arena: any node, either sign.
fn random_root(aig: &Aig, rng: &mut Rng) -> AigEdge {
    let nodes = u32::try_from(aig.num_nodes()).expect("small arena");
    AigEdge::new(rng.gen_range(0..nodes), rng.gen_bool(0.5))
}

/// On random arenas and random roots, garbage above and below the root
/// included, the walk lists the cone in ascending node index; so does
/// every walk after a compacting [`Aig::reduce`], which mints the cone in
/// that order.
#[test]
fn walk_order_is_the_ascending_reachable_set() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xf000 + seed);
        let mut aig = Aig::new();
        let root = build(&mut aig, &random_recipe(&mut rng));
        let _ = build(&mut aig, &random_recipe(&mut rng));
        for probe in 0..4 {
            let edge = random_root(&aig, &mut rng);
            assert_order_is_the_ascending_cone(
                &mut aig,
                edge,
                &format!("seed {seed} root {probe}"),
            );
        }
        pad_with_garbage(&mut aig);
        let before = aig.num_nodes();
        let walk = aig.reduce(root);
        assert!(aig.num_nodes() < before, "seed {seed}: compacted");
        let context = format!("seed {seed} after reduce");
        assert_order_is_the_ascending_cone(&mut aig, walk.root(), &context);
        let cone: Vec<u32> = reachable(&aig, walk.root()).into_iter().collect();
        assert_eq!(walk.order(), cone.as_slice(), "{context}: reduce's walk");
        for probe in 0..4 {
            let edge = random_root(&aig, &mut rng);
            assert_order_is_the_ascending_cone(&mut aig, edge, &format!("{context} root {probe}"));
        }
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
/// `and`, `compose_many`, `cofactors`, `quantify_block` and the
/// compaction in `reduce`, and unit/pure classification stays sound on
/// the evolving cone — the "random op sequence" audit required by the
/// correctness-audit layer.
#[test]
fn invariants_hold_under_random_op_sequences() {
    for seed in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0x9000 + seed);
        let mut aig = Aig::new();
        let inputs = |aig: &mut Aig| -> Vec<AigEdge> {
            (0..NUM_VARS).map(|i| aig.input(Var::new(i))).collect()
        };
        let mut pool = inputs(&mut aig);
        for step in 0..rng.gen_range(4..24usize) {
            let pick = |rng: &mut Rng, pool: &[AigEdge]| {
                pool[rng.gen_range(0..pool.len())].xor_complement(rng.gen_bool(0.5))
            };
            let var = Var::new(rng.gen_range(0..NUM_VARS));
            let f = pick(&mut rng, &pool);
            let walk = aig.walk(f);
            let fresh = match rng.gen_range(0..6u32) {
                0 | 1 => {
                    let b = pick(&mut rng, &pool);
                    aig.and(f, b)
                }
                2 => {
                    let g = pick(&mut rng, &pool);
                    aig.compose_many(&walk, &HashMap::from([(var, g)]))
                }
                3 => {
                    let (f0, f1) = aig.cofactors(&walk, var);
                    if rng.gen_bool(0.5) {
                        f1
                    } else {
                        f0
                    }
                }
                4 => aig.quantify_block(&walk, &[var], Quantifier::Existential),
                _ => aig.quantify_block(&walk, &[var], Quantifier::Universal),
            };
            // Interleaved semantic oracle: Theorem 6 claims about the new
            // cone must agree with the truth-table cofactors.
            let walk = aig.walk(fresh);
            let status = aig.unit_pure(&walk);
            assert_statuses_sound(&aig, fresh, &status, &format!("seed {seed} step {step}"));
            pool.push(fresh);
            assert_invariants(&aig, &format!("seed {seed} step {step}"));
            // Occasionally garbage-collect and continue on the survivor.
            if pool.len() > 6 && rng.gen_bool(0.15) {
                let table = truth_table(&aig, fresh);
                pad_with_garbage(&mut aig);
                let survivor = aig.reduce(fresh).root();
                assert_eq!(
                    truth_table(&aig, survivor),
                    table,
                    "seed {seed} step {step}"
                );
                assert_invariants(&aig, &format!("seed {seed} step {step} post-compact"));
                pool = inputs(&mut aig);
                pool.push(survivor);
            }
        }
    }
}
