//! Every kernel on a cone 100 000 levels deep, on a 256 KiB stack.
//!
//! The walk and the sweeps over it keep their state on the heap, in
//! proportion to the cone, so their stack use does not depend on its
//! depth. These tests live in a file of their own because a kernel that
//! recursed on the depth would overflow the thread's stack, which aborts
//! the whole test process rather than failing one test. Every result is
//! compared with a cone built directly: structural hashing gives a cone
//! built from the same `and` calls the same edge. The recursive
//! [`Aig::eval`] is not used here.

use hqs_aig::{Aig, AigEdge, VarStatus};
use hqs_base::{Lit, Var};
use hqs_cnf::Quantifier;
use std::collections::HashMap;

/// The number of AND levels of the chain.
const DEPTH: u32 = 100_000;

/// Runs `test` on a thread with a 256 KiB stack.
fn on_small_stack(test: impl FnOnce() + Send + 'static) {
    let thread = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(test)
        .expect("spawn the small-stack thread");
    if let Err(panic) = thread.join() {
        std::panic::resume_unwind(panic);
    }
}

/// The NAND chain `t_0 = leaf(x_0)`, `t_i = ¬(t_{i-1} ∧ leaf(x_i))` for
/// `i` in `1..=DEPTH`, over the inputs `x_i = Var::new(i)`: `DEPTH` AND
/// levels, none of which the simplification rules fold while every leaf
/// is an input.
fn chain(aig: &mut Aig, leaf: impl Fn(&mut Aig, Var) -> AigEdge) -> AigEdge {
    let mut t = leaf(aig, Var::new(0));
    for i in 1..=DEPTH {
        let x = leaf(aig, Var::new(i));
        t = !aig.and(t, x);
    }
    t
}

/// The chain with the inputs `map` names replaced by their images.
fn substituted(aig: &mut Aig, map: &HashMap<Var, AigEdge>) -> AigEdge {
    chain(aig, |aig, v| {
        map.get(&v).copied().unwrap_or_else(|| aig.input(v))
    })
}

/// The chain with `var` replaced by a constant.
fn with_constant(aig: &mut Aig, var: Var, value: bool) -> AigEdge {
    let constant = if value { Aig::TRUE } else { Aig::FALSE };
    substituted(aig, &HashMap::from([(var, constant)]))
}

#[test]
fn walk_and_occurrence_counts_of_a_deep_chain() {
    on_small_stack(|| {
        let mut aig = Aig::new();
        let f = chain(&mut aig, Aig::input);
        let walk = aig.walk(f);
        assert_eq!(walk.ands(), DEPTH as usize);
        assert_eq!(walk.support().len(), DEPTH as usize + 1);
        assert_eq!(walk.order().len(), 2 * DEPTH as usize + 1);
        assert_eq!(walk.order().last(), Some(&f.node()));
        // x_0 and x_1 feed the bottom AND, so every AND depends on them;
        // x_DEPTH only on the top one.
        let vars = [Var::new(0), Var::new(1), Var::new(DEPTH)];
        let all = DEPTH as usize + 1;
        assert_eq!(aig.occurrence_counts(&walk, &vars), vec![all, all, 2]);
    });
}

#[test]
fn cofactor_pair_of_a_deep_chain() {
    on_small_stack(|| {
        let mut aig = Aig::new();
        let f = chain(&mut aig, Aig::input);
        let walk = aig.walk(f);
        for var in [0, 1, DEPTH / 2, DEPTH].map(Var::new) {
            let pair = aig.cofactors(&walk, var);
            let expected = (
                with_constant(&mut aig, var, false),
                with_constant(&mut aig, var, true),
            );
            assert_eq!(pair, expected, "{var}");
        }
    });
}

#[test]
fn substitution_in_a_deep_chain() {
    on_small_stack(|| {
        let mut aig = Aig::new();
        let f = chain(&mut aig, Aig::input);
        let walk = aig.walk(f);
        // A simultaneous swap at the bottom, a complemented input in the
        // middle and a constant at the top.
        let (x0, x1, mid) = (
            aig.input(Var::new(0)),
            aig.input(Var::new(1)),
            aig.input(Var::new(7)),
        );
        let map = HashMap::from([
            (Var::new(0), x1),
            (Var::new(1), x0),
            (Var::new(DEPTH / 2), !mid),
            (Var::new(DEPTH), Aig::TRUE),
        ]);
        let composed = aig.compose_many(&walk, &map);
        assert_eq!(composed, substituted(&mut aig, &map));
        assert_ne!(composed, f);
    });
}

#[test]
fn reduce_compacts_a_deep_chain() {
    on_small_stack(|| {
        let mut aig = Aig::new();
        let f = chain(&mut aig, Aig::input);
        // Garbage: the two cofactors on x_0 and a substitution, each a
        // chain about as deep, so the arena holds more than four times
        // the live cone's ANDs.
        let walk = aig.walk(f);
        let _ = aig.cofactors(&walk, Var::new(0));
        let x2 = aig.input(Var::new(2));
        let _ = aig.compose_many(&walk, &HashMap::from([(Var::new(1), !x2)]));
        drop(walk);
        let before = aig.num_nodes();
        assert!(before > 4 * DEPTH as usize, "{before} nodes");
        let walk = aig.reduce(f);
        assert_eq!(aig.num_nodes(), 2 * DEPTH as usize + 2, "constant and cone");
        assert_eq!(walk.ands(), DEPTH as usize);
        // Building the chain again in the compacted manager finds every
        // node: the compaction kept the structure, complements and input
        // variables.
        let again = chain(&mut aig, Aig::input);
        assert_eq!(again, walk.root());
        assert_eq!(aig.num_nodes(), 2 * DEPTH as usize + 2, "no node minted");
    });
}

#[test]
fn block_quantification_of_a_deep_chain() {
    on_small_stack(|| {
        let mut aig = Aig::new();
        let f = chain(&mut aig, Aig::input);
        let walk = aig.walk(f);
        let block = [Var::new(1), Var::new(DEPTH / 2)];
        for quantifier in [Quantifier::Universal, Quantifier::Existential] {
            let got = aig.quantify_block(&walk, &block, quantifier);
            // Bit i of an assignment is the value of block[i]; the images
            // combine in pairs that differ in block[0], then block[1].
            let mut images: Vec<AigEdge> = (0..4)
                .map(|a: u32| {
                    let constant = |bit: u32| {
                        if a >> bit & 1 == 1 {
                            Aig::TRUE
                        } else {
                            Aig::FALSE
                        }
                    };
                    let map = HashMap::from([(block[0], constant(0)), (block[1], constant(1))]);
                    substituted(&mut aig, &map)
                })
                .collect();
            let combine = match quantifier {
                Quantifier::Universal => Aig::and,
                Quantifier::Existential => Aig::or,
            };
            while images.len() > 1 {
                images = images
                    .chunks(2)
                    .map(|pair| combine(&mut aig, pair[0], pair[1]))
                    .collect();
            }
            assert_eq!(got, images[0], "{quantifier:?}");
        }
    });
}

#[test]
fn unit_pure_of_a_deep_chain() {
    on_small_stack(|| {
        let mut aig = Aig::new();
        let f = chain(&mut aig, Aig::input);
        let walk = aig.walk(f);
        let status = aig.unit_pure(&walk);
        // The complemented root and every complemented chain edge flip the
        // parity: x_i sits below DEPTH - i + 1 inverters, and x_0 below as
        // many as x_1. The root's inverter is not on an input edge, so no
        // input is unit.
        let expected = |i: u32| {
            if (DEPTH - i.max(1)).is_multiple_of(2) {
                VarStatus::NegativePure
            } else {
                VarStatus::PositivePure
            }
        };
        for i in 0..=DEPTH {
            assert_eq!(status.status(Var::new(i)), expected(i), "x_{i}");
        }
    });
}

#[test]
fn tseitin_of_a_deep_chain() {
    on_small_stack(|| {
        let mut aig = Aig::new();
        let f = chain(&mut aig, Aig::input);
        let walk = aig.walk(f);
        let first_aux = DEPTH + 1;
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        let (out, num_vars) = aig.tseitin(&walk, first_aux, |lits| clauses.push(lits.to_vec()));
        assert_eq!(clauses.len(), 3 * DEPTH as usize);
        assert_eq!(num_vars, first_aux + DEPTH);
        // The walk lists the ANDs bottom-up, so t_i's gate is auxiliary
        // first_aux + i - 1; the root is the top gate, complemented.
        let gate = |i: u32| Lit::positive(Var::new(first_aux + i - 1));
        assert_eq!(out, !gate(DEPTH));
        // The top gate's three clauses: out → t_{DEPTH-1}, out → x_DEPTH,
        // and t_{DEPTH-1} ∧ x_DEPTH → out, where t_{DEPTH-1} is the
        // complement of its gate.
        let below = !gate(DEPTH - 1);
        let x_top = Lit::positive(Var::new(DEPTH));
        let top = gate(DEPTH);
        let tail = clauses.split_off(clauses.len() - 3);
        assert_eq!(
            tail,
            vec![
                vec![!top, below],
                vec![!top, x_top],
                vec![top, !below, !x_top]
            ]
        );
    });
}
