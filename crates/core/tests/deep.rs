//! The elimination steps on a matrix 50 000 XOR levels deep, on a 256 KiB
//! stack: Theorem 1, Theorem 2, one unit/pure batch and the compaction in
//! `reduce` all rebuild the matrix by sweeps over a walk, so none of them
//! recurses on its depth. A file of its own, because a stack overflow
//! aborts the whole test process. Results are compared with matrices
//! built directly in the same manager, never with the recursive
//! `Aig::eval`.

use hqs_aig::{Aig, AigEdge, UnitPureBatch};
use hqs_base::{Var, VarSet};
use hqs_core::elim::AigDqbf;

/// The number of AND levels of the matrix.
const DEPTH: u32 = 50_000;

/// The universal `x`.
fn x_var() -> Var {
    Var::new(0)
}

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

/// The existentials `a_i`, variables `first + i` for `i` in `1..=DEPTH`.
fn existential(first: u32, i: u32) -> Var {
    Var::new(first + i)
}

/// The existential `y`, below the `a_i`.
fn y_var() -> Var {
    Var::new(1)
}

/// The existential `p`, above the `a_i` and their copies' numbers.
fn p_var() -> Var {
    Var::new(DEPTH + 2)
}

/// The XOR chain `t = bottom ⊕ a_1 ⊕ … ⊕ a_DEPTH`, nested from the
/// bottom, over the `a_i` numbered from `first`. Every variable in it has
/// paths of both parities, so Theorem 6 classifies none of them.
fn chain(aig: &mut Aig, bottom: AigEdge, first: u32) -> AigEdge {
    let mut t = bottom;
    for i in 1..=DEPTH {
        let a = aig.input(existential(first, i));
        t = aig.xor(t, a);
    }
    t
}

/// `p ∧ (x ↔ t)`, the matrix of both tests, with the edge `x` for `x`.
fn matrix(aig: &mut Aig, x: AigEdge, t: AigEdge) -> AigEdge {
    let p = aig.input(p_var());
    let both = aig.and(x, t);
    let neither = aig.and(!x, !t);
    let iff = aig.or(both, neither);
    aig.and(p, iff)
}

/// `∀x ∃y(x) ∃a_1(D) … ∃a_DEPTH(D) ∃p(∅): p ∧ (x ↔ y ⊕ a_1 ⊕ … ⊕
/// a_DEPTH)`, where `D` is `{x}` when `a_depends_on_x` and empty
/// otherwise.
fn state(a_depends_on_x: bool) -> AigDqbf {
    let mut aig = Aig::new();
    let (x, y) = (aig.input(x_var()), aig.input(y_var()));
    let t = chain(&mut aig, y, 1);
    let root = matrix(&mut aig, x, t);
    let on_x: VarSet = [x_var()].into_iter().collect();
    let a_deps = if a_depends_on_x {
        on_x.clone()
    } else {
        VarSet::new()
    };
    let existentials = std::iter::once((y_var(), on_x))
        .chain((1..=DEPTH).map(|i| (existential(1, i), a_deps.clone())))
        .chain(std::iter::once((p_var(), VarSet::new())))
        .collect();
    AigDqbf::from_parts(aig, root, vec![x_var()], existentials, DEPTH + 3)
}

/// Theorem 1 on `x`, then `reduce` with a compaction, then one unit/pure
/// batch.
#[test]
fn theorem_1_reduce_and_unit_pure_on_a_deep_matrix() {
    on_small_stack(|| {
        let mut state = state(true);
        state.eliminate_universal(x_var());
        // φ[0/x] ∧ φ[1/x][y'/y, a'_i/a_i]: y and every a_i get a copy,
        // numbered from DEPTH + 3 in prefix order; p depends on no
        // universal and keeps its name.
        let first_copy = DEPTH + 3;
        assert!(state.universals().is_empty());
        assert_eq!(state.existentials().len(), 2 * (DEPTH as usize + 1) + 1);
        let expected = |aig: &mut Aig, p_value: Option<bool>| {
            let (y, y_copy) = (aig.input(y_var()), aig.input(Var::new(first_copy)));
            let t = chain(aig, y, 1);
            let t_copy = chain(aig, y_copy, first_copy);
            let cof0 = matrix(aig, Aig::FALSE, t);
            let cof1 = matrix(aig, Aig::TRUE, t_copy);
            match p_value {
                None => aig.and(cof0, cof1),
                // With p := 1 the matrix is ¬t ∧ t'.
                Some(_) => aig.and(!t, t_copy),
            }
        };
        let root = expected(&mut state.aig, None);
        assert_eq!(state.root(), root);

        // Garbage over unused variables, so that reduce compacts.
        let mut pad = Aig::TRUE;
        for i in 0..12 * DEPTH {
            let v = state.aig.input(Var::new(10 * DEPTH + i));
            pad = !state.aig.and(pad, v);
        }
        let cone = state.aig.walk(state.root());
        let (ands, cone_nodes) = (cone.ands(), cone.order().len());
        drop(cone);
        assert!(state.aig.num_nodes() > 4 * ands);
        state.reduce();
        assert_eq!(state.aig.num_nodes(), cone_nodes + 1, "constant and cone");
        let nodes = state.aig.num_nodes();
        assert_eq!(expected(&mut state.aig, None), state.root());
        assert_eq!(
            state.aig.num_nodes(),
            nodes,
            "the compaction kept the matrix"
        );

        // p is positive unit and nothing else is classified: the batch
        // assigns p := 1 and rebuilds the whole matrix.
        let batch = state.apply_unit_pure();
        assert_eq!(batch, UnitPureBatch::Assign(vec![(p_var(), true)]));
        assert_eq!(state.root(), expected(&mut state.aig, Some(true)));
    });
}

/// Theorem 2 on `y`, the one existential that depends on every universal:
/// `φ[0/y] ∨ φ[1/y]`.
#[test]
fn theorem_2_on_a_deep_matrix() {
    on_small_stack(|| {
        let mut state = state(false);
        assert!(state.eliminate_one_total_existential());
        assert_eq!(state.existentials().len(), DEPTH as usize + 1);
        let x = state.aig.input(x_var());
        let t0 = chain(&mut state.aig, Aig::FALSE, 1);
        let t1 = chain(&mut state.aig, Aig::TRUE, 1);
        let cof0 = matrix(&mut state.aig, x, t0);
        let cof1 = matrix(&mut state.aig, x, t1);
        let expected = state.aig.or(cof0, cof1);
        assert_eq!(state.root(), expected);
        // No existential left depends on x.
        assert!(!state.eliminate_one_total_existential());
    });
}
