//! Building the matrix AIG and composing detected gates
//! (Section III-C: "we replace all literals representing a gate output by
//! the function computed by its gate using the compose operation").

use crate::preprocess::{Gate, GateKind};
use crate::Dqbf;
use hqs_aig::{Aig, AigEdge};
use hqs_base::Var;
use std::collections::HashMap;

/// Builds the AIG of `dqbf`'s matrix and composes the extracted `gates`
/// away: every occurrence of a gate-output variable is replaced by the
/// gate's function over primary (non-gate) variables.
///
/// `gates` must be in topological order, inputs before outputs — exactly
/// what [`crate::preprocess::preprocess`] returns. The gate-output
/// variables disappear from the support of the returned edge.
#[must_use]
pub fn build_aig(dqbf: &Dqbf, gates: &[Gate]) -> (Aig, AigEdge) {
    let mut aig = Aig::new();
    let root = aig.from_cnf(dqbf.matrix());
    if gates.is_empty() {
        return (aig, root);
    }
    // Resolve every gate to a function over primary variables, walking the
    // (topologically sorted) gate list inputs-first.
    let mut functions: HashMap<Var, AigEdge> = HashMap::new();
    for gate in gates {
        let input_edges: Vec<AigEdge> = gate
            .inputs
            .iter()
            .map(|&lit| {
                let base = functions
                    .get(&lit.var())
                    .copied()
                    .unwrap_or_else(|| aig.input(lit.var()));
                base.xor_complement(lit.is_negative())
            })
            .collect();
        let gate_fn = match gate.kind {
            GateKind::And => aig.and_many(&input_edges),
            GateKind::Xor => {
                debug_assert_eq!(input_edges.len(), 2);
                aig.xor(input_edges[0], input_edges[1])
            }
        };
        // `output ≡ gate_fn` where output may be a negative literal:
        // var(output) ≡ gate_fn ⊕ sign.
        functions.insert(
            gate.output.var(),
            gate_fn.xor_complement(gate.output.is_negative()),
        );
    }
    let walk = aig.walk(root);
    let root = aig.compose_many(&walk, &functions);
    (aig, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqs_base::Lit;

    #[test]
    fn gateless_build_matches_cnf() {
        let mut d = Dqbf::new();
        let x = d.add_universal();
        let y = d.add_existential([x]);
        d.add_clause([Lit::positive(x), Lit::negative(y)]);
        let (mut aig, root) = build_aig(&d, &[]);
        assert!(aig.support(root).contains(x));
        assert!(aig.support(root).contains(y));
    }

    #[test]
    fn composed_gate_output_leaves_support() {
        // Matrix uses t; gate t ≡ x ∧ y.
        let mut d = Dqbf::new();
        let x = d.add_universal();
        let y = d.add_existential([x]);
        let t = Var::new(2);
        d.add_clause([Lit::positive(t), Lit::positive(y)]);
        let gates = vec![Gate {
            output: Lit::positive(t),
            inputs: vec![Lit::positive(x), Lit::positive(y)],
            kind: GateKind::And,
        }];
        let (mut aig, root) = build_aig(&d, &gates);
        let support = aig.support(root);
        assert!(!support.contains(t), "gate output composed away");
        // (x∧y) ∨ y ≡ y.
        for bits in 0u32..4 {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            assert_eq!(aig.eval(root, val), val(y));
        }
    }

    #[test]
    fn chained_gates_resolve_to_primaries() {
        // t1 ≡ x ∧ y; t2 ≡ t1 ⊕ x; matrix = (t2).
        let mut d = Dqbf::new();
        let x = d.add_universal();
        let y = d.add_existential([x]);
        let t1 = Var::new(2);
        let t2 = Var::new(3);
        d.add_clause([Lit::positive(t2)]);
        let gates = vec![
            Gate {
                output: Lit::positive(t1),
                inputs: vec![Lit::positive(x), Lit::positive(y)],
                kind: GateKind::And,
            },
            Gate {
                output: Lit::positive(t2),
                inputs: vec![Lit::positive(t1), Lit::positive(x)],
                kind: GateKind::Xor,
            },
        ];
        let (mut aig, root) = build_aig(&d, &gates);
        let support = aig.support(root);
        assert!(!support.contains(t1) && !support.contains(t2));
        // t2 = (x∧y) ⊕ x = x∧¬y.
        for bits in 0u32..4 {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            assert_eq!(aig.eval(root, val), val(x) && !val(y));
        }
    }

    #[test]
    fn negated_gate_output_literal() {
        // Gate "¬t ≡ x ∧ y" i.e. t ≡ ¬(x∧y); matrix = (t).
        let mut d = Dqbf::new();
        let x = d.add_universal();
        let y = d.add_existential([x]);
        let t = Var::new(2);
        d.add_clause([Lit::positive(t)]);
        let gates = vec![Gate {
            output: Lit::negative(t),
            inputs: vec![Lit::positive(x), Lit::positive(y)],
            kind: GateKind::And,
        }];
        let (aig, root) = build_aig(&d, &gates);
        for bits in 0u32..4 {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            assert_eq!(aig.eval(root, val), !(val(x) && val(y)));
        }
    }
}
