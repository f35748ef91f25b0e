//! Graphviz DOT export for debugging and documentation.
//!
//! Renders an AIG cone in the visual convention of the paper's Fig. 1:
//! AND gates as circles, inputs as boxes, inverters as filled dots on the
//! edges (here: dashed edges).

use crate::{Aig, AigEdge, AigNode};
use std::fmt::Write as _;

impl Aig {
    /// Renders the cones of `outputs` as a Graphviz `digraph`.
    ///
    /// Complemented edges are dashed and labelled `¬`; output arrows come
    /// from a synthetic `out<k>` node each.
    #[must_use]
    pub fn to_dot(&mut self, outputs: &[AigEdge]) -> String {
        let mut out = String::from("digraph aig {\n  rankdir=BT;\n");
        let mut seen = vec![false; self.num_nodes()];
        for &output in outputs {
            for &idx in self.walk(output).order() {
                if std::mem::replace(&mut seen[idx as usize], true) {
                    continue;
                }
                match self.node(AigEdge::new(idx, false)) {
                    AigNode::True => {
                        let _ = writeln!(out, "  n{idx} [shape=box,label=\"1\"];");
                    }
                    AigNode::Input(v) => {
                        let _ = writeln!(out, "  n{idx} [shape=box,label=\"{v}\"];");
                    }
                    AigNode::And(f0, f1) => {
                        let _ = writeln!(out, "  n{idx} [shape=circle,label=\"∧\"];");
                        for fanin in [f0, f1] {
                            let style = if fanin.is_complemented() {
                                " [style=dashed,label=\"¬\"]"
                            } else {
                                ""
                            };
                            let _ = writeln!(out, "  n{} -> n{idx}{style};", fanin.node());
                        }
                    }
                }
            }
        }
        for (k, output) in outputs.iter().enumerate() {
            let _ = writeln!(out, "  out{k} [shape=plaintext,label=\"f{k}\"];");
            let style = if output.is_complemented() {
                " [style=dashed,label=\"¬\"]"
            } else {
                ""
            };
            let _ = writeln!(out, "  n{} -> out{k}{style};", output.node());
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqs_base::Var;

    #[test]
    fn dot_contains_all_cone_nodes_and_edges() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let f = aig.and(x, !y);
        let dot = aig.to_dot(&[!f]);
        assert!(dot.starts_with("digraph aig {"));
        assert!(dot.contains("shape=box,label=\"v0\""));
        assert!(dot.contains("shape=box,label=\"v1\""));
        assert!(dot.contains("shape=circle"));
        // Two dashed edges: ¬y fanin and the complemented output.
        assert_eq!(dot.matches("style=dashed").count(), 2);
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn constant_output() {
        let mut aig = Aig::new();
        let dot = aig.to_dot(&[Aig::FALSE]);
        assert!(dot.contains("label=\"1\""));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn shared_nodes_emitted_once() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let f = aig.and(x, y);
        let g = aig.or(f, x);
        let dot = aig.to_dot(&[f, g]);
        assert_eq!(dot.matches("label=\"v0\"").count(), 1);
    }
}
