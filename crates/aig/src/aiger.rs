//! ASCII AIGER (`aag`) reading and writing.
//!
//! The AIGER format (Biere) is the standard interchange format for
//! And-Inverter Graphs in the EDA world; model checkers, synthesis tools
//! and the original aigpp/AIGSOLVE stack all speak it. This module
//! supports the combinational ASCII variant (`aag`, no latches):
//!
//! ```text
//! aag M I L O A
//! <input literal>      (I lines)
//! <output literal>     (O lines)
//! <lhs> <rhs0> <rhs1>  (A lines)
//! [symbol table, comments]
//! ```
//!
//! Literals are `2·index + complement` with literal 0 = FALSE. Variable
//! identities are preserved through the symbol table (`i<k> v<n>` lines),
//! so a round-trip keeps [`Var`] indices intact.

use crate::{Aig, AigEdge, AigNode};
use hqs_base::Var;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// Errors produced while parsing an `aag` document.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AigerError {
    /// The `aag` header line is missing or malformed.
    BadHeader,
    /// The file declares latches, which this combinational reader does not
    /// support.
    LatchesUnsupported,
    /// A line could not be parsed as the expected integers.
    BadLine {
        /// 1-based line number.
        line: usize,
    },
    /// A literal references an undefined variable or an AND is defined
    /// out of order / twice.
    BadLiteral {
        /// 1-based line number.
        line: usize,
        /// The offending literal.
        literal: u32,
    },
    /// Fewer lines than the header promises.
    UnexpectedEnd,
}

impl fmt::Display for AigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AigerError::BadHeader => write!(f, "missing or malformed `aag` header"),
            AigerError::LatchesUnsupported => {
                write!(f, "sequential AIGER (latches) is not supported")
            }
            AigerError::BadLine { line } => write!(f, "line {line}: malformed"),
            AigerError::BadLiteral { line, literal } => {
                write!(f, "line {line}: invalid literal {literal}")
            }
            AigerError::UnexpectedEnd => write!(f, "unexpected end of file"),
        }
    }
}

impl std::error::Error for AigerError {}

impl Aig {
    /// Renders the cones of `outputs` as an ASCII AIGER document.
    ///
    /// Inputs appear in ascending [`Var`] order; the symbol table records
    /// the original variable index of every input so
    /// [`Aig::parse_aag`] reconstructs identical [`Var`]s.
    #[must_use]
    pub fn write_aag(&mut self, outputs: &[AigEdge]) -> String {
        // Collect the union cone in topological order.
        let mut inputs: Vec<Var> = Vec::new();
        let mut ands: Vec<u32> = Vec::new();
        let mut seen = vec![false; self.num_nodes()];
        for &output in outputs {
            for &idx in self.walk(output).order() {
                if std::mem::replace(&mut seen[idx as usize], true) {
                    continue;
                }
                match self.node(AigEdge::new(idx, false)) {
                    AigNode::True => {}
                    AigNode::Input(v) => inputs.push(v),
                    AigNode::And(_, _) => ands.push(idx),
                }
            }
        }
        inputs.sort_unstable();
        // AIGER literal of each of our nodes.
        let mut literal: HashMap<u32, u32> = HashMap::new();
        let mut next_index = 1u32;
        for &var in &inputs {
            let idx = self.input_node_index(var).expect("input in cone");
            literal.insert(idx, 2 * next_index);
            next_index += 1;
        }
        for &idx in &ands {
            literal.insert(idx, 2 * next_index);
            next_index += 1;
        }
        let edge_lit = |edge: AigEdge| -> u32 {
            let base = if edge.node() == 0 {
                1 // TRUE node: literal 1 is ¬FALSE
            } else {
                literal[&edge.node()]
            };
            // For the constant node, complement flips 1 → 0.
            if edge.node() == 0 {
                base ^ u32::from(edge.is_complemented())
            } else {
                base | u32::from(edge.is_complemented())
            }
        };
        let mut out = String::new();
        let max_index = next_index - 1;
        let _ = writeln!(
            out,
            "aag {} {} 0 {} {}",
            max_index,
            inputs.len(),
            outputs.len(),
            ands.len()
        );
        for (k, _) in inputs.iter().enumerate() {
            let _ = writeln!(out, "{}", 2 * (k as u32 + 1));
        }
        for &output in outputs {
            let _ = writeln!(out, "{}", edge_lit(output));
        }
        for &idx in &ands {
            let AigNode::And(f0, f1) = self.node(AigEdge::new(idx, false)) else {
                unreachable!("collected AND nodes only");
            };
            let _ = writeln!(out, "{} {} {}", literal[&idx], edge_lit(f0), edge_lit(f1));
        }
        for (k, var) in inputs.iter().enumerate() {
            let _ = writeln!(out, "i{k} v{}", var.index());
        }
        out.push_str("c\ngenerated by hqs-aig\n");
        out
    }

    /// Parses an ASCII AIGER document; returns the manager and the output
    /// edges. Input symbols of the form `v<n>` restore the original
    /// variable indices; inputs without such a symbol get fresh indices
    /// after the largest symbolic one.
    ///
    /// # Errors
    ///
    /// Returns an [`AigerError`] for malformed input or sequential files.
    pub fn parse_aag(text: &str) -> Result<(Aig, Vec<AigEdge>), AigerError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or(AigerError::BadHeader)?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("aag") {
            return Err(AigerError::BadHeader);
        }
        let nums: Vec<u32> = parts
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| AigerError::BadHeader)?;
        let [_m, i, l, o, a] = nums.as_slice() else {
            return Err(AigerError::BadHeader);
        };
        if *l != 0 {
            return Err(AigerError::LatchesUnsupported);
        }
        let mut input_literals = Vec::with_capacity(*i as usize);
        for _ in 0..*i {
            let (line_no, line) = lines.next().ok_or(AigerError::UnexpectedEnd)?;
            let lit: u32 = line
                .trim()
                .parse()
                .map_err(|_| AigerError::BadLine { line: line_no + 1 })?;
            if lit < 2 || !lit.is_multiple_of(2) {
                return Err(AigerError::BadLiteral {
                    line: line_no + 1,
                    literal: lit,
                });
            }
            input_literals.push(lit);
        }
        let mut output_literals = Vec::with_capacity(*o as usize);
        for _ in 0..*o {
            let (line_no, line) = lines.next().ok_or(AigerError::UnexpectedEnd)?;
            let lit: u32 = line
                .trim()
                .parse()
                .map_err(|_| AigerError::BadLine { line: line_no + 1 })?;
            output_literals.push(lit);
        }
        let mut and_defs = Vec::with_capacity(*a as usize);
        for _ in 0..*a {
            let (line_no, line) = lines.next().ok_or(AigerError::UnexpectedEnd)?;
            let nums: Vec<u32> = line
                .split_whitespace()
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|_| AigerError::BadLine { line: line_no + 1 })?;
            let [lhs, rhs0, rhs1] = nums.as_slice() else {
                return Err(AigerError::BadLine { line: line_no + 1 });
            };
            and_defs.push((line_no + 1, *lhs, *rhs0, *rhs1));
        }
        // Symbol table: `i<k> v<n>` lines rename inputs.
        let mut symbols: HashMap<usize, u32> = HashMap::new();
        for (_, line) in lines {
            if line == "c" {
                break;
            }
            if let Some(rest) = line.strip_prefix('i') {
                let mut halves = rest.split_whitespace();
                if let (Some(k), Some(name)) = (halves.next(), halves.next()) {
                    if let (Ok(k), Some(n)) = (
                        k.parse::<usize>(),
                        name.strip_prefix('v').and_then(|s| s.parse::<u32>().ok()),
                    ) {
                        symbols.insert(k, n);
                    }
                }
            }
        }
        // Build.
        let mut aig = Aig::new();
        let mut by_literal: HashMap<u32, AigEdge> = HashMap::new();
        let max_symbol = symbols.values().copied().max().map_or(0, |m| m + 1);
        let mut fresh = max_symbol;
        for (k, &lit) in input_literals.iter().enumerate() {
            let var = match symbols.get(&k) {
                Some(&n) => Var::new(n),
                None => {
                    let v = Var::new(fresh);
                    fresh += 1;
                    v
                }
            };
            by_literal.insert(lit, aig.input(var));
        }
        let resolve = |by_literal: &HashMap<u32, AigEdge>, lit: u32, line: usize| {
            if lit < 2 {
                return Ok(AigEdge::TRUE.xor_complement(lit == 0));
            }
            by_literal
                .get(&(lit & !1))
                .map(|&e| e.xor_complement(lit & 1 == 1))
                .ok_or(AigerError::BadLiteral { line, literal: lit })
        };
        for (line, lhs, rhs0, rhs1) in and_defs {
            if lhs % 2 != 0 || by_literal.contains_key(&lhs) {
                return Err(AigerError::BadLiteral { line, literal: lhs });
            }
            let e0 = resolve(&by_literal, rhs0, line)?;
            let e1 = resolve(&by_literal, rhs1, line)?;
            let edge = aig.and(e0, e1);
            by_literal.insert(lhs, edge);
        }
        let outputs = output_literals
            .iter()
            .map(|&lit| resolve(&by_literal, lit, 0))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((aig, outputs))
    }

    /// Returns the node index of the input labelled `var`, if present.
    fn input_node_index(&self, var: Var) -> Option<u32> {
        (0..self.num_nodes() as u32).find(
            |&idx| matches!(self.node(AigEdge::new(idx, false)), AigNode::Input(v) if v == var),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_roundtrip(aig: &mut Aig, outputs: &[AigEdge], num_vars: u32) {
        let text = aig.write_aag(outputs);
        let (parsed, parsed_outputs) = Aig::parse_aag(&text).expect("own output parses");
        assert_eq!(parsed_outputs.len(), outputs.len());
        for bits in 0u32..(1 << num_vars) {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            for (k, (&orig, &back)) in outputs.iter().zip(&parsed_outputs).enumerate() {
                assert_eq!(
                    aig.eval(orig, val),
                    parsed.eval(back, val),
                    "output {k}, bits {bits:b}\n{text}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_simple_functions() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let z = aig.input(Var::new(2));
        let f = aig.mux(x, y, z);
        let g = aig.xor(f, x);
        check_roundtrip(&mut aig, &[f, g, !f], 3);
    }

    #[test]
    fn roundtrip_constants_and_inputs() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(4));
        check_roundtrip(&mut aig, &[Aig::TRUE, Aig::FALSE, x, !x], 5);
    }

    #[test]
    fn symbols_preserve_variable_identity() {
        let mut aig = Aig::new();
        let a = aig.input(Var::new(7));
        let b = aig.input(Var::new(3));
        let f = aig.and(a, b);
        let text = aig.write_aag(&[f]);
        let (mut parsed, outputs) = Aig::parse_aag(&text).unwrap();
        let support = parsed.support(outputs[0]);
        assert!(support.contains(Var::new(7)));
        assert!(support.contains(Var::new(3)));
        assert_eq!(support.len(), 2);
    }

    #[test]
    fn parses_reference_document() {
        // The classic AIGER and-gate example: o = i1 ∧ i2.
        let text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
        let (mut aig, outputs) = Aig::parse_aag(text).unwrap();
        assert_eq!(outputs.len(), 1);
        let support = aig.support(outputs[0]);
        assert_eq!(support.len(), 2);
        // No symbols: fresh vars 0, 1.
        assert!(aig.eval(outputs[0], |_| true));
        assert!(!aig.eval(outputs[0], |v| v.index() == 0));
    }

    #[test]
    fn error_cases() {
        assert_eq!(Aig::parse_aag("").unwrap_err(), AigerError::BadHeader);
        assert_eq!(
            Aig::parse_aag("aig 1 1 0 0 0\n").unwrap_err(),
            AigerError::BadHeader
        );
        assert_eq!(
            Aig::parse_aag("aag 1 0 1 0 0\n").unwrap_err(),
            AigerError::LatchesUnsupported
        );
        assert_eq!(
            Aig::parse_aag("aag 1 1 0 0 0\n").unwrap_err(),
            AigerError::UnexpectedEnd
        );
        assert_eq!(
            Aig::parse_aag("aag 1 1 0 0 0\n3\n").unwrap_err(),
            AigerError::BadLiteral {
                line: 2,
                literal: 3
            }
        );
        // AND referencing an undefined literal.
        assert!(matches!(
            Aig::parse_aag("aag 2 1 0 0 1\n2\n4 6 2\n"),
            Err(AigerError::BadLiteral { .. })
        ));
    }

    #[test]
    fn negated_output_of_constant() {
        let mut aig = Aig::new();
        let text = aig.write_aag(&[Aig::FALSE]);
        let (parsed, outputs) = Aig::parse_aag(&text).unwrap();
        assert!(!parsed.eval(outputs[0], |_| false));
    }
}
