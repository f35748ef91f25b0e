//! 64-bit parallel random simulation.
//!
//! Each input variable is assigned a 64-bit pattern word; one sweep then
//! evaluates every node of a cone on 64 input vectors at once. Signatures
//! are the cheap necessary condition for functional equivalence used by the
//! SAT sweeper ([`Aig::fraig`](crate::Aig::fraig)).

use crate::{Aig, AigEdge, AigNode};
use hqs_base::Rng;
use hqs_base::Var;
use std::collections::HashMap;

impl Aig {
    /// Simulates the cone of `root` on the given input patterns.
    ///
    /// `patterns` maps each input variable to a 64-bit word; missing
    /// variables default to all-zero. Returns the signature of `root`
    /// (bit `i` is the value of the function on input vector `i`).
    #[must_use]
    pub fn simulate(&mut self, root: AigEdge, patterns: &HashMap<Var, u64>) -> u64 {
        let walk = self.walk(root);
        let mut signatures: HashMap<u32, u64> = HashMap::with_capacity(walk.order().len());
        for &idx in walk.order() {
            let signature = match self.node(AigEdge::new(idx, false)) {
                AigNode::True => u64::MAX,
                AigNode::Input(var) => patterns.get(&var).copied().unwrap_or(0),
                AigNode::And(f0, f1) => {
                    let s0 = signatures[&f0.node()] ^ complement_mask(f0);
                    let s1 = signatures[&f1.node()] ^ complement_mask(f1);
                    s0 & s1
                }
            };
            signatures.insert(idx, signature);
        }
        signatures[&root.node()] ^ complement_mask(root)
    }

    /// Simulates every node of the cone of `root` on random patterns and
    /// returns per-node signatures (uncomplemented node functions).
    ///
    /// The returned map is keyed by node index. Deterministic in `seed`.
    #[must_use]
    pub fn simulate_random(&mut self, root: AigEdge, seed: u64) -> HashMap<u32, u64> {
        let mut rng = Rng::seed_from_u64(seed);
        let walk = self.walk(root);
        let mut signatures: HashMap<u32, u64> = HashMap::with_capacity(walk.order().len());
        for &idx in walk.order() {
            let signature = match self.node(AigEdge::new(idx, false)) {
                AigNode::True => u64::MAX,
                AigNode::Input(_) => rng.next_u64(),
                AigNode::And(f0, f1) => {
                    let s0 = signatures[&f0.node()] ^ complement_mask(f0);
                    let s1 = signatures[&f1.node()] ^ complement_mask(f1);
                    s0 & s1
                }
            };
            signatures.insert(idx, signature);
        }
        signatures
    }
}

#[inline]
fn complement_mask(edge: AigEdge) -> u64 {
    if edge.is_complemented() {
        u64::MAX
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_matches_eval_bitwise() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let z = aig.input(Var::new(2));
        let f = aig.mux(x, y, z);
        let g = aig.xor(f, z);
        // Exhaustive 8 patterns in the low bits.
        let mut patterns = HashMap::new();
        for (i, var) in [Var::new(0), Var::new(1), Var::new(2)].iter().enumerate() {
            let mut word = 0u64;
            for bits in 0u64..8 {
                if bits >> i & 1 == 1 {
                    word |= 1 << bits;
                }
            }
            patterns.insert(*var, word);
        }
        let signature = aig.simulate(g, &patterns);
        for bits in 0u64..8 {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            let expected = aig.eval(g, val);
            assert_eq!(signature >> bits & 1 == 1, expected, "pattern {bits:03b}");
        }
    }

    #[test]
    fn constant_signatures() {
        let mut aig = Aig::new();
        assert_eq!(aig.simulate(Aig::TRUE, &HashMap::new()), u64::MAX);
        assert_eq!(aig.simulate(Aig::FALSE, &HashMap::new()), 0);
    }

    #[test]
    fn random_simulation_is_deterministic() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        let f = aig.or(x, y);
        let s1 = aig.simulate_random(f, 42);
        let s2 = aig.simulate_random(f, 42);
        assert_eq!(s1, s2);
    }

    #[test]
    fn equivalent_nodes_share_signatures() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        // Build or(x,y) twice with different structure so hashing cannot
        // collapse them: or(x,y) and ¬(¬y∧¬x) hash identically after operand
        // normalisation, so vary: mux(x, TRUE, y) = x ∨ y.
        let f = aig.or(x, y);
        let g = aig.mux(x, Aig::TRUE, y);
        let root = aig.and(f, g); // keep both cones alive
        let sigs = aig.simulate_random(root, 7);
        let sf = sigs[&f.node()] ^ complement_mask(f);
        let sg = sigs[&g.node()] ^ complement_mask(g);
        assert_eq!(sf, sg);
    }
}
