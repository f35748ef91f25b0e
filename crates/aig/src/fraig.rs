//! SAT-sweeping functional reduction (FRAIG-style).
//!
//! A FRAIG (functionally reduced AIG, Mishchenko et al.) keeps at most one
//! node per Boolean function (up to complement). HQS converts AIGs to
//! FRAIGs "from time to time" to keep the matrix small across
//! eliminations. [`Aig::fraig`] rebuilds a cone bottom-up, groups nodes by
//! random-simulation signature, and proves candidate equivalences with the
//! CDCL solver; proven-equivalent nodes are merged.

use crate::{Aig, AigEdge, AigNode};
use hqs_base::Rng;
use hqs_base::Var;
use hqs_obs::Metric;
use std::collections::HashMap;

/// Maximum number of same-signature candidates to try proving against
/// before giving up on a node (guards against quadratic blowup on long
/// signature-collision chains).
const MAX_CANDIDATES: usize = 4;

impl Aig {
    /// Functionally reduces the cone of `root`, returning an equivalent
    /// (often smaller) edge.
    ///
    /// `seed` drives the simulation patterns; `conflict_budget` bounds each
    /// equivalence SAT query (queries that exceed it are conservatively
    /// treated as "not equivalent", which preserves soundness).
    pub fn fraig(&mut self, root: AigEdge, seed: u64, conflict_budget: u64) -> AigEdge {
        self.obs.add(Metric::FraigSweeps, 1);
        let walk = self.walk(root);
        let mut rng = Rng::seed_from_u64(seed);
        let mut patterns: HashMap<Var, u64> = HashMap::new();
        for &idx in walk.order() {
            if let AigNode::Input(var) = self.node(AigEdge::new(idx, false)) {
                patterns.insert(var, rng.next_u64());
            }
        }
        let first_aux = walk.support().iter().map(|v| v.bound()).max().unwrap_or(0);

        // old node -> new edge, and signature of every new node index.
        let mut remap: HashMap<u32, AigEdge> = HashMap::new();
        let mut new_sigs: HashMap<u32, u64> = HashMap::new();
        new_sigs.insert(AigEdge::TRUE.node(), u64::MAX);
        // signature (normalised to lsb 0) -> representatives.
        let mut classes: HashMap<u64, Vec<AigEdge>> = HashMap::new();

        for &idx in walk.order() {
            let new_edge = match self.node(AigEdge::new(idx, false)) {
                AigNode::True => AigEdge::TRUE,
                AigNode::Input(var) => {
                    let edge = self.input(var);
                    let sig = patterns[&var];
                    new_sigs.insert(edge.node(), sig);
                    // Register the input as a representative so AND nodes
                    // that collapse to a single input can merge with it.
                    let flipped = sig & 1 == 1;
                    classes
                        .entry(if flipped { !sig } else { sig })
                        .or_default()
                        .push(edge.xor_complement(flipped));
                    edge
                }
                AigNode::And(f0, f1) => {
                    let m0 = remap[&f0.node()].xor_complement(f0.is_complemented());
                    let m1 = remap[&f1.node()].xor_complement(f1.is_complemented());
                    let candidate = self.and(m0, m1);
                    let sig = edge_sig(&new_sigs, m0) & edge_sig(&new_sigs, m1);
                    let node_sig = sig ^ complement_mask(candidate);
                    new_sigs.entry(candidate.node()).or_insert(node_sig);
                    self.merge_with_class(candidate, sig, &mut classes, first_aux, conflict_budget)
                }
            };
            remap.insert(idx, new_edge);
        }
        remap[&root.node()].xor_complement(root.is_complemented())
    }

    /// Tries to replace `candidate` (with signature `sig`) by an
    /// already-seen representative of the same function.
    fn merge_with_class(
        &mut self,
        candidate: AigEdge,
        sig: u64,
        classes: &mut HashMap<u64, Vec<AigEdge>>,
        first_aux: u32,
        conflict_budget: u64,
    ) -> AigEdge {
        if candidate.is_constant() {
            return candidate;
        }
        // Constant-signature nodes: try proving them constant outright.
        if sig == 0 && self.prove_equivalent(candidate, AigEdge::FALSE, first_aux, conflict_budget)
        {
            self.obs.add(Metric::FraigMerges, 1);
            return AigEdge::FALSE;
        }
        if sig == u64::MAX
            && self.prove_equivalent(candidate, AigEdge::TRUE, first_aux, conflict_budget)
        {
            self.obs.add(Metric::FraigMerges, 1);
            return AigEdge::TRUE;
        }
        let normalised = if sig & 1 == 1 { !sig } else { sig };
        let flipped = sig & 1 == 1;
        let bucket = classes.entry(normalised).or_default();
        for &rep in bucket.iter().take(MAX_CANDIDATES) {
            let rep_adjusted = rep.xor_complement(flipped);
            if rep_adjusted == candidate {
                return candidate;
            }
            if self.prove_equivalent(candidate, rep_adjusted, first_aux, conflict_budget) {
                self.obs.add(Metric::FraigMerges, 1);
                return rep_adjusted;
            }
        }
        bucket.push(candidate.xor_complement(flipped));
        candidate
    }

    /// SAT-checks `a ≡ b`; `true` only on a proof.
    fn prove_equivalent(
        &mut self,
        a: AigEdge,
        b: AigEdge,
        first_aux: u32,
        conflict_budget: u64,
    ) -> bool {
        let miter = self.xor(a, b);
        if miter == AigEdge::FALSE {
            return true;
        }
        if miter == AigEdge::TRUE {
            return false;
        }
        let (cnf, out) = self.to_cnf(miter, first_aux);
        let config = hqs_sat::SatConfig {
            conflict_budget: Some(conflict_budget),
            ..hqs_sat::SatConfig::default()
        };
        let mut solver = hqs_sat::Solver::builder()
            .config(config)
            .observer(self.obs.clone())
            .build()
            .expect("FRAIG SAT configuration is valid");
        solver.add_cnf(&cnf);
        matches!(solver.solve(&[out]), hqs_sat::SolveResult::Unsat)
    }
}

#[inline]
fn edge_sig(sigs: &HashMap<u32, u64>, edge: AigEdge) -> u64 {
    sigs[&edge.node()] ^ complement_mask(edge)
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

    fn check_equiv(aig: &Aig, a: AigEdge, b: AigEdge, num_vars: u32) {
        for bits in 0u32..(1 << num_vars) {
            let val = |v: Var| bits >> v.index() & 1 == 1;
            assert_eq!(aig.eval(a, val), aig.eval(b, val), "bits {bits:b}");
        }
    }

    #[test]
    fn fraig_merges_structurally_different_equivalents() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        // or(x, y) and mux(x, TRUE, y) are structurally different but equal.
        let f = aig.or(x, y);
        let g = aig.mux(x, Aig::TRUE, y);
        let both = aig.and(f, g); // ≡ x ∨ y
        let reduced = aig.fraig(both, 11, 1000);
        check_equiv(&aig, both, reduced, 2);
        // After reduction the cone should be as small as a single OR.
        assert!(aig.walk(reduced).ands() <= aig.walk(both).ands());
        assert!(aig.walk(reduced).ands() <= 2);
    }

    #[test]
    fn fraig_preserves_function_on_random_cones() {
        use hqs_base::Rng;
        let mut rng = Rng::seed_from_u64(99);
        for round in 0..30 {
            let mut aig = Aig::new();
            let num_vars = 4u32;
            let mut pool: Vec<AigEdge> = (0..num_vars).map(|i| aig.input(Var::new(i))).collect();
            for _ in 0..12 {
                let a = pool[rng.gen_range(0..pool.len())].xor_complement(rng.gen_bool(0.5));
                let b = pool[rng.gen_range(0..pool.len())].xor_complement(rng.gen_bool(0.5));
                pool.push(aig.and(a, b));
            }
            let root = (*pool.last().unwrap()).xor_complement(rng.gen_bool(0.5));
            let reduced = aig.fraig(root, round, 1000);
            check_equiv(&aig, root, reduced, num_vars);
        }
    }

    #[test]
    fn fraig_detects_constants() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        let y = aig.input(Var::new(1));
        // (x∧y) ∨ (x∧¬y) ∨ ¬x ≡ TRUE, built without letting the one-level
        // rules notice.
        let a = aig.and(x, y);
        let b = aig.and(x, !y);
        let ab = aig.or(a, b);
        let f = aig.or(ab, !x);
        let reduced = aig.fraig(f, 3, 1000);
        check_equiv(&aig, f, reduced, 2);
        // The sweeper merges `ab` with x, after which or(x, ¬x) collapses
        // structurally.
        assert_eq!(reduced, Aig::TRUE);
    }

    #[test]
    fn fraig_on_constant_and_input_roots() {
        let mut aig = Aig::new();
        let x = aig.input(Var::new(0));
        assert_eq!(aig.fraig(Aig::TRUE, 0, 10), Aig::TRUE);
        assert_eq!(aig.fraig(Aig::FALSE, 0, 10), Aig::FALSE);
        assert_eq!(aig.fraig(x, 0, 10), x);
        assert_eq!(aig.fraig(!x, 0, 10), !x);
    }
}
