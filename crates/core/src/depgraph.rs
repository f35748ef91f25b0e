//! Dependency graphs (Definition 4) and prefix linearisation (Theorem 3).
//!
//! The dependency graph `G_ψ` has the existential variables as vertices and
//! an edge `y_i → y_ℓ` iff `D_{y_i} ⊄ D_{y_ℓ}` — `y_i` depends on some
//! universal `y_ℓ` does not. Theorem 3: a DQBF has an equivalent QBF prefix
//! iff `G_ψ` is acyclic, and by Theorem 4 acyclicity reduces to checking
//! that all dependency sets are pairwise ⊆-comparable.

use hqs_base::{Var, VarSet};
use hqs_cnf::Quantifier;
use hqs_qbf::Prefix;

/// The dependency graph of a DQBF prefix.
///
/// Construct one with [`DepGraph::new`] from the existential variables and
/// their dependency sets.
///
/// # Examples
///
/// ```
/// use hqs_base::{Var, VarSet};
/// use hqs_core::depgraph::DepGraph;
///
/// // Example 1/3 of the paper: D_{y1} = {x1}, D_{y2} = {x2} — a 2-cycle.
/// let x1 = Var::new(0);
/// let x2 = Var::new(1);
/// let deps = vec![
///     (Var::new(2), [x1].into_iter().collect::<VarSet>()),
///     (Var::new(3), [x2].into_iter().collect::<VarSet>()),
/// ];
/// let graph = DepGraph::new(&deps);
/// assert!(graph.is_cyclic());
/// assert_eq!(graph.binary_cycles().len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct DepGraph {
    vars: Vec<Var>,
    deps: Vec<VarSet>,
}

impl DepGraph {
    /// Builds the graph for the given `(existential, dependency set)`
    /// pairs.
    #[must_use]
    pub fn new(existentials: &[(Var, VarSet)]) -> Self {
        DepGraph {
            vars: existentials.iter().map(|(v, _)| *v).collect(),
            deps: existentials.iter().map(|(_, d)| d.clone()).collect(),
        }
    }

    /// Returns the edge relation: `y_i → y_j` iff `D_{y_i} ⊄ D_{y_j}`.
    #[must_use]
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        from != to && !self.deps[from].is_subset(&self.deps[to])
    }

    /// Theorem 4: the graph is cyclic iff two dependency sets are
    /// ⊆-incomparable.
    #[must_use]
    pub fn is_cyclic(&self) -> bool {
        for i in 0..self.deps.len() {
            for j in (i + 1)..self.deps.len() {
                if !self.deps[i].is_subset(&self.deps[j]) && !self.deps[j].is_subset(&self.deps[i])
                {
                    return true;
                }
            }
        }
        false
    }

    /// The set `C_ψ` of binary cycles (Eq. 1): unordered pairs of
    /// existentials with ⊆-incomparable dependency sets, returned with
    /// their difference sets `(D_y \ D_y', D_y' \ D_y)`.
    #[must_use]
    pub fn binary_cycles(&self) -> Vec<BinaryCycle> {
        let mut cycles = Vec::new();
        for i in 0..self.deps.len() {
            for j in (i + 1)..self.deps.len() {
                if !self.deps[i].is_subset(&self.deps[j]) && !self.deps[j].is_subset(&self.deps[i])
                {
                    cycles.push(BinaryCycle {
                        first: self.vars[i],
                        second: self.vars[j],
                        first_only: self.deps[i].difference(&self.deps[j]),
                        second_only: self.deps[j].difference(&self.deps[i]),
                    });
                }
            }
        }
        cycles
    }
}

/// One binary cycle of the dependency graph: a pair of existentials with
/// incomparable dependency sets and their set differences.
#[derive(Clone, Debug)]
pub struct BinaryCycle {
    /// The first existential of the pair.
    pub first: Var,
    /// The second existential of the pair.
    pub second: Var,
    /// `D_first \ D_second`.
    pub first_only: VarSet,
    /// `D_second \ D_first`.
    pub second_only: VarSet,
}

/// Builds an equivalent QBF prefix for an acyclic DQBF prefix, following
/// the constructive proof of Theorem 3.
///
/// Existentials are grouped into blocks `Y_1, Y_2, …` of equal dependency
/// sets in ⊆-ascending order; universal blocks `X_i` interleave so that the
/// variables of `Y_i` see exactly their dependency set on the left.
/// Universals in no dependency set form a final innermost universal block.
///
/// Returns `None` if the dependency sets are not pairwise comparable
/// (i.e. the graph is cyclic and no equivalent QBF prefix exists).
#[must_use]
pub fn linearise(universals: &[Var], existentials: &[(Var, VarSet)]) -> Option<Prefix> {
    let graph = DepGraph::new(existentials);
    if graph.is_cyclic() {
        return None;
    }
    // Sort existentials by dependency-set size; equal sets are adjacent.
    // Pairwise comparability makes size order a linearisation of ⊆.
    let mut order: Vec<usize> = (0..existentials.len()).collect();
    order.sort_by_key(|&i| existentials[i].1.len());

    let mut prefix = Prefix::new();
    let mut placed = VarSet::new();
    let mut index = 0;
    while index < order.len() {
        let deps = &existentials[order[index]].1;
        // Universals required before this block and not placed yet.
        let new_universals: Vec<Var> = deps.difference(&placed).iter().collect();
        placed.union_with(deps);
        prefix.push_block(Quantifier::Universal, new_universals);
        let mut block_vars = Vec::new();
        while index < order.len() && existentials[order[index]].1 == *deps {
            block_vars.push(existentials[order[index]].0);
            index += 1;
        }
        prefix.push_block(Quantifier::Existential, block_vars);
    }
    // Trailing universals nobody depends on.
    let rest: Vec<Var> = universals
        .iter()
        .copied()
        .filter(|&x| !placed.contains(x))
        .collect();
    prefix.push_block(Quantifier::Universal, rest);
    Some(prefix)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(vars: &[u32]) -> VarSet {
        vars.iter().map(|&i| Var::new(i)).collect()
    }

    /// Example 3 / Fig. 2: D_{y1}={x1}, D_{y2}={x2} has a cycle.
    #[test]
    fn paper_example_3_cycle() {
        let deps = vec![(Var::new(2), set(&[0])), (Var::new(3), set(&[1]))];
        let g = DepGraph::new(&deps);
        assert!(g.is_cyclic());
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        let cycles = g.binary_cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].first_only, set(&[0]));
        assert_eq!(cycles[0].second_only, set(&[1]));
        assert!(linearise(&[Var::new(0), Var::new(1)], &deps).is_none());
    }

    #[test]
    fn nested_dependencies_are_acyclic() {
        let deps = vec![
            (Var::new(3), set(&[0])),
            (Var::new(4), set(&[0, 1])),
            (Var::new(5), set(&[0, 1, 2])),
        ];
        let g = DepGraph::new(&deps);
        assert!(!g.is_cyclic());
        assert!(g.binary_cycles().is_empty());
        // y5 → y4 → y3 edges exist (superset direction), but no cycle.
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(1, 2));
    }

    #[test]
    fn linearise_builds_interleaved_prefix() {
        let universals = [Var::new(0), Var::new(1), Var::new(2)];
        let existentials = vec![(Var::new(3), set(&[0])), (Var::new(4), set(&[0, 1]))];
        let prefix = linearise(&universals, &existentials).unwrap();
        // Expected: ∀x0 ∃y3 ∀x1 ∃y4 ∀x2.
        let blocks = prefix.blocks();
        assert_eq!(blocks.len(), 5);
        assert_eq!(blocks[0].quantifier, Quantifier::Universal);
        assert_eq!(blocks[0].vars, vec![Var::new(0)]);
        assert_eq!(blocks[1].vars, vec![Var::new(3)]);
        assert_eq!(blocks[2].vars, vec![Var::new(1)]);
        assert_eq!(blocks[3].vars, vec![Var::new(4)]);
        assert_eq!(blocks[4].vars, vec![Var::new(2)]);
    }

    #[test]
    fn equal_dependency_sets_share_a_block() {
        let universals = [Var::new(0)];
        let existentials = vec![(Var::new(1), set(&[0])), (Var::new(2), set(&[0]))];
        let prefix = linearise(&universals, &existentials).unwrap();
        assert_eq!(prefix.num_blocks(), 2);
        assert_eq!(prefix.blocks()[1].vars.len(), 2);
    }

    #[test]
    fn empty_dependency_block_is_outermost() {
        let universals = [Var::new(0)];
        let existentials = vec![(Var::new(1), VarSet::new()), (Var::new(2), set(&[0]))];
        let prefix = linearise(&universals, &existentials).unwrap();
        let blocks = prefix.blocks();
        assert_eq!(blocks[0].quantifier, Quantifier::Existential);
        assert_eq!(blocks[0].vars, vec![Var::new(1)]);
    }

    #[test]
    fn no_existentials_linearises_to_universal_block() {
        let prefix = linearise(&[Var::new(0), Var::new(1)], &[]).unwrap();
        assert_eq!(prefix.num_blocks(), 1);
        assert_eq!(prefix.blocks()[0].quantifier, Quantifier::Universal);
    }

    /// Property: linearise succeeds iff the graph is acyclic, and when it
    /// succeeds every existential sees exactly its dependency set to the
    /// left.
    #[test]
    fn linearisation_respects_dependencies() {
        use hqs_base::Rng;
        let mut rng = Rng::seed_from_u64(33);
        for _ in 0..300 {
            let nu = rng.gen_range(1..=5u32);
            let ne = rng.gen_range(1..=4usize);
            let universals: Vec<Var> = (0..nu).map(Var::new).collect();
            let existentials: Vec<(Var, VarSet)> = (0..ne)
                .map(|i| {
                    let deps: VarSet = universals
                        .iter()
                        .copied()
                        .filter(|_| rng.gen_bool(0.5))
                        .collect();
                    (Var::new(nu + i as u32), deps)
                })
                .collect();
            let graph = DepGraph::new(&existentials);
            match linearise(&universals, &existentials) {
                None => assert!(graph.is_cyclic()),
                Some(prefix) => {
                    assert!(!graph.is_cyclic());
                    // Walk the prefix, tracking universals seen so far.
                    let mut seen = VarSet::new();
                    for block in prefix.blocks() {
                        match block.quantifier {
                            Quantifier::Universal => {
                                seen.extend(block.vars.iter().copied());
                            }
                            Quantifier::Existential => {
                                for &y in &block.vars {
                                    let deps =
                                        &existentials.iter().find(|(v, _)| *v == y).unwrap().1;
                                    assert_eq!(
                                        *deps, seen,
                                        "existential {y} must see exactly its deps"
                                    );
                                }
                            }
                        }
                    }
                    // All universals placed exactly once.
                    let placed: usize = prefix
                        .blocks()
                        .iter()
                        .filter(|b| b.quantifier == Quantifier::Universal)
                        .map(|b| b.vars.len())
                        .sum();
                    assert_eq!(placed, universals.len());
                }
            }
        }
    }
}
