//! The instance corpora and the seeded choices made over them.
//!
//! Both corpora are fixed: `table1-ci` is the paper's Table I corpus at
//! `Scale::Ci`, `pec-graded` a recipe of larger PEC instances. A seed
//! only permutes the order jobs and serve requests are issued in, so
//! every seed does the same solver work and the committed verdict
//! oracle covers every seed.

use hqs_base::Rng;
use hqs_cnf::dimacs::write_dqdimacs;
use hqs_pec::families::generate;
use hqs_pec::{benchmark_suite, Family, PecInstance, Scale};

/// Most universals an instance may have to be certified: certificates
/// expand the universals, so cost doubles with each one.
pub(crate) const CERTIFY_MAX_UNIVERSALS: usize = 11;

/// Most jobs a `--smoke` corpus keeps.
const SMOKE_JOBS: usize = 12;

/// Which generated corpus an instance belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Corpus {
    /// `hqs_pec::benchmark_suite(Scale::Ci)`.
    Table1Ci,
    /// The [`pec_graded`] recipe.
    PecGraded,
}

impl Corpus {
    /// The corpus name used in the oracle file.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            Corpus::Table1Ci => "table1-ci",
            Corpus::PecGraded => "pec-graded",
        }
    }

    /// Parses [`Corpus::name`].
    #[must_use]
    pub(crate) fn from_name(name: &str) -> Option<Corpus> {
        [Corpus::Table1Ci, Corpus::PecGraded]
            .into_iter()
            .find(|c| c.name() == name)
    }

    /// Generates the corpus.
    #[must_use]
    pub(crate) fn generate(self) -> Vec<PecInstance> {
        match self {
            Corpus::Table1Ci => benchmark_suite(Scale::Ci),
            Corpus::PecGraded => pec_graded(),
        }
    }
}

/// One benchmark input: the DQDIMACS text the solver is handed, plus
/// what the benchmark knows about it.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The generator's instance name (unique across both corpora).
    pub name: String,
    /// The circuit family.
    pub family: Family,
    /// Number of black boxes.
    pub boxes: u32,
    /// Number of universal variables.
    pub universals: usize,
    /// The DQDIMACS rendering.
    pub text: String,
}

/// Generates `corpus` and renders every instance as DQDIMACS text.
#[must_use]
pub(crate) fn render(corpus: Corpus) -> Vec<Instance> {
    corpus
        .generate()
        .into_iter()
        .map(|instance| Instance {
            universals: instance.dqbf.universals().len(),
            text: write_dqdimacs(&instance.dqbf.to_file()),
            name: instance.name,
            family: instance.family,
            boxes: instance.num_boxes,
        })
        .collect()
}

/// The `pec-graded` recipe: 30 circuits, each with and without a fault.
/// Sizes are chosen so that HQS solves every instance well inside the
/// job limits, the QBF backend dominates the run time, and one pass
/// over the 60 instances takes a few seconds, so a run can time every
/// job several times. The z4 seeds avoid `table1-ci`'s z4 instances of
/// the same size and box count (its seeds 1, 7, 13, …), whose names
/// would clash.
#[must_use]
pub(crate) fn pec_graded() -> Vec<PecInstance> {
    const RECIPE: &[(Family, u32, u32, &[u64])] = &[
        (Family::Adder, 8, 2, &[0, 1, 2, 3]),
        (Family::Adder, 10, 2, &[2, 3, 4]),
        (Family::Bitcell, 32, 4, &[0, 1, 2]),
        (Family::Lookahead, 64, 4, &[0, 2]),
        (Family::PecXor, 32, 6, &[0, 1]),
        (Family::PecXor, 48, 5, &[0, 1, 2, 3, 4]),
        (Family::Z4, 3, 2, &[0, 5, 6, 9, 10]),
        (Family::Comp, 9, 3, &[0, 1, 2, 3, 4]),
        (Family::C432, 9, 2, &[2]),
    ];
    let mut instances = Vec::new();
    for &(family, size, boxes, seeds) in RECIPE {
        for &seed in seeds {
            for fault in [false, true] {
                instances.push(generate(family, size, boxes, seed, fault));
            }
        }
    }
    instances
}

/// Keeps the [`SMOKE_JOBS`] smallest formulas, which a debug build solves
/// in seconds.
#[must_use]
pub(crate) fn smoke(mut instances: Vec<Instance>) -> Vec<Instance> {
    instances.sort_by_key(|i| i.text.len());
    instances.truncate(SMOKE_JOBS);
    instances
}

/// A seeded permutation of `0..len`.
#[must_use]
pub(crate) fn order(seed: u64, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    Rng::seed_from_u64(seed).shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_a_seeded_permutation() {
        let a = order(3, 50);
        assert_eq!(a, order(3, 50));
        assert_ne!(a, order(4, 50));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn names_are_unique_across_corpora() {
        let mut names: Vec<String> = Corpus::Table1Ci
            .generate()
            .into_iter()
            .chain(Corpus::PecGraded.generate())
            .map(|i| i.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
