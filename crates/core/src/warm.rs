//! Cross-request warm state: the canonical formula hash and the
//! [`WarmCache`] bundle a long-lived server shares between sessions.
//!
//! A [`Session`](crate::Session) is cheap to build and tear down, but a
//! serving process answers streams of closely related requests — often
//! the *same* formula with a different budget, or siblings of one
//! instance family. [`WarmCache`] keeps the two most expensive
//! session-independent artefacts alive across sessions:
//!
//! * **preprocessing results**, keyed by [`canonical_formula_hash`] plus
//!   the preprocessing flags, and
//! * **FRAIG-reduced cones** ([`hqs_aig::FraigCache`]), keyed by the
//!   canonical cone encoding.
//!
//! Both caches are bounded [`ByteBudgetLru`]s, and both are consulted
//! transparently once the cache is attached via
//! [`SessionBuilder::warm_cache`](crate::SessionBuilder::warm_cache).

use crate::preprocess::{Gate, PreprocessResult};
use crate::Dqbf;
use hqs_aig::FraigCache;
use hqs_base::{ByteBudgetLru, CacheStatsSnapshot};
use hqs_obs::{Metric, Obs};
use std::sync::Arc;

/// A stable 128-bit canonical hash of a DQBF.
///
/// Canonical means insensitive to *presentation order*: permuting the
/// clauses of the matrix, the literals within a clause, or the
/// declaration order of prefix variables (and of the variables inside a
/// dependency set) leaves the hash unchanged. It is deliberately
/// **sensitive to variable naming** — renaming variables changes the
/// hash — because a cached preprocessing result stores concrete
/// [`Var`](hqs_base::Var) indices and could not be replayed under a
/// renaming.
///
/// Two independently seeded 64-bit passes make accidental collisions
/// (which would silently serve the wrong cached result) a 2⁻¹²⁸ event.
#[must_use]
pub fn canonical_formula_hash(dqbf: &Dqbf) -> u128 {
    let lo = hash_with_seed(dqbf, 0x243F_6A88_85A3_08D3);
    let hi = hash_with_seed(dqbf, 0x1319_8A2E_0370_7344);
    (u128::from(hi) << 64) | u128::from(lo)
}

fn hash_with_seed(dqbf: &Dqbf, seed: u64) -> u64 {
    // Commutative accumulation (wrapping sums of mixed per-item hashes)
    // gives the order-insensitivity; the final mix binds the sections
    // together.
    let mut matrix_acc = 0u64;
    for clause in dqbf.matrix().clauses() {
        let mut clause_acc = 0u64;
        for &lit in clause.lits() {
            let code = u64::from(lit.var().index()) << 1 | u64::from(lit.is_negative());
            clause_acc = clause_acc.wrapping_add(splitmix64(seed ^ code));
        }
        matrix_acc =
            matrix_acc.wrapping_add(splitmix64(clause_acc.wrapping_add(clause.len() as u64)));
    }
    let mut prefix_acc = 0u64;
    for &x in dqbf.universals() {
        prefix_acc = prefix_acc.wrapping_add(splitmix64(
            seed ^ 0xAAAA_0000_0000_0000 ^ u64::from(x.index()),
        ));
    }
    for &y in dqbf.existentials() {
        let mut dep_acc = 0u64;
        if let Some(deps) = dqbf.dependencies(y) {
            for d in deps.iter() {
                dep_acc = dep_acc.wrapping_add(splitmix64(seed ^ u64::from(d.index())));
            }
        }
        prefix_acc = prefix_acc.wrapping_add(splitmix64(
            seed ^ 0xEEEE_0000_0000_0000 ^ u64::from(y.index()) ^ dep_acc.rotate_left(17),
        ));
    }
    splitmix64(
        matrix_acc
            .wrapping_add(prefix_acc.rotate_left(32))
            .wrapping_add(u64::from(dqbf.num_vars())),
    )
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Key of one preprocessing-cache entry: the canonical formula hash
/// plus the flags that change what the pipeline computes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct PreprocessKey {
    formula: u128,
    gate_detection: bool,
    subsumption: bool,
}

impl PreprocessKey {
    pub(crate) fn new(dqbf: &Dqbf, gate_detection: bool, subsumption: bool) -> Self {
        PreprocessKey {
            formula: canonical_formula_hash(dqbf),
            gate_detection,
            subsumption,
        }
    }
}

/// The warm state a serving process shares across sessions: bounded
/// caches of preprocessing results and FRAIG-reduced cones.
///
/// Share one instance behind an [`Arc`] and attach it to every session
/// via [`SessionBuilder::warm_cache`](crate::SessionBuilder::warm_cache).
/// All methods are `&self`; the caches synchronise internally.
#[derive(Debug)]
pub struct WarmCache {
    preprocess: ByteBudgetLru<PreprocessKey, PreprocessResult>,
    fraig: Arc<FraigCache>,
}

impl Default for WarmCache {
    fn default() -> Self {
        WarmCache::new()
    }
}

impl WarmCache {
    /// Byte budget of the preprocessing cache (32 MiB).
    pub const PREPROCESS_BUDGET: usize = 32 << 20;
    /// Byte budget of the FRAIG cone cache (32 MiB).
    pub const FRAIG_BUDGET: usize = 32 << 20;

    /// An empty warm cache.
    #[must_use]
    pub fn new() -> Self {
        WarmCache {
            preprocess: ByteBudgetLru::new(Self::PREPROCESS_BUDGET),
            fraig: Arc::new(FraigCache::new(Self::FRAIG_BUDGET)),
        }
    }

    /// The shared FRAIG cone cache, for [`hqs_aig::Aig::set_fraig_cache`].
    #[must_use]
    pub fn fraig(&self) -> &Arc<FraigCache> {
        &self.fraig
    }

    /// Counters and occupancy of the preprocessing cache.
    #[must_use]
    pub fn preprocess_stats(&self) -> CacheStatsSnapshot {
        self.preprocess.stats()
    }

    /// Counters and occupancy of the FRAIG cone cache.
    #[must_use]
    pub fn fraig_stats(&self) -> CacheStatsSnapshot {
        self.fraig.stats()
    }

    /// Drops every entry from both caches (counters are retained).
    pub fn clear(&self) {
        self.preprocess.clear();
        self.fraig.clear();
    }

    pub(crate) fn lookup_preprocess(
        &self,
        key: &PreprocessKey,
        obs: &Obs,
    ) -> Option<PreprocessResult> {
        match self.preprocess.get(key) {
            Some(result) => {
                obs.add(Metric::PreprocessCacheHits, 1);
                Some(result)
            }
            None => {
                obs.add(Metric::PreprocessCacheMisses, 1);
                None
            }
        }
    }

    pub(crate) fn store_preprocess(
        &self,
        key: PreprocessKey,
        result: &PreprocessResult,
        obs: &Obs,
    ) {
        let cost = approx_result_bytes(result);
        let evictions_before = self.preprocess.stats().evictions;
        self.preprocess.insert(key, result.clone(), cost);
        let evicted = self.preprocess.stats().evictions - evictions_before;
        if evicted > 0 {
            obs.add(Metric::CacheEvictions, evicted);
        }
    }
}

/// Approximate heap footprint of a cached preprocessing result, charged
/// against the cache's byte budget.
fn approx_result_bytes(result: &PreprocessResult) -> usize {
    const BASE: usize = 128;
    match result {
        PreprocessResult::Decided { .. } => BASE,
        PreprocessResult::Reduced { dqbf, gates, .. } => {
            BASE + approx_dqbf_bytes(dqbf) + gates.iter().map(approx_gate_bytes).sum::<usize>()
        }
    }
}

fn approx_dqbf_bytes(dqbf: &Dqbf) -> usize {
    let matrix: usize = dqbf
        .matrix()
        .clauses()
        .iter()
        .map(|c| 32 + c.len() * std::mem::size_of::<hqs_base::Lit>())
        .sum();
    // Dependency sets are dense bitsets over num_vars.
    let prefix = dqbf.existentials().len() * (32 + dqbf.num_vars() as usize / 8);
    matrix + prefix + dqbf.universals().len() * 4
}

fn approx_gate_bytes(gate: &Gate) -> usize {
    32 + gate.inputs.len() * std::mem::size_of::<hqs_base::Lit>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqs_base::Lit;

    fn sample() -> Dqbf {
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        let y1 = d.add_existential([x1]);
        let y2 = d.add_existential([x1, x2]);
        d.add_clause([Lit::positive(x1), Lit::negative(y1)]);
        d.add_clause([Lit::negative(x2), Lit::positive(y2), Lit::positive(y1)]);
        d
    }

    #[test]
    fn hash_ignores_clause_and_literal_order() {
        let mut a = Dqbf::new();
        let x1 = a.add_universal();
        let x2 = a.add_universal();
        let y1 = a.add_existential([x1]);
        let y2 = a.add_existential([x1, x2]);
        a.add_clause([Lit::positive(x1), Lit::negative(y1)]);
        a.add_clause([Lit::negative(x2), Lit::positive(y2), Lit::positive(y1)]);

        // Same formula, clauses in the other order and literals shuffled.
        let mut b = Dqbf::new();
        let x1 = b.add_universal();
        let x2 = b.add_universal();
        let y1 = b.add_existential([x1]);
        let y2 = b.add_existential([x2, x1]); // dependency order shuffled too
        b.add_clause([Lit::positive(y1), Lit::negative(x2), Lit::positive(y2)]);
        b.add_clause([Lit::negative(y1), Lit::positive(x1)]);

        assert_eq!(canonical_formula_hash(&a), canonical_formula_hash(&b));
    }

    #[test]
    fn hash_distinguishes_different_formulas() {
        let base = sample();
        let base_hash = canonical_formula_hash(&base);

        // Flipping one literal changes the hash.
        let mut flipped = sample();
        let lits: Vec<Lit> = flipped.matrix().clauses()[0]
            .lits()
            .iter()
            .map(|&l| !l)
            .collect();
        flipped.matrix_mut().clauses_mut()[0] = hqs_cnf::Clause::from_lits(lits);
        assert_ne!(base_hash, canonical_formula_hash(&flipped));

        // A different dependency set changes the hash even with an
        // identical matrix.
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        let y1 = d.add_existential([x2]); // was [x1]
        let y2 = d.add_existential([x1, x2]);
        d.add_clause([Lit::positive(x1), Lit::negative(y1)]);
        d.add_clause([Lit::negative(x2), Lit::positive(y2), Lit::positive(y1)]);
        assert_ne!(base_hash, canonical_formula_hash(&d));

        // An extra (even duplicate) clause changes the hash.
        let mut dup = sample();
        let first = dup.matrix().clauses()[0].clone();
        dup.matrix_mut().add_clause(first);
        assert_ne!(base_hash, canonical_formula_hash(&dup));
    }

    #[test]
    fn hash_is_sensitive_to_variable_naming() {
        // The same shape over renamed variables must hash differently —
        // cached results carry concrete variable indices.
        let mut a = Dqbf::new();
        let x = a.add_universal();
        let y = a.add_existential([x]);
        a.add_clause([Lit::positive(x), Lit::negative(y)]);

        let mut b = Dqbf::new();
        let _pad = b.add_universal();
        let x = b.add_universal();
        let y = b.add_existential([x]);
        b.add_clause([Lit::positive(x), Lit::negative(y)]);

        assert_ne!(canonical_formula_hash(&a), canonical_formula_hash(&b));
    }

    #[test]
    fn warm_cache_round_trips_preprocess_results() {
        let cache = WarmCache::new();
        let obs = Obs::disabled();
        let dqbf = sample();
        let key = PreprocessKey::new(&dqbf, true, false);
        assert!(cache.lookup_preprocess(&key, &obs).is_none());
        let result = crate::preprocess::preprocess_full(&dqbf, true, false);
        cache.store_preprocess(key, &result, &obs);
        let cached = cache.lookup_preprocess(&key, &obs).expect("stored");
        // Same variant and same stats as the original run.
        match (&result, &cached) {
            (
                PreprocessResult::Decided {
                    value: a,
                    stats: sa,
                },
                PreprocessResult::Decided {
                    value: b,
                    stats: sb,
                },
            ) => {
                assert_eq!(a, b);
                assert_eq!(sa, sb);
            }
            (
                PreprocessResult::Reduced { stats: sa, .. },
                PreprocessResult::Reduced { stats: sb, .. },
            ) => assert_eq!(sa, sb),
            _ => panic!("variant mismatch"),
        }
        let stats = cache.preprocess_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Different flags are a different key.
        let other = PreprocessKey::new(&dqbf, false, false);
        assert!(cache.lookup_preprocess(&other, &obs).is_none());
    }
}
