//! The canonical formula hash: one half of `hqs serve`'s verdict-cache
//! key (the other half is the configuration fingerprint).

use crate::Dqbf;

/// A stable 128-bit canonical hash of a DQBF.
///
/// Canonical means insensitive to *presentation order*: permuting the
/// clauses of the matrix, the literals within a clause, or the
/// declaration order of prefix variables (and of the variables inside a
/// dependency set) leaves the hash unchanged. It is **sensitive to
/// variable naming** — renaming variables changes the hash — and is
/// kept exactly as it is so that verdict-cache keys stay stable.
///
/// Two independently seeded 64-bit passes make accidental collisions
/// (which would silently serve the wrong cached verdict) a 2⁻¹²⁸ event.
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
        // The same shape over renamed variables must hash differently,
        // as it always has: verdict-cache keys depend on it staying put.
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
}
