//! Universal expansion of a DQBF into propositional SAT.
//!
//! A DQBF is satisfied iff its *full universal expansion* is: for every
//! assignment `ω` of the universal variables, instantiate the matrix with
//! `ω` and replace each existential `y` by an instance variable keyed by
//! `(y, ω|D_y)` — the restriction of `ω` to `y`'s dependency set. Two
//! instances agree exactly when the Skolem function `s_y` must produce the
//! same value, so the expansion is satisfiable iff Skolem functions exist.
//!
//! The expansion is exponential in the number of universals; it serves as
//! the exact reference oracle for the solver tests, as the basis of the
//! certificates in [`crate::skolem`] and [`crate::refute`], and as the
//! conceptual basis of the instantiation-based iDQ baseline (which builds
//! it lazily).
//!
//! One kernel, `expand`, streams the expansion clause by clause into a
//! consumer and keeps only the instance map: the certificate paths feed
//! it straight into the SAT solver or the DRAT checker, so no `Cnf` of
//! the expansion is ever built there. [`expand_to_cnf`] collects the
//! same stream for the fuzzer and the tests.
//!
//! The kernel compiles each matrix clause once before it walks the
//! rows: its universal literals become a bit mask and the one pattern of
//! `ω` bits that falsifies them all, its existential literals an instance
//! block and the bit positions of their dependencies. A row that
//! satisfies a clause's universal part then costs one AND and one
//! compare; a row that falsifies it costs one slot lookup per existential
//! literal, each dependency set's restriction key being computed once per
//! row. Instances live in one flat slot array, `2^|D_y|` slots per
//! occurring existential.

use crate::Dqbf;
use hqs_base::{Lit, Var, VarSet};
use hqs_cnf::{Clause, Cnf};
use std::collections::HashMap;
use std::ops::Range;

/// Hard cap on the number of universal variables accepted by
/// [`expand_to_cnf`]; beyond this the expansion would not fit in memory
/// anyway.
pub const MAX_EXPANSION_UNIVERSALS: usize = 24;

/// An instance slot no row has reached yet.
const UNNUMBERED: u32 = u32::MAX;

/// The row bit of each variable of `dqbf`: `Some(i)` for the `i`-th
/// universal, which bit `i` of a row `ω` assigns, `None` otherwise.
pub(crate) fn row_bits(dqbf: &Dqbf) -> Vec<Option<u32>> {
    let mut bits = vec![None; dqbf.num_vars() as usize];
    for (i, &x) in (0u32..).zip(dqbf.universals()) {
        bits[x.uidx()] = Some(i);
    }
    bits
}

/// The restriction of row `omega` to the universals at row bits
/// `positions`, packed so that bit `i` is the value of `positions[i]`.
pub(crate) fn restriction(omega: u64, positions: &[u32]) -> usize {
    (0usize..)
        .zip(positions)
        .fold(0, |key, (i, &p)| key | ((omega >> p & 1) as usize) << i)
}

/// A dependency set, as the row bit of each dependency in
/// dependency-iteration order (bit `i` of a restriction key is the value
/// of the `i`-th dependency), with the key of the row that last asked.
/// Existentials with equal dependency sets share one shape, so a row
/// computes each key once however often it is read.
struct Shape {
    positions: Vec<u32>,
    row: u64,
    key: usize,
}

impl Shape {
    /// The restriction of row `omega` to this dependency set.
    #[inline]
    fn key(&mut self, omega: u64) -> usize {
        if self.row != omega {
            self.row = omega;
            self.key = restriction(omega, &self.positions);
        }
        self.key
    }
}

/// The instance slots of one existential: `2^|D_y|` consecutive entries
/// of the slot array, one per restriction key.
struct Block {
    var: Var,
    /// Index of the block's first slot.
    base: usize,
    shape: usize,
}

/// An existential literal of a compiled clause.
struct ExLit {
    block: usize,
    negative: bool,
    /// The clause's universal literals that precede this one, as a
    /// mask/pattern pair like [`CompiledClause`]'s: a row reaches (and so
    /// numbers) this literal iff `ω & mask == pattern`.
    mask: u64,
    pattern: u64,
}

/// A matrix clause compiled for the row loop.
struct CompiledClause {
    /// The universal literals: all false in row `ω` iff
    /// `ω & mask == pattern`. A clause with `x` and `¬x` gets [`NEVER`].
    mask: u64,
    pattern: u64,
    /// Its existential literals, in clause order, as a range of
    /// [`Compiled::lits`].
    lits: Range<usize>,
    /// How many of them precede the clause's last universal literal: only
    /// these are reached in a row that satisfies the clause.
    early: usize,
}

/// The matrix, compiled against the universal order.
struct Compiled {
    clauses: Vec<CompiledClause>,
    lits: Vec<ExLit>,
    blocks: Vec<Block>,
    shapes: Vec<Shape>,
    num_slots: usize,
}

/// A mask/pattern pair no row matches.
const NEVER: (u64, u64) = (0, 1);

/// Adds `lit`'s bit to a mask/pattern pair of universal literals that are
/// all false exactly when `ω & mask == pattern`; returns `false` when the
/// pair already requires the opposite value (the clause holds `x` and
/// `¬x`).
fn add_falsified(mask: &mut u64, pattern: &mut u64, position: u32, lit: Lit) -> bool {
    let bit = 1u64 << position;
    let value = if lit.is_negative() { bit } else { 0 };
    let consistent = *mask & bit == 0 || *pattern & bit == value;
    *mask |= bit;
    *pattern |= value;
    consistent
}

fn compile(dqbf: &Dqbf) -> Compiled {
    let position = row_bits(dqbf);
    let no_deps = VarSet::new();
    let mut block_of: Vec<Option<usize>> = vec![None; position.len()];
    let mut shape_of: HashMap<Vec<u32>, usize> = HashMap::new();
    let mut compiled = Compiled {
        clauses: Vec::with_capacity(dqbf.matrix().clauses().len()),
        lits: Vec::new(),
        blocks: Vec::new(),
        shapes: Vec::new(),
        num_slots: 0,
    };
    for clause in dqbf.matrix().clauses() {
        let start = compiled.lits.len();
        let (mut mask, mut pattern) = (0u64, 0u64);
        let mut consistent = true;
        let mut early = 0;
        for &lit in clause.lits() {
            let var = lit.var();
            if let Some(pos) = position[var.uidx()] {
                consistent &= add_falsified(&mut mask, &mut pattern, pos, lit);
                early = compiled.lits.len() - start;
                continue;
            }
            let block = *block_of[var.uidx()].get_or_insert_with(|| {
                // Free variables act as empty-dependency existentials.
                let deps = dqbf.dependencies(var).unwrap_or(&no_deps);
                assert!(deps.len() <= 64, "dependency sets limited to 64");
                let positions: Vec<u32> = deps
                    .iter()
                    .map(|dep| position[dep.uidx()].expect("dependencies are universal"))
                    .collect();
                let base = compiled.num_slots;
                compiled.num_slots += 1 << positions.len();
                let shapes = &mut compiled.shapes;
                let shape = *shape_of.entry(positions).or_insert_with_key(|positions| {
                    shapes.push(Shape {
                        positions: positions.clone(),
                        row: u64::MAX,
                        key: 0,
                    });
                    shapes.len() - 1
                });
                compiled.blocks.push(Block { var, base, shape });
                compiled.blocks.len() - 1
            });
            let (mask, pattern) = if consistent { (mask, pattern) } else { NEVER };
            compiled.lits.push(ExLit {
                block,
                negative: lit.is_negative(),
                mask,
                pattern,
            });
        }
        let (mask, pattern) = if consistent { (mask, pattern) } else { NEVER };
        compiled.clauses.push(CompiledClause {
            mask,
            pattern,
            lits: start..compiled.lits.len(),
            early,
        });
    }
    compiled
}

/// The instance variables of an expansion: the variable standing for
/// each existential under each restriction of its dependency set that a
/// row reached. Instances are numbered `0..len()`.
pub(crate) struct Instances {
    /// Per variable of the formula, the first slot and the dependency
    /// count of its block, for the existentials that occur.
    blocks: Vec<Option<(usize, u32)>>,
    slots: Vec<u32>,
    len: u32,
}

impl Instances {
    /// The number of instance variables.
    pub(crate) fn len(&self) -> u32 {
        self.len
    }

    /// The instance of `var` under `restriction`, if a row reached it.
    pub(crate) fn get(&self, var: Var, restriction: u64) -> Option<Var> {
        let &(base, width) = self.blocks.get(var.uidx())?.as_ref()?;
        if restriction >> width != 0 {
            return None;
        }
        let slot = self.slots[base + usize::try_from(restriction).ok()?];
        (slot != UNNUMBERED).then(|| Var::new(slot))
    }

    /// Every `(var, restriction, instance)`, by variable, then
    /// restriction.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Var, u64, Var)> + '_ {
        (0u32..).zip(&self.blocks).flat_map(move |(var, block)| {
            let slots = block.map_or(&[][..], |(base, width)| {
                &self.slots[base..base + (1 << width)]
            });
            (0u64..)
                .zip(slots)
                .filter(|&(_, &slot)| slot != UNNUMBERED)
                .map(move |(key, &slot)| (Var::new(var), key, Var::new(slot)))
        })
    }
}

/// Streams the full universal expansion of `dqbf` into `emit`, one
/// clause at a time, and returns its instance variables.
///
/// Rows are enumerated in increasing order of `ω` (bit `i` is the value of
/// the `i`-th universal), clauses in matrix order within a row; a clause
/// arrives as its instance literals in matrix-literal order, repeats and
/// complementary pairs included. Instance variables are numbered in the
/// order rows first reach them, a literal being reached when no universal
/// literal before it in its clause is true. Free variables count as
/// existentials with empty dependency sets.
///
/// # Panics
///
/// Panics if the formula has more than [`MAX_EXPANSION_UNIVERSALS`]
/// universal variables, or an existential with more than 64 dependencies.
pub(crate) fn expand(dqbf: &Dqbf, mut emit: impl FnMut(&[Lit])) -> Instances {
    let num_universals = dqbf.universals().len();
    assert!(
        num_universals <= MAX_EXPANSION_UNIVERSALS,
        "expansion limited to {MAX_EXPANSION_UNIVERSALS} universals"
    );
    let Compiled {
        clauses: compiled,
        lits: ex_lits,
        blocks,
        mut shapes,
        num_slots,
    } = compile(dqbf);
    let mut slots = vec![UNNUMBERED; num_slots];
    let mut next = 0u32;
    // The slot row `omega` reaches through `lit`, numbered on first reach.
    let mut reach = |lit: &ExLit, omega: u64| -> Var {
        let block = &blocks[lit.block];
        let slot = &mut slots[block.base + shapes[block.shape].key(omega)];
        if *slot == UNNUMBERED {
            *slot = next;
            next += 1;
        }
        Var::new(*slot)
    };
    let mut clause: Vec<Lit> = Vec::new();
    for omega in 0u64..(1u64 << num_universals) {
        for compiled_clause in &compiled {
            let lits = &ex_lits[compiled_clause.lits.clone()];
            if omega & compiled_clause.mask == compiled_clause.pattern {
                clause.clear();
                clause.extend(
                    lits.iter()
                        .map(|lit| Lit::new(reach(lit, omega), lit.negative)),
                );
                emit(&clause);
            } else {
                // Satisfied under ω, but the literals before its first
                // true universal literal are still reached.
                for lit in &lits[..compiled_clause.early] {
                    if omega & lit.mask != lit.pattern {
                        break;
                    }
                    reach(lit, omega);
                }
            }
        }
    }
    let mut instances = Instances {
        blocks: vec![None; dqbf.num_vars() as usize],
        slots,
        len: next,
    };
    for block in &blocks {
        let width = shapes[block.shape].positions.len() as u32;
        instances.blocks[block.var.uidx()] = Some((block.base, width));
    }
    instances
}

/// Builds the full universal expansion of `dqbf` as a propositional CNF,
/// collecting what the streaming kernel, `expand`, emits.
///
/// Returns the CNF together with the mapping from `(existential, packed
/// restriction)` to instance variable. The certificate paths consume the
/// stream directly; this copy serves the fuzzer and the tests.
///
/// Clauses come row by row in increasing order of `ω` (bit `i` is the
/// value of the `i`-th universal), in matrix order within a row, each
/// with its literals sorted; instance variables are numbered in the
/// order rows first reach them. Free variables count as existentials
/// with empty dependency sets.
///
/// # Panics
///
/// As `expand`: beyond [`MAX_EXPANSION_UNIVERSALS`] universal
/// variables, or with an existential of more than 64 dependencies.
#[must_use]
pub fn expand_to_cnf(dqbf: &Dqbf) -> (Cnf, HashMap<(Var, u64), Var>) {
    let mut clauses: Vec<Clause> = Vec::new();
    let instances = expand(dqbf, |lits| {
        clauses.push(Clause::from_lits(lits.iter().copied()));
    });
    let mut cnf = Cnf::new(instances.len());
    *cnf.clauses_mut() = clauses;
    let map = instances
        .iter()
        .map(|(var, restriction, instance)| ((var, restriction), instance))
        .collect();
    (cnf, map)
}

/// Decides `dqbf` exactly by full expansion plus one CDCL call.
///
/// The exact reference oracle used throughout the test suite. Exponential
/// in the universal count; see [`MAX_EXPANSION_UNIVERSALS`].
#[must_use]
pub fn is_satisfiable_by_expansion(dqbf: &Dqbf) -> bool {
    let mut solver = hqs_sat::Solver::new();
    let instances = expand(dqbf, |lits| {
        solver.add_clause(lits.iter().copied());
    });
    solver.ensure_vars(instances.len());
    solver.solve(&[]) == hqs_sat::SolveResult::Sat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomDqbf;
    use hqs_base::Rng;

    /// The direct row loop, the reference [`expand_to_cnf`]'s output must
    /// equal, clause order and instance numbering included: per row, per
    /// clause, per literal a hash lookup of the universal position, and
    /// per existential literal one more per dependency plus a hash-map
    /// entry for the instance.
    fn reference_expansion(dqbf: &Dqbf) -> (Cnf, HashMap<(Var, u64), Var>) {
        let universals = dqbf.universals();
        let mut cnf = Cnf::new(0);
        let mut instances: HashMap<(Var, u64), Var> = HashMap::new();
        let position: HashMap<Var, usize> = universals
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, i))
            .collect();
        let mut bound = dqbf.clone();
        bound.bind_free_vars();
        for omega in 0u64..(1u64 << universals.len()) {
            'clauses: for clause in bound.matrix().clauses() {
                let mut lits: Vec<Lit> = Vec::with_capacity(clause.len());
                for &lit in clause.lits() {
                    let var = lit.var();
                    if let Some(&pos) = position.get(&var) {
                        let value = omega >> pos & 1 == 1;
                        if value != lit.is_negative() {
                            continue 'clauses;
                        }
                    } else {
                        let deps = bound.dependencies(var).expect("free vars were bound");
                        let mut key = 0u64;
                        for (i, dep) in deps.iter().enumerate() {
                            if omega >> position[&dep] & 1 == 1 {
                                key |= 1 << i;
                            }
                        }
                        let next = u32::try_from(instances.len()).expect("fits");
                        let instance = *instances
                            .entry((var, key))
                            .or_insert_with(|| Var::new(next));
                        lits.push(Lit::new(instance, lit.is_negative()));
                    }
                }
                cnf.add_clause(Clause::from_lits(lits));
            }
        }
        cnf.ensure_num_vars(u32::try_from(instances.len()).expect("fits"));
        (cnf, instances)
    }

    fn assert_matches_reference(dqbf: &Dqbf) {
        let (cnf, instances) = expand_to_cnf(dqbf);
        let (expected_cnf, expected_instances) = reference_expansion(dqbf);
        assert_eq!(cnf, expected_cnf, "{dqbf:?}");
        assert_eq!(instances, expected_instances, "{dqbf:?}");
    }

    /// Output equal to the reference, clause order and instance numbering
    /// included, on 240 generated formulas of three shapes.
    #[test]
    fn random_formulas_expand_like_the_reference() {
        let shapes = [
            RandomDqbf::default(),
            RandomDqbf {
                num_universals: 6,
                num_existentials: 5,
                num_clauses: 20,
                ..RandomDqbf::default()
            },
            RandomDqbf {
                num_universals: 3,
                num_existentials: 6,
                dependency_density: 0.25,
                num_clauses: 16,
                max_clause_len: 4,
            },
        ];
        for seed in 0..240u64 {
            let shape = shapes[usize::try_from(seed % 3).expect("fits")];
            assert_matches_reference(&shape.generate(seed));
        }
    }

    /// The generator allocates universals first, so its sorted clauses
    /// never put an existential before a universal literal. Interleaved
    /// allocation does, and then a row that satisfies the clause still
    /// numbers the existentials in front of its first true literal.
    #[test]
    fn interleaved_variables_expand_like_the_reference() {
        let mut rng = Rng::seed_from_u64(0xE7A4);
        for _ in 0..60 {
            let mut d = Dqbf::new();
            let mut universals: Vec<Var> = Vec::new();
            let mut all: Vec<Var> = Vec::new();
            for _ in 0..rng.gen_range(2..=8u32) {
                let var = if rng.gen_bool(0.4) {
                    let x = d.add_universal();
                    universals.push(x);
                    x
                } else {
                    let deps: Vec<Var> = universals
                        .iter()
                        .copied()
                        .filter(|_| rng.gen_bool(0.5))
                        .collect();
                    d.add_existential(deps)
                };
                all.push(var);
            }
            for _ in 0..rng.gen_range(1..=12usize) {
                let lits: Vec<Lit> = (0..rng.gen_range(1..=4usize))
                    .map(|_| Lit::new(all[rng.gen_range(0..all.len())], rng.gen_bool(0.5)))
                    .collect();
                d.add_clause(lits);
            }
            assert_matches_reference(&d);
        }
    }

    #[test]
    fn corner_cases_expand_like_the_reference() {
        // Zero universals.
        let mut d = Dqbf::new();
        let y = d.add_existential([]);
        let z = d.add_existential([]);
        d.add_clause([Lit::positive(y), Lit::negative(z)]);
        d.add_clause([Lit::negative(y)]);
        assert_matches_reference(&d);
        // Free variables, one of them numbered below the universals.
        let mut d = Dqbf::new();
        let free = Var::new(0);
        d.add_clause([Lit::negative(free)]);
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        d.add_clause([Lit::positive(free), Lit::positive(x1)]);
        d.add_clause([
            Lit::negative(x2),
            Lit::positive(Var::new(7)),
            Lit::positive(x1),
        ]);
        assert_matches_reference(&d);
        // Universal-only clauses, a clause with x and ¬x, and empty and
        // full dependency sets.
        let mut d = Dqbf::new();
        let e = d.add_existential([]);
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        let x3 = d.add_universal();
        let full = d.add_existential([x1, x2, x3]);
        let some = d.add_existential([x2]);
        d.add_clause([Lit::positive(x1), Lit::negative(x3)]);
        d.add_clause([Lit::positive(e), Lit::positive(x2), Lit::negative(x2)]);
        d.add_clause([Lit::positive(x1), Lit::positive(e), Lit::negative(x1)]);
        d.add_clause([Lit::positive(e), Lit::positive(x3), Lit::negative(full)]);
        d.add_clause([Lit::negative(e), Lit::positive(full), Lit::positive(some)]);
        d.add_clause([Lit::negative(x1), Lit::negative(full), Lit::negative(some)]);
        assert_matches_reference(&d);
        // An existential that occurs only in front of x₂ ∨ ¬x₂: its clause
        // is never emitted, yet every row reaches (and numbers) it.
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let y = d.add_existential([x1]);
        let x2 = d.add_universal();
        d.add_clause([Lit::positive(y), Lit::positive(x2), Lit::negative(x2)]);
        assert_matches_reference(&d);
        assert_eq!(expand_to_cnf(&d).1.len(), 2);
        // The empty matrix.
        let mut d = Dqbf::new();
        d.add_universal();
        d.add_existential([]);
        assert_matches_reference(&d);
    }

    /// Three instances of the `table1-ci` corpus (two SAT, one UNSAT).
    #[test]
    fn table1_instances_expand_like_the_reference() {
        for text in [
            include_str!("../testdata/bitcell_n3_b1_s0.dqdimacs"),
            include_str!("../testdata/adder_n2_b1_s0.dqdimacs"),
            include_str!("../testdata/bitcell_n6_b1_s27_fault.dqdimacs"),
        ] {
            let file = hqs_cnf::dimacs::parse_dqdimacs(text).expect("fixture parses");
            assert_matches_reference(&Dqbf::from_file(&file));
        }
    }

    /// Example 1-style instance: ∀x₁∀x₂ ∃y₁(x₁) ∃y₂(x₂) with matrix
    /// (y₁↔x₁) ∧ (y₂↔x₂): satisfiable.
    #[test]
    fn copy_functions_are_satisfiable() {
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        let y1 = d.add_existential([x1]);
        let y2 = d.add_existential([x2]);
        for (x, y) in [(x1, y1), (x2, y2)] {
            d.add_clause([Lit::positive(x), Lit::negative(y)]);
            d.add_clause([Lit::negative(x), Lit::positive(y)]);
        }
        assert!(is_satisfiable_by_expansion(&d));
    }

    /// ∀x₁∀x₂ ∃y(x₁) with matrix y↔x₂: y cannot see x₂, unsatisfiable.
    #[test]
    fn wrong_dependency_is_unsatisfiable() {
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        let y = d.add_existential([x1]);
        d.add_clause([Lit::positive(x2), Lit::negative(y)]);
        d.add_clause([Lit::negative(x2), Lit::positive(y)]);
        assert!(!is_satisfiable_by_expansion(&d));
        // The same matrix with the right dependency is satisfiable.
        let mut d2 = Dqbf::new();
        let _x1 = d2.add_universal();
        let x2 = d2.add_universal();
        let y = d2.add_existential([x2]);
        d2.add_clause([Lit::positive(x2), Lit::negative(y)]);
        d2.add_clause([Lit::negative(x2), Lit::positive(y)]);
        assert!(is_satisfiable_by_expansion(&d2));
    }

    /// Instance variables are shared between expansion rows that agree on
    /// the dependency set — the defining difference from plain QBF
    /// expansion.
    #[test]
    fn instances_are_shared_across_rows() {
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let _x2 = d.add_universal();
        let y = d.add_existential([x1]);
        d.add_clause([Lit::positive(y)]);
        let (_, instances) = expand_to_cnf(&d);
        // y has 1 dependency ⇒ exactly 2 instances despite 4 rows.
        assert_eq!(instances.len(), 2);
    }

    #[test]
    fn no_universals_reduces_to_sat() {
        let mut d = Dqbf::new();
        let y = d.add_existential([]);
        d.add_clause([Lit::positive(y)]);
        assert!(is_satisfiable_by_expansion(&d));
        d.add_clause([Lit::negative(y)]);
        assert!(!is_satisfiable_by_expansion(&d));
    }

    #[test]
    fn free_variables_act_as_existentials() {
        let mut d = Dqbf::new();
        let x = d.add_universal();
        // Free variable v2 (index 1 never allocated as quantified).
        d.add_clause([Lit::positive(Var::new(1)), Lit::positive(x)]);
        // Needs v1 = true when x = 0; free var has empty deps but constant
        // true works.
        assert!(is_satisfiable_by_expansion(&d));
    }

    /// Universal unit clause makes the formula unsatisfied.
    #[test]
    fn universal_unit_clause_unsat() {
        let mut d = Dqbf::new();
        let x = d.add_universal();
        d.add_clause([Lit::positive(x)]);
        assert!(!is_satisfiable_by_expansion(&d));
    }
}
