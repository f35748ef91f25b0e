//! RUP/RAT checking of DRAT proofs.
//!
//! The engine is an independent reimplementation of two-watched-literal
//! unit propagation — deliberately sharing no code with `hqs-sat` — used
//! to decide, for each added clause `C`, whether `C` is a *reverse unit
//! propagation* (RUP) consequence: asserting `¬C` and propagating must
//! yield a conflict. When RUP fails the checker falls back to the full
//! *resolution asymmetric tautology* (RAT) criterion on the first literal
//! of `C`, as the DRAT format specifies.
//!
//! A [`ProofChecker`] is loaded with the original formula one clause at
//! a time, so a caller that generates the formula (the universal
//! expansion in `hqs-core`) never stores it twice; [`check_proof`] loads
//! a [`Cnf`]. Clauses live back to back in one literal arena, so loading
//! allocates nothing per clause.
//!
//! A deletion removes the most recently added active clause with the
//! same literal set. The checker finds it through a hash of the sorted
//! literals, indexed at the first deletion step, so a proof without
//! deletions never hashes a clause. Deletions of clauses that currently
//! justify a root-level assignment are ignored (counted in
//! [`CheckReport::ignored_deletions`]), matching the behaviour of
//! `drat-trim`.

use crate::drat::{Proof, ProofStep};
use hqs_base::{Lit, Var};
use hqs_cnf::Cnf;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Result of a successful proof check.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CheckReport {
    /// Addition steps whose RUP/RAT property was verified.
    pub steps_checked: usize,
    /// Addition steps skipped because they follow the contradiction.
    pub steps_skipped: usize,
    /// Deletion steps ignored because the clause was absent or currently
    /// the reason of a root-level assignment.
    pub ignored_deletions: usize,
    /// Verified additions that needed the RAT fallback (CDCL-generated
    /// proofs are pure RUP, so this is 0 for `hqs-sat` proofs).
    pub rat_steps: usize,
}

/// Why a proof was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckError {
    /// The clause added at `step` (0-based index into the proof) is
    /// neither RUP nor RAT at that point.
    StepFailed {
        /// 0-based proof step index.
        step: usize,
    },
    /// The proof ends without establishing a contradiction.
    NoContradiction,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::StepFailed { step } => {
                write!(f, "proof step {step}: clause is neither RUP nor RAT")
            }
            CheckError::NoContradiction => {
                write!(f, "proof ends without deriving a contradiction")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Writes `lits` sorted and deduplicated into `out`; returns `false`
/// (leaving `out` unspecified) for a tautology.
fn normalize(lits: &[Lit], out: &mut Vec<Lit>) -> bool {
    out.clear();
    out.extend_from_slice(lits);
    out.sort_unstable();
    out.dedup();
    !out.windows(2).any(|w| w[0].var() == w[1].var())
}

/// A 64-bit hash of a sorted literal set.
fn clause_hash(lits: &[Lit]) -> u64 {
    let mut h = lits.iter().fold(0u64, |h, &lit| {
        (h.rotate_left(5) ^ u64::from(lit.code())).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    });
    // splitmix64's finaliser, so the low bits (the bucket) and the high
    // bits (the control byte) of the hash table both vary.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ h >> 31
}

/// Hands a [`clause_hash`] key to the hash table as it is. The hash has
/// no random seed, so a proof crafted to collide can lengthen the chains
/// [`ProofChecker::delete_clause`] walks; that costs time, never a
/// verdict, since every match is confirmed literal by literal.
#[derive(Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

const NO_REASON: u32 = u32::MAX;

/// End of a chain of clauses with equal hashes.
const NO_CLAUSE: u32 = u32::MAX;

/// Two-watched-literal unit propagation over a growable clause set.
///
/// Clause `c` is `lits[start[c]..start[c + 1]]`. Clauses of length ≥ 2
/// watch their first two literal positions; unit clauses are enqueued
/// directly and tracked through the trail.
struct Engine {
    /// Every clause's literals, back to back.
    lits: Vec<Lit>,
    /// Per clause, the arena offset of its first literal, then one more
    /// entry: the end of the last clause.
    start: Vec<usize>,
    active: Vec<bool>,
    watches: Vec<Vec<u32>>,
    value: Vec<i8>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Set once an inserted clause is falsified at root level.
    root_conflict: bool,
}

impl Engine {
    fn new(num_vars: u32) -> Self {
        let n = num_vars as usize;
        Engine {
            lits: Vec::new(),
            start: vec![0],
            active: Vec::new(),
            watches: vec![Vec::new(); 2 * n],
            value: vec![0; n],
            reason: vec![NO_REASON; n],
            trail: Vec::new(),
            qhead: 0,
            root_conflict: false,
        }
    }

    fn ensure_var(&mut self, var: Var) {
        let needed = var.uidx() + 1;
        if self.value.len() < needed {
            self.value.resize(needed, 0);
            self.reason.resize(needed, NO_REASON);
            self.watches.resize(2 * needed, Vec::new());
        }
    }

    fn num_clauses(&self) -> usize {
        self.active.len()
    }

    /// The arena range of clause `cref`.
    #[inline]
    fn range(&self, cref: u32) -> std::ops::Range<usize> {
        // analyze::allow(panic): start has an entry per clause plus the end
        self.start[cref as usize]..self.start[cref as usize + 1]
    }

    /// The literals of clause `cref`, watched ones first.
    fn clause(&self, cref: u32) -> &[Lit] {
        &self.lits[self.range(cref)]
    }

    #[inline]
    fn value_of(&self, lit: Lit) -> i8 {
        // analyze::allow(panic): value is sized by ensure_var for every lit seen
        let v = self.value[lit.var().uidx()];
        if lit.is_negative() {
            -v
        } else {
            v
        }
    }

    #[inline]
    fn enqueue(&mut self, lit: Lit, reason: u32) {
        // analyze::allow(panic) lines=4: value/reason are sized by ensure_var
        let var = lit.var().uidx();
        self.value[var] = if lit.is_positive() { 1 } else { -1 };
        self.reason[var] = reason;
        self.trail.push(lit);
    }

    /// Appends a normalized clause to the arena and enqueues its unit
    /// consequence if it has one under the current assignment. Does not
    /// propagate.
    fn add(&mut self, lits: &[Lit]) -> u32 {
        let idx = self.num_clauses() as u32;
        for &l in lits {
            self.ensure_var(l.var());
        }
        let first = self.lits.len();
        self.lits.extend_from_slice(lits);
        self.start.push(self.lits.len());
        self.active.push(true);
        if lits.is_empty() {
            self.root_conflict = true;
            return idx;
        }
        // Move up to two non-false literals to the watch positions.
        let mut found = 0usize;
        for i in first..self.lits.len() {
            if self.value_of(self.lits[i]) >= 0 {
                self.lits.swap(first + found, i);
                found += 1;
                if found == 2 {
                    break;
                }
            }
        }
        let (w0, w1) = (self.lits[first], self.lits.get(first + 1).copied());
        match found {
            0 => {
                // All literals false: conflict right now.
                self.root_conflict = true;
            }
            1 if self.value_of(w0) == 0 => {
                self.enqueue(w0, idx);
            }
            _ => {}
        }
        if let Some(w1) = w1 {
            self.watches[w0.uidx()].push(idx);
            self.watches[w1.uidx()].push(idx);
        } else if self.value_of(w0) == 0 {
            self.enqueue(w0, idx);
        }
        idx
    }

    /// Propagates to fixpoint; `true` if a conflict was found.
    fn propagate(&mut self) -> bool {
        if self.root_conflict {
            // A conflict from clause insertion: report it once the caller
            // propagates.
            self.qhead = self.trail.len();
            return true;
        }
        // Indexing in this loop is invariant-backed: `watches` and the
        // assignment vectors are sized for every literal before it is
        // enqueued, crefs index the checker's own clause store, and
        // watched positions 0/1 exist because short clauses never enter
        // the watch lists.
        // analyze::allow(panic) lines=56: bounds established by ensure_var and the watch invariant
        while let Some(&p) = self.trail.get(self.qhead) {
            self.qhead += 1;
            let false_lit = !p;
            let mut list = std::mem::take(&mut self.watches[false_lit.uidx()]);
            let mut kept = 0;
            let mut conflict = false;
            let mut i = 0;
            'clauses: while i < list.len() {
                let cref = list[i];
                i += 1;
                if !self.active[cref as usize] {
                    continue; // lazily drop deleted clauses
                }
                let range = self.range(cref);
                let w = range.start;
                if self.lits[w] == false_lit {
                    self.lits.swap(w, w + 1);
                }
                let first = self.lits[w];
                if self.value_of(first) > 0 {
                    list[kept] = cref;
                    kept += 1;
                    continue;
                }
                for k in w + 2..range.end {
                    let candidate = self.lits[k];
                    if self.value_of(candidate) >= 0 {
                        self.lits.swap(w + 1, k);
                        self.watches[candidate.uidx()].push(cref);
                        continue 'clauses;
                    }
                }
                list[kept] = cref;
                kept += 1;
                if self.value_of(first) < 0 {
                    conflict = true;
                    while i < list.len() {
                        list[kept] = list[i];
                        kept += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    break;
                }
                self.enqueue(first, cref);
            }
            list.truncate(kept);
            self.watches[false_lit.uidx()] = list;
            if conflict {
                return true;
            }
        }
        false
    }

    /// Asserts the negation of `clause` (each literal set false; every
    /// variable is the formula's); `true` on an immediate conflict, when
    /// some literal is already true.
    fn assume_negation(&mut self, clause: &[Lit]) -> bool {
        for &l in clause {
            match self.value_of(l) {
                1 => return true,
                -1 => {}
                _ => self.enqueue(!l, NO_REASON),
            }
        }
        false
    }

    /// Unassigns everything above trail position `to`.
    fn backtrack(&mut self, to: usize) {
        // analyze::allow(panic) lines=5: trail positions are in range by the loop bound
        for i in (to..self.trail.len()).rev() {
            let var = self.trail[i].var().uidx();
            self.value[var] = 0;
            self.reason[var] = NO_REASON;
        }
        self.trail.truncate(to);
        self.qhead = to;
    }

    /// `true` if `cref` is the recorded reason of a currently-true literal
    /// (deleting it would orphan a root assignment).
    fn is_reason_locked(&self, cref: u32) -> bool {
        self.clause(cref)
            .iter()
            .any(|&l| self.value_of(l) > 0 && self.reason[l.var().uidx()] == cref)
    }
}

/// Verdict of one forward-checked addition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AddVerdict {
    Rup,
    Rat,
    Trivial,
}

/// The clauses by [`clause_hash`], for deletions.
#[derive(Default)]
struct DeletionIndex {
    /// The most recently inserted active clause for each hash.
    newest: HashMap<u64, u32, BuildHasherDefault<IdentityHasher>>,
    /// Per clause, the next older active clause with the same hash, or
    /// [`NO_CLAUSE`]; deleted clauses are unlinked.
    older: Vec<u32>,
}

impl DeletionIndex {
    /// Indexes every clause of `engine` in insertion order, so each chain
    /// runs newest first. Before the first deletion every clause is
    /// active.
    fn build(engine: &Engine) -> Self {
        let mut index = DeletionIndex::default();
        let mut sorted = Vec::new();
        for cref in 0..engine.num_clauses() as u32 {
            // The engine reorders literals for watching: sort a copy.
            sorted.clear();
            sorted.extend_from_slice(engine.clause(cref));
            sorted.sort_unstable();
            index.link(clause_hash(&sorted), cref);
        }
        index
    }

    /// Links clause `cref`, the newest one, into the chain of `key`.
    fn link(&mut self, key: u64, cref: u32) {
        let older = self.newest.insert(key, cref).unwrap_or(NO_CLAUSE);
        self.older.push(older);
    }
}

/// A forward DRAT checker: loaded with the original formula clause by
/// clause ([`add_original`](Self::add_original)), then run over a proof
/// ([`check`](Self::check)), verifying every addition in proof order.
///
/// The formula fixes the variables: those below the `num_vars` given to
/// [`new`](Self::new) and those of its clauses. A lemma over any other
/// variable is rejected, so a proof cannot make the checker allocate
/// beyond the formula (`hqs-sat` proofs never introduce a variable).
///
/// # Examples
///
/// ```
/// use hqs_base::Lit;
/// use hqs_proof::{parse_text_drat, ProofChecker};
///
/// // (a∨b)(¬a∨b)(a∨¬b)(¬a∨¬b), generated rather than stored.
/// let mut checker = ProofChecker::new(2);
/// for (a, b) in [(1, 2), (-1, 2), (1, -2), (-1, -2)] {
///     let lits = [a, b].map(|v| Lit::from_dimacs(v).unwrap());
///     checker.add_original(&lits);
/// }
/// let report = checker.check(&parse_text_drat("2 0\n0\n").unwrap()).unwrap();
/// assert_eq!(report.steps_checked, 1);
/// ```
pub struct ProofChecker {
    engine: Engine,
    /// Built at the first deletion step, then kept up to date.
    index: Option<DeletionIndex>,
    /// Scratch for normalizing the clause at hand.
    normalized: Vec<Lit>,
    /// Set once a conflict at root level completes the refutation.
    contradiction: bool,
    steps_checked: usize,
    steps_skipped: usize,
    ignored_deletions: usize,
    rat_steps: usize,
}

impl ProofChecker {
    /// An empty checker over variables `0..num_vars`, to which every
    /// original clause adds its own.
    #[must_use]
    pub fn new(num_vars: u32) -> Self {
        ProofChecker {
            engine: Engine::new(num_vars),
            index: None,
            normalized: Vec::new(),
            contradiction: false,
            steps_checked: 0,
            steps_skipped: 0,
            ignored_deletions: 0,
            rat_steps: 0,
        }
    }

    /// Adds a clause of the formula the proof refutes. Tautologies are
    /// dropped; literal order and repeats do not matter.
    pub fn add_original(&mut self, lits: &[Lit]) {
        let mut normalized = std::mem::take(&mut self.normalized);
        if normalize(lits, &mut normalized) {
            self.insert(&normalized);
        }
        self.normalized = normalized;
    }

    /// Checks `proof` against the loaded formula: every addition is
    /// verified in proof order (RUP, then RAT on its first literal) until
    /// a root-level contradiction is established; additions after it are
    /// skipped.
    ///
    /// # Errors
    ///
    /// [`CheckError::StepFailed`] if an addition is neither RUP nor RAT;
    /// [`CheckError::NoContradiction`] if the proof never refutes the
    /// formula.
    pub fn check(mut self, proof: &Proof) -> Result<CheckReport, CheckError> {
        self.finish_loading();
        for (step, proof_step) in proof.steps.iter().enumerate() {
            if !self.apply(proof_step) {
                return Err(CheckError::StepFailed { step });
            }
        }
        if !self.contradiction {
            return Err(CheckError::NoContradiction);
        }
        Ok(CheckReport {
            steps_checked: self.steps_checked,
            steps_skipped: self.steps_skipped,
            ignored_deletions: self.ignored_deletions,
            rat_steps: self.rat_steps,
        })
    }

    /// Propagates the loaded formula at the root, before the first step.
    fn finish_loading(&mut self) {
        self.contradiction = self.engine.propagate();
    }

    /// Inserts a normalized clause and, once the deletion index exists,
    /// links it into its hash chain.
    fn insert(&mut self, lits: &[Lit]) {
        let cref = self.engine.add(lits);
        if let Some(index) = &mut self.index {
            index.link(clause_hash(lits), cref);
        }
    }

    /// Checks and applies a clause addition; `false` if the clause is
    /// neither RUP nor RAT.
    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if self.contradiction {
            self.steps_skipped += 1;
            return true;
        }
        let mut normalized = std::mem::take(&mut self.normalized);
        let justified = if normalize(lits, &mut normalized) {
            match self.verify(&normalized) {
                Some(verdict) => {
                    self.rat_steps += usize::from(verdict == AddVerdict::Rat);
                    self.insert(&normalized);
                    self.contradiction = self.engine.propagate();
                    true
                }
                None => false,
            }
        } else {
            true // tautology: trivially redundant, not stored
        };
        self.normalized = normalized;
        self.steps_checked += usize::from(justified);
        justified
    }

    /// Applies a clause deletion to the most recently inserted active
    /// clause with the same literal set (the engine reorders literals for
    /// watching, so sets are compared, not sequences); unknown or
    /// reason-locked clauses are ignored (counted, matching `drat-trim`).
    fn delete_clause(&mut self, lits: &[Lit]) {
        if self.contradiction {
            return;
        }
        let mut normalized = std::mem::take(&mut self.normalized);
        if normalize(lits, &mut normalized) {
            self.delete_normalized(&normalized);
        } else {
            self.ignored_deletions += 1;
        }
        self.normalized = normalized;
    }

    fn delete_normalized(&mut self, lits: &[Lit]) {
        let key = clause_hash(lits);
        let index = self
            .index
            .get_or_insert_with(|| DeletionIndex::build(&self.engine));
        let mut newer = NO_CLAUSE;
        let mut cref = index.newest.get(&key).copied().unwrap_or(NO_CLAUSE);
        while cref != NO_CLAUSE {
            let stored = self.engine.clause(cref);
            if stored.len() == lits.len() && stored.iter().all(|l| lits.binary_search(l).is_ok()) {
                break;
            }
            newer = cref;
            cref = index.older[cref as usize];
        }
        if cref == NO_CLAUSE || self.engine.is_reason_locked(cref) {
            self.ignored_deletions += 1;
            return;
        }
        let older = index.older[cref as usize];
        if newer != NO_CLAUSE {
            index.older[newer as usize] = older;
        } else if older != NO_CLAUSE {
            index.newest.insert(key, older);
        } else {
            index.newest.remove(&key);
        }
        self.engine.active[cref as usize] = false;
    }

    /// Applies one proof step; `false` if it is an unjustified addition.
    fn apply(&mut self, step: &ProofStep) -> bool {
        match step {
            ProofStep::Add(lits) => self.add_clause(lits),
            ProofStep::Delete(lits) => {
                self.delete_clause(lits);
                true
            }
        }
    }

    /// RUP check with RAT fallback; `None` means the clause is unjustified.
    fn verify(&mut self, clause: &[Lit]) -> Option<AddVerdict> {
        if clause
            .iter()
            .any(|l| l.var().uidx() >= self.engine.value.len())
        {
            return None; // a variable outside the formula's
        }
        if clause.iter().any(|&l| self.engine.value_of(l) > 0) {
            return Some(AddVerdict::Trivial); // satisfied at root level
        }
        if self.rup(clause) {
            return Some(AddVerdict::Rup);
        }
        if self.rat(clause) {
            return Some(AddVerdict::Rat);
        }
        None
    }

    fn rup(&mut self, clause: &[Lit]) -> bool {
        let save = self.engine.trail.len();
        let conflict = self.engine.assume_negation(clause) || self.engine.propagate();
        self.engine.backtrack(save);
        conflict
    }

    /// RAT on the first literal: every resolvent with an active clause
    /// containing the negated pivot must be RUP (or a tautology).
    fn rat(&mut self, clause: &[Lit]) -> bool {
        let Some(&pivot) = clause.first() else {
            return false; // the empty clause has no pivot
        };
        let neg = !pivot;
        for cref in 0..self.engine.num_clauses() as u32 {
            let other = self.engine.clause(cref);
            if !self.engine.active[cref as usize] || !other.contains(&neg) {
                continue;
            }
            let mut resolvent: Vec<Lit> = clause
                .iter()
                .copied()
                .filter(|&l| l != pivot)
                .chain(other.iter().copied().filter(|&l| l != neg))
                .collect();
            resolvent.sort_unstable();
            resolvent.dedup();
            if resolvent.windows(2).any(|w| w[0].var() == w[1].var()) {
                continue; // tautological resolvent
            }
            if !self.rup(&resolvent) {
                return false;
            }
        }
        true
    }
}

/// Checks `proof` against `cnf`: loads its clauses into a
/// [`ProofChecker`] and runs [`ProofChecker::check`].
///
/// # Errors
///
/// As [`ProofChecker::check`].
pub fn check_proof(cnf: &Cnf, proof: &Proof) -> Result<CheckReport, CheckError> {
    let mut checker = ProofChecker::new(cnf.num_vars());
    for clause in cnf.clauses() {
        checker.add_original(clause.lits());
    }
    checker.check(proof)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drat::parse_text_drat;
    use hqs_cnf::dimacs::parse_dimacs;

    fn lit(v: i64) -> Lit {
        Lit::from_dimacs(v).unwrap()
    }

    /// A checker loaded with `cnf` and propagated, ready for steps.
    fn loaded(cnf: &Cnf) -> ProofChecker {
        let mut checker = ProofChecker::new(cnf.num_vars());
        for clause in cnf.clauses() {
            checker.add_original(clause.lits());
        }
        checker.finish_loading();
        checker
    }

    const FULL2: &str = "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n";

    #[test]
    fn forward_accepts_a_valid_refutation() {
        let cnf = parse_dimacs(FULL2).unwrap();
        let proof = parse_text_drat("2 0\n0\n").unwrap();
        let report = check_proof(&cnf, &proof).unwrap();
        // Adding unit 2 already propagates to a conflict, so the explicit
        // empty clause is redundant and skipped.
        assert_eq!(report.steps_checked, 1);
        assert_eq!(report.steps_skipped, 1);
        assert_eq!(report.rat_steps, 0);
    }

    #[test]
    fn non_rup_addition_is_rejected() {
        // Unit 1 is RAT on its pivot (no clause contains -1, so it is
        // blocked), but the empty clause then fails: (1)(1 2) is SAT.
        let cnf = parse_dimacs("p cnf 2 1\n1 2 0\n").unwrap();
        let proof = parse_text_drat("1 0\n0\n").unwrap();
        assert_eq!(
            check_proof(&cnf, &proof),
            Err(CheckError::StepFailed { step: 1 })
        );
        // A non-unit clause that is neither RUP nor RAT fails immediately:
        // (2 3) resolves with (-2 4) to the non-tautological (3 4).
        let cnf = parse_dimacs("p cnf 4 2\n1 2 0\n-2 4 0\n").unwrap();
        let proof = parse_text_drat("2 3 0\n").unwrap();
        assert_eq!(
            check_proof(&cnf, &proof),
            Err(CheckError::StepFailed { step: 0 })
        );
        // An unjustified lemma is rejected even when the refutation after
        // it never uses it: (-4) is neither RUP nor RAT here.
        let cnf =
            parse_dimacs("p cnf 4 6\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n3 4 0\n-3 4 0\n").unwrap();
        let proof = parse_text_drat("-4 0\n2 0\n0\n").unwrap();
        assert_eq!(
            check_proof(&cnf, &proof),
            Err(CheckError::StepFailed { step: 0 })
        );
    }

    #[test]
    fn lemma_over_a_variable_outside_the_formula_is_rejected() {
        // The formula has two variables; the first lemma names the
        // largest one a proof can spell. It is rejected without sizing
        // anything to it.
        let cnf = parse_dimacs(FULL2).unwrap();
        let proof = parse_text_drat("2147483647 0\n2 0\n0\n").unwrap();
        assert_eq!(
            check_proof(&cnf, &proof),
            Err(CheckError::StepFailed { step: 0 })
        );
    }

    #[test]
    fn missing_contradiction_is_rejected() {
        let proof = parse_text_drat("2 0\n").unwrap();
        // Deriving 2 alone leaves (1 -2)(-1 -2): unit propagation refutes,
        // so the check actually completes; remove that by weakening.
        let weak = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n").unwrap();
        assert_eq!(check_proof(&weak, &proof), Err(CheckError::NoContradiction));
    }

    #[test]
    fn implicit_contradiction_without_empty_clause_is_accepted() {
        // Adding unit 2 makes (1 -2)(-1 -2) propagate to a conflict.
        let cnf = parse_dimacs(FULL2).unwrap();
        let proof = parse_text_drat("2 0\n").unwrap();
        assert!(check_proof(&cnf, &proof).is_ok());
    }

    #[test]
    fn deletions_are_honoured_and_locked_deletions_ignored() {
        // Satisfiable base so the contradiction never fires early.
        let cnf = parse_dimacs("p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n").unwrap();
        let mut checker = loaded(&cnf);
        assert!(checker.add_clause(&[lit(2)]));
        checker.delete_clause(&[lit(1), lit(2)]); // present: removed
        checker.delete_clause(&[lit(1)]); // absent: ignored
        assert_eq!(checker.ignored_deletions, 1);
        // The unit clause 2 is now the reason of assignment 2: locked.
        checker.delete_clause(&[lit(2)]);
        assert_eq!(checker.ignored_deletions, 2);
        assert!(!checker.contradiction);
    }

    #[test]
    fn deleting_one_of_two_identical_clauses_keeps_the_other() {
        // FULL2 with (1 -2) twice: the refutation needs one copy.
        let cnf = parse_dimacs("p cnf 2 5\n1 2 0\n-1 2 0\n1 -2 0\n1 -2 0\n-1 -2 0\n").unwrap();
        let proof = parse_text_drat("d 1 -2 0\n2 0\n0\n").unwrap();
        let report = check_proof(&cnf, &proof).unwrap();
        assert_eq!(report.ignored_deletions, 0);
        assert_eq!(report.steps_checked, 1);
        // A second deletion, written as a permutation, removes the other.
        let proof = parse_text_drat("d 1 -2 0\nd -2 1 0\n2 0\n0\n").unwrap();
        assert_eq!(
            check_proof(&cnf, &proof),
            Err(CheckError::StepFailed { step: 3 })
        );
    }

    #[test]
    fn deletion_matches_a_clause_reordered_for_watching() {
        // Propagating -1 moves (1 2 3)'s watches to 2 and 3.
        let cnf = parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 0\n").unwrap();
        let mut checker = loaded(&cnf);
        assert_ne!(checker.engine.clause(0), [lit(1), lit(2), lit(3)]);
        checker.delete_clause(&[lit(3), lit(1), lit(2)]);
        assert_eq!(checker.ignored_deletions, 0);
        assert!(!checker.engine.active[0]);
        // The clause is gone: deleting it again is ignored.
        checker.delete_clause(&[lit(2), lit(3), lit(1)]);
        assert_eq!(checker.ignored_deletions, 1);
    }

    #[test]
    fn reason_locked_deletion_is_ignored_and_the_clause_kept() {
        // (1) forces 1, (-1 2) then forces 2: deleting (-1 2) is ignored,
        // and the refutation of (3 4)(3 -4)(-3 4)(-3 -4) under 2 needs it.
        let cnf =
            parse_dimacs("p cnf 4 6\n1 0\n-1 2 0\n-2 3 4 0\n-2 3 -4 0\n-2 -3 4 0\n-2 -3 -4 0\n")
                .unwrap();
        let proof = parse_text_drat("d 2 -1 0\n-2 3 0\n-2 0\n0\n").unwrap();
        let report = check_proof(&cnf, &proof).unwrap();
        assert_eq!(report.ignored_deletions, 1);
        assert_eq!(report.steps_checked, 1);
        assert_eq!(report.steps_skipped, 2);
    }

    /// A checker loaded with `originals`, then 300 filler originals and
    /// 300 filler lemmas (weakenings of the fillers, so RUP) over other
    /// variables, then `lemmas`: a deletion after all of them builds the
    /// index over 600-odd clauses, both kinds mixed.
    fn crowded(originals: &[&[i64]], lemmas: &[&[i64]]) -> ProofChecker {
        let lits = |c: &[i64]| c.iter().map(|&v| lit(v)).collect::<Vec<_>>();
        let mut checker = ProofChecker::new(1000);
        for c in originals {
            checker.add_original(&lits(c));
        }
        for i in 0..300 {
            checker.add_original(&[lit(101 + 2 * i), lit(102 + 2 * i)]);
        }
        checker.finish_loading();
        for i in 0..300 {
            assert!(checker.add_clause(&[lit(101 + 2 * i), lit(102 + 2 * i), lit(701 + i)]));
        }
        for c in lemmas {
            assert!(checker.add_clause(&lits(c)));
        }
        assert!(checker.index.is_none(), "no deletion yet, so no index");
        checker
    }

    #[test]
    fn late_deletion_finds_a_clause_the_engine_reordered() {
        // Propagating -1 moves (1 2 3)'s watches to 2 and 3.
        let mut checker = crowded(&[&[1, 2, 3], &[-1]], &[]);
        assert_ne!(checker.engine.clause(0), [lit(1), lit(2), lit(3)]);
        checker.delete_clause(&[lit(3), lit(1), lit(2)]);
        assert!(checker.index.is_some());
        assert_eq!(checker.ignored_deletions, 0);
        assert!(!checker.engine.active[0]);
        assert!(checker.engine.active[1..].iter().all(|&a| a));
    }

    #[test]
    fn late_deletion_removes_the_newer_of_two_identical_clauses() {
        // The lemma (5 4) repeats the original (4 5): the lemma goes.
        let mut checker = crowded(&[&[4, 5]], &[&[5, 4]]);
        let lemma = checker.engine.num_clauses() - 1;
        checker.delete_clause(&[lit(4), lit(5)]);
        assert_eq!(checker.ignored_deletions, 0);
        assert!(!checker.engine.active[lemma]);
        assert!(checker.engine.active[0]);
        // A copy added once the index exists is linked in as the newest.
        assert!(checker.add_clause(&[lit(4), lit(5)]));
        let copy = checker.engine.num_clauses() - 1;
        checker.delete_clause(&[lit(5), lit(4)]);
        assert!(!checker.engine.active[copy]);
        assert!(checker.engine.active[0]);
        // Then the original, and then nothing is left to delete.
        checker.delete_clause(&[lit(4), lit(5)]);
        assert!(!checker.engine.active[0]);
        checker.delete_clause(&[lit(4), lit(5)]);
        assert_eq!(checker.ignored_deletions, 1);
    }

    #[test]
    fn late_deletion_of_a_reason_locked_clause_is_ignored() {
        // (6) forces 6, (-6 7) then forces 7: (-6 7) is 7's reason.
        let mut checker = crowded(&[&[6], &[-6, 7]], &[]);
        checker.delete_clause(&[lit(7), lit(-6)]);
        assert_eq!(checker.ignored_deletions, 1);
        assert!(checker.engine.active[1]);
        assert!(!checker.contradiction);
    }

    #[test]
    fn deleting_a_needed_clause_breaks_the_proof() {
        let cnf = parse_dimacs(FULL2).unwrap();
        // Delete (1 -2) before deriving 2... then unit 2 is still RUP via
        // (1 2)/(-1 2)? No: RUP of [2] asserts ¬2; (1 2)→1, (-1 2)→conflict.
        // Delete both clauses containing -2 instead, breaking the final step.
        let proof = parse_text_drat("d 1 -2 0\nd -1 -2 0\n2 0\n0\n").unwrap();
        assert_eq!(
            check_proof(&cnf, &proof),
            Err(CheckError::StepFailed { step: 3 })
        );
    }

    #[test]
    fn empty_original_clause_is_a_trivial_refutation() {
        let cnf = parse_dimacs("p cnf 1 2\n1 0\n0\n").unwrap();
        assert!(check_proof(&cnf, &Proof::default()).is_ok());
    }

    #[test]
    fn conflicting_units_refute_without_proof() {
        let cnf = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        assert!(check_proof(&cnf, &Proof::default()).is_ok());
    }

    #[test]
    fn satisfiable_formula_rejects_empty_proof() {
        let cnf = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n").unwrap();
        assert_eq!(
            check_proof(&cnf, &Proof::default()),
            Err(CheckError::NoContradiction)
        );
    }

    #[test]
    fn rat_step_is_accepted() {
        // F = (¬a∨b). C = (a∨¬b) is not RUP but is RAT on a: the only
        // resolvent, with (¬a∨b), is tautological.
        let cnf = parse_dimacs("p cnf 2 1\n-1 2 0\n").unwrap();
        let mut checker = loaded(&cnf);
        assert!(checker.add_clause(&[lit(1), lit(-2)]));
        assert_eq!(checker.rat_steps, 1);
        assert!(!checker.contradiction);
        // And a clause that is neither RUP nor RAT is rejected.
        let mut checker = loaded(&cnf);
        assert!(!checker.add_clause(&[lit(1)]));
    }

    #[test]
    fn pigeonhole_resolution_style_proof() {
        // PHP(2,1): pigeons 1,2 into hole 1. Vars: p11=1, p21=2.
        let cnf = parse_dimacs("p cnf 2 3\n1 0\n2 0\n-1 -2 0\n").unwrap();
        let proof = parse_text_drat("0\n").unwrap();
        assert!(check_proof(&cnf, &proof).is_ok());
    }

    #[test]
    fn tautological_additions_are_no_ops() {
        let cnf = parse_dimacs(FULL2).unwrap();
        let proof = parse_text_drat("1 -1 0\n2 0\n0\n").unwrap();
        assert!(check_proof(&cnf, &proof).is_ok());
    }
}
