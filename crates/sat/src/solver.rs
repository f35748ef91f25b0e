//! The CDCL solver proper.

use crate::arena::{ClauseArena, ClauseRef, Tier, HEADER_WORDS, NO_REASON};
use crate::config::{SatConfig, SatConfigError};
use crate::heap::VarOrder;
use crate::proof::ProofLogger;
use crate::restart::RestartSched;
use crate::watch::{FlatWatches, Watch};
use hqs_base::{Assignment, Budget, CancelToken, Lit, Var};
use hqs_cnf::Cnf;
use hqs_obs::{Metric, Obs};
use std::fmt;

/// Conflicts between tier2 demotion sweeps: a tier2 clause not used in
/// any conflict since the last sweep drops to the local tier.
const TIER2_INTERVAL: u64 = 1_000;

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; query it with
    /// [`Solver::model_value`].
    Sat,
    /// The formula is unsatisfiable under the given assumptions; query
    /// [`Solver::failed_assumptions`].
    Unsat,
    /// The [`Budget`] asked to stop before a verdict.
    Unknown,
}

/// Cumulative solver statistics.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts analysed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Number of database reductions performed.
    pub reductions: u64,
    /// Number of conflicts resolved by chronological backtracking (one
    /// level) instead of a full backjump.
    pub chrono_backtracks: u64,
    /// Restart-schedule direction changes: from EMA-triggered restarts
    /// to the Luby fallback and back.
    pub restart_mode_switches: u64,
    /// Clause-arena garbage collections performed.
    pub arena_gcs: u64,
    /// Arena words reclaimed by garbage collection, cumulatively.
    pub arena_words_reclaimed: u64,
    /// Live learnt clauses currently in the core (glue) tier.
    pub core_clauses: u64,
    /// Live learnt clauses currently in tier2.
    pub tier2_clauses: u64,
    /// Live learnt clauses currently in the local tier.
    pub local_clauses: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub(crate) enum Lbool {
    False = 0,
    True = 1,
    Undef = 2,
}

impl Lbool {
    #[inline]
    fn from_bool(b: bool) -> Self {
        if b {
            Lbool::True
        } else {
            Lbool::False
        }
    }
}

/// A CDCL SAT solver over a contiguous clause arena.
///
/// See the [crate docs](crate) for the feature list. The solver is
/// incremental: clauses may be added between [`solve`](Solver::solve)
/// calls, and each call may carry assumptions. Construction goes through
/// [`Solver::builder`], which fixes the [`SatConfig`], observer, proof
/// logger and [`Budget`] for the solver's lifetime.
///
/// # Examples
///
/// ```
/// use hqs_base::Lit;
/// use hqs_sat::{SolveResult, Solver};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause([Lit::positive(a), Lit::positive(b)]);
/// assert_eq!(s.solve(&[Lit::negative(a), Lit::negative(b)]), SolveResult::Unsat);
/// assert!(!s.failed_assumptions().is_empty());
/// assert_eq!(s.solve(&[]), SolveResult::Sat);
/// ```
pub struct Solver {
    pub(crate) arena: ClauseArena,
    /// Watch lists of clauses with three or more literals.
    pub(crate) watches: FlatWatches,
    /// Watch lists of binary clauses, kept separate so propagation over
    /// them never touches the arena: the blocker *is* the other literal,
    /// and binary clauses are never deleted (`reduce_db` skips
    /// `len <= 2`), so the buckets need no lazy-drop compaction either.
    pub(crate) bin_watches: FlatWatches,
    pub(crate) assigns: Vec<Lbool>,
    /// Per-literal mirror of `assigns` (indexed by literal code), so the
    /// propagation loop answers "value of this literal" with a single
    /// load instead of a variable lookup plus sign fix-up. Kept in sync
    /// by `unchecked_enqueue` and `cancel_until`; audited against
    /// `assigns` by `check_invariants`.
    pub(crate) lit_vals: Vec<Lbool>,
    pub(crate) level: Vec<u32>,
    pub(crate) reason: Vec<ClauseRef>,
    pub(crate) trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    pub(crate) qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    clause_inc: f32,
    order: VarOrder,
    phase: Vec<bool>,
    seen: Vec<bool>,
    pub(crate) ok: bool,
    model: Vec<Lbool>,
    failed: Vec<Lit>,
    config: SatConfig,
    budget: Budget,
    restart: RestartSched,
    /// Number of original (non-learnt) clauses attached, so the
    /// effective local cap can scale with formula size.
    num_originals: usize,
    /// Conflict count at which the next tier2 demotion sweep runs.
    next_tier2_sweep: u64,
    stats: SolverStats,
    analyze_clear: Vec<Var>,
    /// Scratch buffer of [`Solver::minimize`], reused across conflicts so
    /// the analysis loop stays allocation-free.
    minimize_keep: Vec<bool>,
    /// Scratch buffer of the LBD computations, reused across conflicts.
    lbd_levels: Vec<u32>,
    proof: Option<Box<dyn ProofLogger>>,
    obs: Obs,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("vars", &self.num_vars())
            .field("stats", &self.stats)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Builder for a [`Solver`]; obtain via [`Solver::builder`].
///
/// Mirrors `hqs_core::Session::builder()`: configuration, observer,
/// proof logger and budget are supplied once, validated together, and
/// immutable afterwards — a configured solver never changes behaviour
/// mid-flight.
///
/// # Examples
///
/// ```
/// use hqs_base::Budget;
/// use hqs_sat::{SatConfig, Solver};
///
/// let solver = Solver::builder()
///     .config(SatConfig::default())
///     .budget(Budget::new())
///     .build()
///     .expect("default config is valid");
/// assert_eq!(solver.num_vars(), 0);
/// ```
#[derive(Default)]
#[must_use]
pub struct SolverBuilder {
    config: SatConfig,
    obs: Option<Obs>,
    proof: Option<Box<dyn ProofLogger>>,
    budget: Budget,
    cancel: Option<CancelToken>,
}

impl SolverBuilder {
    /// Sets the search configuration (default [`SatConfig::default`]).
    pub fn config(mut self, config: SatConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches an observability handle: each solve call then reports
    /// its call count and its stats deltas through it. Counters are
    /// flushed once per solve call — the CDCL inner loops stay untouched.
    pub fn observer(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Attaches a proof logger; every derived or deleted clause is
    /// emitted as a DRAT step.
    ///
    /// The proof refutes the conjunction of exactly the clauses passed to
    /// [`Solver::add_clause`] (before simplification): give an independent
    /// checker that clause set as the original formula. Level-0
    /// simplification of those clauses is not logged, since a checker
    /// that propagates the originals at the root sees it anyway; a clause
    /// that simplification empties is logged as the empty clause. The
    /// logger is attached at construction, so it precedes every
    /// `add_clause` call and that empty clause is never missing.
    pub fn proof_logger(mut self, logger: Box<dyn ProofLogger>) -> Self {
        self.proof = Some(logger);
        self
    }

    /// Attaches a [`Budget`] polled inside the CDCL loop (every
    /// [`Solver::CANCEL_POLL_CONFLICTS`] conflicts and every
    /// [`Solver::CANCEL_POLL_DECISIONS`] decisions): a passed deadline or
    /// fired cancellation token turns the running
    /// [`solve`](Solver::solve) into [`SolveResult::Unknown`] within a
    /// bounded amount of work.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a cancellation token; shorthand for wrapping it into the
    /// [`budget`](Self::budget). The portfolio engine relies on this to
    /// tear down losing workers without waiting out a long CDCL run.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Validates the configuration and produces the solver.
    ///
    /// # Errors
    ///
    /// The first [`SatConfigError`] found in the configuration.
    pub fn build(self) -> Result<Solver, SatConfigError> {
        self.config.validate()?;
        let budget = match self.cancel {
            Some(token) => self.budget.with_cancel_token(token),
            None => self.budget,
        };
        Ok(Solver {
            arena: ClauseArena::new(),
            watches: FlatWatches::new(),
            bin_watches: FlatWatches::new(),
            assigns: Vec::new(),
            lit_vals: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            order: VarOrder::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            ok: true,
            model: Vec::new(),
            failed: Vec::new(),
            restart: RestartSched::new(),
            num_originals: 0,
            next_tier2_sweep: TIER2_INTERVAL,
            config: self.config,
            budget,
            stats: SolverStats::default(),
            analyze_clear: Vec::new(),
            minimize_keep: Vec::new(),
            lbd_levels: Vec::new(),
            proof: self.proof,
            obs: self.obs.unwrap_or_else(Obs::disabled),
        })
    }
}

impl Solver {
    /// Conflict interval between budget/cancellation polls inside the
    /// CDCL loop — small enough that a fired [`CancelToken`] or passed
    /// deadline is observed within a few milliseconds of propagation
    /// work.
    pub const CANCEL_POLL_CONFLICTS: u64 = 256;
    /// Decision interval between budget/cancellation polls on
    /// conflict-free stretches.
    pub const CANCEL_POLL_DECISIONS: u64 = 1024;

    /// Creates a solver with the default configuration, no observer, no
    /// proof logger and an unlimited budget.
    #[must_use]
    pub fn new() -> Self {
        Solver::builder()
            .build()
            .expect("default SatConfig is valid")
    }

    /// A builder for a configured solver.
    pub fn builder() -> SolverBuilder {
        SolverBuilder::default()
    }

    /// The search configuration the solver was built with.
    #[must_use]
    pub fn config(&self) -> &SatConfig {
        &self.config
    }

    /// `true` if a proof logger is attached and has recorded an emission
    /// failure (the proof is incomplete and must not be trusted).
    #[must_use]
    pub fn proof_had_error(&self) -> bool {
        self.proof.as_ref().is_some_and(|p| p.had_error())
    }

    #[inline]
    fn proof_add(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.add_clause(lits);
        }
    }

    #[inline]
    fn proof_delete(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.delete_clause(lits);
        }
    }

    /// Returns the number of allocated variables.
    #[must_use]
    pub fn num_vars(&self) -> u32 {
        self.assigns.len() as u32
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let var = Var::new(self.num_vars());
        self.assigns.push(Lbool::Undef);
        self.lit_vals.push(Lbool::Undef);
        self.lit_vals.push(Lbool::Undef);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.add_var();
        self.bin_watches.add_var();
        self.order.insert(var, &self.activity);
        var
    }

    /// Ensures at least `n` variables exist.
    pub fn ensure_vars(&mut self, n: u32) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    /// Returns the cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Adds a clause; returns `false` if the solver became trivially
    /// unsatisfiable (the clause is empty after level-0 simplification, or a
    /// previous conflict was already recorded).
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        debug_assert!(
            self.trail_lim.is_empty(),
            "add_clause at decision level 0 only"
        );
        if !self.ok {
            return false;
        }
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        for &lit in &lits {
            self.ensure_vars(lit.var().bound());
        }
        lits.sort_unstable();
        lits.dedup();
        // Tautology or satisfied at level 0?
        if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
            return true;
        }
        // Level-0 strengthening and satisfied clauses are not logged: the
        // checker loads the original and propagates the root to a
        // fixpoint, under which the original acts as the shrunk clause.
        // Only a clause it empties must be logged, as the refutation.
        let had_lits = !lits.is_empty();
        lits.retain(|&l| self.value(l) != Lbool::False);
        if lits.iter().any(|&l| self.value(l) == Lbool::True) {
            return true;
        }
        match lits.len() {
            0 => {
                self.ok = false;
                if had_lits {
                    self.proof_add(&[]);
                }
                false
            }
            1 => {
                self.unchecked_enqueue(lits[0], NO_REASON);
                self.ok = self.propagate().is_none();
                if !self.ok {
                    self.proof_add(&[]);
                }
                self.ok
            }
            _ => {
                self.attach_new_clause(&lits, false);
                true
            }
        }
    }

    /// Adds every clause of `cnf`; returns `false` on trivial conflict.
    pub fn add_cnf(&mut self, cnf: &Cnf) -> bool {
        self.ensure_vars(cnf.num_vars());
        let mut ok = true;
        for clause in cnf.clauses() {
            ok &= self.add_clause(clause.lits().iter().copied());
        }
        ok
    }

    fn attach_new_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt);
        self.num_originals += usize::from(!learnt);
        // Binary clauses go to the dedicated store where the blocker is
        // the whole remainder of the clause; longer clauses watch their
        // first two positions in the general store.
        let store = if lits.len() == 2 {
            &mut self.bin_watches
        } else {
            &mut self.watches
        };
        store.push(
            lits[0].uidx(),
            Watch {
                cref,
                blocker: lits[1],
            },
        );
        store.push(
            lits[1].uidx(),
            Watch {
                cref,
                blocker: lits[0],
            },
        );
        cref
    }

    #[inline]
    pub(crate) fn value(&self, lit: Lit) -> Lbool {
        let v = self.assigns[lit.var().uidx()];
        if v == Lbool::Undef {
            Lbool::Undef
        } else if lit.is_negative() {
            if v == Lbool::True {
                Lbool::False
            } else {
                Lbool::True
            }
        } else {
            v
        }
    }

    /// Returns the polarity of `var` in the most recent model, if any.
    #[must_use]
    pub fn model_value(&self, var: Var) -> Option<bool> {
        match self.model.get(var.uidx()) {
            Some(Lbool::True) => Some(true),
            Some(Lbool::False) => Some(false),
            _ => None,
        }
    }

    /// Returns the most recent model as an [`Assignment`].
    ///
    /// Variables that were never assigned by the solver default to `false`
    /// so the result is total over all allocated variables.
    #[must_use]
    pub fn model(&self) -> Assignment {
        let mut assignment = Assignment::with_num_vars(self.model.len() as u32);
        for (var, &value) in (0u32..).map(Var::new).zip(self.model.iter()) {
            assignment.assign(var, value == Lbool::True);
        }
        assignment
    }

    /// After an `Unsat` answer under assumptions: the subset of assumptions
    /// proved contradictory (a "failed core", possibly non-minimal).
    #[must_use]
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    /// Emits the stats delta accumulated since `before` (one solve
    /// call's worth of work) to the attached observer, if any.
    fn flush_obs(&self, before: SolverStats) {
        if !self.obs.is_enabled() {
            return;
        }
        let now = self.stats;
        self.obs.add(
            Metric::SatConflicts,
            now.conflicts.saturating_sub(before.conflicts),
        );
        self.obs.add(
            Metric::SatPropagations,
            now.propagations.saturating_sub(before.propagations),
        );
        self.obs.add(
            Metric::SatDecisions,
            now.decisions.saturating_sub(before.decisions),
        );
        self.obs.add(
            Metric::SatRestarts,
            now.restarts.saturating_sub(before.restarts),
        );
        self.obs.add(
            Metric::SatRestartSwitches,
            now.restart_mode_switches
                .saturating_sub(before.restart_mode_switches),
        );
        self.obs.add(
            Metric::SatChronoBacktracks,
            now.chrono_backtracks
                .saturating_sub(before.chrono_backtracks),
        );
        self.obs.add(
            Metric::SatArenaGcs,
            now.arena_gcs.saturating_sub(before.arena_gcs),
        );
        self.obs.add(
            Metric::SatArenaReclaimedWords,
            now.arena_words_reclaimed
                .saturating_sub(before.arena_words_reclaimed),
        );
        self.obs
            .gauge_max(Metric::SatCoreClausesPeak, now.core_clauses);
        self.obs
            .gauge_max(Metric::SatTier2ClausesPeak, now.tier2_clauses);
        self.obs
            .gauge_max(Metric::SatLocalClausesPeak, now.local_clauses);
    }

    /// Solves under the given assumptions (pass `&[]` for none) as one
    /// query of a long-lived incremental session — the MiniSat-lineage
    /// `solve_limited` idiom the serving architecture is built on.
    ///
    /// * **Warm state.** Learnt clauses (and their tiers), variable
    ///   activities and saved phases survive the call, so a closely
    ///   related follow-up query spends fewer conflicts than a cold
    ///   solver on the same formula.
    /// * **Mutation between queries.** [`Solver::add_clause`] may be
    ///   called between queries (every query exits at decision level 0);
    ///   previously learnt clauses stay sound because adding clauses
    ///   only strengthens the formula. To *retract* clauses later, guard
    ///   them with a fresh selector literal and assume it here.
    /// * **Assumption-scoped verdicts.** [`SolveResult::Unsat`] means
    ///   "unsatisfiable *under these assumptions*"; the solver stays
    ///   usable and [`Solver::failed_assumptions`] names a responsible
    ///   subset of the assumptions.
    /// * **Proofs and cancellation.** An attached [`ProofLogger`] keeps
    ///   accumulating DRAT steps across queries (the proof stream covers
    ///   the conjunction of every clause ever added), and the attached
    ///   [`Budget`] is polled inside each query.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.obs.add(Metric::SatCalls, 1);
        let stats_before = self.stats;
        self.failed.clear();
        self.model.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        for &a in assumptions {
            // analyze::allow(cancel): bounded by the caller's assumption list
            self.ensure_vars(a.var().bound());
        }
        let result = loop {
            match self.propagate() {
                Some(confl) => {
                    self.stats.conflicts += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        self.proof_add(&[]);
                        break SolveResult::Unsat;
                    }
                    if self.current_level_has_no_decision(assumptions.len()) {
                        // Conflict forced purely by assumptions.
                        self.analyze_final_conflict(confl, assumptions);
                        break SolveResult::Unsat;
                    }
                    let (learnt, backjump_level, lbd) = self.analyze(confl);
                    self.restart.on_conflict(lbd);
                    // Chronological backtracking: when the backjump would
                    // throw away a deep trail, step back one level instead
                    // and let the asserting literal propagate there. Unit
                    // learnts always go to level 0, and the target level
                    // stays strictly above the assumption levels.
                    let target = if learnt.len() > 1
                        && self.decision_level() > assumptions.len() + 1
                        && self.decision_level()
                            >= backjump_level + 1 + self.config.chrono_threshold as usize
                    {
                        self.stats.chrono_backtracks += 1;
                        self.decision_level() - 1
                    } else {
                        backjump_level
                    };
                    // May backjump below assumption levels; `pick_branch`
                    // re-assumes them on the next decision.
                    self.cancel_until(target);
                    self.learn(learnt, lbd);
                    self.decay_activities();
                    if self
                        .stats
                        .conflicts
                        .is_multiple_of(Self::CANCEL_POLL_CONFLICTS)
                        && self.budget.stop_requested()
                    {
                        break SolveResult::Unknown;
                    }
                }
                None => {
                    if self.decision_level() > assumptions.len() && self.restart.should_restart() {
                        self.stats.restarts += 1;
                        self.restart.on_restart();
                        self.cancel_until(self.assumption_level(assumptions.len()));
                        // The restart `continue` skips the decision-count
                        // poll below; restarts are many conflicts apart, so
                        // an unconditional poll here is cheap and keeps
                        // every iterating path covered.
                        if self.budget.stop_requested() {
                            break SolveResult::Unknown;
                        }
                        continue;
                    }
                    if self.stats.conflicts >= self.next_tier2_sweep {
                        self.sweep_tier2();
                    }
                    if self.stats.local_clauses as usize > self.local_cap() {
                        self.reduce_db();
                    }
                    // Conflict-free stretches (large satisfiable
                    // instances) must observe the budget too.
                    if self
                        .stats
                        .decisions
                        .is_multiple_of(Self::CANCEL_POLL_DECISIONS)
                        && self.budget.stop_requested()
                    {
                        break SolveResult::Unknown;
                    }
                    // Assumptions first, then decisions.
                    match self.pick_branch(assumptions) {
                        BranchOutcome::Assumed | BranchOutcome::Decided => {}
                        BranchOutcome::AssumptionConflict(lit) => {
                            self.analyze_failed_assumption(lit, assumptions);
                            break SolveResult::Unsat;
                        }
                        BranchOutcome::AllAssigned => {
                            self.model = self.assigns.clone();
                            break SolveResult::Sat;
                        }
                    }
                }
            }
        };
        self.cancel_until(0);
        self.stats.restart_mode_switches = self.restart.switches();
        self.debug_audit("after solve");
        self.flush_obs(stats_before);
        result
    }

    fn assumption_level(&self, num_assumptions: usize) -> usize {
        self.decision_level().min(num_assumptions)
    }

    fn current_level_has_no_decision(&self, num_assumptions: usize) -> bool {
        self.decision_level() > 0 && self.decision_level() <= num_assumptions
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn pick_branch(&mut self, assumptions: &[Lit]) -> BranchOutcome {
        while self.decision_level() < assumptions.len() {
            let lit = assumptions[self.decision_level()];
            match self.value(lit) {
                Lbool::True => {
                    // Already satisfied: open an empty level so the mapping
                    // decision-level == assumption index stays intact.
                    self.trail_lim.push(self.trail.len());
                }
                Lbool::False => return BranchOutcome::AssumptionConflict(lit),
                Lbool::Undef => {
                    self.trail_lim.push(self.trail.len());
                    self.unchecked_enqueue(lit, NO_REASON);
                    return BranchOutcome::Assumed;
                }
            }
        }
        loop {
            let Some(var) = self.order.pop_max(&self.activity) else {
                return BranchOutcome::AllAssigned;
            };
            if self.assigns[var.uidx()] == Lbool::Undef {
                self.stats.decisions += 1;
                let lit = Lit::new(var, !self.phase[var.uidx()]);
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(lit, NO_REASON);
                return BranchOutcome::Decided;
            }
        }
    }

    fn unchecked_enqueue(&mut self, lit: Lit, reason: ClauseRef) {
        // analyze::allow(panic) lines=8: assigns/lit_vals/level/reason are sized by ensure_vars
        let var = lit.var().uidx();
        debug_assert_eq!(self.assigns[var], Lbool::Undef);
        self.assigns[var] = Lbool::from_bool(lit.is_positive());
        self.lit_vals[lit.uidx()] = Lbool::True;
        self.lit_vals[lit.uidx() ^ 1] = Lbool::False;
        self.level[var] = self.decision_level() as u32;
        self.reason[var] = reason;
        self.trail.push(lit);
    }

    fn propagate(&mut self) -> Option<ClauseRef> {
        // Indexing in this loop is invariant-backed: `ranges`, `assigns`,
        // `level` and `reason` are sized by `ensure_vars` before any
        // literal is minted, crefs index the solver's own clause arena,
        // and watched positions 0/1 exist because clauses of length < 2
        // never enter the watch lists. Pushing a new watch for another
        // literal can never move the bucket being scanned: the falsified
        // literal's own bucket only shrinks here.
        // analyze::allow(panic) lines=110: bounds established by ensure_vars and the watch invariant
        while let Some(&p) = self.trail.get(self.qhead) {
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let code = false_lit.uidx();
            // Binary clauses first: the blocker is the entire rest of the
            // clause, so each visit is a single assignment lookup — no
            // arena access, no watch relocation, and (because binary
            // clauses are never deleted) no lazy-drop compaction.
            let bin_start = self.bin_watches.ranges[code].start as usize;
            let bin_len = self.bin_watches.ranges[code].len as usize;
            for j in 0..bin_len {
                let watch = self.bin_watches.data[bin_start + j];
                match self.lit_vals[watch.blocker.uidx()] {
                    Lbool::True => {}
                    Lbool::Undef => {
                        // A propagated literal must lead its reason
                        // clause (conflict analysis and the audit skip
                        // position 0 of reasons), so order the pair now.
                        let lits_at = ClauseArena::lits_start(watch.cref);
                        if self.arena.words[lits_at] != watch.blocker.code() {
                            self.arena.swap_lits(watch.cref, 0, 1);
                        }
                        self.unchecked_enqueue(watch.blocker, watch.cref);
                    }
                    Lbool::False => {
                        self.qhead = self.trail.len();
                        return Some(watch.cref);
                    }
                }
            }
            let start = self.watches.ranges[code].start as usize;
            let len = self.watches.ranges[code].len as usize;
            let mut kept = 0usize;
            let mut conflict = None;
            let mut i = 0usize;
            'watches: while i < len {
                let watch = self.watches.data[start + i];
                i += 1;
                if self.lit_vals[watch.blocker.uidx()] == Lbool::True {
                    self.watches.data[start + kept] = watch;
                    kept += 1;
                    continue;
                }
                let cref = watch.cref;
                // Deleted clauses may linger in watch lists; drop lazily.
                if self.arena.is_deleted(cref) {
                    continue;
                }
                let lits_at = ClauseArena::lits_start(cref);
                // Make sure the false literal is at position 1.
                if self.arena.words[lits_at] == false_lit.code() {
                    self.arena.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.arena.words[lits_at + 1], false_lit.code());
                let first = Lit::from_code(self.arena.words[lits_at]);
                if first != watch.blocker && self.lit_vals[first.uidx()] == Lbool::True {
                    self.watches.data[start + kept] = Watch {
                        cref,
                        blocker: first,
                    };
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let clen = self.arena.len(cref);
                for k in 2..clen {
                    let candidate = Lit::from_code(self.arena.words[lits_at + k]);
                    if self.lit_vals[candidate.uidx()] != Lbool::False {
                        self.arena.swap_lits(cref, 1, k);
                        self.watches.push(
                            candidate.uidx(),
                            Watch {
                                cref,
                                blocker: first,
                            },
                        );
                        continue 'watches;
                    }
                }
                // No new watch: unit or conflict.
                self.watches.data[start + kept] = Watch {
                    cref,
                    blocker: first,
                };
                kept += 1;
                if self.lit_vals[first.uidx()] == Lbool::False {
                    conflict = Some(cref);
                    // Copy remaining watches back before bailing out.
                    while i < len {
                        self.watches.data[start + kept] = self.watches.data[start + i];
                        kept += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    break;
                }
                self.unchecked_enqueue(first, cref);
            }
            self.watches.truncate(code, kept);
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis; returns (learnt clause with asserting
    /// literal first, backtrack level, LBD).
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, usize, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::positive(Var::new(0))]; // placeholder for UIP
        let mut path_count = 0u32;
        let mut first_clause = true;
        let mut index = self.trail.len();
        let mut confl = confl;

        // Indexing below is invariant-backed: `seen`/`level`/`reason` are
        // sized by `ensure_vars`, the trail walk stays within bounds
        // because the first UIP is found before `index` underruns, and
        // crefs come from the solver's own clause arena.
        // analyze::allow(panic) lines=85: bounds established by ensure_vars and first-UIP termination
        loop {
            self.bump_clause(confl);
            // The conflict clause contributes every literal; reason
            // clauses skip the propagated literal at position 0.
            let start = usize::from(!first_clause);
            first_clause = false;
            let lits_at = ClauseArena::lits_start(confl);
            // Iterate over the conflict/reason clause literals.
            for k in start..self.arena.len(confl) {
                let q = Lit::from_code(self.arena.words[lits_at + k]);
                let var = q.var().uidx();
                if !self.seen[var] && self.level[var] > 0 {
                    self.seen[var] = true;
                    self.bump_var(q.var());
                    if self.level[var] as usize >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next literal on the current level to expand.
            let p_lit = loop {
                index -= 1;
                let lit = self.trail[index];
                if self.seen[lit.var().uidx()] {
                    break lit;
                }
            };
            path_count -= 1;
            self.seen[p_lit.var().uidx()] = false;
            if path_count == 0 {
                learnt[0] = !p_lit;
                break;
            }
            confl = self.reason[p_lit.var().uidx()];
            debug_assert_ne!(
                confl, NO_REASON,
                "non-decision on conflict path has a reason"
            );
        }

        // Mark remaining literals seen for minimisation bookkeeping, and
        // remember every variable so flags are cleared even for literals the
        // minimisation drops.
        for &lit in &learnt[1..] {
            self.seen[lit.var().uidx()] = true;
            self.analyze_clear.push(lit.var());
        }
        self.minimize(&mut learnt);

        // Compute backtrack level: second highest level in the clause.
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_pos = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var().uidx()] > self.level[learnt[max_pos].var().uidx()] {
                    max_pos = k;
                }
            }
            learnt.swap(1, max_pos);
            self.level[learnt[1].var().uidx()] as usize
        };

        let lbd = self.compute_lbd(&learnt);
        for &lit in &learnt {
            self.seen[lit.var().uidx()] = false;
        }
        for &var in &self.analyze_clear {
            self.seen[var.uidx()] = false;
        }
        self.analyze_clear.clear();
        (learnt, backtrack_level, lbd)
    }

    /// Local clause minimisation: drop literals whose reason clause is fully
    /// covered by other seen literals (self-subsuming resolution).
    fn minimize(&mut self, learnt: &mut Vec<Lit>) {
        // analyze::allow(panic) lines=25: reason crefs index live clauses; seen/level sized by ensure_vars
        let mut keep = std::mem::take(&mut self.minimize_keep);
        keep.clear();
        keep.resize(learnt.len(), true);
        for (i, &lit) in learnt.iter().enumerate().skip(1) {
            let reason = self.reason[lit.var().uidx()];
            if reason == NO_REASON {
                continue;
            }
            let mut redundant = true;
            let lits_at = ClauseArena::lits_start(reason);
            for k in 1..self.arena.len(reason) {
                let q = Lit::from_code(self.arena.words[lits_at + k]);
                let var = q.var().uidx();
                if !self.seen[var] && self.level[var] > 0 {
                    redundant = false;
                    break;
                }
            }
            if redundant {
                keep[i] = false;
            }
        }
        let mut idx = 0;
        learnt.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        self.minimize_keep = keep;
    }

    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        let mut levels = std::mem::take(&mut self.lbd_levels);
        levels.clear();
        // analyze::allow(panic): learnt-clause literals were assigned, so level is in bounds
        levels.extend(lits.iter().map(|l| self.level[l.var().uidx()]));
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;
        self.lbd_levels = levels;
        lbd
    }

    /// Recomputes the LBD of a stored clause from the current trail. Only
    /// called from conflict analysis, where every literal of the clause
    /// is assigned, so the levels are meaningful.
    fn clause_lbd(&mut self, cref: ClauseRef) -> u32 {
        let mut levels = std::mem::take(&mut self.lbd_levels);
        levels.clear();
        let lits_at = ClauseArena::lits_start(cref);
        // analyze::allow(panic) lines=4: clause literals were assigned, so level is in bounds
        for k in 0..self.arena.len(cref) {
            let var = Lit::from_code(self.arena.words[lits_at + k]).var();
            levels.push(self.level[var.uidx()]);
        }
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;
        self.lbd_levels = levels;
        lbd
    }

    fn tier_for_lbd(&self, lbd: u32) -> Tier {
        if lbd <= self.config.core_lbd_cutoff {
            Tier::Core
        } else if lbd <= self.config.tier2_lbd_cutoff {
            Tier::Tier2
        } else {
            Tier::Local
        }
    }

    fn tier_count(&mut self, tier: Tier) -> &mut u64 {
        match tier {
            Tier::Core => &mut self.stats.core_clauses,
            Tier::Tier2 => &mut self.stats.tier2_clauses,
            Tier::Local => &mut self.stats.local_clauses,
        }
    }

    /// Moves `cref` to the tier its (tightened) LBD calls for, if that is
    /// a promotion. Demotion only happens through the tier2 sweep.
    fn maybe_promote(&mut self, cref: ClauseRef, lbd: u32) {
        let target = self.tier_for_lbd(lbd);
        let current = self.arena.tier(cref);
        if (target as u8) < (current as u8) {
            self.arena.set_tier(cref, target);
            *self.tier_count(current) -= 1;
            *self.tier_count(target) += 1;
        }
    }

    fn learn(&mut self, learnt: Vec<Lit>, lbd: u32) {
        self.proof_add(&learnt);
        let asserting = learnt[0];
        if learnt.len() == 1 {
            self.unchecked_enqueue(asserting, NO_REASON);
        } else {
            let cref = self.attach_new_clause(&learnt, true);
            self.arena.set_lbd(cref, lbd);
            self.arena.set_activity(cref, self.clause_inc);
            let tier = self.tier_for_lbd(lbd);
            self.arena.set_tier(cref, tier);
            *self.tier_count(tier) += 1;
            self.unchecked_enqueue(asserting, cref);
        }
    }

    fn cancel_until(&mut self, target_level: usize) {
        if self.decision_level() <= target_level {
            return;
        }
        let boundary = self.trail_lim[target_level];
        for i in (boundary..self.trail.len()).rev() {
            let lit = self.trail[i];
            let var = lit.var();
            self.phase[var.uidx()] = lit.is_positive();
            self.assigns[var.uidx()] = Lbool::Undef;
            self.lit_vals[lit.uidx()] = Lbool::Undef;
            self.lit_vals[lit.uidx() ^ 1] = Lbool::Undef;
            self.reason[var.uidx()] = NO_REASON;
            self.order.insert(var, &self.activity);
        }
        self.trail.truncate(boundary);
        self.trail_lim.truncate(target_level);
        self.qhead = self.trail.len();
        self.debug_audit("after backtrack");
    }

    fn bump_var(&mut self, var: Var) {
        // analyze::allow(panic) lines=3: activity is sized by ensure_vars
        let idx = var.uidx();
        self.activity[idx] += self.var_inc;
        if self.activity[idx] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(var, &self.activity);
    }

    /// Bumps a clause met during conflict analysis: activity, the
    /// used-recently flag (consumed by the tier2 sweep and the reduction
    /// second chance), and — on the first use in the current window — an
    /// LBD tightening with possible tier promotion.
    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.arena.is_learnt(cref) {
            return;
        }
        if !self.arena.is_used(cref) {
            self.arena.set_used(cref, true);
            let tightened = self.clause_lbd(cref);
            if tightened < self.arena.lbd(cref) {
                self.arena.set_lbd(cref, tightened);
                self.maybe_promote(cref, tightened);
            }
        }
        let activity = self.arena.activity(cref) + self.clause_inc;
        self.arena.set_activity(cref, activity);
        if activity > 1e20 {
            // Rescale every learnt clause's activity; one arena sweep,
            // and rare (the increment grows 0.1% per conflict).
            let mut off = 0u32;
            while (off as usize) < self.arena.words.len() {
                if self.arena.is_learnt(off) {
                    let a = self.arena.activity(off);
                    self.arena.set_activity(off, a * 1e-20);
                }
                off += (HEADER_WORDS + self.arena.len(off)) as u32;
            }
            self.clause_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.clause_inc /= 0.999;
    }

    /// Demotes tier2 clauses that were not used in any conflict since the
    /// last sweep to the local tier, and re-arms every survivor's
    /// used-flag for the next window.
    fn sweep_tier2(&mut self) {
        let mut off = 0u32;
        while (off as usize) < self.arena.words.len() {
            let c = off;
            off += (HEADER_WORDS + self.arena.len(c)) as u32;
            if self.arena.is_deleted(c)
                || !self.arena.is_learnt(c)
                || self.arena.tier(c) != Tier::Tier2
            {
                continue;
            }
            if self.arena.is_used(c) {
                self.arena.set_used(c, false);
            } else {
                self.arena.set_tier(c, Tier::Local);
                self.stats.tier2_clauses -= 1;
                self.stats.local_clauses += 1;
            }
        }
        self.next_tier2_sweep = self.stats.conflicts + TIER2_INTERVAL;
    }

    /// Halves the local tier: unused, unlocked local clauses are deleted
    /// worst-first (high LBD, then low activity); recently used ones get
    /// a second chance (their used-flag is spent instead). Core and
    /// tier2 clauses are never touched here.
    fn reduce_db(&mut self) {
        let mut candidates: Vec<ClauseRef> = Vec::new();
        let mut off = 0u32;
        while (off as usize) < self.arena.words.len() {
            let c = off;
            off += (HEADER_WORDS + self.arena.len(c)) as u32;
            if self.arena.is_deleted(c)
                || !self.arena.is_learnt(c)
                || self.arena.tier(c) != Tier::Local
                || self.arena.len(c) <= 2
                || self.is_locked(c)
            {
                continue;
            }
            if self.arena.is_used(c) {
                // Second chance: spend the used-flag instead of deleting.
                self.arena.set_used(c, false);
                continue;
            }
            candidates.push(c);
        }
        // Worst first: high LBD, then low activity.
        candidates.sort_by(|&a, &b| {
            self.arena.lbd(b).cmp(&self.arena.lbd(a)).then(
                self.arena
                    .activity(a)
                    .partial_cmp(&self.arena.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let to_delete = candidates.len() / 2;
        for &c in candidates.iter().take(to_delete) {
            if self.proof.is_some() {
                let lits = self.arena.lits_vec(c);
                self.proof_delete(&lits);
            }
            self.arena.mark_deleted(c);
            self.stats.local_clauses -= 1;
            self.stats.deleted_clauses += 1;
        }
        self.stats.reductions += 1;
        self.maybe_gc();
        self.debug_audit("after reduce_db");
    }

    /// The local-tier size that triggers the next database reduction:
    /// the configured cap, additionally bounded by half the original
    /// formula (small instances keep proportionally small learnt
    /// databases, the MiniSat `max_learnts` lineage), growing by the
    /// configured amount after every reduction.
    fn local_cap(&self) -> usize {
        self.config.local_cap.min((self.num_originals / 2).max(128))
            + self.stats.reductions as usize * self.config.local_cap_growth
    }

    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.arena.lit(cref, 0);
        self.value(first) == Lbool::True && self.reason[first.var().uidx()] == cref
    }

    /// Compacts the clause arena once the deleted share grows past a
    /// quarter of the store (and at least 1 KiW), remapping reason
    /// references and rebuilding the watch store.
    fn maybe_gc(&mut self) {
        let wasted = self.arena.wasted_words();
        if wasted >= 1024 && wasted * 4 >= self.arena.words.len() {
            self.collect_garbage();
        }
    }

    fn collect_garbage(&mut self) {
        let reclaimed = self.arena.wasted_words();
        let remap = self.arena.collect_garbage();
        let lookup = |c: ClauseRef| -> Option<ClauseRef> {
            remap
                .binary_search_by_key(&c, |&(old, _)| old)
                .ok()
                .map(|i| remap[i].1)
        };
        // Reason clauses are locked and never deleted, so every live
        // reason reference survives the compaction.
        for r in &mut self.reason {
            if *r != NO_REASON {
                *r = lookup(*r).expect("reason clause survives GC");
            }
        }
        // Watch entries for deleted clauses are dropped here; the stores
        // compact their relocation waste in the same pass. Binary clauses
        // are never deleted, so their remap always succeeds.
        self.watches.remap_and_compact(lookup);
        self.bin_watches.remap_and_compact(lookup);
        self.stats.arena_gcs += 1;
        self.stats.arena_words_reclaimed += reclaimed as u64;
        self.debug_audit("after arena gc");
    }

    /// An assumption literal was already false when it was to be assumed:
    /// compute the subset of assumptions responsible.
    fn analyze_failed_assumption(&mut self, lit: Lit, assumptions: &[Lit]) {
        self.failed.clear();
        self.failed.push(lit);
        // Walk the implication graph from !lit back to assumptions.
        let start_var = lit.var();
        if self.level[start_var.uidx()] == 0 {
            return;
        }
        let mut seen = vec![false; self.num_vars() as usize];
        seen[start_var.uidx()] = true;
        for i in (0..self.trail.len()).rev() {
            let t = self.trail[i];
            let var = t.var().uidx();
            if !seen[var] {
                continue;
            }
            let reason = self.reason[var];
            if reason == NO_REASON {
                if assumptions.contains(&t) && t.var() != lit.var() {
                    self.failed.push(t);
                }
            } else {
                for k in 1..self.arena.len(reason) {
                    let q = self.arena.lit(reason, k);
                    if self.level[q.var().uidx()] > 0 {
                        seen[q.var().uidx()] = true;
                    }
                }
            }
        }
    }

    /// A conflict occurred with only assumption levels on the trail.
    fn analyze_final_conflict(&mut self, confl: ClauseRef, assumptions: &[Lit]) {
        self.failed.clear();
        let mut seen = vec![false; self.num_vars() as usize];
        for k in 0..self.arena.len(confl) {
            let q = self.arena.lit(confl, k);
            if self.level[q.var().uidx()] > 0 {
                seen[q.var().uidx()] = true;
            }
        }
        for i in (0..self.trail.len()).rev() {
            let t = self.trail[i];
            let var = t.var().uidx();
            if !seen[var] {
                continue;
            }
            let reason = self.reason[var];
            if reason == NO_REASON {
                if assumptions.contains(&t) {
                    self.failed.push(t);
                }
            } else {
                for k in 1..self.arena.len(reason) {
                    let q = self.arena.lit(reason, k);
                    if self.level[q.var().uidx()] > 0 {
                        seen[q.var().uidx()] = true;
                    }
                }
            }
        }
    }
}

enum BranchOutcome {
    Assumed,
    Decided,
    AssumptionConflict(Lit),
    AllAssigned,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(value: i64) -> Lit {
        Lit::from_dimacs(value).unwrap()
    }

    fn solver_with(clauses: &[&[i64]]) -> Solver {
        let mut s = Solver::new();
        for c in clauses {
            s.add_clause(c.iter().map(|&v| lit(v)));
        }
        s
    }

    fn add_pigeonhole(s: &mut Solver, pigeons: i64, holes: i64) {
        let var = |p: i64, h: i64| (p - 1) * holes + h;
        for p in 1..=pigeons {
            s.add_clause((1..=holes).map(|h| lit(var(p, h))));
        }
        for h in 1..=holes {
            for p1 in 1..=pigeons {
                for p2 in (p1 + 1)..=pigeons {
                    s.add_clause([lit(-var(p1, h)), lit(-var(p2, h))]);
                }
            }
        }
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn unit_conflict_is_unsat() {
        let mut s = solver_with(&[&[1], &[-1]]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        // Stays UNSAT on repeated calls.
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn simple_sat_with_model() {
        let mut s = solver_with(&[&[1, 2], &[-1, 2], &[1, -2]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let a = s.model_value(Var::new(0)).unwrap();
        let b = s.model_value(Var::new(1)).unwrap();
        // The clause set (a∨b)(¬a∨b)(a∨¬b) forces a = b = true.
        assert!(a && b);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        let mut s = Solver::new();
        add_pigeonhole(&mut s, 3, 2);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn chain_propagation() {
        // x1 and a long implication chain forcing x50.
        let mut s = Solver::new();
        s.add_clause([lit(1)]);
        for i in 1..50i64 {
            s.add_clause([lit(-i), lit(i + 1)]);
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(Var::new(49)), Some(true));
    }

    #[test]
    fn assumptions_sat_and_unsat() {
        let mut s = solver_with(&[&[1, 2]]);
        assert_eq!(s.solve(&[lit(-1)]), SolveResult::Sat);
        assert_eq!(s.model_value(Var::new(1)), Some(true));
        assert_eq!(s.solve(&[lit(-1), lit(-2)]), SolveResult::Unsat);
        let failed = s.failed_assumptions().to_vec();
        assert!(!failed.is_empty());
        // Solver is still usable and SAT without assumptions.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = solver_with(&[&[1, 2]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        s.add_clause([lit(-1)]);
        s.add_clause([lit(-2)]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn tautological_clause_ignored() {
        let mut s = Solver::new();
        assert!(s.add_clause([lit(1), lit(-1)]));
        assert!(s.add_clause([lit(2)]));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn duplicate_literals_collapse() {
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(1), lit(1)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(Var::new(0)), Some(true));
    }

    #[test]
    fn budget_cancellation_returns_unknown() {
        let token = CancelToken::new();
        token.cancel("pre-fired in test");
        let mut s = Solver::builder()
            .cancel_token(token)
            .build()
            .expect("valid");
        add_pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
    }

    #[test]
    fn stats_move() {
        let mut s = solver_with(&[&[1, 2], &[-1, -2], &[1, -2], &[-1, 2]]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn chrono_backtracking_fires_on_deep_jumps() {
        // A low threshold plus a conflict-heavy instance makes distant
        // backjumps common enough to take the chronological path.
        let config = SatConfig {
            chrono_threshold: 2,
            ..SatConfig::default()
        };
        let mut s = Solver::builder().config(config).build().expect("valid");
        add_pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(
            s.stats().chrono_backtracks > 0,
            "expected chronological backtracks on PHP with threshold 2"
        );
    }

    #[test]
    fn tier_counters_track_learnts() {
        let mut s = Solver::new();
        add_pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let stats = s.stats();
        assert!(
            stats.core_clauses + stats.tier2_clauses + stats.local_clauses > 0,
            "UNSAT proof must have learnt clauses"
        );
    }

    #[test]
    fn reduction_and_gc_fire_under_small_caps() {
        let config = SatConfig {
            local_cap: 20,
            local_cap_growth: 5,
            ..SatConfig::default()
        };
        let mut s = Solver::builder().config(config).build().expect("valid");
        add_pigeonhole(&mut s, 8, 7);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let stats = s.stats();
        assert!(stats.deleted_clauses > 0, "reduction must delete clauses");
        assert!(stats.arena_gcs > 0, "deletions this heavy must trigger GC");
        assert!(stats.arena_words_reclaimed > 0);
    }
}
