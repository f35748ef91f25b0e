//! The HQS main loop (Fig. 3 of the paper).

use crate::build::build_aig;
use crate::depgraph::DepGraph;
use crate::elim::AigDqbf;
use crate::elimset::minimal_elimination_set_observed;
use crate::preprocess::{preprocess, PreprocessResult, PreprocessStats};
use crate::Dqbf;
use hqs_aig::UnitPureBatch;
use hqs_base::{Budget, Exhaustion, Var};
use hqs_cnf::Quantifier;
use hqs_obs::{Metric, Obs, Phase, SpanGuard};
use std::fmt;

/// Result of a DQBF solve.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DqbfResult {
    /// The formula is satisfied (Skolem functions exist).
    Sat,
    /// The formula is unsatisfied.
    Unsat,
    /// A resource limit was hit first (paper: TO/MO).
    Limit(Exhaustion),
}

/// A verdict bundled with its machine-checkable certificate, as returned
/// by [`Session::solve_certified`](crate::Session::solve_certified),
/// which checks each certificate exactly once.
#[derive(Clone, Debug)]
pub enum CertifiedOutcome {
    /// Satisfied; the certificate holds explicit Skolem function tables
    /// and has passed
    /// [`verify`](crate::skolem::SkolemCertificate::verify).
    Sat(crate::skolem::SkolemCertificate),
    /// Unsatisfied; the certificate holds the expansion trace and a DRAT
    /// proof and has passed
    /// [`verify`](crate::refute::RefutationCertificate::verify).
    Unsat(crate::refute::RefutationCertificate),
    /// A resource limit was hit; no verdict, no certificate.
    Limit(Exhaustion),
}

/// Why [`Session::solve_certified`](crate::Session::solve_certified)
/// could not certify a verdict.
///
/// Apart from [`CertifyError::TooLarge`], every variant indicates an
/// internal soundness bug: the solver's verdict and the independent
/// certification machinery disagree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CertifyError {
    /// The formula exceeds the expansion limit
    /// ([`MAX_EXPANSION_UNIVERSALS`](crate::expand::MAX_EXPANSION_UNIVERSALS));
    /// certificates are built over the universal expansion.
    TooLarge,
    /// The solver said SAT but no Skolem certificate could be extracted
    /// (the expansion is unsatisfiable): a soundness disagreement.
    SatNotCertified,
    /// The solver said UNSAT but no refutation could be extracted (the
    /// expansion is satisfiable, or proof logging failed): a soundness
    /// disagreement.
    UnsatNotCertified,
    /// A certificate was produced but failed its verification — for a
    /// refutation, the checker rejected its trace or its DRAT proof: a
    /// bug in the certificate machinery itself.
    CertificateRejected,
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::TooLarge => write!(
                f,
                "formula exceeds the universal-expansion limit for certification"
            ),
            CertifyError::SatNotCertified => {
                write!(f, "SAT verdict could not be certified (soundness bug)")
            }
            CertifyError::UnsatNotCertified => {
                write!(f, "UNSAT verdict could not be certified (soundness bug)")
            }
            CertifyError::CertificateRejected => {
                write!(f, "certificate failed its own verification (soundness bug)")
            }
        }
    }
}

impl std::error::Error for CertifyError {}

/// Which universal variables the main loop eliminates.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ElimStrategy {
    /// HQS: the MaxSAT-minimal set that linearises the prefix (Eq. 1–2),
    /// ordered by the number of existential copies each elimination
    /// introduces. Once the dependency graph is acyclic, the loop decides
    /// the remaining QBF in its finish phase.
    #[default]
    MaxSatMinimal,
    /// The baseline of Gitina et al. 2013 (\[10\]): eliminate *all* universal
    /// variables (cheapest first) until a plain SAT instance remains —
    /// no QBF finish with universals, no MaxSAT selection.
    AllUniversals,
}

/// Configuration of the solver, carried by every
/// [`Session`](crate::Session).
///
/// `Clone` but not `Copy`: the embedded [`Budget`] may carry a shared
/// [`hqs_base::CancelToken`], and cloning a config deliberately shares
/// that token — the portfolio engine clones one budget (with its token)
/// into every deck variant so all workers observe the same cancellation.
#[derive(Clone, Debug)]
pub struct HqsConfig {
    /// Resource budget (wall clock + AIG nodes).
    pub budget: Budget,
    /// Run the CNF preprocessing pipeline (§III-C).
    pub preprocess: bool,
    /// Detect and compose Tseitin gates (requires `preprocess`).
    pub gate_detection: bool,
    /// Apply Theorem 5/6 unit-pure elimination before the hand-off to the
    /// QBF finish, which applies it regardless.
    pub unit_pure: bool,
    /// Universal-elimination strategy.
    pub strategy: ElimStrategy,
    /// Re-run the full invariant audit (AIG manager + prefix bookkeeping)
    /// after every main-loop step, even in release builds; panics on the
    /// first violation. Debug builds always audit at each mutation site
    /// regardless of this flag.
    pub paranoid: bool,
    /// Make [`Session::solve_certified`](crate::Session::solve_certified)
    /// the intended entry point: verdicts then ship a Skolem or
    /// refutation certificate, checked before it is returned (the
    /// refutation's DRAT proof by the independent `hqs-proof` checker).
    pub certify: bool,
}

impl Default for HqsConfig {
    fn default() -> Self {
        HqsConfig {
            budget: Budget::new(),
            preprocess: true,
            gate_detection: true,
            unit_pure: true,
            strategy: ElimStrategy::MaxSatMinimal,
            paranoid: false,
            certify: false,
        }
    }
}

/// Counters describing one [`Session::solve`](crate::Session::solve)
/// call.
#[derive(Clone, Copy, Default, Debug)]
pub struct HqsStats {
    /// Preprocessing counters.
    pub preprocess: PreprocessStats,
    /// `true` when preprocessing alone decided the instance.
    pub decided_by_preprocessing: bool,
    /// Size of the first MaxSAT-minimal elimination set.
    pub elimination_set_size: usize,
    /// Universal variables eliminated by Theorem 1 before the hand-off.
    pub universal_elims: u64,
    /// Existential variables eliminated by Theorem 2 before the hand-off.
    pub existential_elims: u64,
    /// Variables removed by Theorem 5/6 before the hand-off.
    pub unit_pure_elims: u64,
    /// Largest AIG seen before the hand-off.
    pub peak_nodes: usize,
    /// `true` when the dependency graph became acyclic and the loop
    /// entered its QBF finish; the `qbf_*` counters are zero otherwise.
    pub reached_qbf: bool,
    /// Innermost universals the finish eliminated (Theorem 1, no copies),
    /// counted by variable, not by block.
    pub qbf_universal_elims: u64,
    /// Innermost existentials the finish eliminated (Theorem 2), counted
    /// by variable.
    pub qbf_existential_elims: u64,
    /// Variables the finish removed by Theorem 5/6.
    pub qbf_unit_pure_elims: u64,
    /// SAT calls the finish issued: one once no universal is left.
    pub qbf_sat_calls: u64,
    /// Largest AIG seen in the finish.
    pub qbf_peak_nodes: usize,
}

/// The HQS DQBF solver.
///
/// See the [crate docs](crate) for the algorithm. This is the internal
/// engine behind [`Session`](crate::Session), the only solve entry
/// point — the session adds config validation, observability and
/// cancellation wiring before delegating here.
#[derive(Debug, Default)]
pub(crate) struct HqsSolver {
    config: HqsConfig,
    stats: HqsStats,
    obs: Obs,
}

impl HqsSolver {
    /// A solver with the paper's default configuration.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn new() -> Self {
        HqsSolver::default()
    }

    /// A solver with an explicit configuration.
    #[must_use]
    pub(crate) fn with_config(config: HqsConfig) -> Self {
        HqsSolver {
            config,
            stats: HqsStats::default(),
            obs: Obs::disabled(),
        }
    }

    /// Attaches the observability handle every subsequent solve emits
    /// through ([`Session`](crate::Session) wires this up).
    pub(crate) fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Statistics of the most recent solve.
    #[must_use]
    pub(crate) fn stats(&self) -> HqsStats {
        self.stats
    }

    /// The solver's configuration.
    #[must_use]
    pub(crate) fn config(&self) -> &HqsConfig {
        &self.config
    }

    /// Decides `dqbf` (the engine entry point behind
    /// [`Session::solve`](crate::Session::solve)).
    pub(crate) fn run(&mut self, dqbf: &Dqbf) -> DqbfResult {
        self.stats = HqsStats::default();

        let (reduced, gates) = if self.config.preprocess {
            let _span = self.obs.span(Phase::Preprocess);
            match preprocess(dqbf, self.config.gate_detection) {
                PreprocessResult::Decided { value, stats } => {
                    self.stats.preprocess = stats;
                    self.stats.decided_by_preprocessing = true;
                    self.flush_preprocess(&stats);
                    return if value {
                        DqbfResult::Sat
                    } else {
                        DqbfResult::Unsat
                    };
                }
                PreprocessResult::Reduced { dqbf, gates, stats } => {
                    self.stats.preprocess = stats;
                    self.flush_preprocess(&stats);
                    (dqbf, gates)
                }
            }
        } else {
            let mut bound = dqbf.clone();
            bound.bind_free_vars();
            (bound, Vec::new())
        };

        let mut state = {
            let _span = self.obs.span(Phase::BuildAig);
            let (aig, root) = build_aig(&reduced, &gates);
            let existentials: Vec<(Var, hqs_base::VarSet)> = reduced
                .existentials()
                .iter()
                .filter(|&&y| !gates.iter().any(|g| g.output.var() == y))
                .map(|&y| (y, reduced.dependencies(y).expect("existential").clone()))
                .collect();
            AigDqbf::from_parts(
                aig,
                root,
                reduced.universals().to_vec(),
                existentials,
                reduced.num_vars(),
            )
        };
        state.aig.set_observer(self.obs.clone());
        let _span = self.obs.span(Phase::ElimLoop);
        self.main_loop(state)
    }

    /// Emits the preprocessing rule-hit counters.
    fn flush_preprocess(&self, stats: &PreprocessStats) {
        if !self.obs.is_enabled() {
            return;
        }
        self.obs.add(Metric::PreprocessUnits, stats.units);
        self.obs.add(
            Metric::PreprocessUniversalReductions,
            stats.universal_reductions,
        );
        self.obs.add(Metric::PreprocessPures, stats.pures);
        self.obs
            .add(Metric::PreprocessEquivalences, stats.equivalences);
        self.obs.add(Metric::PreprocessGates, stats.gates);
    }

    /// Certified solve (the engine entry point behind
    /// [`Session::solve_certified`](crate::Session::solve_certified),
    /// which documents the semantics and the expansion size limit).
    pub(crate) fn run_certified(&mut self, dqbf: &Dqbf) -> Result<CertifiedOutcome, CertifyError> {
        let mut bound = dqbf.clone();
        bound.bind_free_vars();
        if bound.universals().len() > crate::expand::MAX_EXPANSION_UNIVERSALS {
            return Err(CertifyError::TooLarge);
        }
        match self.run(dqbf) {
            DqbfResult::Limit(e) => Ok(CertifiedOutcome::Limit(e)),
            DqbfResult::Sat => {
                let _span = self.obs.span(Phase::Certify);
                let certificate =
                    crate::skolem::extract_skolem(dqbf).ok_or(CertifyError::SatNotCertified)?;
                if !certificate.verify(dqbf) {
                    return Err(CertifyError::CertificateRejected);
                }
                Ok(CertifiedOutcome::Sat(certificate))
            }
            DqbfResult::Unsat => {
                let _span = self.obs.span(Phase::Certify);
                let certificate = crate::refute::extract_refutation(dqbf)
                    .ok_or(CertifyError::UnsatNotCertified)?;
                if !certificate.verify(dqbf) {
                    return Err(CertifyError::CertificateRejected);
                }
                Ok(CertifiedOutcome::Unsat(certificate))
            }
        }
    }

    /// The elimination loop of Fig. 3. Until the dependency graph is
    /// acyclic it eliminates the universals of a MaxSAT-minimal set; then
    /// it linearises the prefix and, in its QBF finish phase, eliminates
    /// innermost variables until one SAT call decides what is left.
    fn main_loop(&mut self, mut state: AigDqbf) -> DqbfResult {
        // Queue of universals to eliminate, cheapest first; recomputed when
        // it runs dry while the graph is still cyclic.
        let mut queue: Vec<Var> = Vec::new();
        let mut queue_initialised = false;
        // The finish's span, opened at the hand-off; `Some` marks the phase.
        let mut finish: Option<SpanGuard> = None;
        loop {
            if self.config.paranoid {
                state.assert_invariants("in the main loop");
            }
            let nodes = state.aig.num_nodes();
            if finish.is_none() {
                self.stats.peak_nodes = self.stats.peak_nodes.max(nodes);
                self.obs.gauge_max(Metric::AigPeakNodes, nodes as u64);
            }
            if state.root() == hqs_aig::Aig::TRUE {
                return DqbfResult::Sat;
            }
            if state.root() == hqs_aig::Aig::FALSE {
                return DqbfResult::Unsat;
            }
            if finish.is_some() {
                self.stats.qbf_peak_nodes = self.stats.qbf_peak_nodes.max(nodes);
                self.obs.gauge_max(Metric::QbfPeakNodes, nodes as u64);
            }
            if let Some(e) = self.config.budget.check(nodes) {
                return DqbfResult::Limit(e);
            }
            // `unit_pure: false` switches unit/pure off before the hand-off
            // only; the finish always applies it.
            if self.config.unit_pure || finish.is_some() {
                match state.apply_unit_pure() {
                    UnitPureBatch::Refute => return DqbfResult::Unsat,
                    UnitPureBatch::Assign(values) if !values.is_empty() => {
                        let count = values.len() as u64;
                        if finish.is_some() {
                            self.stats.qbf_unit_pure_elims += count;
                            self.obs.add(Metric::QbfUnitPureElims, count);
                        } else {
                            self.stats.unit_pure_elims += count;
                            self.obs.add(Metric::UnitPureElims, count);
                        }
                        continue;
                    }
                    UnitPureBatch::Assign(_) => {}
                }
            }
            state.drop_unused();
            if finish.is_some() {
                if let Some(verdict) = self.finish_step(&mut state) {
                    return verdict;
                }
                continue;
            }
            // One Theorem-2 elimination at a time so the budget check at
            // the top of the loop can interrupt runaway growth (a PEC
            // instance without gate extraction carries hundreds of
            // total-dependency Tseitin auxiliaries).
            {
                let span = self.obs.span(Phase::ElimExistential);
                if state.eliminate_one_total_existential() {
                    self.stats.existential_elims += 1;
                    self.obs.add(Metric::ExistentialElims, 1);
                    state.reduce();
                    continue;
                }
                span.cancel();
            }

            // The hand-off (Theorem 3): an acyclic graph has an equivalent
            // QBF prefix.
            let linear = match self.config.strategy {
                ElimStrategy::MaxSatMinimal => state.linearise(),
                ElimStrategy::AllUniversals => state.universals().is_empty() && state.linearise(),
            };
            if linear {
                self.stats.reached_qbf = true;
                finish = Some(self.obs.span(Phase::QbfFinish));
                continue;
            }

            // Pick the next universal to eliminate.
            let next = loop {
                // analyze::allow(cancel): drains a finite queue, at most |queue| pops
                match queue.pop() {
                    Some(x) if state.universals().contains(&x) => break Some(x),
                    Some(_) => continue, // removed meanwhile (unit/pure)
                    None => break None,
                }
            };
            let x = match next {
                Some(x) => x,
                None => {
                    // (Re)compute the elimination queue.
                    let _span = self.obs.span(Phase::ElimSet);
                    let vars = match self.config.strategy {
                        ElimStrategy::MaxSatMinimal => {
                            let graph = DepGraph::new(&state.existential_deps());
                            let cycles = graph.binary_cycles();
                            minimal_elimination_set_observed(
                                state.universals(),
                                &cycles,
                                |x| state.copies_of(x),
                                &self.obs,
                            )
                        }
                        ElimStrategy::AllUniversals => {
                            let mut all = state.universals().to_vec();
                            all.sort_by_key(|&x| state.copies_of(x));
                            all
                        }
                    };
                    self.obs.add(Metric::ElimSetsComputed, 1);
                    self.obs.add(Metric::ElimSetChosen, vars.len() as u64);
                    self.obs.gauge_max(Metric::ElimSetSize, vars.len() as u64);
                    if !queue_initialised {
                        self.stats.elimination_set_size = vars.len();
                        queue_initialised = true;
                    }
                    // Pop from the back ⇒ store most expensive first.
                    queue = vars.into_iter().rev().collect();
                    match queue.pop() {
                        Some(x) => x,
                        None => continue, // became acyclic; loop to hand off
                    }
                }
            };
            let nodes_before = state.aig.num_nodes();
            {
                let _span = self.obs.span(Phase::ElimUniversal);
                state.eliminate_universal(x);
                self.stats.universal_elims += 1;
                state.reduce();
            }
            self.obs.add(Metric::UniversalElims, 1);
            self.obs.add(
                Metric::ElimNodeGrowth,
                state.aig.num_nodes().saturating_sub(nodes_before) as u64,
            );
        }
    }

    /// One step of the QBF finish on the linearised prefix, after
    /// unit/pure and [`AigDqbf::drop_unused`]: the final SAT call once no
    /// universal is left, else Theorem 2 on the innermost ∃ block, else
    /// Theorem 1 on the innermost ∀ block, each on up to four variables in
    /// one sweep. Returns the SAT call's verdict.
    fn finish_step(&mut self, state: &mut AigDqbf) -> Option<DqbfResult> {
        if state.universals().is_empty() {
            self.stats.qbf_sat_calls += 1;
            self.obs.add(Metric::QbfSatCalls, 1);
            let solver = hqs_sat::Solver::builder()
                .observer(self.obs.clone())
                .budget(self.config.budget.clone())
                .build()
                .expect("default SAT configuration is valid");
            return Some(match state.decide_by_sat(solver) {
                Some(true) => DqbfResult::Sat,
                Some(false) => DqbfResult::Unsat,
                None => DqbfResult::Limit(self.config.budget.stop_reason()),
            });
        }
        match state.eliminate_innermost_block() {
            Some((Quantifier::Existential, n)) => {
                self.stats.qbf_existential_elims += n as u64;
                self.obs.add(Metric::QbfExistentialElims, n as u64);
            }
            Some((Quantifier::Universal, n)) => {
                self.stats.qbf_universal_elims += n as u64;
                self.obs.add(Metric::QbfUniversalElims, n as u64);
            }
            None => unreachable!("a linear prefix with a universal ends in an ∃ or a ∀ block"),
        }
        state.reduce();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::is_satisfiable_by_expansion;
    use hqs_base::Lit;

    fn example_one(matching: bool) -> Dqbf {
        // ∀x1∀x2 ∃y1(x1) ∃y2(x2):
        //   matching: (y1↔x1) ∧ (y2↔x2) — SAT.
        //   else:     (y1↔x2) ∧ (y2↔x1) — UNSAT (wrong dependencies).
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        let y1 = d.add_existential([x1]);
        let y2 = d.add_existential([x2]);
        let pairs = if matching {
            [(x1, y1), (x2, y2)]
        } else {
            [(x2, y1), (x1, y2)]
        };
        for (x, y) in pairs {
            d.add_clause([Lit::positive(x), Lit::negative(y)]);
            d.add_clause([Lit::negative(x), Lit::positive(y)]);
        }
        d
    }

    /// The main loop alone: no preprocessing, which would decide these
    /// tiny formulas before the loop.
    fn loop_only() -> HqsSolver {
        HqsSolver::with_config(HqsConfig {
            preprocess: false,
            gate_detection: false,
            ..HqsConfig::default()
        })
    }

    #[test]
    fn main_loop_counts_every_step_of_one_unit_pure_batch() {
        // ∃y ∀x: (y ∨ x) — y existential pure, x universal pure. One at a
        // time, y := 1 would satisfy the matrix before x was counted.
        let mut d = Dqbf::new();
        let y = d.add_existential([]);
        let x = d.add_universal();
        d.add_clause([Lit::positive(y), Lit::positive(x)]);
        let mut solver = loop_only();
        assert_eq!(solver.run(&d), DqbfResult::Sat);
        assert!(is_satisfiable_by_expansion(&d));
        assert_eq!(solver.stats().unit_pure_elims, 2);
        assert_eq!(solver.stats().universal_elims, 0);
    }

    #[test]
    fn main_loop_refutes_a_universal_unit_before_any_assign() {
        // ∃y ∀x ∃z(x): (y ∨ z) ∧ x — the pure y sorts before the unit x.
        let mut d = Dqbf::new();
        let y = d.add_existential([]);
        let x = d.add_universal();
        let z = d.add_existential([x]);
        d.add_clause([Lit::positive(y), Lit::positive(z)]);
        d.add_clause([Lit::positive(x)]);
        let mut solver = loop_only();
        assert_eq!(solver.run(&d), DqbfResult::Unsat);
        assert!(!is_satisfiable_by_expansion(&d));
        assert_eq!(solver.stats().unit_pure_elims, 0);
    }

    #[test]
    fn example_one_sat() {
        assert_eq!(HqsSolver::new().run(&example_one(true)), DqbfResult::Sat);
    }

    #[test]
    fn example_one_unsat() {
        assert_eq!(HqsSolver::new().run(&example_one(false)), DqbfResult::Unsat);
    }

    #[test]
    fn all_configurations_agree_on_example_one() {
        for preprocess in [false, true] {
            for unit_pure in [false, true] {
                for strategy in [ElimStrategy::MaxSatMinimal, ElimStrategy::AllUniversals] {
                    let config = HqsConfig {
                        preprocess,
                        gate_detection: preprocess,
                        unit_pure,
                        strategy,
                        ..HqsConfig::default()
                    };
                    let mut solver = HqsSolver::with_config(config);
                    assert_eq!(solver.run(&example_one(true)), DqbfResult::Sat);
                    assert_eq!(solver.run(&example_one(false)), DqbfResult::Unsat);
                }
            }
        }
    }

    #[test]
    fn trivial_formulas() {
        let empty = Dqbf::new();
        assert_eq!(HqsSolver::new().run(&empty), DqbfResult::Sat);
        let mut contradiction = Dqbf::new();
        let y = contradiction.add_existential([]);
        contradiction.add_clause([Lit::positive(y)]);
        contradiction.add_clause([Lit::negative(y)]);
        assert_eq!(HqsSolver::new().run(&contradiction), DqbfResult::Unsat);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let d = example_one(true);
        let config = HqsConfig {
            budget: Budget::new().with_node_limit(1),
            preprocess: false,
            ..HqsConfig::default()
        };
        assert_eq!(
            HqsSolver::with_config(config).run(&d),
            DqbfResult::Limit(Exhaustion::Memout)
        );
    }

    /// The central correctness test: on random small DQBFs, every solver
    /// configuration agrees with the expansion oracle.
    #[test]
    fn agrees_with_expansion_oracle_on_random_dqbfs() {
        use hqs_base::Rng;
        let mut rng = Rng::seed_from_u64(20150309);
        let configs = [
            HqsConfig::default(),
            HqsConfig {
                preprocess: false,
                gate_detection: false,
                ..HqsConfig::default()
            },
            HqsConfig {
                unit_pure: false,
                ..HqsConfig::default()
            },
            HqsConfig {
                strategy: ElimStrategy::AllUniversals,
                ..HqsConfig::default()
            },
            HqsConfig {
                paranoid: true,
                ..HqsConfig::default()
            },
        ];
        for round in 0..80 {
            let mut d = Dqbf::new();
            let nu = rng.gen_range(1..=4u32);
            let ne = rng.gen_range(1..=4u32);
            let xs: Vec<Var> = (0..nu).map(|_| d.add_universal()).collect();
            let mut all: Vec<Var> = xs.clone();
            for _ in 0..ne {
                let deps: Vec<Var> = xs.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
                all.push(d.add_existential(deps));
            }
            for _ in 0..rng.gen_range(2..=9usize) {
                let len = rng.gen_range(1..=3usize);
                let lits: Vec<Lit> = (0..len)
                    .map(|_| Lit::new(all[rng.gen_range(0..all.len())], rng.gen_bool(0.5)))
                    .collect();
                d.add_clause(lits);
            }
            let expected = if is_satisfiable_by_expansion(&d) {
                DqbfResult::Sat
            } else {
                DqbfResult::Unsat
            };
            for (ci, config) in configs.iter().enumerate() {
                let mut solver = HqsSolver::with_config(config.clone());
                assert_eq!(
                    solver.run(&d),
                    expected,
                    "round {round}, config {ci}: {d:?}"
                );
            }
        }
    }

    #[test]
    fn stats_reflect_the_pipeline() {
        let d = example_one(true);
        let mut solver = HqsSolver::with_config(HqsConfig {
            preprocess: false,
            gate_detection: false,
            unit_pure: false,
            ..HqsConfig::default()
        });
        let result = solver.run(&d);
        assert_eq!(result, DqbfResult::Sat);
        let stats = solver.stats();
        // The 2-cycle requires eliminating at least one universal.
        assert!(stats.universal_elims >= 1);
        assert_eq!(stats.elimination_set_size, 1);
        assert!(stats.peak_nodes > 0);
    }

    #[test]
    fn finish_applies_unit_pure_when_the_main_loop_does_not() {
        // Example 1 plus an existential p without dependencies that is
        // positive pure: (p ∨ x1 ∨ y2). The 2-cycle costs one Theorem-1
        // step before the hand-off; the finish then assigns p.
        let mut d = example_one(true);
        let (x1, y2) = (d.universals()[0], d.existentials()[1]);
        let p = d.add_existential([]);
        d.add_clause([Lit::positive(p), Lit::positive(x1), Lit::positive(y2)]);
        let mut solver = loop_only();
        solver.config.unit_pure = false;
        assert_eq!(solver.run(&d), DqbfResult::Sat);
        assert!(is_satisfiable_by_expansion(&d));
        let stats = solver.stats();
        assert!(stats.reached_qbf && stats.universal_elims >= 1, "{stats:?}");
        assert_eq!(stats.unit_pure_elims, 0, "{stats:?}");
        assert!(stats.qbf_unit_pure_elims > 0, "{stats:?}");
    }

    // The QBF finish on plain QBFs. A QDIMACS file is a DQDIMACS file
    // without `d` lines: each existential depends on the universals left
    // of it. Preprocessing is off, so the loop decides every formula.

    /// Solves the QDIMACS `text` with and without unit/pure before the
    /// hand-off, checks both verdicts against brute force and returns the
    /// stats of the run whose unit/pure was the finish's alone.
    fn solve_qbf(text: &str) -> (DqbfResult, HqsStats) {
        let file = hqs_cnf::dimacs::parse_qdimacs(text).unwrap();
        let dqbf = Dqbf::from_file(&hqs_cnf::dimacs::parse_dqdimacs(text).unwrap());
        let expected = if hqs_qbf::reference::eval_qdimacs(&file) {
            DqbfResult::Sat
        } else {
            DqbfResult::Unsat
        };
        let mut solver = loop_only();
        assert_eq!(solver.run(&dqbf), expected, "{text}");
        solver.config.unit_pure = false;
        assert_eq!(solver.run(&dqbf), expected, "{text}");
        (expected, solver.stats())
    }

    #[test]
    fn forall_exists_copy_is_sat() {
        let (result, _) = solve_qbf("p cnf 2 2\na 1 0\ne 2 0\n1 -2 0\n-1 2 0\n");
        assert_eq!(result, DqbfResult::Sat);
    }

    #[test]
    fn exists_forall_copy_is_unsat() {
        let (result, stats) = solve_qbf("p cnf 2 2\ne 2 0\na 1 0\n1 -2 0\n-1 2 0\n");
        assert_eq!(result, DqbfResult::Unsat);
        assert_eq!(stats.qbf_universal_elims, 1, "{stats:?}");
    }

    #[test]
    fn propositional_fallback() {
        assert_eq!(solve_qbf("p cnf 2 2\n1 2 0\n-1 2 0\n").0, DqbfResult::Sat);
        assert_eq!(solve_qbf("p cnf 1 2\n1 0\n-1 0\n").0, DqbfResult::Unsat);
        // ∃a b ∀x. (a ∨ b ∨ x) ∧ (¬a ∨ ¬b ∨ ¬x): once x is gone, one SAT
        // call decides a ⊕ b, which no unit/pure step settles.
        let (result, stats) = solve_qbf("p cnf 3 2\ne 1 2 0\na 3 0\n1 2 3 0\n-1 -2 -3 0\n");
        assert_eq!(result, DqbfResult::Sat);
        assert_eq!(stats.qbf_sat_calls, 1, "{stats:?}");
    }

    #[test]
    fn universal_only_tautology_check() {
        // ∀x. (x ∨ ¬x) — true.
        assert_eq!(solve_qbf("p cnf 1 1\na 1 0\n1 -1 0\n").0, DqbfResult::Sat);
        // ∀x. x — false.
        assert_eq!(solve_qbf("p cnf 1 1\na 1 0\n1 0\n").0, DqbfResult::Unsat);
    }

    #[test]
    fn three_block_alternation() {
        // ∀x ∃y ∀z. (x ∨ ¬y ∨ z) ∧ (¬x ∨ y): y := x satisfies both
        // clauses whatever z is.
        // z is universal pure; then y depends on every universal left.
        let (result, stats) = solve_qbf("p cnf 3 2\na 1 0\ne 2 0\na 3 0\n1 -2 3 0\n-1 2 0\n");
        assert_eq!(result, DqbfResult::Sat);
        assert_eq!(stats.qbf_existential_elims, 1, "{stats:?}");
    }

    #[test]
    fn one_walk_licenses_an_existential_and_a_universal_pure_together() {
        // ∃y1 ∀x2. (y1 ∨ x2): y1 is existential positive pure (y1 := 1)
        // and x2 universal positive pure (x2 := 0). One at a time, y1 := 1
        // would satisfy the matrix before x2 was counted. (Under ∀x2 ∃y1
        // Theorem 2 would remove y1 before the hand-off.)
        let (result, stats) = solve_qbf("p cnf 2 1\ne 1 0\na 2 0\n1 2 0\n");
        assert_eq!(result, DqbfResult::Sat);
        assert!(stats.reached_qbf, "{stats:?}");
        assert_eq!(stats.qbf_unit_pure_elims, 2, "{stats:?}");
        assert_eq!(stats.qbf_universal_elims + stats.qbf_existential_elims, 0);
    }

    #[test]
    fn universal_unit_refutes_before_an_earlier_existential_assign() {
        // ∃y1 w3 ∀x2. (y1 ∨ w3) ∧ x2: y1 (pure) sorts before the universal
        // unit x2, but the unit answers first and nothing is assigned.
        let (result, stats) = solve_qbf("p cnf 3 2\ne 1 3 0\na 2 0\n1 3 0\n2 0\n");
        assert_eq!(result, DqbfResult::Unsat);
        assert!(stats.reached_qbf, "{stats:?}");
        assert_eq!(stats.qbf_unit_pure_elims, 0, "{stats:?}");
    }

    #[test]
    fn block_steps_count_variables_not_sweeps() {
        // ∀x1 ∃y2..y6 ∀x7..x12. The universals x7..x12 after the ∃ block
        // keep the loop's own Theorem 2 off it before the hand-off; the
        // finish then takes the ∀ block in sweeps of 4 and 2 variables and
        // the ∃ block in sweeps of 4 and 1, after which the matrix is true.
        let mut text = String::from("p cnf 12 12\na 1 0\ne 2 3 4 5 6 0\na 7 8 9 10 11 12 0\n");
        for i in 0..5 {
            let (y, x) = (2 + i, 7 + i);
            text.push_str(&format!("{y} {x} 1 0\n-{y} -{x} -1 0\n"));
        }
        text.push_str("12 2 -3 0\n-12 -2 3 0\n");
        let (result, stats) = solve_qbf(&text);
        assert_eq!(result, DqbfResult::Sat);
        assert!(stats.reached_qbf, "{stats:?}");
        assert_eq!(stats.universal_elims + stats.existential_elims, 0);
        assert_eq!(stats.qbf_unit_pure_elims, 0, "{stats:?}");
        assert_eq!(stats.qbf_universal_elims, 6, "{stats:?}");
        assert_eq!(stats.qbf_existential_elims, 5, "{stats:?}");
    }

    #[test]
    fn budget_memout_reported() {
        let text = "p cnf 4 3\na 1 2 0\ne 3 4 0\n1 2 3 0\n-1 -2 4 0\n1 -3 -4 0\n";
        let dqbf = Dqbf::from_file(&hqs_cnf::dimacs::parse_dqdimacs(text).unwrap());
        let mut solver = loop_only();
        solver.config.budget = Budget::new().with_node_limit(1);
        assert_eq!(solver.run(&dqbf), DqbfResult::Limit(Exhaustion::Memout));
    }

    #[test]
    fn agrees_with_brute_force_on_random_small_qbfs() {
        use hqs_base::Rng;
        let mut rng = Rng::seed_from_u64(2015);
        for _ in 0..150 {
            let num_vars = rng.gen_range(2..=6u32);
            let num_clauses = rng.gen_range(1..=10usize);
            let mut text = format!("p cnf {num_vars} {num_clauses}\n");
            // Random prefix: each var universal or existential, grouped in
            // random alternating blocks by shuffling then chunking.
            let mut order: Vec<u32> = (1..=num_vars).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut pos = 0;
            let mut quantifier = if rng.gen_bool(0.5) { "a" } else { "e" };
            while pos < order.len() {
                let take = rng.gen_range(1..=order.len() - pos);
                let vars: Vec<String> = order[pos..pos + take].iter().map(u32::to_string).collect();
                text.push_str(&format!("{quantifier} {} 0\n", vars.join(" ")));
                quantifier = if quantifier == "a" { "e" } else { "a" };
                pos += take;
            }
            for _ in 0..num_clauses {
                let len = rng.gen_range(1..=3usize);
                let lits: Vec<String> = (0..len)
                    .map(|_| {
                        let v = rng.gen_range(1..=num_vars) as i64;
                        if rng.gen_bool(0.5) { v } else { -v }.to_string()
                    })
                    .collect();
                text.push_str(&format!("{} 0\n", lits.join(" ")));
            }
            solve_qbf(&text);
        }
    }
}
