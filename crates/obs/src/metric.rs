//! The closed vocabulary of metrics and phases.
//!
//! Both enums are deliberately *closed*: the JSON schema promises a
//! stable key set per schema version, so adding a metric or phase is an
//! interface change (extend the enum, the `ALL` table and the name — the
//! exhaustive matches below make it impossible to forget one).

/// How a metric aggregates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricKind {
    /// A monotone sum; merged by addition.
    Counter,
    /// A high-water mark; merged by maximum.
    Gauge,
}

macro_rules! metrics {
    ($(($variant:ident, $name:literal, $kind:ident, $doc:literal)),+ $(,)?) => {
        /// A named measurement of the solver stack.
        ///
        /// The variant order is the order of the JSON schema and the
        /// summary table; it groups metrics by subsystem (SAT, MaxSAT,
        /// elimination loop, AIG compaction, preprocessing, QBF finish,
        /// certification).
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum Metric {
            $(#[doc = $doc] $variant,)+
        }

        impl Metric {
            /// Every metric, in schema order.
            pub const ALL: &'static [Metric] = &[$(Metric::$variant,)+];

            /// The number of metrics.
            pub const COUNT: usize = Metric::ALL.len();

            /// The stable snake_case name used in the JSON schema and the
            /// summary table.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $(Metric::$variant => $name,)+
                }
            }

            /// Whether the metric is a counter or a gauge.
            #[must_use]
            pub fn kind(self) -> MetricKind {
                match self {
                    $(Metric::$variant => MetricKind::$kind,)+
                }
            }

            /// The dense index of the metric (its position in
            /// [`Metric::ALL`]), used by the registry's flat arrays.
            #[must_use]
            pub fn index(self) -> usize {
                self as usize
            }
        }
    };
}

metrics! {
    // CDCL SAT substrate.
    (SatCalls, "sat_calls", Counter, "CDCL solve calls issued anywhere in the stack."),
    (SatConflicts, "sat_conflicts", Counter, "CDCL conflicts analysed."),
    (SatPropagations, "sat_propagations", Counter, "CDCL unit propagations."),
    (SatDecisions, "sat_decisions", Counter, "CDCL decisions."),
    (SatRestarts, "sat_restarts", Counter, "CDCL restarts."),
    (SatRestartSwitches, "sat_restart_switches", Counter,
        "Hybrid restart EMA↔Luby direction changes."),
    (SatChronoBacktracks, "sat_chrono_backtracks", Counter,
        "Conflicts resolved by chronological (one-level) backtracking."),
    (SatArenaGcs, "sat_arena_gcs", Counter, "Clause-arena garbage collections."),
    (SatArenaReclaimedWords, "sat_arena_reclaimed_words", Counter,
        "Arena words reclaimed by garbage collection."),
    (SatCoreClausesPeak, "sat_core_clauses_peak", Gauge,
        "Largest core (glue) learnt-clause tier observed."),
    (SatTier2ClausesPeak, "sat_tier2_clauses_peak", Gauge,
        "Largest tier2 learnt-clause tier observed."),
    (SatLocalClausesPeak, "sat_local_clauses_peak", Gauge,
        "Largest local learnt-clause tier observed."),
    // MaxSAT elimination-set selection.
    (MaxSatCalls, "maxsat_calls", Counter, "Partial-MaxSAT optimisations solved."),
    (MaxSatSoftClauses, "maxsat_soft_clauses", Counter, "Soft clauses across all MaxSAT calls."),
    (ElimSetsComputed, "elim_sets_computed", Counter, "Elimination-set (re)computations."),
    (ElimSetChosen, "elim_set_chosen", Counter,
        "Universals chosen for elimination, summed over all set computations."),
    (ElimSetSize, "elim_set_size", Gauge, "Largest single elimination set chosen."),
    // The DQBF main loop.
    (UniversalElims, "universal_elims", Counter, "Universal variables eliminated (Theorem 1)."),
    (ExistentialElims, "existential_elims", Counter,
        "Existential variables eliminated (Theorem 2)."),
    (UnitPureElims, "unit_pure_elims", Counter, "Unit/pure eliminations (Theorems 5/6)."),
    (ElimNodeGrowth, "elim_node_growth", Counter,
        "AIG nodes added across universal eliminations (sum of per-step growth)."),
    (AigPeakNodes, "aig_peak_nodes", Gauge, "Largest AIG node count observed."),
    (AigPeakLevel, "aig_peak_level", Gauge, "Deepest AIG (root cone depth) observed."),
    // AIG compaction.
    (CompactRuns, "compact_runs", Counter, "AIG garbage-collection compactions."),
    (CompactFreedNodes, "compact_freed_nodes", Counter, "Nodes reclaimed by compaction."),
    // CNF preprocessing rule hits.
    (PreprocessUnits, "preprocess_units", Counter, "Units propagated in preprocessing."),
    (PreprocessUniversalReductions, "preprocess_universal_reductions", Counter,
        "Universal reductions in preprocessing."),
    (PreprocessPures, "preprocess_pures", Counter, "Pure literals eliminated in preprocessing."),
    (PreprocessEquivalences, "preprocess_equivalences", Counter,
        "Equivalent variables substituted in preprocessing."),
    (PreprocessGates, "preprocess_gates", Counter, "Tseitin gates detected in preprocessing."),
    // The elimination loop's QBF finish, after the hand-off.
    (QbfUniversalElims, "qbf_universal_elims", Counter,
        "Innermost universals eliminated in the QBF finish."),
    (QbfExistentialElims, "qbf_existential_elims", Counter,
        "Innermost existentials eliminated in the QBF finish."),
    (QbfUnitPureElims, "qbf_unit_pure_elims", Counter,
        "Unit/pure eliminations in the QBF finish."),
    (QbfSatCalls, "qbf_sat_calls", Counter, "Final SAT checks issued by the QBF finish."),
    (QbfPeakNodes, "qbf_peak_nodes", Gauge, "Largest AIG seen in the QBF finish."),
}

macro_rules! phases {
    ($(($variant:ident, $name:literal, $doc:literal)),+ $(,)?) => {
        /// A named phase of the solve pipeline, used for span events.
        ///
        /// Phases nest: `Total` wraps the whole run, the elimination loop
        /// wraps the per-variable phases, and so on. The hierarchy is
        /// recovered from span nesting at export time, not hard-coded
        /// here.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum Phase {
            $(#[doc = $doc] $variant,)+
        }

        impl Phase {
            /// Every phase, in pipeline order.
            pub const ALL: &'static [Phase] = &[$(Phase::$variant,)+];

            /// The stable kebab-case name used by every exporter.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $(Phase::$variant => $name,)+
                }
            }
        }
    };
}

phases! {
    (Total, "total", "The whole run, from parse to verdict."),
    (Parse, "parse", "(DQ)DIMACS parsing."),
    (Preprocess, "preprocess", "The CNF preprocessing pipeline (paper §III-C)."),
    (BuildAig, "build-aig", "AIG construction and gate composition."),
    (ElimLoop, "elim-loop", "The DQBF main loop (universal/existential elimination)."),
    (ElimSet, "elim-set", "Dependency-graph analysis and MaxSAT elimination-set selection."),
    (ElimUniversal, "elim-universal", "One Theorem-1 universal elimination (plus reduction)."),
    (ElimExistential, "elim-existential", "One Theorem-2 existential elimination."),
    (QbfFinish, "qbf-finish", "The elimination loop's QBF finish on the linearised remainder."),
    (Certify, "certify", "Certificate extraction and verification."),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_indices_are_dense_and_names_unique() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::COUNT);
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }

    #[test]
    fn phase_names_unique() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::ALL.len());
    }

    #[test]
    fn gauges_are_exactly_the_peaks() {
        for m in Metric::ALL {
            let is_gauge = m.kind() == MetricKind::Gauge;
            let name = m.name();
            assert_eq!(
                is_gauge,
                name.contains("peak") || name == "elim_set_size",
                "unexpected kind for {name}"
            );
        }
    }
}
