//! The blessed solve entry point: [`Session`].
//!
//! A session bundles the three things every embedding ends up wiring
//! together anyway — a validated [`HqsConfig`], an optional
//! [`Observer`] for metrics/tracing, and an optional [`CancelToken`]
//! for cooperative teardown — behind one builder. The CLI, the engine
//! (portfolio and batch), the serve front end, the fuzzer and the
//! benchmarks all solve through it; the engine struct underneath is
//! not part of the public API.
//!
//! # Examples
//!
//! ```
//! use hqs_base::Lit;
//! use hqs_core::{Dqbf, Outcome, Session};
//!
//! // ∀x₁∀x₂ ∃y₁(x₁) ∃y₂(x₂) : (y₁↔x₁) ∧ (y₂↔x₂)   — satisfiable.
//! let mut dqbf = Dqbf::new();
//! let x1 = dqbf.add_universal();
//! let x2 = dqbf.add_universal();
//! let y1 = dqbf.add_existential([x1]);
//! let y2 = dqbf.add_existential([x2]);
//! for (x, y) in [(x1, y1), (x2, y2)] {
//!     dqbf.add_clause([Lit::positive(x), Lit::negative(y)]);
//!     dqbf.add_clause([Lit::negative(x), Lit::positive(y)]);
//! }
//!
//! let mut session = Session::builder().build().expect("defaults are valid");
//! assert_eq!(session.solve(&dqbf), Outcome::Sat);
//! ```
//!
//! With metrics attached:
//!
//! ```
//! use hqs_core::Session;
//! use hqs_obs::{Metric, MetricsObserver};
//! use std::sync::Arc;
//!
//! let observer = Arc::new(MetricsObserver::new());
//! let mut session = Session::builder()
//!     .observer(observer.clone())
//!     .build()
//!     .expect("defaults are valid");
//! session.solve(&hqs_core::Dqbf::new());
//! let snapshot = observer.snapshot();
//! assert!(snapshot.counter(Metric::SatConflicts) == 0); // empty formula
//! ```

use crate::config::ConfigError;
use crate::outcome::Outcome;
use crate::solver::{CertifiedOutcome, CertifyError, HqsConfig, HqsSolver, HqsStats};
use crate::Dqbf;
use hqs_base::CancelToken;
use hqs_cnf::DqdimacsFile;
use hqs_obs::{Obs, Observer};
use std::fmt;
use std::sync::Arc;

/// A configured, observable solving context.
///
/// Construct with [`Session::builder`]; the crate docs carry the
/// canonical embedding example. A session is reusable: each
/// [`solve`](Session::solve) call resets the per-solve statistics but
/// keeps the configuration and observer.
#[derive(Debug)]
pub struct Session {
    solver: HqsSolver,
    obs: Obs,
}

/// Builder for [`Session`]; obtain via [`Session::builder`].
#[derive(Default)]
#[must_use]
pub struct SessionBuilder {
    config: HqsConfig,
    observer: Option<Arc<dyn Observer>>,
    cancel: Option<CancelToken>,
}

impl fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("config", &self.config)
            .field("observer", &self.observer.is_some())
            .field("cancel", &self.cancel.is_some())
            .finish()
    }
}

impl SessionBuilder {
    /// Uses `config` instead of the defaults. The config is validated
    /// at [`build`](SessionBuilder::build) time.
    pub fn config(mut self, config: HqsConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches an [`Observer`]; every solve through the session then
    /// emits phase spans and metrics into it. Without one, the session
    /// runs fully uninstrumented (no clock reads, no atomics).
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches a cancellation token to the session's budget; firing it
    /// makes in-flight solves return [`Outcome::Unknown`].
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Validates the configuration and produces the session.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first nonsensical flag combination.
    pub fn build(self) -> Result<Session, ConfigError> {
        self.config.validate()?;
        let mut config = self.config;
        if let Some(token) = self.cancel {
            config.budget = config.budget.with_cancel_token(token);
        }
        let obs = match self.observer {
            Some(observer) => Obs::attached(observer),
            None => Obs::disabled(),
        };
        let mut solver = HqsSolver::with_config(config);
        solver.set_observer(obs.clone());
        Ok(Session { solver, obs })
    }
}

impl Session {
    /// A builder starting from the paper's default configuration, no
    /// observer and no cancellation token.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Decides `dqbf`.
    pub fn solve(&mut self, dqbf: &Dqbf) -> Outcome {
        self.solver.run(dqbf).into()
    }

    /// Solves a parsed DQDIMACS file.
    pub fn solve_file(&mut self, file: &DqdimacsFile) -> Outcome {
        self.solve(&Dqbf::from_file(file))
    }

    /// Decides `dqbf` and ships a machine-checkable certificate with
    /// the verdict: Skolem function tables for SAT
    /// ([`crate::skolem::extract_skolem`]), an expansion trace plus
    /// DRAT proof for UNSAT ([`crate::refute::extract_refutation`]).
    /// Both certificates are verified, once each, before being returned.
    ///
    /// Certificate construction expands the universal quantifiers, so
    /// this entry point is limited to
    /// [`MAX_EXPANSION_UNIVERSALS`](crate::expand::MAX_EXPANSION_UNIVERSALS)
    /// universal variables ([`CertifyError::TooLarge`] otherwise); the
    /// plain [`solve`](Session::solve) has no such limit.
    ///
    /// # Errors
    ///
    /// Any [`CertifyError`] signals an internal soundness bug (or the
    /// expansion size limit), never a property of the formula.
    pub fn solve_certified(&mut self, dqbf: &Dqbf) -> Result<CertifiedOutcome, CertifyError> {
        self.solver.run_certified(dqbf)
    }

    /// Statistics of the most recent solve.
    #[must_use]
    pub fn stats(&self) -> HqsStats {
        self.solver.stats()
    }

    /// The session's (validated) configuration.
    #[must_use]
    pub fn config(&self) -> &HqsConfig {
        self.solver.config()
    }

    /// The observability handle the session emits through — shareable
    /// with surrounding code that wants to add its own spans (the CLI
    /// wraps parsing this way, so `total` covers parse + solve).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::ElimStrategy;
    use hqs_base::{Exhaustion, Lit};
    use hqs_obs::{Metric, MetricsObserver, Phase};

    fn matching_pairs() -> Dqbf {
        let mut d = Dqbf::new();
        let x1 = d.add_universal();
        let x2 = d.add_universal();
        let y1 = d.add_existential([x1]);
        let y2 = d.add_existential([x2]);
        for (x, y) in [(x1, y1), (x2, y2)] {
            d.add_clause([Lit::positive(x), Lit::negative(y)]);
            d.add_clause([Lit::negative(x), Lit::positive(y)]);
        }
        d
    }

    #[test]
    fn plain_session_solves() {
        let mut session = Session::builder().build().expect("defaults");
        assert_eq!(session.solve(&matching_pairs()), Outcome::Sat);
        // This instance is decided by preprocessing (equivalence
        // substitution collapses it), so no main-loop eliminations run —
        // but the stats must reflect *some* activity either way.
        let stats = session.stats();
        assert!(
            stats.decided_by_preprocessing || stats.universal_elims + stats.unit_pure_elims > 0
        );
    }

    /// The defaults with preprocessing (and the gate detection inside
    /// it) off, so the main loop does the work.
    fn no_preprocess() -> HqsConfig {
        HqsConfig {
            preprocess: false,
            gate_detection: false,
            ..HqsConfig::default()
        }
    }

    #[test]
    fn builder_rejects_invalid_config() {
        let build_error = |config| Session::builder().config(config).build().err();
        assert_eq!(
            build_error(HqsConfig {
                preprocess: false,
                ..HqsConfig::default()
            }),
            Some(ConfigError::GatesWithoutPreprocess),
            "defaults have gate_detection on, so preprocess: false alone must fail"
        );
        assert!(build_error(no_preprocess()).is_none());
    }

    #[test]
    fn cancel_token_is_installed_into_the_budget() {
        // Preprocessing would decide this instance before any budget
        // poll, so disable it to reach the main loop's check.
        let token = CancelToken::new();
        token.cancel("stop before starting");
        let mut session = Session::builder()
            .config(no_preprocess())
            .cancel(token)
            .build()
            .expect("valid");
        assert_eq!(
            session.solve(&matching_pairs()),
            Outcome::Unknown(Exhaustion::Cancelled)
        );
    }

    #[test]
    fn observed_session_records_phases_and_metrics() {
        let observer = Arc::new(MetricsObserver::new());
        let mut session = Session::builder()
            .config(no_preprocess())
            .observer(observer.clone())
            .build()
            .expect("valid");
        assert!(session.obs().is_enabled());
        assert_eq!(session.solve(&matching_pairs()), Outcome::Sat);
        let snapshot = observer.snapshot();
        assert!(snapshot.counter(Metric::UniversalElims) >= 1);
        assert!(snapshot.counter(Metric::AigPeakNodes) > 0);
        assert!(snapshot.counter(Metric::ElimSetsComputed) >= 1);
        assert!(
            snapshot.spans.iter().any(|s| s.phase == Phase::ElimLoop),
            "expected an elim-loop span, got {:?}",
            snapshot.spans
        );
    }

    #[test]
    fn all_universals_strategy_works_through_session() {
        let config = HqsConfig {
            strategy: ElimStrategy::AllUniversals,
            ..HqsConfig::default()
        };
        let mut session = Session::builder().config(config).build().expect("valid");
        assert_eq!(session.solve(&matching_pairs()), Outcome::Sat);
    }
}
