//! Typed solver configuration, validated at build time.
//!
//! Every search-shaping value is a plain data field of [`SatConfig`],
//! a configuration is a struct literal over [`SatConfig::default`], and
//! [`SolverBuilder::build`](crate::SolverBuilder::build) runs
//! [`validate`](SatConfig::validate) on it, so a configured
//! [`Solver`](crate::Solver) never changes behaviour mid-flight.

use std::fmt;

/// Search-shaping configuration of a [`Solver`](crate::Solver).
///
/// Plain data: construct it as a struct literal over
/// [`SatConfig::default`];
/// [`SolverBuilder::build`](crate::SolverBuilder::build) validates it.
///
/// # Examples
///
/// ```
/// use hqs_sat::{SatConfig, SatConfigError, Solver};
///
/// let config = SatConfig {
///     local_cap: 50,
///     ..SatConfig::default()
/// };
/// let solver = Solver::builder().config(config).build().expect("valid");
/// assert_eq!(solver.config().local_cap, 50);
///
/// let zero = SatConfig {
///     local_cap: 0,
///     ..SatConfig::default()
/// };
/// let err = Solver::builder().config(zero).build().err();
/// assert_eq!(err, Some(SatConfigError::ZeroLocalCap));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SatConfig {
    /// Chronological backtracking: when conflict analysis asks for a
    /// backjump of more than this many decision levels, backtrack one
    /// level instead and let the asserting literal propagate there —
    /// recent work is preserved instead of being redone. Default 100.
    pub chrono_threshold: u32,
    /// Learnt clauses with LBD at most this stay in the core tier
    /// forever (glue-clause protection). Default 2.
    pub core_lbd_cutoff: u32,
    /// Learnt clauses with LBD at most this start in tier2; above it
    /// they start in the local tier. Default 6.
    pub tier2_lbd_cutoff: u32,
    /// Local-tier size that triggers a database reduction. This is an
    /// upper bound: the effective cap is
    /// `local_cap.min((originals / 2).max(128))`, so small formulas keep
    /// a proportionally small learnt database (the MiniSat
    /// `max_learnts` discipline) while large ones stop at `local_cap`.
    pub local_cap: usize,
    /// Added to the effective local cap after every reduction, so the
    /// kept database grows slowly on long runs.
    pub local_cap_growth: usize,
}

impl Default for SatConfig {
    fn default() -> Self {
        SatConfig {
            chrono_threshold: 100,
            core_lbd_cutoff: 2,
            tier2_lbd_cutoff: 6,
            local_cap: 500,
            local_cap_growth: 100,
        }
    }
}

impl SatConfig {
    /// Checks internal consistency; called by
    /// [`SolverBuilder::build`](crate::SolverBuilder::build), so a
    /// struct literal cannot smuggle a nonsensical combination past
    /// validation.
    ///
    /// # Errors
    ///
    /// The first [`SatConfigError`] found.
    pub fn validate(&self) -> Result<(), SatConfigError> {
        if self.core_lbd_cutoff > self.tier2_lbd_cutoff {
            return Err(SatConfigError::TierCutoffsInverted {
                core: self.core_lbd_cutoff,
                tier2: self.tier2_lbd_cutoff,
            });
        }
        if self.local_cap == 0 {
            return Err(SatConfigError::ZeroLocalCap);
        }
        if self.chrono_threshold == 0 {
            return Err(SatConfigError::ZeroChronoThreshold);
        }
        Ok(())
    }
}

/// A nonsensical [`SatConfig`] combination, reported at build time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatConfigError {
    /// `core_lbd_cutoff` exceeds `tier2_lbd_cutoff`: the tiers would
    /// overlap inconsistently.
    TierCutoffsInverted {
        /// The core-tier LBD cutoff.
        core: u32,
        /// The tier2 LBD cutoff.
        tier2: u32,
    },
    /// `local_cap` of 0 would reduce the database on every learn.
    ZeroLocalCap,
    /// A chronological-backtracking threshold of 0 would disable
    /// backjumping entirely.
    ZeroChronoThreshold,
}

impl fmt::Display for SatConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SatConfigError::TierCutoffsInverted { core, tier2 } => {
                write!(f, "core LBD cutoff {core} exceeds tier2 cutoff {tier2}")
            }
            SatConfigError::ZeroLocalCap => {
                write!(f, "local-tier cap must be at least 1 clause")
            }
            SatConfigError::ZeroChronoThreshold => write!(
                f,
                "chronological backtracking needs a threshold of at least 1 level"
            ),
        }
    }
}

impl std::error::Error for SatConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Solver;

    /// The error `SolverBuilder::build` reports for `config`.
    fn build_error(config: SatConfig) -> Option<SatConfigError> {
        Solver::builder().config(config).build().err()
    }

    #[test]
    fn default_config_is_valid() {
        assert_eq!(SatConfig::default().validate(), Ok(()));
        assert_eq!(build_error(SatConfig::default()), None);
    }

    #[test]
    fn inverted_tiers_rejected() {
        assert_eq!(
            build_error(SatConfig {
                core_lbd_cutoff: 9,
                tier2_lbd_cutoff: 4,
                ..SatConfig::default()
            }),
            Some(SatConfigError::TierCutoffsInverted { core: 9, tier2: 4 })
        );
    }

    #[test]
    fn zero_knobs_rejected() {
        assert_eq!(
            build_error(SatConfig {
                local_cap: 0,
                ..SatConfig::default()
            }),
            Some(SatConfigError::ZeroLocalCap)
        );
        assert_eq!(
            build_error(SatConfig {
                chrono_threshold: 0,
                ..SatConfig::default()
            }),
            Some(SatConfigError::ZeroChronoThreshold)
        );
    }

    #[test]
    fn error_messages_name_the_field() {
        let err = build_error(SatConfig {
            core_lbd_cutoff: 9,
            tier2_lbd_cutoff: 4,
            ..SatConfig::default()
        })
        .expect("inverted tiers are rejected");
        assert!(err.to_string().contains("cutoff"));
    }
}
