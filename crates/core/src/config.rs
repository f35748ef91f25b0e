//! Validation and fingerprinting of [`HqsConfig`].
//!
//! [`HqsConfig`] is plain data: callers write a struct literal over
//! [`HqsConfig::default`], and
//! [`SessionBuilder::build`](crate::SessionBuilder::build) rejects
//! nonsensical flag combinations through [`HqsConfig::validate`] instead
//! of letting them silently degrade a solve. [`HqsConfig::fingerprint`]
//! gives every config a stable hash so batch records can say *which*
//! configuration produced them.

use crate::solver::{ElimStrategy, HqsConfig};
use std::fmt;

/// A flag combination [`HqsConfig::validate`] rejects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// `gate_detection` without `preprocess`: gate detection runs *inside*
    /// the preprocessing pipeline, so the flag would silently do nothing.
    GatesWithoutPreprocess,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::GatesWithoutPreprocess => {
                write!(
                    f,
                    "gate_detection requires preprocess (it runs inside the pipeline)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl HqsConfig {
    /// Checks the flag combination;
    /// [`SessionBuilder::build`](crate::SessionBuilder::build) calls
    /// this.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first nonsensical flag combination.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.gate_detection && !self.preprocess {
            return Err(ConfigError::GatesWithoutPreprocess);
        }
        Ok(())
    }

    /// A stable 64-bit fingerprint of every *algorithmic* field — the
    /// budget is deliberately excluded, so the same strategy under a
    /// different timeout hashes identically. Batch records carry this
    /// (hex-encoded) so result rows are attributable to a configuration
    /// even when deck names change across versions.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a canonical byte encoding; no dependence on
        // std::hash, whose output is not stable across releases.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let strategy = match self.strategy {
            ElimStrategy::MaxSatMinimal => 0u8,
            ElimStrategy::AllUniversals => 1,
        };
        let bytes = [
            u8::from(self.preprocess),
            u8::from(self.gate_detection),
            u8::from(self.unit_pure),
            strategy,
            u8::from(self.paranoid),
            u8::from(self.certify),
        ];
        let mut hash = OFFSET;
        for byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqs_base::Budget;

    #[test]
    fn builder_rejects_nonsense() {
        // `validate` is the check `SessionBuilder::build` runs.
        let unpreprocessed = HqsConfig {
            preprocess: false,
            ..HqsConfig::default()
        };
        assert_eq!(
            unpreprocessed.validate().unwrap_err(),
            ConfigError::GatesWithoutPreprocess,
            "defaults have gate_detection on, so preprocess: false alone must fail"
        );
        assert!(HqsConfig {
            gate_detection: false,
            ..unpreprocessed
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn fingerprint_ignores_budget_but_not_flags() {
        let base = HqsConfig::default();
        let budgeted = HqsConfig {
            budget: Budget::new().with_node_limit(7),
            ..HqsConfig::default()
        };
        assert_eq!(base.fingerprint(), budgeted.fingerprint());
        let flipped = HqsConfig {
            unit_pure: false,
            ..HqsConfig::default()
        };
        assert_ne!(base.fingerprint(), flipped.fingerprint());
    }
}
