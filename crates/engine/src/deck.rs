//! The strategy deck: the [`HqsConfig`] variants a portfolio races.
//!
//! An entry stays in the deck only if it decides a corpus instance that
//! the entries before it do not (EXPERIMENTS.md, "Portfolio deck").
//! Two configurations pass that rule on the Table I and graded PEC
//! corpora: the paper's default, and the all-universals strategy, which
//! decides the C432 instances on which the MaxSAT-minimal set runs out
//! of nodes.

use hqs_core::{ElimStrategy, HqsConfig};

/// One named portfolio strategy.
#[derive(Clone, Debug)]
pub struct DeckEntry {
    /// Stable human-readable name (appears in logs, JSONL and error
    /// reports).
    pub name: String,
    /// The solver configuration this entry runs. Its `budget` field is
    /// overwritten with the race budget, which carries the race's token.
    pub config: HqsConfig,
}

impl DeckEntry {
    fn new(name: &str, config: HqsConfig) -> Self {
        DeckEntry {
            name: name.to_string(),
            config,
        }
    }
}

/// The deck's two entries, in arbitration-priority order.
///
/// Entry 0 is the solver's default configuration, so a deterministic
/// portfolio on an instance both entries solve returns exactly what a
/// plain single-session run would.
#[must_use]
pub fn standard_deck() -> Vec<DeckEntry> {
    vec![
        DeckEntry::new("default", HqsConfig::default()),
        DeckEntry::new(
            "all-universals",
            HqsConfig {
                strategy: ElimStrategy::AllUniversals,
                ..HqsConfig::default()
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curated_deck_has_unique_names_and_a_default_lead() {
        let deck = standard_deck();
        assert_eq!(deck.len(), 2);
        assert_eq!(deck[0].name, "default");
        let mut names: Vec<&str> = deck.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), deck.len(), "deck names must be unique");
    }

    #[test]
    fn every_deck_config_validates() {
        for entry in standard_deck() {
            assert!(
                entry.config.validate().is_ok(),
                "deck entry '{}' must build a valid session",
                entry.name
            );
        }
    }
}
