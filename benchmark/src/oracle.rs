//! The verdict oracle: the expected outcome of every corpus instance,
//! committed as `expected/verdicts.tsv` and checked on every job.
//!
//! Each row names where its verdict comes from:
//!
//! * `construction` — no injected fault, so satisfiable by construction;
//! * `certificate` — a Skolem or refutation certificate, extracted by
//!   universal expansion and checked by `hqs-proof`;
//! * `idq` — the instantiation-based baseline decided it within
//!   `IDQ_BUDGET`;
//! * `pinned` — only HQS's own answer, recorded to catch changes.
//!
//! The last column pins HQS's outcome under the benchmark's limits. A
//! `MEMOUT` there makes a memout an expected outcome rather than a
//! failure; a later change that solves the instance is accepted, and
//! counted as verified only when the verdict's source is independent.

use crate::corpus::{Corpus, CERTIFY_MAX_UNIVERSALS};
use hqs_base::{Budget, Exhaustion};
use hqs_core::solver::DqbfResult;
use hqs_core::{extract_refutation, extract_skolem, Dqbf, HqsConfig, Outcome, Session};
use hqs_engine::JobOutcome;
use hqs_idq::InstantiationSolver;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Per-job wall-clock limit. No instance comes near it: the QBF backend
/// can overshoot a deadline by minutes, so the node limit must bind
/// first.
pub(crate) const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Per-job AIG-node limit: the Table I memory ceiling (`HQS_NODE_LIMIT`
/// in `hqs-bench`).
pub(crate) const NODE_LIMIT: usize = 3_000_000;

/// Wall-clock budget of each instantiation-baseline run while building
/// the oracle. The oracle records a verdict's source, not this budget,
/// so changing it changes which rows are `idq` and which `pinned`.
const IDQ_BUDGET: Duration = Duration::from_secs(20);

/// The committed oracle.
const COMMITTED: &str = include_str!("../expected/verdicts.tsv");

/// An outcome the oracle records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Verdict {
    /// Satisfiable.
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// HQS hit the node limit.
    Memout,
}

impl Verdict {
    fn code(self) -> &'static str {
        match self {
            Verdict::Sat => "SAT",
            Verdict::Unsat => "UNSAT",
            Verdict::Memout => "MEMOUT",
        }
    }

    fn parse(code: &str) -> Option<Verdict> {
        [Verdict::Sat, Verdict::Unsat, Verdict::Memout]
            .into_iter()
            .find(|v| v.code() == code)
    }
}

/// Where an expected verdict comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Source {
    /// Unfaulted, hence satisfiable by construction.
    Construction,
    /// A certificate checked by `hqs-proof`.
    Certificate,
    /// The instantiation-based baseline.
    Idq,
    /// HQS's own answer only.
    Pinned,
}

impl Source {
    fn code(self) -> &'static str {
        match self {
            Source::Construction => "construction",
            Source::Certificate => "certificate",
            Source::Idq => "idq",
            Source::Pinned => "pinned",
        }
    }

    fn parse(code: &str) -> Option<Source> {
        [
            Source::Construction,
            Source::Certificate,
            Source::Idq,
            Source::Pinned,
        ]
        .into_iter()
        .find(|s| s.code() == code)
    }
}

/// One oracle row.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Expected {
    /// The instance's verdict, or HQS's pinned outcome when nothing
    /// independent decides it.
    pub verdict: Verdict,
    /// Where `verdict` comes from.
    pub source: Source,
    /// HQS's outcome under [`JOB_TIMEOUT`] and [`NODE_LIMIT`].
    pub hqs: Verdict,
}

/// How one job's outcome compares with the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Check {
    /// A verdict equal to an independently established one.
    Verified,
    /// A verdict equal to HQS's pinned one; nothing independent exists.
    Pinned,
    /// A verdict on an instance the oracle only knows as a memout.
    Unverified,
    /// The memout the oracle expects.
    ExpectedMemout,
    /// No verdict where one is expected: a timeout, an unexpected
    /// memout, an error, a panic or an overload rejection.
    Failed(String),
    /// A verdict that contradicts the oracle, or an unknown instance.
    Wrong(String),
}

impl Check {
    /// The job gave a definitive verdict that the oracle does not
    /// contradict.
    #[must_use]
    pub(crate) fn solved(&self) -> bool {
        matches!(self, Check::Verified | Check::Pinned | Check::Unverified)
    }
}

/// The loaded oracle, keyed by instance name.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    rows: BTreeMap<String, Expected>,
}

impl Oracle {
    /// The oracle compiled into the binary from `expected/verdicts.tsv`.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed line.
    pub fn committed() -> Result<Oracle, String> {
        Oracle::parse(COMMITTED)
    }

    /// Parses the TSV format [`make_expected`] writes.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed line.
    pub(crate) fn parse(text: &str) -> Result<Oracle, String> {
        let mut rows = BTreeMap::new();
        for (number, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let bad = || format!("verdicts.tsv line {}: malformed row '{line}'", number + 1);
            let fields: Vec<&str> = line.split('\t').collect();
            let [corpus, name, verdict, source, hqs] = fields[..] else {
                return Err(bad());
            };
            Corpus::from_name(corpus).ok_or_else(bad)?;
            let expected = Expected {
                verdict: Verdict::parse(verdict).ok_or_else(bad)?,
                source: Source::parse(source).ok_or_else(bad)?,
                hqs: Verdict::parse(hqs).ok_or_else(bad)?,
            };
            rows.insert(name.to_string(), expected);
        }
        Ok(Oracle { rows })
    }

    /// The row for `name`.
    #[must_use]
    fn expected(&self, name: &str) -> Option<Expected> {
        self.rows.get(name).copied()
    }

    /// Whether HQS's pinned outcome on `name` is a memout.
    #[must_use]
    pub(crate) fn expects_memout(&self, name: &str) -> bool {
        self.expected(name)
            .is_some_and(|expected| expected.hqs == Verdict::Memout)
    }

    /// Compares a job's outcome with the oracle. `certified` says the
    /// verdict came with a certificate that was checked during the run,
    /// which is an independent check of its own.
    #[must_use]
    pub(crate) fn check(&self, name: &str, outcome: &JobOutcome, certified: bool) -> Check {
        let Some(expected) = self.expected(name) else {
            return Check::Wrong(format!("{name}: not in the oracle"));
        };
        let got = match outcome {
            JobOutcome::Sat => Verdict::Sat,
            JobOutcome::Unsat => Verdict::Unsat,
            JobOutcome::Limit(Exhaustion::Memout) if expected.hqs == Verdict::Memout => {
                return Check::ExpectedMemout;
            }
            other => return Check::Failed(format!("{name}: {}", other.code())),
        };
        match expected.verdict {
            Verdict::Memout if certified => Check::Verified,
            Verdict::Memout => Check::Unverified,
            want if want != got => Check::Wrong(format!(
                "{name}: answered {} but {} says {}",
                got.code(),
                expected.source.code(),
                want.code()
            )),
            _ if certified || expected.source != Source::Pinned => Check::Verified,
            _ => Check::Pinned,
        }
    }
}

/// Verdict bookkeeping over the jobs of a run.
#[derive(Clone, Debug, Default)]
pub(crate) struct Tally {
    /// Jobs issued.
    pub attempted: usize,
    /// Definitive verdicts.
    pub solved: usize,
    /// … checked against an independent source.
    pub verified: usize,
    /// … checked only against HQS's pinned answer.
    pub pinned: usize,
    /// … on instances the oracle only knows as memouts.
    pub unverified: usize,
    /// Memouts the oracle expects.
    pub expected_memouts: usize,
    /// Jobs without a verdict where one was expected.
    pub failed: usize,
    /// Verdicts contradicting the oracle.
    pub wrong: usize,
    /// One line per failed or wrong job.
    pub problems: Vec<String>,
}

impl Tally {
    /// Records one job.
    pub(crate) fn record(&mut self, check: Check) {
        self.attempted += 1;
        self.solved += usize::from(check.solved());
        match check {
            Check::Verified => self.verified += 1,
            Check::Pinned => self.pinned += 1,
            Check::Unverified => self.unverified += 1,
            Check::ExpectedMemout => self.expected_memouts += 1,
            Check::Failed(problem) => {
                self.failed += 1;
                self.problems.push(format!("failed: {problem}"));
            }
            Check::Wrong(problem) => {
                self.wrong += 1;
                self.problems.push(format!("WRONG: {problem}"));
            }
        }
    }

    /// Adds another tally's counts to this one.
    pub(crate) fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.solved += other.solved;
        self.verified += other.verified;
        self.pinned += other.pinned;
        self.unverified += other.unverified;
        self.expected_memouts += other.expected_memouts;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.problems.extend(other.problems.iter().cloned());
    }
}

/// HQS's outcome on `dqbf` under the benchmark limits.
fn solve_hqs(dqbf: &Dqbf) -> Result<Verdict, String> {
    let config = HqsConfig {
        budget: Budget::new()
            .with_timeout(JOB_TIMEOUT)
            .with_node_limit(NODE_LIMIT),
        ..HqsConfig::default()
    };
    let mut session = Session::builder()
        .config(config)
        .build()
        .map_err(|e| e.to_string())?;
    match session.solve(dqbf) {
        Outcome::Sat => Ok(Verdict::Sat),
        Outcome::Unsat => Ok(Verdict::Unsat),
        Outcome::Unknown(Exhaustion::Memout) => Ok(Verdict::Memout),
        Outcome::Unknown(other) => Err(format!("HQS stopped by {other:?}")),
    }
}

/// Decides `dqbf` by a checked certificate, trying the side HQS chose
/// first.
fn certify(dqbf: &Dqbf, hqs: Verdict) -> Option<Verdict> {
    let skolem = || extract_skolem(dqbf).is_some_and(|c| c.verify(dqbf));
    let refutation = || extract_refutation(dqbf).is_some_and(|c| c.verify(dqbf));
    if hqs == Verdict::Unsat {
        refutation()
            .then_some(Verdict::Unsat)
            .or_else(|| skolem().then_some(Verdict::Sat))
    } else {
        skolem()
            .then_some(Verdict::Sat)
            .or_else(|| refutation().then_some(Verdict::Unsat))
    }
}

/// Decides `dqbf` with the instantiation-based baseline within
/// [`IDQ_BUDGET`].
fn idq(dqbf: &Dqbf) -> Option<Verdict> {
    let mut solver = InstantiationSolver::new();
    solver.set_budget(
        Budget::new()
            .with_timeout(IDQ_BUDGET)
            .with_node_limit(NODE_LIMIT),
    );
    match solver.solve(dqbf) {
        DqbfResult::Sat => Some(Verdict::Sat),
        DqbfResult::Unsat => Some(Verdict::Unsat),
        DqbfResult::Limit(_) => None,
    }
}

/// Builds the oracle for both corpora, reporting progress on stderr.
///
/// # Errors
///
/// A message when HQS times out, when a certificate cannot be built for
/// a small instance, or when two sources disagree.
pub fn make_expected() -> Result<String, String> {
    let mut out = String::from(
        "# Expected outcomes of every benchmark instance.\n\
         # Regenerate: cargo run --release --manifest-path benchmark/Cargo.toml -- --make-expected\n\
         # corpus\tname\tverdict\tsource\thqs\n",
    );
    let mut sources: BTreeMap<&str, usize> = BTreeMap::new();
    for corpus in [Corpus::Table1Ci, Corpus::PecGraded] {
        for instance in corpus.generate() {
            let dqbf = &instance.dqbf;
            let name = &instance.name;
            let hqs = solve_hqs(dqbf).map_err(|e| format!("{name}: {e}"))?;
            let (verdict, source) = if !instance.fault {
                (Verdict::Sat, Source::Construction)
            } else if dqbf.universals().len() <= CERTIFY_MAX_UNIVERSALS {
                let verdict =
                    certify(dqbf, hqs).ok_or_else(|| format!("{name}: no checked certificate"))?;
                (verdict, Source::Certificate)
            } else if let Some(verdict) = idq(dqbf) {
                (verdict, Source::Idq)
            } else {
                (hqs, Source::Pinned)
            };
            if hqs != Verdict::Memout && hqs != verdict {
                return Err(format!(
                    "{name}: HQS answered {} but {} says {}",
                    hqs.code(),
                    source.code(),
                    verdict.code()
                ));
            }
            eprintln!(
                "{name}: {} ({}), hqs {}",
                verdict.code(),
                source.code(),
                hqs.code()
            );
            *sources.entry(source.code()).or_default() += 1;
            let _ = writeln!(
                out,
                "{}\t{name}\t{}\t{}\t{}",
                corpus.name(),
                verdict.code(),
                source.code(),
                hqs.code()
            );
        }
    }
    eprintln!("sources: {sources:?}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqs_engine::JobOutcome;

    fn oracle() -> Oracle {
        Oracle::parse(
            "# header\n\
             table1-ci\tsat\tSAT\tconstruction\tSAT\n\
             table1-ci\tpinned\tUNSAT\tpinned\tUNSAT\n\
             table1-ci\tmo_known\tSAT\tconstruction\tMEMOUT\n\
             pec-graded\tmo_unknown\tMEMOUT\tpinned\tMEMOUT\n",
        )
        .expect("well-formed")
    }

    #[test]
    fn checks_follow_the_source() {
        let o = oracle();
        assert_eq!(o.check("sat", &JobOutcome::Sat, false), Check::Verified);
        assert!(matches!(
            o.check("sat", &JobOutcome::Unsat, false),
            Check::Wrong(_)
        ));
        assert_eq!(o.check("pinned", &JobOutcome::Unsat, false), Check::Pinned);
        assert_eq!(o.check("pinned", &JobOutcome::Unsat, true), Check::Verified);
        let memout = JobOutcome::Limit(Exhaustion::Memout);
        assert_eq!(o.check("mo_known", &memout, false), Check::ExpectedMemout);
        assert_eq!(
            o.check("mo_known", &JobOutcome::Sat, false),
            Check::Verified
        );
        assert!(matches!(
            o.check("mo_known", &JobOutcome::Unsat, false),
            Check::Wrong(_)
        ));
        assert_eq!(
            o.check("mo_unknown", &JobOutcome::Unsat, false),
            Check::Unverified
        );
        assert!(matches!(o.check("sat", &memout, false), Check::Failed(_)));
        assert!(matches!(
            o.check("missing", &JobOutcome::Sat, false),
            Check::Wrong(_)
        ));
    }

    #[test]
    fn malformed_rows_are_rejected() {
        assert!(Oracle::parse("table1-ci\tx\tSAT\tconstruction\n").is_err());
        assert!(Oracle::parse("nope\tx\tSAT\tconstruction\tSAT\n").is_err());
        assert!(Oracle::parse("table1-ci\tx\tMAYBE\tconstruction\tSAT\n").is_err());
    }

    #[test]
    fn tally_counts_add_up() {
        let mut tally = Tally::default();
        tally.record(Check::Verified);
        tally.record(Check::Pinned);
        tally.record(Check::ExpectedMemout);
        tally.record(Check::Failed("x".into()));
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.solved, 2);
        assert_eq!(tally.failed, 1);
        assert_eq!(tally.problems.len(), 1);
    }
}
