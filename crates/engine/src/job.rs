//! The one per-job solve behind batch, serve and portfolio.
//!
//! Every entry point answers a job the same way: build a session from
//! the job's configuration, solve, and — when the configuration asks
//! for certification — certify the verdict. Keeping that sequence in
//! one function keeps certificate handling from drifting between entry
//! points; callers only map [`JobError`] into their own error shape.

use crate::WorkerVerdict;
use hqs_core::{
    CertifiedOutcome, CertifyError, ConfigError, Dqbf, HqsConfig, Outcome, Session, WarmCache,
};
use hqs_obs::Observer;
use std::fmt;
use std::sync::Arc;

/// Why a job produced no verdict. The two causes stay apart because
/// callers report them differently: a rejected configuration is a
/// broken request or deck entry, a certification failure is a
/// soundness alarm about the verdict.
#[derive(Debug)]
pub enum JobError {
    /// The configuration failed validation when the session was built.
    Config(ConfigError),
    /// Certificate extraction or verification failed.
    Certify(CertifyError),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Config(error) => write!(f, "{error}"),
            JobError::Certify(error) => write!(f, "{error}"),
        }
    }
}

/// Solves one formula under `config`, whose `budget` and `certify`
/// fields the caller has already set.
///
/// With `config.certify` on, a definitive verdict is returned only
/// with a checked certificate (`certified == true`). A formula with
/// too many universals to expand keeps its plain verdict and is
/// reported uncertified. `observer` and `warm` are attached to the
/// session when given.
///
/// # Errors
///
/// [`JobError::Config`] when the session rejects `config`,
/// [`JobError::Certify`] when a certificate cannot be built or checked.
pub fn solve_job(
    dqbf: &Dqbf,
    config: HqsConfig,
    observer: Option<Arc<dyn Observer>>,
    warm: Option<Arc<WarmCache>>,
) -> Result<WorkerVerdict, JobError> {
    let certify = config.certify;
    let mut builder = Session::builder().config(config);
    if let Some(observer) = observer {
        builder = builder.observer(observer);
    }
    if let Some(warm) = warm {
        builder = builder.warm_cache(warm);
    }
    let mut session = builder.build().map_err(JobError::Config)?;
    let (result, certified) = if !certify {
        (session.solve(dqbf), false)
    } else {
        match session.solve_certified(dqbf) {
            Ok(CertifiedOutcome::Sat(_)) => (Outcome::Sat, true),
            Ok(CertifiedOutcome::Unsat(_)) => (Outcome::Unsat, true),
            Ok(CertifiedOutcome::Limit(e)) => (Outcome::Unknown(e), false),
            // Certificates expand the universals; past the expansion
            // limit keep the plain verdict and report it uncertified.
            Err(CertifyError::TooLarge) => (session.solve(dqbf), false),
            Err(error) => return Err(JobError::Certify(error)),
        }
    };
    Ok(WorkerVerdict { result, certified })
}
