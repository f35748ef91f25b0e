//! Resource budgets and cooperative cancellation for any-time solvers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A shared cooperative-cancellation flag.
///
/// Cloning the token shares the underlying flag: cancelling any clone
/// cancels them all. The portfolio engine hands one token to every
/// racing worker; each existing budget poll site
/// ([`Budget::check`], [`Budget::stop_requested`]) then doubles as a
/// cancellation point, so cancellation latency is bounded by the
/// solvers' poll cadence rather than requiring any new plumbing.
///
/// The first [`cancel`](CancelToken::cancel) call wins and records its
/// reason; later calls are no-ops.
///
/// # Examples
///
/// ```
/// use hqs_base::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel("portfolio winner arrived");
/// assert!(observer.is_cancelled());
/// assert_eq!(observer.reason().as_deref(), Some("portfolio winner arrived"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    reason: Mutex<Option<String>>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Fires the token. The first caller's `reason` is recorded; later
    /// calls leave the stored reason untouched.
    pub fn cancel(&self, reason: &str) {
        // Record the reason before publishing the flag so any observer
        // that sees `cancelled` also sees a reason.
        {
            let mut slot = match self.inner.reason.lock() {
                Ok(slot) => slot,
                Err(poisoned) => poisoned.into_inner(),
            };
            if slot.is_none() {
                *slot = Some(reason.to_string());
            }
        }
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Returns `true` once any clone of this token has been cancelled.
    ///
    /// A single atomic load — cheap enough for inner solver loops.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// The reason recorded by the winning [`cancel`](CancelToken::cancel)
    /// call, if any.
    #[must_use]
    pub fn reason(&self) -> Option<String> {
        match self.inner.reason.lock() {
            Ok(slot) => slot.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }
}

/// A resource budget shared by the QBF/DQBF solvers: a wall-clock deadline
/// (the paper's 2-hour timeout), a node-count ceiling (the analogue of
/// the paper's 8 GB memory limit — AIG nodes are the dominating
/// allocation), and an optional shared [`CancelToken`] through which a
/// portfolio driver can tear down losing workers cooperatively.
///
/// # Examples
///
/// ```
/// use hqs_base::Budget;
/// use std::time::Duration;
///
/// let budget = Budget::new()
///     .with_timeout(Duration::from_secs(60))
///     .with_node_limit(1_000_000);
/// assert!(!budget.time_exhausted());
/// assert!(budget.nodes_exhausted(2_000_000));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    node_limit: Option<usize>,
    cancel: Option<CancelToken>,
}

/// Why a solver stopped without an answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Exhaustion {
    /// The wall-clock deadline passed (paper: "TO").
    Timeout,
    /// The node/memory ceiling was hit (paper: "MO").
    Memout,
    /// The shared [`CancelToken`] fired — another portfolio worker won
    /// the race, or the driver tore the run down.
    Cancelled,
}

impl std::fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exhaustion::Timeout => write!(f, "timeout"),
            Exhaustion::Memout => write!(f, "memout"),
            Exhaustion::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl Budget {
    /// An unlimited budget.
    #[must_use]
    pub fn new() -> Self {
        Budget::default()
    }

    /// Limits wall-clock time, measured from this call.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Limits the number of live AIG nodes.
    #[must_use]
    pub fn with_node_limit(mut self, nodes: usize) -> Self {
        self.node_limit = Some(nodes);
        self
    }

    /// Attaches a shared cancellation token: every
    /// [`check`](Budget::check) / [`stop_requested`](Budget::stop_requested)
    /// poll then observes it.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The attached cancellation token, if any.
    #[must_use]
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Returns `true` once the attached token (if any) has fired.
    #[must_use]
    pub fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Returns `true` if the deadline has passed.
    #[must_use]
    pub fn time_exhausted(&self) -> bool {
        // analyze::allow(determinism): the wall-clock deadline is an explicit, user-requested bound; deterministic runs set no time budget
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The time until the deadline (zero once it passed), or `None`
    /// without one.
    #[must_use]
    pub fn time_left(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Returns `true` if `nodes` exceeds the node ceiling.
    #[must_use]
    pub fn nodes_exhausted(&self, nodes: usize) -> bool {
        self.node_limit.is_some_and(|limit| nodes > limit)
    }

    /// Returns `true` when the solve should stop for a reason that is
    /// not node-count dependent: cancellation or the deadline. This is
    /// the poll used as the `should_stop` callback of incremental SAT
    /// runs, where no node count is available.
    #[must_use]
    pub fn stop_requested(&self) -> bool {
        self.cancelled() || self.time_exhausted()
    }

    /// The exhaustion to report after [`stop_requested`](Budget::stop_requested)
    /// returned `true`: [`Exhaustion::Cancelled`] when the token fired,
    /// [`Exhaustion::Timeout`] otherwise.
    #[must_use]
    pub fn stop_reason(&self) -> Exhaustion {
        if self.cancelled() {
            Exhaustion::Cancelled
        } else {
            Exhaustion::Timeout
        }
    }

    /// Convenience check combining all limits. Cancellation is reported
    /// first (it is the cheapest check and the most urgent verdict),
    /// then the deadline, then the node ceiling.
    #[must_use]
    pub fn check(&self, nodes: usize) -> Option<Exhaustion> {
        if self.cancelled() {
            Some(Exhaustion::Cancelled)
        } else if self.time_exhausted() {
            Some(Exhaustion::Timeout)
        } else if self.nodes_exhausted(nodes) {
            Some(Exhaustion::Memout)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::new();
        assert!(!b.time_exhausted());
        assert!(!b.nodes_exhausted(usize::MAX));
        assert!(!b.stop_requested());
        assert_eq!(b.check(usize::MAX), None);
    }

    #[test]
    fn node_limit() {
        let b = Budget::new().with_node_limit(10);
        assert!(!b.nodes_exhausted(10));
        assert!(b.nodes_exhausted(11));
        assert_eq!(b.check(11), Some(Exhaustion::Memout));
    }

    #[test]
    fn elapsed_deadline() {
        let b = Budget::new().with_timeout(Duration::from_secs(0));
        std::thread::sleep(Duration::from_millis(1));
        assert!(b.time_exhausted());
        assert!(b.stop_requested());
        assert_eq!(b.stop_reason(), Exhaustion::Timeout);
        assert_eq!(b.check(0), Some(Exhaustion::Timeout));
    }

    #[test]
    fn cancellation_is_shared_and_observed_first() {
        let token = CancelToken::new();
        let b = Budget::new()
            .with_timeout(Duration::from_secs(0))
            .with_node_limit(0)
            .with_cancel_token(token.clone());
        std::thread::sleep(Duration::from_millis(1));
        // Deadline already passed, but cancellation takes precedence
        // once the token fires.
        assert_eq!(b.check(1), Some(Exhaustion::Timeout));
        token.cancel("test");
        assert!(b.cancelled());
        assert!(b.stop_requested());
        assert_eq!(b.stop_reason(), Exhaustion::Cancelled);
        assert_eq!(b.check(1), Some(Exhaustion::Cancelled));
    }

    #[test]
    fn first_cancel_reason_wins() {
        let token = CancelToken::new();
        assert_eq!(token.reason(), None);
        token.cancel("first");
        token.cancel("second");
        assert!(token.is_cancelled());
        assert_eq!(token.reason().as_deref(), Some("first"));
    }

    #[test]
    fn clones_share_the_flag() {
        let token = CancelToken::new();
        let observer = token.clone();
        let handle = std::thread::spawn(move || {
            token.cancel("from another thread");
        });
        handle.join().expect("cancelling thread");
        assert!(observer.is_cancelled());
        assert_eq!(observer.reason().as_deref(), Some("from another thread"));
    }
}
