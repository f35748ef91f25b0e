//! The restart schedule: Glucose-style EMA restarts with a Luby safety
//! net underneath (the hybrid of the two).
//!
//! The scheduler keeps a fast (α = 1/32) and a slow (α = 1/4096)
//! exponential moving average of conflict LBDs and asks for a restart
//! when `fast > 1.25 · slow` — the search is currently producing
//! markedly worse clauses than its long-run norm, so a fresh descent is
//! likely cheaper than pushing on.
//!
//! On conflict-starved stretches (typical near a satisfying assignment)
//! the EMAs go quiet and would never restart, so once the conflict count
//! since the last restart exceeds four pending Luby intervals the
//! scheduler falls back to Luby until the EMA trigger fires again. Each
//! direction change is one `mode switch`, surfaced in
//! `SolverStats::restart_mode_switches` and the `sat_restart_switches`
//! metric.

use crate::luby::Luby;

/// Minimum conflicts between EMA-triggered restarts, and the warm-up
/// length before the EMAs are trusted at all.
const EMA_MIN_INTERVAL: u64 = 50;
/// `fast > RATIO · slow` triggers an EMA restart.
const EMA_RATIO: f64 = 1.25;
/// Hybrid falls back to Luby once `conflicts_since` exceeds this many
/// Luby intervals without an EMA trigger.
const HYBRID_PATIENCE: u64 = 4;

pub(crate) struct RestartSched {
    luby: Luby,
    interval: u64,
    conflicts_since: u64,
    conflicts_total: u64,
    fast: f64,
    slow: f64,
    in_luby_fallback: bool,
    switches: u64,
}

impl RestartSched {
    pub(crate) fn new() -> Self {
        let mut luby = Luby::new(100);
        let interval = luby.next_interval();
        RestartSched {
            luby,
            interval,
            conflicts_since: 0,
            conflicts_total: 0,
            fast: 0.0,
            slow: 0.0,
            in_luby_fallback: false,
            switches: 0,
        }
    }

    /// Feeds one conflict's LBD into the moving averages.
    pub(crate) fn on_conflict(&mut self, lbd: u32) {
        self.conflicts_since += 1;
        self.conflicts_total += 1;
        let lbd = f64::from(lbd);
        if self.conflicts_total == 1 {
            // Seed both averages with the first observation; starting
            // from 0.0 would leave the slow EMA near zero for thousands
            // of conflicts and make the fast/slow ratio fire spuriously.
            self.fast = lbd;
            self.slow = lbd;
        } else {
            self.fast += (lbd - self.fast) / 32.0;
            self.slow += (lbd - self.slow) / 4096.0;
        }
    }

    fn ema_fires(&self) -> bool {
        self.conflicts_total > EMA_MIN_INTERVAL
            && self.conflicts_since >= EMA_MIN_INTERVAL
            && self.fast > EMA_RATIO * self.slow
    }

    /// `true` when the schedule asks for a restart. Call
    /// [`on_restart`](Self::on_restart) when acting on it.
    pub(crate) fn should_restart(&mut self) -> bool {
        if self.ema_fires() {
            if self.in_luby_fallback {
                self.in_luby_fallback = false;
                self.switches += 1;
            }
            return true;
        }
        if self.conflicts_since >= HYBRID_PATIENCE * self.interval {
            if !self.in_luby_fallback {
                self.in_luby_fallback = true;
                self.switches += 1;
            }
            return true;
        }
        false
    }

    /// Acknowledges a restart: resets the window and advances Luby.
    pub(crate) fn on_restart(&mut self) {
        self.conflicts_since = 0;
        self.interval = self.luby.next_interval();
    }

    /// Hybrid EMA↔Luby direction changes so far.
    pub(crate) fn switches(&self) -> u64 {
        self.switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ema_mode_fires_on_lbd_degradation() {
        // 300 conflicts end before the Luby fallback (400), so only the
        // EMA trigger can fire here.
        let mut sched = RestartSched::new();
        // Long calm stretch of good (low-LBD) conflicts: no restart.
        for _ in 0..200 {
            sched.on_conflict(2);
        }
        assert!(!sched.should_restart());
        // A burst of terrible clauses drags the fast EMA up.
        for _ in 0..100 {
            sched.on_conflict(40);
        }
        assert!(sched.should_restart());
        sched.on_restart();
        assert_eq!(sched.switches(), 0);
    }

    #[test]
    fn ema_mode_never_fires_during_warmup() {
        let mut sched = RestartSched::new();
        for _ in 0..EMA_MIN_INTERVAL {
            sched.on_conflict(50);
            assert!(!sched.should_restart());
        }
    }

    #[test]
    fn hybrid_falls_back_to_luby_and_counts_switches() {
        let mut sched = RestartSched::new();
        // Steady low LBDs starve the EMA trigger; after enough patience
        // the Luby fallback kicks in and is counted as a switch.
        let mut fired_at = None;
        for i in 0..1000 {
            sched.on_conflict(2);
            if sched.should_restart() {
                fired_at = Some(i);
                break;
            }
        }
        assert_eq!(fired_at, Some(HYBRID_PATIENCE * 100 - 1));
        assert_eq!(sched.switches(), 1);
        sched.on_restart();
        // An LBD burst brings EMA back: second switch.
        for _ in 0..100 {
            sched.on_conflict(45);
        }
        assert!(sched.should_restart());
        assert_eq!(sched.switches(), 2);
    }
}
