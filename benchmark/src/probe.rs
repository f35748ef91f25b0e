//! A fixed probe of the machine's speed, by which an untraced run scales
//! its times towards the reference machine's usual speed.
//!
//! The reference machine is a shared virtual machine. Other tenants load
//! its memory system, and its speed drifts by 15–35 % over minutes. A run
//! of half a minute lies inside one such stretch, so no statistic over
//! one run removes the drift: in ten runs of one workload the slow
//! stretches set the spread. The probe is fixed code timed between jobs.
//! It runs random lookups in a 32 MB hash table, so it depends on the
//! memory system as the solver does, and it slows when the solver slows.
//! The probe is the benchmark's own code, so a change to the solver never
//! moves it. `BENCHMARK.md` gives the measurements behind the choices
//! below.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How far the solver's times follow the probe's: the exponent of the
/// probe's slowdown by which a pass is scaled. Fitted over four sets of
/// ten runs of each workload on the reference machine, a pass of
/// `pec-graded` slowed by the probe's slowdown to the power 0.79–0.90,
/// one of `certify` to the power 0.59–0.75, and one of `table1-ci` to
/// the power 0.05–0.81, by the hour. This is the median of the twelve
/// fits. The full factor overcorrects the workloads that follow the
/// probe least: it tripled the spread of `table1-ci` in one set.
const ELASTICITY: f64 = 0.75;

/// Entries in the probe's table: about 32 MB, far beyond the caches
/// a core has to itself.
const TABLE_ENTRIES: u64 = 1 << 20;

/// Lookups per probe: about 6 ms on the reference machine.
const LOOKUPS: usize = 50_000;

/// The median probe time on the reference machine: a pass probed at
/// this speed is not scaled.
const REFERENCE_S: f64 = 0.0058;

/// Least time between two probes taken between jobs: the probe then costs
/// about 2.5 % of a pass.
const EVERY: Duration = Duration::from_millis(250);

/// The probe and the times it took since the last [`Probe::factor`].
pub(crate) struct Probe {
    /// Fixed keys and a fixed hasher, so every run probes the same table.
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    samples: Vec<f64>,
    last: Instant,
}

impl Probe {
    /// Builds the table and takes one probe.
    #[must_use]
    pub(crate) fn new() -> Probe {
        let mut probe = Probe {
            table: (0..TABLE_ENTRIES).map(|k| (k, k.wrapping_mul(3))).collect(),
            samples: Vec::new(),
            last: Instant::now(),
        };
        probe.sample();
        probe
    }

    /// Times the probe once.
    pub(crate) fn sample(&mut self) {
        let started = Instant::now();
        let mut key = 0x9e37_79b9_7f4a_7c15_u64;
        let mut sum = 0u64;
        for _ in 0..LOOKUPS {
            key ^= key << 13;
            key ^= key >> 7;
            key ^= key << 17;
            sum = sum.wrapping_add(self.table[&(key % TABLE_ENTRIES)]);
        }
        black_box(sum);
        self.last = Instant::now();
        self.samples.push((self.last - started).as_secs_f64());
    }

    /// Times the probe if [`EVERY`] has passed since the last probe.
    pub(crate) fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.sample();
        }
    }

    /// [`REFERENCE_S`] over the median probe time since the last call,
    /// to the power [`ELASTICITY`]: the factor that scales the times
    /// measured in between. The probes start again from none. 1 if there
    /// were none.
    pub(crate) fn factor(&mut self) -> f64 {
        let median = crate::metrics::median(&self.samples);
        self.samples.clear();
        if median > 0.0 {
            (REFERENCE_S / median).powf(ELASTICITY)
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_covers_the_probes_since_the_last_one() {
        let mut probe = Probe::new();
        probe.sample();
        let factor = probe.factor();
        assert!(factor.is_finite() && factor > 0.0, "{factor}");
        assert!(probe.samples.is_empty());
        assert_eq!(probe.factor(), 1.0);
        // Right after a probe, a tick takes none.
        probe.sample();
        probe.tick();
        assert_eq!(probe.samples.len(), 1);
    }
}
