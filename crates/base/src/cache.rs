//! A byte-budgeted, thread-safe LRU cache shared across solver sessions.
//!
//! The serving architecture keeps verdicts alive between requests. Its
//! cache needs a hard *byte* budget and cheap cross-thread statistics
//! (the server's `stats` command reads hit rates without taking the
//! cache lock). [`ByteBudgetLru`] packages both.
//!
//! Recency is tracked with monotone stamps and a lazily-pruned queue, the
//! classic amortised-O(1) LRU without an intrusive list: every `get` or
//! `insert` pushes a fresh `(key, stamp)` pair, and eviction pops from
//! the front, skipping pairs whose stamp is no longer the key's current
//! one.
//!
//! # Examples
//!
//! ```
//! use hqs_base::ByteBudgetLru;
//!
//! let cache: ByteBudgetLru<u32, String> = ByteBudgetLru::new(64);
//! cache.insert(1, "one".to_string(), 32);
//! cache.insert(2, "two".to_string(), 32);
//! assert_eq!(cache.get(&1).as_deref(), Some("one"));
//! // Inserting a third 32-byte entry exceeds the 64-byte budget and
//! // evicts the least recently used key (2 — key 1 was just touched).
//! cache.insert(3, "three".to_string(), 32);
//! assert_eq!(cache.get(&2), None);
//! assert!(cache.get(&1).is_some() && cache.get(&3).is_some());
//! let stats = cache.stats();
//! assert_eq!(stats.evictions, 1);
//! ```

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A point-in-time copy of a cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries removed to stay inside the byte budget.
    pub evictions: u64,
    /// Bytes currently accounted to live entries.
    pub bytes: usize,
    /// Number of live entries.
    pub entries: usize,
}

impl CacheStatsSnapshot {
    /// Hit rate in `[0, 1]`; `0.0` before any lookup.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Hit/miss/eviction counters updated without holding the cache lock.
///
/// The counters are monotone and only ever summed or displayed, so
/// `Relaxed` loads and stores suffice: no other memory is published
/// through them.
#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

struct Entry<V> {
    value: V,
    cost: usize,
    stamp: u64,
}

struct LruState<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Recency queue of `(key, stamp)`; stale pairs (stamp no longer the
    /// key's current one) are skipped during eviction.
    queue: VecDeque<(K, u64)>,
    bytes: usize,
    next_stamp: u64,
}

/// A thread-safe LRU cache bounded by a total byte budget.
///
/// Every entry carries a caller-supplied byte cost; inserting past the
/// budget evicts least-recently-used entries until the new entry fits.
/// An entry whose cost alone exceeds the budget is silently not stored.
/// The module docs in `cache.rs` show a worked example.
pub struct ByteBudgetLru<K, V> {
    state: Mutex<LruState<K, V>>,
    counters: CacheCounters,
    budget: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> ByteBudgetLru<K, V> {
    /// Creates an empty cache with the given byte budget.
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        ByteBudgetLru {
            state: Mutex::new(LruState {
                map: HashMap::new(),
                queue: VecDeque::new(),
                bytes: 0,
                next_stamp: 0,
            }),
            counters: CacheCounters::default(),
            budget: budget_bytes,
        }
    }

    /// The configured byte budget.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LruState<K, V>> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up `key`, cloning the value and refreshing its recency.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut state = self.lock();
        let stamp = state.next_stamp;
        state.next_stamp += 1;
        if let Some(entry) = state.map.get_mut(key) {
            entry.stamp = stamp;
            let value = entry.value.clone();
            state.queue.push_back((key.clone(), stamp));
            drop(state);
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            Some(value)
        } else {
            drop(state);
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Inserts `key → value`, charging `cost` bytes against the budget
    /// and evicting least-recently-used entries as needed. Replacing an
    /// existing key first releases the old entry's bytes. An entry whose
    /// cost alone exceeds the budget is not stored (and the key, if
    /// present, is removed rather than left stale).
    pub fn insert(&self, key: K, value: V, cost: usize) {
        let mut evicted = 0u64;
        {
            let mut state = self.lock();
            // analyze::allow(lock): std map removal under the cache's single lock takes no further lock
            if let Some(old) = state.map.remove(&key) {
                state.bytes -= old.cost;
            }
            if cost > self.budget {
                drop(state);
                return;
            }
            while state.bytes + cost > self.budget {
                let Some((victim, stamp)) = state.queue.pop_front() else {
                    break;
                };
                let live = state.map.get(&victim).is_some_and(|e| e.stamp == stamp);
                if live {
                    // The expect cannot fire: `live` just witnessed the key.
                    let gone = state.map.remove(&victim).expect("live LRU victim");
                    state.bytes -= gone.cost;
                    evicted += 1;
                }
            }
            let stamp = state.next_stamp;
            state.next_stamp += 1;
            state.queue.push_back((key.clone(), stamp));
            // analyze::allow(lock): std map insertion under the cache's single lock takes no further lock
            state.map.insert(key, Entry { value, cost, stamp });
            state.bytes += cost;
        }
        if evicted > 0 {
            self.counters
                .evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` when the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently accounted to live entries.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Drops every entry (counters are retained).
    pub fn clear(&self) {
        let mut state = self.lock();
        // analyze::allow(lock) lines=2: std collection clears under the cache's single lock take no further lock
        state.map.clear();
        state.queue.clear();
        state.bytes = 0;
    }

    /// A consistent snapshot of counters plus current occupancy.
    #[must_use]
    pub fn stats(&self) -> CacheStatsSnapshot {
        let (bytes, entries) = {
            let state = self.lock();
            // analyze::allow(lock): std map len under the cache's single lock takes no further lock
            (state.bytes, state.map.len())
        };
        CacheStatsSnapshot {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            bytes,
            entries,
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> std::fmt::Debug for ByteBudgetLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ByteBudgetLru")
            .field("budget", &self.budget)
            .field("bytes", &s.bytes)
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_recency() {
        let cache: ByteBudgetLru<u32, u32> = ByteBudgetLru::new(100);
        assert_eq!(cache.get(&1), None);
        cache.insert(1, 10, 10);
        assert_eq!(cache.get(&1), Some(10));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.bytes, 10);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let cache: ByteBudgetLru<u32, u32> = ByteBudgetLru::new(30);
        cache.insert(1, 1, 10);
        cache.insert(2, 2, 10);
        cache.insert(3, 3, 10);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(cache.get(&1), Some(1));
        cache.insert(4, 4, 10);
        assert_eq!(cache.get(&2), None, "LRU entry evicted");
        assert_eq!(cache.get(&1), Some(1));
        assert_eq!(cache.get(&3), Some(3));
        assert_eq!(cache.get(&4), Some(4));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn oversized_entry_is_rejected() {
        let cache: ByteBudgetLru<u32, u32> = ByteBudgetLru::new(10);
        cache.insert(1, 1, 11);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.bytes(), 0);
        // Replacing a live key with an oversized value removes the key
        // instead of serving the stale value.
        cache.insert(2, 2, 5);
        cache.insert(2, 3, 11);
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn replace_releases_old_cost() {
        let cache: ByteBudgetLru<u32, u32> = ByteBudgetLru::new(20);
        cache.insert(1, 1, 15);
        cache.insert(1, 2, 10);
        assert_eq!(cache.bytes(), 10);
        assert_eq!(cache.get(&1), Some(2));
        // Room for a second 10-byte entry without eviction.
        cache.insert(2, 2, 10);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_cascades_until_fit() {
        let cache: ByteBudgetLru<u32, u32> = ByteBudgetLru::new(30);
        cache.insert(1, 1, 10);
        cache.insert(2, 2, 10);
        cache.insert(3, 3, 10);
        cache.insert(4, 4, 30);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&4), Some(4));
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache: ByteBudgetLru<u32, u32> = ByteBudgetLru::new(100);
        cache.insert(1, 1, 10);
        let _ = cache.get(&1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn hit_rate() {
        let cache: ByteBudgetLru<u32, u32> = ByteBudgetLru::new(100);
        cache.insert(1, 1, 1);
        let _ = cache.get(&1);
        let _ = cache.get(&2);
        let s = cache.stats();
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(CacheStatsSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let cache: Arc<ByteBudgetLru<u32, u32>> = Arc::new(ByteBudgetLru::new(1000));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    cache.insert(t * 100 + i, i, 8);
                    let _ = cache.get(&(t * 100 + i));
                }
            }));
        }
        for h in handles {
            h.join().expect("cache worker");
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 400);
        assert!(s.bytes <= 1000);
    }
}
