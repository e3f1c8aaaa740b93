//! A sharded LRU cache with single-flight deduplication.
//!
//! Two invariants carry the serving layer's correctness story:
//!
//! * **Key fidelity** — a lookup can only ever observe a value that was
//!   inserted under the *same* key: entries live in per-shard hash maps
//!   keyed by the full key (the shard index is derived from the key's
//!   hash, so one key always lands in one shard), never by a truncated
//!   hash.
//! * **Single flight** — when several requests for one key arrive while
//!   no cached value exists, exactly one caller (the *leader*) runs the
//!   compute closure; the rest block on the leader's flight and observe
//!   a clone of the leader's exact result. If the leader panics, the
//!   flight is marked abandoned by a drop guard and each waiter retries
//!   (typically becoming the next leader) instead of deadlocking.
//!
//! Eviction is least-recently-used per shard, implemented with a
//! monotonic use tick and an `O(shard len)` minimum scan — shards are
//! small (capacity / shard count), and the scan keeps the structure a
//! single `HashMap` with no unsafe pointer juggling. Capacity 0
//! disables the cache entirely: every call computes, nothing is stored,
//! and no deduplication happens (a bypass, not a degenerate cache).

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};
use std::sync::{Arc, Condvar, Mutex};

/// How a [`ShardedCache::get_or_compute`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache without computing.
    Hit,
    /// This caller was the leader and ran the compute closure.
    Computed,
    /// Joined another caller's in-flight computation.
    Joined,
}

struct Entry<V> {
    value: V,
    last_use: u64,
}

/// A single-threaded LRU map: the per-shard store. Exposed for the
/// property tests that drive it against a naive reference model.
pub struct LruCache<K, V> {
    cap: usize,
    tick: u64,
    map: HashMap<K, Entry<V>>,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `cap` entries (0 = always empty).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            tick: 0,
            map: HashMap::new(),
        }
    }

    fn touch(tick: &mut u64) -> u64 {
        *tick += 1;
        *tick
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let tick = Self::touch(&mut self.tick);
        self.map.get_mut(key).map(|e| {
            e.last_use = tick;
            &e.value
        })
    }

    /// Inserts or replaces `key`, evicting the least-recently-used
    /// entry when a *new* key would exceed capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.cap == 0 {
            return;
        }
        let tick = Self::touch(&mut self.tick);
        if let Some(e) = self.map.get_mut(&key) {
            e.value = value;
            e.last_use = tick;
            return;
        }
        if self.map.len() >= self.cap {
            // Unique minimum: ticks strictly increase, so no tie-break
            // is needed and eviction order is deterministic.
            if let Some(victim) = self
                .map
                // mp-lint: allow(L10): ticks strictly increase, so the min is unique — scan order cannot change the victim
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
            }
        }
        self.map.insert(
            key,
            Entry {
                value,
                last_use: tick,
            },
        );
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

enum FlightState<V> {
    Pending,
    Ready(V),
    /// The leader unwound without producing a value.
    Abandoned,
}

/// One in-flight computation that followers can block on.
struct Flight<V> {
    // mp-lint: allow(L9): dedup rendezvous — followers of one identical in-flight query
    state: Mutex<FlightState<V>>,
    // mp-lint: allow(L9): signaled once per flight, never on the per-probe path
    done: Condvar,
}

impl<V: Clone> Flight<V> {
    fn new() -> Self {
        Self {
            // mp-lint: allow(L9): constructing the rendezvous pair, not acquiring
            state: Mutex::new(FlightState::Pending),
            // mp-lint: allow(L9): constructing the rendezvous pair, not acquiring
            done: Condvar::new(),
        }
    }

    /// Blocks until the leader finishes; `None` means abandoned.
    fn wait(&self) -> Option<V> {
        let mut st = self.state.lock().expect("mp-serve flight mutex poisoned");
        loop {
            match &*st {
                FlightState::Pending => {
                    st = self.done.wait(st).expect("mp-serve flight mutex poisoned");
                }
                FlightState::Ready(v) => return Some(v.clone()),
                FlightState::Abandoned => return None,
            }
        }
    }

    fn finish(&self, state: FlightState<V>) {
        if let Ok(mut st) = self.state.lock() {
            *st = state;
        }
        self.done.notify_all();
    }
}

struct Shard<K, V> {
    lru: LruCache<K, V>,
    inflight: HashMap<K, Arc<Flight<V>>>,
}

/// The concurrent cache: `n` mutex-guarded LRU shards plus a
/// single-flight table per shard.
pub struct ShardedCache<K, V> {
    // mp-lint: allow(L9): key-hash-sharded; cap-0 bypass never touches a shard lock
    shards: Vec<Mutex<Shard<K, V>>>,
    hasher: BuildHasherDefault<DefaultHasher>,
    /// Total capacity across shards, fixed at construction. Kept out of
    /// the shards so `is_active()`/`capacity()` — consulted on *every*
    /// request, including the cap-0 bypass — never take a shard lock.
    total_cap: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// A cache of `total_cap` entries spread over `n_shards` shards
    /// (each shard gets `ceil(total_cap / n_shards)`). `total_cap` 0
    /// disables caching *and* deduplication.
    ///
    /// # Panics
    /// Panics when `n_shards` is zero.
    pub fn new(total_cap: usize, n_shards: usize) -> Self {
        assert!(n_shards >= 1, "cache needs at least one shard");
        let per_shard = if total_cap == 0 {
            0
        } else {
            total_cap.div_ceil(n_shards)
        };
        Self {
            shards: (0..n_shards)
                .map(|_| {
                    // mp-lint: allow(L9): constructing the shards, not acquiring
                    Mutex::new(Shard {
                        lru: LruCache::new(per_shard),
                        inflight: HashMap::new(),
                    })
                })
                .collect(),
            hasher: BuildHasherDefault::default(),
            total_cap: per_shard * n_shards,
        }
    }

    /// Whether the cache stores anything at all (capacity > 0).
    /// Lock-free: reads a field fixed at construction.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.total_cap > 0
    }

    /// Total capacity across shards (0 when disabled). Lock-free.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.total_cap
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("mp-serve cache shard mutex poisoned")
                    .lru
                    .len()
            })
            .sum()
    }

    /// Whether no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-flight computations across shards (diagnostic; racy by
    /// nature, exact only while no call is active).
    pub fn inflight_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("mp-serve cache shard mutex poisoned")
                    .inflight
                    .len()
            })
            .sum()
    }

    // mp-lint: allow(L9): returns the shard handle; acquisition is the caller's
    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let idx = self.hasher.hash_one(key) % (self.shards.len() as u64);
        &self.shards[usize::try_from(idx).unwrap_or(0)]
    }

    /// Looks up `key` without computing.
    pub fn get(&self, key: &K) -> Option<V> {
        if !self.is_active() {
            return None;
        }
        let mut shard = self
            .shard(key)
            .lock()
            .expect("mp-serve cache shard mutex poisoned");
        shard.lru.get(key).cloned()
    }

    /// Inserts a value directly (tests and warm-up; the serving path
    /// goes through [`Self::get_or_compute`]).
    pub fn insert(&self, key: K, value: V) {
        if !self.is_active() {
            return;
        }
        let mut shard = self
            .shard(&key)
            .lock()
            .expect("mp-serve cache shard mutex poisoned");
        shard.lru.insert(key, value);
    }

    /// The serving primitive: returns the cached value for `key`, joins
    /// an in-flight computation of it, or runs `compute` as the leader
    /// and publishes the result. `compute` is never run under a shard
    /// lock, so it may take arbitrarily long (a full metasearch).
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, CacheOutcome) {
        if !self.is_active() {
            return (compute(), CacheOutcome::Computed);
        }
        let mut compute = Some(compute);
        loop {
            let mut shard = self
                .shard(&key)
                .lock()
                .expect("mp-serve cache shard mutex poisoned");
            if let Some(v) = shard.lru.get(&key) {
                return (v.clone(), CacheOutcome::Hit);
            }
            let joined = if let Some(flight) = shard.inflight.get(&key) {
                let flight = Arc::clone(flight);
                drop(shard);
                // Timed so a dedup-joined request's waterfall shows how
                // long it blocked on the leader's computation.
                let _wait = mp_obs::span!("serve.flight_wait");
                flight.wait()
            } else {
                let flight = Arc::new(Flight::new());
                shard.inflight.insert(key.clone(), Arc::clone(&flight));
                drop(shard);
                // Leader path: compute unlocked, publish, done. The
                // guard survives a panicking `compute` and marks the
                // flight abandoned so waiters retry.
                let mut guard = LeaderGuard {
                    cache: self,
                    key: Some(key.clone()),
                    flight,
                };
                let f = compute
                    .take()
                    .expect("leader path runs at most once per call");
                let value = f();
                guard.publish(value.clone());
                return (value, CacheOutcome::Computed);
            };
            match joined {
                Some(v) => return (v, CacheOutcome::Joined),
                // Leader abandoned (panicked): retry; we will usually
                // become the next leader. `compute` is still unspent
                // because only the leader path takes it.
                None => continue,
            }
        }
    }
}

/// Cleans up a leader's flight whether it publishes or unwinds.
struct LeaderGuard<'a, K: Hash + Eq + Clone, V: Clone> {
    cache: &'a ShardedCache<K, V>,
    key: Option<K>,
    flight: Arc<Flight<V>>,
}

impl<K: Hash + Eq + Clone, V: Clone> LeaderGuard<'_, K, V> {
    fn publish(&mut self, value: V) {
        let Some(key) = self.key.take() else {
            return;
        };
        {
            let mut shard = self
                .cache
                .shard(&key)
                .lock()
                .expect("mp-serve cache shard mutex poisoned");
            shard.inflight.remove(&key);
            shard.lru.insert(key, value.clone());
        }
        self.flight.finish(FlightState::Ready(value));
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Drop for LeaderGuard<'_, K, V> {
    fn drop(&mut self) {
        // Reached with `key` still present only when `compute` unwound
        // before `publish`. Avoid `expect` here: a second panic during
        // unwind would abort the process.
        let Some(key) = self.key.take() else {
            return;
        };
        if let Ok(mut shard) = self.cache.shard(&key).lock() {
            shard.inflight.remove(&key);
        }
        self.flight.finish(FlightState::Abandoned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // refresh a
        c.insert("c", 3); // evicts b
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_replace_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), Some(&2));
    }

    #[test]
    fn zero_capacity_is_a_bypass() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(0, 4);
        assert!(!c.is_active());
        let (v, outcome) = c.get_or_compute(1, || 42);
        assert_eq!((v, outcome), (42, CacheOutcome::Computed));
        let (v, outcome) = c.get_or_compute(1, || 43);
        assert_eq!((v, outcome), (43, CacheOutcome::Computed), "nothing cached");
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn get_or_compute_hits_after_computing() {
        let c: ShardedCache<u32, String> = ShardedCache::new(8, 2);
        let (v, outcome) = c.get_or_compute(7, || "seven".to_string());
        assert_eq!((v.as_str(), outcome), ("seven", CacheOutcome::Computed));
        let (v, outcome) = c.get_or_compute(7, || unreachable!("must hit"));
        assert_eq!((v.as_str(), outcome), ("seven", CacheOutcome::Hit));
        assert_eq!(c.len(), 1);
        assert_eq!(c.inflight_len(), 0);
    }

    #[test]
    fn capacity_bounds_hold_across_shards() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(8, 4);
        for k in 0..1000u64 {
            c.insert(k, k);
        }
        assert!(c.len() <= c.capacity(), "{} > {}", c.len(), c.capacity());
    }
}
