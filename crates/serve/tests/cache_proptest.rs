//! Satellite (b): property tests for the serving cache.
//!
//! * the per-shard [`LruCache`] tracks a naive reference model exactly
//!   (same hits, same evictions) under arbitrary op interleavings;
//! * a [`ShardedCache`] never returns a value inserted under a
//!   different key and never exceeds its capacity;
//! * single-flight deduplication: a joiner observes the leader's exact
//!   result and the compute closure runs exactly once, including across
//!   a panicking leader (followers retry instead of deadlocking).

#![expect(
    clippy::disallowed_methods,
    clippy::cast_possible_truncation,
    reason = "concurrency tests run their own threads, and keys are below 6"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use mp_serve::{CacheOutcome, LruCache, ShardedCache};
use proptest::prelude::*;

/// A naive LRU reference: a flat vec of `(key, value, last_use)` with
/// the same strictly-increasing tick discipline as the real cache.
struct ModelLru {
    cap: usize,
    tick: u64,
    entries: Vec<(u8, u16, u64)>,
}

impl ModelLru {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            tick: 0,
            entries: Vec::new(),
        }
    }

    fn get(&mut self, key: u8) -> Option<u16> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.iter_mut().find(|e| e.0 == key).map(|e| {
            e.2 = tick;
            e.1
        })
    }

    fn insert(&mut self, key: u8, value: u16) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) {
            e.1 = value;
            e.2 = tick;
            return;
        }
        if self.entries.len() >= self.cap {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.2)
                .map(|(i, _)| i)
                .unwrap();
            self.entries.remove(victim);
        }
        self.entries.push((key, value, tick));
    }
}

/// The value legitimately stored under `key` in the wrong-key test:
/// collisions between keys would need f to collide too, and f is
/// injective.
fn keyed_value(key: u16) -> u64 {
    u64::from(key) * 1_000 + 7
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

    /// Ops: (selector, key, value); selector even = get, odd = insert.
    #[test]
    fn lru_matches_the_naive_model(
        cap in 0usize..5,
        ops in proptest::collection::vec((0u8..2, 0u8..8, 0u16..1000), 0..60),
    ) {
        let mut real: LruCache<u8, u16> = LruCache::new(cap);
        let mut model = ModelLru::new(cap);
        for (sel, key, value) in ops {
            if sel == 0 {
                prop_assert_eq!(real.get(&key).copied(), model.get(key));
            } else {
                real.insert(key, value);
                model.insert(key, value);
            }
            prop_assert_eq!(real.len(), model.entries.len());
            prop_assert!(real.len() <= cap);
        }
        // Final contents agree key-by-key (one more tick each, same on
        // both sides).
        for key in 0u8..8 {
            prop_assert_eq!(real.get(&key).copied(), model.get(key));
        }
    }

    /// A sharded cache never leaks a value across keys and never holds
    /// more than its capacity, whatever the op sequence.
    #[test]
    fn sharded_cache_is_key_faithful_and_bounded(
        total_cap in 0usize..12,
        n_shards in 1usize..5,
        ops in proptest::collection::vec((0u8..3, 0u16..50), 0..80),
    ) {
        let cache: ShardedCache<u16, u64> = ShardedCache::new(total_cap, n_shards);
        for (sel, key) in ops {
            match sel {
                0 => {
                    if let Some(v) = cache.get(&key) {
                        prop_assert_eq!(v, keyed_value(key), "foreign value under key {}", key);
                    }
                }
                1 => cache.insert(key, keyed_value(key)),
                _ => {
                    let (v, _) = cache.get_or_compute(key, || keyed_value(key));
                    prop_assert_eq!(v, keyed_value(key), "foreign value under key {}", key);
                }
            }
            prop_assert!(cache.len() <= cache.capacity());
            if total_cap == 0 {
                prop_assert_eq!(cache.len(), 0, "capacity 0 stores nothing");
            }
        }
    }
}

/// Deterministic single-flight join: a follower that arrives while the
/// leader's computation is in flight blocks on that flight and gets the
/// leader's exact value — its own closure never runs.
#[test]
fn follower_joins_the_in_flight_leader() {
    let cache: Arc<ShardedCache<u32, String>> = Arc::new(ShardedCache::new(16, 2));
    let (release_tx, release_rx) = mpsc::channel::<()>();

    let leader = {
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || {
            cache.get_or_compute(5, move || {
                release_rx.recv().expect("test driver releases the leader");
                "leader-value".to_string()
            })
        })
    };
    // The leader registers its flight before running compute, so one
    // in-flight entry means it is safely parked inside the closure.
    while cache.inflight_len() != 1 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let follower = {
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || {
            cache.get_or_compute(5, || unreachable!("the follower must join, not compute"))
        })
    };
    // Let the follower park, then release the leader. (The sleep only
    // widens the join window; correctness does not depend on it.)
    std::thread::sleep(Duration::from_millis(20));
    release_tx.send(()).expect("leader is alive and receiving");

    let (lv, lo) = leader.join().expect("leader thread exits cleanly");
    let (fv, fo) = follower.join().expect("follower thread exits cleanly");
    assert_eq!(lo, CacheOutcome::Computed);
    assert_eq!(lv, "leader-value");
    assert!(
        fo == CacheOutcome::Joined || fo == CacheOutcome::Hit,
        "follower never computes: {fo:?}"
    );
    assert_eq!(
        fv, "leader-value",
        "the join observes the leader's exact result"
    );
    assert_eq!(cache.inflight_len(), 0);
}

/// A panicking leader abandons its flight; the waiting follower retries
/// and becomes the next leader instead of deadlocking or caching junk.
#[test]
fn abandoned_leader_hands_off_to_the_follower() {
    let cache: Arc<ShardedCache<u32, u64>> = Arc::new(ShardedCache::new(16, 2));
    let (release_tx, release_rx) = mpsc::channel::<()>();

    let doomed = {
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || {
            cache.get_or_compute(9, move || -> u64 {
                let _ = release_rx.recv();
                panic!("injected leader failure");
            })
        })
    };
    while cache.inflight_len() != 1 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let follower = {
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || cache.get_or_compute(9, || 42u64))
    };
    std::thread::sleep(Duration::from_millis(20));
    release_tx.send(()).expect("doomed leader is alive");

    assert!(doomed.join().is_err(), "the leader panicked by design");
    let (fv, fo) = follower.join().expect("follower survives the hand-off");
    assert_eq!((fv, fo), (42, CacheOutcome::Computed), "follower re-led");
    assert_eq!(cache.get(&9), Some(42), "the retry's value was cached");
    assert_eq!(cache.inflight_len(), 0, "no flight leaks");
}

/// Concurrency stress for the core dedup invariant: across many
/// threads racing on few keys, each key's value is computed by exactly
/// the number of leaders observed, and every returned value is the
/// canonical one for its key.
#[test]
fn racing_threads_agree_on_one_value_per_key() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 25;
    let cache: Arc<ShardedCache<u16, u64>> = Arc::new(ShardedCache::new(64, 4));
    let computes = Arc::new(AtomicUsize::new(0));
    let leaders = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            let leaders = Arc::clone(&leaders);
            s.spawn(move || {
                for r in 0..ROUNDS {
                    let key = ((t + r) % 6) as u16;
                    let computes = Arc::clone(&computes);
                    let (v, outcome) = cache.get_or_compute(key, move || {
                        computes.fetch_add(1, Ordering::Relaxed);
                        keyed_value(key)
                    });
                    assert_eq!(v, keyed_value(key));
                    if outcome == CacheOutcome::Computed {
                        leaders.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    // Every closure run corresponds to exactly one leader, and with a
    // capacity far above the working set nothing is recomputed after
    // first publication: at most one computation per key.
    assert_eq!(
        computes.load(Ordering::Relaxed),
        leaders.load(Ordering::Relaxed)
    );
    assert!(leaders.load(Ordering::Relaxed) <= 6, "one leader per key");
    assert!(leaders.load(Ordering::Relaxed) >= 1);
    assert_eq!(cache.inflight_len(), 0);
}
