//! Counters, gauges, and fixed-bucket histograms.
//!
//! All three record through single relaxed atomic RMWs — safe to call
//! from the serve pool's and mp-eval's worker threads with no locks on
//! the hot path. Handles are `&'static`: the registry leaks one small
//! allocation per *name* (bounded by the instrumentation taxonomy, not
//! by load).
//!
//! When the `obs` feature is off every type is a unit struct and every
//! method an empty inlineable body with the identical signature, so
//! call sites compile unchanged.

#[cfg(feature = "obs")]
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

#[cfg(feature = "obs")]
use crate::stripe::StripedU64;

/// A monotone event counter.
///
/// Backed by a [`StripedU64`], so concurrent workers bumping the same
/// counter (every probe increments `probe.attempts`) write disjoint
/// cachelines instead of ping-ponging one; `get()` sums the stripes.
#[cfg(feature = "obs")]
#[derive(Debug, Default)]
pub struct Counter {
    value: StripedU64,
}

#[cfg(feature = "obs")]
impl Counter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds `n` events (relaxed; a no-op while recording is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::is_enabled() {
            self.value.add(n);
        }
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.get()
    }

    pub(crate) fn reset(&self) {
        self.value.reset();
    }
}

/// A signed instantaneous level (set or adjusted, not accumulated).
#[cfg(feature = "obs")]
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

#[cfg(feature = "obs")]
impl Gauge {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::is_enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the level by `delta` (may be negative).
    #[inline]
    pub fn adjust(&self, delta: i64) {
        if crate::is_enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram over `u64` values.
///
/// `bounds` are strictly increasing *upper* bounds: bucket `i` counts
/// values `v` with `bounds[i-1] < v <= bounds[i]`, and one extra
/// overflow bucket at the end counts `v > bounds.last()`. Alongside the
/// buckets it tracks count, sum, min, and max, all atomically.
#[cfg(feature = "obs")]
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: Vec<AtomicU64>,
    /// Exemplar linkage: per bucket, the raw [`crate::TraceId`] of the
    /// latest traced request that landed in it (0 = none yet).
    exemplars: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

#[cfg(feature = "obs")]
impl Histogram {
    pub(crate) fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        let mut buckets = Vec::with_capacity(bounds.len() + 1);
        buckets.resize_with(bounds.len() + 1, AtomicU64::default);
        let mut exemplars = Vec::with_capacity(bounds.len() + 1);
        exemplars.resize_with(bounds.len() + 1, AtomicU64::default);
        Self {
            bounds,
            buckets,
            exemplars,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation (relaxed atomics; a no-op while
    /// recording is disabled). When a per-request trace is active on
    /// this thread, the bucket's exemplar slot remembers its id — a fat
    /// tail bucket then points straight at a recorded flight.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::is_enabled() {
            return;
        }
        // First bound >= v; past-the-end is the overflow bucket.
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        if let Some(id) = crate::trace::current_trace_id() {
            self.exemplars[idx].store(id.0, Ordering::Relaxed);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The configured upper bounds (excluding the overflow bucket).
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Per-bucket observation counts (`bounds.len() + 1` entries, the
    /// last being the overflow bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Per-bucket exemplar trace ids (`bounds.len() + 1` entries;
    /// 0 = no traced request has landed in that bucket).
    pub fn exemplar_ids(&self) -> Vec<u64> {
        self.exemplars
            .iter()
            .map(|e| e.load(Ordering::Relaxed))
            .collect()
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        for e in &self.exemplars {
            e.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Looks up (or registers) the counter `name`.
///
/// Prefer the caching [`crate::counter!`] macro on hot paths; this free
/// function takes the sharded registry lock on every call.
#[cfg(feature = "obs")]
pub fn counter(name: &'static str) -> &'static Counter {
    crate::registry::counter(name)
}

/// Looks up (or registers) the gauge `name`.
#[cfg(feature = "obs")]
pub fn gauge(name: &'static str) -> &'static Gauge {
    crate::registry::gauge(name)
}

/// Looks up (or registers) the histogram `name`. The first registration
/// fixes the bucket bounds; later calls with different bounds keep the
/// original (and debug-assert against the mismatch).
#[cfg(feature = "obs")]
pub fn histogram(name: &'static str, bounds: &'static [u64]) -> &'static Histogram {
    crate::registry::histogram(name, bounds)
}

// --- no-op twins (feature `obs` compiled out) ------------------------

/// A monotone event counter (no-op build: records nothing).
#[cfg(not(feature = "obs"))]
#[derive(Debug, Default)]
pub struct Counter;

#[cfg(not(feature = "obs"))]
impl Counter {
    /// Adds `n` events — a no-op in this build.
    #[inline]
    pub fn add(&self, _n: u64) {}

    /// Adds one event — a no-op in this build.
    #[inline]
    pub fn incr(&self) {}

    /// Current value — always 0 in this build.
    pub fn get(&self) -> u64 {
        0
    }
}

/// A signed instantaneous level (no-op build: records nothing).
#[cfg(not(feature = "obs"))]
#[derive(Debug, Default)]
pub struct Gauge;

#[cfg(not(feature = "obs"))]
impl Gauge {
    /// Sets the level — a no-op in this build.
    #[inline]
    pub fn set(&self, _v: i64) {}

    /// Adjusts the level — a no-op in this build.
    #[inline]
    pub fn adjust(&self, _delta: i64) {}

    /// Current level — always 0 in this build.
    pub fn get(&self) -> i64 {
        0
    }
}

/// A fixed-bucket histogram (no-op build: records nothing).
#[cfg(not(feature = "obs"))]
#[derive(Debug, Default)]
pub struct Histogram;

#[cfg(not(feature = "obs"))]
impl Histogram {
    /// Records one observation — a no-op in this build.
    #[inline]
    pub fn record(&self, _v: u64) {}

    /// Number of observations — always 0 in this build.
    pub fn count(&self) -> u64 {
        0
    }

    /// Sum of all observations — always 0 in this build.
    pub fn sum(&self) -> u64 {
        0
    }

    /// The configured upper bounds — always empty in this build.
    pub fn bounds(&self) -> &'static [u64] {
        &[]
    }

    /// Per-bucket observation counts — always empty in this build.
    pub fn bucket_counts(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Smallest observation — always 0 in this build.
    pub fn min(&self) -> u64 {
        0
    }

    /// Largest observation — always 0 in this build.
    pub fn max(&self) -> u64 {
        0
    }

    /// Per-bucket exemplar trace ids — always empty in this build.
    pub fn exemplar_ids(&self) -> Vec<u64> {
        Vec::new()
    }
}

#[cfg(not(feature = "obs"))]
static NOOP_COUNTER: Counter = Counter;
#[cfg(not(feature = "obs"))]
static NOOP_GAUGE: Gauge = Gauge;
#[cfg(not(feature = "obs"))]
static NOOP_HISTOGRAM: Histogram = Histogram;

/// Looks up the counter `name` — in this build, the shared no-op.
#[cfg(not(feature = "obs"))]
pub fn counter(_name: &'static str) -> &'static Counter {
    &NOOP_COUNTER
}

/// Looks up the gauge `name` — in this build, the shared no-op.
#[cfg(not(feature = "obs"))]
pub fn gauge(_name: &'static str) -> &'static Gauge {
    &NOOP_GAUGE
}

/// Looks up the histogram `name` — in this build, the shared no-op.
#[cfg(not(feature = "obs"))]
pub fn histogram(_name: &'static str, _bounds: &'static [u64]) -> &'static Histogram {
    &NOOP_HISTOGRAM
}
