//! Windowed histograms: a fixed-slot ring of histogram deltas.
//!
//! A cumulative histogram can only answer "what was p99 *ever*"; SLO
//! work needs "what is p99 *now*". A [`WindowWheel`] keeps `n` slots of
//! bucket deltas; [`record`](WindowWheel::record) lands in the current
//! slot, and [`advance`](WindowWheel::advance) (called once per tick by
//! the owner — e.g. the serve layer per request batch) rotates to the
//! next slot, zeroing it first. [`rolling`](WindowWheel::rolling) merges
//! the most recent `k ≤ n` slots into one [`HistogramRow`] in
//! O(buckets·k), from which `approx_quantile` reads rolling p50/p99.
//!
//! All cells are relaxed atomics; a record racing an advance can land in
//! the slot being recycled (one sample attributed to the wrong tick) —
//! the usual live-capture semantics, same as any relaxed metric read.
//!
//! A wheel reached through the registry ([`window`], [`crate::window!`])
//! is telemetry and obeys the runtime switch ([`crate::set_enabled`],
//! `MP_OBS`). A wheel its caller owns ([`WindowWheel::new`]) ignores
//! the switch: the serve layer's shedding policy reads its own wheel,
//! and a control input must not vanish with recording.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::registry::HistogramRow;

/// One tick's worth of histogram deltas.
#[derive(Debug)]
struct WheelSlot {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl WheelSlot {
    fn new(n_buckets: usize) -> Self {
        let mut buckets = Vec::with_capacity(n_buckets);
        buckets.resize_with(n_buckets, AtomicU64::default);
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A fixed-slot ring of histogram deltas yielding rolling quantiles.
///
/// Bucket semantics match [`crate::Histogram`]: `bounds` are strictly
/// increasing upper bounds plus one trailing overflow bucket. The wheel
/// does not track a rolling `min` (a windowed minimum cannot be
/// maintained with monotone atomics); merged rows report `min = 0`.
#[derive(Debug)]
pub struct WindowWheel {
    bounds: &'static [u64],
    slots: Vec<WheelSlot>,
    /// Index of the slot currently receiving records.
    cur: AtomicUsize,
    /// Total advances since construction (or the last reset).
    ticks: AtomicU64,
    /// Whether [`record`](Self::record) obeys the runtime switch: true
    /// for registry wheels, false for caller-owned ones.
    gated: bool,
}

impl WindowWheel {
    /// A caller-owned wheel with `slots` ticks of history over `bounds`
    /// (strictly increasing upper bounds; an overflow bucket is added).
    /// At least one slot is always allocated. It records whether or
    /// not recording is switched on.
    pub fn new(bounds: &'static [u64], slots: usize) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "window bounds must be strictly increasing: {bounds:?}"
        );
        let n = slots.max(1);
        Self {
            bounds,
            slots: (0..n).map(|_| WheelSlot::new(bounds.len() + 1)).collect(),
            cur: AtomicUsize::new(0),
            ticks: AtomicU64::new(0),
            gated: false,
        }
    }

    /// A registry wheel: like [`new`](Self::new), but
    /// [`record`](Self::record) is a no-op while recording is off.
    pub(crate) fn gated(bounds: &'static [u64], slots: usize) -> Self {
        Self {
            gated: true,
            ..Self::new(bounds, slots)
        }
    }

    /// Records one observation into the current slot (relaxed). On a
    /// registry wheel it is a no-op while recording is disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if self.gated && !crate::is_enabled() {
            return;
        }
        let slot = &self.slots[self.cur.load(Ordering::Relaxed) % self.slots.len()];
        let idx = self.bounds.partition_point(|&b| b < v);
        slot.buckets[idx].fetch_add(1, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(v, Ordering::Relaxed);
        slot.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Closes the current tick: zeroes the oldest slot and makes it
    /// current. Call once per tick from the owning layer (concurrent
    /// advances are safe but make ticks meaningless).
    pub fn advance(&self) {
        let cur = self.cur.load(Ordering::Relaxed);
        let next = (cur + 1) % self.slots.len();
        self.slots[next].clear();
        self.ticks.fetch_add(1, Ordering::Relaxed);
        self.cur.store(next, Ordering::Relaxed);
    }

    /// Advances completed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Number of slots (the maximum rolling horizon).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The configured upper bounds (excluding the overflow bucket).
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Merges the most recent `last_n` slots (clamped to `[1, slots]`,
    /// newest first, including the still-open current slot) into one
    /// [`HistogramRow`] named `name`. O(buckets · last_n); `min` is
    /// reported as 0 and exemplars are empty (exemplar linkage lives on
    /// the cumulative histograms).
    pub fn rolling(&self, name: &str, last_n: usize) -> HistogramRow {
        let n_slots = self.slots.len();
        let k = last_n.clamp(1, n_slots);
        let cur = self.cur.load(Ordering::Relaxed) % n_slots;
        let mut buckets = vec![0u64; self.bounds.len() + 1];
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut max = 0u64;
        for back in 0..k {
            let slot = &self.slots[(cur + n_slots - back) % n_slots];
            for (acc, b) in buckets.iter_mut().zip(&slot.buckets) {
                *acc += b.load(Ordering::Relaxed);
            }
            count += slot.count.load(Ordering::Relaxed);
            sum += slot.sum.load(Ordering::Relaxed);
            max = max.max(slot.max.load(Ordering::Relaxed));
        }
        HistogramRow {
            name: name.to_string(),
            bounds: self.bounds.to_vec(),
            buckets,
            count,
            sum,
            min: 0,
            max,
            exemplars: Vec::new(),
        }
    }

    /// Zeroes every slot and rewinds the tick counter.
    pub fn reset(&self) {
        for slot in &self.slots {
            slot.clear();
        }
        self.cur.store(0, Ordering::Relaxed);
        self.ticks.store(0, Ordering::Relaxed);
    }
}

/// Looks up (or registers) the window wheel `name`, which records only
/// while recording is on. The first registration fixes `bounds` and
/// `slots`; prefer the caching [`crate::window!`] macro on hot paths.
pub fn window(name: &'static str, bounds: &'static [u64], slots: usize) -> &'static WindowWheel {
    crate::registry::window(name, bounds, slots)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_merges_recent_slots_only() {
        let w = WindowWheel::new(&[10, 100], 3);
        w.record(5); // tick 0
        w.advance();
        w.record(50); // tick 1
        w.advance();
        w.record(500); // tick 2 (current)
        assert_eq!(w.ticks(), 2);

        let last1 = w.rolling("w", 1);
        assert_eq!(last1.count, 1);
        assert_eq!(last1.buckets, vec![0, 0, 1]);
        assert_eq!(last1.max, 500);

        let last2 = w.rolling("w", 2);
        assert_eq!(last2.count, 2);
        assert_eq!(last2.sum, 550);

        let all = w.rolling("w", 3);
        assert_eq!(all.count, 3);
        assert_eq!(all.sum, 555);
        assert_eq!(all.buckets, vec![1, 1, 1]);
    }

    #[test]
    fn advance_evicts_oldest() {
        let w = WindowWheel::new(&[10], 2);
        w.record(1); // slot 0
        w.advance();
        w.record(2); // slot 1
        w.advance(); // recycles slot 0, dropping the `1`
        w.record(3);
        let all = w.rolling("w", 2);
        assert_eq!(all.count, 2);
        assert_eq!(all.sum, 5);
    }

    #[test]
    fn reset_rewinds() {
        let w = WindowWheel::new(&[10], 4);
        w.record(7);
        w.advance();
        w.reset();
        assert_eq!(w.ticks(), 0);
        assert_eq!(w.rolling("w", 4).count, 0);
    }
}
