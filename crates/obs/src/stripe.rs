//! A cacheline-striped `u64` accumulator.
//!
//! A single relaxed `AtomicU64` is already lock-free, but when every
//! worker increments the *same* counter the cacheline ping-pongs between
//! cores and the increment serializes at the coherence level. A
//! [`StripedU64`] splits the value across [`STRIPES`] cacheline-aligned
//! cells; each thread picks one cell (round-robin by a thread-local
//! slot) and increments only it, so concurrent writers touch disjoint
//! lines. Reads sum the cells — monotone and exact once writers quiesce,
//! like any relaxed counter.
//!
//! A stripe ignores the runtime switch ([`crate::set_enabled`]): the
//! serve layer's hit/miss statistics are functional output, not
//! optional telemetry, and use the stripe directly. [`crate::Counter`]
//! builds on it and adds the switch check.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of cells in a [`StripedU64`]. Eight covers the worker counts
/// the serve pool runs at while keeping `get()` (an 8-load sum) cheap.
pub const STRIPES: usize = 8;

/// One cacheline-aligned counter cell, padded so neighbouring cells
/// never share a line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Cell(AtomicU64);

/// Round-robin assignment of thread-local stripe slots, shared by every
/// `StripedU64` (a thread uses the same cell index in all of them).
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// A monotone `u64` split across cacheline-aligned per-thread cells.
#[derive(Debug, Default)]
pub struct StripedU64 {
    cells: [Cell; STRIPES],
}

impl StripedU64 {
    /// A zeroed stripe.
    pub const fn new() -> Self {
        Self {
            cells: [const { Cell(AtomicU64::new(0)) }; STRIPES],
        }
    }

    /// Adds `n` to this thread's cell (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        SLOT.with(|&slot| self.cells[slot].0.fetch_add(n, Ordering::Relaxed));
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Sum of all cells. Exact once concurrent writers quiesce; during
    /// concurrent writes it is a valid linearization point per cell,
    /// like reading any relaxed counter.
    pub fn get(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    /// Zeroes every cell (between measurement windows; not atomic with
    /// respect to concurrent writers).
    pub fn reset(&self) {
        for c in &self.cells {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::disallowed_methods,
        reason = "the test bumps stripes from its own threads"
    )]

    use super::*;

    #[test]
    fn sums_across_threads() {
        let s = StripedU64::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = &s;
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        s.incr();
                    }
                });
            }
        });
        assert_eq!(s.get(), 80_000);
    }

    #[test]
    fn add_and_reset() {
        let s = StripedU64::new();
        s.add(41);
        s.incr();
        assert_eq!(s.get(), 42);
        s.reset();
        assert_eq!(s.get(), 0);
    }

    #[test]
    fn cells_do_not_share_cachelines() {
        assert!(std::mem::align_of::<StripedU64>() >= 64);
        assert!(std::mem::size_of::<StripedU64>() >= 64 * STRIPES);
    }
}
