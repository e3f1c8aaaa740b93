//! The experiment harness's fork-join: an order-preserving map over
//! item indices on scoped threads, one per core.
//!
//! This is the workspace's one fork-join (its `thread::scope` is one of
//! the two `#[expect]`ed `disallowed_methods` uses, and mp-serve's
//! worker pool is the only other thread owner). It maps the runners'
//! test queries and the three costly stages of a testbed build: the
//! per-database corpus generation, the ED-training probes and the
//! golden-standard probes.
//!
//! mp-core itself is sequential, so every item runs the same code on
//! whichever thread claims it, and results are collected in index
//! order: every reduction downstream (mean, sort, argmax, an ED's float
//! sums) sees the same `f64`s at every core count.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Below this many items a fork-join costs more than the per-item work
/// it spreads.
const PAR_MIN: usize = 8;

/// The host's core count, asked of the OS once per process: the query
/// reads cgroup limits and costs tens of microseconds.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

#[cfg(test)]
thread_local! {
    /// The thread count [`with_threads`] forces on this thread's maps.
    static FORCED: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with every [`par_map`] it calls on this thread mapped on
/// exactly `threads` threads, whatever the item count and the cores.
#[cfg(test)]
pub(crate) fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    FORCED.set(Some(threads));
    let out = f();
    FORCED.set(None);
    out
}

/// Maps `f` over indices `0..n`, preserving order. From `PAR_MIN`
/// items on, one scoped thread per core claims indices one at a time,
/// so items of uneven cost (databases of different sizes) still spread
/// evenly.
///
/// A panic in `f` propagates to the caller once every thread has
/// finished.
pub(crate) fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = if n >= PAR_MIN { cores() } else { 1 };
    #[cfg(test)]
    let threads = FORCED.get().unwrap_or(threads);
    map_on(n, threads, f)
}

/// Maps `f` over `0..n` in index order on up to `threads` scoped
/// threads; one thread runs the plain loop in place.
fn map_on<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (f, next) = (&f, &next);
    #[expect(
        clippy::disallowed_methods,
        reason = "this fork-join is one of the two thread owners (LINT.md)"
    )]
    let claimed: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // A ticket per index, each claimed once; its
                        // result publishes through `join`, not here.
                        let i = next.fetch_add(1, Ordering::AcqRel);
                        if i >= n {
                            return out;
                        }
                        out.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, item) in claimed.into_iter().flatten() {
        slots[i] = Some(item);
    }
    slots
        .into_iter()
        .map(|item| item.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all_indices() {
        for n in [0usize, 1, 7, 8, 100] {
            let expect: Vec<usize> = (0..n).map(|i| i * 3).collect();
            assert_eq!(par_map(n, |i| i * 3), expect);
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    map_on(n, threads, |i| i * 3),
                    expect,
                    "n={n} threads={threads}"
                );
                assert_eq!(with_threads(threads, || par_map(n, |i| i * 3)), expect);
            }
        }
    }

    #[test]
    fn matches_sequential_bitwise_on_float_work() {
        // The fork-join must return the very same f64 bit patterns as a
        // plain map: the harness's determinism contract.
        let work = |i: usize| {
            let mut acc = 0.0f64;
            for j in 0..50 {
                acc += ((i * 31 + j) as f64).sqrt() * 1e-3;
            }
            acc
        };
        let seq: Vec<f64> = (0..64).map(work).collect();
        for par in [par_map(64, work), map_on(64, 2, work), map_on(64, 5, work)] {
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn a_panic_at_one_index_reaches_the_caller() {
        let boom = |i: usize| {
            assert!(i != 37, "query 37 fails");
            i
        };
        let result = std::panic::catch_unwind(|| par_map(64, boom));
        assert!(result.is_err());
        for threads in [1, 2, 3, 8] {
            let result = std::panic::catch_unwind(|| map_on(64, threads, boom));
            assert!(result.is_err(), "threads={threads}");
        }
    }
}
