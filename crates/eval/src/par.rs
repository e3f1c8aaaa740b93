//! The experiment harness's fork-join: an order-preserving map that
//! chunks a test trace's queries over scoped threads, one per core.
//!
//! This is the workspace's one fork-join (its `thread::scope` is one of
//! the two `#[expect]`ed `disallowed_methods` uses, and mp-serve's
//! worker pool is the only other thread owner).
//! mp-core itself is sequential, so every query's evaluation runs the
//! same code on whichever thread picks it up, and results are collected
//! in index order: every reduction downstream (mean, sort, argmax) sees
//! the same `f64`s at every core count.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Below this many queries a fork-join costs more than the per-query
/// work it spreads.
const QUERY_PAR_MIN: usize = 8;

/// The host's core count, asked of the OS once per process: the query
/// reads cgroup limits and costs tens of microseconds.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Maps `f` over query indices `0..n`, preserving order. From
/// `QUERY_PAR_MIN` queries on, the indices are split into one
/// contiguous chunk per core, each mapped on its own scoped thread.
///
/// A panic in `f` propagates to the caller once every thread has
/// finished.
pub fn par_map_queries<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = if n >= QUERY_PAR_MIN { cores() } else { 1 };
    map_chunked(n, threads, f)
}

/// Maps `f` over `0..n` in index order on up to `threads` scoped
/// threads, one contiguous chunk each; one thread runs the plain loop
/// in place.
fn map_chunked<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let f = &f;
    #[expect(
        clippy::disallowed_methods,
        reason = "this fork-join is one of the two thread owners (LINT.md)"
    )]
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|start| {
                scope.spawn(move || (start..n.min(start + chunk)).map(f).collect::<Vec<T>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all_indices() {
        for n in [0usize, 1, 7, 8, 100] {
            let expect: Vec<usize> = (0..n).map(|i| i * 3).collect();
            assert_eq!(par_map_queries(n, |i| i * 3), expect);
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    map_chunked(n, threads, |i| i * 3),
                    expect,
                    "n={n} threads={threads}"
                );
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
        for par in [
            par_map_queries(64, work),
            map_chunked(64, 2, work),
            map_chunked(64, 5, work),
        ] {
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
        let result = std::panic::catch_unwind(|| par_map_queries(64, boom));
        assert!(result.is_err());
        for threads in [1, 2, 3, 8] {
            let result = std::panic::catch_unwind(|| map_chunked(64, threads, boom));
            assert!(result.is_err(), "threads={threads}");
        }
    }
}
