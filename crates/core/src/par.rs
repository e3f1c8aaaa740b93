//! The parallel evaluation layer: a tiny order-preserving fork-join map
//! that fans independent items across cores — `OptimalPolicy`'s
//! per-candidate expectimax subtrees, the greedy engine's per-candidate
//! reference fallback (absolute metric, `k > 1`), the searches of the
//! selected databases, the shards of a scatter, and the experiment
//! harness's queries.
//!
//! Gated behind the `parallel` feature (on by default). The sequential
//! fallback is **bit-identical**: both paths evaluate the same closure
//! on the same indices and collect results in index order, so every
//! reduction downstream (argmax, sort, sum) sees the exact same `f64`s
//! regardless of thread count or feature flags. Determinism therefore
//! never depends on scheduling.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The process-wide runtime fan-out switch, seeded from `MP_PAR` on
/// first use (same contract as `MP_OBS`: `0`/`false`/`off`/`no`
/// disables, anything else — including unset — enables).
fn flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        // The fan-out switch cannot change results: the pool's determinism
        // contract (pinned by the twin-replay tests) makes every result
        // bit-identical across thread counts, including 1.
        // mp-lint: allow(L13): on/off switch only; results are thread-count-invariant
        let on = match std::env::var("MP_PAR") {
            Ok(v) => !matches!(v.trim(), "0" | "false" | "off" | "no"),
            Err(_) => true,
        };
        AtomicBool::new(on)
    })
}

/// True when the fork-join path may be taken: the `parallel` feature is
/// compiled in *and* the runtime switch (`MP_PAR`,
/// [`set_parallel_enabled`]) is on.
pub fn parallel_enabled() -> bool {
    cfg!(feature = "parallel") && flag().load(Ordering::Relaxed)
}

/// Flips the runtime fan-out switch. Overrides the `MP_PAR` environment
/// seeding; benches use this to measure the sequential baseline in a
/// `parallel`-enabled build — results are bit-identical either way, so
/// the switch only affects scheduling, never output.
pub fn set_parallel_enabled(on: bool) {
    flag().store(on, Ordering::Relaxed);
}

/// Maps `f` over `0..n`, preserving order. With the `parallel` feature
/// the work is chunked over scoped threads once it is plausibly worth a
/// fork-join (`n ≥ min_chunk`); small inputs, `--no-default-features`
/// builds, and runs with the fan-out switched off (`MP_PAR=0` or
/// [`set_parallel_enabled`]`(false)`) run the plain sequential loop.
///
/// Panics in `f` propagate (scoped threads re-raise on join).
pub fn par_map_indexed<T, F>(n: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    #[cfg(feature = "parallel")]
    {
        // The core count is asked of the OS once per process, and only
        // once a fork-join is on the table: the query reads cgroup
        // limits and costs tens of microseconds, which a per-call
        // lookup would charge to every sequential call too.
        static CORES: OnceLock<usize> = OnceLock::new();
        let threads = if parallel_enabled() && n >= min_chunk.max(2) {
            let cores = *CORES.get_or_init(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
            cores.min(n)
        } else {
            1
        };
        if threads > 1 {
            mp_obs::counter!("par.fanouts").incr();
            let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
            let chunk = n.div_ceil(threads);
            // Task-balance accounting happens on the spawner thread so
            // the workers carry zero instrumentation.
            let balance = mp_obs::histogram!("par.chunk_items", mp_obs::bounds::POW2);
            std::thread::scope(|scope| {
                for (c, slot) in results.chunks_mut(chunk).enumerate() {
                    balance.record(u64::try_from(slot.len()).unwrap_or(u64::MAX));
                    let f = &f;
                    scope.spawn(move || {
                        for (off, out) in slot.iter_mut().enumerate() {
                            *out = Some(f(c * chunk + off));
                        }
                    });
                }
            });
            return results
                .into_iter()
                .map(|o| o.expect("all slots filled"))
                .collect();
        }
    }
    let _ = min_chunk;
    mp_obs::counter!("par.sequential").incr();
    (0..n).map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all_indices() {
        for n in [0usize, 1, 7, 8, 100] {
            let out = par_map_indexed(n, 2, |i| i * 3);
            assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn matches_sequential_bitwise_on_float_work() {
        // The parallel path must return the very same f64 bit patterns
        // as a plain map — the engine's determinism contract.
        let work = |i: usize| {
            let mut acc = 0.0f64;
            for j in 0..50 {
                acc += ((i * 31 + j) as f64).sqrt() * 1e-3;
            }
            acc
        };
        let par = par_map_indexed(64, 2, work);
        let seq: Vec<f64> = (0..64).map(work).collect();
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn runtime_switch_forces_sequential_with_identical_results() {
        // Note: the switch is process-wide, so restore it before the
        // test ends regardless of assertion outcome order.
        let work = |i: usize| (i as f64).sin();
        let on = par_map_indexed(32, 2, work);
        set_parallel_enabled(false);
        assert!(!parallel_enabled());
        let off = par_map_indexed(32, 2, work);
        set_parallel_enabled(true);
        for (a, b) in on.iter().zip(&off) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
