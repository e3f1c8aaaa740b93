//! Property tests pinning the schedule-independence of `UnreliableDb`'s
//! counter-keyed injection stream.
//!
//! The stream is keyed by `(wrapper seed, query fingerprint, attempt
//! index, draw counter)`, so a probe's injected outcome must be a pure
//! function of the probe — never of arrival order, interleaving with
//! other queries, or which thread issued it. These properties replay
//! arbitrary query sets through identically-configured twins in
//! different orders (permuted, interleaved with extra traffic, and
//! concurrently from multiple threads) and require bit-identical
//! per-query responses plus exactly equal [`ProbeBudget`] accounting.

#![expect(
    clippy::disallowed_methods,
    reason = "the test runs concurrent callers on its own threads"
)]

use std::sync::Arc;

use mp_hidden::{HiddenWebDatabase, ProbeBudget, SimulatedHiddenDb, UnreliableDb};
use mp_index::{Document, IndexBuilder};
use mp_text::TermId;
use proptest::prelude::*;

fn t(i: u32) -> TermId {
    TermId(i)
}

/// A base database where term `i` (0..n) matches exactly one document,
/// so each distinct single-term query has a known clean answer.
fn wide_db(n: u32) -> Arc<dyn HiddenWebDatabase> {
    let mut b = IndexBuilder::new();
    for i in 0..n {
        b.add(Document::from_terms([t(i)]));
    }
    Arc::new(SimulatedHiddenDb::new("wide", b.build()))
}

const TERMS: u32 = 64;

fn flaky(seed: u64, failure_rate: f64, noise_rate: f64, retries: u32) -> UnreliableDb {
    UnreliableDb::new(wide_db(TERMS), failure_rate, noise_rate, 0.3, seed).with_retries(retries)
}

/// Response bits that must replay exactly: the match count and the full
/// scored result page.
fn outcome(db: &UnreliableDb, q: &[TermId]) -> (u32, Vec<(u64, u64)>) {
    let r = db.search(q, 3);
    (
        r.match_count,
        r.top_docs
            .iter()
            .map(|d| (u64::from(d.doc.0), d.score.to_bits()))
            .collect(),
    )
}

/// Applies a permutation drawn as ranks: element `i` goes to the
/// position of the `i`-th smallest rank (a deterministic shuffle).
fn permuted<T: Clone>(items: &[T], ranks: &[u64]) -> Vec<(usize, T)> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (ranks.get(i).copied().unwrap_or(0), i));
    order.into_iter().map(|i| (i, items[i].clone())).collect()
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

    /// Replaying an arbitrary query set in an arbitrary permuted order
    /// yields the same per-query outcome and the same final budget.
    #[test]
    fn replay_order_never_changes_outcomes_or_budget(
        seed in 0u64..1_000_000,
        failure_rate in 0.0f64..0.8,
        noise_rate in 0.0f64..0.8,
        retries in 0u32..3,
        terms in proptest::collection::vec(0u32..TERMS, 1..40),
        ranks in proptest::collection::vec(0u64..u64::MAX, 40),
    ) {
        let queries: Vec<Vec<TermId>> = terms.iter().map(|&i| vec![t(i)]).collect();

        let forward = flaky(seed, failure_rate, noise_rate, retries);
        let fwd: Vec<_> = queries.iter().map(|q| outcome(&forward, q)).collect();

        let shuffled = flaky(seed, failure_rate, noise_rate, retries);
        for (i, q) in permuted(&queries, &ranks) {
            prop_assert_eq!(&outcome(&shuffled, &q), &fwd[i], "query #{} diverged", i);
        }
        prop_assert_eq!(forward.budget(), shuffled.budget());
    }

    /// Interleaving unrelated extra probes between the queries must not
    /// shift any query's outcome — there is no consumable RNG state for
    /// the extra traffic to advance (the defect the old sequential
    /// `Mutex<StdRng>` had).
    #[test]
    fn unrelated_traffic_never_shifts_outcomes(
        seed in 0u64..1_000_000,
        failure_rate in 0.0f64..0.8,
        noise_rate in 0.0f64..0.8,
        terms in proptest::collection::vec(0u32..TERMS, 1..20),
        extra in proptest::collection::vec(0u32..TERMS, 0..20),
    ) {
        let quiet = flaky(seed, failure_rate, noise_rate, 1);
        let baseline: Vec<_> = terms.iter().map(|&i| outcome(&quiet, &[t(i)])).collect();

        let noisy = flaky(seed, failure_rate, noise_rate, 1);
        for (k, &i) in terms.iter().enumerate() {
            for &e in &extra {
                let _ = noisy.search(&[t(e), t(e)], 1);
            }
            prop_assert_eq!(&outcome(&noisy, &[t(i)]), &baseline[k], "query #{} shifted", k);
        }
    }
}

/// Thread-schedule independence: many workers race the same query set
/// through one wrapper in arbitrary interleavings; every worker must
/// observe the same per-query outcomes as a sequential replay, and the
/// budget must be exactly the sequential budget times the worker count
/// (every counter is per-probe, and probes are schedule-independent).
#[test]
fn concurrent_replay_matches_sequential_outcomes_exactly() {
    const WORKERS: u64 = 8;
    let queries: Vec<Vec<TermId>> = (0..TERMS).map(|i| vec![t(i)]).collect();

    let sequential = flaky(77, 0.4, 0.5, 2);
    let expected: Vec<_> = queries.iter().map(|q| outcome(&sequential, q)).collect();
    let seq_budget = sequential.budget();

    let shared = Arc::new(flaky(77, 0.4, 0.5, 2));
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let shared = Arc::clone(&shared);
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                // Each worker walks the set at a different stride so the
                // interleavings differ across workers and runs.
                let n = queries.len();
                let stride = usize::try_from(w).unwrap() * 2 + 1;
                for k in 0..n {
                    let i = (k * stride) % n;
                    assert_eq!(
                        outcome(&shared, &queries[i]),
                        expected[i],
                        "worker {w} query {i} diverged under concurrency"
                    );
                }
            });
        }
    });

    let b = shared.budget();
    let scaled = ProbeBudget {
        attempts: seq_budget.attempts * WORKERS,
        retries: seq_budget.retries * WORKERS,
        failures: seq_budget.failures * WORKERS,
        outages: seq_budget.outages * WORKERS,
    };
    assert_eq!(b, scaled, "budget must be the sequential spend × workers");
}
