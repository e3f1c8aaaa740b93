//! Window-wheel behaviour against a naive sliding-window reference, and
//! the `approx_quantile` edge cases the serve layer's rolling p50/p99
//! readouts depend on.
//!
//! The reference model keeps *every* sample of every tick in plain
//! `Vec`s and merges the last `k` ticks by brute force; the wheel must
//! agree exactly on count / sum / max / buckets for every horizon
//! `k ∈ [1, slots]` at every point of an arbitrary record/advance
//! schedule. (Single-threaded here, so the relaxed-atomics race window
//! documented on [`WindowWheel`] never opens.)

#![expect(
    clippy::disallowed_methods,
    reason = "traces begin at a clock read, as the server's do"
)]

use mp_obs::{HistogramRow, TraceId, TraceScope, WindowWheel};
use proptest::prelude::*;
use std::time::Instant;

/// A handful of `'static` bound sets exercising the interesting shapes:
/// overflow-only, single bound, dense low bounds, and wide decades.
const BOUND_SETS: [&[u64]; 4] = [&[], &[10], &[1, 2, 3, 5, 8], &[10, 100, 1_000, 10_000]];

#[derive(Debug, Clone)]
enum Op {
    Record(u64),
    Advance,
}

/// Roughly 1-in-5 advances between records (the vendored proptest has
/// no `prop_oneof`, so the choice is encoded in a drawn selector).
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u64..5, 0u64..20_000), 0..120).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(sel, v)| if sel == 0 { Op::Advance } else { Op::Record(v) })
            .collect()
    })
}

/// Brute-force sliding window: per-tick sample lists, merged on demand.
struct NaiveWindow {
    bounds: &'static [u64],
    ticks: Vec<Vec<u64>>,
}

impl NaiveWindow {
    fn new(bounds: &'static [u64]) -> Self {
        Self {
            bounds,
            ticks: vec![Vec::new()],
        }
    }

    fn record(&mut self, v: u64) {
        self.ticks.last_mut().expect("never empty").push(v);
    }

    fn advance(&mut self) {
        self.ticks.push(Vec::new());
    }

    /// Merges the samples of the last `k` ticks (newest first,
    /// including the open current tick) — the meaning `rolling`
    /// promises for any `k ≤ slots`.
    fn rolling(&self, k: usize) -> (Vec<u64>, u64, u64, u64) {
        let start = self.ticks.len().saturating_sub(k);
        let mut buckets = vec![0u64; self.bounds.len() + 1];
        let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
        for tick in &self.ticks[start..] {
            for &v in tick {
                buckets[self.bounds.partition_point(|&b| b < v)] += 1;
                count += 1;
                sum += v;
                max = max.max(v);
            }
        }
        (buckets, count, sum, max)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_wheel_matches_naive_sliding_window(
        bounds_idx in 0usize..BOUND_SETS.len(),
        slots in 1usize..6,
        ops in arb_ops(),
    ) {
        mp_obs::set_enabled(true);
        let bounds = BOUND_SETS[bounds_idx];
        let wheel = WindowWheel::new(bounds, slots);
        let mut naive = NaiveWindow::new(bounds);
        for op in &ops {
            match *op {
                Op::Record(v) => {
                    wheel.record(v);
                    naive.record(v);
                }
                Op::Advance => {
                    wheel.advance();
                    naive.advance();
                }
            }
            // Agreement at *every* prefix, for every horizon the wheel
            // can serve — not just at the end of the schedule.
            for k in 1..=slots {
                let got = wheel.rolling("w", k);
                let (buckets, count, sum, max) = naive.rolling(k);
                prop_assert_eq!(&got.buckets, &buckets, "buckets at k={}", k);
                prop_assert_eq!(got.count, count, "count at k={}", k);
                prop_assert_eq!(got.sum, sum, "sum at k={}", k);
                prop_assert_eq!(got.max, max, "max at k={}", k);
                prop_assert_eq!(got.min, 0u64, "rolling min is never tracked");
                prop_assert!(got.exemplars.is_empty(), "rolling rows carry no exemplars");
            }
        }
        prop_assert_eq!(
            wheel.ticks(),
            ops.iter().filter(|o| matches!(o, Op::Advance)).count() as u64
        );
    }

    #[test]
    fn prop_horizon_is_clamped_to_the_slot_count(
        slots in 1usize..5,
        ops in arb_ops(),
    ) {
        mp_obs::set_enabled(true);
        let wheel = WindowWheel::new(&[10, 100], slots);
        for op in &ops {
            match *op {
                Op::Record(v) => wheel.record(v),
                Op::Advance => wheel.advance(),
            }
        }
        // 0 means "at least the current slot"; anything past the wheel
        // means "everything it still holds".
        prop_assert_eq!(wheel.rolling("w", 0), wheel.rolling("w", 1));
        prop_assert_eq!(wheel.rolling("w", slots + 7), wheel.rolling("w", slots));
    }
}

fn row(bounds: &[u64], buckets: &[u64], max: u64) -> HistogramRow {
    HistogramRow {
        name: "q".to_string(),
        bounds: bounds.to_vec(),
        buckets: buckets.to_vec(),
        count: buckets.iter().sum(),
        sum: 0,
        min: 0,
        max,
        exemplars: Vec::new(),
    }
}

#[test]
fn approx_quantile_empty_row_is_zero() {
    let empty = row(&[10, 100], &[0, 0, 0], 0);
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(empty.approx_quantile(q), 0);
    }
}

#[test]
fn approx_quantile_single_bucket_reports_its_bound() {
    // Everything in one finite bucket: every quantile is that bound,
    // clamped to the observed max when the max sits below it.
    let single = row(&[10], &[4, 0], 7);
    assert_eq!(single.approx_quantile(0.0), 7);
    assert_eq!(single.approx_quantile(0.5), 7);
    assert_eq!(single.approx_quantile(1.0), 7);
    let full = row(&[10], &[4, 0], 10);
    assert_eq!(full.approx_quantile(0.5), 10);
}

#[test]
fn approx_quantile_overflow_bucket_reports_max() {
    // Bounds-free row (one overflow bucket) and an over-the-top sample
    // set both fall back to the observed max — the tightest bound held.
    let no_bounds = row(&[], &[3], 512);
    assert_eq!(no_bounds.approx_quantile(0.5), 512);
    let overflow_only = row(&[10, 100], &[0, 0, 5], 123_456);
    assert_eq!(overflow_only.approx_quantile(0.99), 123_456);
}

#[test]
fn approx_quantile_clamps_q() {
    let r = row(&[10, 100], &[2, 2, 0], 60);
    assert_eq!(r.approx_quantile(-3.0), r.approx_quantile(0.0));
    assert_eq!(r.approx_quantile(42.0), r.approx_quantile(1.0));
}

#[test]
fn histogram_exemplars_link_the_latest_traced_request() {
    mp_obs::set_enabled(true);
    // Two traced recordings into the same bucket: the later one wins.
    for id in [7u64, 9] {
        let scope = TraceScope::begin(TraceId(id), Instant::now());
        mp_obs::histogram!("window_test.exemplar_us", &[10, 100]).record(50);
        drop(scope.finish());
    }
    // An untraced recording must not disturb the stored exemplar.
    mp_obs::histogram!("window_test.exemplar_us", &[10, 100]).record(50);
    let snap = mp_obs::snapshot();
    let h = snap
        .histograms
        .iter()
        .find(|h| h.name == "window_test.exemplar_us")
        .expect("histogram registered");
    assert_eq!(h.exemplars.len(), h.buckets.len());
    assert_eq!(
        h.exemplars[1], 9,
        "bucket (10, 100] holds the latest TraceId"
    );
    assert_eq!(h.exemplars[0], 0, "untouched bucket has no exemplar");
}
