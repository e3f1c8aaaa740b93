//! Integration tests for mp-obs.
//!
//! The registry and the runtime switch are process-global, so every
//! test that touches them serializes on one mutex and starts from
//! `reset()`.

#![expect(
    clippy::disallowed_methods,
    reason = "timing and concurrency tests read the clock and run their own threads"
)]

use std::sync::{Mutex, MutexGuard};

/// Serializes tests that touch the global registry; tolerant of a
/// poisoned lock so one failing test does not cascade.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

mod enabled {
    use super::lock;
    use std::time::{Duration, Instant};

    /// Busy-waits so span durations are nonzero and ordered; sleeping
    /// is too coarse on loaded CI machines.
    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    fn span_row(snap: &mp_obs::Snapshot, name: &str) -> mp_obs::SpanRow {
        snap.spans
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("span `{name}` missing from snapshot"))
            .clone()
    }

    #[test]
    fn nested_spans_aggregate_self_and_total_time() {
        let _g = lock();
        mp_obs::reset();
        mp_obs::set_enabled(true);
        {
            let _outer = mp_obs::span!("t1.outer");
            spin(Duration::from_millis(2));
            {
                let _inner = mp_obs::span!("t1.inner");
                spin(Duration::from_millis(2));
            }
        }
        let snap = mp_obs::snapshot();
        let outer = span_row(&snap, "t1.outer");
        let inner = span_row(&snap, "t1.inner");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(inner.total_ns >= 2_000_000, "inner ran >= 2ms");
        assert!(
            outer.total_ns >= inner.total_ns + 2_000_000,
            "outer ({}) strictly contains inner ({}) plus its own work",
            outer.total_ns,
            inner.total_ns
        );
        // Self time is exact by construction: total minus child time.
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert!(outer.max_ns >= outer.total_ns.min(outer.max_ns));
        assert!(snap
            .edges
            .contains(&("t1.outer".to_string(), "t1.inner".to_string())));
    }

    #[test]
    fn spans_and_counters_under_thread_scope() {
        let _g = lock();
        mp_obs::reset();
        mp_obs::set_enabled(true);
        const THREADS: u64 = 4;
        const REPS: u64 = 8;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..REPS {
                        let _span = mp_obs::span!("t2.worker");
                        mp_obs::counter!("t2.events").add(3);
                        mp_obs::histogram!("t2.sizes", mp_obs::bounds::SMALL).record(5);
                    }
                });
            }
        });
        let snap = mp_obs::snapshot();
        let worker = span_row(&snap, "t2.worker");
        assert_eq!(worker.count, THREADS * REPS);
        assert!(worker.total_ns >= worker.max_ns, "sum dominates the max");
        assert!(
            worker.self_ns <= worker.total_ns,
            "self never exceeds total"
        );
        let events = snap
            .counters
            .iter()
            .find(|c| c.name == "t2.events")
            .expect("counter t2.events must be registered");
        assert_eq!(events.value, THREADS * REPS * 3);
        let sizes = snap
            .histograms
            .iter()
            .find(|h| h.name == "t2.sizes")
            .expect("histogram t2.sizes must be registered");
        assert_eq!(sizes.count, THREADS * REPS);
        assert_eq!(sizes.sum, THREADS * REPS * 5);
        // Worker spans are roots on their own threads: no t2.* edges.
        assert!(snap
            .edges
            .iter()
            .all(|(p, c)| !p.starts_with("t2.") && !c.starts_with("t2.")));
    }

    /// Naive reference: linear scan for the first bound >= v.
    fn naive_bucket(bounds: &[u64], v: u64) -> usize {
        for (i, &b) in bounds.iter().enumerate() {
            if v <= b {
                return i;
            }
        }
        bounds.len()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn histogram_matches_naive_reference(
            values in proptest::collection::vec(0u64..5_000, 0..60)
        ) {
            let _g = super::lock();
            mp_obs::reset();
            mp_obs::set_enabled(true);
            const BOUNDS: &[u64] = &[10, 100, 1000];
            let h = mp_obs::histogram("t3.ref", BOUNDS);
            let mut expect = vec![0u64; BOUNDS.len() + 1];
            for &v in &values {
                h.record(v);
                expect[naive_bucket(BOUNDS, v)] += 1;
            }
            proptest::prop_assert_eq!(h.bucket_counts(), expect);
            proptest::prop_assert_eq!(h.count(), values.len() as u64);
            proptest::prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
            proptest::prop_assert_eq!(h.min(), values.iter().copied().min().unwrap_or(0));
            proptest::prop_assert_eq!(h.max(), values.iter().copied().max().unwrap_or(0));
        }
    }

    #[test]
    fn histogram_boundary_values_land_inclusively() {
        let _g = lock();
        mp_obs::reset();
        mp_obs::set_enabled(true);
        const BOUNDS: &[u64] = &[1, 2, 4];
        let h = mp_obs::histogram("t4.edges", BOUNDS);
        // Upper bounds are inclusive: 1→bucket0, 2→bucket1, 3,4→bucket2,
        // 5→overflow. Zero lands in the first bucket.
        for v in [0, 1, 2, 3, 4, 5] {
            h.record(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 1, 2, 1]);
    }

    #[test]
    fn json_snapshot_is_stable_and_sorted() {
        let _g = lock();
        mp_obs::reset();
        mp_obs::set_enabled(true);
        {
            let _span = mp_obs::span!("t5.zeta");
            let _span2 = mp_obs::span!("t5.alpha");
            mp_obs::counter!("t5.count").incr();
            mp_obs::gauge!("t5.level").set(-7);
            mp_obs::histogram!("t5.h", mp_obs::bounds::POW2).record(33);
        }
        let a = mp_obs::snapshot();
        let b = mp_obs::snapshot();
        assert_eq!(a.to_json(), b.to_json(), "consecutive exports byte-equal");
        let json = a.to_json();
        assert!(json.starts_with(&format!("{{\"schema\":\"{}\"", mp_obs::SCHEMA)));
        assert!(json.contains("\"t5.count\",\"value\":1"));
        assert!(json.contains("\"t5.level\",\"value\":-7"));
        // Sorted rows: alpha strictly before zeta.
        let alpha = json.find("t5.alpha").expect("alpha span present in JSON");
        let zeta = json.find("t5.zeta").expect("zeta span present in JSON");
        assert!(alpha < zeta);
        // The human renderings cover every section without panicking.
        let tree = a.render_tree();
        assert!(tree.contains("t5.zeta") && tree.contains("t5.count"));
        let flame = a.render_flame();
        assert!(flame.contains("t5.alpha"));
    }

    #[test]
    fn runtime_toggle_stops_recording_and_keeps_balance() {
        let _g = lock();
        mp_obs::reset();
        mp_obs::set_enabled(true);
        let c = mp_obs::counter("t6.count");
        c.incr();
        // Open a span, flip recording off mid-flight, then close it: the
        // guard still pops its own frame and the close is recorded.
        {
            let _span = mp_obs::span!("t6.mid");
            mp_obs::set_enabled(false);
        }
        c.incr(); // dropped: recording is off
        {
            let _span = mp_obs::span!("t6.off"); // inert guard
        }
        mp_obs::set_enabled(true);
        let snap = mp_obs::snapshot();
        assert_eq!(
            snap.counters
                .iter()
                .find(|r| r.name == "t6.count")
                .expect("counter t6.count must be registered")
                .value,
            1
        );
        assert_eq!(span_row(&snap, "t6.mid").count, 1);
        assert!(snap.spans.iter().all(|r| r.name != "t6.off"));
    }

    /// With the switch off, every registry-backed entry point records
    /// nothing and no trace scope opens.
    #[test]
    fn switch_off_makes_the_full_api_inert() {
        let _g = lock();
        mp_obs::reset();
        mp_obs::set_enabled(false);
        let trace = {
            let scope = mp_obs::TraceScope::begin(mp_obs::TraceId(1), Instant::now());
            {
                let _span = mp_obs::span!("t9.span");
                mp_obs::counter!("t9.count").add(5);
                mp_obs::gauge!("t9.level").set(9);
                mp_obs::histogram!("t9.sizes", &[1, 8]).record(3);
                mp_obs::window!("t9.window", &[1, 8], 4).record(3);
                mp_obs::trace_annotate("t9.note", 7);
            }
            scope.finish()
        };
        let snap = mp_obs::snapshot();
        mp_obs::set_enabled(true);
        assert!(trace.is_none(), "no scope opens while recording is off");
        assert!(!snap.enabled);
        assert!(snap.spans.iter().all(|r| r.name != "t9.span"));
        let counter = snap.counters.iter().find(|r| r.name == "t9.count");
        assert_eq!(counter.map(|r| r.value), Some(0));
        let gauge = snap.gauges.iter().find(|r| r.name == "t9.level");
        assert_eq!(gauge.map(|r| r.value), Some(0));
        let hist = snap.histograms.iter().find(|r| r.name == "t9.sizes");
        assert_eq!(hist.map(|r| (r.count, r.sum)), Some((0, 0)));
        let window = snap.windows.iter().find(|r| r.name == "t9.window");
        assert_eq!(window.map(|r| (r.merged.count, r.merged.sum)), Some((0, 0)));
    }

    #[test]
    fn missing_or_zero_flags_dead_instrumentation() {
        let _g = lock();
        mp_obs::reset();
        mp_obs::set_enabled(true);
        {
            let _span = mp_obs::span!("t7.live");
        }
        let snap = mp_obs::snapshot();
        assert!(snap.missing_or_zero(&["t7.live"]).is_empty());
        let dead = snap.missing_or_zero(&["t7.live", "t7.never", "t1.outer"]);
        // t1.outer may exist from another test but was reset to zero (or
        // re-recorded under its own lock before our reset); here only
        // names with a nonzero count survive.
        assert!(dead.contains(&"t7.never".to_string()));
        assert!(!dead.contains(&"t7.live".to_string()));
    }

    #[test]
    fn reset_zeroes_values_but_keeps_registrations() {
        let _g = lock();
        mp_obs::reset();
        mp_obs::set_enabled(true);
        let c = mp_obs::counter("t8.count");
        c.add(41);
        {
            let _span = mp_obs::span!("t8.span");
        }
        mp_obs::reset();
        let snap = mp_obs::snapshot();
        assert_eq!(
            snap.counters
                .iter()
                .find(|r| r.name == "t8.count")
                .expect("registration survives reset")
                .value,
            0
        );
        assert_eq!(span_row(&snap, "t8.span").count, 0);
        assert!(snap.edges.is_empty());
        // The pre-reset handle keeps working.
        c.incr();
        assert_eq!(c.get(), 1);
    }
}

/// [`HistogramRow`] is plain data, so its quantile math is testable
/// without the registry (and without the global lock).
mod quantiles {
    use mp_obs::HistogramRow;
    use proptest::prelude::*;

    fn row(bounds: &[u64], buckets: &[u64], min: u64, max: u64) -> HistogramRow {
        let count = buckets.iter().sum();
        HistogramRow {
            name: "t.q".to_string(),
            bounds: bounds.to_vec(),
            buckets: buckets.to_vec(),
            count,
            sum: 0,
            min,
            max,
            exemplars: Vec::new(),
        }
    }

    #[test]
    fn approx_quantile_reads_bucket_upper_bounds() {
        // 10 observations: 4 in (..=10], 4 in (10..=100], 2 overflow.
        let r = row(&[10, 100], &[4, 4, 2], 3, 950);
        assert_eq!(
            r.approx_quantile(0.0),
            10,
            "q=0 lands in the first nonempty bucket"
        );
        assert_eq!(r.approx_quantile(0.25), 10);
        assert_eq!(
            r.approx_quantile(0.40),
            10,
            "cum 4 >= 4 exactly at the boundary"
        );
        assert_eq!(r.approx_quantile(0.50), 100);
        assert_eq!(r.approx_quantile(0.80), 100);
        assert_eq!(r.approx_quantile(0.99), 950, "overflow bucket reports max");
        assert_eq!(r.approx_quantile(1.0), 950);
    }

    #[test]
    fn approx_quantile_handles_degenerate_rows() {
        let empty = row(&[10, 100], &[0, 0, 0], 0, 0);
        assert_eq!(empty.approx_quantile(0.5), 0, "empty histogram reports 0");

        let only_overflow = row(&[10], &[0, 7], 500, 900);
        assert_eq!(only_overflow.approx_quantile(0.01), 900);
        assert_eq!(only_overflow.approx_quantile(0.99), 900);

        // Out-of-range q clamps instead of panicking or skipping
        // buckets; a bounded bucket whose bound exceeds the observed max
        // reports the max instead (a quantile never exceeds the max).
        let r = row(&[10, 100], &[5, 5, 0], 1, 60);
        assert_eq!(r.approx_quantile(-3.0), 10);
        assert_eq!(r.approx_quantile(7.5), 60);
    }

    #[test]
    fn approx_quantile_never_underestimates() {
        // The estimate is an upper bound: for every recorded value v at
        // rank r, approx_quantile(r / count) >= v. Exercise with values
        // placed explicitly in known buckets.
        let bounds = [4u64, 16, 64];
        let values = [1u64, 3, 4, 9, 15, 16, 40, 64, 70, 200];
        let mut buckets = [0u64; 4];
        for &v in &values {
            let i = bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
            buckets[i] += 1;
        }
        let r = row(&bounds, &buckets, 1, 200);
        for (rank, &v) in values.iter().enumerate() {
            let q = (rank + 1) as f64 / values.len() as f64;
            assert!(
                r.approx_quantile(q) >= v,
                "q={q}: estimate {} below true value {v}",
                r.approx_quantile(q)
            );
        }
    }

    /// A row holding `values` exactly as the live histogram records
    /// them: inclusive upper bounds, then the overflow bucket.
    fn row_of(bounds: &[u64], values: &[u64]) -> HistogramRow {
        let mut buckets = vec![0u64; bounds.len() + 1];
        for &v in values {
            buckets[bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len())] += 1;
        }
        let min = values.iter().copied().min().unwrap_or(0);
        let max = values.iter().copied().max().unwrap_or(0);
        row(bounds, &buckets, min, max)
    }

    /// The exact `q`-quantile under the estimator's rank convention:
    /// the smallest sample whose 1-based rank reaches `q · n`.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let target = q.clamp(0.0, 1.0) * sorted.len() as f64;
        let rank = (1..=sorted.len())
            .find(|&r| r as f64 >= target)
            .unwrap_or(sorted.len());
        sorted[rank - 1]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// For random samples on random bounds and any q ≤ q′:
        /// exact q-quantile ≤ approx(q) ≤ approx(q′) ≤ max.
        #[test]
        fn approx_quantile_is_bracketed_by_exact_and_max(
            values in proptest::collection::vec(0u64..20_000, 1..80),
            raw_bounds in proptest::collection::vec(1u64..20_000, 0..8),
            q in 0.0f64..=1.0,
            dq in 0.0f64..=1.0,
        ) {
            let mut bounds = raw_bounds;
            bounds.sort_unstable();
            bounds.dedup();
            let r = row_of(&bounds, &values);
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let q_hi = (q + dq).min(1.0);
            let (lo, hi) = (r.approx_quantile(q), r.approx_quantile(q_hi));
            prop_assert!(exact_quantile(&sorted, q) <= lo, "exact above approx at q={}", q);
            prop_assert!(lo <= hi, "approx not monotone: {} > {} for {} <= {}", lo, hi, q, q_hi);
            prop_assert!(hi <= r.max, "approx {} above the max {}", hi, r.max);
        }
    }
}
