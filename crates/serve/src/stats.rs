//! Serving counters and the latency histogram behind [`ServeStats`].
//!
//! The core is a block of relaxed atomics owned by the [`crate::Server`]
//! — *local* to the server instance, so tests and multi-tenant
//! processes never read each other's numbers — mirrored into the global
//! `mp-obs` registry (counters `serve.*`, histogram `serve.latency_us`)
//! so `--obs-json` exports the same picture. The local block, its
//! rolling window included, ignores the runtime switch (`MP_OBS`,
//! [`mp_obs::set_enabled`]); only the mirror stops recording when it is
//! off.
//!
//! Latency quantiles reuse the bucket layout
//! [`mp_obs::bounds::LATENCY_US`] and the quantile estimator on
//! [`mp_obs::HistogramRow`], so a p99 read from [`ServeStats`] and one
//! read from an obs snapshot agree bucket-for-bucket.

use std::sync::atomic::{AtomicU64, Ordering};

use mp_obs::{StripedU64, TraceId, WindowWheel};

use crate::server::CacheStatus;

const BOUNDS: &[u64] = mp_obs::bounds::LATENCY_US;

/// Ticks of rolling-latency history the per-server window wheel keeps.
/// Eight matches the stripe width used elsewhere and bounds the merge
/// cost of a rolling read at O(8 · buckets).
pub(crate) const WINDOW_SLOTS: usize = 8;

/// A point-in-time snapshot of one server's counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests answered (with a result; rejections excluded).
    pub completed: u64,
    /// Result-cache hits.
    pub hits: u64,
    /// Result-cache misses that computed (includes cache-off bypasses).
    pub misses: u64,
    /// Requests that joined another request's in-flight computation.
    pub dedup_joins: u64,
    /// Computed requests that reused another request's RDs: always 0,
    /// because no RD vector outlives the request that derived it.
    pub rd_hits: u64,
    /// Computed requests that derived their query's RDs: always equal
    /// to [`Self::misses`], because each computed request derives them
    /// exactly once.
    pub rd_misses: u64,
    /// Admission-control rejections (queue full → `Overload`).
    pub rejects: u64,
    /// Requests rejected at submit as malformed (`InvalidRequest`).
    pub invalid: u64,
    /// Requests dropped because their deadline had passed.
    pub deadline_misses: u64,
    /// Requests shed by the SLO shedder: the rolling p99 violated the
    /// configured limit and the request's remaining deadline slack was
    /// below that p99.
    pub sheds: u64,
    /// Requests whose computation panicked (answered `Internal`).
    pub panicked: u64,
    /// Completed-request latencies: observation count.
    pub latency_count: u64,
    /// Sum of latencies, microseconds.
    pub latency_sum_us: u64,
    /// Worst completed-request latency, microseconds.
    pub latency_max_us: u64,
    /// Median latency (bucket upper bound), microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency (bucket upper bound), microseconds.
    pub p99_us: u64,
    /// Rolling median over the last [`WINDOW_SLOTS`] ticks (bucket
    /// upper bound), microseconds. Read off the server's own window,
    /// which records with recording on or off, like the counters above.
    pub rolling_p50_us: u64,
    /// Rolling 99th percentile over the window, microseconds.
    pub rolling_p99_us: u64,
    /// Rolling worst latency over the window, microseconds.
    pub rolling_max_us: u64,
    /// Completions observed inside the rolling window.
    pub rolling_count: u64,
    /// Window ticks elapsed (advances of the wheel).
    pub window_ticks: u64,
}

/// The live counters behind [`ServeStats`].
///
/// Every per-request counter is a cacheline-striped [`StripedU64`]:
/// concurrent workers completing requests write disjoint cachelines
/// instead of serializing on one shared line, and `snapshot()` merges
/// the stripes on export. Only `latency_max_us` stays a plain atomic —
/// `fetch_max` needs the single authoritative cell.
#[derive(Debug)]
pub(crate) struct StatsCore {
    completed: StripedU64,
    hits: StripedU64,
    misses: StripedU64,
    dedup_joins: StripedU64,
    rejects: StripedU64,
    invalid: StripedU64,
    deadline_misses: StripedU64,
    sheds: StripedU64,
    panicked: StripedU64,
    latency_sum_us: StripedU64,
    latency_max_us: AtomicU64,
    latency_buckets: Vec<StripedU64>,
    /// Session-monotonic trace-id allocator, local to this server so a
    /// fresh server always hands out ids 1, 2, 3, … — the determinism
    /// the trace tests pin. Relaxed: ids only need uniqueness and
    /// monotonicity of the counter itself, never cross-field ordering.
    trace_seq: AtomicU64,
    /// Rolling latency deltas, advanced by [`crate::Server::tick_window`].
    window: WindowWheel,
}

impl StatsCore {
    pub(crate) fn new() -> Self {
        Self {
            completed: StripedU64::new(),
            hits: StripedU64::new(),
            misses: StripedU64::new(),
            dedup_joins: StripedU64::new(),
            rejects: StripedU64::new(),
            invalid: StripedU64::new(),
            deadline_misses: StripedU64::new(),
            sheds: StripedU64::new(),
            panicked: StripedU64::new(),
            latency_sum_us: StripedU64::new(),
            latency_max_us: AtomicU64::new(0),
            latency_buckets: (0..=BOUNDS.len()).map(|_| StripedU64::new()).collect(),
            trace_seq: AtomicU64::new(0),
            window: WindowWheel::new(BOUNDS, WINDOW_SLOTS),
        }
    }

    /// Allocates the next [`TraceId`] for this server (ids start at 1;
    /// 0 stays "no trace"). Pure arithmetic over a process-local
    /// counter — no clocks, no thread ids (nothing `crates/clippy.toml`
    /// disallows).
    pub(crate) fn next_trace_id(&self) -> TraceId {
        TraceId(self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Closes the current rolling-window tick on both the local wheel
    /// and its global `mp-obs` mirror.
    pub(crate) fn tick(&self) {
        self.window.advance();
        mp_obs::window!("serve.latency_window_us", BOUNDS, WINDOW_SLOTS).advance();
    }

    pub(crate) fn reject(&self) {
        self.rejects.incr();
        mp_obs::counter!("serve.rejects").incr();
    }

    pub(crate) fn invalid(&self) {
        self.invalid.incr();
        mp_obs::counter!("serve.invalid").incr();
    }

    pub(crate) fn deadline_miss(&self) {
        self.deadline_misses.incr();
        mp_obs::counter!("serve.deadline_misses").incr();
    }

    pub(crate) fn shed(&self) {
        self.sheds.incr();
        mp_obs::counter!("serve.sheds").incr();
    }

    pub(crate) fn panicked(&self) {
        self.panicked.incr();
        mp_obs::counter!("serve.panicked").incr();
    }

    /// The rolling p99 the shed predicate consults, read off the
    /// server's own wheel, so shedding works with recording off.
    pub(crate) fn rolling_p99_us(&self) -> u64 {
        self.window
            .rolling("serve.latency_us.rolling", WINDOW_SLOTS)
            .approx_quantile(0.99)
    }

    /// Test hook: feeds one latency observation into the rolling window
    /// (and only the window — no completion counters), so shed-policy
    /// tests can stage a tail-latency regression without sleeping.
    #[doc(hidden)]
    pub(crate) fn record_window_latency(&self, latency_us: u64) {
        self.window.record(latency_us);
    }

    pub(crate) fn complete(&self, status: CacheStatus, latency_us: u64) {
        self.completed.incr();
        match status {
            CacheStatus::Hit => {
                self.hits.incr();
                mp_obs::counter!("serve.cache_hits").incr();
            }
            CacheStatus::Joined => {
                self.dedup_joins.incr();
                mp_obs::counter!("serve.dedup_joins").incr();
            }
            CacheStatus::Miss | CacheStatus::Bypass => {
                self.misses.incr();
                mp_obs::counter!("serve.cache_misses").incr();
            }
        }
        self.latency_sum_us.add(latency_us);
        self.latency_max_us.fetch_max(latency_us, Ordering::Relaxed);
        let idx = BOUNDS.partition_point(|&b| b < latency_us);
        self.latency_buckets[idx].incr();
        self.window.record(latency_us);
        // The cumulative mirror records exemplars: called while the
        // request's TraceScope is still active, so the bucket remembers
        // this TraceId.
        mp_obs::histogram!("serve.latency_us", BOUNDS).record(latency_us);
        mp_obs::window!("serve.latency_window_us", BOUNDS, WINDOW_SLOTS).record(latency_us);
    }

    pub(crate) fn snapshot(&self) -> ServeStats {
        let buckets: Vec<u64> = self.latency_buckets.iter().map(|b| b.get()).collect();
        let latency_count: u64 = buckets.iter().sum();
        let latency_max_us = self.latency_max_us.load(Ordering::Relaxed);
        // Reuse mp-obs's bucket-quantile estimator so ServeStats and an
        // obs snapshot of `serve.latency_us` can never disagree.
        let row = mp_obs::HistogramRow {
            name: "serve.latency_us".to_string(),
            bounds: BOUNDS.to_vec(),
            buckets,
            count: latency_count,
            sum: self.latency_sum_us.get(),
            min: 0,
            max: latency_max_us,
            exemplars: Vec::new(),
        };
        let rolling = self
            .window
            .rolling("serve.latency_us.rolling", WINDOW_SLOTS);
        let misses = self.misses.get();
        ServeStats {
            completed: self.completed.get(),
            hits: self.hits.get(),
            misses,
            dedup_joins: self.dedup_joins.get(),
            rd_hits: 0,
            rd_misses: misses,
            rejects: self.rejects.get(),
            invalid: self.invalid.get(),
            deadline_misses: self.deadline_misses.get(),
            sheds: self.sheds.get(),
            panicked: self.panicked.get(),
            latency_count,
            latency_sum_us: row.sum,
            latency_max_us,
            p50_us: row.approx_quantile(0.5),
            p99_us: row.approx_quantile(0.99),
            rolling_p50_us: rolling.approx_quantile(0.5),
            rolling_p99_us: rolling.approx_quantile(0.99),
            rolling_max_us: rolling.max,
            rolling_count: rolling.count,
            window_ticks: self.window.ticks(),
        }
    }
}

impl ServeStats {
    /// Cache hit rate over completed requests (0 when none completed).
    pub fn hit_rate(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.hits as f64 / self.completed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_identity() {
        let core = StatsCore::new();
        core.complete(CacheStatus::Miss, 100);
        core.complete(CacheStatus::Hit, 10);
        core.complete(CacheStatus::Joined, 20);
        core.complete(CacheStatus::Bypass, 30);
        core.reject();
        core.invalid();
        core.deadline_miss();
        core.shed();
        core.panicked();
        let s = core.snapshot();
        assert_eq!(s.completed, 4);
        assert_eq!(s.hits + s.misses + s.dedup_joins, s.completed);
        assert_eq!((s.hits, s.misses, s.dedup_joins), (1, 2, 1));
        assert_eq!((s.rejects, s.deadline_misses, s.sheds), (1, 1, 1));
        assert_eq!(s.invalid, 1);
        assert_eq!(s.panicked, 1);
        assert_eq!(s.latency_count, 4);
        assert_eq!(s.latency_sum_us, 160);
        assert_eq!(s.latency_max_us, 100);
    }

    #[test]
    fn rolling_window_forgets_old_ticks() {
        let core = StatsCore::new();
        core.complete(CacheStatus::Miss, 400_000);
        // Push the slow completion past the window horizon.
        for _ in 0..WINDOW_SLOTS {
            core.tick();
        }
        core.complete(CacheStatus::Miss, 40);
        let s = core.snapshot();
        assert_eq!(s.window_ticks, WINDOW_SLOTS as u64);
        assert_eq!(s.rolling_count, 1, "old tick evicted from the window");
        assert_eq!(s.rolling_max_us, 40);
        assert!(s.rolling_p99_us <= BOUNDS[0]);
        // The cumulative view still remembers everything.
        assert_eq!(s.latency_count, 2);
        assert_eq!(s.latency_max_us, 400_000);
    }

    #[test]
    fn trace_ids_are_sequential_from_one() {
        let core = StatsCore::new();
        assert_eq!(core.next_trace_id(), TraceId(1));
        assert_eq!(core.next_trace_id(), TraceId(2));
        assert_eq!(core.next_trace_id(), TraceId(3));
    }

    #[test]
    fn quantiles_track_the_buckets() {
        let core = StatsCore::new();
        for _ in 0..99 {
            core.complete(CacheStatus::Miss, 40); // ≤ first bound
        }
        core.complete(CacheStatus::Miss, 400_000);
        let s = core.snapshot();
        assert_eq!(s.p50_us, BOUNDS[0]);
        assert!(s.p99_us <= BOUNDS[0], "99/100 observations in bucket 0");
        assert_eq!(s.latency_max_us, 400_000);
    }
}
