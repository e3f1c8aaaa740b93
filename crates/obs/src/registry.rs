//! The lock-sharded global registry behind spans and metrics.
//!
//! Handles are interned once per *name* and leaked (`Box::leak`) so the
//! hot path holds `&'static` references and never re-locks; the shard
//! mutexes are touched only on first registration of a name and when a
//! snapshot walks the tables. Sixteen shards keyed by FNV-1a of the
//! name keep first-registration contention negligible even under the
//! serve pool and mp-eval's per-query fan-out.
//!
//! [`reset`] zeroes every value in place — registered handles (and the
//! `OnceLock` caches in the recording macros) stay valid across resets,
//! which is what lets the `apro_scaling` bench interleave measured
//! windows in one process.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram};

/// Snapshot schema identifier, bumped on any breaking field change.
/// v2 adds per-histogram `exemplars` and the `windows` section.
pub const SCHEMA: &str = "mp-obs/2";

/// Per-span aggregate, updated on every span close.
#[derive(Debug, Default)]
pub(crate) struct SpanStat {
    count: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStat {
    pub(crate) fn record(&self, total_ns: u64, self_ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(total_ns, Ordering::Relaxed);
        self.self_ns.fetch_add(self_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(total_ns, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.self_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

const SHARDS: usize = 16;

/// A name-keyed intern table: 16 mutex-guarded maps to leaked handles.
struct Sharded<T: 'static> {
    shards: [Mutex<HashMap<&'static str, &'static T>>; SHARDS],
}

impl<T: 'static> Sharded<T> {
    fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn shard(&self, name: &str) -> &Mutex<HashMap<&'static str, &'static T>> {
        // FNV-1a over the name bytes; stable and dependency-free.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in name.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let idx = usize::try_from(h % (SHARDS as u64)).unwrap_or(0);
        &self.shards[idx]
    }

    fn get_or_insert(&self, name: &'static str, init: impl FnOnce() -> T) -> &'static T {
        let mut map = self
            .shard(name)
            .lock()
            .expect("mp-obs registry shard mutex poisoned");
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(init())))
    }

    /// Visits every registered entry, in unspecified order.
    fn for_each(&self, mut f: impl FnMut(&'static str, &'static T)) {
        for shard in &self.shards {
            let map = shard.lock().expect("mp-obs registry shard mutex poisoned");
            for (&name, &v) in map.iter() {
                f(name, v);
            }
        }
    }
}

fn spans() -> &'static Sharded<SpanStat> {
    static S: OnceLock<Sharded<SpanStat>> = OnceLock::new();
    S.get_or_init(Sharded::new)
}

fn counters() -> &'static Sharded<Counter> {
    static S: OnceLock<Sharded<Counter>> = OnceLock::new();
    S.get_or_init(Sharded::new)
}

fn gauges() -> &'static Sharded<Gauge> {
    static S: OnceLock<Sharded<Gauge>> = OnceLock::new();
    S.get_or_init(Sharded::new)
}

fn histograms() -> &'static Sharded<Histogram> {
    static S: OnceLock<Sharded<Histogram>> = OnceLock::new();
    S.get_or_init(Sharded::new)
}

fn windows() -> &'static Sharded<crate::window::WindowWheel> {
    static S: OnceLock<Sharded<crate::window::WindowWheel>> = OnceLock::new();
    S.get_or_init(Sharded::new)
}

/// Observed parent→child span pairs, for tree reconstruction.
fn edges() -> &'static Mutex<BTreeSet<(&'static str, &'static str)>> {
    static E: OnceLock<Mutex<BTreeSet<(&'static str, &'static str)>>> = OnceLock::new();
    E.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Monotone generation for the edge set, bumped by [`reset`] so the
/// per-thread seen-edge caches know to forget what they've reported.
static EDGE_GEN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Edges this thread already pushed into the global set (tagged with
    /// the generation they were pushed under). A span open consults this
    /// cache first, so the edge-set mutex is taken once per distinct
    /// parent→child pair per thread, not once per span open — the edge
    /// set is tiny and static after warm-up, while span opens are the
    /// serving hot path.
    static SEEN_EDGES: std::cell::RefCell<(u64, BTreeSet<(&'static str, &'static str)>)> =
        const { std::cell::RefCell::new((0, BTreeSet::new())) };
}

pub(crate) fn span_stat(name: &'static str) -> &'static SpanStat {
    spans().get_or_insert(name, SpanStat::default)
}

pub(crate) fn record_edge(parent: &'static str, child: &'static str) {
    // A generation observed here happens-after the edge-set clear it
    // numbers, so a stale thread cache can never resurrect pre-reset
    // edges: pairs with the Release bump in reset().
    let gen = EDGE_GEN.load(Ordering::Acquire);
    let fresh = SEEN_EDGES.with(|seen| {
        let mut seen = seen.borrow_mut();
        if seen.0 != gen {
            seen.0 = gen;
            seen.1.clear();
        }
        seen.1.insert((parent, child))
    });
    if fresh {
        let mut set = edges().lock().expect("mp-obs edge-set mutex poisoned");
        set.insert((parent, child));
    }
}

pub(crate) fn counter(name: &'static str) -> &'static Counter {
    counters().get_or_insert(name, Counter::new)
}

pub(crate) fn gauge(name: &'static str) -> &'static Gauge {
    gauges().get_or_insert(name, Gauge::new)
}

pub(crate) fn histogram(name: &'static str, bounds: &'static [u64]) -> &'static Histogram {
    let h = histograms().get_or_insert(name, || Histogram::new(bounds));
    debug_assert!(
        h.bounds() == bounds,
        "histogram `{name}` registered twice with different bounds"
    );
    h
}

pub(crate) fn window(
    name: &'static str,
    bounds: &'static [u64],
    slots: usize,
) -> &'static crate::window::WindowWheel {
    let w = windows().get_or_insert(name, || crate::window::WindowWheel::gated(bounds, slots));
    debug_assert!(
        w.bounds() == bounds && w.slot_count() == slots.max(1),
        "window `{name}` registered twice with different bounds or slot count"
    );
    w
}

// --- snapshot rows ---------------------------------------------------

/// One span's aggregate in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// Span name (`subsystem.verb`).
    pub name: String,
    /// Number of closed occurrences.
    pub count: u64,
    /// Total wall nanoseconds across occurrences.
    pub total_ns: u64,
    /// Total minus time attributed to child spans.
    pub self_ns: u64,
    /// Worst single occurrence, nanoseconds.
    pub max_ns: u64,
}

/// One counter's value in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRow {
    /// Counter name.
    pub name: String,
    /// Accumulated count.
    pub value: u64,
}

/// One gauge's level in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeRow {
    /// Gauge name.
    pub name: String,
    /// Last recorded level.
    pub value: i64,
}

/// One histogram's state in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramRow {
    /// Histogram name.
    pub name: String,
    /// Upper bucket bounds (exclusive of the trailing overflow bucket).
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `bounds.len() + 1` entries.
    pub buckets: Vec<u64>,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Exemplar linkage: per bucket, the [`crate::TraceId`] value of
    /// the latest *traced* request that landed in it (0 = none).
    /// Either empty (no exemplars recorded — e.g. window-merged rows)
    /// or `buckets.len()` entries.
    pub exemplars: Vec<u64>,
}

impl HistogramRow {
    /// An upper bound on the `q`-quantile of the recorded values, read
    /// off the bucket counts: the bound of the first bucket where the
    /// cumulative count reaches `q · count`, clamped to the observed
    /// [`max`](Self::max) (the overflow bucket reports `max` itself).
    /// Returns 0 for an empty histogram; `q` is clamped to `[0, 1]`.
    ///
    /// The estimate is never below the true quantile, never above the
    /// observed max, monotone in `q`, and off by at most one bucket
    /// width. Serving-layer p50/p99 readouts use this on the
    /// `LATENCY_US` bounds.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum > 0 && cum as f64 >= target {
                // The chosen bucket is non-empty, so its bound clamped
                // to the max is still at least the min.
                return self.bounds.get(i).map_or(self.max, |&b| b.min(self.max));
            }
        }
        self.max
    }
}

/// A point-in-time copy of the whole registry, rows sorted by name.
///
/// Produced by [`snapshot`]; rendered by the exporters in
/// [`crate::Snapshot::to_json`] / `render_tree` / `render_flame`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Whether recording was enabled when the snapshot was taken.
    pub enabled: bool,
    /// All registered spans.
    pub spans: Vec<SpanRow>,
    /// All registered counters.
    pub counters: Vec<CounterRow>,
    /// All registered gauges.
    pub gauges: Vec<GaugeRow>,
    /// All registered histograms.
    pub histograms: Vec<HistogramRow>,
    /// All registered window wheels (rolling views).
    pub windows: Vec<WindowRow>,
    /// Observed parent→child span pairs, lexicographically sorted.
    pub edges: Vec<(String, String)>,
}

/// One window wheel's rolling state in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRow {
    /// Wheel name.
    pub name: String,
    /// Number of slots (the maximum rolling horizon, in ticks).
    pub slots: u64,
    /// Ticks elapsed since registration (or the last reset).
    pub ticks: u64,
    /// All slots merged into one histogram row (`min` is always 0 —
    /// a rolling minimum is not maintained; exemplars are empty).
    pub merged: HistogramRow,
}

/// Copies the registry into a sorted, owned [`Snapshot`].
///
/// Cheap relative to any measured region (a few mutex walks); values
/// recorded concurrently with the walk land in whichever side of the
/// snapshot the interleaving dictates, as with any live-system capture.
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot {
        enabled: crate::is_enabled(),
        ..Snapshot::default()
    };
    spans().for_each(|name, s| {
        snap.spans.push(SpanRow {
            name: name.to_string(),
            count: s.count.load(Ordering::Relaxed),
            total_ns: s.total_ns.load(Ordering::Relaxed),
            self_ns: s.self_ns.load(Ordering::Relaxed),
            max_ns: s.max_ns.load(Ordering::Relaxed),
        });
    });
    counters().for_each(|name, c| {
        snap.counters.push(CounterRow {
            name: name.to_string(),
            value: c.get(),
        });
    });
    gauges().for_each(|name, g| {
        snap.gauges.push(GaugeRow {
            name: name.to_string(),
            value: g.get(),
        });
    });
    histograms().for_each(|name, h| {
        snap.histograms.push(HistogramRow {
            name: name.to_string(),
            bounds: h.bounds().to_vec(),
            buckets: h.bucket_counts(),
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            exemplars: h.exemplar_ids(),
        });
    });
    windows().for_each(|name, w| {
        snap.windows.push(WindowRow {
            name: name.to_string(),
            slots: w.slot_count() as u64,
            ticks: w.ticks(),
            merged: w.rolling(name, w.slot_count()),
        });
    });
    snap.spans.sort_by(|a, b| a.name.cmp(&b.name));
    snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
    snap.gauges.sort_by(|a, b| a.name.cmp(&b.name));
    snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    snap.windows.sort_by(|a, b| a.name.cmp(&b.name));
    {
        let set = edges().lock().expect("mp-obs edge-set mutex poisoned");
        snap.edges = set
            .iter()
            .map(|&(p, c)| (p.to_string(), c.to_string()))
            .collect();
    }
    snap
}

/// Zeroes every registered span, counter, gauge, and histogram in place
/// and clears the edge set. Handles stay registered (macro caches remain
/// valid); names are never forgotten.
pub fn reset() {
    spans().for_each(|_, s| s.reset());
    counters().for_each(|_, c| c.reset());
    gauges().for_each(|_, g| g.reset());
    histograms().for_each(|_, h| h.reset());
    windows().for_each(|_, w| w.reset());
    edges()
        .lock()
        .expect("mp-obs edge-set mutex poisoned")
        .clear();
    // Invalidate every thread's seen-edge cache so re-observed edges
    // repopulate the freshly cleared set.
    // publishes the cleared edge set: pairs with the Acquire load in
    // record_edge(), ordering the clear before the new generation number.
    EDGE_GEN.fetch_add(1, Ordering::Release);
}
