//! # mp-obs — zero-dependency tracing + metrics for the APro pipeline
//!
//! The adaptive-probing loop is an iterative decision process — probe,
//! update the RDs, recompute `E[Cor(DBk)]`, stop when confident — and
//! production work on it needs to know *where* time and probes go per
//! query, per query type, and per stopping condition. This crate is the
//! workspace's single observability substrate:
//!
//! * **Spans** ([`span!`], [`SpanGuard`]) — nestable RAII timing scopes
//!   keyed by `&'static str`, recorded per thread (a thread-local span
//!   stack) into a lock-sharded global registry with monotonic
//!   ([`std::time::Instant`]) clocks. Each span aggregates hit count,
//!   total wall time, *self* time (total minus time spent in child
//!   spans), and the worst single occurrence.
//! * **Metrics** ([`counter!`], [`gauge!`], [`histogram!`]) — counters,
//!   gauges, and fixed-bucket histograms whose hot-path recording is a
//!   single relaxed atomic RMW; registry lookups happen once per call
//!   site (the macros cache the resolved handle in a `static`).
//! * **Exporters** — a human-readable span tree
//!   ([`Snapshot::render_tree`]), a flame-style self/total breakdown
//!   ([`Snapshot::render_flame`]), and a stable, sorted JSON snapshot
//!   ([`Snapshot::to_json`], schema `mp-obs/2`) suitable for machine
//!   diffing and CI artifacts (`repro_output/obs_*.json`).
//! * **Per-request traces** (v2) — a [`TraceScope`] on the serving
//!   thread collects every span close plus explicit annotations
//!   ([`trace_annotate`], [`trace_stage`]) into a per-request
//!   waterfall keyed by a deterministic [`TraceId`]; finished traces
//!   drain through a striped [`TraceSink`] and the worst ones (slow /
//!   deadline-missed / shed) persist in a bounded [`FlightRecorder`].
//! * **Windowed metrics** (v2) — [`window!`] / [`WindowWheel`], a
//!   fixed-slot ring of histogram deltas giving rolling p50/p99/max
//!   over the last N ticks with an O(buckets) merge; cumulative
//!   histogram buckets additionally carry the [`TraceId`] of their
//!   latest traced occupant (exemplar linkage).
//!
//! ## Switching it off
//!
//! One runtime switch: `MP_OBS=0` (also `false`/`off`/`no`) in the
//! environment, or [`set_enabled`]`(false)` from code. While it is off,
//! spans, counters, gauges, histograms, registered windows
//! ([`window!`]) and trace scopes record nothing, each behind one
//! relaxed [`AtomicBool`] load: no `Instant` read, no registry walk.
//! Two things ignore it because their owners read them as functional
//! state, not telemetry: a [`StripedU64`] and a [`WindowWheel`] built
//! with [`WindowWheel::new`] (the serve layer's hit/miss counts and the
//! rolling p99 its shedding policy reads). The `apro_scaling` bench
//! flips the switch to measure the instrumentation overhead
//! head-to-head in one process.
//!
//! The switch never changes any engine *result*: observability only ever
//! reads clocks and bumps atomics; it never participates in a numeric
//! reduction (enforced in spirit by clippy's print lints, which keep
//! ad-hoc `println!` diagnostics out of library crates).
//!
//! ## Span taxonomy
//!
//! Names are dot-separated, `subsystem.verb`-shaped, and documented in
//! DESIGN.md §9 — e.g. `engine.usefulness_all` / `engine.sweep`,
//! `selection.best_set`, `apro.run`, `hidden.search`, `index.build`,
//! `eval.testbed.build`. The repro binary's
//! `--obs-verify` flag fails CI when a registered hot-path span records
//! zero hits (dead instrumentation).
//!
//! ```
//! let snapshot = {
//!     let _outer = mp_obs::span!("doc.outer");
//!     let _inner = mp_obs::span!("doc.inner");
//!     mp_obs::counter!("doc.events").incr();
//!     mp_obs::histogram!("doc.sizes", &[1, 8, 64]).record(5);
//!     mp_obs::snapshot()
//! };
//! // With recording on (the default) the rows are there; under
//! // `MP_OBS=0` the same code records nothing.
//! if mp_obs::is_enabled() {
//!     assert_eq!(snapshot.counters[0].value, 1);
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

mod export;
mod metrics;
mod recorder;
mod registry;
mod span;
mod stripe;
mod trace;
mod window;

pub use metrics::{counter, gauge, histogram, Counter, Gauge, Histogram};
pub use recorder::{FlightReason, FlightRecorder, RecordedFlight};
pub use registry::{
    reset, snapshot, CounterRow, GaugeRow, HistogramRow, Snapshot, SpanRow, WindowRow, SCHEMA,
};
pub use span::SpanGuard;
pub use stripe::{StripedU64, STRIPES};
pub use trace::{
    current_trace_id, trace_annotate, trace_stage, Trace, TraceEvent, TraceEventKind, TraceId,
    TraceScope, TraceSink, MAX_TRACE_EVENTS,
};
pub use window::{window, WindowWheel};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Convenient fixed bucket boundaries for common histogram shapes.
pub mod bounds {
    /// Powers of two up to 4096 — support sizes, chunk sizes, counts.
    pub const POW2: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];
    /// Small linear scale 0–16 — probes per query, retries, iterations.
    pub const SMALL: &[u64] = &[0, 1, 2, 3, 4, 6, 8, 12, 16];
    /// Request latencies in microseconds, 50 µs – 5 s: roughly
    /// geometric (×2–2.5 per step) so both a cache hit and a slow
    /// multi-probe search land in an informative bucket. Used by the
    /// serving layer (`serve.latency_us`) and its p50/p99 readouts.
    pub const LATENCY_US: &[u64] = &[
        50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
        1_000_000, 2_500_000, 5_000_000,
    ];
}

/// The process-wide runtime switch, seeded from `MP_OBS` on first use.
fn flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        #[expect(
            clippy::disallowed_methods,
            reason = "MP_OBS switches recording, and nothing recorded feeds a result"
        )]
        let on = match std::env::var("MP_OBS") {
            Ok(v) => !matches!(v.trim(), "0" | "false" | "off" | "no"),
            Err(_) => true,
        };
        AtomicBool::new(on)
    })
}

/// Whether recording is active: the runtime switch (`MP_OBS`,
/// [`set_enabled`]) is on.
#[inline]
pub fn is_enabled() -> bool {
    flag().load(Ordering::Relaxed)
}

/// Flips the runtime recording switch. Overrides the `MP_OBS`
/// environment seed. Spans that are open across a flip stay
/// internally balanced: a guard only pops what it pushed.
pub fn set_enabled(on: bool) {
    flag().store(on, Ordering::Relaxed);
}

/// Opens a timing span for the rest of the enclosing scope.
///
/// Expands to an RAII [`SpanGuard`]; bind it (`let _span = …`) or it
/// closes immediately. The name must be `&'static str` — span identity
/// is the name, and equal names aggregate into one row.
///
/// ```
/// fn select_step() {
///     let _span = mp_obs::span!("engine.usefulness_all");
///     // … hot work …
/// }
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Resolves a [`Counter`] handle once per call site and returns it.
///
/// The registry lookup (a sharded lock) runs only on the first hit of
/// each call site; afterwards the expansion is one `OnceLock` read and
/// the recording itself one relaxed `fetch_add`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::counter($name))
    }};
}

/// Resolves a [`Gauge`] handle once per call site and returns it.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::gauge($name))
    }};
}

/// Resolves a fixed-bucket [`Histogram`] handle once per call site.
///
/// `$bounds` must be a `&'static [u64]` of strictly increasing upper
/// bucket bounds (see [`bounds`] for common shapes); an extra overflow
/// bucket is added automatically. The first registration of a name
/// fixes its bounds.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $bounds:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::histogram($name, $bounds))
    }};
}

/// Resolves a fixed-slot rolling [`WindowWheel`] handle once per call
/// site.
///
/// `$bounds` follows [`histogram!`]; `$slots` is the number of ticks of
/// history kept. The first registration of a name fixes both.
#[macro_export]
macro_rules! window {
    ($name:expr, $bounds:expr, $slots:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::WindowWheel> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::window($name, $bounds, $slots))
    }};
}
