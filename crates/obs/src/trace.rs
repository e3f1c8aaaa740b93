//! Per-request trace contexts: deterministic ids, waterfall events, and
//! the striped sink that collects finished traces.
//!
//! A [`TraceId`] is a plain session-monotonic sequence number allocated
//! by the *owner* of the request (the serve layer's stats core) — there
//! is no ambient clock, thread id, or randomness in the id itself, so a
//! replayed workload re-issues the same ids in the same order (no
//! deterministic crate reads a clock or thread id; see
//! `crates/clippy.toml`).
//!
//! A worker opens a [`TraceScope`] when it dequeues a request; while the
//! scope is active on that thread, every closing [`crate::SpanGuard`]
//! appends a [`TraceEvent`] to the request's waterfall (via
//! [`on_span_close`]), and instrumented call sites can attach
//! annotations ([`trace_annotate`]) or synthetic stages
//! ([`trace_stage`]) — queue wait, dedup joins, probe retries. The scope
//! is thread-local and `!Send`. mp-core runs a request on the thread
//! that serves it, so every span of the request enters its waterfall,
//! in a deterministic order for a given schedule.
//!
//! Finished traces go into a [`TraceSink`]: a fixed set of
//! thread-local-keyed mutex shards merged and sorted by id at drain. A
//! worker pushes into *its own* shard, so concurrent workers never
//! contend on a shared lock — the cold serve path stays free of
//! cross-worker locks (L9).

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use std::cell::RefCell;
use std::marker::PhantomData;

/// Hard cap on events per trace; later events are counted in
/// [`Trace::dropped`] instead of growing the waterfall without bound
/// (a pathological request could close thousands of spans).
pub const MAX_TRACE_EVENTS: usize = 512;

/// A session-monotonic request identifier.
///
/// Plain data: ordering, equality, and the wire value are all the inner
/// `u64`. Id 0 is conventionally "no trace"; allocators start at 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// What kind of waterfall entry a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A closed [`crate::SpanGuard`] (has a duration and a depth).
    Span,
    /// A synthetic stage injected via [`trace_stage`] — e.g. queue wait,
    /// which elapsed before any span could observe it.
    Stage,
    /// A point annotation via [`trace_annotate`] (carries a value).
    Note,
}

impl TraceEventKind {
    /// Stable lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceEventKind::Span => "span",
            TraceEventKind::Stage => "stage",
            TraceEventKind::Note => "note",
        }
    }
}

/// One waterfall entry: a span close, a synthetic stage, or a note.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (span name, stage name, or annotation key).
    pub name: &'static str,
    /// Which kind of entry this is.
    pub kind: TraceEventKind,
    /// Start offset from the request's origin instant, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds (0 for notes).
    pub dur_ns: u64,
    /// Annotation payload (0 for spans and stages).
    pub value: u64,
    /// Nesting depth at close for spans (0 for stages and notes).
    pub depth: u16,
}

/// A finished per-request waterfall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The request's id.
    pub id: TraceId,
    /// Wall nanoseconds from the request's origin to scope finish.
    pub total_ns: u64,
    /// Events that did not fit under [`MAX_TRACE_EVENTS`].
    pub dropped: u32,
    /// The waterfall, in recording order (span *closes*, so children
    /// precede their parents; offsets order the timeline).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace for `id` — used for synthetic flights (e.g. a shed
    /// request that never reached a worker).
    pub fn new(id: TraceId) -> Self {
        Self {
            id,
            total_ns: 0,
            dropped: 0,
            events: Vec::new(),
        }
    }

    /// Appends a note event directly (no active scope required),
    /// respecting [`MAX_TRACE_EVENTS`].
    pub fn annotate(&mut self, name: &'static str, value: u64) {
        if self.events.len() >= MAX_TRACE_EVENTS {
            self.dropped = self.dropped.saturating_add(1);
            return;
        }
        self.events.push(TraceEvent {
            name,
            kind: TraceEventKind::Note,
            start_ns: 0,
            dur_ns: 0,
            value,
            depth: 0,
        });
    }

    /// Zeroes every timing field (`total_ns`, per-event `start_ns` /
    /// `dur_ns`) in place, leaving ids, names, kinds, values, and event
    /// order intact. With timings redacted, a trace is a pure function
    /// of the request schedule — the determinism tests compare redacted
    /// JSON byte-for-byte.
    pub fn redact_timings(&mut self) {
        self.total_ns = 0;
        for e in &mut self.events {
            e.start_ns = 0;
            e.dur_ns = 0;
        }
    }

    /// Whether any event carries `name`.
    pub fn has_event(&self, name: &str) -> bool {
        self.events.iter().any(|e| e.name == name)
    }

    /// First event named `name`, if any.
    pub fn find(&self, name: &str) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.name == name)
    }

    /// Serializes to deterministic JSON (fixed key order; events in
    /// recording order).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        self.write_json(&mut s);
        s
    }

    pub(crate) fn write_json(&self, s: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            s,
            "{{\"id\":{},\"total_ns\":{},\"dropped\":{},\"events\":[",
            self.id.0, self.total_ns, self.dropped
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            crate::export::json_str(s, e.name);
            let _ = write!(
                s,
                ",\"kind\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"value\":{},\"depth\":{}}}",
                e.kind.as_str(),
                e.start_ns,
                e.dur_ns,
                e.value,
                e.depth
            );
        }
        s.push_str("]}");
    }

    /// Renders the waterfall for terminals: one line per event,
    /// indented by span depth, with offsets and durations humanized.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {} total={} events={}{}",
            self.id,
            crate::export::fmt_ns(self.total_ns),
            self.events.len(),
            if self.dropped > 0 {
                format!(" (+{} dropped)", self.dropped)
            } else {
                String::new()
            }
        );
        for e in &self.events {
            let indent = 2 + 2 * usize::from(e.depth);
            match e.kind {
                TraceEventKind::Note => {
                    let _ = writeln!(out, "{:indent$}• {} = {}", "", e.name, e.value);
                }
                _ => {
                    let _ = writeln!(
                        out,
                        "{:indent$}{} [{}] +{} for {}",
                        "",
                        e.name,
                        e.kind.as_str(),
                        crate::export::fmt_ns(e.start_ns),
                        crate::export::fmt_ns(e.dur_ns),
                    );
                }
            }
        }
        out
    }
}

// --- active-trace capture --------------------------------------------

struct ActiveTrace {
    id: TraceId,
    /// The request's origin instant (typically submit time), so queue
    /// wait and span offsets share one timeline.
    origin: Instant,
    events: Vec<TraceEvent>,
    dropped: u32,
}

impl ActiveTrace {
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() >= MAX_TRACE_EVENTS {
            self.dropped = self.dropped.saturating_add(1);
        } else {
            self.events.push(event);
        }
    }
}

thread_local! {
    /// The request currently being traced on this thread, if any.
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Marks the current thread as tracing one request; collects span
/// closes and annotations until [`finish`](TraceScope::finish).
///
/// `!Send` by construction (like [`crate::SpanGuard`]): the waterfall
/// buffer lives in this thread's local storage. At most one scope is
/// active per thread — a nested `begin` returns an inert scope, so the
/// outer request's waterfall is never corrupted.
pub struct TraceScope {
    active: bool,
    _not_send: PhantomData<*const ()>,
}

impl TraceScope {
    /// Begins tracing `id` on the current thread. `origin` anchors the
    /// waterfall's timeline (pass the request's submit instant so queue
    /// wait is representable). Returns an inert scope when recording is
    /// disabled or another scope is already active on this thread.
    pub fn begin(id: TraceId, origin: Instant) -> Self {
        if !crate::is_enabled() {
            return Self {
                active: false,
                _not_send: PhantomData,
            };
        }
        let fresh = ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            if a.is_some() {
                return false;
            }
            *a = Some(ActiveTrace {
                id,
                origin,
                events: Vec::with_capacity(16),
                dropped: 0,
            });
            true
        });
        Self {
            active: fresh,
            _not_send: PhantomData,
        }
    }

    /// Ends the scope, returning the finished [`Trace`] — or `None` if
    /// the scope was inert (recording off, or nested under another).
    pub fn finish(mut self) -> Option<Trace> {
        if !self.active {
            return None;
        }
        self.active = false;
        ACTIVE.with(|a| a.borrow_mut().take()).map(|at| Trace {
            id: at.id,
            total_ns: elapsed_ns(at.origin),
            dropped: at.dropped,
            events: at.events,
        })
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        // A scope abandoned without finish() (early return, panic
        // unwind) must not leak its buffer into the next request.
        if self.active {
            ACTIVE.with(|a| a.borrow_mut().take());
        }
    }
}

fn elapsed_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Attaches a point annotation to the thread's active trace, stamped at
/// the current offset. A no-op when no scope is active (so engine and
/// probe call sites can annotate unconditionally).
pub fn trace_annotate(name: &'static str, value: u64) {
    ACTIVE.with(|a| {
        if let Some(at) = a.borrow_mut().as_mut() {
            let start_ns = elapsed_ns(at.origin);
            at.push(TraceEvent {
                name,
                kind: TraceEventKind::Note,
                start_ns,
                dur_ns: 0,
                value,
                depth: 0,
            });
        }
    });
}

/// Injects a synthetic stage (e.g. queue wait, measured before the
/// worker ever saw the request) into the active trace.
pub fn trace_stage(name: &'static str, start_ns: u64, dur_ns: u64) {
    ACTIVE.with(|a| {
        if let Some(at) = a.borrow_mut().as_mut() {
            at.push(TraceEvent {
                name,
                kind: TraceEventKind::Stage,
                start_ns,
                dur_ns,
                value: 0,
                depth: 0,
            });
        }
    });
}

/// The id of the trace active on this thread, if any. Histograms use
/// this for exemplar linkage: a bucket remembers the last traced
/// request that landed in it.
pub fn current_trace_id() -> Option<TraceId> {
    ACTIVE.with(|a| a.borrow().as_ref().map(|at| at.id))
}

/// Span-close hook, called by [`crate::SpanGuard`]'s drop *after* it
/// releases the span-stack borrow: folds the closed span into the
/// active trace's waterfall.
pub(crate) fn on_span_close(name: &'static str, start: Instant, dur_ns: u64, depth: usize) {
    ACTIVE.with(|a| {
        if let Some(at) = a.borrow_mut().as_mut() {
            let start_ns = u64::try_from(start.saturating_duration_since(at.origin).as_nanos())
                .unwrap_or(u64::MAX);
            at.push(TraceEvent {
                name,
                kind: TraceEventKind::Span,
                start_ns,
                dur_ns,
                value: 0,
                depth: u16::try_from(depth).unwrap_or(u16::MAX),
            });
        }
    });
}

// --- the striped sink ------------------------------------------------

/// Number of sink shards; matches the stripe width used elsewhere.
const SINK_SHARDS: usize = 8;

/// Round-robin assignment of thread-local sink slots (same idiom as
/// [`crate::stripe`] and `mp-hidden`'s probe log).
static SINK_NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SINK_SLOT: usize = SINK_NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SINK_SHARDS;
}

/// Collects finished traces into per-thread-keyed shards, merged and
/// sorted by id at [`drain`](TraceSink::drain).
///
/// Each worker thread pushes into its own shard, so concurrent pushes
/// never contend (the shard mutex is effectively thread-private on the
/// hot path; it exists so drain can safely read from another thread).
/// Shards are bounded: beyond `shard_cap` traces a push is counted in
/// `dropped()` instead of growing memory without bound.
#[derive(Debug)]
pub struct TraceSink {
    shards: Vec<Mutex<Vec<Trace>>>,
    shard_cap: usize,
    dropped: AtomicU64,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// Default per-shard capacity: generous for test workloads, bounded
    /// for long-running servers (drain regularly to keep everything).
    pub const DEFAULT_SHARD_CAP: usize = 4096;

    /// A sink with the default per-shard capacity.
    pub fn new() -> Self {
        Self::with_shard_cap(Self::DEFAULT_SHARD_CAP)
    }

    /// A sink whose shards each hold at most `shard_cap` traces.
    pub fn with_shard_cap(shard_cap: usize) -> Self {
        Self {
            shards: (0..SINK_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            shard_cap,
            dropped: AtomicU64::new(0),
        }
    }

    /// Pushes a finished trace into the calling thread's shard.
    pub fn push(&self, trace: Trace) {
        SINK_SLOT.with(|&slot| {
            let mut shard = self.shards[slot]
                .lock()
                .expect("mp-obs trace-sink shard mutex poisoned");
            if shard.len() >= self.shard_cap {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            } else {
                shard.push(trace);
            }
        });
    }

    /// Removes and returns every collected trace, merged across shards
    /// and sorted by [`TraceId`] — a deterministic order regardless of
    /// which worker served which request.
    pub fn drain(&self) -> Vec<Trace> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let mut shard = shard
                .lock()
                .expect("mp-obs trace-sink shard mutex poisoned");
            all.append(&mut shard);
        }
        all.sort_by_key(|t| t.id);
        all
    }

    /// Total traces currently buffered across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("mp-obs trace-sink shard mutex poisoned")
                    .len()
            })
            .sum()
    }

    /// Whether no traces are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Traces rejected because their shard was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::disallowed_methods,
        reason = "traces begin at a clock read, as the server's do"
    )]

    use super::*;

    #[test]
    fn trace_json_and_redaction() {
        let mut t = Trace::new(TraceId(7));
        t.total_ns = 1234;
        t.events.push(TraceEvent {
            name: "engine.sweep",
            kind: TraceEventKind::Span,
            start_ns: 100,
            dur_ns: 50,
            value: 0,
            depth: 1,
        });
        t.annotate("probe.retry", 2);
        let full = t.to_json();
        assert!(full.contains("\"id\":7"));
        assert!(full.contains("\"start_ns\":100"));
        t.redact_timings();
        let redacted = t.to_json();
        assert!(redacted.contains("\"total_ns\":0"));
        assert!(!redacted.contains("\"start_ns\":100"));
        // Structure survives redaction.
        assert!(t.has_event("engine.sweep"));
        assert_eq!(t.find("probe.retry").map(|e| e.value), Some(2));
    }

    #[test]
    fn annotate_respects_cap() {
        let mut t = Trace::new(TraceId(1));
        for _ in 0..(MAX_TRACE_EVENTS + 3) {
            t.annotate("note", 1);
        }
        assert_eq!(t.events.len(), MAX_TRACE_EVENTS);
        assert_eq!(t.dropped, 3);
    }

    #[test]
    fn sink_drain_sorts_by_id() {
        let sink = TraceSink::new();
        for id in [5u64, 1, 3, 2, 4] {
            sink.push(Trace::new(TraceId(id)));
        }
        assert_eq!(sink.len(), 5);
        let drained = sink.drain();
        let ids: Vec<u64> = drained.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn sink_shard_cap_drops() {
        let sink = TraceSink::with_shard_cap(2);
        for id in 0..5u64 {
            sink.push(Trace::new(TraceId(id)));
        }
        // All pushes from one thread land in one shard.
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
    }

    #[test]
    fn scope_collects_spans_and_notes() {
        crate::set_enabled(true);
        let scope = TraceScope::begin(TraceId(42), Instant::now());
        {
            let _outer = crate::span!("trace_test.outer");
            let _inner = crate::span!("trace_test.inner");
            trace_annotate("trace_test.note", 9);
        }
        trace_stage("trace_test.stage", 0, 10);
        let t = scope.finish().expect("scope was active");
        assert_eq!(t.id, TraceId(42));
        // Inner closes before outer; the note lands between them.
        let names: Vec<&str> = t.events.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec![
                "trace_test.note",
                "trace_test.inner",
                "trace_test.outer",
                "trace_test.stage"
            ]
        );
        let inner = t.find("trace_test.inner").expect("inner recorded");
        assert_eq!(inner.kind, TraceEventKind::Span);
        assert_eq!(inner.depth, 1);
        let outer = t.find("trace_test.outer").expect("outer recorded");
        assert_eq!(outer.depth, 0);
    }

    #[test]
    fn nested_scope_is_inert() {
        crate::set_enabled(true);
        let outer = TraceScope::begin(TraceId(1), Instant::now());
        let inner = TraceScope::begin(TraceId(2), Instant::now());
        assert!(inner.finish().is_none());
        // The outer scope is still live and keeps its id.
        assert_eq!(current_trace_id(), Some(TraceId(1)));
        let t = outer.finish().expect("outer still active");
        assert_eq!(t.id, TraceId(1));
        assert_eq!(current_trace_id(), None);
    }

    #[test]
    fn dropped_scope_clears_thread_state() {
        crate::set_enabled(true);
        {
            let _scope = TraceScope::begin(TraceId(3), Instant::now());
            assert_eq!(current_trace_id(), Some(TraceId(3)));
        }
        assert_eq!(current_trace_id(), None);
    }
}
