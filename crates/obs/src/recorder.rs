//! The flight recorder: a bounded ring of the worst request traces.
//!
//! A windowed p99 says the tail got fat; the flight recorder says
//! *which requests* made it fat. It keeps at most `cap` recorded
//! flights — full [`crate::Trace`] waterfalls tagged with why they were
//! kept ([`FlightReason`]): the K slowest completions, every
//! deadline-missed request, every request shed by the SLO shedder,
//! every request rejected at admission, and every request whose
//! computation panicked, subject to the ring bound.
//!
//! Admission when full: deadline-missed, shed, overload and panicked
//! flights are *forced* — they evict the lowest-latency `Slow` flight (or, when no
//! `Slow` remains, the oldest forced flight). A `Slow` offer is
//! admitted only if it is slower than the current slowest-K floor. The
//! floor is mirrored into a relaxed atomic so non-qualifying offers
//! (the common case on the serve hot path once the ring warms up)
//! return without touching the mutex; the mutex itself is taken at most
//! once per *completed* request, never inside the engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::trace::{Trace, TraceId};

/// Why a flight was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightReason {
    /// Completed, but among the slowest seen.
    Slow,
    /// Missed its deadline (never computed).
    DeadlineMissed,
    /// Shed by the SLO shedder: the rolling p99 violated its limit and
    /// the request's deadline slack was below it (never computed).
    Shed,
    /// Rejected at admission (queue full).
    Overload,
    /// Its lookup or computation panicked (answered with an internal
    /// error).
    Panicked,
}

impl FlightReason {
    /// Stable lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightReason::Slow => "slow",
            FlightReason::DeadlineMissed => "deadline_missed",
            FlightReason::Shed => "shed",
            FlightReason::Overload => "overload",
            FlightReason::Panicked => "panicked",
        }
    }

    fn is_forced(self) -> bool {
        !matches!(self, FlightReason::Slow)
    }
}

/// One kept trace plus its admission context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedFlight {
    /// The request's waterfall.
    pub trace: Trace,
    /// End-to-end latency in microseconds (queue wait for deadline-missed
    /// and shed flights, 0 for overload flights).
    pub latency_us: u64,
    /// Why it was kept.
    pub reason: FlightReason,
    /// Admission order (monotone per recorder) — the eviction tiebreak.
    pub seq: u64,
}

/// A bounded ring of the worst request traces.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    /// Fast-path admission hint: the smallest `Slow` latency currently
    /// kept, valid only once the ring is full. Monotone while full
    /// (evictions only remove the minimum), so a stale read can only
    /// under-reject — it never loses a qualifying flight.
    slow_floor_us: AtomicU64,
    seq: AtomicU64,
    ring: Mutex<Vec<RecordedFlight>>,
}

impl FlightRecorder {
    /// A recorder keeping at most `cap` flights (0 disables recording).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            slow_floor_us: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            ring: Mutex::new(Vec::new()),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Offers a finished trace. Forced reasons (every one but `Slow`)
    /// are always admitted while capacity allows it; `Slow` offers are
    /// kept only while they rank among the slowest on record.
    pub fn offer(&self, trace: Trace, latency_us: u64, reason: FlightReason) {
        if self.cap == 0 {
            return;
        }
        if !reason.is_forced() && latency_us < self.slow_floor_us.load(Ordering::Relaxed) {
            return;
        }
        let mut ring = self
            .ring
            .lock()
            .expect("mp-obs flight-recorder mutex poisoned");
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        ring.push(RecordedFlight {
            trace,
            latency_us,
            reason,
            seq,
        });
        if ring.len() > self.cap {
            // Evict the least interesting flight: the lowest-latency
            // Slow one, else (all forced) the oldest.
            let victim = ring
                .iter()
                .enumerate()
                .filter(|(_, f)| f.reason == FlightReason::Slow)
                .min_by_key(|(_, f)| (f.latency_us, f.seq))
                .or_else(|| ring.iter().enumerate().min_by_key(|(_, f)| f.seq))
                .map(|(i, _)| i);
            if let Some(i) = victim {
                ring.swap_remove(i);
            }
        }
        if ring.len() >= self.cap {
            // Ring is full: refresh the admission floor. No Slow flight
            // left means nothing a Slow offer could evict — floor MAX.
            let floor = ring
                .iter()
                .filter(|f| f.reason == FlightReason::Slow)
                .map(|f| f.latency_us)
                .min()
                .unwrap_or(u64::MAX);
            self.slow_floor_us.store(floor, Ordering::Relaxed);
        }
    }

    /// Flights currently kept, in stable report order: forced flights
    /// first (deadline-missed, shed, overload), then `Slow` by descending
    /// latency; admission order breaks ties. Within one run of a
    /// deterministic workload the same flights come back in the same
    /// order.
    pub fn flights(&self) -> Vec<RecordedFlight> {
        let mut out = self
            .ring
            .lock()
            .expect("mp-obs flight-recorder mutex poisoned")
            .clone();
        out.sort_by(|a, b| {
            rank(a.reason)
                .cmp(&rank(b.reason))
                .then(b.latency_us.cmp(&a.latency_us))
                .then(a.seq.cmp(&b.seq))
        });
        out
    }

    /// Ids of every kept flight, in report order.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        self.flights().iter().map(|f| f.trace.id).collect()
    }

    /// Number of flights currently kept.
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .expect("mp-obs flight-recorder mutex poisoned")
            .len()
    }

    /// Whether no flights are kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards every kept flight and rewinds the admission floor.
    pub fn clear(&self) {
        self.ring
            .lock()
            .expect("mp-obs flight-recorder mutex poisoned")
            .clear();
        self.slow_floor_us.store(0, Ordering::Relaxed);
    }

    /// Serializes every kept flight (report order) as stable JSON under
    /// schema `mp-obs-trace/1`. Fixed key order; byte-identical for
    /// identical recorder contents.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(1024);
        s.push_str("{\"schema\":\"mp-obs-trace/1\",\"flights\":[");
        for (i, f) in self.flights().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"reason\":\"{}\",\"latency_us\":{},\"trace\":",
                f.reason.as_str(),
                f.latency_us
            );
            f.trace.write_json(&mut s);
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// Renders every kept flight for terminals: a header line per
    /// flight followed by its waterfall.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let flights = self.flights();
        let mut out = String::new();
        let _ = writeln!(out, "flight recorder: {} flight(s)", flights.len());
        for f in &flights {
            let _ = writeln!(
                out,
                "[{}] latency={}µs {}",
                f.reason.as_str(),
                f.latency_us,
                f.trace.id
            );
            out.push_str(&f.trace.render());
        }
        out
    }
}

fn rank(reason: FlightReason) -> u8 {
    match reason {
        FlightReason::DeadlineMissed => 0,
        FlightReason::Shed => 1,
        FlightReason::Overload => 2,
        FlightReason::Panicked => 3,
        FlightReason::Slow => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flight(rec: &FlightRecorder, id: u64, latency_us: u64, reason: FlightReason) {
        rec.offer(Trace::new(TraceId(id)), latency_us, reason);
    }

    #[test]
    fn keeps_k_slowest() {
        let rec = FlightRecorder::new(3);
        for (id, lat) in [(1, 10), (2, 50), (3, 30), (4, 40), (5, 5), (6, 60)] {
            flight(&rec, id, lat, FlightReason::Slow);
        }
        let kept: Vec<u64> = rec.flights().iter().map(|f| f.latency_us).collect();
        assert_eq!(kept, vec![60, 50, 40]);
    }

    #[test]
    fn fast_path_floor_rejects_without_degrading() {
        let rec = FlightRecorder::new(2);
        flight(&rec, 1, 100, FlightReason::Slow);
        flight(&rec, 2, 200, FlightReason::Slow);
        // Floor is now 100; these never qualify.
        flight(&rec, 3, 10, FlightReason::Slow);
        flight(&rec, 4, 99, FlightReason::Slow);
        // But a slower one still gets in.
        flight(&rec, 5, 150, FlightReason::Slow);
        let kept: Vec<u64> = rec.flights().iter().map(|f| f.latency_us).collect();
        assert_eq!(kept, vec![200, 150]);
    }

    #[test]
    fn forced_reasons_evict_slow() {
        let rec = FlightRecorder::new(2);
        flight(&rec, 1, 100, FlightReason::Slow);
        flight(&rec, 2, 200, FlightReason::Slow);
        flight(&rec, 3, 0, FlightReason::DeadlineMissed);
        let flights = rec.flights();
        assert_eq!(flights.len(), 2);
        assert_eq!(flights[0].reason, FlightReason::DeadlineMissed);
        assert_eq!(flights[1].latency_us, 200);
        assert!(FlightReason::DeadlineMissed.is_forced());
        assert!(FlightReason::Shed.is_forced());
        assert!(FlightReason::Overload.is_forced());
        assert!(FlightReason::Panicked.is_forced());
        assert!(!FlightReason::Slow.is_forced());
    }

    #[test]
    fn all_forced_evicts_oldest() {
        let rec = FlightRecorder::new(2);
        flight(&rec, 1, 0, FlightReason::Shed);
        flight(&rec, 2, 0, FlightReason::Shed);
        flight(&rec, 3, 0, FlightReason::DeadlineMissed);
        let ids: Vec<u64> = rec.flights().iter().map(|f| f.trace.id.0).collect();
        assert_eq!(ids, vec![3, 2]);
    }

    #[test]
    fn json_is_schema_tagged_and_stable() {
        let rec = FlightRecorder::new(4);
        flight(&rec, 7, 42, FlightReason::Slow);
        flight(&rec, 8, 0, FlightReason::Shed);
        let a = rec.to_json();
        let b = rec.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"mp-obs-trace/1\""));
        assert!(a.contains("\"reason\":\"shed\""));
        assert!(a.contains("\"latency_us\":42"));
        assert!(rec.render().contains("flight recorder: 2 flight(s)"));
        assert_eq!(rec.trace_ids().len(), 2);
    }

    #[test]
    fn zero_cap_disables() {
        let rec = FlightRecorder::new(0);
        flight(&rec, 1, 100, FlightReason::DeadlineMissed);
        assert!(rec.is_empty());
        assert_eq!(rec.capacity(), 0);
    }

    #[test]
    fn clear_reopens_admission() {
        let rec = FlightRecorder::new(1);
        flight(&rec, 1, 100, FlightReason::Slow);
        flight(&rec, 2, 10, FlightReason::Slow); // below floor, rejected
        assert_eq!(rec.len(), 1);
        rec.clear();
        flight(&rec, 3, 10, FlightReason::Slow);
        assert_eq!(rec.trace_ids(), vec![TraceId(3)]);
    }
}
