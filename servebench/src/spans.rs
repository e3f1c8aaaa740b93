//! In-memory spans recorded by the benchmark around calls into each
//! layer's public functions.
//!
//! A span is `{request id, layer, call, start, end, parent}`. Spans are
//! appended to a [`SpanLog`] while the benchmark runs and written out
//! once at the end ([`SpanLog::write_tsv`]). A span's *self time* is its
//! duration minus the part of its interval that its children cover
//! ([`self_time`]), so overlapping children are never subtracted twice.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The request the span belongs to.
    pub request: u32,
    /// The layer the called function belongs to (e.g. `core.selection`).
    pub layer: &'static str,
    /// The public function called (e.g. `AproSession::apply`).
    pub call: &'static str,
    /// Start, nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the log's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// A count the call reported (matched documents for a search), or 0.
    pub count: u64,
}

impl Span {
    /// The span's wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A handle to an open span, closed with [`SpanLog::close`].
#[must_use = "an open span must be closed"]
#[derive(Debug)]
pub struct Open(usize);

/// An append-only span log with one clock origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; spans opened before it is closed become its children.
    pub fn open(&mut self, request: u32, layer: &'static str, call: &'static str) -> Open {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            layer,
            call,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            count: 0,
        });
        self.open.push(index);
        Open(index)
    }

    /// Closes the innermost open span, which must be `span`.
    pub fn close(&mut self, span: Open) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost first");
        self.spans[span.0].end_ns = end_ns;
    }

    /// Closes `span` and records `count` on it.
    pub fn close_with(&mut self, span: Open, count: u64) {
        self.spans[span.0].count = count;
        self.close(span);
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-aligned with [`Self::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| self_time((s.start_ns, s.end_ns), kids))
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `request layer call start_ns end_ns parent self_ns count`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "request\tlayer\tcall\tstart_ns\tend_ns\tparent\tself_ns\tcount"
        )?;
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{parent}\t{self_ns}\t{}",
                s.request, s.layer, s.call, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

/// Self time of a span over `[start, end)`: its duration minus the
/// length of the union of its children's intervals clipped to it.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_children_are_subtracted() {
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        assert_eq!(self_time((0, 100), &[]), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        // [10, 40) ∪ [30, 60) = [10, 60): 50 ns covered, not 60.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child nested inside another covers nothing new.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Identical children.
        assert_eq!(self_time((0, 100), &[(5, 15), (5, 15), (5, 15)]), 90);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // [90, 120) only covers [90, 100) of the parent.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60), (90, 120)]), 40);
        // A child entirely outside covers nothing.
        assert_eq!(self_time((50, 100), &[(0, 40), (100, 130)]), 50);
        // A child spanning the whole parent leaves no self time.
        assert_eq!(self_time((50, 100), &[(0, 200)]), 0);
    }

    #[test]
    fn log_nests_and_attributes_self_time() {
        let mut log = SpanLog::new();
        let root = log.open(1, "request", "replay");
        let child = log.open(1, "core.rd", "Metasearcher::estimates");
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.close(child);
        let other = log.open(1, "hidden.search", "HiddenWebDatabase::search");
        log.close_with(other, 42);
        log.close(root);
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].count, 42);
        let selfs = log.self_times_ns();
        let kids = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(selfs[0], spans[0].duration_ns() - kids);
        assert_eq!(selfs[1], spans[1].duration_ns());
        assert!(spans[1].duration_ns() >= 2_000_000);
    }
}
