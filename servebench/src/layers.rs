//! The per-layer table: spans grouped by layer into call counts,
//! per-call self-time percentiles, and shares of replayed wall time.

use std::collections::BTreeMap;

use crate::quantile::{self, Percentile};
use crate::replay::ROOT;
use crate::spans::SpanLog;

/// The layers the replay spans, in table order.
pub const LAYERS: [&str; 6] = [
    "core.rd",
    "core.selection",
    "core.policy",
    "hidden.probe",
    "hidden.search",
    "core.fusion",
];

/// One layer's row.
#[derive(Debug, Clone, Default)]
pub struct LayerRow {
    /// Calls recorded.
    pub calls: usize,
    /// Sum of the counts the calls reported.
    pub count_sum: u64,
    /// Per-call self times, µs, ascending.
    pub self_us: Vec<f64>,
    /// Total self time, ns.
    pub self_total_ns: u64,
}

impl LayerRow {
    /// Median per-call self time, µs.
    pub fn p50(&self) -> Option<Percentile> {
        quantile::median(&self.self_us)
    }

    /// Tail (p99 or the highest percentile with ten beyond) self time, µs.
    pub fn p99(&self) -> Option<Percentile> {
        quantile::tail(&self.self_us, 99.0)
    }
}

/// The replay's layer table.
#[derive(Debug, Clone, Default)]
pub struct LayerTable {
    /// Rows by layer name.
    pub rows: BTreeMap<&'static str, LayerRow>,
    /// Replayed requests (root spans).
    pub requests: usize,
    /// Sum of root-span durations, ns: the replayed wall time.
    pub wall_ns: u64,
    /// Sum of root-span self times, ns: time no layer span covers.
    pub unattributed_ns: u64,
    /// Root-span duration per request id, ns.
    pub request_wall_ns: BTreeMap<u32, u64>,
}

impl LayerTable {
    /// Builds the table from every span in `log` under a replay root.
    pub fn from_log(log: &SpanLog) -> Self {
        let spans = log.spans();
        let selfs = log.self_times_ns();
        let mut table = LayerTable::default();
        for (i, s) in spans.iter().enumerate() {
            if s.layer == ROOT {
                table.requests += 1;
                table.wall_ns += s.duration_ns();
                table.unattributed_ns += selfs[i];
                table.request_wall_ns.insert(s.request, s.duration_ns());
                continue;
            }
            let under_root = s.parent.is_some_and(|p| spans[p].layer == ROOT);
            if !under_root {
                continue;
            }
            let row = table.rows.entry(s.layer).or_default();
            row.calls += 1;
            row.count_sum += s.count;
            row.self_us.push(selfs[i] as f64 / 1e3);
            row.self_total_ns += selfs[i];
        }
        for row in table.rows.values_mut() {
            row.self_us.sort_by(f64::total_cmp);
        }
        table
    }

    /// A layer's row (empty when the layer was never called).
    pub fn row(&self, layer: &str) -> LayerRow {
        self.rows.get(layer).cloned().unwrap_or_default()
    }

    /// A layer's share of the replayed wall time.
    pub fn share(&self, layer: &str) -> f64 {
        ratio(self.row(layer).self_total_ns as f64, self.wall_ns as f64)
    }

    /// Calls per replayed request.
    pub fn calls_per_query(&self, layer: &str) -> f64 {
        ratio(self.row(layer).calls as f64, self.requests as f64)
    }

    /// The layer with the largest share.
    pub fn dominant(&self) -> Option<&'static str> {
        LAYERS
            .iter()
            .copied()
            .max_by(|a, b| self.share(a).total_cmp(&self.share(b)))
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_unattributed_time_sum_to_the_wall_time() {
        let mut log = SpanLog::new();
        for id in 0..3 {
            let root = log.open(id, ROOT, "replay");
            for layer in ["core.rd", "core.selection", "hidden.search"] {
                let s = log.open(id, layer, "call");
                std::hint::black_box((0..1000).sum::<u64>());
                log.close_with(s, 7);
            }
            log.close(root);
        }
        let outside = log.open(9, "serve", "Client::submit");
        log.close(outside);
        let t = LayerTable::from_log(&log);
        assert_eq!(t.requests, 3);
        assert_eq!(t.row("core.rd").calls, 3);
        assert_eq!(t.row("hidden.search").count_sum, 21);
        assert_eq!(
            t.row("serve").calls,
            0,
            "only spans under a replay root count"
        );
        assert_eq!(t.calls_per_query("core.selection"), 1.0);
        let total: f64 = LAYERS.iter().map(|l| t.share(l)).sum::<f64>()
            + ratio(t.unattributed_ns as f64, t.wall_ns as f64);
        assert!((total - 1.0).abs() < 1e-9, "{total}");
        assert_eq!(t.share("core.fusion"), 0.0);
    }
}
