//! Exporters over a [`Snapshot`]: stable JSON, a human span tree, and a
//! flame-style self-time table.
//!
//! All three are pure functions of the snapshot — no registry access,
//! no clocks — so they render a snapshot taken with recording off the
//! same way (its values stay 0). JSON key order is fixed and every
//! row vector is pre-sorted by [`crate::snapshot`], making consecutive
//! exports of the same state byte-identical: the property the CI
//! artifact diffing and the snapshot-stability test rely on.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::registry::{Snapshot, SCHEMA};

impl Snapshot {
    /// Serializes to deterministic JSON (fixed key order, sorted rows).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"schema\":");
        json_str(&mut s, SCHEMA);
        let _ = write!(s, ",\"enabled\":{}", self.enabled);
        s.push_str(",\"spans\":[");
        for (i, r) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            json_str(&mut s, &r.name);
            let _ = write!(
                s,
                ",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"max_ns\":{}}}",
                r.count, r.total_ns, r.self_ns, r.max_ns
            );
        }
        s.push_str("],\"counters\":[");
        for (i, r) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            json_str(&mut s, &r.name);
            let _ = write!(s, ",\"value\":{}}}", r.value);
        }
        s.push_str("],\"gauges\":[");
        for (i, r) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            json_str(&mut s, &r.name);
            let _ = write!(s, ",\"value\":{}}}", r.value);
        }
        s.push_str("],\"histograms\":[");
        for (i, r) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            json_str(&mut s, &r.name);
            s.push_str(",\"bounds\":");
            json_u64s(&mut s, &r.bounds);
            s.push_str(",\"buckets\":");
            json_u64s(&mut s, &r.buckets);
            let _ = write!(
                s,
                ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{}",
                r.count, r.sum, r.min, r.max
            );
            s.push_str(",\"exemplars\":");
            json_u64s(&mut s, &r.exemplars);
            s.push('}');
        }
        s.push_str("],\"edges\":[");
        for (i, (p, c)) in self.edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('[');
            json_str(&mut s, p);
            s.push(',');
            json_str(&mut s, c);
            s.push(']');
        }
        s.push_str("]}");
        s
    }

    /// Renders the span call tree plus metric tables, for terminals.
    ///
    /// Roots are spans never observed as a child. A span reachable under
    /// several parents is printed under each; traversal is depth-capped
    /// so malformed edge sets cannot loop.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "mp-obs snapshot ({SCHEMA}, recording {})",
            if self.enabled { "on" } else { "off" }
        );
        let children: BTreeMap<&str, Vec<&str>> =
            self.edges.iter().fold(BTreeMap::new(), |mut m, (p, c)| {
                m.entry(p.as_str()).or_default().push(c.as_str());
                m
            });
        let as_child: BTreeSet<&str> = self.edges.iter().map(|(_, c)| c.as_str()).collect();
        if self.spans.is_empty() {
            out.push_str("  (no spans recorded)\n");
        } else {
            out.push_str("spans:\n");
            for r in &self.spans {
                if !as_child.contains(r.name.as_str()) {
                    self.tree_line(&mut out, &children, &r.name, 1, 8);
                }
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for r in &self.counters {
                let _ = writeln!(out, "  {:<40} {}", r.name, r.value);
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for r in &self.gauges {
                let _ = writeln!(out, "  {:<40} {}", r.name, r.value);
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for r in &self.histograms {
                let mean = if r.count == 0 {
                    0.0
                } else {
                    r.sum as f64 / r.count as f64
                };
                let _ = writeln!(
                    out,
                    "  {:<40} count={} min={} mean={:.1} max={} buckets={:?}",
                    r.name, r.count, r.min, mean, r.max, r.buckets
                );
            }
        }
        out
    }

    fn tree_line(
        &self,
        out: &mut String,
        children: &BTreeMap<&str, Vec<&str>>,
        name: &str,
        depth: usize,
        max_depth: usize,
    ) {
        let Some(row) = self.spans.iter().find(|r| r.name == name) else {
            return;
        };
        let _ = writeln!(
            out,
            "{:indent$}{:<width$} count={:<7} total={:<11} self={:<11} max={}",
            "",
            row.name,
            row.count,
            fmt_ns(row.total_ns),
            fmt_ns(row.self_ns),
            fmt_ns(row.max_ns),
            indent = depth * 2,
            width = 40usize.saturating_sub(depth * 2),
        );
        if depth >= max_depth {
            return;
        }
        if let Some(kids) = children.get(name) {
            for kid in kids {
                self.tree_line(out, children, kid, depth + 1, max_depth);
            }
        }
    }

    /// Renders a flame-style table: spans sorted by self time, worst
    /// first, with each span's share of the summed self time.
    pub fn render_flame(&self) -> String {
        let mut rows: Vec<_> = self.spans.iter().collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
        let grand: u64 = rows.iter().map(|r| r.self_ns).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<40} {:>8} {:>12} {:>12} {:>7}",
            "span", "count", "self", "total", "self%"
        );
        for r in rows {
            let pct = if grand == 0 {
                0.0
            } else {
                100.0 * r.self_ns as f64 / grand as f64
            };
            let _ = writeln!(
                out,
                "{:<40} {:>8} {:>12} {:>12} {:>6.1}%",
                r.name,
                r.count,
                fmt_ns(r.self_ns),
                fmt_ns(r.total_ns),
                pct
            );
        }
        out
    }

    /// Returns the subset of `names` that either never registered or
    /// registered but closed zero times — the dead-instrumentation
    /// guard behind `repro --obs-verify`.
    pub fn missing_or_zero(&self, names: &[&str]) -> Vec<String> {
        names
            .iter()
            .filter(|&&want| !self.spans.iter().any(|r| r.name == want && r.count > 0))
            .map(|&s| s.to_string())
            .collect()
    }
}

/// Appends `v` as a JSON string literal (quotes, backslashes, and
/// control characters escaped — span names are ASCII identifiers, so
/// this short list is exhaustive in practice).
pub(crate) fn json_str(out: &mut String, v: &str) {
    out.push('"');
    for ch in v.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

pub(crate) fn json_u64s(out: &mut String, vs: &[u64]) {
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// Formats nanoseconds with a human unit (ns/µs/ms/s).
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}
