//! Report rendering: aligned text tables and JSON experiment records.

use serde::Serialize;

/// A simple aligned text table for experiment output.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A new table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells stringified by the caller).
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let header = fmt_row(&self.headers);
        out.push_str(&header);
        out.push('\n');
        out.push_str(&"-".repeat(header.chars().count()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a probability/correctness with three decimals.
pub fn fmt3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a count-like average with two decimals.
pub fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

/// Serializes any experiment record to pretty JSON (machine-readable
/// companion to the text tables; consumed by `EXPERIMENTS.md` tooling).
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("experiment records serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new("demo", &["method", "score"]);
        t.row(&["baseline".into(), "0.47".into()]);
        t.row(&["rd".into(), "0.65".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5); // title, header, rule, 2 rows
                                    // All data lines share the header width.
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[1].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt3(0.8512), "0.851");
        assert_eq!(fmt2(3.456), "3.46");
    }

    #[test]
    fn json_roundtrip() {
        #[derive(serde::Serialize)]
        struct R {
            x: f64,
        }
        let s = to_json(&R { x: 1.5 });
        assert!(s.contains("1.5"));
    }
}
