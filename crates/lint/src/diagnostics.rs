//! Diagnostic type and the two output formats: human-readable text and
//! machine-readable JSON (hand-rolled — this crate has no dependencies).

/// Severity of a diagnostic. `Warn` does not affect the exit code
/// unless `--deny-all` promotes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Blocks: non-zero exit.
    Deny,
    /// Reported but non-blocking by default.
    Warn,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Deny => "deny",
            Level::Warn => "warn",
        }
    }
}

/// One finding, pointing at `path:line:col`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Canonical rule id (`L1` … `L12`, `A0`/`A1`).
    pub rule: &'static str,
    /// Severity after any promotion.
    pub level: Level,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong.
    pub message: String,
    /// The offending source fragment.
    pub snippet: String,
    /// How to fix it.
    pub hint: String,
}

/// A full linting run: every diagnostic plus scan statistics.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in file order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Number of deny-level findings.
    pub fn denies(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.level == Level::Deny)
            .count()
    }

    /// Number of warn-level findings.
    pub fn warns(&self) -> usize {
        self.diagnostics.len() - self.denies()
    }

    /// Promotes every warning to deny (`--deny-all`).
    pub fn deny_all(&mut self) {
        for d in &mut self.diagnostics {
            d.level = Level::Deny;
        }
    }

    /// Keeps only diagnostics whose rule id is in `ids`.
    pub fn retain_rules(&mut self, ids: &[&str]) {
        self.diagnostics.retain(|d| ids.contains(&d.rule));
    }

    /// Human-readable rendering, one block per finding plus a summary
    /// line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}:{}:{}: {}[{}]: {}\n",
                d.path,
                d.line,
                d.col,
                d.level.as_str(),
                d.rule,
                d.message
            ));
            if !d.snippet.is_empty() {
                out.push_str(&format!("    | {}\n", d.snippet.trim()));
            }
            if !d.hint.is_empty() {
                out.push_str(&format!("    = hint: {}\n", d.hint));
            }
        }
        out.push_str(&format!(
            "mp-lint: {} file(s) scanned, {} error(s), {} warning(s)\n",
            self.files_scanned,
            self.denies(),
            self.warns()
        ));
        out
    }

    /// JSON rendering (stable shape, see LINT.md "Output formats").
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"version\":3,");
        out.push_str(&format!("\"files_scanned\":{},", self.files_scanned));
        out.push_str(&format!(
            "\"errors\":{},\"warnings\":{},",
            self.denies(),
            self.warns()
        ));
        out.push_str("\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"level\":{},\"path\":{},\"line\":{},\"col\":{},\"message\":{},\"snippet\":{},\"hint\":{}}}",
                json_str(d.rule),
                json_str(d.level.as_str()),
                json_str(&d.path),
                d.line,
                d.col,
                json_str(&d.message),
                json_str(&d.snippet),
                json_str(&d.hint),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            diagnostics: vec![Diagnostic {
                rule: "L1",
                level: Level::Deny,
                path: "crates/x/src/a.rs".to_string(),
                line: 3,
                col: 9,
                message: "float `==`".to_string(),
                snippet: "a == 1.0".to_string(),
                hint: "use approx_eq\twith \"tol\"".to_string(),
            }],
            files_scanned: 2,
        }
    }

    #[test]
    fn human_output_has_location_and_hint() {
        let text = sample().render_human();
        assert!(text.contains("crates/x/src/a.rs:3:9: deny[L1]"));
        assert!(text.contains("= hint:"));
        assert!(text.contains("2 file(s) scanned, 1 error(s), 0 warning(s)"));
    }

    #[test]
    fn json_output_escapes_and_counts() {
        let json = sample().render_json();
        assert!(json.contains("\"version\":3"));
        assert!(json.contains("\"errors\":1"));
        assert!(json.contains("\\t"));
        assert!(json.contains("\\\"tol\\\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn deny_all_promotes_warnings() {
        let mut r = sample();
        r.diagnostics[0].level = Level::Warn;
        assert_eq!(r.denies(), 0);
        r.deny_all();
        assert_eq!(r.denies(), 1);
    }
}
