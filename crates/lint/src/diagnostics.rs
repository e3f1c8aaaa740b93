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
    /// Canonical rule id (`L1` … `L7`, `A0`).
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

impl Diagnostic {
    /// Stable identity content for [`Report::fingerprints`]: everything
    /// that survives unrelated edits (no line/col — a finding that
    /// merely moves keeps its fingerprint).
    fn fingerprint_seed(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.rule, self.path, self.snippet, self.message
        )
    }
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

    /// Stable per-finding fingerprints, parallel to `diagnostics`.
    ///
    /// Each is a 16-hex-digit FNV-1a hash of
    /// `rule|path|snippet|message|occurrence-index`, where the
    /// occurrence index counts identical seeds within the report — so
    /// two verbatim-identical findings in one file stay distinct, and a
    /// finding keeps its fingerprint when unrelated edits shift its
    /// line number. CI diffs these against `lint-baseline.json`: a new
    /// fingerprint is a new finding even if older ones moved around.
    pub fn fingerprints(&self) -> Vec<String> {
        let mut seen: std::collections::BTreeMap<String, u32> = std::collections::BTreeMap::new();
        self.diagnostics
            .iter()
            .map(|d| {
                let seed = d.fingerprint_seed();
                let occ = seen.entry(seed.clone()).or_insert(0);
                let fp = format!("{:016x}", fnv1a64(format!("{seed}|{occ}").as_bytes()));
                *occ += 1;
                fp
            })
            .collect()
    }

    /// JSON rendering (stable shape, see LINT.md "Output formats").
    pub fn render_json(&self) -> String {
        let fps = self.fingerprints();
        let mut out = String::from("{");
        out.push_str("\"version\":2,");
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
                "{{\"rule\":{},\"level\":{},\"path\":{},\"line\":{},\"col\":{},\"message\":{},\"snippet\":{},\"hint\":{},\"fingerprint\":{}}}",
                json_str(d.rule),
                json_str(d.level.as_str()),
                json_str(&d.path),
                d.line,
                d.col,
                json_str(&d.message),
                json_str(&d.snippet),
                json_str(&d.hint),
                json_str(&fps[i]),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// 64-bit FNV-1a — the standard offset basis and prime, dependency-free
/// and stable across platforms (fingerprints are committed in the CI
/// baseline, so the hash must never vary by target).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Extracts every 16-hex-digit fingerprint string from a baseline JSON
/// file's text. Deliberately not a JSON parser: the baseline is written
/// by `render_json` (or is the committed empty report), and scanning
/// for quoted 16-hex tokens is robust to field reordering and hand
/// edits while keeping this crate dependency-free.
pub fn baseline_fingerprints(json: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = json.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j] != b'"' {
                if bytes[j] == b'\\' {
                    j += 1;
                }
                j += 1;
            }
            if j <= bytes.len() {
                let s = &json[start..j.min(json.len())];
                if s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()) {
                    out.push(s.to_string());
                }
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// The command that regenerates the committed baseline from a clean
/// tree.
pub const BASELINE_REBLESS: &str = "cargo run -p mp-lint -- --deny-all --json > lint-baseline.json";

/// Checks a baseline report's header against this scan: `Err` names the
/// drift when the baseline's `files_scanned` is missing or differs from
/// `files_scanned`, so a committed baseline cannot silently describe a
/// different tree. Like [`baseline_fingerprints`], a scan of the text,
/// not a JSON parse.
pub fn check_baseline_header(json: &str, files_scanned: usize) -> Result<(), String> {
    let key = "\"files_scanned\":";
    let recorded = json.find(key).and_then(|at| {
        let rest = json[at + key.len()..].trim_start();
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse::<usize>().ok()
    });
    match recorded {
        Some(n) if n == files_scanned => Ok(()),
        Some(n) => Err(format!(
            "baseline records files_scanned {n}, but this scan covered {files_scanned} files; \
             re-bless it with `{BASELINE_REBLESS}`"
        )),
        None => Err(format!(
            "baseline records no files_scanned; re-bless it with `{BASELINE_REBLESS}`"
        )),
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
        assert!(json.contains("\"errors\":1"));
        assert!(json.contains("\\t"));
        assert!(json.contains("\\\"tol\\\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn fingerprints_are_stable_against_moves_and_distinct_per_occurrence() {
        let mut r = sample();
        let before = r.fingerprints();
        assert_eq!(before.len(), 1);
        assert_eq!(before[0].len(), 16);
        // Moving the finding (line/col churn from unrelated edits)
        // keeps its fingerprint.
        r.diagnostics[0].line = 77;
        r.diagnostics[0].col = 1;
        assert_eq!(r.fingerprints(), before);
        // A verbatim-identical second finding gets a distinct one.
        let twin = r.diagnostics[0].clone();
        r.diagnostics.push(twin);
        let fps = r.fingerprints();
        assert_eq!(fps[0], before[0]);
        assert_ne!(fps[0], fps[1]);
        // …and a different rule changes it.
        r.diagnostics[1].rule = "L2";
        assert_ne!(r.fingerprints()[1], fps[1]);
    }

    #[test]
    fn json_carries_fingerprints_and_baseline_extraction_roundtrips() {
        let r = sample();
        let json = r.render_json();
        assert!(json.contains("\"version\":2"));
        assert!(json.contains("\"fingerprint\":\""));
        assert_eq!(baseline_fingerprints(&json), r.fingerprints());
        // The committed-empty baseline yields no fingerprints.
        let empty = Report::default().render_json();
        assert!(baseline_fingerprints(&empty).is_empty());
    }

    #[test]
    fn baseline_header_must_match_the_scan() {
        let json = sample().render_json();
        assert_eq!(check_baseline_header(&json, 2), Ok(()));
        let drift = check_baseline_header(&json, 3).unwrap_err();
        assert!(drift.contains("files_scanned 2"), "{drift}");
        assert!(drift.contains("covered 3 files"), "{drift}");
        assert!(drift.contains(BASELINE_REBLESS), "{drift}");
        let headless = check_baseline_header("{\"diagnostics\":[]}", 2).unwrap_err();
        assert!(headless.contains("no files_scanned"), "{headless}");
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
