//! The rule registry and shared token-walking helpers.
//!
//! Every rule is a pure function from a per-file [`Analysis`] to a list
//! of [`Diagnostic`]s. Rules are token-level heuristics: they trade
//! full type knowledge for zero dependencies and total predictability —
//! each rule's exact trigger conditions are documented in LINT.md so a
//! reader can always answer "why did/didn't this fire?".

mod l10_hash_order;
mod l11_atomic;
mod l1_float_eq;
mod l3_unwrap;
mod l6_pmf_audit;
mod l7_todo;
mod l9_hot_mutex;

use crate::context::Analysis;
use crate::diagnostics::{Diagnostic, Level};
use crate::graph::WorkspaceGraph;
use crate::lexer::{TokKind, Token};

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Canonical id (`L1` … `L12`, `A0`/`A1`; retired ids are not
    /// reused).
    pub id: &'static str,
    /// Human name, also accepted in `allow(...)`.
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Default severity (before `--deny-all`).
    pub default_level: Level,
}

/// Every rule this linter knows, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "L1",
        name: "float-eq",
        summary: "float `==`/`!=` in non-test code",
        default_level: Level::Deny,
    },
    RuleInfo {
        id: "L3",
        name: "unwrap-expect",
        summary: "`unwrap()`/unjustified `expect()` in library crates",
        default_level: Level::Deny,
    },
    RuleInfo {
        id: "L6",
        name: "pmf-audit",
        summary: "distribution constructor without normalization debug_assert",
        default_level: Level::Deny,
    },
    RuleInfo {
        id: "L7",
        name: "todo-ref",
        summary: "TODO/FIXME without an issue reference",
        default_level: Level::Warn,
    },
    RuleInfo {
        id: "L9",
        name: "hot-path-lock",
        summary: "`Mutex`/`RwLock`/`Condvar` in a serve-hot-path module",
        default_level: Level::Deny,
    },
    RuleInfo {
        id: "L10",
        name: "hash-order",
        summary: "iteration over a HashMap/HashSet in library code",
        default_level: Level::Deny,
    },
    RuleInfo {
        id: "L11",
        name: "atomic-ordering",
        summary: "Relaxed outside counter modules / unpaired acquire-release",
        default_level: Level::Deny,
    },
    RuleInfo {
        id: "L12",
        name: "lock-order",
        summary: "lock-acquisition cycle (potential deadlock)",
        default_level: Level::Deny,
    },
    RuleInfo {
        id: "A0",
        name: "suppression",
        summary: "malformed or unjustified mp-lint suppression comment",
        default_level: Level::Deny,
    },
    RuleInfo {
        id: "A1",
        name: "stale-suppression",
        summary: "allow(…) comment matching no finding on its covered lines",
        default_level: Level::Warn,
    },
];

/// Looks a rule up by id (`L3`) or name (`unwrap-expect`), case-insensitive.
pub fn rule_by_name(s: &str) -> Option<&'static RuleInfo> {
    RULES
        .iter()
        .find(|r| r.id.eq_ignore_ascii_case(s) || r.name.eq_ignore_ascii_case(s))
}

pub(crate) fn level_of(id: &str) -> Level {
    RULES
        .iter()
        .find(|r| r.id == id)
        .map(|r| r.default_level)
        .unwrap_or(Level::Deny)
}

/// Runs every per-file rule on one analyzed file, returning the *raw*
/// (pre-suppression) findings. The workspace driver adds graph-derived
/// findings (L12) before handing the combined list to [`finalize`] —
/// A1 staleness must be judged against everything a suppression could
/// legitimately cover.
pub(crate) fn per_file_rules(a: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(l1_float_eq::check(a));
    out.extend(l3_unwrap::check(a));
    out.extend(l6_pmf_audit::check(a));
    out.extend(l7_todo::check(a));
    out.extend(l9_hot_mutex::check(a));
    out.extend(l10_hash_order::check(a));
    out.extend(l11_atomic::check(a));
    out
}

/// Applies suppression comments to the raw findings, flags stale
/// suppressions (A1), appends the context's own meta diagnostics (A0 —
/// neither is suppressible: they complain about the suppressions
/// themselves), and sorts.
pub(crate) fn finalize(a: &Analysis, raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = raw
        .iter()
        .filter(|d| !a.suppressed(d.rule, d.line))
        .cloned()
        .collect();
    for s in &a.suppressions {
        let stale: Vec<&str> = s
            .rules
            .iter()
            .filter(|r| {
                !raw.iter()
                    .any(|d| &d.rule == *r && (d.line == s.line || d.line == s.line + 1))
            })
            .copied()
            .collect();
        if !stale.is_empty() {
            out.push(Diagnostic {
                rule: "A1",
                level: level_of("A1"),
                path: a.path.clone(),
                line: s.line,
                col: s.col,
                message: format!(
                    "stale suppression: allow({}) matches no finding on its covered lines",
                    stale.join(", ")
                ),
                snippet: s.text.clone(),
                hint: "delete the dead allow (or the dead rule names from its list) — \
                       the allow-list is only an audit while every entry is live"
                    .to_string(),
            });
        }
    }
    out.extend(a.meta_diags.iter().cloned());
    out.sort_by_key(|d| (d.line, d.col, d.rule));
    out
}

/// Runs the full pipeline on one analyzed file in isolation: per-file
/// rules, a single-file workspace graph (so L12 sees intra-file
/// cycles), suppression handling, and the meta rules. Fixtures and
/// unit tests use this; `lint_workspace` runs the same pipeline with a
/// whole-workspace graph instead.
pub fn run_rules(a: &Analysis) -> Vec<Diagnostic> {
    let mut raw = per_file_rules(a);
    let graph = WorkspaceGraph::build(std::slice::from_ref(a));
    raw.extend(graph.diags_for(&a.path));
    finalize(a, raw)
}

/// Builds a diagnostic anchored at code token `idx`.
pub(crate) fn diag_at(
    a: &Analysis,
    rule: &'static str,
    idx: usize,
    message: String,
    hint: &str,
) -> Diagnostic {
    let t = &a.code[idx];
    Diagnostic {
        rule,
        level: level_of(rule),
        path: a.path.clone(),
        line: t.line,
        col: t.col,
        message,
        snippet: snippet_around(a, idx),
        hint: hint.to_string(),
    }
}

/// Reconstructs the offending line's neighborhood from tokens on the
/// same source line as `idx` (±4 tokens).
pub(crate) fn snippet_around(a: &Analysis, idx: usize) -> String {
    let line = a.code[idx].line;
    let lo = idx.saturating_sub(4);
    let hi = (idx + 5).min(a.code.len());
    let parts: Vec<&str> = a.code[lo..hi]
        .iter()
        .filter(|t| t.line == line)
        .map(|t| t.text.as_str())
        .collect();
    parts.join(" ")
}

/// True when the token is textual evidence of a float operand.
pub(crate) fn is_float_evidence(t: &Token) -> bool {
    match t.kind {
        TokKind::Float => true,
        TokKind::Ident => matches!(
            t.text.as_str(),
            "NAN" | "INFINITY" | "NEG_INFINITY" | "f64" | "f32"
        ),
        _ => false,
    }
}
