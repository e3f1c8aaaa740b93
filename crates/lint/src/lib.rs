//! # mp-lint — workspace-native static analysis for `metaprobe`
//!
//! The probabilistic engine's correctness rests on contracts that
//! clippy does not check as this workspace needs them: no float `==`
//! outside tests, comparisons with zero and `INFINITY` included (L1), no
//! `unwrap()` or unjustified `expect()` in library crates (L3),
//! normalization `debug_assert`s in every pmf constructor (L6),
//! issue-tracked TODOs (L7), and the lock, hash-order and atomic-ordering
//! disciplines (L9–L12). This crate is a zero-dependency, token-level
//! analyzer that enforces them across the whole workspace. The
//! contracts clippy does check (lossy casts, thread owners, printing in
//! library code, nondeterminism sources) are configured in the root
//! `Cargo.toml` and `crates/clippy.toml` instead.
//!
//! See `LINT.md` at the workspace root for the rule catalog with
//! rationales, the suppression syntax, and the exact heuristics.
//!
//! ## Entry points
//!
//! * [`lint_workspace`] — walk a checkout and lint everything (the CLI
//!   uses this);
//! * [`lint_source`] — lint one in-memory file (fixtures and tests).

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod context;
pub mod diagnostics;
pub mod graph;
pub mod lexer;
pub mod rules;
pub mod syntax;
pub mod walk;

pub use context::FileClass;
pub use diagnostics::{Diagnostic, Level, Report};
pub use rules::{rule_by_name, RuleInfo, RULES};

use std::io;
use std::path::Path;

/// Lints a single source text under the given classification. `path` is
/// only used to label diagnostics.
pub fn lint_source(path: &str, source: &str, class: FileClass) -> Vec<Diagnostic> {
    let analysis = context::Analysis::build(path, source, class);
    rules::run_rules(&analysis)
}

/// Lints every workspace file under `root` (see [`walk::discover`] for
/// the scope).
///
/// Two passes: every file is analyzed first so the workspace call and
/// lock graphs ([`graph::WorkspaceGraph`]) can be derived over all of
/// them, then the per-file rules, the graph's L12 findings, and the
/// suppression/meta layer are combined per file.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let files = walk::discover(root)?;
    let mut analyses = Vec::with_capacity(files.len());
    for f in &files {
        let source = std::fs::read_to_string(&f.path)?;
        analyses.push(context::Analysis::build(&f.rel, &source, f.class.clone()));
    }
    let graph = graph::WorkspaceGraph::build(&analyses);
    let mut report = Report::default();
    for a in &analyses {
        let mut raw = rules::per_file_rules(a);
        raw.extend(graph.diags_for(&a.path));
        report.diagnostics.extend(rules::finalize(a, raw));
    }
    report.files_scanned = files.len();
    Ok(report)
}
