//! # mp-lint — workspace-native static analysis for `metaprobe`
//!
//! The probabilistic engine's correctness rests on invariants `cargo
//! clippy` cannot express: no float `==` outside tests (L1), no lossy
//! `as` casts on counts and indices (L2), no `unwrap()` in library
//! crates (L3), no thread spawns outside the two sanctioned thread
//! owners (L4), normalization `debug_assert`s in every pmf constructor
//! (L6), and issue-tracked TODOs (L7). This crate is a
//! zero-dependency, token-level analyzer that enforces them across the
//! whole workspace.
//!
//! See `LINT.md` at the workspace root for the rule catalog with
//! rationales, the suppression syntax, and the exact heuristics.
//!
//! ## Entry points
//!
//! * [`lint_workspace`] — walk a checkout and lint everything (the CLI
//!   and the `repro` preflight use this);
//! * [`lint_source`] — lint one in-memory file (fixtures and tests);
//! * [`preflight`] — convenience wrapper returning `Err(report)` text
//!   when the tree has deny-level findings.

#![forbid(unsafe_code)]
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

/// Runs the linter as a blocking preflight (used by `repro` before
/// spending hours regenerating figures): returns the human-rendered
/// report as `Err` when any deny-level diagnostic exists.
///
/// Warnings are promoted (`--deny-all` semantics): a preflight exists
/// to stop drift before an expensive run, so it uses the strict CI
/// configuration.
pub fn preflight(root: &Path) -> Result<(), String> {
    let mut report = match lint_workspace(root) {
        Ok(r) => r,
        // A missing source tree (e.g. an installed binary run outside
        // the checkout) is not a lint failure; skip silently.
        Err(_) => return Ok(()),
    };
    report.deny_all();
    if report.denies() > 0 {
        Err(report.render_human())
    } else {
        Ok(())
    }
}
