//! Golden-fixture tests for mp-lint.
//!
//! Every `tests/fixtures/<name>.rs` file deliberately seeds one rule
//! (or, for `clean.rs`, none) and is paired with a
//! `tests/fixtures/<name>.expected` snapshot of the diagnostics it must
//! produce, one `rule line level` triple per line in report order.
//! Fixtures are linted under a library-crate classification so every
//! rule (including L3) applies; the workspace walker skips the
//! directory, so the violations never reach CI.
//!
//! To regenerate the snapshots after changing a rule or a fixture:
//!
//! ```text
//! MP_LINT_BLESS=1 cargo test -p mp-lint --test fixtures_test
//! ```
//!
//! The self-check test at the bottom lints the real workspace checkout
//! and is the in-tree equivalent of CI's `mp-lint --deny-all` gate.

#![expect(
    clippy::disallowed_methods,
    reason = "MP_LINT_BLESS switches the test to re-blessing the snapshots"
)]

use mp_lint::{lint_source, lint_workspace, Diagnostic, FileClass, Level};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Lints one fixture under the strictest classification: a library
/// crate's non-test source file.
fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let path = fixtures_dir().join(name);
    let source = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let class = FileClass {
        l3_library: true,
        l9_hot_path: true,
        l10_library: true,
        // l11_relaxed_ok stays false: fixtures are held to the strict
        // acquire/release discipline, like unregistered modules.
        ..FileClass::default()
    };
    lint_source(name, &source, class)
}

fn snapshot_line(d: &Diagnostic) -> String {
    let level = match d.level {
        Level::Deny => "deny",
        Level::Warn => "warn",
    };
    format!("{} {} {}", d.rule, d.line, level)
}

fn fixture_names() -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(fixtures_dir())
        .expect("tests/fixtures directory exists in the checkout")
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no fixtures found");
    names
}

#[test]
fn fixtures_match_expected_diagnostics() {
    let bless = std::env::var_os("MP_LINT_BLESS").is_some();
    for name in fixture_names() {
        let actual: Vec<String> = lint_fixture(&name).iter().map(snapshot_line).collect();
        let expected_path = fixtures_dir().join(name.replace(".rs", ".expected"));
        if bless {
            let mut content = actual.join("\n");
            if !content.is_empty() {
                content.push('\n');
            }
            fs::write(&expected_path, content).expect("snapshot file is writable");
            continue;
        }
        let expected_text = fs::read_to_string(&expected_path).unwrap_or_else(|_| {
            panic!(
                "missing snapshot {} — run with MP_LINT_BLESS=1 to create it",
                expected_path.display()
            )
        });
        let expected: Vec<String> = expected_text.lines().map(str::to_string).collect();
        assert_eq!(
            actual, expected,
            "fixture {name} diagnostics drifted from its .expected snapshot \
             (re-bless with MP_LINT_BLESS=1 if the change is intended)"
        );
    }
}

#[test]
fn every_rule_is_seeded_by_some_fixture() {
    // The fixture corpus is the linter's regression net: each rule id
    // must be exercised by at least one deliberate violation, so a rule
    // that silently stops firing turns a snapshot red.
    let mut seeded = BTreeSet::new();
    for name in fixture_names() {
        for d in lint_fixture(&name) {
            seeded.insert(d.rule);
        }
    }
    for rule in [
        "L1", "L3", "L6", "L7", "L9", "L10", "L11", "L12", "A0", "A1",
    ] {
        assert!(seeded.contains(rule), "no fixture seeds rule {rule}");
    }
}

#[test]
fn l12_fixture_names_the_full_lock_chain() {
    // The acceptance contract for the lock graph: the seeded two-lock
    // cycle is found through the one-level call propagation, and the
    // diagnostic names every lock in the cycle, in order.
    let diags = lint_fixture("l12_lock_order.rs");
    let l12: Vec<_> = diags.iter().filter(|d| d.rule == "L12").collect();
    assert_eq!(l12.len(), 1, "exactly one cycle: {diags:?}");
    assert!(
        l12[0]
            .message
            .contains("local::Pair::left → local::Pair::right → local::Pair::left"),
        "full chain named: {}",
        l12[0].message
    );
}

#[test]
fn clean_fixture_is_clean() {
    let diags = lint_fixture("clean.rs");
    assert!(diags.is_empty(), "clean.rs produced {diags:?}");
}

#[test]
fn violating_fixtures_fail_a_deny_all_gate() {
    // The CLI promotes warnings under --deny-all; the same promotion
    // applied to any violating fixture must yield a non-zero error
    // count (the "exits non-zero on fixtures" contract).
    for name in fixture_names() {
        if name == "clean.rs" {
            continue;
        }
        let denies_after_promotion = lint_fixture(&name).len();
        assert!(
            denies_after_promotion > 0,
            "{name} is expected to violate its rule"
        );
    }
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves from the lint crate")
}

#[test]
fn workspace_self_check_is_deny_clean() {
    // The tree this test runs in must itself pass the CI gate: no
    // deny-level findings and no unpromoted warnings anywhere.
    let mut report = lint_workspace(&workspace_root()).expect("workspace walk succeeds");
    report.deny_all();
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — walker regression?",
        report.files_scanned
    );
    assert_eq!(
        report.denies(),
        0,
        "workspace has lint findings:\n{}",
        report.render_human()
    );
}

#[test]
fn every_manifest_inherits_the_workspace_lints() {
    // L2, L4, L8 and L13 are clippy lints (LINT.md, "Retired rules"):
    // their levels live in the root manifest's `[workspace.lints.clippy]`
    // and their paths in `crates/clippy.toml`. A crate that does not
    // opt in escapes them with no failing check, so every one must.
    let root = workspace_root();
    assert!(
        root.join("crates/clippy.toml").is_file(),
        "crates/clippy.toml is missing"
    );
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let manifest = entry
            .expect("crates/ entry is readable")
            .path()
            .join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(
        manifests.len() > 10,
        "suspiciously few manifests found ({})",
        manifests.len()
    );
    for manifest in &manifests {
        let text = fs::read_to_string(manifest).expect("manifest is readable");
        assert!(
            inherits_workspace_lints(&text),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
}

/// True when a manifest has a `[lints]` table holding `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}
