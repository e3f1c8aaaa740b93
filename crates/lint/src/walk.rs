//! Workspace discovery: which `.rs` files get linted and how each is
//! classified.
//!
//! Scope (documented in LINT.md): the umbrella crate (`src/`, `tests/`,
//! `examples/`) and every `crates/<name>/{src,tests,benches}` tree.
//! `vendor/` is excluded — those are offline stand-ins for external
//! crates, not code this workspace owns — as are `target/` and the
//! linter's own intentionally-violating fixtures under
//! `crates/lint/tests/fixtures/`.

use crate::context::{FileClass, LIBRARY_CRATES, RELAXED_COUNTER_MODULES};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One file to lint.
#[derive(Debug, Clone)]
pub struct WorkspaceFile {
    /// Absolute (or root-joined) path for reading.
    pub path: PathBuf,
    /// Workspace-relative path with `/` separators, for diagnostics.
    pub rel: String,
    /// Rule-applicability classification.
    pub class: FileClass,
}

/// Discovers every lintable file under `root` (a workspace checkout).
/// Deterministic order (sorted by relative path).
pub fn discover(root: &Path) -> io::Result<Vec<WorkspaceFile>> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples", "benches"] {
        collect(&root.join(top), root, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for krate in entries {
            if !krate.is_dir() {
                continue;
            }
            for sub in ["src", "tests", "benches"] {
                collect(&krate.join(sub), root, &mut files)?;
            }
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn collect(dir: &Path, root: &Path, out: &mut Vec<WorkspaceFile>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = relative(&path, root);
            if rel.contains("tests/fixtures/") {
                continue; // the linter's intentionally-violating corpus
            }
            let class = classify(&rel);
            out.push(WorkspaceFile { path, rel, class });
        }
    }
    Ok(())
}

fn relative(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Maps a workspace-relative path to the rules that apply to it.
pub fn classify(rel: &str) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    let mut class = FileClass::default();
    match parts.as_slice() {
        ["src", rest @ ..] => {
            class.l3_library = !binary_path(rest);
            class.l10_library = class.l3_library;
        }
        ["tests" | "examples" | "benches", ..] => class.test_file = true,
        ["crates", krate, "src", rest @ ..] => {
            class.l3_library = LIBRARY_CRATES.contains(krate) && !binary_path(rest);
            class.l10_library = class.l3_library;
            // The modules a cold serve request traverses per probe: the
            // PR-6 de-contention audit holds them lock-free by default.
            class.l9_hot_path = (*krate == "serve"
                && matches!(
                    rest,
                    ["server.rs" | "stats.rs" | "cache.rs" | "queue.rs" | "pool.rs"]
                ))
                || (*krate == "hidden" && matches!(rest, ["db.rs" | "unreliable.rs"]));
            class.l11_relaxed_ok = RELAXED_COUNTER_MODULES.contains(&rel);
        }
        ["crates", _, "tests" | "benches", ..] => class.test_file = true,
        _ => {}
    }
    class
}

/// `src/main.rs` and anything under `src/bin/` is a binary entry point,
/// where `expect` on startup errors is the intended UX.
fn binary_path(rest: &[&str]) -> bool {
    rest == ["main.rs"] || rest.first() == Some(&"bin")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        assert!(classify("crates/stats/src/discrete.rs").l3_library);
        assert!(classify("crates/core/src/probing/apro.rs").l3_library);
        assert!(!classify("crates/cli/src/lib.rs").l3_library);
        assert!(!classify("crates/core/src/bin/tool.rs").l3_library);
        assert!(!classify("crates/lint/src/main.rs").l3_library);
        assert!(classify("crates/lint/src/lexer.rs").l3_library);
        assert!(classify("src/lib.rs").l3_library);
        // PR 5 retrieval-kernel files are ordinary library code: fully
        // linted, no exemptions.
        assert!(classify("crates/index/src/derived.rs").l3_library);
        assert!(classify("crates/index/src/scratch.rs").l3_library);
        assert!(classify("crates/index/tests/kernel_equivalence.rs").test_file);
        assert!(classify("crates/bench/benches/retrieval_kernel.rs").test_file);
        assert!(classify("crates/serve/src/server.rs").l3_library);

        // PR 6 shared-nothing audit: the serve-hot-path modules are
        // under L9; everything else (including their tests) is not.
        assert!(classify("crates/serve/src/server.rs").l9_hot_path);
        assert!(classify("crates/serve/src/stats.rs").l9_hot_path);
        assert!(classify("crates/serve/src/cache.rs").l9_hot_path);
        assert!(classify("crates/serve/src/queue.rs").l9_hot_path);
        assert!(classify("crates/serve/src/pool.rs").l9_hot_path);
        assert!(classify("crates/hidden/src/db.rs").l9_hot_path);
        assert!(classify("crates/hidden/src/unreliable.rs").l9_hot_path);
        assert!(!classify("crates/core/src/metasearcher.rs").l9_hot_path);
        assert!(!classify("crates/serve/src/lib.rs").l9_hot_path);
        assert!(!classify("crates/hidden/src/mediator.rs").l9_hot_path);
        assert!(!classify("crates/obs/src/registry.rs").l9_hot_path);
        assert!(!classify("crates/serve/tests/queue_stress.rs").l9_hot_path);

        assert!(classify("tests/end_to_end.rs").test_file);
        assert!(classify("examples/quickstart.rs").test_file);
        assert!(classify("crates/stats/benches/micro.rs").test_file);
        assert!(classify("crates/lint/tests/fixtures_test.rs").test_file);
        assert!(!classify("crates/stats/src/lib.rs").test_file);

        // L10 tracks the shared library-crate list.
        assert!(classify("crates/index/src/index.rs").l10_library);
        assert!(classify("crates/serve/src/cache.rs").l10_library);
        assert!(classify("src/lib.rs").l10_library);
        assert!(!classify("crates/cli/src/main.rs").l10_library);
        assert!(!classify("crates/index/tests/kernel_equivalence.rs").l10_library);

        // L11: only the registered counter-only modules may use Relaxed.
        assert!(classify("crates/obs/src/stripe.rs").l11_relaxed_ok);
        assert!(classify("crates/serve/src/stats.rs").l11_relaxed_ok);
        assert!(!classify("crates/serve/src/server.rs").l11_relaxed_ok);
        assert!(!classify("crates/core/src/engine.rs").l11_relaxed_ok);
    }
}
