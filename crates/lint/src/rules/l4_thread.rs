//! L4 — thread creation outside the two sanctioned thread owners.
//!
//! The engine is sequential, and results are bit-identical regardless
//! of thread count. That is only auditable if every thread in the
//! workspace comes from one of two places: mp-eval's order-preserving
//! per-query fork-join (`crates/eval/src/par.rs`) and mp-serve's worker
//! pool (`crates/serve/src/pool.rs`). Any direct `thread::spawn` /
//! `thread::scope` / `thread::Builder` elsewhere in non-test code is
//! flagged; those two files are exempt via the walker's file
//! classification.

use super::diag_at;
use crate::context::Analysis;
use crate::diagnostics::Diagnostic;
use crate::lexer::TokKind;

const SPAWNERS: &[&str] = &["spawn", "scope", "Builder"];

const HINT: &str = "keep the engine sequential; per-query fan-out goes through \
                    mp_eval::runner::par_map_queries (order-preserving, \
                    bit-identical to a plain map)";

pub(crate) fn check(a: &Analysis) -> Vec<Diagnostic> {
    if a.class.l4_exempt {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in a.code.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "thread" || a.is_test[i] {
            continue;
        }
        let path_sep = a.code.get(i + 1).is_some_and(|n| n.text == "::");
        let Some(member) = a.code.get(i + 2) else {
            continue;
        };
        if path_sep && SPAWNERS.contains(&member.text.as_str()) {
            out.push(diag_at(
                a,
                "L4",
                i,
                format!(
                    "`thread::{}` outside a sanctioned thread owner",
                    member.text
                ),
                HINT,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::context::{Analysis, FileClass};
    use crate::rules::run_rules;

    fn l4_count(src: &str, exempt: bool) -> usize {
        let class = FileClass {
            l4_exempt: exempt,
            ..FileClass::default()
        };
        let a = Analysis::build("f.rs", src, class);
        run_rules(&a).iter().filter(|d| d.rule == "L4").count()
    }

    #[test]
    fn flags_spawn_scope_and_builder() {
        assert_eq!(l4_count("fn f() { std::thread::spawn(|| {}); }", false), 1);
        assert_eq!(l4_count("fn f() { thread::scope(|s| {}); }", false), 1);
        assert_eq!(l4_count("fn f() { thread::Builder::new(); }", false), 1);
    }

    #[test]
    fn allows_exempt_files_tests_and_non_spawning_thread_apis() {
        assert_eq!(l4_count("fn f() { std::thread::spawn(|| {}); }", true), 0);
        assert_eq!(
            l4_count(
                "#[cfg(test)]\nmod t { fn f() { std::thread::spawn(|| {}); } }",
                false
            ),
            0
        );
        assert_eq!(
            l4_count("fn f() { std::thread::available_parallelism(); }", false),
            0
        );
    }
}
