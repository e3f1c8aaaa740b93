//! L13 — ambient nondeterminism sources in deterministic-contract
//! crates.
//!
//! `stats`, `core`, `index`, and `hidden` promise bit-identical output
//! as a pure function of (inputs, seed) — the property the equivalence
//! harness and the twin-replay tests pin, and the one PR 6's
//! schedule-dependent shared RNG stream silently broke. The compiler
//! does not know about that contract, so any ambient source sneaks in
//! type-checked: a wall clock read, an environment variable, a hasher
//! seeded per-process, a thread id. Each of those is a hidden input
//! that varies across runs.
//!
//! In files classified `l13_deterministic` ([`crate::context::
//! DETERMINISTIC_CRATES`]' `src/`), outside test code and `use`
//! declarations, the rule flags: `Instant::now`, any `SystemTime` use,
//! `thread::current` (id-keying), `std::env::var`/`var_os`, and
//! `RandomState` (the per-process hasher seed behind the PR 4
//! hash-order bug). Timing belongs in `obs` (feature-gated off the
//! result path); configuration belongs in explicit config structs. A
//! reader that provably cannot affect results carries an `allow(L13)`
//! justification saying exactly why.

use super::diag_at;
use crate::context::Analysis;
use crate::diagnostics::Diagnostic;
use crate::lexer::TokKind;

const HINT: &str = "deterministic crates compute results from (inputs, seed) only: \
                    thread the value in explicitly, move timing behind the obs \
                    feature, or justify with `// mp-lint: allow(L13): <why results \
                    cannot depend on it>`";

pub(crate) fn check(a: &Analysis) -> Vec<Diagnostic> {
    if !a.class.l13_deterministic {
        return Vec::new();
    }
    let code = &a.code;
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident
            || a.is_test[i]
            || a.syntax.use_mask.get(i).copied().unwrap_or(false)
        {
            continue;
        }
        let next_is = |off: usize, s: &str| code.get(i + off).is_some_and(|n| n.text == s);
        let what = match t.text.as_str() {
            // Any SystemTime / RandomState mention is already a design
            // smell here, not just the call.
            "SystemTime" => "`SystemTime` (wall clock)",
            "RandomState" => "`RandomState` (per-process hasher seed)",
            "Instant" if next_is(1, "::") && next_is(2, "now") => "`Instant::now` (wall clock)",
            "thread" if next_is(1, "::") && next_is(2, "current") => {
                "`thread::current` (schedule-dependent identity)"
            }
            "var" | "var_os" if i >= 2 && code[i - 1].text == "::" && code[i - 2].text == "env" => {
                "`env::var` (ambient configuration)"
            }
            _ => continue,
        };
        out.push(diag_at(
            a,
            "L13",
            i,
            format!("{what} in a deterministic-contract crate"),
            HINT,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::context::{Analysis, FileClass};
    use crate::rules::run_rules;

    fn l13_count(src: &str, deterministic: bool) -> usize {
        let class = FileClass {
            l13_deterministic: deterministic,
            ..FileClass::default()
        };
        let a = Analysis::build("f.rs", src, class);
        run_rules(&a).iter().filter(|d| d.rule == "L13").count()
    }

    #[test]
    fn flags_every_ambient_source() {
        assert_eq!(l13_count("fn f() { let t = Instant::now(); }", true), 1);
        assert_eq!(l13_count("fn f() { let t = SystemTime::now(); }", true), 1);
        assert_eq!(
            l13_count("fn f() { let id = std::thread::current().id(); }", true),
            1
        );
        assert_eq!(
            l13_count("fn f() { let v = std::env::var(\"X\"); }", true),
            1
        );
        assert_eq!(
            l13_count("fn f() -> HashMap<u32, u32, RandomState> { todo() }", true),
            1
        );
    }

    #[test]
    fn uses_tests_and_non_deterministic_crates_are_exempt() {
        assert_eq!(l13_count("use std::time::SystemTime;", true), 0);
        assert_eq!(
            l13_count(
                "#[cfg(test)]\nmod t { fn f() { let t = Instant::now(); } }",
                true
            ),
            0
        );
        assert_eq!(l13_count("fn f() { let t = Instant::now(); }", false), 0);
        // `Instant` as a passed-in value is fine — the *source* is now().
        assert_eq!(l13_count("fn f(t: Instant) -> Instant { t }", true), 0);
        // Other `thread::` items (e.g. yield hints) are not identity reads.
        assert_eq!(l13_count("fn f() { std::thread::yield_now(); }", true), 0);
    }

    #[test]
    fn allow_with_justification_suppresses() {
        let src = "// mp-lint: allow(L13): log verbosity cannot change results\n\
                   fn f() { let v = std::env::var(\"MP_LOG_LEVEL\"); }";
        assert_eq!(l13_count(src, true), 0);
    }
}
