//! L1 — float equality.
//!
//! Flags `==` / `!=` in non-test code when either adjacent operand token
//! is textual float evidence: a float literal (`0.0`, `1e-3`, `2f64`),
//! an `f64`/`f32` path segment, or a named float constant (`NAN`,
//! `INFINITY`, `NEG_INFINITY`).
//!
//! Why: every statistical quantity in this workspace (probabilities,
//! relevancies, expected correctness) is an `f64`; exact equality on
//! them silently stops holding after any re-ordering of arithmetic.
//! Comparisons must go through the helpers in `mp_stats::float`
//! (`exact_zero` / `exact_one` for absorbing-state short-circuits,
//! `approx_eq` for tolerances, `total_cmp` for ordering).

use super::{diag_at, is_float_evidence};
use crate::context::Analysis;
use crate::diagnostics::Diagnostic;
use crate::lexer::TokKind;

const HINT: &str = "compare via mp_stats::float (approx_eq / exact_zero / exact_one) \
                    or an explicit total order (f64::total_cmp)";

pub(crate) fn check(a: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in a.code.iter().enumerate() {
        if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") || a.is_test[i] {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &a.code[p]);
        let next = a.code.get(i + 1);
        let float_side = prev.is_some_and(is_float_evidence) || next.is_some_and(is_float_evidence);
        if float_side {
            out.push(diag_at(
                a,
                "L1",
                i,
                format!("float `{}` comparison in non-test code", t.text),
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

    fn l1_lines(src: &str) -> Vec<u32> {
        let a = Analysis::build("f.rs", src, FileClass::default());
        run_rules(&a)
            .into_iter()
            .filter(|d| d.rule == "L1")
            .map(|d| d.line)
            .collect()
    }

    #[test]
    fn flags_literal_comparisons_on_either_side() {
        assert_eq!(l1_lines("fn f(a: f64) -> bool { a == 1.0 }"), vec![1]);
        assert_eq!(l1_lines("fn f(a: f64) -> bool { 0.0 != a }"), vec![1]);
        assert_eq!(
            l1_lines("fn f(x: f64) -> bool { x.mean() == 0.5 }"),
            vec![1]
        );
    }

    #[test]
    fn flags_float_constants_and_paths() {
        assert_eq!(l1_lines("fn f(a: f64) -> bool { a == f64::NAN }"), vec![1]);
        assert_eq!(
            l1_lines("fn f(a: f32) -> bool { a == f32::INFINITY }"),
            vec![1]
        );
    }

    #[test]
    fn ignores_int_comparisons_and_test_code() {
        assert!(l1_lines("fn f(a: u32) -> bool { a == 1 }").is_empty());
        assert!(l1_lines("#[cfg(test)]\nmod t { fn f(a: f64) -> bool { a == 1.0 } }").is_empty());
        assert!(l1_lines("#[test]\nfn t() { assert!(x == 1.0); }").is_empty());
    }

    #[test]
    fn ignores_comments_and_strings() {
        assert!(l1_lines("// a == 1.0 in prose\nfn f() {}").is_empty());
        assert!(l1_lines("fn f() -> &'static str { \"p == 1.0\" }").is_empty());
    }

    #[test]
    fn suppression_with_justification_silences() {
        let src = "fn f(a: f64) -> bool {\n\
                   // mp-lint: allow(L1): exact sentinel propagated unchanged from config\n\
                   a == 1.0\n}";
        assert!(l1_lines(src).is_empty());
    }
}
