//! L6 — pmf-constructor audit.
//!
//! Every non-test function that *returns a distribution by value* —
//! `Discrete`, `ErrorDistribution`, `PoissonBinomial`, plain or wrapped
//! (`Option<Discrete>`, `Result<Discrete, _>`, `Vec<Discrete>`,
//! `-> Self` inside an `impl` of one of these) — must contain a
//! normalization `debug_assert` in its body: `debug_assert!(…)` /
//! `debug_assert_…!(…)` or a call to the shared
//! `debug_assert_normalized()` helpers in `mp-stats`.
//!
//! Why: the paper's estimates (`E[Cor(DBk)]`, Eq. 5–6) are only
//! meaningful over *normalized* pmfs. A constructor that silently
//! produces mass ≠ 1 corrupts every downstream expectation while still
//! returning perfectly plausible numbers — the exact failure mode a
//! statistical system cannot detect from its outputs. The `debug_assert`
//! runs in tests and in the CI `debug-assertions` job, and vanishes
//! from release builds.
//!
//! Accessors returning references (`-> &Discrete`, `-> &[Discrete]`)
//! are exempt: they hand out an already-audited object.
//!
//! The fn-item structure (name, return-type span, body span) comes
//! from the shared syntax-lite layer ([`crate::syntax::FileSyntax`]) —
//! this rule is purely the *policy* over it.

use super::diag_at;
use crate::context::Analysis;
use crate::diagnostics::Diagnostic;
use crate::lexer::TokKind;
use crate::syntax::FnDecl;

/// Types whose by-value constructors are audited.
pub const DIST_TYPES: &[&str] = &["Discrete", "ErrorDistribution", "PoissonBinomial"];

const HINT: &str = "call .debug_assert_normalized() on the value before returning \
                    (or add an explicit normalization debug_assert!)";

pub(crate) fn check(a: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &a.syntax.fns {
        if a.is_test[f.fn_idx] {
            continue;
        }
        if returns_distribution(a, f) && !body_has_debug_assert(a, f) {
            out.push(diag_at(
                a,
                "L6",
                f.name_idx,
                format!(
                    "`{}` returns a distribution but has no normalization debug_assert",
                    f.name
                ),
                HINT,
            ));
        }
    }
    out
}

fn returns_distribution(a: &Analysis, f: &FnDecl) -> bool {
    let ret = &a.code[f.ret.0..f.ret.1];
    if ret.is_empty() {
        return false;
    }
    // Reference returns hand out audited objects; skip.
    if ret.iter().any(|t| t.text == "&") {
        return false;
    }
    let impl_ty = f.impl_ty.as_deref();
    ret.iter().any(|t| {
        t.kind == TokKind::Ident
            && (DIST_TYPES.contains(&t.text.as_str())
                || (t.text == "Self" && impl_ty.is_some_and(|ty| DIST_TYPES.contains(&ty))))
    })
}

fn body_has_debug_assert(a: &Analysis, f: &FnDecl) -> bool {
    let Some((open, close)) = f.body else {
        return true; // trait signature without body: nothing to audit
    };
    a.code[open..=close.min(a.code.len() - 1)]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text.starts_with("debug_assert"))
}

#[cfg(test)]
mod tests {
    use crate::context::{Analysis, FileClass};
    use crate::rules::run_rules;

    fn l6(src: &str) -> Vec<String> {
        let a = Analysis::build("f.rs", src, FileClass::default());
        run_rules(&a)
            .into_iter()
            .filter(|d| d.rule == "L6")
            .map(|d| d.message)
            .collect()
    }

    #[test]
    fn flags_unaudited_constructors_plain_and_wrapped() {
        assert_eq!(l6("fn mk() -> Discrete { build() }").len(), 1);
        assert_eq!(l6("fn mk() -> Option<Discrete> { build() }").len(), 1);
        assert_eq!(l6("fn mk() -> Result<Discrete, E> { build() }").len(), 1);
        assert_eq!(l6("fn mk() -> Vec<Discrete> { build() }").len(), 1);
    }

    #[test]
    fn accepts_debug_asserted_bodies() {
        assert!(
            l6("fn mk() -> Discrete { let d = build(); d.debug_assert_normalized(); d }")
                .is_empty()
        );
        assert!(l6("fn mk() -> Discrete { let d = build(); debug_assert!(d.ok()); d }").is_empty());
    }

    #[test]
    fn resolves_self_in_dist_impls_only() {
        let flagged = l6("impl Discrete { fn mk() -> Self { Self { p: vec![] } } }");
        assert_eq!(flagged.len(), 1);
        assert!(flagged[0].contains("mk"));
        assert!(l6("impl RdState { fn mk() -> Self { Self {} } }").is_empty());
    }

    #[test]
    fn reference_returns_and_other_types_are_exempt() {
        assert!(l6("impl Holder { fn rds(&self) -> &[Discrete] { &self.rds } }").is_empty());
        assert!(l6("fn mean() -> f64 { 0.5 }").is_empty());
        assert!(l6("#[cfg(test)]\nmod t { fn mk() -> Discrete { build() } }").is_empty());
    }
}
