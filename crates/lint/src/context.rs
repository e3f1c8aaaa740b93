//! Per-file analysis context shared by every rule: which tokens live in
//! test code, which `impl` block a token belongs to (so `-> Self` can be
//! resolved), and the `mp-lint: allow(...)` suppression comments.

use crate::diagnostics::{Diagnostic, Level};
use crate::lexer::{lex, TokKind, Token};
use crate::rules::rule_by_name;
use crate::syntax::FileSyntax;

/// Crates whose `src/` is held to the library-crate rules (L3
/// no-unwrap, L8 no-println, L10 no-hash-order-iteration). The single
/// source of truth — `walk::classify` and the rules all read this
/// list. The binary-facing crates (`cli`, `bench`) are not on it:
/// `expect` on malformed CLI arguments and printing to stdout *are*
/// their job.
pub const LIBRARY_CRATES: &[&str] = &[
    "stats", "text", "index", "corpus", "hidden", "workload", "core", "eval", "lint", "obs",
    "serve",
];

/// Crates under the deterministic-output contract: every public result
/// must be a pure function of (inputs, seed), bit-identical across
/// thread counts and runs — the property the equivalence harness and
/// the twin-replay tests pin. L13 bans ambient nondeterminism sources
/// (`Instant::now`, `SystemTime`, `thread::current().id()`,
/// `std::env::var`, `RandomState`) in their `src/` outside test code.
/// `obs` is deliberately absent: timing is its whole point, and it is
/// feature-gated off the deterministic result path.
pub const DETERMINISTIC_CRATES: &[&str] = &["core", "hidden", "index", "stats"];

/// Modules registered as counter-only atomic users, where
/// `Ordering::Relaxed` is sound by construction: every atomic in them
/// is an independent monotonic counter / gauge / flag whose value is
/// never used to publish other memory. Everywhere else L11 requires
/// acquire/release pairs with a written invariant. Grown deliberately:
/// registering a module here is the review point.
pub const RELAXED_COUNTER_MODULES: &[&str] = &[
    "crates/hidden/src/db.rs",
    "crates/hidden/src/unreliable.rs",
    "crates/obs/src/lib.rs",
    "crates/obs/src/metrics.rs",
    "crates/obs/src/recorder.rs",
    "crates/obs/src/registry.rs",
    "crates/obs/src/stripe.rs",
    "crates/obs/src/trace.rs",
    "crates/obs/src/window.rs",
    "crates/serve/src/stats.rs",
];

/// How a file is classified by the workspace walker; drives which rules
/// apply (see LINT.md "Scope").
#[derive(Debug, Clone, Default)]
pub struct FileClass {
    /// Whole file is test/bench/example code: L1–L6 and L8 are skipped.
    pub test_file: bool,
    /// File belongs to a library crate: L3 (unwrap/expect) applies.
    pub l3_library: bool,
    /// File is a sanctioned thread-spawn site (mp-eval's fork-join,
    /// mp-serve's worker pool): L4 is skipped.
    pub l4_exempt: bool,
    /// File belongs to a library crate: L8 (no print macros) applies.
    /// Tracks `l3_library` today; kept separate so the two scopes can
    /// diverge without re-classifying the workspace.
    pub l8_library: bool,
    /// File is a serve-hot-path module (the worker-facing serving and
    /// probe layers): L9 applies — every shared-lock primitive must
    /// carry an `allow(L9)` audit note or be removed.
    pub l9_hot_path: bool,
    /// File belongs to a library crate ([`LIBRARY_CRATES`]): L10
    /// (hash-order iteration) applies.
    pub l10_library: bool,
    /// File is a registered counter-only atomics module
    /// ([`RELAXED_COUNTER_MODULES`]): `Ordering::Relaxed` is permitted.
    pub l11_relaxed_ok: bool,
    /// File belongs to a deterministic-contract crate
    /// ([`DETERMINISTIC_CRATES`]): L13 (ambient nondeterminism sources)
    /// applies.
    pub l13_deterministic: bool,
}

/// A parsed `// mp-lint: allow(rule, …): justification` comment. The
/// suppression covers matching diagnostics on its own line and the line
/// directly below (so it can sit on the offending line or above it).
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Canonical rule ids the comment allows (e.g. `["L2"]`).
    pub rules: Vec<&'static str>,
    /// Line the comment starts on.
    pub line: u32,
    /// Column the comment starts at (for A1 stale-suppression
    /// diagnostics, which point at the comment itself).
    pub col: u32,
    /// The comment text, trimmed (used as the A1 snippet).
    pub text: String,
}

/// Everything the rules need to know about one file.
pub struct Analysis {
    /// Code tokens (comments stripped), in source order.
    pub code: Vec<Token>,
    /// Parallel to `code`: token is inside `#[cfg(test)]` / `#[test]`
    /// scope (or the whole file is a test file).
    pub is_test: Vec<bool>,
    /// Parallel to `code`: the innermost `impl` block's type name.
    pub impl_ty: Vec<Option<String>>,
    /// Comment tokens, for L7 and suppression parsing.
    pub comments: Vec<Token>,
    /// Active suppressions.
    pub suppressions: Vec<Suppression>,
    /// Diagnostics produced while building the context itself
    /// (malformed suppression comments).
    pub meta_diags: Vec<Diagnostic>,
    /// How the walker classified this file.
    pub class: FileClass,
    /// Display path used in diagnostics.
    pub path: String,
    /// The syntax-lite structural layer (fn items, use spans,
    /// hash-typed binding names).
    pub syntax: FileSyntax,
    /// The crate this file belongs to (`crates/<name>/…` → `name`, the
    /// umbrella `src/` → `metaprobe`, anything else → `local`). Scopes
    /// the workspace call/lock graphs, which are intra-crate.
    pub crate_name: String,
}

impl Analysis {
    /// Lexes and analyzes one file.
    pub fn build(path: &str, source: &str, class: FileClass) -> Self {
        let toks = lex(source);
        let (code, comments): (Vec<Token>, Vec<Token>) =
            toks.into_iter().partition(|t| !t.is_comment());
        let is_test = if class.test_file {
            vec![true; code.len()]
        } else {
            test_mask(&code)
        };
        let impl_ty = impl_types(&code);
        let mut meta_diags = Vec::new();
        let suppressions = parse_suppressions(path, &comments, &mut meta_diags);
        let syntax = FileSyntax::build(&code, &impl_ty);
        Self {
            code,
            is_test,
            impl_ty,
            comments,
            suppressions,
            meta_diags,
            class,
            path: path.to_string(),
            syntax,
            crate_name: crate_of(path),
        }
    }

    /// True when a diagnostic of `rule` at `line` is covered by a
    /// suppression comment (same line or the line above).
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.rules.contains(&rule) && (s.line == line || s.line + 1 == line))
    }
}

/// Maps a workspace-relative display path to the crate it belongs to.
fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("local").to_string(),
        Some("src" | "tests" | "examples" | "benches") => "metaprobe".to_string(),
        _ => "local".to_string(),
    }
}

/// Marks every code token inside an item annotated `#[test]`,
/// `#[cfg(test)]`, or `#[cfg_attr(…, test)]` — including everything in
/// `mod tests { … }` blocks gated that way.
fn test_mask(code: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        if code[i].text == "#" && i + 1 < code.len() && code[i + 1].text == "[" {
            let close = matching_bracket(code, i + 1);
            let attr = &code[i + 2..close.min(code.len())];
            if is_test_attr(attr) {
                // Skip any further attributes, then mark the annotated
                // item: to the matching `}` of its first brace, or to
                // the `;` for brace-less items.
                let mut j = close + 1;
                while j + 1 < code.len() && code[j].text == "#" && code[j + 1].text == "[" {
                    j = matching_bracket(code, j + 1) + 1;
                }
                let mut k = j;
                while k < code.len() && code[k].text != "{" && code[k].text != ";" {
                    k += 1;
                }
                let end = if k < code.len() && code[k].text == "{" {
                    matching_brace(code, k)
                } else {
                    k
                };
                for slot in mask.iter_mut().take(end.min(code.len() - 1) + 1).skip(i) {
                    *slot = true;
                }
                i = close + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

fn is_test_attr(attr: &[Token]) -> bool {
    let texts: Vec<&str> = attr.iter().map(|t| t.text.as_str()).collect();
    match texts.first() {
        // `#[test]`, with or without trailing tokens (none in practice).
        Some(&"test") => true,
        // `#[cfg(test)]`, `#[cfg(all(test, …))]`, …
        Some(&"cfg") => texts.contains(&"test"),
        // `#[cfg_attr(any(...), test)]` style.
        Some(&"cfg_attr") => texts.contains(&"test"),
        _ => false,
    }
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(code: &[Token], open: usize) -> usize {
    matching(code, open, "[", "]")
}

/// Index of the `}` matching the `{` at `open`.
pub(crate) fn matching_brace(code: &[Token], open: usize) -> usize {
    matching(code, open, "{", "}")
}

fn matching(code: &[Token], open: usize, o: &str, c: &str) -> usize {
    let mut depth = 0usize;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == o {
                depth += 1;
            } else if t.text == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    code.len().saturating_sub(1)
}

/// For every code token, the type name of the innermost enclosing
/// `impl` block (`impl Foo`, `impl<T> Foo<T>`, `impl Trait for Foo`).
fn impl_types(code: &[Token]) -> Vec<Option<String>> {
    let mut out = vec![None; code.len()];
    let mut stack: Vec<(usize, String)> = Vec::new(); // (close index, type)
    let mut i = 0usize;
    while i < code.len() {
        while let Some(&(close, _)) = stack.last() {
            if i > close {
                stack.pop();
            } else {
                break;
            }
        }
        out[i] = stack.last().map(|(_, ty)| ty.clone());
        if code[i].kind == TokKind::Ident && code[i].text == "impl" {
            if let Some((open, ty)) = parse_impl_header(code, i) {
                let close = matching_brace(code, open);
                stack.push((close, ty));
            }
        }
        i += 1;
    }
    out
}

/// From an `impl` keyword, finds the implemented type name and the index
/// of the body's `{`. Returns `None` for `impl Trait`-in-type positions
/// (no body brace before a terminator).
fn parse_impl_header(code: &[Token], impl_idx: usize) -> Option<(usize, String)> {
    let mut j = impl_idx + 1;
    let mut angle = 0i32;
    let mut segment: Vec<&Token> = Vec::new();
    let mut after_for: Option<usize> = None;
    while j < code.len() {
        let t = &code[j];
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            "{" if angle <= 0 => {
                let seg_start = after_for.unwrap_or(0);
                let ty = segment[seg_start.min(segment.len())..]
                    .iter()
                    .find(|t| {
                        t.kind == TokKind::Ident
                            && !matches!(t.text.as_str(), "dyn" | "mut" | "for")
                    })
                    .map(|t| t.text.clone())?;
                return Some((j, ty));
            }
            ";" | "(" | ")" | "," | "=" if angle <= 0 => return None,
            "for" if angle <= 0 => after_for = Some(segment.len()),
            "where" if angle <= 0 => {
                // Type segment ended; scan on for the body brace.
                while j < code.len() && code[j].text != "{" && code[j].text != ";" {
                    j += 1;
                }
                continue;
            }
            _ => {}
        }
        if angle <= 0 {
            segment.push(t);
        }
        j += 1;
    }
    None
}

/// Parses `mp-lint: allow(rule[, rule…]) <justification>` comments.
/// A missing/short justification or an unknown rule name is itself a
/// deny-level diagnostic (rule `A0`): silent, unexplained suppressions
/// are exactly what this linter exists to prevent.
fn parse_suppressions(
    path: &str,
    comments: &[Token],
    meta: &mut Vec<Diagnostic>,
) -> Vec<Suppression> {
    const MARKER: &str = "mp-lint:";
    const MIN_JUSTIFICATION: usize = 8;
    let mut out = Vec::new();
    for c in comments {
        // Only a comment that *begins* with the marker (after the
        // `//`/`//!`/`///` prefix) is a directive; prose that mentions
        // the syntax mid-sentence — e.g. docs describing it — is not.
        let body = c.text.trim_start_matches(['/', '!', '*']).trim_start();
        let Some(rest) = body.strip_prefix(MARKER) else {
            continue;
        };
        let rest = rest.trim_start();
        let mut diag = |msg: String| {
            meta.push(Diagnostic {
                rule: "A0",
                level: Level::Deny,
                path: path.to_string(),
                line: c.line,
                col: c.col,
                message: msg,
                snippet: c.text.trim().to_string(),
                hint: "write `// mp-lint: allow(<rule>): <why this is sound>`".to_string(),
            });
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            diag("malformed mp-lint directive (expected `allow(<rule>)`)".to_string());
            continue;
        };
        let Some(close) = args.find(')') else {
            diag("unterminated `allow(` in mp-lint directive".to_string());
            continue;
        };
        let mut rules = Vec::new();
        let mut ok = true;
        for name in args[..close].split(',') {
            match rule_by_name(name.trim()) {
                Some(info) => rules.push(info.id),
                None => {
                    diag(format!("unknown rule `{}` in allow()", name.trim()));
                    ok = false;
                }
            }
        }
        let justification = args[close + 1..]
            .trim_start_matches([':', '-', '—', ' '])
            .trim();
        if justification.len() < MIN_JUSTIFICATION {
            diag(format!(
                "suppression lacks a justification (≥ {MIN_JUSTIFICATION} chars required after the rule list)"
            ));
            ok = false;
        }
        if ok {
            out.push(Suppression {
                rules,
                line: c.line,
                col: c.col,
                text: c.text.trim().to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> Analysis {
        Analysis::build("mem.rs", src, FileClass::default())
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn live() { x(); }\n#[cfg(test)]\nmod tests {\n fn t() { y(); } }\nfn tail() {}";
        let a = analyze(src);
        let masked: Vec<(&str, bool)> = a
            .code
            .iter()
            .zip(&a.is_test)
            .map(|(t, &m)| (t.text.as_str(), m))
            .collect();
        assert!(masked.iter().any(|&(t, m)| t == "y" && m));
        assert!(masked.iter().any(|&(t, m)| t == "x" && !m));
        assert!(masked.iter().any(|&(t, m)| t == "tail" && !m));
    }

    #[test]
    fn test_attr_fn_is_masked_even_with_more_attrs() {
        let src = "#[test]\n#[ignore]\nfn check() { probe(); }\nfn live() { real(); }";
        let a = analyze(src);
        for (t, &m) in a.code.iter().zip(&a.is_test) {
            if t.text == "probe" {
                assert!(m);
            }
            if t.text == "real" {
                assert!(!m);
            }
        }
    }

    #[test]
    fn impl_type_resolution_handles_generics_and_traits() {
        let src = "impl<T: Clone> Foo<T> { fn a(&self) {} }\n\
                   impl Display for Bar { fn fmt(&self) {} }\n\
                   impl Baz { fn c(&self) {} }";
        let a = analyze(src);
        let ty_at = |name: &str| {
            let i = a.code.iter().position(|t| t.text == name).expect("token");
            a.impl_ty[i].clone()
        };
        assert_eq!(ty_at("a").as_deref(), Some("Foo"));
        assert_eq!(ty_at("fmt").as_deref(), Some("Bar"));
        assert_eq!(ty_at("c").as_deref(), Some("Baz"));
    }

    #[test]
    fn suppression_requires_justification() {
        let good = analyze("// mp-lint: allow(L2): bounded by vocabulary size < 2^32\nlet x = 1;");
        assert_eq!(good.suppressions.len(), 1);
        assert_eq!(good.suppressions[0].rules, vec!["L2"]);
        assert!(good.meta_diags.is_empty());
        assert!(good.suppressed("L2", 1));
        assert!(good.suppressed("L2", 2));
        assert!(!good.suppressed("L2", 3));
        assert!(!good.suppressed("L1", 2));

        let bad = analyze("// mp-lint: allow(L2)\nlet x = 1;");
        assert!(bad.suppressions.is_empty());
        assert_eq!(bad.meta_diags.len(), 1);
        assert_eq!(bad.meta_diags[0].rule, "A0");
    }

    #[test]
    fn suppression_rejects_unknown_rules_and_accepts_names() {
        let named = analyze("// mp-lint: allow(lossy-cast): count bounded by config max\nx;");
        assert_eq!(named.suppressions[0].rules, vec!["L2"]);
        let unknown = analyze("// mp-lint: allow(L99): because I said so\nx;");
        assert!(unknown.suppressions.is_empty());
        assert!(!unknown.meta_diags.is_empty());
    }
}
