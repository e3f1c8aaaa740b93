//! Lowercase alphanumeric tokenization.

/// Splits `text` into lowercase tokens of ASCII-alphanumeric runs.
///
/// Any non-alphanumeric character is a separator; tokens are lowercased.
/// Purely ASCII-oriented — the synthetic corpora this library generates
/// are ASCII, and keyword queries against Hidden-Web search interfaces
/// are overwhelmingly so.
///
/// ```
/// use mp_text::tokenize;
/// assert_eq!(tokenize("Breast-Cancer, 2004!"), vec!["breast", "cancer", "2004"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_ascii_alphanumeric() {
            current.push(ch.to_ascii_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        assert_eq!(
            tokenize("the quick,brown_fox... jumps!"),
            vec!["the", "quick", "brown", "fox", "jumps"]
        );
    }

    #[test]
    fn lowercases() {
        assert_eq!(
            tokenize("PubMed MEDLINEplus"),
            vec!["pubmed", "medlineplus"]
        );
    }

    #[test]
    fn keeps_digits() {
        assert_eq!(tokenize("icde 2004"), vec!["icde", "2004"]);
    }

    #[test]
    fn empty_and_separator_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("  ---  ").is_empty());
    }

    #[test]
    fn non_ascii_is_separator() {
        assert_eq!(tokenize("naïve café"), vec!["na", "ve", "caf"]);
    }

    proptest! {
        #[test]
        fn prop_tokens_are_lowercase_alnum(s in ".*") {
            for t in tokenize(&s) {
                prop_assert!(!t.is_empty());
                prop_assert!(t.chars().all(|c| c.is_ascii_alphanumeric()));
                prop_assert!(t.chars().all(|c| !c.is_ascii_uppercase()));
            }
        }

        #[test]
        fn prop_idempotent_on_joined_tokens(s in ".*") {
            let once = tokenize(&s);
            let joined = once.join(" ");
            prop_assert_eq!(tokenize(&joined), once);
        }
    }
}
