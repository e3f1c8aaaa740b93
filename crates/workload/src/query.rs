//! Keyword queries.

use mp_text::{tokenize, TermId, Vocabulary};
use serde::{Deserialize, Serialize};

/// A conjunctive keyword query.
///
/// Terms are deduplicated and sorted so structurally equal queries
/// compare equal — the train/test disjointness guarantee keys on this.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Query {
    terms: Vec<TermId>,
}

impl Query {
    /// Builds a query from term ids (deduplicated, sorted).
    ///
    /// # Panics
    /// Panics on an empty term list — a keyword query needs keywords.
    pub fn new(terms: impl IntoIterator<Item = TermId>) -> Self {
        let mut terms: Vec<TermId> = terms.into_iter().collect();
        terms.sort_unstable();
        terms.dedup();
        assert!(!terms.is_empty(), "a query needs at least one term");
        Self { terms }
    }

    /// Parses free text: splits it with [`tokenize()`] and resolves the
    /// tokens against an existing vocabulary. Unknown terms are dropped
    /// (a metasearcher cannot match terms no database has seen);
    /// returns `None` when no known term survives.
    pub fn parse(text: &str, vocab: &Vocabulary) -> Option<Self> {
        let terms: Vec<TermId> = tokenize(text).iter().filter_map(|t| vocab.get(t)).collect();
        if terms.is_empty() {
            None
        } else {
            Some(Self::new(terms))
        }
    }

    /// The query terms (sorted, distinct).
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// A stable 64-bit FNV-1a fingerprint of the (sorted, distinct)
    /// terms. Unlike `Hash`, the value is fixed across processes and
    /// runs — serving caches use it as the query component of their
    /// keys, and structurally equal queries always agree on it.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for t in &self.terms {
            for b in t.0.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Always false (constructor rejects empty queries).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Renders the query as space-joined terms using `vocab`.
    pub fn display(&self, vocab: &Vocabulary) -> String {
        self.terms
            .iter()
            .map(|&t| vocab.term(t).unwrap_or("<unknown>"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn dedups_and_sorts() {
        let q = Query::new([t(3), t(1), t(3)]);
        assert_eq!(q.terms(), &[t(1), t(3)]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn structural_equality() {
        assert_eq!(Query::new([t(1), t(2)]), Query::new([t(2), t(1)]));
    }

    #[test]
    fn fingerprint_follows_structural_equality() {
        let a = Query::new([t(2), t(1), t(2)]);
        let b = Query::new([t(1), t(2)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), Query::new([t(1)]).fingerprint());
        assert_ne!(a.fingerprint(), Query::new([t(1), t(3)]).fingerprint());
    }

    #[test]
    #[should_panic(expected = "at least one term")]
    fn rejects_empty() {
        Query::new([]);
    }

    #[test]
    fn parse_resolves_known_terms() {
        let mut vocab = Vocabulary::new();
        let breast = vocab.intern("breast");
        let cancer = vocab.intern("cancer");
        let q = Query::parse("breast cancer unknownterm", &vocab).unwrap();
        assert_eq!(q.terms(), &[breast, cancer]);
        assert!(Query::parse("only unknowns", &vocab).is_none());
        // Tokens are case-folded and split on punctuation; digits stay
        // inside a token, and a repeated term counts once.
        let q = Query::parse("BREAST, Cancer! breast-cancer", &vocab).unwrap();
        assert_eq!(q.terms(), &[breast, cancer]);
        let h2004 = vocab.intern("h2004");
        let q = Query::parse("Cancer h2004 h 2004", &vocab).unwrap();
        assert_eq!(q.terms(), &[cancer, h2004]);
        assert!(Query::parse("2004 ... h", &vocab).is_none());
    }

    #[test]
    fn display_roundtrip() {
        let mut vocab = Vocabulary::new();
        let a = vocab.intern("breast");
        let b = vocab.intern("cancer");
        let q = Query::new([a, b]);
        assert_eq!(q.display(&vocab), "breast cancer");
    }
}
