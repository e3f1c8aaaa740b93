//! Documents as bags of interned terms.

use mp_text::TermId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A document represented as a term-frequency bag.
///
/// Term ids refer to a [`mp_text::Vocabulary`] shared across the
/// corpus (the corpus generator and indexer agree on one interner per
/// scenario).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Document {
    /// Term frequencies, sorted by term id (BTreeMap keeps iteration
    /// deterministic, which keeps index builds and probe responses
    /// deterministic).
    tf: BTreeMap<TermId, u32>,
    len: u32,
}

impl Document {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a document from pre-interned term occurrences.
    pub fn from_terms(terms: impl IntoIterator<Item = TermId>) -> Self {
        let mut doc = Self::new();
        for t in terms {
            doc.add_term(t, 1);
        }
        doc
    }

    /// Adds `count` occurrences of `term`.
    pub fn add_term(&mut self, term: TermId, count: u32) {
        if count == 0 {
            return;
        }
        *self.tf.entry(term).or_insert(0) += count;
        self.len += count;
    }

    /// Frequency of `term` in this document (0 if absent).
    pub fn tf(&self, term: TermId) -> u32 {
        self.tf.get(&term).copied().unwrap_or(0)
    }

    /// True if the document contains the term at least once.
    pub fn contains(&self, term: TermId) -> bool {
        self.tf.contains_key(&term)
    }

    /// True if the document contains *all* of the given terms — the
    /// boolean-AND matching predicate.
    pub fn matches_all(&self, terms: &[TermId]) -> bool {
        terms.iter().all(|t| self.contains(*t))
    }

    /// Total number of term occurrences (document length).
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when the document has no terms.
    pub fn is_empty(&self) -> bool {
        self.tf.is_empty()
    }

    /// Number of distinct terms.
    pub fn distinct_terms(&self) -> usize {
        self.tf.len()
    }

    /// Iterates `(term, tf)` pairs in term-id order.
    pub fn terms(&self) -> impl Iterator<Item = (TermId, u32)> + '_ {
        self.tf.iter().map(|(&t, &c)| (t, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn accumulates_frequencies() {
        let doc = Document::from_terms([t(1), t(2), t(1), t(1)]);
        assert_eq!(doc.tf(t(1)), 3);
        assert_eq!(doc.tf(t(2)), 1);
        assert_eq!(doc.tf(t(3)), 0);
        assert_eq!(doc.len(), 4);
        assert_eq!(doc.distinct_terms(), 2);
    }

    #[test]
    fn matches_all_semantics() {
        let doc = Document::from_terms([t(1), t(2)]);
        assert!(doc.matches_all(&[t(1)]));
        assert!(doc.matches_all(&[t(1), t(2)]));
        assert!(!doc.matches_all(&[t(1), t(3)]));
        assert!(doc.matches_all(&[])); // vacuous truth
    }

    #[test]
    fn zero_count_is_noop() {
        let mut doc = Document::new();
        doc.add_term(t(5), 0);
        assert!(doc.is_empty());
        assert_eq!(doc.len(), 0);
    }

    proptest! {
        #[test]
        fn prop_len_is_sum_of_tfs(ids in proptest::collection::vec(0u32..50, 0..100)) {
            let doc = Document::from_terms(ids.iter().map(|&i| t(i)));
            let sum: u32 = doc.terms().map(|(_, c)| c).sum();
            prop_assert_eq!(doc.len(), sum);
            prop_assert_eq!(doc.len() as usize, ids.len());
        }

        #[test]
        fn prop_terms_sorted(ids in proptest::collection::vec(0u32..50, 0..100)) {
            let doc = Document::from_terms(ids.iter().map(|&i| t(i)));
            let terms: Vec<TermId> = doc.terms().map(|(t, _)| t).collect();
            for w in terms.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }
}
