//! Documents as bags of interned terms.

use mp_text::TermId;

/// A document represented as a term-frequency bag.
///
/// Term ids refer to a [`mp_text::Vocabulary`] shared across the
/// corpus (the corpus generator and indexer agree on one interner per
/// scenario).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Document {
    /// `(term, tf)` pairs sorted by term id, every tf positive. The
    /// fixed order keeps index builds and probe responses deterministic.
    tf: Vec<(TermId, u32)>,
    len: u32,
}

impl Document {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a document from pre-interned term occurrences.
    pub fn from_terms(terms: impl IntoIterator<Item = TermId>) -> Self {
        Self::from_draws(&mut terms.into_iter().collect::<Vec<_>>())
    }

    /// Builds a document from a buffer of term draws, one entry per
    /// occurrence in any order: sorts the buffer, then counts each run
    /// of equal terms.
    pub fn from_draws(draws: &mut [TermId]) -> Self {
        draws.sort_unstable();
        let runs = draws.windows(2).filter(|w| w[0] != w[1]).count();
        let mut tf: Vec<(TermId, u32)> = Vec::with_capacity(runs + usize::from(!draws.is_empty()));
        for &term in draws.iter() {
            match tf.last_mut() {
                Some((last, count)) if *last == term => *count += 1,
                _ => tf.push((term, 1)),
            }
        }
        let len = u32::try_from(draws.len()).expect("a document holds at most u32::MAX terms");
        Self { tf, len }
    }

    /// Adds `count` occurrences of `term`.
    pub fn add_term(&mut self, term: TermId, count: u32) {
        if count == 0 {
            return;
        }
        match self.slot(term) {
            Ok(i) => self.tf[i].1 += count,
            Err(i) => self.tf.insert(i, (term, count)),
        }
        self.len += count;
    }

    /// Where `term` sits in the sorted pairs (`Err`: where it would go).
    fn slot(&self, term: TermId) -> Result<usize, usize> {
        self.tf.binary_search_by_key(&term, |&(t, _)| t)
    }

    /// Frequency of `term` in this document (0 if absent).
    pub fn tf(&self, term: TermId) -> u32 {
        self.slot(term).map_or(0, |i| self.tf[i].1)
    }

    /// True if the document contains the term at least once.
    pub fn contains(&self, term: TermId) -> bool {
        self.slot(term).is_ok()
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
        self.tf.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    #[test]
    fn no_draws_make_the_empty_document() {
        assert_eq!(Document::from_draws(&mut []), Document::new());
        assert_eq!(Document::from_terms([]), Document::new());
    }

    /// Checks every read of `doc` against a `BTreeMap` count oracle.
    fn assert_matches_oracle(
        doc: &Document,
        oracle: &BTreeMap<TermId, u32>,
        probes: impl Iterator<Item = TermId>,
    ) -> Result<(), TestCaseError> {
        let terms: Vec<(TermId, u32)> = doc.terms().collect();
        let expect: Vec<(TermId, u32)> = oracle.iter().map(|(&t, &c)| (t, c)).collect();
        prop_assert_eq!(terms, expect);
        prop_assert_eq!(doc.len(), oracle.values().sum::<u32>());
        prop_assert_eq!(doc.distinct_terms(), oracle.len());
        prop_assert_eq!(doc.is_empty(), oracle.is_empty());
        for term in probes {
            prop_assert_eq!(doc.tf(term), oracle.get(&term).copied().unwrap_or(0));
            prop_assert_eq!(doc.contains(term), oracle.contains_key(&term));
        }
        Ok(())
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

        /// Draws (repeats included, the empty draw too) and `add_term`
        /// calls made after construction (zero counts included) read
        /// exactly as a `BTreeMap` of counts fed the same occurrences.
        #[test]
        fn prop_draws_and_additions_match_a_count_map(
            ids in proptest::collection::vec(0u32..40, 0..120),
            added in proptest::collection::vec((0u32..60, 0u32..4), 0..40),
        ) {
            let mut draws: Vec<TermId> = ids.iter().map(|&i| t(i)).collect();
            let mut doc = Document::from_draws(&mut draws);
            let mut oracle: BTreeMap<TermId, u32> = BTreeMap::new();
            for &i in &ids {
                *oracle.entry(t(i)).or_insert(0) += 1;
            }
            assert_matches_oracle(&doc, &oracle, (0..62).map(t))?;
            prop_assert_eq!(&Document::from_terms(ids.iter().map(|&i| t(i))), &doc);
            for &(i, count) in &added {
                doc.add_term(t(i), count);
                if count > 0 {
                    *oracle.entry(t(i)).or_insert(0) += count;
                }
                assert_matches_oracle(&doc, &oracle, (0..62).map(t))?;
            }
        }
    }
}
