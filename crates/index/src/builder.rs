//! Index construction.

use crate::document::Document;
use crate::index::InvertedIndex;
use crate::types::{DocId, Posting};

/// Accumulates documents and builds an immutable [`InvertedIndex`].
///
/// Documents receive dense [`DocId`]s in insertion order, so postings
/// lists come out sorted by construction — no post-build sort needed.
#[derive(Debug, Default)]
pub struct IndexBuilder {
    postings: Vec<Vec<Posting>>,
    doc_lens: Vec<u32>,
}

impl IndexBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one document, returning its assigned id.
    pub fn add(&mut self, doc: Document) -> DocId {
        let id = DocId(u32::try_from(self.doc_lens.len()).expect("more than u32::MAX documents"));
        for (term, tf) in doc.terms() {
            let slot = term.index();
            if slot >= self.postings.len() {
                self.postings.resize_with(slot + 1, Vec::new);
            }
            self.postings[slot].push(Posting { doc: id, tf });
        }
        self.doc_lens.push(doc.len());
        id
    }

    /// Number of documents added so far.
    pub fn len(&self) -> usize {
        self.doc_lens.len()
    }

    /// True when no documents were added.
    pub fn is_empty(&self) -> bool {
        self.doc_lens.is_empty()
    }

    /// Finalizes the index, precomputing per-document tf-idf norms.
    pub fn build(self) -> InvertedIndex {
        let _span = mp_obs::span!("index.build");
        let doc_count = u32::try_from(self.doc_lens.len())
            .expect("document ids are u32 by design; collections stay below u32::MAX docs");
        mp_obs::counter!("index.builds").incr();
        mp_obs::counter!("index.docs").add(u64::from(doc_count));
        let lens = mp_obs::histogram!("index.posting_len", mp_obs::bounds::POW2);
        for postings in self.postings.iter().filter(|p| !p.is_empty()) {
            lens.record(u64::try_from(postings.len()).unwrap_or(u64::MAX));
        }
        let mut index = InvertedIndex {
            postings: self.postings,
            doc_lens: self.doc_lens,
            doc_norms: Vec::new(),
            doc_count,
            forward: std::sync::OnceLock::new(),
        };
        // Two-phase: norms need df values, which need the postings in
        // place first.
        let mut norms2 = vec![0.0f64; doc_count as usize];
        for postings in &index.postings {
            if postings.is_empty() {
                continue;
            }
            let idf = (1.0 + doc_count as f64 / (1.0 + postings.len() as f64)).ln();
            for p in postings {
                let w = p.tf as f64 * idf;
                norms2[p.doc.index()] += w * w;
            }
        }
        index.doc_norms = norms2.into_iter().map(f64::sqrt).collect();
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_text::TermId;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn assigns_sequential_ids() {
        let mut b = IndexBuilder::new();
        assert_eq!(b.add(Document::from_terms([t(0)])), DocId(0));
        assert_eq!(b.add(Document::from_terms([t(1)])), DocId(1));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn postings_sorted_by_doc_id() {
        let mut b = IndexBuilder::new();
        for _ in 0..5 {
            b.add(Document::from_terms([t(3)]));
        }
        let idx = b.build();
        let docs: Vec<u32> = idx.postings(t(3)).iter().map(|p| p.doc.0).collect();
        assert_eq!(docs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn norms_are_positive_for_nonempty_docs() {
        let mut b = IndexBuilder::new();
        b.add(Document::from_terms([t(0), t(1)]));
        b.add(Document::new());
        let idx = b.build();
        assert!(idx.doc_norms[0] > 0.0);
        assert_eq!(idx.doc_norms[1], 0.0);
    }

    #[test]
    fn empty_build() {
        let idx = IndexBuilder::new().build();
        assert_eq!(idx.doc_count(), 0);
        assert_eq!(idx.distinct_terms(), 0);
    }
}
