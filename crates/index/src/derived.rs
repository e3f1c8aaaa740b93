//! The forward index: a derived, non-serialized companion to the
//! inverted index.
//!
//! It is a pure function of the serialized postings, built by the first
//! [`crate::InvertedIndex::reconstruct_doc`] call (behind a `OnceLock`)
//! and never written again. Fetching documents is its only reader, so
//! an index that is only searched never holds one. Keeping it out of the
//! serialized form leaves the index's JSON byte-identical to the
//! pre-forward-index layout.

use crate::types::Posting;

/// Per-document `(term, tf)` runs sorted by term id, so reconstructing
/// a document is `O(|doc|)` instead of a scan over the whole
/// vocabulary.
#[derive(Debug, Clone)]
pub(crate) struct ForwardIndex {
    /// Run boundaries: doc `d`'s terms live at
    /// `terms[offsets[d] .. offsets[d + 1]]`.
    offsets: Vec<usize>,
    /// Term ids of every (doc, term) pair, doc-major, term-sorted
    /// within each document.
    terms: Vec<u32>,
    /// Term frequencies parallel to `terms`.
    tfs: Vec<u32>,
}

impl ForwardIndex {
    /// Builds the forward index in two passes over the postings.
    pub(crate) fn build(postings: &[Vec<Posting>], doc_count: u32) -> Self {
        let n = doc_count as usize;
        // Counting sort: postings are term-major with doc-sorted runs,
        // so filling doc-major slots in ascending term order leaves
        // each document's forward run sorted by term id.
        let mut offsets = vec![0usize; n + 1];
        for p in postings.iter().flatten() {
            offsets[p.doc.index() + 1] += 1;
        }
        for d in 0..n {
            offsets[d + 1] += offsets[d];
        }
        let total = offsets[n];
        let mut terms = vec![0u32; total];
        let mut tfs = vec![0u32; total];
        let mut next = offsets.clone();
        for (i, plist) in postings.iter().enumerate() {
            let term = u32::try_from(i).expect("term ids are u32 by vocabulary construction");
            for p in plist {
                let slot = next[p.doc.index()];
                terms[slot] = term;
                tfs[slot] = p.tf;
                next[p.doc.index()] += 1;
            }
        }
        Self {
            offsets,
            terms,
            tfs,
        }
    }

    /// One document's forward run: `(term ids, tfs)`, term-sorted.
    pub(crate) fn doc_run(&self, doc: usize) -> (&[u32], &[u32]) {
        let (lo, hi) = (self.offsets[doc], self.offsets[doc + 1]);
        (&self.terms[lo..hi], &self.tfs[lo..hi])
    }
}
