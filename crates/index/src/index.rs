//! The inverted index: boolean matching, cosine retrieval, df summaries.
//!
//! # Answer page (DESIGN.md §12)
//!
//! A hidden database answers a query with a page of two parts:
//! [`InvertedIndex::count_matching`] (the boolean AND count) and
//! [`InvertedIndex::cosine_topk`] (the top-k documents). Neither does
//! work whose result is thrown away.
//!
//! `cosine_topk` is one dense term-at-a-time kernel: reusable
//! thread-local `f64` accumulators plus a touched-doc list instead of
//! the historical per-query `HashMap`. Once its top-k heap is full, the
//! worst kept score is a floor that skips a lower-scoring document with
//! one comparison. It is pinned **bit-identical** to the retained
//! [`InvertedIndex::cosine_topk_naive`] reference by proptests: every
//! scored document's floating-point summation order (ascending term id)
//! is exactly the historical kernel's, so every score's bit pattern is
//! unchanged, and equal scores still meet the doc-id tie-break.
//!
//! `count_matching` is a shortest-first merge that counts without
//! building an intersection: the two shortest lists in step, a cursor
//! into each further list, all over thread-local scratch, so a call
//! allocates nothing.
//!
//! The forward index behind [`InvertedIndex::reconstruct_doc`] is built
//! on the first call, not by the builder: fetching documents is the
//! only thing that reads it.

use crate::derived::ForwardIndex;
use crate::document::Document;
use crate::scratch::{self, Scratch};
use crate::topk::TopK;
use crate::types::{DocId, Posting, ScoredDoc};
use mp_text::TermId;
use std::collections::HashMap;
use std::sync::OnceLock;

/// An immutable inverted index over a fixed document collection.
///
/// Construct via [`crate::IndexBuilder`]. Supports the two retrieval
/// operations a Hidden-Web interface offers in the paper, plus summary
/// export for the metasearcher.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// Postings per term id (dense over the shared vocabulary; terms
    /// absent from this database have empty lists).
    pub(crate) postings: Vec<Vec<Posting>>,
    /// Per-document lengths (total term occurrences).
    pub(crate) doc_lens: Vec<u32>,
    /// Per-document tf-idf vector norms, precomputed at build time.
    pub(crate) doc_norms: Vec<f64>,
    /// Number of documents.
    pub(crate) doc_count: u32,
    /// The forward index, built by the first [`Self::reconstruct_doc`]
    /// call. Never serialized, so the index's JSON layout is
    /// byte-identical to the pre-forward-index format.
    pub(crate) forward: OnceLock<ForwardIndex>,
}

impl InvertedIndex {
    /// Number of documents in the collection (`|db|` in the paper).
    pub fn doc_count(&self) -> u32 {
        self.doc_count
    }

    /// Document frequency of a term: the paper's `r(db, t)`, the
    /// "number of appearances" column of Figure 2.
    pub fn df(&self, term: TermId) -> u32 {
        self.postings
            .get(term.index())
            .map(|p| Self::posting_len(p))
            .unwrap_or(0)
    }

    /// A postings list's length as the df width (a list holds at most
    /// one posting per document, and document counts are `u32`).
    fn posting_len(p: &[Posting]) -> u32 {
        u32::try_from(p.len()).expect("postings hold at most doc_count (u32) entries")
    }

    /// Postings list for a term (empty slice if unseen).
    pub fn postings(&self, term: TermId) -> &[Posting] {
        self.postings
            .get(term.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Counts documents containing **all** query terms — the paper's
    /// "number of matching documents", i.e. the actual relevancy
    /// `r(db, q)` under the document-frequency-based definition.
    ///
    /// Duplicate query terms are deduplicated; an empty query matches
    /// every document (vacuous AND).
    ///
    /// A shortest-first merge that only counts: the two shortest
    /// postings lists are walked in step, and each document they share
    /// advances one cursor per further list. The first exhausted list
    /// ends the merge. The distinct terms and the cursors live in the
    /// thread-local scratch, so a call allocates nothing.
    pub fn count_matching(&self, query: &[TermId]) -> u32 {
        if query.is_empty() {
            return self.doc_count;
        }
        scratch::with_scratch(|s| {
            s.qterms.clear();
            s.qterms.extend(query.iter().map(|t| t.0));
            // Shortest list first; equal terms have equal lengths, so
            // duplicates sit next to each other.
            s.qterms
                .sort_unstable_by_key(|&t| (self.postings(TermId(t)).len(), t));
            s.qterms.dedup();
            let lead = self.postings(TermId(s.qterms[0]));
            let Some(&second) = s.qterms.get(1) else {
                return Self::posting_len(lead);
            };
            let second = self.postings(TermId(second));
            let further = &s.qterms[2..];
            s.cursors.clear();
            s.cursors.resize(further.len(), 0);
            let (mut i, mut j) = (0, 0);
            let mut count = 0u32;
            'merge: while i < lead.len() && j < second.len() {
                let (doc, other) = (lead[i].doc, second[j].doc);
                if doc < other {
                    i += 1;
                    continue;
                }
                if doc > other {
                    j += 1;
                    continue;
                }
                i += 1;
                j += 1;
                for (&t, cursor) in further.iter().zip(s.cursors.iter_mut()) {
                    match Self::seek(self.postings(TermId(t)), cursor, doc) {
                        None => break 'merge,
                        Some(false) => continue 'merge,
                        Some(true) => {}
                    }
                }
                count += 1;
            }
            count
        })
    }

    /// Advances `cursor` to the first posting of `list` at or after
    /// `doc`: `None` once the list is exhausted, else whether that
    /// posting is `doc`'s.
    fn seek(list: &[Posting], cursor: &mut usize, doc: DocId) -> Option<bool> {
        while let Some(p) = list.get(*cursor) {
            if p.doc >= doc {
                return Some(p.doc == doc);
            }
            *cursor += 1;
        }
        None
    }

    /// Inverse document frequency with add-one smoothing:
    /// `ln(1 + N / (1 + df))`. Strictly positive, finite for df = 0.
    pub fn idf(&self, term: TermId) -> f64 {
        (1.0 + self.doc_count as f64 / (1.0 + self.df(term) as f64)).ln()
    }

    /// Builds the run-length query term frequencies (ascending term
    /// id) and the per-term weights and idfs, and returns the query
    /// norm. The qtf iteration order and the `qnorm` accumulation are
    /// exactly the historical kernel's, so all downstream scores keep
    /// their historical bit patterns.
    fn prepare_query(&self, query: &[TermId], s: &mut Scratch) -> f64 {
        s.qterms.clear();
        s.qterms.extend(query.iter().map(|t| t.0));
        s.qterms.sort_unstable();
        s.qtf.clear();
        for &t in &s.qterms {
            match s.qtf.last_mut() {
                Some((last, tf)) if *last == t => *tf += 1,
                _ => s.qtf.push((t, 1)),
            }
        }
        s.wq.clear();
        s.idf.clear();
        let mut qnorm2 = 0.0;
        for &(t, tfq) in &s.qtf {
            let idf = self.idf(TermId(t));
            let wq = tfq as f64 * idf;
            qnorm2 += wq * wq;
            s.wq.push(wq);
            s.idf.push(idf);
        }
        qnorm2.sqrt()
    }

    /// Retrieves the `k` documents most cosine-similar to the query
    /// under tf-idf weighting — the paper's document-similarity
    /// relevancy surrogate (Section 2.1, citing \[22\]).
    ///
    /// Documents sharing *any* query term are scored (disjunctive
    /// scoring, as vector-space engines do). Results are bit-identical
    /// to [`Self::cosine_topk_naive`].
    pub fn cosine_topk(&self, query: &[TermId], k: usize) -> Vec<ScoredDoc> {
        if query.is_empty() || k == 0 {
            return Vec::new();
        }
        scratch::with_scratch(|s| {
            let qnorm = self.prepare_query(query, s);
            if mp_stats::float::exact_zero(qnorm) {
                return Vec::new();
            }
            self.topk_dense(qnorm, k, s);
            s.topk.drain_sorted()
        })
    }

    /// Dense term-at-a-time kernel: accumulates every posting of every
    /// query term (ascending term id — the historical summation order)
    /// into the thread-local dense accumulator, then offers the touched
    /// documents to the top-k heap.
    ///
    /// Once the heap holds `k` documents, its worst kept score is a
    /// floor: a document scoring strictly below it is skipped with one
    /// comparison, before a [`ScoredDoc`] is built. Equal scores still
    /// reach [`TopK::offer`], so the doc-id tie-break is unchanged.
    fn topk_dense(&self, qnorm: f64, k: usize, s: &mut Scratch) {
        s.ensure_doc_capacity(self.doc_count as usize);
        s.touched.clear();
        for j in 0..s.qtf.len() {
            let t = s.qtf[j].0;
            let wq = s.wq[j];
            let idf = s.idf[j];
            for p in self.postings(TermId(t)) {
                let slot = p.doc.index();
                let wd = p.tf as f64 * idf;
                // Contributions are strictly positive (idf ≥ ln 1.5,
                // tf ≥ 1), so a zero accumulator means "untouched".
                if mp_stats::float::exact_zero(s.acc[slot]) {
                    s.touched.push(p.doc.0);
                }
                s.acc[slot] += wq * wd;
            }
        }
        s.topk.reset(k);
        let mut floor = f64::NEG_INFINITY;
        for i in 0..s.touched.len() {
            let slot = s.touched[i] as usize;
            let dot = s.acc[slot];
            s.acc[slot] = 0.0; // restore the all-zero invariant
            let dnorm = self.doc_norms[slot];
            if dnorm > 0.0 {
                let score = dot / (qnorm * dnorm);
                if score < floor {
                    continue;
                }
                s.topk.offer(ScoredDoc {
                    doc: DocId(s.touched[i]),
                    score,
                });
                floor = s.topk.worst_score().unwrap_or(f64::NEG_INFINITY);
            }
        }
        mp_obs::counter!("index.docs_scored").add(u64::try_from(s.touched.len()).unwrap_or(0));
    }

    /// The historical HashMap-accumulator kernel, retained as the
    /// executable reference: the property tests pin
    /// [`Self::cosine_topk`] bit-identical to it, and the
    /// `retrieval_kernel` bench measures the dense kernel's speedup
    /// against it.
    pub fn cosine_topk_naive(&self, query: &[TermId], k: usize) -> Vec<ScoredDoc> {
        // Query term frequencies in *sorted* term order: the weighted
        // dot products below are floating-point accumulations, and
        // iterating a hash map here would make the summation order —
        // and therefore the low bits of every score — vary from call to
        // call. Sorted terms keep scores bit-identical across calls
        // (the workspace determinism contract; the serving layer's
        // equivalence tests compare results exactly).
        let mut terms: Vec<TermId> = query.to_vec();
        terms.sort_unstable();
        let mut qtf: Vec<(TermId, u32)> = Vec::new();
        for &t in &terms {
            match qtf.last_mut() {
                Some((last, tf)) if *last == t => *tf += 1,
                _ => qtf.push((t, 1)),
            }
        }
        if qtf.is_empty() || k == 0 {
            return Vec::new();
        }
        let mut qnorm2 = 0.0;
        let mut acc: HashMap<DocId, f64> = HashMap::new();
        for &(t, tfq) in &qtf {
            let idf = self.idf(t);
            let wq = tfq as f64 * idf;
            qnorm2 += wq * wq;
            for p in self.postings(t) {
                let wd = p.tf as f64 * idf;
                *acc.entry(p.doc).or_insert(0.0) += wq * wd;
            }
        }
        let qnorm = qnorm2.sqrt();
        if mp_stats::float::exact_zero(qnorm) {
            return Vec::new();
        }
        let mut topk = TopK::new(k);
        // Each score comes from its own dot product (no cross-doc
        // accumulation), and TopK's (score, doc) order is total.
        // mp-lint: allow(L10): per-doc scores + total TopK order — visit order cannot matter
        for (doc, dot) in acc {
            let dnorm = self.doc_norms[doc.index()];
            if dnorm > 0.0 {
                topk.offer(ScoredDoc {
                    doc,
                    score: dot / (qnorm * dnorm),
                });
            }
        }
        topk.into_sorted()
    }

    /// Exports the `(term → df)` content summary used by summary-based
    /// estimators, together with the collection size: one entry per
    /// term with a non-empty postings list, its df the list's length.
    pub fn df_summary(&self) -> (HashMap<TermId, u32>, u32) {
        let map = self
            .postings
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(t, p)| {
                let term = u32::try_from(t).expect("term ids are u32 by vocabulary construction");
                (TermId(term), Self::posting_len(p))
            })
            .collect();
        (map, self.doc_count)
    }

    /// Number of distinct terms with non-empty postings.
    pub fn distinct_terms(&self) -> usize {
        self.postings.iter().filter(|p| !p.is_empty()).count()
    }

    /// Reconstructs a [`Document`] term bag from the forward index in
    /// `O(|doc|)` (used by probe responses that "download" top
    /// documents; historically this walked the entire vocabulary). The
    /// first call builds the forward index.
    pub fn reconstruct_doc(&self, doc: DocId) -> Document {
        let mut d = Document::new();
        if doc.index() >= self.doc_count as usize {
            return d;
        }
        let forward = self
            .forward
            .get_or_init(|| ForwardIndex::build(&self.postings, self.doc_count));
        let (terms, tfs) = forward.doc_run(doc.index());
        for (i, &t) in terms.iter().enumerate() {
            d.add_term(TermId(t), tfs[i]);
        }
        d
    }
}

// Manual serde impls: the forward index must stay out of the wire
// format (the serialized JSON is byte-identical to the historical
// derive over the four data fields, in declaration order).
impl serde::Serialize for InvertedIndex {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            (
                String::from("postings"),
                serde::Serialize::to_value(&self.postings),
            ),
            (
                String::from("doc_lens"),
                serde::Serialize::to_value(&self.doc_lens),
            ),
            (
                String::from("doc_norms"),
                serde::Serialize::to_value(&self.doc_norms),
            ),
            (
                String::from("doc_count"),
                serde::Serialize::to_value(&self.doc_count),
            ),
        ])
    }
}

impl serde::Deserialize for InvertedIndex {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        fn field<'v>(v: &'v serde::Value, name: &str) -> Result<&'v serde::Value, serde::Error> {
            v.get(name).ok_or_else(|| serde::Error::missing_field(name))
        }
        if v.as_obj().is_none() {
            return Err(serde::Error::type_mismatch("object", v));
        }
        Ok(InvertedIndex {
            postings: serde::Deserialize::from_value(field(v, "postings")?)?,
            doc_lens: serde::Deserialize::from_value(field(v, "doc_lens")?)?,
            doc_norms: serde::Deserialize::from_value(field(v, "doc_norms")?)?,
            doc_count: serde::Deserialize::from_value(field(v, "doc_count")?)?,
            forward: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::cast_possible_truncation,
        reason = "test corpora hold far fewer than 2^32 documents"
    )]

    use super::*;
    use crate::builder::IndexBuilder;
    use proptest::prelude::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    /// Builds an index over documents given as term-id lists.
    fn index_of(docs: &[&[u32]]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for d in docs {
            b.add(Document::from_terms(d.iter().map(|&i| t(i))));
        }
        b.build()
    }

    #[test]
    fn df_counts_documents_not_occurrences() {
        let idx = index_of(&[&[1, 1, 1], &[1, 2], &[2]]);
        assert_eq!(idx.df(t(1)), 2);
        assert_eq!(idx.df(t(2)), 2);
        assert_eq!(idx.df(t(9)), 0);
    }

    #[test]
    fn count_matching_is_boolean_and() {
        let idx = index_of(&[&[1, 2], &[1], &[2], &[1, 2, 3]]);
        assert_eq!(idx.count_matching(&[t(1)]), 3);
        assert_eq!(idx.count_matching(&[t(1), t(2)]), 2);
        assert_eq!(idx.count_matching(&[t(1), t(2), t(3)]), 1);
        assert_eq!(idx.count_matching(&[t(4)]), 0);
        assert_eq!(idx.count_matching(&[]), 4);
    }

    #[test]
    fn duplicate_query_terms_are_deduplicated() {
        let idx = index_of(&[&[1], &[1, 2]]);
        assert_eq!(idx.count_matching(&[t(1), t(1)]), 2);
    }

    #[test]
    fn cosine_prefers_exhaustive_match() {
        // doc0 uses both query terms; doc1 only one.
        let idx = index_of(&[&[1, 2], &[1, 3], &[4]]);
        let hits = idx.cosine_topk(&[t(1), t(2)], 10);
        assert_eq!(hits[0].doc, DocId(0));
        assert!(hits[0].score > hits[1].score);
        // doc2 shares no term: not retrieved.
        assert!(hits.iter().all(|h| h.doc != DocId(2)));
    }

    #[test]
    fn cosine_identical_doc_scores_one() {
        let idx = index_of(&[&[1, 2, 3], &[4]]);
        let hits = idx.cosine_topk(&[t(1), t(2), t(3)], 1);
        assert!((hits[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn df_summary_roundtrip() {
        let idx = index_of(&[&[1, 2], &[2]]);
        let (summary, n) = idx.df_summary();
        assert_eq!(n, 2);
        assert_eq!(summary.get(&t(1)), Some(&1));
        assert_eq!(summary.get(&t(2)), Some(&2));
        assert_eq!(summary.len(), 2);
    }

    /// Only `reconstruct_doc` builds the forward index: retrieval,
    /// matching and summary export read the postings alone, on a fresh
    /// build and on a deserialized copy alike.
    #[test]
    fn forward_index_is_built_by_the_first_reconstruct_doc() {
        let built = index_of(&[&[1, 2, 2], &[2, 3], &[4]]);
        let json = serde_json::to_string(&built).expect("index serializes to JSON");
        let parsed: InvertedIndex = serde_json::from_str(&json).expect("index deserializes");
        for idx in [built, parsed] {
            assert!(
                idx.forward.get().is_none(),
                "no forward index before any call"
            );
            assert_eq!(idx.cosine_topk(&[t(2), t(3)], 2).len(), 2);
            assert_eq!(idx.cosine_topk_naive(&[t(2)], 5).len(), 2);
            assert_eq!(idx.count_matching(&[t(2)]), 2);
            assert_eq!(idx.count_matching(&[t(2), t(3)]), 1);
            assert_eq!(idx.df_summary().0.len(), 4);
            assert_eq!(idx.distinct_terms(), 4);
            assert!(idx.forward.get().is_none(), "queries built a forward index");
            assert_eq!(idx.reconstruct_doc(DocId(0)).tf(t(2)), 2);
            assert!(idx.forward.get().is_some(), "reconstruct_doc built none");
        }
    }

    #[test]
    fn reconstruct_doc_matches_input() {
        let idx = index_of(&[&[1, 1, 3], &[2]]);
        let d = idx.reconstruct_doc(DocId(0));
        assert_eq!(d.tf(t(1)), 2);
        assert_eq!(d.tf(t(3)), 1);
        assert_eq!(d.tf(t(2)), 0);
    }

    #[test]
    fn reconstruct_out_of_range_doc_is_empty() {
        let idx = index_of(&[&[1]]);
        assert!(idx.reconstruct_doc(DocId(5)).is_empty());
    }

    #[test]
    fn empty_collection() {
        let idx = index_of(&[]);
        assert_eq!(idx.doc_count(), 0);
        assert_eq!(idx.count_matching(&[t(1)]), 0);
        assert!(idx.cosine_topk(&[t(1)], 5).is_empty());
    }

    #[test]
    fn serialization_format_is_the_historical_four_fields() {
        let idx = index_of(&[&[1, 2], &[2]]);
        let json = serde_json::to_string(&idx).expect("index serializes to JSON");
        let v: serde::Value = serde_json::from_str(&json).expect("round-trips through JSON");
        let keys: Vec<&str> = v
            .as_obj()
            .expect("index serializes as an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["postings", "doc_lens", "doc_norms", "doc_count"]);
        let back: InvertedIndex = serde_json::from_str(&json).expect("index deserializes");
        assert_eq!(back.doc_count(), 2);
        assert_eq!(back.distinct_terms(), 2);
        // The deserialized copy answers queries identically.
        let a = idx.cosine_topk(&[t(2)], 5);
        let b = back.cosine_topk(&[t(2)], 5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    /// Naive oracle: scan every document.
    fn naive_count(docs: &[Vec<u32>], query: &[u32]) -> u32 {
        docs.iter()
            .filter(|d| query.iter().all(|q| d.contains(q)))
            .count() as u32
    }

    /// Naive df oracle: one scan over every posting of every list.
    fn naive_df(idx: &InvertedIndex) -> HashMap<TermId, u32> {
        let mut df = HashMap::new();
        for (term, list) in idx.postings.iter().enumerate() {
            for _ in list {
                *df.entry(t(term as u32)).or_insert(0) += 1;
            }
        }
        df
    }

    fn assert_bit_identical(a: &[ScoredDoc], b: &[ScoredDoc]) {
        assert_eq!(a.len(), b.len(), "result lengths differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `count_matching` equals a scan of every document, on two
        /// differently sized indexes whose calls alternate on one thread
        /// (the cursors live in thread-local scratch): the query as
        /// drawn, its terms duplicated, the empty query (every
        /// document), a term past the last postings list, and twelve
        /// distinct terms.
        #[test]
        fn prop_count_matching_matches_naive_scan(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u32..20, 0..30), 0..40),
            wide in proptest::collection::vec(
                proptest::collection::vec(0u32..20, 0..30), 40..120),
            query in proptest::collection::vec(0u32..25, 0..4),
            twelve in proptest::collection::hash_set(0u32..20, 12),
            oov in 20u32..60
        ) {
            let mut twelve: Vec<u32> = twelve.into_iter().collect();
            twelve.sort_unstable();
            prop_assert_eq!(twelve.len(), 12);
            let doubled: Vec<u32> = query.iter().chain(query.iter().rev()).copied().collect();
            let past: Vec<u32> = query.iter().copied().chain([oov]).collect();
            let queries: [&[u32]; 5] = [&query, &doubled, &[], &past, &twelve];
            let small_refs: Vec<&[u32]> = docs.iter().map(Vec::as_slice).collect();
            let wide_refs: Vec<&[u32]> = wide.iter().map(Vec::as_slice).collect();
            let small = index_of(&small_refs);
            let large = index_of(&wide_refs);
            for query in queries {
                let q: Vec<TermId> = query.iter().map(|&i| t(i)).collect();
                for (idx, collection) in [(&small, &docs), (&large, &wide)] {
                    prop_assert_eq!(idx.count_matching(&q), naive_count(collection, query));
                }
            }
            prop_assert_eq!(small.count_matching(&[]), docs.len() as u32);
        }

        /// `df_summary` and `distinct_terms` equal a scan of every
        /// posting, on a fresh build and after a JSON round trip. Sparse
        /// term ids leave empty lists between the used ones, empty
        /// documents post nothing, and ids past the last list are out of
        /// the vocabulary.
        #[test]
        fn prop_df_summary_matches_a_posting_scan(
            docs in proptest::collection::vec(
                proptest::collection::vec((0u32..12).prop_map(|i| i * 3), 0..8), 0..25),
            oov in 40u32..80
        ) {
            let refs: Vec<&[u32]> = docs.iter().map(Vec::as_slice).collect();
            let built = index_of(&refs);
            let json = serde_json::to_string(&built).expect("index serializes to JSON");
            let parsed: InvertedIndex = serde_json::from_str(&json).expect("index deserializes");
            for idx in [built, parsed] {
                let expected = naive_df(&idx);
                let (summary, n) = idx.df_summary();
                prop_assert_eq!(n, docs.len() as u32);
                prop_assert_eq!(&summary, &expected);
                prop_assert_eq!(idx.distinct_terms(), expected.len());
                prop_assert!(!summary.contains_key(&t(oov)));
                prop_assert_eq!(idx.df(t(oov)), 0);
                for doc_terms in &docs {
                    for &term in doc_terms {
                        let holding = docs.iter().filter(|d| d.contains(&term)).count() as u32;
                        prop_assert_eq!(summary.get(&t(term)).copied(), Some(holding));
                    }
                }
            }
        }

        #[test]
        fn prop_cosine_scores_in_unit_interval(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u32..10, 1..10), 1..20),
            query in proptest::collection::vec(0u32..10, 1..4)
        ) {
            let refs: Vec<&[u32]> = docs.iter().map(Vec::as_slice).collect();
            let idx = index_of(&refs);
            let q: Vec<TermId> = query.iter().map(|&i| t(i)).collect();
            for hit in idx.cosine_topk(&q, 100) {
                prop_assert!(hit.score > 0.0 && hit.score <= 1.0 + 1e-9,
                    "score {}", hit.score);
            }
        }

        /// Regression: cosine scores are floating-point accumulations,
        /// and their summation order must not depend on hash-map
        /// iteration — repeated calls return *bit-identical* scores
        /// (two hash maps per call used to randomize the low bits).
        #[test]
        fn prop_cosine_topk_is_bit_stable_across_calls(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u32..10, 1..10), 1..20),
            query in proptest::collection::vec(0u32..10, 1..4)
        ) {
            let refs: Vec<&[u32]> = docs.iter().map(Vec::as_slice).collect();
            let idx = index_of(&refs);
            let q: Vec<TermId> = query.iter().map(|&i| t(i)).collect();
            let first = idx.cosine_topk(&q, 100);
            for _ in 0..3 {
                let again = idx.cosine_topk(&q, 100);
                assert_bit_identical(&first, &again);
            }
        }

        #[test]
        fn prop_topk_is_prefix_of_full_ranking(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u32..10, 1..10), 1..20),
            query in proptest::collection::vec(0u32..10, 1..3),
            k in 1usize..10
        ) {
            let refs: Vec<&[u32]> = docs.iter().map(Vec::as_slice).collect();
            let idx = index_of(&refs);
            let q: Vec<TermId> = query.iter().map(|&i| t(i)).collect();
            let full = idx.cosine_topk(&q, usize::MAX >> 1);
            let short = idx.cosine_topk(&q, k);
            prop_assert_eq!(&short[..], &full[..k.min(full.len())]);
        }
    }
}
