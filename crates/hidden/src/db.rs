//! The Hidden-Web search-interface trait and its simulated implementation.

use mp_index::{Document, InvertedIndex, ScoredDoc};
use mp_text::TermId;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a Hidden-Web database returns for one query: the answer page.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// "Number of matching documents" printed on the answer page — the
    /// actual relevancy under the document-frequency definition.
    pub match_count: u32,
    /// The top result documents with similarity scores (what the
    /// metasearcher can download and analyze).
    pub top_docs: Vec<ScoredDoc>,
}

impl SearchResponse {
    /// The best query-document similarity among the returned results —
    /// the actual relevancy under the document-similarity definition.
    pub fn top_similarity(&self) -> f64 {
        self.top_docs.first().map(|d| d.score).unwrap_or(0.0)
    }
}

/// A database reachable only through its keyword-search interface.
///
/// This is the *entire* surface the metasearcher sees. In particular
/// there is no way to enumerate documents or read index internals —
/// summaries must come from [`crate::ContentSummary`] construction, and
/// exact relevancies only from probing ([`HiddenWebDatabase::search`]).
pub trait HiddenWebDatabase: Send + Sync {
    /// Stable database name.
    fn name(&self) -> &str;

    /// Issues a conjunctive keyword query; returns the answer page.
    /// Counts as **one probe** against this database.
    fn search(&self, query: &[TermId], top_n: usize) -> SearchResponse;

    /// Downloads one result document by id (allowed for documents that
    /// appeared on an answer page). Used by sampling-based summary
    /// construction and similarity probing.
    fn fetch(&self, doc: mp_index::DocId) -> Document;

    /// The database size if the site exports it (`|db|`); `None` for
    /// sites that don't, in which case summaries estimate it (paper
    /// footnote 6).
    fn size_hint(&self) -> Option<u32>;

    /// Number of probes (searches) served so far.
    fn probe_count(&self) -> u64;

    /// Resets the probe counter (between experiments).
    fn reset_probes(&self);
}

/// A simulated Hidden-Web database: a real in-process inverted index
/// exposed only through the search interface, with probe accounting.
pub struct SimulatedHiddenDb {
    name: String,
    index: InvertedIndex,
    exports_size: bool,
    probes: AtomicU64,
}

impl std::fmt::Debug for SimulatedHiddenDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatedHiddenDb")
            .field("name", &self.name)
            .field("docs", &self.index.doc_count())
            .field("probes", &self.probe_count())
            .finish()
    }
}

impl SimulatedHiddenDb {
    /// Wraps an index as a Hidden-Web database that counts its probes
    /// (one relaxed atomic per search).
    pub fn new(name: impl Into<String>, index: InvertedIndex) -> Self {
        Self {
            name: name.into(),
            index,
            exports_size: true,
            probes: AtomicU64::new(0),
        }
    }

    /// Makes the database hide its size (no `size_hint`), like real
    /// sites that don't export document counts.
    pub fn without_size_export(mut self) -> Self {
        self.exports_size = false;
        self
    }

    /// Direct index access for golden-standard construction in the
    /// evaluation harness. **Not part of the Hidden-Web surface**; the
    /// selection algorithms never call this.
    pub fn index_for_golden(&self) -> &InvertedIndex {
        &self.index
    }
}

impl HiddenWebDatabase for SimulatedHiddenDb {
    fn name(&self) -> &str {
        &self.name
    }

    fn search(&self, query: &[TermId], top_n: usize) -> SearchResponse {
        let _span = mp_obs::span!("hidden.search");
        mp_obs::counter!("probe.attempts").incr();
        self.probes.fetch_add(1, Ordering::Relaxed);
        SearchResponse {
            match_count: self.index.count_matching(query),
            top_docs: self.index.cosine_topk(query, top_n),
        }
    }

    fn fetch(&self, doc: mp_index::DocId) -> Document {
        mp_obs::counter!("hidden.fetches").incr();
        self.index.reconstruct_doc(doc)
    }

    fn size_hint(&self) -> Option<u32> {
        self.exports_size.then(|| self.index.doc_count())
    }

    fn probe_count(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    fn reset_probes(&self) {
        self.probes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::disallowed_methods,
        reason = "the test runs concurrent searches on its own threads"
    )]

    use super::*;
    use mp_index::{Document, IndexBuilder};

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn sample_index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add(Document::from_terms([t(1), t(2)]));
        b.add(Document::from_terms([t(1)]));
        b.add(Document::from_terms([t(2), t(3)]));
        b.build()
    }

    fn sample_db() -> SimulatedHiddenDb {
        SimulatedHiddenDb::new("testdb", sample_index())
    }

    #[test]
    fn search_returns_match_count_and_top_docs() {
        let db = sample_db();
        let r = db.search(&[t(1)], 10);
        assert_eq!(r.match_count, 2);
        assert_eq!(r.top_docs.len(), 2);
        assert!(r.top_similarity() > 0.0);
    }

    #[test]
    fn searches_are_counted_as_probes() {
        let db = sample_db();
        assert_eq!(db.probe_count(), 0);
        db.search(&[t(1)], 0);
        db.search(&[t(2)], 0);
        assert_eq!(db.probe_count(), 2);
        db.reset_probes();
        assert_eq!(db.probe_count(), 0);
    }

    #[test]
    fn fetch_is_not_a_probe() {
        let db = sample_db();
        let r = db.search(&[t(2)], 1);
        let doc = db.fetch(r.top_docs[0].doc);
        assert!(doc.contains(t(2)));
        assert_eq!(db.probe_count(), 1);
    }

    #[test]
    fn concurrent_searches_are_all_counted() {
        let db = sample_db();
        std::thread::scope(|scope| {
            for w in 0..4u32 {
                let db = &db;
                scope.spawn(move || {
                    for i in 0..25u32 {
                        db.search(&[t(w * 100 + i)], 0);
                    }
                });
            }
        });
        assert_eq!(db.probe_count(), 100, "no probe lost across threads");
    }

    #[test]
    fn size_hint_modes() {
        let db = sample_db();
        assert_eq!(db.size_hint(), Some(3));
        let hidden = sample_db().without_size_export();
        assert_eq!(hidden.size_hint(), None);
    }

    #[test]
    fn no_match_response() {
        let db = sample_db();
        let r = db.search(&[t(9)], 5);
        assert_eq!(r.match_count, 0);
        assert!(r.top_docs.is_empty());
        assert_eq!(r.top_similarity(), 0.0);
    }

    #[test]
    fn trait_object_is_usable() {
        let db: Box<dyn HiddenWebDatabase> = Box::new(sample_db());
        assert_eq!(db.name(), "testdb");
        assert_eq!(db.search(&[t(1), t(2)], 0).match_count, 1);
    }
}
