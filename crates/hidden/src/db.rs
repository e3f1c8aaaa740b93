//! The Hidden-Web search-interface trait and its simulated implementation.

use mp_index::{Document, InvertedIndex, ScoredDoc};
use mp_text::TermId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Number of per-worker shards in an enabled [`ProbeLog`]. A worker's
/// entries land in a shard picked by a thread-local slot, so concurrent
/// probers almost never contend on the same shard mutex.
const LOG_SHARDS: usize = 8;

/// Round-robin assignment of thread-local log slots.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index, assigned on first use.
    static LOG_SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % LOG_SHARDS;
}

/// Opt-in per-worker probe accounting, aggregated at drain time.
///
/// Each recording thread appends `(sequence, query)` into its own
/// shard; [`ProbeLog::drain_ordered`] merges the shards and sorts by
/// the global sequence number, reconstructing the probe order without
/// ever putting a shared lock on the probe path itself. Disabled (the
/// default), the log is a single atomic-load check — serving-path
/// probes take no lock and make no allocation.
/// One probe-log shard: `(global sequence, query terms)` records.
// mp-lint: allow(L9): thread-local-keyed shards, touched only when logging is opted in
type LogShard = Mutex<Vec<(u64, Vec<TermId>)>>;

struct ProbeLog {
    enabled: bool,
    /// Global probe ordering across shards (assigned before the shard
    /// append, so `drain_ordered` can restore chronology).
    seq: AtomicU64,
    shards: Vec<LogShard>,
}

impl ProbeLog {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            seq: AtomicU64::new(0),
            // mp-lint: allow(L9): constructing the opt-in log's shards, not acquiring
            shards: (0..LOG_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn record(&self, query: &[TermId]) {
        if !self.enabled {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        LOG_SLOT.with(|&slot| {
            self.shards[slot]
                .lock()
                .expect("probe-log shard mutex poisoned: a prior holder panicked")
                .push((seq, query.to_vec()));
        });
    }

    /// Merges every shard into one chronologically ordered list
    /// (clones; the log keeps its entries).
    fn drain_ordered(&self) -> Vec<Vec<TermId>> {
        let mut merged: Vec<(u64, Vec<TermId>)> = Vec::new();
        for shard in &self.shards {
            merged.extend(
                shard
                    .lock()
                    .expect("probe-log shard mutex poisoned: a prior holder panicked")
                    .iter()
                    .cloned(),
            );
        }
        merged.sort_unstable_by_key(|&(seq, _)| seq);
        merged.into_iter().map(|(_, q)| q).collect()
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard
                .lock()
                .expect("probe-log shard mutex poisoned: a prior holder panicked")
                .clear();
        }
        self.seq.store(0, Ordering::Relaxed);
    }
}

/// A simulated Hidden-Web database: a real in-process inverted index
/// exposed only through the search interface, with probe accounting.
pub struct SimulatedHiddenDb {
    name: String,
    index: InvertedIndex,
    exports_size: bool,
    probes: AtomicU64,
    /// Recent probe queries — **opt-in** ([`Self::with_probe_log`]).
    /// The log exists for diagnostics and tests; under concurrent
    /// serving even a sharded log is per-probe work the hot path never
    /// needs, so databases are constructed with it off.
    probe_log: ProbeLog,
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
    /// Wraps an index as a Hidden-Web database. Probe *counting* is on
    /// (atomic); per-probe query *logging* is off until
    /// [`Self::with_probe_log`] opts in.
    pub fn new(name: impl Into<String>, index: InvertedIndex) -> Self {
        Self {
            name: name.into(),
            index,
            exports_size: true,
            probes: AtomicU64::new(0),
            probe_log: ProbeLog::new(false),
        }
    }

    /// Makes the database hide its size (no `size_hint`), like real
    /// sites that don't export document counts.
    pub fn without_size_export(mut self) -> Self {
        self.exports_size = false;
        self
    }

    /// Enables per-probe query logging (diagnostics and tests). Entries
    /// are recorded into per-worker shards and merged back into probe
    /// order by [`Self::probe_log`], so even an enabled log puts no
    /// shared lock on the probe path.
    pub fn with_probe_log(mut self) -> Self {
        self.probe_log = ProbeLog::new(true);
        self
    }

    /// Disables per-probe query logging — the construction default
    /// since the cold-serving fix; kept so call sites can state the
    /// intent explicitly (throughput harnesses, serving fleets).
    pub fn without_probe_log(mut self) -> Self {
        self.probe_log = ProbeLog::new(false);
        self
    }

    /// The probe queries issued so far, in probe order (aggregated from
    /// the per-worker shards; empty unless [`Self::with_probe_log`]).
    pub fn probe_log(&self) -> Vec<Vec<TermId>> {
        self.probe_log.drain_ordered()
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
        self.probe_log.record(query);
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
        self.probe_log.clear();
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

    fn logging_db() -> SimulatedHiddenDb {
        SimulatedHiddenDb::new("testdb", sample_index()).with_probe_log()
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
        let db = logging_db();
        assert_eq!(db.probe_count(), 0);
        db.search(&[t(1)], 0);
        db.search(&[t(2)], 0);
        assert_eq!(db.probe_count(), 2);
        assert_eq!(db.probe_log().len(), 2);
        db.reset_probes();
        assert_eq!(db.probe_count(), 0);
        assert!(db.probe_log().is_empty());
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
    fn probe_log_is_off_by_default_without_losing_counts() {
        let db = sample_db();
        db.search(&[t(1)], 0);
        db.search(&[t(2)], 0);
        assert_eq!(db.probe_count(), 2);
        assert!(db.probe_log().is_empty());
        // The explicit opt-out spelling is equivalent.
        let db = sample_db().without_probe_log();
        db.search(&[t(1)], 0);
        assert_eq!(db.probe_count(), 1);
        assert!(db.probe_log().is_empty());
    }

    #[test]
    fn enabled_log_preserves_probe_order() {
        let db = logging_db();
        for i in [3u32, 1, 2, 1, 3] {
            db.search(&[t(i)], 0);
        }
        let log = db.probe_log();
        let seen: Vec<u32> = log.iter().map(|q| q[0].0).collect();
        assert_eq!(seen, vec![3, 1, 2, 1, 3]);
    }

    #[test]
    fn enabled_log_merges_entries_from_many_threads() {
        let db = logging_db();
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
        let log = db.probe_log();
        assert_eq!(log.len(), 100, "no probe lost to sharding");
        assert_eq!(db.probe_count(), 100);
        // Every thread's entries survive the merge exactly once.
        let mut all: Vec<u32> = log.iter().map(|q| q[0].0).collect();
        all.sort_unstable();
        let expected: Vec<u32> = (0..4)
            .flat_map(|w| (0..25).map(move |i| w * 100 + i))
            .collect();
        let mut expected = expected;
        expected.sort_unstable();
        assert_eq!(all, expected);
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
