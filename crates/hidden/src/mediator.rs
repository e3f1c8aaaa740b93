//! The mediator: the set of Hidden-Web databases a metasearcher fronts.

use crate::db::HiddenWebDatabase;
use crate::summary::ContentSummary;
use mp_text::TermId;
use std::sync::Arc;

/// The mediated database set, pairing each database with its locally
/// stored [`ContentSummary`].
///
/// Databases are addressed by index throughout the library (the paper's
/// `db_1 … db_n`); the mediator owns the authoritative ordering.
///
/// Clones share the summaries and their df postings: a clone copies one
/// handle per database, not the summaries' tables.
#[derive(Clone)]
pub struct Mediator {
    dbs: Vec<Arc<dyn HiddenWebDatabase>>,
    summaries: Arc<SummaryTable>,
}

/// The fleet's summaries, with their df tables turned term-major once:
/// for each term, the `(database, df)` pairs of every summary that gives
/// it a non-zero df, in database order — an inverted index from terms to
/// postings. One query's Eq. 1 inputs are then a walk over its terms'
/// postings instead of one hash lookup per (database, term).
struct SummaryTable {
    summaries: Vec<ContentSummary>,
    /// `sizes[i]` is `summaries[i].size()`.
    sizes: Vec<u32>,
    /// Term `t`'s postings are `postings[offsets[t]..offsets[t + 1]]`;
    /// a term past the end of `offsets` has none.
    offsets: Vec<usize>,
    /// `(database, df)` pairs, grouped by term.
    postings: Vec<(u32, u32)>,
}

impl SummaryTable {
    /// Builds the postings by counting, so both vectors have their exact
    /// size and no growth slack, and each term's postings come out in
    /// database order whatever order the summaries' maps iterate in.
    fn new(summaries: Vec<ContentSummary>) -> Self {
        let mut counts: Vec<usize> = Vec::new();
        for summary in &summaries {
            for (term, df) in summary.iter() {
                if df > 0 {
                    if term.index() >= counts.len() {
                        counts.resize(term.index() + 1, 0);
                    }
                    counts[term.index()] += 1;
                }
            }
        }
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut end = 0;
        offsets.push(end);
        for count in &counts {
            end += count;
            offsets.push(end);
        }
        // `cursor[t]`: where term `t`'s next posting goes. Databases are
        // visited in index order, so every term's postings are too.
        let mut cursor = offsets[..counts.len()].to_vec();
        let mut postings = vec![(0, 0); end];
        for (db, summary) in summaries.iter().enumerate() {
            let db = u32::try_from(db).expect("a fleet has fewer than 2^32 databases");
            for (term, df) in summary.iter() {
                if df > 0 {
                    let slot = &mut cursor[term.index()];
                    postings[*slot] = (db, df);
                    *slot += 1;
                }
            }
        }
        let sizes = summaries.iter().map(ContentSummary::size).collect();
        Self {
            summaries,
            sizes,
            offsets,
            postings,
        }
    }
}

impl std::fmt::Debug for Mediator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mediator")
            .field("n_databases", &self.dbs.len())
            .field("names", &self.names())
            .finish()
    }
}

impl Mediator {
    /// Builds a mediator from databases and their summaries (aligned).
    ///
    /// # Panics
    /// Panics if the two vectors have different lengths or are empty.
    pub fn new(dbs: Vec<Arc<dyn HiddenWebDatabase>>, summaries: Vec<ContentSummary>) -> Self {
        assert_eq!(
            dbs.len(),
            summaries.len(),
            "databases and summaries must align"
        );
        assert!(!dbs.is_empty(), "mediator needs at least one database");
        Self {
            dbs,
            summaries: Arc::new(SummaryTable::new(summaries)),
        }
    }

    /// Number of mediated databases (`n`).
    pub fn len(&self) -> usize {
        self.dbs.len()
    }

    /// Always false (constructor rejects empty sets).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Database `i`.
    pub fn db(&self, i: usize) -> &dyn HiddenWebDatabase {
        self.dbs[i].as_ref()
    }

    /// Shared handle to database `i`.
    pub fn db_arc(&self, i: usize) -> Arc<dyn HiddenWebDatabase> {
        Arc::clone(&self.dbs[i])
    }

    /// Summary of database `i`.
    pub fn summary(&self, i: usize) -> &ContentSummary {
        &self.summaries.summaries[i]
    }

    /// All summaries, index-aligned.
    pub fn summaries(&self) -> &[ContentSummary] {
        &self.summaries.summaries
    }

    /// Every summary's database size `|db|`, index-aligned.
    pub fn sizes(&self) -> &[u32] {
        &self.summaries.sizes
    }

    /// The summaries' postings for `term`: `(database, df)` for every
    /// database whose summary gives `term` a non-zero df, in index
    /// order. A database missing from them has `df(term) = 0`.
    pub fn df_postings(&self, term: TermId) -> impl ExactSizeIterator<Item = (usize, u32)> + '_ {
        let table = &self.summaries;
        let range = match table.offsets.get(term.index()..=term.index() + 1) {
            Some(&[start, end]) => start..end,
            _ => 0..0,
        };
        table.postings[range]
            .iter()
            .map(|&(db, df)| (db as usize, df))
    }

    /// Database names, index-aligned.
    pub fn names(&self) -> Vec<&str> {
        self.dbs.iter().map(|d| d.name()).collect()
    }

    /// The largest advertised database size, in documents — the warm
    /// target for retrieval scratch pools. Databases hiding their size
    /// contribute nothing; an all-hidden fleet warms to 0 (lazy growth).
    pub fn max_size_hint(&self) -> usize {
        self.dbs
            .iter()
            .filter_map(|d| d.size_hint())
            .max()
            .unwrap_or(0) as usize
    }

    /// Total probes served across all databases since the last reset.
    pub fn total_probes(&self) -> u64 {
        self.dbs.iter().map(|d| d.probe_count()).sum()
    }

    /// Resets every database's probe counter.
    pub fn reset_probes(&self) {
        for db in &self.dbs {
            db.reset_probes();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::SimulatedHiddenDb;
    use mp_index::{Document, IndexBuilder};
    use mp_text::TermId;

    fn make_db(name: &str, n_docs: u32) -> Arc<dyn HiddenWebDatabase> {
        let mut b = IndexBuilder::new();
        for i in 0..n_docs {
            b.add(Document::from_terms([TermId(i % 3)]));
        }
        Arc::new(SimulatedHiddenDb::new(name, b.build()))
    }

    fn mediator() -> Mediator {
        let dbs: Vec<Arc<dyn HiddenWebDatabase>> = vec![make_db("a", 10), make_db("b", 20)];
        let summaries = dbs
            .iter()
            .map(|d| {
                // Cooperative summaries via a single full-vocabulary probe
                // shortcut: size + dfs of the three terms.
                let mut df = std::collections::HashMap::new();
                for t in 0..3u32 {
                    df.insert(TermId(t), d.search(&[TermId(t)], 0).match_count);
                }
                d.reset_probes();
                ContentSummary::new(df, d.size_hint().unwrap())
            })
            .collect();
        Mediator::new(dbs, summaries)
    }

    #[test]
    fn construction_and_access() {
        let m = mediator();
        assert_eq!(m.len(), 2);
        assert_eq!(m.names(), vec!["a", "b"]);
        assert_eq!(m.summary(0).size(), 10);
        assert_eq!(m.summary(1).size(), 20);
    }

    #[test]
    fn probe_accounting_is_global() {
        let m = mediator();
        assert_eq!(m.total_probes(), 0);
        m.db(0).search(&[TermId(0)], 0);
        m.db(1).search(&[TermId(1)], 0);
        m.db(1).search(&[TermId(2)], 0);
        assert_eq!(m.total_probes(), 3);
        m.reset_probes();
        assert_eq!(m.total_probes(), 0);
    }

    #[test]
    fn max_size_hint_spans_the_fleet() {
        let m = mediator();
        assert_eq!(m.max_size_hint(), 20);
    }

    #[test]
    fn df_postings_are_the_summaries_term_major() {
        let df = |pairs: &[(u32, u32)]| pairs.iter().map(|&(t, d)| (TermId(t), d)).collect();
        let summaries = vec![
            ContentSummary::new(df(&[(0, 4), (2, 1), (5, 0)]), 9),
            ContentSummary::new(df(&[]), 0),
            ContentSummary::new(df(&[(2, 7), (3, 2)]), 8),
            ContentSummary::new(df(&[(0, 1), (2, 2)]), 3),
        ];
        let dbs = (0..4).map(|i| make_db(&format!("d{i}"), 1)).collect();
        let m = Mediator::new(dbs, summaries.clone());
        assert_eq!(m.sizes(), &[9, 0, 8, 3]);
        for t in 0..8 {
            let expected: Vec<(usize, u32)> = summaries
                .iter()
                .enumerate()
                .map(|(db, s)| (db, s.df(TermId(t))))
                .filter(|&(_, d)| d > 0)
                .collect();
            assert_eq!(
                m.df_postings(TermId(t)).collect::<Vec<_>>(),
                expected,
                "term {t}"
            );
        }
        assert_eq!(m.df_postings(TermId(u32::MAX)).len(), 0);
        // Counted, not grown: no slack in either vector.
        let table = &m.summaries;
        assert_eq!(table.postings.len(), 6);
        assert_eq!(table.postings.capacity(), table.postings.len());
        assert_eq!(table.offsets.capacity(), table.offsets.len());
    }

    #[test]
    fn clones_share_the_summaries() {
        let m = mediator();
        let c = m.clone();
        assert!(Arc::ptr_eq(&m.summaries, &c.summaries));
        assert_eq!(c.summary(1), m.summary(1));
    }

    #[test]
    #[should_panic(expected = "align")]
    fn rejects_misaligned_inputs() {
        let dbs = vec![make_db("a", 1)];
        Mediator::new(dbs, vec![]);
    }
}
