//! Per-database statistical summaries: the `(term, df)` table.
//!
//! The paper's estimators consult a locally stored summary of each
//! database — Figure 2's "term vs. number of appearances" table plus the
//! database size. Two construction modes:
//!
//! * [`ContentSummary::cooperative`] — the database exports exact
//!   statistics (STARTS-style metadata); what the paper's experiments
//!   effectively assume when they compute Eq. 1 from true df values.
//! * [`ContentSummary::from_sampling`] — the summary is *estimated* by
//!   query-based sampling (in the spirit of Callan-style query-based
//!   sampling / the focused probing of the paper's reference \[8\]): issue
//!   seed-term queries, download top documents, count dfs in the sample,
//!   and scale to the (known or estimated) database size. Used by the
//!   summary-quality ablation.

use crate::db::HiddenWebDatabase;
use mp_index::InvertedIndex;
use mp_text::TermId;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A statistical summary of one database: document frequencies and size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentSummary {
    df: HashMap<TermId, u32>,
    size: u32,
}

impl ContentSummary {
    /// Builds a summary from explicit parts.
    pub fn new(df: HashMap<TermId, u32>, size: u32) -> Self {
        Self { df, size }
    }

    /// Exact summary exported by a cooperative database.
    pub fn cooperative(index: &InvertedIndex) -> Self {
        let (df, size) = index.df_summary();
        Self { df, size }
    }

    /// Estimated summary via query-based sampling.
    ///
    /// Issues up to `n_queries` single-term probe queries drawn from
    /// `seed_terms`, downloads up to `docs_per_query` top documents per
    /// query, counts document frequencies over the distinct sampled
    /// documents, and scales counts to the database size (the exported
    /// `size_hint`, or an extrapolation from sample match counts when
    /// the site hides its size).
    ///
    /// Which probe terms get drawn depends only on the *set* of seed
    /// terms and on `rng`: the seeds are sorted and deduplicated before
    /// the draw, so callers may pass them in any order (for instance
    /// straight from another summary's [`Self::iter`]).
    ///
    /// The probes issued here are *offline* (summary construction
    /// happens before query time), so callers typically
    /// [`reset_probes`](HiddenWebDatabase::reset_probes) afterwards.
    pub fn from_sampling<R: Rng + ?Sized>(
        db: &dyn HiddenWebDatabase,
        seed_terms: &[TermId],
        n_queries: usize,
        docs_per_query: usize,
        rng: &mut R,
    ) -> Self {
        assert!(!seed_terms.is_empty(), "sampling needs seed terms");
        // Draw probe terms without replacement (partial Fisher–Yates) so
        // a small query budget still covers distinct vocabulary.
        let mut terms = seed_terms.to_vec();
        terms.sort_unstable();
        terms.dedup();
        let take = n_queries.min(terms.len());
        for i in 0..take {
            let j = rng.gen_range(i..terms.len());
            terms.swap(i, j);
        }
        let mut sampled: HashMap<mp_index::DocId, mp_index::Document> = HashMap::new();
        let mut match_counts: Vec<u32> = Vec::new();
        for &term in &terms[..take] {
            let resp = db.search(&[term], docs_per_query);
            match_counts.push(resp.match_count);
            for hit in resp.top_docs {
                sampled.entry(hit.doc).or_insert_with(|| db.fetch(hit.doc));
            }
        }
        let sample_size = u32::try_from(sampled.len())
            .expect("sample sizes are bounded by queries issued, far below u32::MAX");
        // Raw dfs over the sample.
        let mut df: HashMap<TermId, u32> = HashMap::new();
        // mp-lint: allow(L10): u32 increments commute — visit order cannot change a df count
        for doc in sampled.values() {
            for (term, _) in doc.terms() {
                *df.entry(term).or_insert(0) += 1;
            }
        }
        // Scale sample dfs to full-database dfs.
        let size = db.size_hint().unwrap_or_else(|| {
            // Size not exported: take the largest observed single-term
            // match count as a lower-bound size proxy (the paper
            // estimates sizes "by issuing a query with common terms").
            match_counts
                .iter()
                .copied()
                .max()
                .unwrap_or(sample_size)
                .max(sample_size)
        });
        if sample_size > 0 && size > sample_size {
            let scale = f64::from(size) / f64::from(sample_size);
            // mp-lint: allow(L10): element-wise scaling rewrites each entry independently
            for v in df.values_mut() {
                let scaled = (f64::from(*v) * scale).max(1.0);
                // A scaled df cannot exceed the database size; saturate
                // anyway so a pathological hint cannot wrap.
                *v = mp_stats::float::round_u32(scaled).unwrap_or(u32::MAX);
            }
        }
        // mp-lint: allow(L10): element-wise clamp, order-free like the scaling above
        for v in df.values_mut() {
            *v = (*v).min(size);
        }
        Self { df, size }
    }

    /// Document frequency of `term` according to the summary (0 if the
    /// term is not in the summary).
    pub fn df(&self, term: TermId) -> u32 {
        self.df.get(&term).copied().unwrap_or(0)
    }

    /// Database size `|db|` according to the summary.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Number of summarized terms.
    pub fn term_count(&self) -> usize {
        self.df.len()
    }

    /// Iterates `(term, df)` pairs (arbitrary order — callers needing a
    /// stable order must sort; the doc comment is the contract).
    pub fn iter(&self) -> impl Iterator<Item = (TermId, u32)> + '_ {
        // mp-lint: allow(L10): arbitrary order is this accessor's documented contract
        self.df.iter().map(|(&t, &d)| (t, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::SimulatedHiddenDb;
    use mp_index::{Document, IndexBuilder};
    use rand::{rngs::StdRng, SeedableRng};

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn db_with_docs(docs: &[&[u32]]) -> SimulatedHiddenDb {
        let mut b = IndexBuilder::new();
        for d in docs {
            b.add(Document::from_terms(d.iter().map(|&i| t(i))));
        }
        SimulatedHiddenDb::new("db", b.build())
    }

    #[test]
    fn cooperative_summary_is_exact() {
        let db = db_with_docs(&[&[1, 2], &[1], &[3]]);
        let s = ContentSummary::cooperative(db.index_for_golden());
        assert_eq!(s.size(), 3);
        assert_eq!(s.df(t(1)), 2);
        assert_eq!(s.df(t(2)), 1);
        assert_eq!(s.df(t(9)), 0);
        assert_eq!(s.term_count(), 3);
    }

    #[test]
    fn paper_figure2_summary() {
        // db1: 20,000 docs; "breast" in 2,000, "cancer" in 1,000 — the
        // worked example's summary shape (values scaled down 10x to keep
        // the test fast; ratios preserved).
        let mut b = IndexBuilder::new();
        for i in 0..2000u32 {
            let mut doc = Document::new();
            if i < 200 {
                doc.add_term(t(0), 1); // breast
            }
            if (150..250).contains(&i) {
                doc.add_term(t(1), 1); // cancer
            }
            doc.add_term(t(2), 1); // filler so no doc is empty
            b.add(doc);
        }
        let s = ContentSummary::cooperative(&b.build());
        assert_eq!(s.size(), 2000);
        assert_eq!(s.df(t(0)), 200);
        assert_eq!(s.df(t(1)), 100);
    }

    #[test]
    fn sampled_summary_approximates_cooperative() {
        // A corpus where term 1 is in every doc and term 2 in half.
        let docs: Vec<Vec<u32>> = (0..200)
            .map(|i| if i % 2 == 0 { vec![1, 2] } else { vec![1, 3] })
            .collect();
        let refs: Vec<&[u32]> = docs.iter().map(Vec::as_slice).collect();
        let db = db_with_docs(&refs);
        let mut rng = StdRng::seed_from_u64(4);
        let s = ContentSummary::from_sampling(&db, &[t(1), t(2), t(3)], 3, 50, &mut rng);
        assert_eq!(s.size(), 200);
        // df(t1) should be near 200, df(t2) near 100 after scaling.
        let df1 = s.df(t(1)) as f64;
        let df2 = s.df(t(2)) as f64;
        assert!(df1 > 120.0, "df1={df1}");
        assert!(df2 > 30.0 && df2 < 170.0, "df2={df2}");
        assert!(s.df(t(1)) <= 200);
    }

    #[test]
    fn sampling_consumes_probes() {
        let db = db_with_docs(&[&[1], &[1, 2]]);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = ContentSummary::from_sampling(&db, &[t(1), t(2)], 2, 5, &mut rng);
        assert!(db.probe_count() >= 1);
        db.reset_probes();
        assert_eq!(db.probe_count(), 0);
    }

    #[test]
    fn sampling_without_size_export_estimates_size() {
        let docs: Vec<Vec<u32>> = (0..50).map(|_| vec![1]).collect();
        let refs: Vec<&[u32]> = docs.iter().map(Vec::as_slice).collect();
        let mut b = IndexBuilder::new();
        for d in &refs {
            b.add(Document::from_terms(d.iter().map(|&i| t(i))));
        }
        let db = SimulatedHiddenDb::new("nosize", b.build()).without_size_export();
        let mut rng = StdRng::seed_from_u64(1);
        let s = ContentSummary::from_sampling(&db, &[t(1)], 1, 10, &mut rng);
        // The single-term match count (50) becomes the size proxy.
        assert_eq!(s.size(), 50);
    }

    #[test]
    fn seed_term_order_does_not_change_the_sample() {
        // Each term matches its own slice of the documents, so which
        // terms the draw picks decides which documents get sampled.
        let docs: Vec<Vec<u32>> = (0..70u32).map(|i| vec![i % 10, 10 + i % 7]).collect();
        let refs: Vec<&[u32]> = docs.iter().map(Vec::as_slice).collect();
        let db = db_with_docs(&refs);
        let forward: Vec<TermId> = (0..17).map(t).collect();
        let mut shuffled: Vec<TermId> = forward.iter().rev().copied().collect();
        shuffled.extend([t(3), t(12)]); // duplicates are dropped too
        let a = ContentSummary::from_sampling(&db, &forward, 3, 4, &mut StdRng::seed_from_u64(5));
        let b = ContentSummary::from_sampling(&db, &shuffled, 3, 4, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn df_never_exceeds_size() {
        let docs: Vec<Vec<u32>> = (0..30).map(|_| vec![1, 2]).collect();
        let refs: Vec<&[u32]> = docs.iter().map(Vec::as_slice).collect();
        let db = db_with_docs(&refs);
        let mut rng = StdRng::seed_from_u64(9);
        let s = ContentSummary::from_sampling(&db, &[t(1), t(2)], 5, 3, &mut rng);
        for (_, df) in s.iter() {
            assert!(df <= s.size());
        }
    }
}
