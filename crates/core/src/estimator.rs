//! Summary-based relevancy estimators.

use mp_hidden::Mediator;
use mp_stats::float::exact_zero;
use mp_workload::Query;

/// A relevancy estimator: predicts `r̂(db, q)` from a locally stored
/// summary, without contacting the database.
pub trait RelevancyEstimator: Send + Sync {
    /// Short stable name (for reports).
    fn name(&self) -> &str;

    /// The estimated relevancy `r̂(db, q)` from the summary's figures for
    /// the query: the database size `|db|` and `df(db, t)` for each query
    /// term `t`, in query order (0 for a term the summary lacks).
    fn estimate(&self, size: u32, dfs: &[u32]) -> f64;
}

/// Every database's estimate for `query`, in index order: the one path
/// from a fleet's summaries to its estimates.
///
/// The query's dfs are gathered term-major, from the mediator's df
/// postings ([`Mediator::df_postings`]), into one row per database; each
/// row then goes to [`RelevancyEstimator::estimate`] with its database's
/// size.
pub fn estimate_all(
    estimator: &dyn RelevancyEstimator,
    mediator: &Mediator,
    query: &Query,
) -> Vec<f64> {
    let terms = query.terms();
    let width = terms.len();
    // `dfs[db * width + j]` is `df(db, terms[j])`.
    let mut dfs = vec![0; mediator.len() * width];
    for (j, &term) in terms.iter().enumerate() {
        for (db, df) in mediator.df_postings(term) {
            dfs[db * width + j] = df;
        }
    }
    mediator
        .sizes()
        .iter()
        .enumerate()
        .map(|(db, &size)| estimator.estimate(size, &dfs[db * width..(db + 1) * width]))
        .collect()
}

/// The term-independence estimator of paper Eq. 1:
///
/// ```text
/// r̂(db, q) = |db| · Π_{t ∈ q} ( df(db, t) / |db| )
/// ```
///
/// the expected number of documents matching *all* query terms if the
/// terms were independently distributed — the assumption whose failures
/// (Section 2.3) the probabilistic relevancy model exists to absorb.
///
/// Edge cases: an empty database estimates 0 for every query; a query
/// term absent from the summary zeroes the product (callers apply the
/// [`crate::config::EST_FLOOR`] before computing relative errors).
#[derive(Debug, Clone, Copy, Default)]
pub struct IndependenceEstimator;

impl RelevancyEstimator for IndependenceEstimator {
    fn name(&self) -> &str {
        "term-independence"
    }

    fn estimate(&self, size: u32, dfs: &[u32]) -> f64 {
        let n = f64::from(size);
        if exact_zero(n) {
            return 0.0;
        }
        let mut est = n;
        for &df in dfs {
            est *= f64::from(df) / n;
            if exact_zero(est) {
                return 0.0;
            }
        }
        est
    }
}

/// A GlOSS-style estimator for the document-similarity relevancy
/// definition: predicts the best achievable query-document cosine
/// similarity from summary statistics alone.
///
/// The estimate is the similarity the query would have with an *ideal
/// matching document* — one containing exactly the query's
/// summary-covered terms once each:
///
/// ```text
/// est = sqrt( Σ_{t ∈ q, df(t) > 0} w_t² )  /  sqrt( Σ_{t ∈ q} w_t² )
/// ```
///
/// with `w_t = ln(1 + |db| / (1 + df(t)))` (the same smoothed idf the
/// engine uses). The estimate is 1 when every query term occurs in the
/// database and decays as high-idf terms are missing. Like Eq. 1 it
/// ignores co-occurrence — no summary can see it — so it exhibits the
/// same non-uniform error behaviour the probabilistic model corrects.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxSimilarityEstimator;

impl RelevancyEstimator for MaxSimilarityEstimator {
    fn name(&self) -> &str {
        "max-similarity"
    }

    fn estimate(&self, size: u32, dfs: &[u32]) -> f64 {
        let n = f64::from(size);
        if exact_zero(n) {
            return 0.0;
        }
        let mut covered = 0.0;
        let mut total = 0.0;
        for &df in dfs {
            let df = f64::from(df);
            let w = (1.0 + n / (1.0 + df)).ln();
            total += w * w;
            if df > 0.0 {
                covered += w * w;
            }
        }
        if exact_zero(total) {
            0.0
        } else {
            (covered / total).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_hidden::{ContentSummary, HiddenWebDatabase, SimulatedHiddenDb};
    use mp_index::{Document, IndexBuilder};
    use mp_text::TermId;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn paper_example1_db1() {
        // db1: 20,000 docs; breast in 2,000; cancer in 1,000.
        // r̂(db1, "breast cancer") = 20000 · (2000/20000) · (1000/20000) = 100.
        let est = IndependenceEstimator.estimate(20_000, &[2_000, 1_000]);
        assert!((est - 100.0).abs() < 1e-9, "est={est}");
    }

    #[test]
    fn paper_example1_db2() {
        // db2: 20,000 docs; breast in 2,600; cancer in 5,000 → 650.
        let est = IndependenceEstimator.estimate(20_000, &[2_600, 5_000]);
        assert!((est - 650.0).abs() < 1e-9, "est={est}");
    }

    #[test]
    fn single_term_estimate_is_df() {
        let est = IndependenceEstimator.estimate(1_000, &[42]);
        assert!((est - 42.0).abs() < 1e-12);
    }

    #[test]
    fn missing_term_zeroes_estimate() {
        assert_eq!(IndependenceEstimator.estimate(1_000, &[500, 0]), 0.0);
    }

    #[test]
    fn empty_database_estimates_zero() {
        assert_eq!(IndependenceEstimator.estimate(0, &[0]), 0.0);
        assert_eq!(MaxSimilarityEstimator.estimate(0, &[0]), 0.0);
    }

    #[test]
    fn estimate_never_exceeds_min_df() {
        // Π df_i/n × n ≤ min df (each extra factor ≤ 1).
        let est = IndependenceEstimator.estimate(100, &[60, 10]);
        assert!(est <= 10.0 + 1e-12);
        assert!(est > 0.0);
    }

    #[test]
    fn max_similarity_full_coverage_is_one() {
        let est = MaxSimilarityEstimator.estimate(100, &[5, 30]);
        assert!((est - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_similarity_decays_with_missing_rare_terms() {
        // t1 missing entirely.
        let est = MaxSimilarityEstimator.estimate(100, &[90, 0]);
        assert!(est > 0.0 && est < 0.7, "est={est}");
        // Missing a *rare* (high-idf) term hurts more than it would to
        // miss a common one, so est is well below 1.
    }

    #[test]
    fn estimator_names() {
        assert_eq!(IndependenceEstimator.name(), "term-independence");
        assert_eq!(MaxSimilarityEstimator.name(), "max-similarity");
    }

    /// The per-summary loop [`estimate_all`] replaced: one hash lookup
    /// per (database, term), database by database.
    fn per_summary(
        estimator: &dyn RelevancyEstimator,
        mediator: &Mediator,
        query: &Query,
    ) -> Vec<f64> {
        mediator
            .summaries()
            .iter()
            .map(|s| {
                let dfs: Vec<u32> = query.terms().iter().map(|&term| s.df(term)).collect();
                estimator.estimate(s.size(), &dfs)
            })
            .collect()
    }

    /// A mediator over `summaries` (the databases behind them are never
    /// searched here).
    fn mediator_over(summaries: Vec<ContentSummary>) -> Mediator {
        let dbs: Vec<Arc<dyn HiddenWebDatabase>> = (0..summaries.len())
            .map(|i| {
                let mut b = IndexBuilder::new();
                b.add(Document::from_terms([t(0)]));
                Arc::new(SimulatedHiddenDb::new(format!("db{i}"), b.build())) as _
            })
            .collect();
        Mediator::new(dbs, summaries)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const ESTIMATORS: [&dyn RelevancyEstimator; 2] =
        [&IndependenceEstimator, &MaxSimilarityEstimator];

    #[test]
    fn fleet_path_equals_the_per_summary_loop_on_edge_summaries() {
        let summary = |size: u32, dfs: &[(u32, u32)]| {
            ContentSummary::new(dfs.iter().map(|&(i, d)| (t(i), d)).collect(), size)
        };
        let m = mediator_over(vec![
            summary(20_000, &[(0, 2_000), (1, 1_000)]),
            summary(0, &[]),
            summary(20_000, &[(0, 2_600), (1, 5_000), (2, 3)]),
            summary(7, &[(1, 7), (2, 0)]),
        ]);
        // Term 9 is in no summary; database 1 is empty.
        let queries = [
            Query::new([t(0), t(1)]),
            Query::new([t(9)]),
            Query::new([t(0), t(9), t(1)]),
            Query::new([t(2), t(1), t(2)]),
        ];
        for estimator in ESTIMATORS {
            for q in &queries {
                let fleet = estimate_all(estimator, &m, q);
                assert_eq!(bits(&fleet), bits(&per_summary(estimator, &m, q)), "{q:?}");
            }
        }
        let paper = estimate_all(&IndependenceEstimator, &m, &queries[0]);
        assert!((paper[0] - 100.0).abs() < 1e-9 && (paper[2] - 650.0).abs() < 1e-9);
        assert_eq!(paper[1], 0.0);
    }

    proptest! {
        #[test]
        fn prop_fleet_path_equals_the_per_summary_loop(
            fleet in proptest::collection::vec(
                (0u32..50, proptest::collection::vec((0u32..12, 0u32..60), 0..8)),
                1..12
            ),
            terms in proptest::collection::vec(0u32..14, 1..4)
        ) {
            let summaries = fleet
                .iter()
                .map(|(size, dfs)| {
                    let map: HashMap<TermId, u32> =
                        dfs.iter().map(|&(i, d)| (t(i), d.min(*size))).collect();
                    ContentSummary::new(map, *size)
                })
                .collect();
            let m = mediator_over(summaries);
            let q = Query::new(terms.iter().map(|&i| t(i)));
            for estimator in ESTIMATORS {
                prop_assert_eq!(
                    bits(&estimate_all(estimator, &m, &q)),
                    bits(&per_summary(estimator, &m, &q))
                );
            }
        }
    }
}
