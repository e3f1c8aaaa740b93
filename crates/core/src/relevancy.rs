//! The two relevancy definitions and their live measurement via probing.

use mp_hidden::HiddenWebDatabase;
use mp_workload::Query;
use serde::{Deserialize, Serialize};

/// Which notion of database relevancy is in force (paper Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RelevancyDef {
    /// Document-frequency-based: the number of documents matching *all*
    /// query keywords. Used by the paper's experiments.
    DocFrequency,
    /// Document-similarity-based: the tf-idf cosine similarity of the
    /// most relevant document.
    DocSimilarity,
}

impl RelevancyDef {
    /// Measures the **actual** relevancy `r(db, q)` by probing the
    /// database with the live query (paper Section 3.4). Costs one
    /// probe.
    ///
    /// Under [`RelevancyDef::DocFrequency`] the answer page's match
    /// count is the relevancy; under [`RelevancyDef::DocSimilarity`] the
    /// top `top_n` documents are downloaded and the best similarity is
    /// the relevancy.
    pub fn probe(&self, db: &dyn HiddenWebDatabase, query: &Query, top_n: usize) -> f64 {
        match self {
            RelevancyDef::DocFrequency => db.search(query.terms(), 0).match_count as f64,
            RelevancyDef::DocSimilarity => db.search(query.terms(), top_n.max(1)).top_similarity(),
        }
    }
}

impl std::fmt::Display for RelevancyDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelevancyDef::DocFrequency => write!(f, "document-frequency"),
            RelevancyDef::DocSimilarity => write!(f, "document-similarity"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_hidden::SimulatedHiddenDb;
    use mp_index::{Document, IndexBuilder};
    use mp_text::TermId;

    fn db() -> SimulatedHiddenDb {
        let mut b = IndexBuilder::new();
        b.add(Document::from_terms([TermId(1), TermId(2)]));
        b.add(Document::from_terms([TermId(1)]));
        SimulatedHiddenDb::new("db", b.build())
    }

    #[test]
    fn doc_frequency_probe_counts_matches() {
        let db = db();
        let q = Query::new([TermId(1)]);
        assert_eq!(RelevancyDef::DocFrequency.probe(&db, &q, 0), 2.0);
        let q2 = Query::new([TermId(1), TermId(2)]);
        assert_eq!(RelevancyDef::DocFrequency.probe(&db, &q2, 0), 1.0);
        assert_eq!(db.probe_count(), 2);
    }

    #[test]
    fn doc_similarity_probe_scores_best_doc() {
        let db = db();
        let q = Query::new([TermId(1), TermId(2)]);
        let sim = RelevancyDef::DocSimilarity.probe(&db, &q, 5);
        assert!(sim > 0.9, "exact match should score near 1: {sim}");
        let none = RelevancyDef::DocSimilarity.probe(&db, &Query::new([TermId(9)]), 5);
        assert_eq!(none, 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(RelevancyDef::DocFrequency.to_string(), "document-frequency");
        assert_eq!(
            RelevancyDef::DocSimilarity.to_string(),
            "document-similarity"
        );
    }
}
