//! Result fusion (the paper's "task 2", Section 1): merging the result
//! lists returned by the selected databases into one ranked list.
//!
//! The paper focuses on database selection and leaves fusion to standard
//! techniques; we implement score-normalized merging (each database's
//! scores are divided by its own maximum before interleaving), the
//! classic remedy for incomparable cross-engine scores.

use mp_hidden::SearchResponse;
use mp_index::DocId;
use serde::{Deserialize, Serialize};

/// One fused result: a document from one of the selected databases.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FusedHit {
    /// Index of the source database within the mediator.
    pub db: usize,
    /// Document id within that database.
    pub doc: DocId,
    /// Normalized score in `(0, 1]`.
    pub score: f64,
}

/// Merges per-database responses into one ranked list of at most
/// `limit` hits.
///
/// Scores are max-normalized per database; ties break by `(db, doc)` so
/// the output is deterministic.
pub fn fuse(responses: &[(usize, SearchResponse)], limit: usize) -> Vec<FusedHit> {
    let mut hits = Vec::new();
    for (db, resp) in responses {
        let max = resp.top_docs.iter().map(|d| d.score).fold(0.0f64, f64::max);
        if max <= 0.0 {
            continue;
        }
        for d in &resp.top_docs {
            hits.push(FusedHit {
                db: *db,
                doc: d.doc,
                score: d.score / max,
            });
        }
    }
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("scores are finite")
            .then(a.db.cmp(&b.db))
            .then(a.doc.cmp(&b.doc))
    });
    hits.truncate(limit);
    hits
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::cast_possible_truncation,
        reason = "test lists are a handful of documents long"
    )]

    use super::*;
    use mp_index::ScoredDoc;

    fn resp(scores: &[f64]) -> SearchResponse {
        SearchResponse {
            match_count: scores.len() as u32,
            top_docs: scores
                .iter()
                .enumerate()
                .map(|(i, &s)| ScoredDoc {
                    doc: DocId(i as u32),
                    score: s,
                })
                .collect(),
        }
    }

    #[test]
    fn normalizes_per_database() {
        // db0 scores in [0, 0.2]; db1 in [0, 0.9]. After max-norm both
        // leaders tie at 1.0 and db0 wins the tie deterministically.
        let fused = fuse(&[(0, resp(&[0.2, 0.1])), (1, resp(&[0.9, 0.45]))], 10);
        assert_eq!(fused.len(), 4);
        assert_eq!(fused[0].db, 0);
        assert_eq!(fused[1].db, 1);
        assert!((fused[0].score - 1.0).abs() < 1e-12);
        assert!((fused[1].score - 1.0).abs() < 1e-12);
        assert!((fused[2].score - 0.5).abs() < 1e-12);
    }

    #[test]
    fn respects_limit() {
        let fused = fuse(&[(0, resp(&[0.5, 0.4, 0.3]))], 2);
        assert_eq!(fused.len(), 2);
    }

    #[test]
    fn skips_empty_and_zero_score_responses() {
        let fused = fuse(&[(0, resp(&[])), (1, resp(&[0.7]))], 10);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].db, 1);
    }

    #[test]
    fn output_is_sorted_descending() {
        let fused = fuse(&[(0, resp(&[0.9, 0.3])), (1, resp(&[0.8, 0.2, 0.6]))], 10);
        for w in fused.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
