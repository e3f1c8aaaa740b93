//! The golden standard: actual relevancies of every test query on every
//! database (paper Section 6.1: "For each query in Q_test, we issue it
//! to the 20 databases, get the number-of-matching-documents of each
//! database, and record the top-k databases DBtopk as the correct
//! answer").

use crate::par::par_map;
use mp_core::correctness::golden_topk;
use mp_core::RelevancyDef;
use mp_hidden::Mediator;
use mp_workload::Query;
use serde::{Deserialize, Serialize};

/// Actual relevancies, indexed `[query][database]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenStandard {
    actuals: Vec<Vec<f64>>,
}

impl GoldenStandard {
    /// Issues every query to every database, the queries spread over
    /// the cores, and records the actual relevancies. The probes spent
    /// here are evaluation bookkeeping (the *experimenter's* golden
    /// standard), not metasearcher cost — callers reset the mediator's
    /// probe counters afterwards.
    pub fn build(
        mediator: &Mediator,
        queries: &[Query],
        def: RelevancyDef,
        probe_top_n: usize,
    ) -> Self {
        let actuals = par_map(queries.len(), |qi| {
            (0..mediator.len())
                .map(|i| def.probe(mediator.db(i), &queries[qi], probe_top_n))
                .collect()
        });
        Self { actuals }
    }

    /// Builds from precomputed relevancies (tests).
    pub fn from_actuals(actuals: Vec<Vec<f64>>) -> Self {
        Self { actuals }
    }

    /// Number of queries covered.
    pub fn n_queries(&self) -> usize {
        self.actuals.len()
    }

    /// Actual relevancy of query `q` on database `db`.
    pub fn actual(&self, q: usize, db: usize) -> f64 {
        self.actuals[q][db]
    }

    /// All actual relevancies for query `q` (index-aligned with the
    /// mediator).
    pub fn actuals(&self, q: usize) -> &[f64] {
        &self.actuals[q]
    }

    /// The true top-k for query `q` under the library tie-break.
    pub fn topk(&self, q: usize, k: usize) -> Vec<usize> {
        golden_topk(&self.actuals[q], k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_uses_actuals() {
        let g = GoldenStandard::from_actuals(vec![vec![5.0, 9.0, 1.0], vec![0.0, 0.0, 2.0]]);
        assert_eq!(g.n_queries(), 2);
        assert_eq!(g.topk(0, 1), vec![1]);
        assert_eq!(g.topk(0, 2), vec![1, 0]);
        assert_eq!(g.topk(1, 1), vec![2]);
        // Ties rank lower index first.
        assert_eq!(g.topk(1, 2), vec![2, 0]);
        assert_eq!(g.actual(0, 2), 1.0);
    }
}
