//! The metasearcher: train once, then answer queries with
//! certainty-controlled database selection and result fusion.
//!
//! Query-time selection ([`Metasearcher::select_rd`],
//! [`Metasearcher::select_adaptive`], [`Metasearcher::search`]) runs on
//! one-pass sweeps over the merged RD support ([`crate::engine`],
//! [`crate::expected`]), sequentially on the caller's thread.

use crate::config::CoreConfig;
use crate::correctness::CorrectnessMetric;
use crate::ed::EdLibrary;
use crate::estimator::{estimate_all, RelevancyEstimator};
use crate::expected::RdState;
use crate::fusion::{fuse, FusedHit};
use crate::probing::{apro, AproConfig, AproOutcome, ProbePolicy};
use crate::relevancy::RelevancyDef;
use crate::selection::{baseline_select, best_set};
use mp_hidden::Mediator;
use mp_workload::Query;

/// The end-to-end result of one metasearch.
///
/// `PartialEq` compares every field exactly (probe traces, fused
/// scores, certainties bit-for-bit) — the serving layer's equivalence
/// tests use it to prove concurrent serving returns value-identical
/// results to sequential search.
#[derive(Debug, Clone, PartialEq)]
pub struct MetasearchResult {
    /// The probing/selection trace.
    pub outcome: AproOutcome,
    /// Fused top documents from the selected databases.
    pub hits: Vec<FusedHit>,
    /// Query-time probes spent (selection probes; fusion queries to the
    /// k selected databases are the unavoidable final dispatch and are
    /// reported separately by the mediator's counters).
    pub probes_used: usize,
}

/// A trained probabilistic metasearcher (paper Figure 1's middle box):
/// one mediator, estimator, relevancy definition and ED library over
/// the whole fleet, in index order.
pub struct Metasearcher {
    mediator: Mediator,
    estimator: Box<dyn RelevancyEstimator>,
    def: RelevancyDef,
    library: EdLibrary,
}

impl std::fmt::Debug for Metasearcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metasearcher")
            .field("databases", &self.mediator.len())
            .field("estimator", &self.estimator.name())
            .field("relevancy", &self.def.to_string())
            .finish()
    }
}

impl Metasearcher {
    /// Trains a metasearcher: learns the ED library by sampling every
    /// mediated database with the training queries (offline phase;
    /// probe counters are reset afterwards so query-time accounting
    /// starts clean).
    pub fn train(
        mediator: Mediator,
        estimator: Box<dyn RelevancyEstimator>,
        def: RelevancyDef,
        train_queries: &[Query],
        config: CoreConfig,
    ) -> Self {
        let library = EdLibrary::train(&mediator, estimator.as_ref(), def, train_queries, &config);
        mediator.reset_probes();
        Self::with_library(mediator, estimator, def, library)
    }

    /// Assembles a metasearcher around a pre-trained library (used by
    /// the experiment harness to share one training pass across runs).
    pub fn with_library(
        mediator: Mediator,
        estimator: Box<dyn RelevancyEstimator>,
        def: RelevancyDef,
        library: EdLibrary,
    ) -> Self {
        assert_eq!(
            mediator.len(),
            library.n_databases(),
            "library does not cover the mediated databases"
        );
        Self {
            mediator,
            estimator,
            def,
            library,
        }
    }

    /// Wraps the facade in an [`Arc`](std::sync::Arc) — the cheap,
    /// cloneable handle concurrent serving tiers share across worker
    /// threads. The facade is immutable after training and every field
    /// is `Send + Sync`, so no locking is involved.
    pub fn shared(self) -> std::sync::Arc<Self> {
        std::sync::Arc::new(self)
    }

    /// The mediated databases.
    pub fn mediator(&self) -> &Mediator {
        &self.mediator
    }

    /// The learned ED library.
    pub fn library(&self) -> &EdLibrary {
        &self.library
    }

    /// The relevancy definition in force.
    pub fn relevancy_def(&self) -> RelevancyDef {
        self.def
    }

    /// Point estimates `r̂(db_i, q)` for every database
    /// ([`estimate_all`]).
    pub fn estimates(&self, query: &Query) -> Vec<f64> {
        estimate_all(self.estimator.as_ref(), &self.mediator, query)
    }

    /// Baseline selection (pure estimate ranking, paper Section 2.2).
    pub fn select_baseline(&self, query: &Query, k: usize) -> Vec<usize> {
        baseline_select(&self.estimates(query), k)
    }

    /// RD-based selection with no probing (paper Section 3.3), returning
    /// the set and its expected correctness.
    pub fn select_rd(
        &self,
        query: &Query,
        k: usize,
        metric: CorrectnessMetric,
    ) -> (Vec<usize>, f64) {
        let state = RdState::for_query(&self.estimates(query), query, &self.library);
        best_set(&state, k, metric)
    }

    /// Full adaptive selection: RD-based start, then `APro` probing via
    /// `policy` until the certainty threshold is met (paper Section 5).
    pub fn select_adaptive(
        &self,
        query: &Query,
        config: AproConfig,
        policy: &mut dyn ProbePolicy,
    ) -> AproOutcome {
        let mut state = RdState::for_query(&self.estimates(query), query, &self.library);
        let probe_top_n = self.library.config().probe_top_n;
        let mut probe_fn = |i: usize| self.def.probe(self.mediator.db(i), query, probe_top_n);
        apro(&mut state, config, policy, &mut probe_fn)
    }

    /// End-to-end metasearch (paper Figure 1): adaptive selection, then
    /// dispatch the query to the selected databases and fuse their
    /// results into one ranked list of at most `fuse_limit` hits.
    pub fn search(
        &self,
        query: &Query,
        config: AproConfig,
        policy: &mut dyn ProbePolicy,
        fuse_limit: usize,
    ) -> MetasearchResult {
        let outcome = self.select_adaptive(query, config, policy);
        let top_n = self.library.config().probe_top_n.max(fuse_limit);
        let responses: Vec<_> = outcome
            .selected
            .iter()
            .map(|&i| (i, self.mediator.db(i).search(query.terms(), top_n)))
            .collect();
        let hits = fuse(&responses, fuse_limit);
        MetasearchResult {
            probes_used: outcome.n_probes(),
            outcome,
            hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::IndependenceEstimator;
    use crate::probing::GreedyPolicy;
    use mp_hidden::{ContentSummary, HiddenWebDatabase, SimulatedHiddenDb};
    use mp_index::{Document, IndexBuilder};
    use mp_text::TermId;
    use std::sync::Arc;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    /// Two tiny databases with *correlated* terms in db1 so the
    /// independence estimator underestimates it, mirroring the paper's
    /// motivating example.
    fn mediator() -> Mediator {
        // db0: terms 0 and 1 anti-correlated (never co-occur).
        let mut b0 = IndexBuilder::new();
        for i in 0..100u32 {
            let mut d = Document::new();
            if i < 50 {
                d.add_term(t(0), 1);
            } else {
                d.add_term(t(1), 1);
            }
            d.add_term(t(2), 1);
            b0.add(d);
        }
        // db1: terms 0 and 1 perfectly correlated (always together in
        // 30 docs); term 3 in docs 25..45 (partially overlapping term 0)
        // so the low-coverage ED on db1 has two distinct error bins and
        // the derived RDs are genuinely uncertain.
        let mut b1 = IndexBuilder::new();
        for i in 0..100u32 {
            let mut d = Document::new();
            if i < 30 {
                d.add_term(t(0), 1);
                d.add_term(t(1), 1);
            }
            if (25..45).contains(&i) {
                d.add_term(t(3), 1);
            }
            d.add_term(t(2), 1);
            b1.add(d);
        }
        let dbs: Vec<Arc<dyn HiddenWebDatabase>> = vec![
            Arc::new(SimulatedHiddenDb::new("anti", b0.build())),
            Arc::new(SimulatedHiddenDb::new("corr", b1.build())),
        ];
        let summaries = dbs
            .iter()
            .map(|d| {
                ContentSummary::new(
                    (0..4u32)
                        .map(|i| (t(i), d.search(&[t(i)], 0).match_count))
                        .collect(),
                    d.size_hint().unwrap(),
                )
            })
            .collect();
        let m = Mediator::new(dbs, summaries);
        m.reset_probes();
        m
    }

    fn train_queries() -> Vec<Query> {
        // 2-term queries over the correlated pair, repeated so EDs have
        // mass, plus single-term queries for the other leaves.
        let mut qs = Vec::new();
        for _ in 0..5 {
            qs.push(Query::new([t(0), t(1)]));
            qs.push(Query::new([t(0), t(2)]));
            qs.push(Query::new([t(1), t(2)]));
            // Low-coverage on both databases, with a *different* error
            // than [t0, t1]'s on db1 — giving that ED two bins.
            qs.push(Query::new([t(0), t(3)]));
        }
        qs
    }

    fn metasearcher() -> Metasearcher {
        let config = CoreConfig::default().with_threshold(20.0);
        Metasearcher::train(
            mediator(),
            Box::new(IndependenceEstimator),
            RelevancyDef::DocFrequency,
            &train_queries(),
            config,
        )
    }

    #[test]
    fn training_resets_probe_counters() {
        let ms = metasearcher();
        assert_eq!(ms.mediator().total_probes(), 0);
    }

    #[test]
    fn estimates_follow_eq1() {
        let ms = metasearcher();
        let q = Query::new([t(0), t(1)]);
        let est = ms.estimates(&q);
        // db0: 100·(50/100)·(50/100) = 25; db1: 100·(30/100)·(30/100) = 9.
        assert!((est[0] - 25.0).abs() < 1e-9);
        assert!((est[1] - 9.0).abs() < 1e-9);
    }

    #[test]
    fn baseline_is_fooled_rd_is_not() {
        // Actual matches: db0 = 0 (anti-correlated), db1 = 30. The
        // baseline ranks db0 first (25 > 9); the trained RD-based
        // method picks db1.
        let ms = metasearcher();
        let q = Query::new([t(0), t(1)]);
        assert_eq!(ms.select_baseline(&q, 1), vec![0]);
        let (set, conf) = ms.select_rd(&q, 1, CorrectnessMetric::Absolute);
        assert_eq!(set, vec![1], "RD-based selection must correct the error");
        assert!(conf > 0.5);
    }

    #[test]
    fn adaptive_probing_reaches_certainty() {
        let ms = metasearcher();
        let q = Query::new([t(0), t(1)]);
        let mut policy = GreedyPolicy;
        let out = ms.select_adaptive(
            &q,
            AproConfig {
                k: 1,
                threshold: 1.0,
                metric: CorrectnessMetric::Absolute,
                max_probes: None,
            },
            &mut policy,
        );
        assert!(out.satisfied);
        assert_eq!(out.selected, vec![1]);
        assert_eq!(out.expected, 1.0);
        assert!(out.n_probes() >= 1);
        // Probes hit the real databases.
        assert_eq!(ms.mediator().total_probes(), out.n_probes() as u64);
    }

    #[test]
    fn end_to_end_search_returns_fused_hits() {
        let ms = metasearcher();
        let q = Query::new([t(0), t(1)]);
        let mut policy = GreedyPolicy;
        let result = ms.search(
            &q,
            AproConfig {
                k: 1,
                threshold: 0.8,
                metric: CorrectnessMetric::Absolute,
                max_probes: None,
            },
            &mut policy,
            5,
        );
        assert!(!result.hits.is_empty(), "db1 has 30 matching docs");
        assert!(result.hits.iter().all(|h| h.db == 1));
        assert!(result.hits.len() <= 5);
    }

    #[test]
    fn with_library_checks_coverage() {
        let ms = metasearcher();
        let lib = ms.library().clone();
        let rebuilt = Metasearcher::with_library(
            mediator(),
            Box::new(IndependenceEstimator),
            RelevancyDef::DocFrequency,
            lib,
        );
        assert_eq!(rebuilt.mediator().len(), 2);
    }
}
