//! Testbed assembly: scenario → mediator → training → golden standard.

use crate::golden::GoldenStandard;
use mp_core::{CoreConfig, EdLibrary, IndependenceEstimator, RelevancyDef, RelevancyEstimator};
use mp_corpus::{Scenario, ScenarioConfig, ScenarioKind, TopicModel};
use mp_hidden::{ContentSummary, HiddenWebDatabase, Mediator, SimulatedHiddenDb};
use mp_workload::{QueryGenConfig, TrainTestSplit};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How the metasearcher's content summaries are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SummaryMode {
    /// Exact df tables exported by cooperative databases.
    Cooperative,
    /// Query-based sampling estimates (ablation A4): `n_queries`
    /// single-term probes, `docs_per_query` downloads each.
    Sampled {
        /// Number of single-term probe queries per database.
        n_queries: usize,
        /// Top documents downloaded per probe query.
        docs_per_query: usize,
    },
}

/// Everything needed to build a [`Testbed`].
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// The corpus scenario to synthesize.
    pub scenario: ScenarioConfig,
    /// 2-term queries per split side.
    pub n_two: usize,
    /// 3-term queries per split side.
    pub n_three: usize,
    /// Probabilistic-model knobs.
    pub core: CoreConfig,
    /// Relevancy definition under evaluation.
    pub relevancy: RelevancyDef,
    /// Summary construction mode.
    pub summaries: SummaryMode,
    /// Workload generation knobs (seed is taken from `scenario.seed`).
    pub workload: QueryGenConfig,
}

impl TestbedConfig {
    /// The paper-shaped configuration: 20 health databases, 1000 + 1000
    /// train and test queries of each arity (Section 6.1).
    pub fn paper(seed: u64) -> Self {
        Self {
            scenario: ScenarioConfig::new(ScenarioKind::Health, seed),
            n_two: 1000,
            n_three: 1000,
            // The coverage threshold is a corpus-scale-dependent knob:
            // the paper's θ = 100 suits databases of 10⁵–10⁶ documents;
            // on this synthetic testbed (500–8000 docs, sparser term
            // statistics) θ = 0.5 separates covered from uncovered
            // queries the way the paper intends. Ablation A2 sweeps it.
            core: CoreConfig::default().with_threshold(0.5),
            relevancy: RelevancyDef::DocFrequency,
            summaries: SummaryMode::Cooperative,
            workload: QueryGenConfig {
                seed: seed ^ 0x51_7e_a5,
                ..QueryGenConfig::default()
            },
        }
    }

    /// A fast configuration for unit and integration tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            scenario: ScenarioConfig::tiny(ScenarioKind::Health, seed),
            n_two: 120,
            n_three: 80,
            core: CoreConfig::default().with_threshold(10.0),
            relevancy: RelevancyDef::DocFrequency,
            summaries: SummaryMode::Cooperative,
            // The query subtopic window tracks the tiny corpus's topic
            // size (60 terms) the way the default tracks 300-term topics.
            workload: QueryGenConfig {
                seed: seed ^ 0x51_7e_a5,
                window: 12,
                ..QueryGenConfig::default()
            },
        }
    }
}

/// A fully assembled evaluation environment.
pub struct Testbed {
    /// The mediated databases with summaries.
    pub mediator: Mediator,
    /// The topic model (shared vocabulary).
    pub model: TopicModel,
    /// Disjoint train/test queries.
    pub split: TrainTestSplit,
    /// ED library trained on `split.train`.
    pub library: EdLibrary,
    /// Actual relevancies of every test query on every database.
    pub golden: GoldenStandard,
    /// The config the testbed was built from.
    pub config: TestbedConfig,
    /// The estimator the library was trained for.
    pub estimator: Box<dyn RelevancyEstimator>,
}

impl Testbed {
    /// Builds the full testbed: generate corpus, wrap databases, build
    /// summaries, generate the query split, train the ED library, and
    /// compute the golden standard. Deterministic in the config seeds.
    pub fn build(config: TestbedConfig) -> Self {
        Self::build_with_estimator(config, Box::new(IndependenceEstimator))
    }

    /// As [`Testbed::build`] with an explicit estimator.
    pub fn build_with_estimator(
        config: TestbedConfig,
        estimator: Box<dyn RelevancyEstimator>,
    ) -> Self {
        let _span = mp_obs::span!("eval.testbed.build");
        let scenario = Scenario::generate(config.scenario.clone());
        let (model, parts) = scenario.into_parts();

        let mut dbs: Vec<Arc<dyn HiddenWebDatabase>> = Vec::with_capacity(parts.len());
        let mut cooperative: Vec<ContentSummary> = Vec::with_capacity(parts.len());
        for (spec, index) in parts {
            cooperative.push(ContentSummary::cooperative(&index));
            // Explicitly without the per-probe query log: testbeds feed
            // throughput benches and multi-worker serving, where probe
            // logging is per-probe work (and once was a global mutex)
            // that no evaluation reads. Probe *counts* are still kept.
            dbs.push(Arc::new(
                SimulatedHiddenDb::new(spec.name, index).without_probe_log(),
            ));
        }

        let summaries = match config.summaries {
            SummaryMode::Cooperative => cooperative,
            SummaryMode::Sampled {
                n_queries,
                docs_per_query,
            } => {
                let mut rng = StdRng::seed_from_u64(config.scenario.seed ^ 0xA11A5);
                dbs.iter()
                    .enumerate()
                    .map(|(i, db)| {
                        // Seed terms: the cooperative summary's term set
                        // (what a crawler would discover incrementally);
                        // contents are still *estimated* via sampling.
                        let seeds: Vec<_> = cooperative[i].iter().map(|(t, _)| t).collect();
                        ContentSummary::from_sampling(
                            db.as_ref(),
                            &seeds,
                            n_queries,
                            docs_per_query,
                            &mut rng,
                        )
                    })
                    .collect()
            }
        };

        let mediator = Mediator::new(dbs, summaries);
        let split = TrainTestSplit::generate(
            &model,
            config.n_two,
            config.n_three,
            config.workload.clone(),
        );
        let library = EdLibrary::train(
            &mediator,
            estimator.as_ref(),
            config.relevancy,
            split.train.queries(),
            &config.core,
        );
        let golden = GoldenStandard::build(
            &mediator,
            split.test.queries(),
            config.relevancy,
            config.core.probe_top_n,
        );
        mediator.reset_probes();

        Self {
            mediator,
            model,
            split,
            library,
            golden,
            config,
            estimator,
        }
    }

    /// Number of mediated databases.
    pub fn n_databases(&self) -> usize {
        self.mediator.len()
    }

    /// Point estimates of a query across every database.
    pub fn estimates(&self, query: &mp_workload::Query) -> Vec<f64> {
        mp_core::estimator::estimate_all(self.estimator.as_ref(), &self.mediator, query)
    }

    /// The query's relevancy distributions across every database.
    // mp-lint: allow(L6): pure delegation to derive_all_rds, which asserts
    pub fn rds(&self, query: &mp_workload::Query) -> Vec<mp_stats::Discrete> {
        mp_core::rd::derive_all_rds(&self.estimates(query), query, &self.library)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_testbed_builds_consistently() {
        let tb = Testbed::build(TestbedConfig::tiny(3));
        assert_eq!(tb.n_databases(), 5);
        assert_eq!(tb.split.test.len(), 200);
        assert_eq!(tb.golden.n_queries(), 200);
        assert_eq!(tb.library.n_databases(), 5);
        // Probe counters were reset after training/golden construction.
        assert_eq!(tb.mediator.total_probes(), 0);
    }

    #[test]
    fn sampled_summaries_differ_from_cooperative() {
        let mut cfg = TestbedConfig::tiny(4);
        cfg.summaries = SummaryMode::Sampled {
            n_queries: 10,
            docs_per_query: 20,
        };
        let sampled = Testbed::build(cfg.clone());
        let coop = Testbed::build(TestbedConfig::tiny(4));
        // Same sizes, but at least one df differs somewhere.
        let mut any_diff = false;
        for i in 0..coop.n_databases() {
            for (t, df) in coop.mediator.summary(i).iter() {
                if sampled.mediator.summary(i).df(t) != df {
                    any_diff = true;
                }
            }
        }
        assert!(any_diff, "sampling should not reproduce exact summaries");
        // Sampling is seeded: a second build draws the same probe terms,
        // whatever order the cooperative summaries hand them over in.
        let again = Testbed::build(cfg);
        for i in 0..coop.n_databases() {
            assert_eq!(
                sampled.mediator.summary(i),
                again.mediator.summary(i),
                "database {i}"
            );
        }
    }
}
