//! Packaged evaluation scenarios mirroring the paper's two testbeds.
//!
//! * [`ScenarioKind::Newsgroup`] — 20 topic-focused databases, the
//!   stand-in for the 20 UCLA newsgroups used by the sampling-size study
//!   (paper Section 4.2, Figures 7/8).
//! * [`ScenarioKind::Health`] — 20 heterogeneous databases: 13 topical
//!   specialists, 4 broad "science" generalists, and 3 shallow "news"
//!   databases — the stand-in for the CompletePlanet health testbed of
//!   the main evaluation (paper Section 6.1, Figure 14).
//!
//! Database sizes are spread log-uniformly, echoing the paper's wide
//! size ranges (2.8k–80k newsgroup articles; 4k–630k health documents),
//! scaled by [`ScenarioConfig::scale`] so tests stay fast while the
//! benchmark harness can run closer to paper scale.

use crate::database_gen::{generate_database, DatabaseSpec};
use crate::document_gen::DocGenConfig;
use crate::topic::{TopicId, TopicModel, TopicModelConfig};
use mp_index::InvertedIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which testbed to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// 20 single-topic databases (sampling-size study).
    Newsgroup,
    /// 20 mixed databases: specialists + generalists + news (main eval).
    Health,
}

/// Scenario configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Which testbed shape to build.
    pub kind: ScenarioKind,
    /// Master seed; every derived database seed is a pure function of it.
    pub seed: u64,
    /// Multiplier on database sizes. `1.0` ≈ 600–5000 docs per database
    /// (laptop-scale); raise for paper-scale corpora.
    pub scale: f64,
    /// Number of databases (paper: 20).
    pub n_databases: usize,
    /// Topic model shape.
    pub topics: TopicModelConfig,
}

impl ScenarioConfig {
    /// The default configuration for a testbed kind.
    pub fn new(kind: ScenarioKind, seed: u64) -> Self {
        Self {
            kind,
            seed,
            scale: 1.0,
            n_databases: 20,
            topics: TopicModelConfig {
                seed,
                ..TopicModelConfig::default()
            },
        }
    }

    /// A deliberately tiny configuration for unit tests.
    pub fn tiny(kind: ScenarioKind, seed: u64) -> Self {
        Self {
            kind,
            seed,
            scale: 0.05,
            n_databases: 5,
            topics: TopicModelConfig {
                n_topics: 6,
                terms_per_topic: 60,
                background_terms: 60,
                seed,
                ..TopicModelConfig::default()
            },
        }
    }
}

/// A fully generated testbed: topic model + named, indexed databases.
#[derive(Debug)]
pub struct Scenario {
    config: ScenarioConfig,
    model: TopicModel,
    specs: Vec<DatabaseSpec>,
    indexes: Vec<InvertedIndex>,
}

impl Scenario {
    /// Generates the scenario. Deterministic in `config`.
    pub fn generate(config: ScenarioConfig) -> Self {
        Self::generate_with(config, |n, database| (0..n).map(database).collect())
    }

    /// As [`Scenario::generate`], with `map` running the per-database
    /// generation: it gets the database count and the routine that
    /// generates database `i`, and returns the indexes in database
    /// order. Every database draws from its own seeded RNG, so every
    /// map that keeps that order, a parallel one included, yields the
    /// same scenario.
    ///
    /// # Panics
    /// Panics if `map` returns a different number of indexes.
    pub fn generate_with<M>(config: ScenarioConfig, map: M) -> Self
    where
        M: FnOnce(usize, &(dyn Fn(usize) -> InvertedIndex + Sync)) -> Vec<InvertedIndex>,
    {
        let model = TopicModel::build(config.topics.clone());
        let specs = match config.kind {
            ScenarioKind::Newsgroup => newsgroup_specs(&config, &model),
            ScenarioKind::Health => health_specs(&config, &model),
        };
        let indexes = map(specs.len(), &|i| generate_database(&model, &specs[i]));
        assert_eq!(indexes.len(), specs.len(), "one index per database");
        Self {
            config,
            model,
            specs,
            indexes,
        }
    }

    /// The configuration this scenario was generated from.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The underlying topic model (shared vocabulary lives here).
    pub fn model(&self) -> &TopicModel {
        &self.model
    }

    /// Database specifications, aligned with [`Scenario::indexes`].
    pub fn specs(&self) -> &[DatabaseSpec] {
        &self.specs
    }

    /// The built inverted indexes, one per database.
    pub fn indexes(&self) -> &[InvertedIndex] {
        &self.indexes
    }

    /// Number of databases.
    pub fn n_databases(&self) -> usize {
        self.indexes.len()
    }

    /// Consumes the scenario, yielding `(spec, index)` pairs.
    pub fn into_parts(self) -> (TopicModel, Vec<(DatabaseSpec, InvertedIndex)>) {
        (
            self.model,
            self.specs.into_iter().zip(self.indexes).collect(),
        )
    }
}

/// Log-uniform size in `[lo, hi]`, scaled and floored at 50 documents.
fn logu_size<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64, scale: f64) -> usize {
    let x = rng.gen::<f64>();
    let size = (lo.ln() + x * (hi.ln() - lo.ln())).exp() * scale;
    let rounded = mp_stats::float::round_u64(size).unwrap_or(50);
    usize::try_from(rounded).unwrap_or(usize::MAX).max(50)
}

fn newsgroup_specs(config: &ScenarioConfig, model: &TopicModel) -> Vec<DatabaseSpec> {
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let n_topics = model.n_topics();
    (0..config.n_databases)
        .map(|i| {
            let topic = TopicId::from_index(i % n_topics);
            // Paper newsgroups: 2.8k–80k articles; scaled to 600–5000 at
            // scale 1.0 for laptop runtimes (documented substitution).
            let size = logu_size(&mut rng, 600.0, 5000.0, config.scale);
            DatabaseSpec::specialist(
                format!("group.{i:02}.t{}", topic.0),
                size,
                topic,
                0.92,
                n_topics,
                config.seed.wrapping_add(1000 + i as u64),
            )
        })
        .collect()
}

/// Health databases all cover the *same domain* (the topic set plays
/// the role of health subtopics — oncology, cardiology, nutrition, …)
/// but differ in two db-stable ways the independence estimator cannot
/// see:
///
/// * **emphasis** — specialists weight a couple of subtopics heavily,
///   generalists and news sites spread flat;
/// * **internal correlation** — specialists are tightly clustered
///   (small subtopic windows → conjunctive queries match far more
///   documents than the df product predicts → consistent
///   *under*estimation), while news-style content is loosely clustered
///   (wide windows, more background vocabulary → the independence
///   assumption roughly holds).
///
/// This reproduces the paper's Figure 3(b): estimation errors that are
/// large, systematic, and *different per database* — the signal the
/// probabilistic relevancy model learns.
fn health_specs(config: &ScenarioConfig, model: &TopicModel) -> Vec<DatabaseSpec> {
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(2));
    let n_topics = model.n_topics();
    let n = config.n_databases;
    // Composition mirrors the paper's 13 + 4 + 3 at n = 20 and scales
    // proportionally otherwise.
    let n_news = (n * 3 / 20).max(1);
    let n_general = (n * 4 / 20).max(1);
    let n_special = n - n_news - n_general;

    let mut specs = Vec::with_capacity(n);
    for i in 0..n_special {
        let main = i % n_topics;
        let second = (i + 1 + i / n_topics) % n_topics;
        // Full-domain coverage with heavy emphasis on two subtopics.
        let mixture: Vec<(TopicId, f64)> = (0..n_topics)
            .map(|t| {
                let w = if t == main {
                    8.0 + rng.gen::<f64>() * 6.0
                } else if t == second {
                    2.0 + rng.gen::<f64>() * 2.0
                } else {
                    0.6 + rng.gen::<f64>() * 0.8
                };
                (TopicId::from_index(t), w)
            })
            .collect();
        // Paper health DBs: 4k–630k docs; scaled to 500–8000 at scale 1.
        let size = logu_size(&mut rng, 500.0, 8000.0, config.scale);
        let mut spec = DatabaseSpec {
            name: format!("med.{i:02}.t{main}"),
            size,
            mixture,
            seed: config.seed.wrapping_add(2000 + i as u64),
            doc_config: DocGenConfig::default(),
        };
        // No hard subtopic windows: within-topic correlation comes
        // from the depth mix below, which produces a *uniform*
        // multiplicative lift (1 + CV²) the RD model can learn; hard
        // windows would add per-query-pair noise on top of it.
        spec.doc_config.subtopic_window = 0;
        spec.doc_config.second_topic_prob = 0.2;
        // Deep/shallow document mix (full texts vs abstracts): heavy
        // per-document length variance creates an *estimate-independent*
        // multiplicative co-occurrence lift ≈ 1 + CV² — the stable
        // per-database underestimation factor the RD model learns.
        spec.doc_config.len_log_mean = 3.0; // short abstracts ...
        spec.doc_config.len_log_std = 1.5 + (i % 3) as f64 * 0.15; // ... to deep monographs
        spec.doc_config.min_len = 5;
        spec.doc_config.max_len = 4_000;
        specs.push(spec);
    }
    for i in 0..n_general {
        let size = logu_size(&mut rng, 1500.0, 9000.0, config.scale);
        let mut spec = DatabaseSpec::generalist(
            format!("sci.broad.{i:02}"),
            size,
            n_topics,
            config.seed.wrapping_add(3000 + i as u64),
        );
        // Loose clustering and a moderate depth mix.
        spec.doc_config.subtopic_window = 0;
        spec.doc_config.len_log_mean = 3.5;
        spec.doc_config.len_log_std = 0.8;
        spec.doc_config.max_len = 1_200;
        specs.push(spec);
    }
    for i in 0..n_news {
        // News sites: moderate size, flat mixture, shorter docs, more
        // background vocabulary, and *loose* clustering — the
        // independence assumption roughly holds here.
        let size = logu_size(&mut rng, 800.0, 3000.0, config.scale);
        let mut spec = DatabaseSpec::generalist(
            format!("news.daily.{i:02}"),
            size,
            n_topics,
            config.seed.wrapping_add(4000 + i as u64),
        );
        spec.doc_config.len_log_mean = 3.4; // ≈ 30 terms
        spec.doc_config.len_log_std = 0.2; // uniform article lengths
        spec.doc_config.background_prob = 0.55;
        spec.doc_config.second_topic_prob = 0.5;
        spec.doc_config.subtopic_window = 0; // unclustered
        specs.push(spec);
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_newsgroup_scenario_builds() {
        let s = Scenario::generate(ScenarioConfig::tiny(ScenarioKind::Newsgroup, 3));
        assert_eq!(s.n_databases(), 5);
        for idx in s.indexes() {
            assert!(idx.doc_count() >= 50);
        }
    }

    #[test]
    fn tiny_health_scenario_has_three_database_classes() {
        let s = Scenario::generate(ScenarioConfig::tiny(ScenarioKind::Health, 3));
        let names: Vec<&str> = s.specs().iter().map(|s| s.name.as_str()).collect();
        assert!(names.iter().any(|n| n.starts_with("med.")));
        assert!(names.iter().any(|n| n.starts_with("sci.broad.")));
        assert!(names.iter().any(|n| n.starts_with("news.daily.")));
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Scenario::generate(ScenarioConfig::tiny(ScenarioKind::Health, 11));
        let b = Scenario::generate(ScenarioConfig::tiny(ScenarioKind::Health, 11));
        assert_eq!(a.specs(), b.specs());
        assert_eq!(a.indexes(), b.indexes());
    }

    #[test]
    fn databases_generate_in_any_order() {
        // Back to front, as a map that schedules work out of order
        // would: every database still gets its own index.
        let config = ScenarioConfig::tiny(ScenarioKind::Newsgroup, 4);
        let reversed = Scenario::generate_with(config.clone(), |n, database| {
            let mut indexes: Vec<_> = (0..n).rev().map(database).collect();
            indexes.reverse();
            indexes
        });
        assert_eq!(reversed.indexes(), Scenario::generate(config).indexes());
    }

    #[test]
    fn seeds_change_content() {
        let a = Scenario::generate(ScenarioConfig::tiny(ScenarioKind::Health, 1));
        let b = Scenario::generate(ScenarioConfig::tiny(ScenarioKind::Health, 2));
        let sizes_a: Vec<u32> = a.indexes().iter().map(|i| i.doc_count()).collect();
        let sizes_b: Vec<u32> = b.indexes().iter().map(|i| i.doc_count()).collect();
        assert_ne!(sizes_a, sizes_b);
    }

    #[test]
    fn database_sizes_vary() {
        let s = Scenario::generate(ScenarioConfig::tiny(ScenarioKind::Health, 7));
        let sizes: Vec<u32> = s.indexes().iter().map(|i| i.doc_count()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max > min, "sizes should be heterogeneous: {sizes:?}");
    }

    #[test]
    fn full_default_config_shape() {
        let c = ScenarioConfig::new(ScenarioKind::Health, 0);
        assert_eq!(c.n_databases, 20);
        assert_eq!(c.topics.n_topics, 25);
    }
}
