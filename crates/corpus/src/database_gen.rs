//! Database generation: a named collection drawn from a topic mixture.

use crate::document_gen::{DocGenConfig, DocumentGenerator};
use crate::topic::{TopicId, TopicModel};
use mp_index::{IndexBuilder, InvertedIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Specification of one synthetic Hidden-Web database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatabaseSpec {
    /// Human-readable name (e.g. `med.oncology`, `news.daily-1`).
    pub name: String,
    /// Number of documents.
    pub size: usize,
    /// Topic mixture: `(topic, weight)`; weights normalized internally.
    pub mixture: Vec<(TopicId, f64)>,
    /// Per-database generation seed (independent of other databases).
    pub seed: u64,
    /// Document-generation knobs.
    pub doc_config: DocGenConfig,
}

impl DatabaseSpec {
    /// A specialist database: one dominant topic plus a thin spread over
    /// the rest (weight `1 − focus` split evenly).
    pub fn specialist(
        name: impl Into<String>,
        size: usize,
        topic: TopicId,
        focus: f64,
        n_topics: usize,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&focus));
        let mut mixture = vec![(topic, focus)];
        if n_topics > 1 && focus < 1.0 {
            let rest = (1.0 - focus) / (n_topics - 1) as f64;
            for i in 0..n_topics {
                if i != topic.index() {
                    mixture.push((TopicId::from_index(i), rest));
                }
            }
        }
        Self {
            name: name.into(),
            size,
            mixture,
            seed,
            doc_config: DocGenConfig::default(),
        }
    }

    /// A generalist database: uniform mixture over all topics.
    pub fn generalist(name: impl Into<String>, size: usize, n_topics: usize, seed: u64) -> Self {
        let mixture = (0..n_topics)
            .map(|i| (TopicId::from_index(i), 1.0))
            .collect();
        Self {
            name: name.into(),
            size,
            mixture,
            seed,
            doc_config: DocGenConfig::default(),
        }
    }
}

/// Generates a database per its spec, streaming each document into the
/// index builder as it is drawn.
pub fn generate_database(model: &TopicModel, spec: &DatabaseSpec) -> InvertedIndex {
    let gen = DocumentGenerator::new(model, &spec.mixture, spec.doc_config.clone());
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut builder = IndexBuilder::new();
    for _ in 0..spec.size {
        builder.add(gen.generate(&mut rng));
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::TopicModelConfig;

    fn model() -> TopicModel {
        TopicModel::build(TopicModelConfig {
            n_topics: 4,
            terms_per_topic: 80,
            overlap_fraction: 0.1,
            background_terms: 40,
            zipf_exponent: 1.0,
            seed: 2,
        })
    }

    #[test]
    fn generates_requested_size() {
        let m = model();
        let spec = DatabaseSpec::specialist("s0", 120, TopicId(0), 0.9, 4, 10);
        let idx = generate_database(&m, &spec);
        assert_eq!(idx.doc_count(), 120);
        assert!(idx.distinct_terms() > 0);
    }

    #[test]
    fn deterministic_per_spec_seed() {
        let m = model();
        let spec = DatabaseSpec::generalist("g", 50, 4, 99);
        let a = generate_database(&m, &spec);
        let b = generate_database(&m, &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let m = model();
        let s1 = DatabaseSpec::generalist("g", 50, 4, 1);
        let s2 = DatabaseSpec::generalist("g", 50, 4, 2);
        let a = generate_database(&m, &s1);
        let b = generate_database(&m, &s2);
        assert_ne!(a, b);
    }

    #[test]
    fn specialist_mixture_sums_to_one_ish() {
        let spec = DatabaseSpec::specialist("s", 10, TopicId(1), 0.8, 4, 0);
        let total: f64 = spec.mixture.iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(spec.mixture[0], (TopicId(1), 0.8));
    }

    #[test]
    fn specialist_covers_own_topic_better() {
        let m = model();
        let s0 = generate_database(
            &m,
            &DatabaseSpec::specialist("s0", 300, TopicId(0), 0.95, 4, 5),
        );
        let s2 = generate_database(
            &m,
            &DatabaseSpec::specialist("s2", 300, TopicId(2), 0.95, 4, 6),
        );
        // A conjunctive query of two popular topic-0 terms matches far
        // more documents in the topic-0 specialist.
        let q = [
            m.topic(TopicId(0)).terms()[0],
            m.topic(TopicId(0)).terms()[1],
        ];
        let hits0 = s0.count_matching(&q);
        let hits2 = s2.count_matching(&q);
        assert!(
            hits0 > hits2.saturating_mul(3),
            "specialist: {hits0}, other: {hits2}"
        );
    }
}
