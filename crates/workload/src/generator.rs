//! Topic-driven query generation.

use crate::query::Query;
use mp_corpus::{TopicId, TopicModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Query-generation knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryGenConfig {
    /// Probability that each additional term comes from the query's
    /// anchor topic (correlated), rather than elsewhere.
    pub in_topic_prob: f64,
    /// When a term is *not* in-topic, probability it is a background
    /// term (else it comes from a different random topic).
    pub background_prob: f64,
    /// Cap on term-rank within a topic — queries use reasonably popular
    /// words, like real users do (rank beyond this is never drawn).
    pub max_rank: usize,
    /// Subtopic window width for in-topic term picks: the anchor topic's
    /// terms are drawn from one random contiguous slice of this many
    /// ranks, matching the corpus generator's subtopic structure (a real
    /// query's keywords come from one subtopic — "breast cancer", not
    /// "breast cardiology"). 0 disables windowing. Should match the
    /// corpus `DocGenConfig::subtopic_window`.
    pub window: usize,
    /// Generation seed.
    pub seed: u64,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        Self {
            in_topic_prob: 0.75,
            background_prob: 0.4,
            max_rank: 70,
            window: 10,
            seed: 0,
        }
    }
}

/// Generates 2-/3-term keyword queries over a [`TopicModel`].
#[derive(Debug)]
pub struct QueryGenerator<'m> {
    model: &'m TopicModel,
    config: QueryGenConfig,
    rng: StdRng,
}

impl<'m> QueryGenerator<'m> {
    /// Creates a generator; deterministic in `config.seed`.
    pub fn new(model: &'m TopicModel, config: QueryGenConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Self { model, config, rng }
    }

    /// Samples a term from the given topic, biased to popular ranks.
    /// With windowing, `anchor_start` fixes the subtopic slice the
    /// query's in-topic terms come from.
    fn topic_term(&mut self, topic: TopicId, anchor_start: Option<usize>) -> mp_text::TermId {
        let t = self.model.topic(topic);
        match anchor_start {
            Some(start) if self.config.window > 0 => {
                // Uniform within the subtopic window: queries mix popular
                // and less-popular subtopic words, avoiding the fully
                // saturated head terms.
                let w = self.config.window.min(t.terms().len()).max(1);
                let off = self.rng.gen_range(0..w);
                t.terms()[(start + off) % t.terms().len()]
            }
            _ => {
                let n = t.terms().len().min(self.config.max_rank).max(1);
                // Quadratic popularity bias: rank = floor(n * u^2).
                let u: f64 = self.rng.gen();
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "u is in [0, 1), so the product is in [0, n); the floor is the rank"
                )]
                let rank = ((u * u) * n as f64) as usize;
                t.terms()[rank.min(n - 1)]
            }
        }
    }

    fn background_term(&mut self) -> mp_text::TermId {
        let bg = self.model.background();
        let n = bg.terms().len().min(self.config.max_rank).max(1);
        let u: f64 = self.rng.gen();
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "u is in [0, 1), so the product is in [0, n); the floor is the rank"
        )]
        let rank = ((u * u) * n as f64) as usize;
        bg.terms()[rank.min(n - 1)]
    }

    /// Generates one query with exactly `n_terms` distinct terms.
    ///
    /// The first term anchors a topic; each further term is in-topic
    /// with probability `in_topic_prob`, otherwise background or
    /// foreign-topic. Retries until `n_terms` distinct terms accumulate.
    pub fn generate(&mut self, n_terms: usize) -> Query {
        assert!(n_terms >= 1, "queries need at least one term");
        let anchor = TopicId::from_index(self.rng.gen_range(0..self.model.n_topics()));
        let anchor_start = (self.config.window > 0).then(|| {
            self.rng
                .gen_range(0..self.model.topic(anchor).terms().len())
        });
        let mut terms: Vec<mp_text::TermId> = vec![self.topic_term(anchor, anchor_start)];
        let mut guard = 0;
        while terms.len() < n_terms {
            let t = if self.rng.gen::<f64>() < self.config.in_topic_prob {
                self.topic_term(anchor, anchor_start)
            } else if self.rng.gen::<f64>() < self.config.background_prob {
                self.background_term()
            } else {
                let other = TopicId::from_index(self.rng.gen_range(0..self.model.n_topics()));
                self.topic_term(other, None)
            };
            if !terms.contains(&t) {
                terms.push(t);
            }
            guard += 1;
            assert!(guard < 10_000, "cannot assemble {n_terms} distinct terms");
        }
        Query::new(terms)
    }

    /// Generates `n` queries of `n_terms` terms each.
    pub fn generate_many(&mut self, n: usize, n_terms: usize) -> Vec<Query> {
        (0..n).map(|_| self.generate(n_terms)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_corpus::TopicModelConfig;
    use std::collections::HashSet;

    fn model() -> TopicModel {
        TopicModel::build(TopicModelConfig {
            n_topics: 6,
            terms_per_topic: 80,
            background_terms: 60,
            seed: 5,
            ..TopicModelConfig::default()
        })
    }

    #[test]
    fn generates_requested_arity() {
        let m = model();
        let mut g = QueryGenerator::new(&m, QueryGenConfig::default());
        for n in [1usize, 2, 3] {
            for _ in 0..50 {
                assert_eq!(g.generate(n).len(), n);
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let m = model();
        let mut a = QueryGenerator::new(
            &m,
            QueryGenConfig {
                seed: 9,
                ..Default::default()
            },
        );
        let mut b = QueryGenerator::new(
            &m,
            QueryGenConfig {
                seed: 9,
                ..Default::default()
            },
        );
        assert_eq!(a.generate_many(20, 2), b.generate_many(20, 2));
    }

    #[test]
    fn different_seeds_vary() {
        let m = model();
        let mut a = QueryGenerator::new(
            &m,
            QueryGenConfig {
                seed: 1,
                ..Default::default()
            },
        );
        let mut b = QueryGenerator::new(
            &m,
            QueryGenConfig {
                seed: 2,
                ..Default::default()
            },
        );
        assert_ne!(a.generate_many(20, 2), b.generate_many(20, 2));
    }

    #[test]
    fn most_two_term_queries_are_in_topic() {
        // With in_topic_prob = 1.0, both terms must come from one topic.
        let m = model();
        let mut g = QueryGenerator::new(
            &m,
            QueryGenConfig {
                in_topic_prob: 1.0,
                seed: 3,
                ..Default::default()
            },
        );
        let topic_sets: Vec<HashSet<_>> = m
            .topic_ids()
            .map(|t| m.topic(t).terms().iter().copied().collect())
            .collect();
        for _ in 0..100 {
            let q = g.generate(2);
            let covered = topic_sets
                .iter()
                .any(|s| q.terms().iter().all(|t| s.contains(t)));
            assert!(covered, "query terms straddle topics: {q:?}");
        }
    }

    #[test]
    fn queries_produce_distinct_sets() {
        let m = model();
        let mut g = QueryGenerator::new(&m, QueryGenConfig::default());
        let qs: HashSet<Query> = g.generate_many(300, 2).into_iter().collect();
        // With 6 topics × ~120 popular terms there is plenty of space;
        // expect substantial variety.
        assert!(qs.len() > 150, "only {} distinct queries", qs.len());
    }
}
