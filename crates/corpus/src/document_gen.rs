//! Document generation from the topic model.

use crate::topic::{TopicId, TopicModel};
use mp_index::Document;
use mp_stats::AliasSampler;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Knobs for per-document generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DocGenConfig {
    /// Mean of `ln(document length)`.
    pub len_log_mean: f64,
    /// Std-dev of `ln(document length)`.
    pub len_log_std: f64,
    /// Hard floor on document length (terms).
    pub min_len: u32,
    /// Hard ceiling on document length (terms).
    pub max_len: u32,
    /// Probability that any given term comes from the background pool.
    pub background_prob: f64,
    /// Probability that a document carries a secondary topic.
    pub second_topic_prob: f64,
    /// Given a secondary topic, probability a topical term draws from it
    /// instead of the primary topic.
    pub secondary_draw_prob: f64,
    /// Subtopic window width: each document's topical terms are drawn
    /// from a random contiguous slice of this many terms within its
    /// topic's vocabulary (0 disables windowing and samples the whole
    /// topic). Windowing creates *within-database* term correlation —
    /// two terms of one subtopic co-occur far above the product of
    /// their marginals even inside a topically focused database, which
    /// is exactly the structure that breaks the independence estimator
    /// on real corpora ("breast" and "cancer" cluster inside PubMed).
    pub subtopic_window: usize,
}

impl Default for DocGenConfig {
    fn default() -> Self {
        Self {
            // exp(4.0) ≈ 55 terms on average — short article / abstract.
            len_log_mean: 4.0,
            len_log_std: 0.5,
            min_len: 10,
            max_len: 500,
            background_prob: 0.35,
            second_topic_prob: 0.30,
            secondary_draw_prob: 0.35,
            subtopic_window: 40,
        }
    }
}

/// Generates documents whose topical terms are *correlated*: a document
/// about topic A is packed with topic-A terms, so any two topic-A terms
/// co-occur far above the product of their marginal frequencies. This is
/// the mechanism that makes the independence estimator's errors large
/// and database-dependent, reproducing the paper's motivating
/// observation (Section 2.3).
#[derive(Debug)]
pub struct DocumentGenerator<'m> {
    model: &'m TopicModel,
    config: DocGenConfig,
    /// Mixture over topics for the database being generated.
    mixture: AliasSampler,
    /// Topic ids corresponding to mixture categories.
    mixture_topics: Vec<TopicId>,
    /// Zipf over window offsets when subtopic windowing is enabled.
    window_zipf: Option<mp_stats::Zipf>,
}

impl<'m> DocumentGenerator<'m> {
    /// Creates a generator for a database with the given topic mixture.
    ///
    /// `mixture` pairs each topic with a non-negative weight; weights are
    /// normalized internally.
    ///
    /// # Panics
    /// Panics if the mixture is empty, references an unknown topic, or
    /// has all-zero weights.
    pub fn new(model: &'m TopicModel, mixture: &[(TopicId, f64)], config: DocGenConfig) -> Self {
        assert!(!mixture.is_empty(), "topic mixture must be non-empty");
        for &(t, _) in mixture {
            assert!(t.index() < model.n_topics(), "unknown topic {t:?}");
        }
        let weights: Vec<f64> = mixture.iter().map(|&(_, w)| w).collect();
        let window_zipf =
            (config.subtopic_window > 0).then(|| mp_stats::Zipf::new(config.subtopic_window, 1.0));
        Self {
            model,
            config,
            mixture: AliasSampler::new(&weights),
            mixture_topics: mixture.iter().map(|&(t, _)| t).collect(),
            window_zipf,
        }
    }

    /// The document-generation configuration.
    pub fn config(&self) -> &DocGenConfig {
        &self.config
    }

    /// Samples a document length: clamped log-normal via Box–Muller.
    fn sample_len<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        // Box–Muller: two uniforms → one standard normal.
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let len = (self.config.len_log_mean + self.config.len_log_std * z).exp();
        // Checked rounding (saturating on the log-normal's unbounded
        // upper tail), then the configured clamp.
        mp_stats::float::round_u64(len)
            .and_then(|l| u32::try_from(l).ok())
            .unwrap_or(u32::MAX)
            .clamp(self.config.min_len, self.config.max_len)
    }

    /// Generates one document.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Document {
        let primary = self.mixture_topics[self.mixture.sample(rng)];
        let secondary =
            if self.model.n_topics() > 1 && rng.gen::<f64>() < self.config.second_topic_prob {
                // Any other topic, uniformly: news-style cross-topic content.
                let mut pick = rng.gen_range(0..self.model.n_topics() - 1);
                if pick >= primary.index() {
                    pick += 1;
                }
                Some(TopicId::from_index(pick))
            } else {
                None
            };

        // One subtopic window per (document, topic): the document's
        // topical vocabulary clusters around it.
        let window_start = |rng: &mut R, topic: TopicId| -> usize {
            rng.gen_range(0..self.model.topic(topic).terms().len())
        };
        let primary_start = window_start(rng, primary);
        let secondary_start = secondary.map(|s| (s, window_start(rng, s)));

        let len = self.sample_len(rng);
        let mut draws = Vec::with_capacity(len as usize);
        for _ in 0..len {
            let term = if rng.gen::<f64>() < self.config.background_prob {
                self.model.background().sample(rng)
            } else {
                let (topic, start) = match secondary_start {
                    Some(ss) if rng.gen::<f64>() < self.config.secondary_draw_prob => ss,
                    _ => (primary, primary_start),
                };
                match &self.window_zipf {
                    Some(z) => {
                        let terms = self.model.topic(topic).terms();
                        terms[(start + z.sample(rng)) % terms.len()]
                    }
                    None => self.model.topic(topic).sample(rng),
                }
            };
            draws.push(term);
        }
        Document::from_draws(&mut draws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::TopicModelConfig;
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::HashSet;

    fn model() -> TopicModel {
        TopicModel::build(TopicModelConfig {
            n_topics: 5,
            terms_per_topic: 100,
            overlap_fraction: 0.1,
            background_terms: 50,
            zipf_exponent: 1.0,
            seed: 1,
        })
    }

    #[test]
    fn lengths_respect_bounds() {
        let m = model();
        let g = DocumentGenerator::new(
            &m,
            &[(TopicId(0), 1.0)],
            DocGenConfig {
                min_len: 20,
                max_len: 60,
                ..DocGenConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let d = g.generate(&mut rng);
            assert!(d.len() >= 20 && d.len() <= 60, "len={}", d.len());
        }
    }

    #[test]
    fn single_topic_docs_stay_in_topic_vocabulary() {
        let m = model();
        let g = DocumentGenerator::new(
            &m,
            &[(TopicId(2), 1.0)],
            DocGenConfig {
                background_prob: 0.0,
                second_topic_prob: 0.0,
                ..DocGenConfig::default()
            },
        );
        let allowed: HashSet<_> = m.topic(TopicId(2)).terms().iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..50 {
            let d = g.generate(&mut rng);
            for (t, _) in d.terms() {
                assert!(allowed.contains(&t));
            }
        }
    }

    #[test]
    fn topical_terms_cooccur_above_independence() {
        // The core phenomenon: P(a AND b) >> P(a)·P(b) for two topic
        // terms when the database mixes several topics.
        let m = model();
        let mixture: Vec<(TopicId, f64)> = (0..5).map(|i| (TopicId(i), 1.0)).collect();
        let g = DocumentGenerator::new(&m, &mixture, DocGenConfig::default());
        let mut rng = StdRng::seed_from_u64(13);
        let docs: Vec<_> = (0..2000).map(|_| g.generate(&mut rng)).collect();

        // Mid-rank terms: popular enough to appear, rare enough that the
        // independence product is small and the topical lift is visible.
        let a = m.topic(TopicId(0)).terms()[4];
        let b = m.topic(TopicId(0)).terms()[5];
        let n = docs.len() as f64;
        let pa = docs.iter().filter(|d| d.contains(a)).count() as f64 / n;
        let pb = docs.iter().filter(|d| d.contains(b)).count() as f64 / n;
        let pab = docs
            .iter()
            .filter(|d| d.contains(a) && d.contains(b))
            .count() as f64
            / n;
        assert!(pa > 0.0 && pb > 0.0);
        assert!(
            pab > 2.0 * pa * pb,
            "joint {pab} should exceed independent product {}",
            pa * pb
        );
    }

    #[test]
    fn mixture_controls_topic_balance() {
        let m = model();
        let g = DocumentGenerator::new(
            &m,
            &[(TopicId(0), 0.9), (TopicId(1), 0.1)],
            DocGenConfig {
                background_prob: 0.0,
                second_topic_prob: 0.0,
                ..DocGenConfig::default()
            },
        );
        let t0: HashSet<_> = m.topic(TopicId(0)).terms().iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(21);
        let mut topic0_docs = 0;
        let total = 500;
        for _ in 0..total {
            let d = g.generate(&mut rng);
            // A doc drawn from topic 0 has most terms in t0.
            let in0 = d.terms().filter(|(t, _)| t0.contains(t)).count();
            if in0 * 2 > d.distinct_terms() {
                topic0_docs += 1;
            }
        }
        let frac = topic0_docs as f64 / total as f64;
        assert!(frac > 0.8, "topic-0 fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "unknown topic")]
    fn rejects_unknown_topic() {
        let m = model();
        DocumentGenerator::new(&m, &[(TopicId(99), 1.0)], DocGenConfig::default());
    }

    #[test]
    fn deterministic_given_seed() {
        let m = model();
        let g = DocumentGenerator::new(&m, &[(TopicId(1), 1.0)], DocGenConfig::default());
        let d1 = g.generate(&mut StdRng::seed_from_u64(77));
        let d2 = g.generate(&mut StdRng::seed_from_u64(77));
        assert_eq!(d1, d2);
    }
}
