//! Topic model: Zipf-weighted topic vocabularies with controlled overlap.

use crate::words::pseudo_word;
use mp_stats::Zipf;
use mp_text::{TermId, Vocabulary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Identifier of a topic within a [`TopicModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TopicId(pub u32);

impl TopicId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a usize index with an explicit range check
    /// (topic counts are tiny; overflowing `u32` means a caller bug).
    #[inline]
    pub fn from_index(i: usize) -> Self {
        Self(u32::try_from(i).expect("topic counts are tiny; indices always fit u32"))
    }
}

/// Configuration of the topic model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopicModelConfig {
    /// Number of topics.
    pub n_topics: usize,
    /// Core (non-shared) terms per topic.
    pub terms_per_topic: usize,
    /// Fraction of each topic's vocabulary borrowed from the *next*
    /// topic's core terms, creating cross-topic term sharing (so queries
    /// can straddle topics and databases overlap lexically).
    pub overlap_fraction: f64,
    /// Size of the background pool every document draws from.
    pub background_terms: usize,
    /// Zipf exponent for within-topic term popularity (~1.0 is natural
    /// language).
    pub zipf_exponent: f64,
    /// Seed for topic construction.
    pub seed: u64,
}

impl Default for TopicModelConfig {
    fn default() -> Self {
        Self {
            n_topics: 25,
            terms_per_topic: 100,
            overlap_fraction: 0.15,
            background_terms: 400,
            zipf_exponent: 1.0,
            seed: 0,
        }
    }
}

/// One topic: an ordered term list (most popular first) with a Zipf
/// sampler over it.
#[derive(Debug, Clone)]
pub struct Topic {
    /// Terms in popularity order (rank 0 = most frequent).
    terms: Vec<TermId>,
    zipf: Zipf,
}

impl Topic {
    /// Terms in popularity (rank) order.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// Samples one term.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> TermId {
        self.terms[self.zipf.sample(rng)]
    }

    /// The probability with which [`Topic::sample`] yields the term at
    /// `rank`.
    pub fn rank_prob(&self, rank: usize) -> f64 {
        self.zipf.prob(rank)
    }
}

/// The full topic model: topics + background pool over a shared
/// vocabulary.
#[derive(Debug, Clone)]
pub struct TopicModel {
    config: TopicModelConfig,
    vocab: Vocabulary,
    topics: Vec<Topic>,
    background: Topic,
}

impl TopicModel {
    /// Builds a topic model from the configuration. Fully deterministic
    /// in `config.seed`.
    pub fn build(config: TopicModelConfig) -> Self {
        assert!(config.n_topics >= 1, "need at least one topic");
        assert!(
            config.terms_per_topic >= 2,
            "topics need at least two terms"
        );
        assert!(
            (0.0..1.0).contains(&config.overlap_fraction),
            "overlap_fraction must be in [0, 1)"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut vocab = Vocabulary::new();

        // Background pool first: ids 0..background_terms.
        let background_ids: Vec<TermId> = (0..config.background_terms as u64)
            .map(|i| vocab.intern(&pseudo_word(i)))
            .collect();

        // Core terms per topic.
        let mut core: Vec<Vec<TermId>> = Vec::with_capacity(config.n_topics);
        let mut next_word = config.background_terms as u64;
        for _ in 0..config.n_topics {
            let ids: Vec<TermId> = (0..config.terms_per_topic)
                .map(|_| {
                    let id = vocab.intern(&pseudo_word(next_word));
                    next_word += 1;
                    id
                })
                .collect();
            core.push(ids);
        }

        // Topic vocabularies: own core plus an overlap slice borrowed
        // from the next topic (ring order). Borrowed terms are spliced at
        // random ranks so shared terms are popular in both topics.
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "a fraction of a usize count; the cast's floor is the intended rounding"
        )]
        let borrow = (config.terms_per_topic as f64 * config.overlap_fraction) as usize;
        let mut topics = Vec::with_capacity(config.n_topics);
        for t in 0..config.n_topics {
            let mut terms = core[t].clone();
            if config.n_topics > 1 {
                let neighbor = (t + 1) % config.n_topics;
                for &borrowed in core[neighbor].iter().take(borrow) {
                    let pos = rng.gen_range(0..=terms.len());
                    terms.insert(pos, borrowed);
                }
            }
            let zipf = Zipf::new(terms.len(), config.zipf_exponent);
            topics.push(Topic { terms, zipf });
        }

        let background = Topic {
            zipf: Zipf::new(background_ids.len().max(1), config.zipf_exponent),
            terms: background_ids,
        };

        Self {
            config,
            vocab,
            topics,
            background,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &TopicModelConfig {
        &self.config
    }

    /// The shared vocabulary (terms from all topics and the background).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Mutable vocabulary access (the indexing side interns queries
    /// through the same interner).
    pub fn vocab_mut(&mut self) -> &mut Vocabulary {
        &mut self.vocab
    }

    /// Number of topics.
    pub fn n_topics(&self) -> usize {
        self.topics.len()
    }

    /// A topic by id.
    pub fn topic(&self, id: TopicId) -> &Topic {
        &self.topics[id.index()]
    }

    /// The background pool.
    pub fn background(&self) -> &Topic {
        &self.background
    }

    /// Iterates all topic ids.
    pub fn topic_ids(&self) -> impl Iterator<Item = TopicId> {
        (0..self.topics.len()).map(TopicId::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small_config() -> TopicModelConfig {
        TopicModelConfig {
            n_topics: 4,
            terms_per_topic: 50,
            overlap_fraction: 0.2,
            background_terms: 30,
            zipf_exponent: 1.0,
            seed: 7,
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = TopicModel::build(small_config());
        let b = TopicModel::build(small_config());
        for t in a.topic_ids() {
            assert_eq!(a.topic(t).terms(), b.topic(t).terms());
        }
        assert_eq!(a.vocab().len(), b.vocab().len());
    }

    #[test]
    fn topics_have_expected_sizes() {
        let m = TopicModel::build(small_config());
        assert_eq!(m.n_topics(), 4);
        // 50 core + 10 borrowed.
        for t in m.topic_ids() {
            assert_eq!(m.topic(t).terms().len(), 60);
        }
        assert_eq!(m.background().terms().len(), 30);
    }

    #[test]
    fn neighboring_topics_share_terms_distant_ones_do_not() {
        let m = TopicModel::build(small_config());
        let set =
            |t: u32| -> HashSet<TermId> { m.topic(TopicId(t)).terms().iter().copied().collect() };
        let (t0, t1, t2) = (set(0), set(1), set(2));
        assert!(!t0.is_disjoint(&t1), "ring neighbors must overlap");
        // Topic 0 borrows from 1 only; topic 2 borrows from 3 only: the
        // only possible sharing between 0 and 2 is via 1's core inside
        // both — which does not happen in ring borrowing.
        assert!(t0.is_disjoint(&t2), "non-neighbors must not overlap");
    }

    #[test]
    fn vocabulary_covers_all_topics_and_background() {
        let m = TopicModel::build(small_config());
        // 30 background + 4 * 50 core (borrowed terms are shared ids).
        assert_eq!(m.vocab().len(), 30 + 4 * 50);
    }

    #[test]
    fn sampling_is_biased_to_low_ranks() {
        let m = TopicModel::build(small_config());
        let topic = m.topic(TopicId(0));
        let mut rng = StdRng::seed_from_u64(3);
        let head: HashSet<TermId> = topic.terms().iter().take(10).copied().collect();
        let n = 5000;
        let head_hits = (0..n)
            .filter(|_| head.contains(&topic.sample(&mut rng)))
            .count();
        // With Zipf(1.0) over 60 ranks, the top-10 carry ~63% of the mass.
        assert!(head_hits as f64 / n as f64 > 0.45, "{head_hits}");
    }

    #[test]
    #[should_panic(expected = "at least one topic")]
    fn rejects_zero_topics() {
        TopicModel::build(TopicModelConfig {
            n_topics: 0,
            ..small_config()
        });
    }

    #[test]
    fn single_topic_model_has_no_overlap_panic() {
        let m = TopicModel::build(TopicModelConfig {
            n_topics: 1,
            ..small_config()
        });
        assert_eq!(m.topic(TopicId(0)).terms().len(), 50);
    }
}
