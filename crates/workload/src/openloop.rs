//! Open-loop arrival generation for serving benchmarks.
//!
//! A closed-loop driver (submit, wait, submit) can never overload a
//! server — its offered rate collapses to the server's completion rate,
//! which hides exactly the queueing behavior an SLO shedder exists
//! for. An **open-loop** workload fixes the arrival process in advance:
//! requests arrive on a schedule that does not care how the server is
//! doing, so backlog and shed pressure emerge the way they do in
//! production.
//!
//! The generator is fully deterministic from its config (seeded
//! `StdRng`, like [`crate::QueryGenerator`]): the same config always
//! produces the same arrival instants and the same query choices, so a
//! bench row is reproducible run-to-run. Hot-key skew follows a Zipf
//! law over the unique-query pool — rank `i` is drawn with weight
//! `1/(i+1)^s` — which is what makes cache hits and dedup joins occur
//! at realistic rates: `s = 0` is uniform, `s ≈ 1` is a
//! classic web-query skew where a few hot queries dominate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for one open-loop arrival schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopConfig {
    /// Mean offered rate, requests per second.
    pub rate_per_sec: f64,
    /// Inter-arrival jitter fraction in `[0, 1]`: each gap is drawn
    /// uniformly from `mean · [1 − jitter, 1 + jitter]`. 0 = a perfectly
    /// paced arrival comb.
    pub jitter: f64,
    /// Total arrivals to generate.
    pub n_arrivals: usize,
    /// Unique queries in the pool (arrivals index into `0..n_unique`).
    pub n_unique: usize,
    /// Zipf skew exponent `s` over the pool (0 = uniform).
    pub zipf_s: f64,
    /// RNG seed: same config, same schedule.
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            rate_per_sec: 1_000.0,
            jitter: 0.5,
            n_arrivals: 256,
            n_unique: 32,
            zipf_s: 1.0,
            seed: 0,
        }
    }
}

/// One scheduled arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival instant, microseconds from the schedule's start.
    pub at_us: u64,
    /// Which pool query arrives (rank into the Zipf-skewed pool;
    /// rank 0 is the hottest key).
    pub query_index: usize,
}

/// Generates the full arrival schedule for `config` (sorted by
/// `at_us` by construction).
///
/// # Panics
/// Panics when `rate_per_sec` is not positive or `n_unique` is 0 while
/// arrivals are requested.
pub fn arrivals(config: &OpenLoopConfig) -> Vec<Arrival> {
    assert!(config.rate_per_sec > 0.0, "open-loop rate must be positive");
    assert!(
        config.n_unique > 0 || config.n_arrivals == 0,
        "a non-empty schedule needs a non-empty query pool"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let jitter = config.jitter.clamp(0.0, 1.0);
    let mean_gap_us = 1_000_000.0 / config.rate_per_sec;

    // Zipf inverse-CDF over precomputed harmonic weights: cumulative
    // sums once, then each draw is a uniform sample located by binary
    // search. Deterministic and O(log n) per arrival.
    let weights: Vec<f64> = (0..config.n_unique)
        .map(|i| 1.0 / ((i + 1) as f64).powf(config.zipf_s))
        .collect();
    let mut cumulative = Vec::with_capacity(weights.len());
    let mut total = 0.0;
    for w in &weights {
        total += w;
        cumulative.push(total);
    }

    let mut schedule = Vec::with_capacity(config.n_arrivals);
    let mut clock_us = 0.0_f64;
    for _ in 0..config.n_arrivals {
        let factor = if jitter > 0.0 {
            rng.gen_range(1.0 - jitter..=1.0 + jitter)
        } else {
            1.0
        };
        clock_us += mean_gap_us * factor;
        let u: f64 = rng.gen_range(0.0..total);
        let query_index = cumulative.partition_point(|&c| c <= u);
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "the clock is a non-negative sum of gaps; arrivals fall on whole microseconds"
        )]
        schedule.push(Arrival {
            at_us: clock_us as u64,
            query_index: query_index.min(config.n_unique - 1),
        });
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_sorted() {
        let config = OpenLoopConfig::default();
        let a = arrivals(&config);
        let b = arrivals(&config);
        assert_eq!(a, b, "same config, same schedule");
        assert_eq!(a.len(), config.n_arrivals);
        assert!(a.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert!(a.iter().all(|x| x.query_index < config.n_unique));
        let other = arrivals(&OpenLoopConfig { seed: 1, ..config });
        assert_ne!(a, other, "seed changes the schedule");
    }

    #[test]
    fn rate_sets_the_mean_gap() {
        let config = OpenLoopConfig {
            rate_per_sec: 500.0, // 2000 µs mean gap
            jitter: 0.5,
            n_arrivals: 2_000,
            ..OpenLoopConfig::default()
        };
        let schedule = arrivals(&config);
        let span_us = schedule.last().unwrap().at_us as f64;
        let mean_gap = span_us / config.n_arrivals as f64;
        assert!(
            (mean_gap - 2_000.0).abs() < 100.0,
            "mean gap {mean_gap} µs drifted from the configured 2000 µs"
        );
    }

    #[test]
    fn zero_jitter_is_a_perfect_comb() {
        let config = OpenLoopConfig {
            rate_per_sec: 1_000.0,
            jitter: 0.0,
            n_arrivals: 10,
            ..OpenLoopConfig::default()
        };
        let schedule = arrivals(&config);
        for (i, arrival) in schedule.iter().enumerate() {
            assert_eq!(arrival.at_us, 1_000 * (i as u64 + 1));
        }
    }

    #[test]
    fn zipf_skew_concentrates_on_hot_ranks() {
        let skewed = OpenLoopConfig {
            n_arrivals: 4_000,
            n_unique: 16,
            zipf_s: 1.2,
            ..OpenLoopConfig::default()
        };
        let counts = |config: &OpenLoopConfig| {
            let mut c = vec![0usize; config.n_unique];
            for a in arrivals(config) {
                c[a.query_index] += 1;
            }
            c
        };
        let skewed_counts = counts(&skewed);
        assert!(
            skewed_counts[0] > skewed_counts[skewed.n_unique - 1] * 4,
            "rank 0 must dominate the coldest rank: {skewed_counts:?}"
        );
        // Monotone-ish: the hot rank beats the median rank too.
        assert!(skewed_counts[0] > skewed_counts[skewed.n_unique / 2]);

        let uniform_counts = counts(&OpenLoopConfig {
            zipf_s: 0.0,
            ..skewed.clone()
        });
        let (min, max) = (
            *uniform_counts.iter().min().unwrap(),
            *uniform_counts.iter().max().unwrap(),
        );
        assert!(
            max < min * 3,
            "s = 0 must be near-uniform: {uniform_counts:?}"
        );
    }

    #[test]
    fn empty_schedule_is_fine() {
        let config = OpenLoopConfig {
            n_arrivals: 0,
            n_unique: 0,
            ..OpenLoopConfig::default()
        };
        assert!(arrivals(&config).is_empty());
    }
}
