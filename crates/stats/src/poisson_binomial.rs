//! Exact Poisson-binomial distribution via dynamic programming.
//!
//! Given independent Bernoulli trials with success probabilities
//! `p_1, …, p_n`, the Poisson-binomial distribution describes the number
//! of successes. Database `i` is in the true top-k iff fewer than `k` of
//! the `n − 1` other databases beat it, so the probability that *at most
//! `k − 1` other databases outrank it* is the heart of the expected
//! partial correctness `E[Cor_p(DBk)]` (paper Eq. 6). `mp-core`'s
//! per-database oracle `marginal_topk_prob` reads it through
//! [`at_most`]; its sweeps over the merged RD support compute the same
//! counts as truncated pmfs.
//!
//! The DP is the textbook `O(n²)` convolution, which is exact and far
//! cheaper than the naive `O(2^n)` enumeration; for the paper's `n = 20`
//! databases it is effectively free.

use crate::float::exact_zero;
use serde::{Deserialize, Serialize};

/// The exact distribution of the number of successes among independent,
/// non-identical Bernoulli trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoissonBinomial {
    /// `pmf[j] = P(exactly j successes)`, `j = 0..=n`.
    pmf: Vec<f64>,
}

impl PoissonBinomial {
    /// Computes the distribution for the given success probabilities.
    ///
    /// # Panics
    /// Panics if any probability is outside `[0, 1]` or non-finite.
    pub fn new(probs: &[f64]) -> Self {
        for &p in probs {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "Bernoulli probability out of range: {p}"
            );
        }
        let mut pmf = vec![0.0; probs.len() + 1];
        pmf[0] = 1.0;
        for (i, &p) in probs.iter().enumerate() {
            // Iterate downward so each trial is folded in exactly once.
            for j in (0..=i + 1).rev() {
                let stay = if j <= i { pmf[j] * (1.0 - p) } else { 0.0 };
                let from_below = if j > 0 { pmf[j - 1] * p } else { 0.0 };
                pmf[j] = stay + from_below;
            }
        }
        let pb = Self { pmf };
        pb.debug_assert_normalized();
        pb
    }

    /// Debug-build check that the pmf is a probability vector
    /// (non-negative, summing to 1 within `1e-9`) — lint rule L6.
    pub fn debug_assert_normalized(&self) {
        debug_assert!(
            self.pmf.iter().all(|&p| p >= 0.0)
                && (self.pmf.iter().sum::<f64>() - 1.0).abs() <= 1e-9,
            "PoissonBinomial pmf must be non-negative and sum to 1"
        );
    }

    /// Number of trials `n`.
    pub fn trials(&self) -> usize {
        self.pmf.len() - 1
    }

    /// `P(exactly j successes)`; zero for `j > n`.
    pub fn pmf(&self, j: usize) -> f64 {
        self.pmf.get(j).copied().unwrap_or(0.0)
    }

    /// `P(at most j successes)`.
    pub fn cdf(&self, j: usize) -> f64 {
        let hi = j.min(self.pmf.len() - 1);
        self.pmf[..=hi].iter().sum::<f64>().min(1.0)
    }

    /// Expected number of successes.
    pub fn mean(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(j, &p)| j as f64 * p)
            .sum()
    }

    /// The full probability mass function, index = success count.
    pub fn pmf_slice(&self) -> &[f64] {
        &self.pmf
    }
}

/// `P(at most `limit` successes)` among trials with probabilities
/// `probs`, computed with a truncated DP in `O(n · limit)`.
///
/// Equivalent to `PoissonBinomial::new(probs).cdf(limit)` but avoids
/// materializing mass above `limit + 1` successes — the common case in
/// top-k membership queries where `limit = k − 1 ≪ n`.
pub fn at_most(probs: &[f64], limit: usize) -> f64 {
    let cap = limit.min(probs.len());
    // state[j] = P(exactly j successes so far), truncated at cap+1 where
    // the overflow bucket absorbs everything above the limit.
    let mut state = vec![0.0f64; cap + 2];
    state[0] = 1.0;
    for &p in probs {
        if exact_zero(p) {
            continue;
        }
        for j in (0..=cap + 1).rev() {
            let from_below = if j > 0 { state[j - 1] * p } else { 0.0 };
            let stay = if j <= cap {
                state[j] * (1.0 - p)
            } else {
                state[j]
            };
            state[j] = stay + from_below;
        }
    }
    state[..=cap].iter().sum::<f64>().clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Brute-force oracle: enumerate all 2^n outcomes.
    fn brute_force_pmf(probs: &[f64]) -> Vec<f64> {
        let n = probs.len();
        let mut pmf = vec![0.0; n + 1];
        for mask in 0u32..(1 << n) {
            let mut p = 1.0;
            let mut successes = 0;
            for (i, &pi) in probs.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    p *= pi;
                    successes += 1;
                } else {
                    p *= 1.0 - pi;
                }
            }
            pmf[successes] += p;
        }
        pmf
    }

    #[test]
    fn matches_binomial_for_identical_probs() {
        // p = 0.5, n = 4 → binomial: 1/16, 4/16, 6/16, 4/16, 1/16.
        let pb = PoissonBinomial::new(&[0.5; 4]);
        let want = [1.0, 4.0, 6.0, 4.0, 1.0].map(|x| x / 16.0);
        for (j, &w) in want.iter().enumerate() {
            assert!((pb.pmf(j) - w).abs() < 1e-12, "j={j}");
        }
    }

    #[test]
    fn degenerate_probabilities() {
        let pb = PoissonBinomial::new(&[1.0, 0.0, 1.0]);
        assert_eq!(pb.pmf(2), 1.0);
        assert_eq!(pb.pmf(0), 0.0);
        assert_eq!(pb.cdf(1), 0.0);
        assert_eq!(pb.cdf(2), 1.0);
    }

    #[test]
    fn empty_trials() {
        let pb = PoissonBinomial::new(&[]);
        assert_eq!(pb.trials(), 0);
        assert_eq!(pb.pmf(0), 1.0);
        assert_eq!(pb.cdf(0), 1.0);
        assert_eq!(pb.mean(), 0.0);
    }

    #[test]
    fn mean_is_sum_of_probs() {
        let probs = [0.1, 0.9, 0.3, 0.5];
        let pb = PoissonBinomial::new(&probs);
        assert!((pb.mean() - probs.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn at_most_matches_full_cdf() {
        let probs = [0.12, 0.7, 0.33, 0.51, 0.08, 0.95];
        let pb = PoissonBinomial::new(&probs);
        for limit in 0..=probs.len() {
            let fast = at_most(&probs, limit);
            assert!(
                (fast - pb.cdf(limit)).abs() < 1e-12,
                "limit={limit}: {fast} vs {}",
                pb.cdf(limit)
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_invalid_probability() {
        PoissonBinomial::new(&[1.5]);
    }

    proptest! {
        #[test]
        fn prop_dp_matches_brute_force(
            probs in proptest::collection::vec(0.0f64..=1.0, 0..10)
        ) {
            let pb = PoissonBinomial::new(&probs);
            let oracle = brute_force_pmf(&probs);
            for (j, &w) in oracle.iter().enumerate() {
                prop_assert!((pb.pmf(j) - w).abs() < 1e-9, "j={}, got {}, want {}", j, pb.pmf(j), w);
            }
        }

        #[test]
        fn prop_pmf_sums_to_one(
            probs in proptest::collection::vec(0.0f64..=1.0, 0..25)
        ) {
            let pb = PoissonBinomial::new(&probs);
            let total: f64 = pb.pmf_slice().iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_truncated_matches_full(
            probs in proptest::collection::vec(0.0f64..=1.0, 0..25),
            limit in 0usize..30
        ) {
            let pb = PoissonBinomial::new(&probs);
            prop_assert!((at_most(&probs, limit) - pb.cdf(limit)).abs() < 1e-9);
        }

        #[test]
        fn prop_cdf_monotone(
            probs in proptest::collection::vec(0.0f64..=1.0, 1..20)
        ) {
            let pb = PoissonBinomial::new(&probs);
            let mut prev = 0.0;
            for j in 0..=probs.len() {
                let c = pb.cdf(j);
                prop_assert!(c + 1e-12 >= prev);
                prev = c;
            }
        }
    }
}
