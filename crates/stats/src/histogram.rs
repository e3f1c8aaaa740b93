//! Fixed-edge histograms with per-bin empirical representatives.
//!
//! The paper's *error distributions* (EDs) are "histogram type"
//! distributions (Section 3.1, Figure 4): errors observed on sample
//! queries are bucketed, and each bucket's fraction becomes a
//! probability. We additionally track the empirical mean of the samples
//! inside each bin and use it as the bin's representative value when the
//! histogram is converted to a [`Discrete`] distribution — more faithful
//! than bin midpoints for skewed error data (estimation errors are
//! heavily right-skewed: underestimation is bounded at −100% but
//! overestimation is unbounded).

use crate::discrete::{Discrete, DiscreteError};
use serde::{Deserialize, Serialize};

/// Bin-edge specification for a [`Histogram`].
///
/// `edges` are strictly increasing interior edges `e_1 < … < e_m`; they
/// induce `m + 1` bins: `(-∞, e_1), [e_1, e_2), …, [e_m, +∞)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinSpec {
    edges: Vec<f64>,
}

impl BinSpec {
    /// Builds a spec from strictly increasing, finite interior edges.
    ///
    /// # Panics
    /// Panics on empty, non-finite, or non-increasing edges.
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(!edges.is_empty(), "BinSpec needs at least one edge");
        assert!(edges.iter().all(|e| e.is_finite()), "edges must be finite");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly increasing"
        );
        Self { edges }
    }

    /// `n` equal-width bins spanning `[lo, hi]` (plus the two open tails).
    pub fn uniform(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n >= 1 && lo < hi);
        let step = (hi - lo) / n as f64;
        Self::new((0..=n).map(|i| lo + step * i as f64).collect())
    }

    /// Interior edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Number of bins (`edges.len() + 1`).
    pub fn bin_count(&self) -> usize {
        self.edges.len() + 1
    }

    /// Index of the bin containing `x`.
    pub fn bin_of(&self, x: f64) -> usize {
        // partition_point: number of edges <= x gives the bin index for
        // the half-open convention [e_i, e_{i+1}).
        self.edges.partition_point(|&e| e <= x)
    }

    /// Nominal representative for a bin when it holds no samples: the
    /// midpoint for interior bins, the adjacent edge for the open tails.
    pub fn nominal_center(&self, bin: usize) -> f64 {
        let m = self.edges.len();
        assert!(bin <= m, "bin {bin} out of range for {m} edges");
        if bin == 0 {
            self.edges[0]
        } else if bin == m {
            self.edges[m - 1]
        } else {
            0.5 * (self.edges[bin - 1] + self.edges[bin])
        }
    }
}

/// A histogram over a fixed [`BinSpec`], accumulating counts and per-bin
/// value sums (for empirical bin representatives).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    spec: BinSpec,
    counts: Vec<u64>,
    sums: Vec<f64>,
    total: u64,
}

impl Histogram {
    /// An empty histogram over `spec`.
    pub fn new(spec: BinSpec) -> Self {
        let n = spec.bin_count();
        Self {
            spec,
            counts: vec![0; n],
            sums: vec![0.0; n],
            total: 0,
        }
    }

    /// Builds and fills a histogram in one call.
    pub fn from_samples(spec: BinSpec, samples: impl IntoIterator<Item = f64>) -> Self {
        let mut h = Self::new(spec);
        for s in samples {
            h.add(s);
        }
        h
    }

    /// Records one observation.
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "histogram samples must be finite");
        let b = self.spec.bin_of(x);
        self.counts[b] += 1;
        self.sums[b] += x;
        self.total += 1;
    }

    /// Merges another histogram over the *same* spec into this one.
    ///
    /// # Panics
    /// Panics if the bin specs differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.spec, other.spec,
            "cannot merge histograms with different bins"
        );
        for i in 0..self.counts.len() {
            self.counts[i] += other.counts[i];
            self.sums[i] += other.sums[i];
        }
        self.total += other.total;
    }

    /// The bin specification.
    pub fn spec(&self) -> &BinSpec {
        &self.spec
    }

    /// Per-bin observation counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-bin empirical probability (`count / total`; zeros when empty).
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// The representative value of `bin`: the empirical mean of its
    /// samples, or the nominal center when the bin is empty.
    pub fn representative(&self, bin: usize) -> f64 {
        if self.counts[bin] == 0 {
            self.spec.nominal_center(bin)
        } else {
            self.sums[bin] / self.counts[bin] as f64
        }
    }

    /// Converts the histogram into a [`Discrete`] distribution whose
    /// support is each non-empty bin's representative value.
    ///
    /// Errors if the histogram is empty.
    pub fn to_discrete(&self) -> Result<Discrete, DiscreteError> {
        let pairs: Vec<(f64, f64)> = (0..self.counts.len())
            .filter(|&b| self.counts[b] > 0)
            .map(|b| (self.representative(b), self.counts[b] as f64))
            .collect();
        Discrete::from_weighted(&pairs).inspect(|d| d.debug_assert_normalized())
    }
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::cast_possible_truncation,
        reason = "test sample counts are far below 2^32"
    )]

    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bin_of_respects_half_open_convention() {
        let spec = BinSpec::new(vec![0.0, 1.0, 2.0]);
        assert_eq!(spec.bin_count(), 4);
        assert_eq!(spec.bin_of(-0.5), 0);
        assert_eq!(spec.bin_of(0.0), 1); // [0, 1)
        assert_eq!(spec.bin_of(0.99), 1);
        assert_eq!(spec.bin_of(1.0), 2);
        assert_eq!(spec.bin_of(2.0), 3); // open upper tail
        assert_eq!(spec.bin_of(100.0), 3);
    }

    #[test]
    fn uniform_spec_edges() {
        let spec = BinSpec::uniform(0.0, 10.0, 5);
        assert_eq!(spec.edges(), &[0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
        assert_eq!(spec.bin_count(), 7);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_edges() {
        BinSpec::new(vec![1.0, 0.5]);
    }

    #[test]
    fn counts_and_probabilities() {
        let spec = BinSpec::new(vec![0.0, 10.0]);
        let h = Histogram::from_samples(spec, [-5.0, 1.0, 2.0, 3.0, 50.0]);
        assert_eq!(h.counts(), &[1, 3, 1]);
        assert_eq!(h.total(), 5);
        let p = h.probabilities();
        assert!((p[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn representative_is_empirical_mean() {
        let spec = BinSpec::new(vec![0.0, 10.0]);
        let h = Histogram::from_samples(spec, [1.0, 2.0, 6.0]);
        assert!((h.representative(1) - 3.0).abs() < 1e-12);
        // Empty tail bins fall back to nominal centers.
        assert_eq!(h.representative(0), 0.0);
        assert_eq!(h.representative(2), 10.0);
    }

    #[test]
    fn to_discrete_paper_figure4() {
        // Paper Figure 4: ED of db1 — 40% of sample queries err −50%,
        // 50% err 0%, 10% err +50%.
        let spec = BinSpec::uniform(-0.75, 0.75, 6); // bins of width 0.25
        let mut h = Histogram::new(spec);
        for _ in 0..40 {
            h.add(-0.5);
        }
        for _ in 0..50 {
            h.add(0.0);
        }
        for _ in 0..10 {
            h.add(0.5);
        }
        let d = h.to_discrete().unwrap();
        assert_eq!(d.len(), 3);
        assert!((d.prob_eq(-0.5) - 0.4).abs() < 1e-12);
        assert!((d.prob_eq(0.0) - 0.5).abs() < 1e-12);
        assert!((d.prob_eq(0.5) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let spec = BinSpec::new(vec![0.0]);
        let mut a = Histogram::from_samples(spec.clone(), [-1.0, 1.0]);
        let b = Histogram::from_samples(spec, [2.0, 3.0]);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.counts(), &[1, 3]);
    }

    #[test]
    fn empty_histogram_to_discrete_errors() {
        let h = Histogram::new(BinSpec::new(vec![0.0]));
        assert!(h.to_discrete().is_err());
    }

    proptest! {
        #[test]
        fn prop_total_equals_sum_of_counts(
            samples in proptest::collection::vec(-100.0f64..100.0, 0..200)
        ) {
            let h = Histogram::from_samples(BinSpec::uniform(-50.0, 50.0, 10), samples.clone());
            prop_assert_eq!(h.total() as usize, samples.len());
            prop_assert_eq!(h.counts().iter().sum::<u64>() as usize, samples.len());
        }

        #[test]
        fn prop_bin_of_in_range(
            edges_n in 1usize..10,
            x in -1e6f64..1e6
        ) {
            let spec = BinSpec::uniform(-100.0, 100.0, edges_n);
            prop_assert!(spec.bin_of(x) < spec.bin_count());
        }

        #[test]
        fn prop_discrete_mean_matches_sample_mean(
            samples in proptest::collection::vec(-100.0f64..100.0, 1..200)
        ) {
            // With empirical bin representatives, the discretized mean
            // equals the sample mean exactly (up to fp error).
            let h = Histogram::from_samples(BinSpec::uniform(-50.0, 50.0, 7), samples.clone());
            let d = h.to_discrete().unwrap();
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            prop_assert!((d.mean() - mean).abs() < 1e-6);
        }
    }
}
