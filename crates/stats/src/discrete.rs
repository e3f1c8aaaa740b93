//! Finite discrete probability distributions.
//!
//! A [`Discrete`] is a normalized list of `(value, probability)` support
//! points kept sorted by value. The paper's *relevancy distributions*
//! (RDs) are exactly such objects: a handful of candidate relevancy
//! values, each with a probability derived from the error distribution.
//! Probing a database collapses its RD into an [`impulse`](Discrete::impulse).

use serde::{Deserialize, Serialize};

/// Numerical tolerance used when merging equal support values and when
/// validating that probabilities sum to one.
pub const PROB_EPS: f64 = 1e-9;

/// A finite discrete probability distribution over `f64` values.
///
/// Invariants (enforced by every constructor):
/// * support values are finite, strictly increasing, and deduplicated
///   (probabilities of equal values are merged);
/// * probabilities are non-negative and sum to 1 (±[`PROB_EPS`]);
/// * zero-probability support points are dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Discrete {
    points: Vec<(f64, f64)>,
}

/// Errors raised by [`Discrete`] constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscreteError {
    /// The support/probability input was empty or all-zero.
    Empty,
    /// A value or probability was NaN/infinite, or a probability negative.
    Invalid,
}

impl std::fmt::Display for DiscreteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiscreteError::Empty => write!(f, "distribution has no support"),
            DiscreteError::Invalid => {
                write!(
                    f,
                    "invalid support point (non-finite value or negative probability)"
                )
            }
        }
    }
}
impl std::error::Error for DiscreteError {}

impl Discrete {
    /// Builds a distribution from raw `(value, weight)` pairs.
    ///
    /// Weights need not be normalized; they are rescaled to sum to 1.
    /// Pairs with equal values (within [`PROB_EPS`]) are merged.
    // mp-lint: allow(L6): pure delegation to merge_sorted, which asserts
    pub fn from_weighted(pairs: &[(f64, f64)]) -> Result<Self, DiscreteError> {
        if pairs.is_empty() {
            return Err(DiscreteError::Empty);
        }
        for &(v, w) in pairs {
            if !v.is_finite() || !w.is_finite() || w < 0.0 {
                return Err(DiscreteError::Invalid);
            }
        }
        let mut pts: Vec<(f64, f64)> = pairs.iter().copied().filter(|&(_, w)| w > 0.0).collect();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
        Self::merge_sorted(pts)
    }

    /// The distribution of `pts`, positive weights in ascending value
    /// order: adjacent values within [`PROB_EPS`] of the first value of
    /// their run merge into it, then the weights are divided by their
    /// left-to-right total. The one tail of [`Self::from_weighted`] and
    /// [`Self::map_nondecreasing`], so both give the same bits.
    fn merge_sorted(mut pts: Vec<(f64, f64)>) -> Result<Self, DiscreteError> {
        if pts.is_empty() {
            return Err(DiscreteError::Empty);
        }
        let mut last = 0;
        for r in 1..pts.len() {
            let (v, w) = pts[r];
            if (v - pts[last].0).abs() <= PROB_EPS {
                pts[last].1 += w;
            } else {
                last += 1;
                pts[last] = (v, w);
            }
        }
        pts.truncate(last + 1);
        let total: f64 = pts.iter().map(|&(_, w)| w).sum();
        for p in &mut pts {
            p.1 /= total;
        }
        let dist = Self { points: pts };
        dist.debug_assert_normalized();
        Ok(dist)
    }

    /// A distribution concentrated on a single value with probability 1.
    ///
    /// This models the paper's post-probe RD: once a database is probed
    /// its actual relevancy is known exactly (Section 3.4, Figure 5(e)).
    pub fn impulse(value: f64) -> Self {
        assert!(value.is_finite(), "impulse value must be finite");
        let dist = Self {
            points: vec![(value, 1.0)],
        };
        dist.debug_assert_normalized();
        dist
    }

    /// True when the invariant holds: probabilities non-negative and
    /// summing to 1 within [`PROB_EPS`], support strictly increasing.
    pub fn is_normalized(&self) -> bool {
        let total: f64 = self.points.iter().map(|&(_, p)| p).sum();
        self.points.iter().all(|&(v, p)| v.is_finite() && p >= 0.0)
            && (total - 1.0).abs() <= PROB_EPS
            && self.points.windows(2).all(|w| w[0].0 < w[1].0)
    }

    /// Debug-build check of the normalization invariant (lint rule L6:
    /// every pmf constructor must end with this, or an equivalent
    /// `debug_assert`, so invariant drift is caught at the source).
    pub fn debug_assert_normalized(&self) {
        debug_assert!(
            self.is_normalized(),
            "Discrete invariant violated: probabilities must be non-negative, \
             sum to 1, and sit on a strictly increasing finite support"
        );
    }

    /// The support points as `(value, probability)` pairs, sorted by value.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of support points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the distribution is an impulse (single support point).
    pub fn is_impulse(&self) -> bool {
        self.points.len() == 1
    }

    /// Always false: constructors reject empty supports.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Expected value.
    pub fn mean(&self) -> f64 {
        self.points.iter().map(|&(v, p)| v * p).sum()
    }

    /// Variance (population).
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.points
            .iter()
            .map(|&(v, p)| p * (v - m) * (v - m))
            .sum::<f64>()
            .max(0.0)
    }

    /// Smallest support value.
    pub fn min_value(&self) -> f64 {
        self.points[0].0
    }

    /// Largest support value.
    pub fn max_value(&self) -> f64 {
        self.points[self.points.len() - 1].0
    }

    /// `P(X < x)` (strictly less).
    pub fn cdf_lt(&self, x: f64) -> f64 {
        self.points
            .iter()
            .take_while(|&&(v, _)| v < x)
            .map(|&(_, p)| p)
            .sum()
    }

    /// `P(X <= x)`.
    pub fn cdf_le(&self, x: f64) -> f64 {
        self.points
            .iter()
            .take_while(|&&(v, _)| v <= x)
            .map(|&(_, p)| p)
            .sum()
    }

    /// `P(X > x)`.
    pub fn prob_gt(&self, x: f64) -> f64 {
        (1.0 - self.cdf_le(x)).max(0.0)
    }

    /// `P(X = x)` (exact support match within [`PROB_EPS`]).
    pub fn prob_eq(&self, x: f64) -> f64 {
        self.points
            .iter()
            .find(|&&(v, _)| (v - x).abs() <= PROB_EPS)
            .map(|&(_, p)| p)
            .unwrap_or(0.0)
    }

    /// Samples one value using the provided uniform `u ∈ [0, 1)`.
    ///
    /// Exposed in terms of a raw uniform (rather than an `Rng`) so callers
    /// can drive it from any source, including quasi-random sequences in
    /// tests.
    pub fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let mut acc = 0.0;
        for &(v, p) in &self.points {
            acc += p;
            if u < acc {
                return v;
            }
        }
        self.max_value()
    }

    /// Samples one value from the distribution.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.gen::<f64>())
    }

    /// Applies a non-decreasing `f` to every support value in one pass,
    /// merging values that land within [`PROB_EPS`] and re-normalizing.
    ///
    /// Used to derive a relevancy distribution from an error distribution:
    /// `RD = r̂ · (1 + err)` maps each error support point to a relevancy
    /// support point (paper Example 3). A non-decreasing `f` keeps the
    /// support in order, so no sort runs, and the result is bit-identical
    /// to [`Self::from_weighted`] of the mapped points.
    pub fn map_nondecreasing(&self, mut f: impl FnMut(f64) -> f64) -> Result<Self, DiscreteError> {
        let mut mapped = Vec::with_capacity(self.points.len());
        for &(v, p) in &self.points {
            let v = f(v);
            if !v.is_finite() {
                return Err(DiscreteError::Invalid);
            }
            debug_assert!(
                mapped.last().is_none_or(|&(u, _): &(f64, f64)| u <= v),
                "map_nondecreasing: the map must not decrease"
            );
            if p > 0.0 {
                mapped.push((v, p));
            }
        }
        Self::merge_sorted(mapped).inspect(|d| d.debug_assert_normalized())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn d(pairs: &[(f64, f64)]) -> Discrete {
        Discrete::from_weighted(pairs).unwrap()
    }

    #[test]
    fn normalizes_weights() {
        let dist = d(&[(1.0, 2.0), (2.0, 2.0)]);
        assert_eq!(dist.points(), &[(1.0, 0.5), (2.0, 0.5)]);
    }

    #[test]
    fn merges_duplicate_values() {
        let dist = d(&[(1.0, 1.0), (1.0, 1.0), (3.0, 2.0)]);
        assert_eq!(dist.len(), 2);
        assert!((dist.prob_eq(1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn drops_zero_weight_points() {
        let dist = d(&[(1.0, 0.0), (2.0, 1.0)]);
        assert_eq!(dist.len(), 1);
        assert!(dist.is_impulse());
    }

    #[test]
    fn rejects_empty_and_invalid() {
        assert_eq!(Discrete::from_weighted(&[]), Err(DiscreteError::Empty));
        assert_eq!(
            Discrete::from_weighted(&[(1.0, 0.0)]),
            Err(DiscreteError::Empty)
        );
        assert_eq!(
            Discrete::from_weighted(&[(f64::NAN, 1.0)]),
            Err(DiscreteError::Invalid)
        );
        assert_eq!(
            Discrete::from_weighted(&[(1.0, -0.5)]),
            Err(DiscreteError::Invalid)
        );
    }

    #[test]
    fn impulse_properties() {
        let dist = Discrete::impulse(42.0);
        assert!(dist.is_impulse());
        assert_eq!(dist.mean(), 42.0);
        assert_eq!(dist.variance(), 0.0);
        assert_eq!(dist.prob_gt(41.0), 1.0);
        assert_eq!(dist.prob_gt(42.0), 0.0);
    }

    #[test]
    fn paper_figure5_rd_of_db1() {
        // Paper Figure 5(d): RD of db1 has values 50, 100, 150 with
        // probabilities 0.1, 0.5, 0.4 (ED bars -50%, 0%, +50% applied to
        // the estimate 100).
        let rd = d(&[(50.0, 0.1), (100.0, 0.5), (150.0, 0.4)]);
        assert!((rd.mean() - 115.0).abs() < 1e-9);
        assert!((rd.cdf_lt(130.0) - 0.6).abs() < 1e-12);
        assert!((rd.prob_gt(65.0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn cdf_and_tail_are_consistent() {
        let dist = d(&[(1.0, 0.2), (2.0, 0.3), (5.0, 0.5)]);
        for x in [0.0, 1.0, 1.5, 2.0, 4.9, 5.0, 6.0] {
            let total = dist.cdf_lt(x) + dist.prob_eq(x) + dist.prob_gt(x);
            assert!((total - 1.0).abs() < 1e-12, "x={x}: {total}");
        }
    }

    #[test]
    fn quantile_covers_support() {
        let dist = d(&[(1.0, 0.25), (2.0, 0.25), (3.0, 0.5)]);
        assert_eq!(dist.quantile(0.0), 1.0);
        assert_eq!(dist.quantile(0.3), 2.0);
        assert_eq!(dist.quantile(0.99), 3.0);
        assert_eq!(dist.quantile(1.0), 3.0);
    }

    #[test]
    fn map_nondecreasing_scales_support() {
        // err ∈ {-0.5, 0, +0.5}, estimate 100 → relevancy {50, 100, 150}.
        let ed = d(&[(-0.5, 0.1), (0.0, 0.5), (0.5, 0.4)]);
        let rd = ed.map_nondecreasing(|e| 100.0 * (1.0 + e)).unwrap();
        assert_eq!(rd.points(), &[(50.0, 0.1), (100.0, 0.5), (150.0, 0.4)]);
    }

    #[test]
    fn map_nondecreasing_merges_collisions() {
        let ed = d(&[(-1.0, 0.3), (-0.999_999_999_99, 0.2), (1.0, 0.5)]);
        let rd = ed
            .map_nondecreasing(|e| 100.0 * (1.0 + e).max(0.0))
            .unwrap();
        assert_eq!(rd.len(), 2);
        assert!((rd.prob_eq(0.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn map_nondecreasing_rejects_non_finite_values() {
        let ed = d(&[(1.0, 0.5), (2.0, 0.5)]);
        assert_eq!(
            ed.map_nondecreasing(|v| v * f64::MAX * 2.0),
            Err(DiscreteError::Invalid)
        );
    }

    #[test]
    fn sampling_matches_probabilities() {
        let dist = d(&[(1.0, 0.2), (2.0, 0.8)]);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let ones = (0..n).filter(|_| dist.sample(&mut rng) == 1.0).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.02, "frac={frac}");
    }

    proptest! {
        #[test]
        fn prop_probabilities_sum_to_one(
            pairs in proptest::collection::vec((-1e6f64..1e6, 1e-6f64..10.0), 1..20)
        ) {
            let dist = Discrete::from_weighted(&pairs).unwrap();
            let total: f64 = dist.points().iter().map(|&(_, p)| p).sum();
            prop_assert!((total - 1.0).abs() < 1e-6);
        }

        #[test]
        fn prop_support_sorted_and_unique(
            pairs in proptest::collection::vec((-1e6f64..1e6, 1e-6f64..10.0), 1..20)
        ) {
            let dist = Discrete::from_weighted(&pairs).unwrap();
            let pts = dist.points();
            for w in pts.windows(2) {
                prop_assert!(w[0].0 < w[1].0);
            }
        }

        #[test]
        fn prop_mean_within_support(
            pairs in proptest::collection::vec((-1e3f64..1e3, 1e-3f64..10.0), 1..20)
        ) {
            let dist = Discrete::from_weighted(&pairs).unwrap();
            let m = dist.mean();
            prop_assert!(m >= dist.min_value() - 1e-9);
            prop_assert!(m <= dist.max_value() + 1e-9);
        }

        #[test]
        fn prop_map_nondecreasing_equals_from_weighted_of_mapped_points(
            pairs in proptest::collection::vec((-2.0f64..40.0, 1e-6f64..10.0), 1..12),
            base in 0.0f64..1e4
        ) {
            // The RD derivation's map: clamping sends every error ≤ −1
            // to 0, so clamped values collide and merge.
            let ed = Discrete::from_weighted(&pairs).unwrap();
            let f = |e: f64| (base * (1.0 + e)).max(0.0);
            let mapped: Vec<(f64, f64)> = ed.points().iter().map(|&(v, p)| (f(v), p)).collect();
            let one_pass = ed.map_nondecreasing(f).unwrap();
            let sorted = Discrete::from_weighted(&mapped).unwrap();
            prop_assert_eq!(one_pass.len(), sorted.len());
            for (a, b) in one_pass.points().iter().zip(sorted.points()) {
                prop_assert_eq!(a.0.to_bits(), b.0.to_bits());
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }

        #[test]
        fn prop_quantile_in_support(
            pairs in proptest::collection::vec((-1e3f64..1e3, 1e-3f64..10.0), 1..20),
            u in 0.0f64..1.0
        ) {
            let dist = Discrete::from_weighted(&pairs).unwrap();
            let v = dist.quantile(u);
            prop_assert!(dist.points().iter().any(|&(s, _)| s == v));
        }
    }
}
