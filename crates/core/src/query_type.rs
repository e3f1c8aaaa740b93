//! Query-type classification (paper Section 4.1, Figure 9).
//!
//! The estimator's error behaviour depends on the query, so EDs are
//! learned per *query type*, not globally. The paper's decision tree
//! splits on (a) the number of query terms — more terms compound the
//! independence error — and (b) whether the initial estimate clears a
//! coverage threshold θ: `r̂ < θ` suggests the database does not cover
//! the query topic (actual relevancy typically ~0, errors negative),
//! `r̂ ≥ θ` suggests real coverage where correlated terms make the
//! actual count blow past the estimate (errors positive).
//!
//! We generalize the paper's single threshold to an ordered *ladder* of
//! thresholds (the paper's extended version studies alternative
//! thresholds; a ladder of one reproduces the published tree exactly).
//! A query's *coverage bucket* is the number of thresholds its estimate
//! clears, so `[θ]` yields the paper's two buckets and `[θ₁, θ₂]`
//! yields three — useful when estimates span several orders of
//! magnitude, as they do on heterogeneous database sets.
//!
//! Classification is **database-dependent**: the same query may be
//! high-coverage on one database and low-coverage on another.

use serde::{Deserialize, Serialize};

/// Bucketed query arity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ArityBucket {
    /// Single-term queries (not the paper's focus but handled).
    One,
    /// Two-term queries.
    Two,
    /// Three-or-more-term queries.
    ThreeUp,
}

impl ArityBucket {
    /// Buckets a distinct-term count.
    pub fn of(n_terms: usize) -> Self {
        match n_terms {
            0 | 1 => ArityBucket::One,
            2 => ArityBucket::Two,
            _ => ArityBucket::ThreeUp,
        }
    }

    /// All arity buckets in order.
    pub fn all() -> [ArityBucket; 3] {
        [ArityBucket::One, ArityBucket::Two, ArityBucket::ThreeUp]
    }
}

/// A leaf of the query-type decision tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QueryType {
    /// The query's arity bucket.
    pub arity: ArityBucket,
    /// Coverage bucket: the number of coverage thresholds the estimate
    /// clears (0 = below every threshold). With the paper's single
    /// threshold this is 0 or 1.
    pub coverage: u8,
}

impl QueryType {
    /// Classifies a query for one database from its term count and its
    /// initial estimate there, against an ascending threshold ladder.
    ///
    /// # Panics
    /// Panics if `thresholds` is empty or not strictly ascending.
    pub fn classify(n_terms: usize, estimate: f64, thresholds: &[f64]) -> Self {
        assert!(
            !thresholds.is_empty(),
            "need at least one coverage threshold"
        );
        debug_assert!(
            thresholds.windows(2).all(|w| w[0] < w[1]),
            "thresholds must be strictly ascending"
        );
        let cleared = thresholds.iter().filter(|&&t| estimate >= t).count();
        let coverage =
            u8::try_from(cleared).expect("coverage ladders have far fewer than 256 rungs");
        Self {
            arity: ArityBucket::of(n_terms),
            coverage,
        }
    }

    /// Whether the estimate cleared at least one threshold (the paper's
    /// "`r̂ ≥ θ`" branch).
    pub fn high_coverage(&self) -> bool {
        self.coverage > 0
    }

    /// All query types for a ladder of `n_thresholds`, in stable order.
    pub fn all(n_thresholds: usize) -> Vec<QueryType> {
        let max_cov =
            u8::try_from(n_thresholds).expect("coverage ladders have far fewer than 256 rungs");
        let mut out = Vec::new();
        for arity in ArityBucket::all() {
            for coverage in 0..=max_cov {
                out.push(QueryType { arity, coverage });
            }
        }
        out
    }

    /// This leaf's position in [`QueryType::all`]`(n_thresholds)`.
    pub(crate) fn index(&self, n_thresholds: usize) -> usize {
        debug_assert!(
            usize::from(self.coverage) <= n_thresholds,
            "coverage bucket beyond the ladder"
        );
        let arity = match self.arity {
            ArityBucket::One => 0,
            ArityBucket::Two => 1,
            ArityBucket::ThreeUp => 2,
        };
        arity * (n_thresholds + 1) + usize::from(self.coverage)
    }

    /// The fallback chain used when a leaf has no learned ED: nearest
    /// coverage buckets of the same arity first (closest informative
    /// leaf), then the other arities in the same spread order.
    pub fn fallbacks(&self, n_thresholds: usize) -> Vec<QueryType> {
        let max_cov =
            u8::try_from(n_thresholds).expect("coverage ladders have far fewer than 256 rungs");
        let coverage_order = |base: u8| -> Vec<u8> {
            let mut order = Vec::new();
            for d in 1..=max_cov {
                if base >= d {
                    order.push(base - d);
                }
                if base + d <= max_cov {
                    order.push(base + d);
                }
            }
            order
        };
        let mut out: Vec<QueryType> = coverage_order(self.coverage)
            .into_iter()
            .map(|coverage| QueryType {
                arity: self.arity,
                coverage,
            })
            .collect();
        for arity in ArityBucket::all() {
            if arity == self.arity {
                continue;
            }
            out.push(QueryType {
                arity,
                coverage: self.coverage,
            });
            out.extend(
                coverage_order(self.coverage)
                    .into_iter()
                    .map(|coverage| QueryType { arity, coverage }),
            );
        }
        out
    }
}

impl std::fmt::Display for QueryType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let arity = match self.arity {
            ArityBucket::One => "1-term",
            ArityBucket::Two => "2-term",
            ArityBucket::ThreeUp => "3-term",
        };
        write!(f, "{arity}/cov{}", self.coverage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_paper_tree() {
        // Paper Figure 9 with the single threshold θ = 100.
        let qt = QueryType::classify(2, 12.0, &[100.0]);
        assert_eq!(qt.arity, ArityBucket::Two);
        assert!(!qt.high_coverage());
        assert_eq!(qt.coverage, 0);

        let qt = QueryType::classify(3, 250.0, &[100.0]);
        assert_eq!(qt.arity, ArityBucket::ThreeUp);
        assert!(qt.high_coverage());
        assert_eq!(qt.coverage, 1);
    }

    #[test]
    fn threshold_boundary_is_inclusive_above() {
        assert_eq!(QueryType::classify(2, 100.0, &[100.0]).coverage, 1);
        assert_eq!(QueryType::classify(2, 99.999, &[100.0]).coverage, 0);
    }

    #[test]
    fn ladder_buckets() {
        let ladder = [1.0, 10.0, 100.0];
        assert_eq!(QueryType::classify(2, 0.5, &ladder).coverage, 0);
        assert_eq!(QueryType::classify(2, 5.0, &ladder).coverage, 1);
        assert_eq!(QueryType::classify(2, 50.0, &ladder).coverage, 2);
        assert_eq!(QueryType::classify(2, 5000.0, &ladder).coverage, 3);
    }

    #[test]
    fn arity_bucketing() {
        assert_eq!(ArityBucket::of(1), ArityBucket::One);
        assert_eq!(ArityBucket::of(2), ArityBucket::Two);
        assert_eq!(ArityBucket::of(3), ArityBucket::ThreeUp);
        assert_eq!(ArityBucket::of(7), ArityBucket::ThreeUp);
    }

    #[test]
    fn all_types_are_distinct_and_complete() {
        let all = QueryType::all(2);
        assert_eq!(all.len(), 9); // 3 arities × 3 buckets
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i], all[j]);
            }
        }
    }

    #[test]
    fn index_is_the_position_in_all() {
        for n in 1..4 {
            for (i, qt) in QueryType::all(n).into_iter().enumerate() {
                assert_eq!(qt.index(n), i);
            }
        }
    }

    #[test]
    fn fallbacks_start_with_nearest_coverage_same_arity() {
        let qt = QueryType {
            arity: ArityBucket::Two,
            coverage: 1,
        };
        let fb = qt.fallbacks(2);
        assert_eq!(
            fb[0],
            QueryType {
                arity: ArityBucket::Two,
                coverage: 0
            }
        );
        assert_eq!(
            fb[1],
            QueryType {
                arity: ArityBucket::Two,
                coverage: 2
            }
        );
        assert!(!fb.contains(&qt));
        // Every other leaf is reachable.
        let total = QueryType::all(2).len() - 1;
        let distinct: std::collections::HashSet<_> = fb.iter().collect();
        assert_eq!(distinct.len(), total);
    }

    #[test]
    fn single_threshold_fallback_is_the_sibling() {
        let qt = QueryType {
            arity: ArityBucket::Two,
            coverage: 1,
        };
        let fb = qt.fallbacks(1);
        assert_eq!(
            fb[0],
            QueryType {
                arity: ArityBucket::Two,
                coverage: 0
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least one coverage threshold")]
    fn empty_ladder_rejected() {
        QueryType::classify(2, 1.0, &[]);
    }

    #[test]
    fn display_is_readable() {
        let qt = QueryType {
            arity: ArityBucket::Two,
            coverage: 0,
        };
        assert_eq!(qt.to_string(), "2-term/cov0");
    }
}
