//! Correctness metrics for a selected database set (paper Section 3.2,
//! Eqs. 3 and 4).

use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Which correctness metric is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CorrectnessMetric {
    /// `Cor_a`: 1 iff the selected set equals the true top-k (Eq. 3).
    Absolute,
    /// `Cor_p`: overlap fraction `|DBk ∩ DBtopk| / k` (Eq. 4).
    Partial,
}

impl std::fmt::Display for CorrectnessMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorrectnessMetric::Absolute => write!(f, "absolute"),
            CorrectnessMetric::Partial => write!(f, "partial"),
        }
    }
}

/// Absolute correctness `Cor_a(DBk)` (Eq. 3): 1.0 when `selected` and
/// `golden` contain the same databases (order-insensitive), else 0.0.
pub fn absolute_correctness(selected: &[usize], golden: &[usize]) -> f64 {
    let a: HashSet<usize> = selected.iter().copied().collect();
    let b: HashSet<usize> = golden.iter().copied().collect();
    if a == b {
        1.0
    } else {
        0.0
    }
}

/// Partial correctness `Cor_p(DBk)` (Eq. 4): the fraction of the golden
/// top-k present in the selection. `k` is taken from the golden set's
/// size.
///
/// # Panics
/// Panics when `golden` is empty.
pub fn partial_correctness(selected: &[usize], golden: &[usize]) -> f64 {
    assert!(!golden.is_empty(), "golden top-k must be non-empty");
    let g: HashSet<usize> = golden.iter().copied().collect();
    let overlap = selected.iter().filter(|i| g.contains(i)).count();
    overlap as f64 / g.len() as f64
}

impl CorrectnessMetric {
    /// Scores a selection against the golden standard under this metric.
    pub fn score(&self, selected: &[usize], golden: &[usize]) -> f64 {
        match self {
            CorrectnessMetric::Absolute => absolute_correctness(selected, golden),
            CorrectnessMetric::Partial => partial_correctness(selected, golden),
        }
    }
}

/// The library-wide rank order on `(index, relevancy)` outcomes:
/// `Ordering::Less` when `(i, vi)` ranks strictly ahead of `(j, vj)` —
/// higher relevancy first, equal relevancies rank the lower index first.
///
/// This single helper defines the tie-break **everywhere** it matters —
/// the golden top-k, the exact beat-probabilities behind `E[Cor]`
/// (`expected::prob_beats`), and the merged-support order that both the
/// selection sweep and the probing engine's sweep walk — so the
/// realized relevancies always induce one consistent
/// total order and the exact formulas stay aligned with the Monte-Carlo
/// oracle.
///
/// Implemented with [`mp_stats::float::total_cmp_desc`], a *total*
/// order: `0.0` and `-0.0` tie (and fall through to the index
/// tie-break) exactly as IEEE `==` would have it, and a NaN — a
/// programming error upstream, rejected by a debug assertion — ranks
/// after every real value in release builds instead of panicking
/// mid-sort.
pub fn rank_order(i: usize, vi: f64, j: usize, vj: f64) -> std::cmp::Ordering {
    debug_assert!(
        !vi.is_nan() && !vj.is_nan(),
        "relevancies are finite by construction"
    );
    mp_stats::float::total_cmp_desc(vi, vj).then(i.cmp(&j))
}

/// The true top-k databases given every database's actual relevancy,
/// under [`rank_order`].
pub fn golden_topk(actuals: &[f64], k: usize) -> Vec<usize> {
    assert!(k >= 1 && k <= actuals.len(), "k out of range");
    let mut order: Vec<usize> = (0..actuals.len()).collect();
    order.sort_by(|&a, &b| rank_order(a, actuals[a], b, actuals[b]));
    order.truncate(k);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn absolute_is_all_or_nothing() {
        assert_eq!(absolute_correctness(&[1, 2], &[2, 1]), 1.0);
        assert_eq!(absolute_correctness(&[1, 3], &[1, 2]), 0.0);
        assert_eq!(absolute_correctness(&[], &[]), 1.0);
    }

    #[test]
    fn paper_partial_example() {
        // "if an answer set DB3 contains 2 of the 3 most relevant
        // databases, its partial correctness is 2/3" (Section 3.2).
        let c = partial_correctness(&[0, 1, 9], &[0, 1, 2]);
        assert!((c - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn k1_metrics_coincide() {
        // Paper footnote: at k = 1, Cor_a and Cor_p are the same.
        for (sel, gold) in [(vec![3usize], vec![3usize]), (vec![3], vec![5])] {
            assert_eq!(
                absolute_correctness(&sel, &gold),
                partial_correctness(&sel, &gold)
            );
        }
    }

    #[test]
    fn golden_ranks_by_relevancy_then_index() {
        let actuals = [5.0, 9.0, 9.0, 1.0];
        assert_eq!(golden_topk(&actuals, 1), vec![1]);
        assert_eq!(golden_topk(&actuals, 2), vec![1, 2]); // tie: lower idx
        assert_eq!(golden_topk(&actuals, 3), vec![1, 2, 0]);
    }

    #[test]
    fn rank_order_is_a_strict_total_order() {
        use std::cmp::Ordering;
        assert_eq!(rank_order(0, 9.0, 1, 5.0), Ordering::Less);
        assert_eq!(rank_order(1, 5.0, 0, 9.0), Ordering::Greater);
        // Equal values: lower index wins, never Equal for distinct dbs.
        assert_eq!(rank_order(0, 7.0, 1, 7.0), Ordering::Less);
        assert_eq!(rank_order(1, 7.0, 0, 7.0), Ordering::Greater);
        assert_eq!(rank_order(2, 7.0, 2, 7.0), Ordering::Equal);
    }

    #[test]
    fn rank_order_signed_zeros_tie_on_index() {
        // Regression: with a raw `f64::total_cmp`, `-0.0` would rank
        // *after* `+0.0` and the index tie-break would never fire,
        // making the selection order depend on the sign of a zero. The
        // canonicalizing comparator must treat the zeros as equal.
        use std::cmp::Ordering;
        assert_eq!(rank_order(0, -0.0, 1, 0.0), Ordering::Less);
        assert_eq!(rank_order(0, 0.0, 1, -0.0), Ordering::Less);
        assert_eq!(rank_order(1, -0.0, 0, 0.0), Ordering::Greater);
    }

    #[test]
    fn golden_topk_pins_selection_order_on_exact_ties() {
        // All-equal relevancies (the degenerate exact-tie input): the
        // selection must be the lowest indices, in index order, no
        // matter how the zeros are signed.
        assert_eq!(golden_topk(&[0.0, -0.0, 0.0, -0.0], 2), vec![0, 1]);
        assert_eq!(golden_topk(&[5.0, 5.0, 5.0], 2), vec![0, 1]);
        // A tie below a strict maximum: max first, then lower tied index.
        assert_eq!(golden_topk(&[3.0, 7.0, 3.0], 2), vec![1, 0]);
    }

    #[test]
    fn metric_dispatch() {
        assert_eq!(CorrectnessMetric::Absolute.score(&[1], &[2]), 0.0);
        assert_eq!(CorrectnessMetric::Partial.score(&[1, 2], &[2, 3]), 0.5);
    }

    proptest! {
        #[test]
        fn prop_partial_bounds_and_absolute_consistency(
            selected in proptest::collection::hash_set(0usize..10, 1..5),
            golden in proptest::collection::hash_set(0usize..10, 1..5)
        ) {
            let s: Vec<usize> = selected.iter().copied().collect();
            let g: Vec<usize> = golden.iter().copied().collect();
            let p = partial_correctness(&s, &g);
            prop_assert!((0.0..=1.0).contains(&p));
            let a = absolute_correctness(&s, &g);
            // Absolute correct implies full partial credit.
            if a == 1.0 {
                prop_assert_eq!(p, 1.0);
            }
        }

        #[test]
        fn prop_golden_is_actually_topk(
            actuals in proptest::collection::vec(0.0f64..100.0, 1..12),
            k_raw in 1usize..12
        ) {
            let k = k_raw.min(actuals.len());
            let golden = golden_topk(&actuals, k);
            prop_assert_eq!(golden.len(), k);
            let min_in = golden.iter().map(|&i| actuals[i]).fold(f64::INFINITY, f64::min);
            for (i, &a) in actuals.iter().enumerate() {
                if !golden.contains(&i) {
                    prop_assert!(a <= min_in + 1e-12);
                }
            }
        }
    }
}
