//! Database selection methods: the estimation baseline and the
//! RD-based method (paper Sections 2.2 and 3.3).

use crate::correctness::CorrectnessMetric;
use crate::expected::{expected_absolute, topk_marginals, RdState};
use mp_stats::float::total_cmp_desc;
use mp_stats::Discrete;
use std::cmp::Ordering;

/// The `k` largest marginal top-k probabilities as `(database, marginal)`,
/// ranked descending with ties to the lower index — the shared first step
/// of [`best_set`] and [`best_set_score_quick`]. Every marginal comes from
/// one [`topk_marginals`] sweep.
fn top_marginals(state: &RdState, k: usize) -> Vec<(usize, f64)> {
    top_k(topk_marginals(state, k), k)
}

/// The `k` best `(index, value)` pairs of `values` by [`total_cmp_desc`],
/// ties to the lower index, in that order: the first `k` of a sort of
/// all `n`, from one scan that keeps them. The scan runs in index order,
/// so a value equal to a kept one ranks behind it.
fn top_k(values: Vec<f64>, k: usize) -> Vec<(usize, f64)> {
    let mut top: Vec<(usize, f64)> = Vec::with_capacity(k + 1);
    for (i, m) in values.into_iter().enumerate() {
        if top.len() == k && total_cmp_desc(m, top[k - 1].1) != Ordering::Less {
            continue;
        }
        let at = top.partition_point(|&(_, kept)| total_cmp_desc(kept, m) != Ordering::Greater);
        top.insert(at, (i, m));
        top.truncate(k);
    }
    top
}

/// `E[Cor_p]` of the top-ranked set: the mean of its marginals.
fn mean_marginal(top: &[(usize, f64)]) -> f64 {
    (top.iter().map(|&(_, m)| m).sum::<f64>() / top.len() as f64).clamp(0.0, 1.0)
}

/// Baseline selection: rank databases by point estimate, descending,
/// ties to the lower index — exactly what summary-based metasearchers
/// do without a probabilistic model (paper Section 2.2).
pub fn baseline_select(estimates: &[f64], k: usize) -> Vec<usize> {
    assert!(k >= 1 && k <= estimates.len(), "k out of range");
    let mut order: Vec<usize> = (0..estimates.len()).collect();
    order.sort_by(|&a, &b| total_cmp_desc(estimates[a], estimates[b]).then(a.cmp(&b)));
    order.truncate(k);
    order
}

/// Finds the k-subset maximizing the expected correctness, returning
/// `(set, E[Cor(set)])` (paper Section 3.3: "returns the DBk that has
/// the highest certainty").
///
/// * **Partial metric** — the exact optimum: `E[Cor_p]` is `(1/k) Σ`
///   of per-database marginal top-k probabilities, so the best set is
///   the k databases with the largest marginals.
/// * **Absolute metric** — seeded with the marginal ranking, then
///   improved by first-improvement swap local search. With unimodal
///   RD overlap structures (ours, and the paper's) the marginal ranking
///   is already optimal in practice; the local search guards the rest.
pub fn best_set(state: &RdState, k: usize, metric: CorrectnessMetric) -> (Vec<usize>, f64) {
    assert!(k >= 1 && k <= state.len(), "k out of range");
    let _span = mp_obs::span!("selection.best_set");
    let top = top_marginals(state, k);
    let mut set: Vec<usize> = top.iter().map(|&(i, _)| i).collect();
    set.sort_unstable();

    // k = 1 short-circuit: Cor_a and Cor_p coincide (paper Section 3.2
    // footnote), and the best single database is exactly the marginal
    // argmax — its marginal *is* its expected correctness. This is the
    // hot case inside the greedy policy's usefulness evaluation.
    if k == 1 {
        return (set, top[0].1);
    }

    match metric {
        CorrectnessMetric::Partial => (set, mean_marginal(&top)),
        CorrectnessMetric::Absolute => swap_search(state.rds(), set),
    }
}

/// First-improvement swap local search for the absolute metric, from the
/// ascending set `set`: returns the improved set and its `E[Cor_a]`.
fn swap_search(rds: &[Discrete], mut set: Vec<usize>) -> (Vec<usize>, f64) {
    let mut score = expected_absolute(rds, &set);
    let mut improved = true;
    while improved {
        improved = false;
        'outer: for pos in 0..set.len() {
            for cand in 0..rds.len() {
                if set.contains(&cand) {
                    continue;
                }
                let mut trial = set.clone();
                trial[pos] = cand;
                trial.sort_unstable();
                let s = expected_absolute(rds, &trial);
                if s > score + 1e-12 {
                    set = trial;
                    score = s;
                    improved = true;
                    break 'outer;
                }
            }
        }
    }
    (set, score)
}

/// The *score* of the marginal-ranking candidate set, without the
/// absolute-metric local search — a fast, tight lower bound on
/// [`best_set`]'s score (and exactly equal for `k = 1` and the partial
/// metric). The greedy probing policy evaluates thousands of
/// hypothetical states per probe; it uses this instead of the full
/// search, which only ever changes *which database gets probed*, never
/// the correctness semantics of the returned answer.
pub fn best_set_score_quick(state: &RdState, k: usize, metric: CorrectnessMetric) -> f64 {
    assert!(k >= 1 && k <= state.len(), "k out of range");
    let top = top_marginals(state, k);
    match metric {
        CorrectnessMetric::Partial => mean_marginal(&top),
        CorrectnessMetric::Absolute if k == 1 => top[0].1,
        CorrectnessMetric::Absolute => {
            let set: Vec<usize> = top.iter().map(|&(i, _)| i).collect();
            expected_absolute(state.rds(), &set)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_stats::Discrete;
    use proptest::prelude::*;

    fn d(pairs: &[(f64, f64)]) -> Discrete {
        Discrete::from_weighted(pairs).unwrap()
    }

    fn paper_rds() -> Vec<Discrete> {
        vec![
            d(&[(50.0, 0.4), (100.0, 0.5), (150.0, 0.1)]),
            d(&[(65.0, 0.1), (130.0, 0.9)]),
        ]
    }

    #[test]
    fn baseline_ranks_by_estimate() {
        assert_eq!(baseline_select(&[10.0, 50.0, 30.0], 2), vec![1, 2]);
        assert_eq!(baseline_select(&[5.0, 5.0, 1.0], 1), vec![0]); // tie → lower idx
    }

    #[test]
    fn paper_example4_rd_beats_baseline() {
        // Estimates: db1 = 100, db2 = 65 → baseline selects db1.
        assert_eq!(baseline_select(&[100.0, 65.0], 1), vec![0]);
        // RD-based selection sees db2's consistent underestimation and
        // selects db2 with certainty 0.85 (the paper's headline example).
        let (set, score) = best_set(&RdState::new(paper_rds()), 1, CorrectnessMetric::Absolute);
        assert_eq!(set, vec![1]);
        assert!((score - 0.85).abs() < 1e-12);
    }

    #[test]
    fn partial_best_set_takes_top_marginals() {
        let rds = vec![
            d(&[(100.0, 1.0)]),
            d(&[(10.0, 1.0)]),
            d(&[(50.0, 0.5), (120.0, 0.5)]),
        ];
        let (set, score) = best_set(&RdState::new(rds), 2, CorrectnessMetric::Partial);
        assert_eq!(set, vec![0, 2]);
        assert_eq!(score, 1.0); // dbs 0 and 2 are always the top two
    }

    #[test]
    fn impulse_rds_reduce_to_exact_ranking() {
        let rds = vec![
            Discrete::impulse(5.0),
            Discrete::impulse(50.0),
            Discrete::impulse(20.0),
        ];
        let state = RdState::new(rds);
        for metric in [CorrectnessMetric::Absolute, CorrectnessMetric::Partial] {
            let (set, score) = best_set(&state, 2, metric);
            assert_eq!(set, vec![1, 2]);
            assert_eq!(score, 1.0);
        }
    }

    #[test]
    fn k_equals_n_selects_everything() {
        let (set, score) = best_set(&RdState::new(paper_rds()), 2, CorrectnessMetric::Absolute);
        assert_eq!(set, vec![0, 1]);
        assert_eq!(score, 1.0);
    }

    /// Exhaustive oracle over all k-subsets.
    fn brute_best(rds: &[Discrete], k: usize, metric: CorrectnessMetric) -> f64 {
        fn k_sets(n: usize, k: usize) -> Vec<Vec<usize>> {
            let mut out = Vec::new();
            let mut cur = Vec::new();
            fn rec(
                start: usize,
                n: usize,
                k: usize,
                cur: &mut Vec<usize>,
                out: &mut Vec<Vec<usize>>,
            ) {
                if cur.len() == k {
                    out.push(cur.clone());
                    return;
                }
                for i in start..n {
                    cur.push(i);
                    rec(i + 1, n, k, cur, out);
                    cur.pop();
                }
            }
            rec(0, n, k, &mut cur, &mut out);
            out
        }
        k_sets(rds.len(), k)
            .into_iter()
            .map(|s| crate::expected::expected_correctness(rds, &s, metric))
            .fold(0.0, f64::max)
    }

    fn arb_rds() -> impl Strategy<Value = Vec<Discrete>> {
        proptest::collection::vec(
            proptest::collection::vec((0.0f64..40.0, 0.05f64..1.0), 1..4),
            2..6,
        )
        .prop_map(|dbs| {
            dbs.into_iter()
                .map(|pts| Discrete::from_weighted(&pts).unwrap())
                .collect()
        })
    }

    /// [`top_k`] by a full sort: the selection it replaced, kept as its
    /// oracle.
    fn sorted_top_k(values: Vec<f64>, k: usize) -> Vec<(usize, f64)> {
        let mut all: Vec<(usize, f64)> = values.into_iter().enumerate().collect();
        all.sort_by(|a, b| total_cmp_desc(a.1, b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// [`best_set`] seeded by the sort-based selection.
    fn sort_based_best_set(
        state: &RdState,
        k: usize,
        metric: CorrectnessMetric,
    ) -> (Vec<usize>, f64) {
        let top = sorted_top_k(topk_marginals(state, k), k);
        let mut set: Vec<usize> = top.iter().map(|&(i, _)| i).collect();
        set.sort_unstable();
        match metric {
            _ if k == 1 => (set, top[0].1),
            CorrectnessMetric::Partial => (set, mean_marginal(&top)),
            CorrectnessMetric::Absolute => swap_search(state.rds(), set),
        }
    }

    fn pair_bits(top: &[(usize, f64)]) -> Vec<(usize, u64)> {
        top.iter().map(|&(i, m)| (i, m.to_bits())).collect()
    }

    #[test]
    fn best_set_equals_the_sort_based_selection_on_exact_ties() {
        let shared = d(&[(1.0, 0.25), (3.0, 0.5), (4.0, 0.25)]);
        let states = [
            // Identical RDs: ranks apart only by the index tie-break.
            vec![shared.clone(); 6],
            // Impulses at one value: marginals tie at exactly 1 and 0.
            vec![Discrete::impulse(5.0); 5],
            // Signed zeros rank as one value.
            vec![
                d(&[(-0.0, 1.0)]),
                Discrete::impulse(0.0),
                d(&[(-0.0, 0.5), (2.0, 0.5)]),
                d(&[(0.0, 0.5), (2.0, 0.5)]),
                Discrete::impulse(0.0),
            ],
            // Identical RDs around a distinct leader and a tail.
            vec![
                shared.clone(),
                Discrete::impulse(9.0),
                shared.clone(),
                Discrete::impulse(0.0),
                shared,
            ],
        ];
        for rds in states {
            let n = rds.len();
            let state = RdState::new(rds);
            for k in [1, 2, 3, n - 1, n] {
                assert_eq!(
                    pair_bits(&top_marginals(&state, k)),
                    pair_bits(&sorted_top_k(topk_marginals(&state, k), k)),
                    "n {n}, k {k}"
                );
                for metric in [CorrectnessMetric::Absolute, CorrectnessMetric::Partial] {
                    let (set, score) = best_set(&state, k, metric);
                    let (oracle, oracle_score) = sort_based_best_set(&state, k, metric);
                    assert_eq!(set, oracle, "n {n}, k {k}, {metric:?}");
                    assert_eq!(score.to_bits(), oracle_score.to_bits());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_top_k_equals_the_sort_on_tied_values(
            grid in proptest::collection::vec(0usize..6, 1..14)
        ) {
            // Exact ties everywhere, `-0.0` against `0.0` among them.
            let values: Vec<f64> = grid
                .iter()
                .map(|&g| [-0.0, 0.0, 0.25, 0.5, 0.5f64.next_up(), 1.0][g])
                .collect();
            for k in 1..=values.len() {
                prop_assert_eq!(
                    pair_bits(&top_k(values.clone(), k)),
                    pair_bits(&sorted_top_k(values.clone(), k))
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_best_set_matches_exhaustive(
            rds in arb_rds(),
            k_raw in 1usize..4
        ) {
            let k = k_raw.min(rds.len());
            let state = RdState::new(rds.clone());
            for metric in [CorrectnessMetric::Absolute, CorrectnessMetric::Partial] {
                let (_, score) = best_set(&state, k, metric);
                let oracle = brute_best(&rds, k, metric);
                prop_assert!((score - oracle).abs() < 1e-9,
                    "{:?}: got {}, oracle {}", metric, score, oracle);
            }
        }

        #[test]
        fn prop_selected_set_is_valid(rds in arb_rds(), k_raw in 1usize..4) {
            let k = k_raw.min(rds.len());
            let (set, _) = best_set(&RdState::new(rds.clone()), k, CorrectnessMetric::Partial);
            prop_assert_eq!(set.len(), k);
            let distinct: std::collections::HashSet<_> = set.iter().collect();
            prop_assert_eq!(distinct.len(), k);
            prop_assert!(set.iter().all(|&i| i < rds.len()));
        }
    }
}
