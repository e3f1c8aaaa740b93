//! The greedy-probing evaluation engine: every candidate's expected
//! usefulness from one sweep over the merged RD support (DESIGN.md §5).
//!
//! `GreedyPolicy::select_db` scores each unprobed candidate `h` by the
//! expectation, over `h`'s RD, of the post-probe best-set quick score,
//! which reads every marginal `P(i ∈ top-k)` in the state where `h` is
//! an impulse at its outcome `w`. There `h` is ahead of `(v, i)` for
//! sure when `(w, h)` ranks ahead of it, and behind it otherwise, so
//! `i`'s marginal sums `p · B_h` over its points `(v, p)` that `(w, h)`
//! beats and `p · A_h` over the rest, where
//! `A_h = P(≤ k−1 rivals other than h ahead of (v, i))` and
//! `B_h = P(≤ k−2 …)`. One sweep in `rank_order` yields them all:
//!
//! * At `(v, i)` rival `j`'s leaf is `[behind_j, ahead_j]`. k-slot prefix
//!   and suffix pmfs over the rivals `j ≠ i` give each candidate `h`
//!   `prefix_h ⊛ suffix_h`, and with it `A_h` and `B_h`, from sums of
//!   products of non-negative numbers: nothing divides.
//! * `h`'s outcomes that rank ahead of `(v, i)` are its points swept
//!   before it, its top `swept_h`, so `p·A_h` and `p·B_h` go to bucket
//!   `s_h − swept_h` of the pair `(h, i)`. Outcome `w` (ascending index)
//!   reads `Σ_{bucket ≤ w} B + Σ_{bucket > w} A`.
//! * `h`'s own marginal at `w` is the all-rivals prefix at `(w, h)`.
//! * Each `(h, w)` keeps its `k` largest marginals: the partial score is
//!   their mean, the absolute `k = 1` score their max.
//!
//! Cost per step: `O(N log N + N·n·k²)` for the sweep and
//! `O(n²·s̄ + n·N·k)` for the reduce (`N = Σ|support|`, `s̄` its mean),
//! on one thread, holding the buckets of a block of databases at a time
//! within `BUCKET_BUDGET`.
//!
//! Two kinds of state take the reference (`naive_usefulness`) per
//! candidate instead, counted by `engine.reference_fallbacks`: the
//! absolute metric at `k > 1`, whose quick score does not decompose per
//! database, and a negative support point, which a probe would land at
//! `canonical(max(w, 0))` ([`RdState::probe`]), off its place in the
//! sweep. `derive_rd` never emits one, but [`RdState::new`] accepts it;
//! `-0.0` ranks as `0.0` and takes the sweep.

use crate::correctness::CorrectnessMetric;
use crate::expected::{conv, merged_support, set_rival, RdState};
use crate::selection::best_set_score_quick;

/// The most `f64`s of `(A, B)` bucket rows one pass of the sweep holds
/// (512 KiB). A 20-database state fits in one pass; 256 databases with
/// 8-point supports take 19.
const BUCKET_BUDGET: usize = 1 << 16;

/// Whether the sweep computes the exact quick score for this state.
fn sweep_applies(state: &RdState, k: usize, metric: CorrectnessMetric) -> bool {
    (metric == CorrectnessMetric::Partial || k == 1)
        && state.rds().iter().all(|rd| rd.min_value() >= 0.0)
}

/// The usefulness of every unprobed candidate, in ascending index order:
/// the whole candidate scan of one `select_db` step. Values match
/// [`crate::probing::GreedyPolicy::usefulness`] within floating-point
/// reassociation noise (≪ 1e-12 at testbed sizes).
pub fn usefulness_all(state: &RdState, k: usize, metric: CorrectnessMetric) -> Vec<(usize, f64)> {
    let _span = mp_obs::span!("engine.usefulness_all");
    let candidates = state.unprobed();
    if candidates.is_empty() {
        return Vec::new();
    }
    mp_obs::histogram!("engine.candidates", mp_obs::bounds::POW2)
        .record(u64::try_from(candidates.len()).unwrap_or(u64::MAX));
    if !sweep_applies(state, k, metric) {
        // Reference evaluation per candidate.
        let _ref_span = mp_obs::span!("engine.reference");
        mp_obs::counter!("engine.reference_fallbacks").incr();
        return candidates
            .into_iter()
            .map(|h| (h, naive_usefulness(state, h, k, metric)))
            .collect();
    }
    let _sweep_span = mp_obs::span!("engine.sweep");
    let rds = state.rds();
    let n = rds.len();
    // Database `j` owns the `s_j + 1` slots from `off[j]`: its buckets
    // `0..=s_j` in a bucket row, and its outcomes `0..s_j` (`k` values
    // each) in the top-k marginals.
    let mut off = Vec::with_capacity(n + 1);
    off.push(0);
    for rd in rds {
        off.push(off[off.len() - 1] + rd.len() + 1);
    }
    let top = if k == n {
        // Every database is in the top-n in every outcome.
        vec![1.0; off[n] * k]
    } else {
        // Fixed-size nodes for the `k` the engine serves, as in
        // `topk_marginals`: against `k`-slot `Vec` nodes they cut a
        // `greedy20` scan from 88 to 33 µs on a 2-vCPU VM.
        match k {
            1 => sweep(state, &off, [0.0; 1]),
            2 => sweep(state, &off, [0.0; 2]),
            3 => sweep(state, &off, [0.0; 3]),
            _ => sweep(state, &off, vec![0.0; k]),
        }
    };
    candidates
        .into_iter()
        .map(|h| {
            let mut total = 0.0;
            for (w, &(_, p)) in rds[h].points().iter().enumerate() {
                let best = &top[(off[h] + w) * k..][..k];
                let score = match metric {
                    CorrectnessMetric::Absolute => best[0],
                    CorrectnessMetric::Partial => {
                        (best.iter().sum::<f64>() / k as f64).clamp(0.0, 1.0)
                    }
                };
                total += p * score;
            }
            (h, total)
        })
        .collect()
}

/// The reference usefulness evaluation: one cloned state, re-probed in
/// place per outcome (identical to `GreedyPolicy::usefulness`).
pub(crate) fn naive_usefulness(
    state: &RdState,
    i: usize,
    k: usize,
    metric: CorrectnessMetric,
) -> f64 {
    let mut hyp = state.clone();
    let mut total = 0.0;
    for &(v, p) in state.rds()[i].points() {
        hyp.probe(i, v);
        total += p * best_set_score_quick(hyp.rds(), k, metric);
    }
    total
}

/// The sweep for `k < n`: the `k` largest marginals, descending, of
/// every hypothetical state, at `top[(off[h] + w) * k..][..k]` for
/// candidate `h` probed at its outcome `w`. Pmfs of rivals ahead are
/// truncated to the counts `0..k`, in nodes shaped like `zero`, as in
/// [`crate::expected::topk_marginals`].
fn sweep<C: Clone + AsRef<[f64]> + AsMut<[f64]>>(
    state: &RdState,
    off: &[usize],
    zero: C,
) -> Vec<f64> {
    let rds = state.rds();
    let n = rds.len();
    let k = zero.as_ref().len();
    let row_len = 2 * off[n];
    let (order, total) = merged_support(rds);
    let candidate: Vec<bool> = (0..n).map(|h| !state.is_probed(h)).collect();
    let mut top = vec![f64::NEG_INFINITY; off[n] * k];

    let mut none = zero.clone();
    none.as_mut()[0] = 1.0;
    let mut leaves = vec![zero.clone(); n];
    // `suffix[j]` holds the rivals `j..n` other than `i`.
    let mut suffix = vec![none.clone(); n + 1];
    let (mut prefix, mut next, mut pair) = (none.clone(), zero.clone(), zero);
    let mut ahead = vec![0.0; n];
    let mut swept = vec![0usize; n];
    let mut upper = Vec::new();
    // Row `i − lo` holds the `(A, B)` buckets of every pair `(h, i)`.
    let block = (BUCKET_BUDGET / row_len).clamp(1, n);
    let mut rows = vec![0.0; block * row_len];

    for lo in (0..n).step_by(block) {
        let hi = (lo + block).min(n);
        rows[..(hi - lo) * row_len].fill(0.0);
        for (j, &mass) in total.iter().enumerate() {
            set_rival(leaves[j].as_mut(), mass, 0.0);
            ahead[j] = 0.0;
            swept[j] = 0;
        }
        for &(_, i, p, behind) in &order {
            if (lo..hi).contains(&i) {
                for j in (0..n).rev() {
                    let (head, tail) = suffix.split_at_mut(j + 1);
                    if j == i {
                        head[j].clone_from(&tail[0]);
                    } else {
                        conv(tail[0].as_ref(), leaves[j].as_ref(), head[j].as_mut());
                    }
                }
                let row = &mut rows[(i - lo) * row_len..][..row_len];
                prefix.clone_from(&none);
                for h in (0..n).filter(|&h| h != i) {
                    if candidate[h] {
                        conv(prefix.as_ref(), suffix[h + 1].as_ref(), pair.as_mut());
                        let pair = pair.as_ref();
                        let b = 2 * (off[h] + rds[h].len() - swept[h]);
                        row[b] += p * pair.iter().sum::<f64>();
                        row[b + 1] += p * pair[..k - 1].iter().sum::<f64>();
                    }
                    conv(prefix.as_ref(), leaves[h].as_ref(), next.as_mut());
                    std::mem::swap(&mut prefix, &mut next);
                }
                if candidate[i] {
                    let w = rds[i].len() - 1 - swept[i];
                    let own = prefix.as_ref().iter().sum::<f64>();
                    push_top(&mut top[(off[i] + w) * k..][..k], own.clamp(0.0, 1.0));
                }
            }
            ahead[i] += p;
            swept[i] += 1;
            set_rival(leaves[i].as_mut(), behind, ahead[i]);
        }
        for i in lo..hi {
            let row = &rows[(i - lo) * row_len..][..row_len];
            for h in (0..n).filter(|&h| h != i && candidate[h]) {
                let s = rds[h].len();
                let buckets = &row[2 * off[h]..2 * (off[h] + s + 1)];
                // `upper[w]` = Σ A over the buckets above `w`.
                upper.clear();
                upper.resize(s, 0.0);
                let mut above = 0.0;
                for w in (0..s).rev() {
                    above += buckets[2 * (w + 1)];
                    upper[w] = above;
                }
                let mut below = 0.0;
                for (w, &above) in upper.iter().enumerate() {
                    below += buckets[2 * w + 1];
                    let m = (below + above).clamp(0.0, 1.0);
                    push_top(&mut top[(off[h] + w) * k..][..k], m);
                }
            }
        }
    }
    top
}

/// Inserts `x` into `top`, the largest values seen so far, descending.
fn push_top(top: &mut [f64], x: f64) {
    if let Some(at) = top.iter().position(|&t| x > t) {
        top.copy_within(at..top.len() - 1, at + 1);
        top[at] = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_stats::Discrete;

    fn d(pairs: &[(f64, f64)]) -> Discrete {
        Discrete::from_weighted(pairs).unwrap()
    }

    fn paper_state() -> RdState {
        RdState::new(vec![
            d(&[(50.0, 0.4), (100.0, 0.5), (150.0, 0.1)]),
            d(&[(65.0, 0.1), (130.0, 0.9)]),
        ])
    }

    #[test]
    fn matches_paper_example6_exactly() {
        let state = paper_state();
        let all = usefulness_all(&state, 1, CorrectnessMetric::Absolute);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, 0);
        assert_eq!(all[1].0, 1);
        assert!((all[0].1 - 0.95).abs() < 1e-12, "u1={}", all[0].1);
        assert!((all[1].1 - 0.87).abs() < 1e-12, "u2={}", all[1].1);
    }

    #[test]
    fn skips_probed_candidates() {
        let mut state = paper_state();
        state.probe(0, 100.0);
        let all = usefulness_all(&state, 1, CorrectnessMetric::Absolute);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, 1);
        let mut both = paper_state();
        both.probe(0, 100.0);
        both.probe(1, 130.0);
        assert!(usefulness_all(&both, 1, CorrectnessMetric::Absolute).is_empty());
    }
}
