//! Parallel per-query evaluation machinery shared by all experiments.

use crate::par::par_map;
use crate::testbed::Testbed;
use mp_core::correctness::CorrectnessMetric;
use mp_core::expected::RdState;
use mp_core::probing::{apro, AproConfig, ProbePolicy};
use mp_core::selection::{baseline_select, best_set};
use mp_core::EdLibrary;
use serde::{Deserialize, Serialize};

/// Average correctness of one selection method over a test trace
/// (the paper's `Avg(Cor_a)` / `Avg(Cor_p)`, Section 6.1), with
/// standard errors of the means.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MethodScores {
    /// Average absolute correctness.
    pub avg_cor_a: f64,
    /// Average partial correctness.
    pub avg_cor_p: f64,
    /// Standard error of `avg_cor_a`.
    pub se_cor_a: f64,
    /// Standard error of `avg_cor_p`.
    pub se_cor_p: f64,
    /// Number of test queries averaged over.
    pub n_queries: usize,
}

/// Evaluates the term-independence baseline (estimate ranking).
pub fn evaluate_baseline(tb: &Testbed, k: usize) -> MethodScores {
    let _span = mp_obs::span!("eval.baseline");
    let queries = tb.split.test.queries();
    let per_q = par_map(queries.len(), |qi| {
        let selected = baseline_select(&tb.estimates(&queries[qi]), k);
        let golden = tb.golden.topk(qi, k);
        (
            mp_core::absolute_correctness(&selected, &golden),
            mp_core::partial_correctness(&selected, &golden),
        )
    });
    average(per_q)
}

/// Evaluates RD-based selection with no probing (paper Section 6.2),
/// its RDs derived from `library`. Each metric's score uses the set
/// optimized for that metric.
pub fn evaluate_rd_based(tb: &Testbed, k: usize, library: &EdLibrary) -> MethodScores {
    let _span = mp_obs::span!("eval.rd_based");
    let queries = tb.split.test.queries();
    let per_q = par_map(queries.len(), |qi| {
        let q = &queries[qi];
        let state = RdState::for_query(&tb.estimates(q), q, library);
        let golden = tb.golden.topk(qi, k);
        let (set_a, _) = best_set(&state, k, CorrectnessMetric::Absolute);
        let (set_p, _) = best_set(&state, k, CorrectnessMetric::Partial);
        (
            mp_core::absolute_correctness(&set_a, &golden),
            mp_core::partial_correctness(&set_p, &golden),
        )
    });
    average(per_q)
}

fn average(per_q: Vec<(f64, f64)>) -> MethodScores {
    let mut a = mp_stats::OnlineStats::new();
    let mut p = mp_stats::OnlineStats::new();
    for &(ca, cp) in &per_q {
        a.push(ca);
        p.push(cp);
    }
    MethodScores {
        avg_cor_a: a.mean(),
        avg_cor_p: p.mean(),
        se_cor_a: a.std_err(),
        se_cor_p: p.std_err(),
        n_queries: per_q.len(),
    }
}

/// Average correctness after exactly `p` probes, for `p = 0..=max_probes`
/// (paper Figure 16: APro reports the best `DBk` after each probing even
/// before halting). Once a query's run halts early — certainty 1 with
/// databases unprobed — its correctness is carried forward, since
/// further probes cannot change a certainty-1 selection.
pub fn probing_curve<P>(
    tb: &Testbed,
    k: usize,
    metric: CorrectnessMetric,
    max_probes: usize,
    policy_factory: P,
) -> Vec<f64>
where
    P: Fn(usize) -> Box<dyn ProbePolicy> + Sync,
{
    let _span = mp_obs::span!("eval.probing_curve");
    let queries = tb.split.test.queries();
    let per_q: Vec<Vec<f64>> = par_map(queries.len(), |qi| {
        let q = &queries[qi];
        let mut state = RdState::for_query(&tb.estimates(q), q, &tb.library);
        let mut policy = policy_factory(qi);
        let mut probe_fn = |i: usize| tb.golden.actual(qi, i);
        let out = apro(
            &mut state,
            AproConfig {
                k,
                threshold: 1.0,
                metric,
                max_probes: Some(max_probes),
            },
            policy.as_mut(),
            probe_fn_as_dyn(&mut probe_fn),
        );
        let golden = tb.golden.topk(qi, k);
        let mut scores = Vec::with_capacity(max_probes + 1);
        let mut last = 0.0;
        for p in 0..=max_probes {
            if let Some((sel, _)) = out.after_probes(p) {
                last = metric.score(sel, &golden);
            }
            scores.push(last);
        }
        scores
    });
    // Column-wise average.
    let n = per_q.len() as f64;
    (0..=max_probes)
        .map(|p| per_q.iter().map(|s| s[p]).sum::<f64>() / n)
        .collect()
}

fn probe_fn_as_dyn(f: &mut dyn FnMut(usize) -> f64) -> &mut dyn FnMut(usize) -> f64 {
    f
}

/// Outcome of running APro at one user threshold `t` (paper Figure 17).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdOutcome {
    /// The threshold evaluated.
    pub threshold: f64,
    /// Average number of probes APro used.
    pub avg_probes: f64,
    /// Average realized correctness of the returned sets.
    pub avg_correctness: f64,
    /// Fraction of queries where the threshold was actually reached.
    pub satisfied_rate: f64,
}

/// Runs APro to the threshold `t` on every test query.
pub fn threshold_run<P>(
    tb: &Testbed,
    k: usize,
    metric: CorrectnessMetric,
    threshold: f64,
    policy_factory: P,
) -> ThresholdOutcome
where
    P: Fn(usize) -> Box<dyn ProbePolicy> + Sync,
{
    let _span = mp_obs::span!("eval.threshold_run");
    let queries = tb.split.test.queries();
    let per_q: Vec<(usize, f64, bool)> = par_map(queries.len(), |qi| {
        let q = &queries[qi];
        let mut state = RdState::for_query(&tb.estimates(q), q, &tb.library);
        let mut policy = policy_factory(qi);
        let mut probe_fn = |i: usize| tb.golden.actual(qi, i);
        let out = apro(
            &mut state,
            AproConfig {
                k,
                threshold,
                metric,
                max_probes: None,
            },
            policy.as_mut(),
            probe_fn_as_dyn(&mut probe_fn),
        );
        let golden = tb.golden.topk(qi, k);
        (
            out.n_probes(),
            metric.score(&out.selected, &golden),
            out.satisfied,
        )
    });
    let n = per_q.len() as f64;
    ThresholdOutcome {
        threshold,
        avg_probes: per_q.iter().map(|r| r.0 as f64).sum::<f64>() / n,
        avg_correctness: per_q.iter().map(|r| r.1).sum::<f64>() / n,
        satisfied_rate: per_q.iter().filter(|r| r.2).count() as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::TestbedConfig;
    use mp_core::probing::GreedyPolicy;

    fn tb() -> Testbed {
        Testbed::build(TestbedConfig::tiny(1))
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(100, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn baseline_and_rd_scores_are_probabilities() {
        let tb = tb();
        for k in [1usize, 3] {
            for s in [
                evaluate_baseline(&tb, k),
                evaluate_rd_based(&tb, k, &tb.library),
            ] {
                assert!((0.0..=1.0).contains(&s.avg_cor_a), "{s:?}");
                assert!((0.0..=1.0).contains(&s.avg_cor_p), "{s:?}");
                assert!(s.avg_cor_a <= s.avg_cor_p + 1e-9, "{s:?}");
                assert_eq!(s.n_queries, 200);
            }
        }
    }

    #[test]
    fn rd_based_not_significantly_worse_than_baseline() {
        // The paper's central claim (Fig. 15) is about the expectation;
        // on one tiny seed either method can lead within noise. This
        // test pins the cheap single-seed guarantee — no statistically
        // significant loss — and leaves the strict averaged win to
        // `fig15_selection::tests::rd_based_improves_on_baseline`.
        let tb = tb();
        let base = evaluate_baseline(&tb, 1);
        let rd = evaluate_rd_based(&tb, 1, &tb.library);
        let se = (base.se_cor_a.powi(2) + rd.se_cor_a.powi(2)).sqrt();
        assert!(
            rd.avg_cor_a >= base.avg_cor_a - 2.0 * se,
            "RD-based {rd:?} significantly loses to baseline {base:?}"
        );
    }

    #[test]
    fn probing_curve_rises_and_ends_high() {
        // APro halts once *model* certainty reaches 1, which can happen
        // with databases unprobed — so the curve approaches but need not
        // hit 1.0 exactly (the paper's Fig. 16 curves do the same).
        let tb = tb();
        let n = tb.n_databases();
        let curve = probing_curve(&tb, 1, CorrectnessMetric::Absolute, n, |_| {
            Box::new(GreedyPolicy)
        });
        assert_eq!(curve.len(), n + 1);
        for w in curve.windows(2) {
            assert!(w[1] >= w[0] - 0.05, "curve dipped: {curve:?}");
        }
        assert!(curve[n] >= curve[0], "probing should help: {curve:?}");
        assert!(curve[n] > 0.9, "curve end too low: {curve:?}");
    }

    #[test]
    fn threshold_one_reaches_near_full_correctness() {
        let tb = tb();
        let out = threshold_run(&tb, 1, CorrectnessMetric::Absolute, 1.0, |_| {
            Box::new(GreedyPolicy)
        });
        // Model certainty 1 is reached on every query; realized
        // correctness is near-perfect (the model can be confidently
        // wrong on a small residue of queries).
        assert!(out.avg_correctness > 0.9, "{out:?}");
        assert_eq!(out.satisfied_rate, 1.0);
        assert!(out.avg_probes <= tb.n_databases() as f64);
    }

    #[test]
    fn higher_threshold_needs_more_probes() {
        let tb = tb();
        let lo = threshold_run(&tb, 1, CorrectnessMetric::Absolute, 0.7, |_| {
            Box::new(GreedyPolicy) as Box<dyn ProbePolicy>
        });
        let hi = threshold_run(&tb, 1, CorrectnessMetric::Absolute, 0.95, |_| {
            Box::new(GreedyPolicy) as Box<dyn ProbePolicy>
        });
        assert!(hi.avg_probes >= lo.avg_probes, "lo={lo:?} hi={hi:?}");
    }
}
