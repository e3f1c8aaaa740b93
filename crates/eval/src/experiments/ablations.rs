//! Ablations A1–A4 (DESIGN.md §4): probing policies, the query-type
//! threshold θ, training size, and summary quality.

use crate::report::{fmt2, fmt3, TextTable};
use crate::runner::{
    evaluate_baseline, evaluate_rd_based, threshold_run, MethodScores, ThresholdOutcome,
};
use crate::testbed::{train_library, Testbed};
use mp_core::probing::{
    ByEstimatePolicy, GreedyPolicy, OptimalPolicy, ProbePolicy, RandomPolicy, UncertaintyPolicy,
};
use mp_core::CorrectnessMetric;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------
// A1 — probing-policy comparison
// ---------------------------------------------------------------------

/// One policy's row in the A1 comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyRow {
    /// Policy name.
    pub policy: String,
    /// Its threshold-run outcome.
    pub outcome: ThresholdOutcome,
}

/// A named probe-policy factory (per-query instantiation).
type PolicyFactory<'a> = (&'a str, Box<dyn Fn(usize) -> Box<dyn ProbePolicy> + Sync>);

/// A1: compares probing policies at one certainty threshold. The
/// exhaustive [`OptimalPolicy`] is included only when `include_optimal`
/// (exponential — callers must supply a small testbed with coarse ED
/// bins; see [`OptimalPolicy`]'s guards).
pub fn run_policy_ablation(
    tb: &Testbed,
    k: usize,
    metric: CorrectnessMetric,
    threshold: f64,
    include_optimal: bool,
) -> Vec<PolicyRow> {
    let mut rows = Vec::new();
    let factories: Vec<PolicyFactory> = vec![
        ("greedy", Box::new(|_| Box::new(GreedyPolicy))),
        (
            "random",
            Box::new(|qi| Box::new(RandomPolicy::new(qi as u64))),
        ),
        ("by-estimate", Box::new(|_| Box::new(ByEstimatePolicy))),
        ("max-uncertainty", Box::new(|_| Box::new(UncertaintyPolicy))),
    ];
    for (name, factory) in &factories {
        rows.push(PolicyRow {
            policy: name.to_string(),
            outcome: threshold_run(tb, k, metric, threshold, factory),
        });
    }
    if include_optimal {
        rows.push(PolicyRow {
            policy: "optimal".to_string(),
            outcome: threshold_run(tb, k, metric, threshold, |_| {
                Box::new(OptimalPolicy::new(threshold))
            }),
        });
    }
    rows
}

/// Renders the A1 table.
pub fn render_policy_ablation(rows: &[PolicyRow], k: usize, t: f64) -> String {
    let mut table = TextTable::new(
        format!("A1 — probing policies at t={t} (k={k}): probes to reach the threshold"),
        &["policy", "avg #probes", "avg correctness", "satisfied"],
    );
    for r in rows {
        table.row(&[
            r.policy.clone(),
            fmt2(r.outcome.avg_probes),
            fmt3(r.outcome.avg_correctness),
            fmt3(r.outcome.satisfied_rate),
        ]);
    }
    table.render()
}

// ---------------------------------------------------------------------
// A2 — coverage-threshold (θ) sweep
// ---------------------------------------------------------------------

/// One θ's scores in the A2 sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThetaRow {
    /// The coverage threshold θ.
    pub theta: f64,
    /// RD-based scores at k = 1 under this θ.
    pub rd_k1: MethodScores,
}

/// A2: retrains the ED library under each θ and scores RD-based
/// selection (the paper settled on θ = 100 empirically; the extended
/// version studies alternatives).
pub fn run_theta_ablation(tb: &Testbed, thetas: &[f64]) -> Vec<ThetaRow> {
    thetas
        .iter()
        .map(|&theta| {
            let core = tb.config.core.clone().with_threshold(theta);
            let library = train_library(
                &tb.mediator,
                tb.estimator.as_ref(),
                tb.config.relevancy,
                tb.split.train.queries(),
                &core,
            );
            tb.mediator.reset_probes();
            ThetaRow {
                theta,
                rd_k1: evaluate_rd_based(tb, 1, &library),
            }
        })
        .collect()
}

/// Renders the A2 table.
pub fn render_theta_ablation(rows: &[ThetaRow]) -> String {
    let mut table = TextTable::new(
        "A2 — query-type coverage threshold sweep (RD-based, k=1)",
        &["theta", "Avg(Cor)"],
    );
    for r in rows {
        table.row(&[format!("{}", r.theta), fmt3(r.rd_k1.avg_cor_a)]);
    }
    table.render()
}

// ---------------------------------------------------------------------
// A3 — training-size sweep
// ---------------------------------------------------------------------

/// One training-size row in A3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingSizeRow {
    /// Number of training queries used.
    pub n_train: usize,
    /// RD-based scores at k = 1.
    pub rd_k1: MethodScores,
}

/// A3: end-to-end effect of the training-trace size (complements the
/// χ²-level sampling study of Figs. 7/8 with task-level correctness).
///
/// Subsets are *stratified by arity* — the train trace is stored
/// 2-term-first, so a naive prefix of size n would train only 2-term
/// leaves and confound the sweep.
pub fn run_training_size_ablation(tb: &Testbed, sizes: &[usize]) -> Vec<TrainingSizeRow> {
    let stratified = |n: usize| -> Vec<mp_workload::Query> {
        let two: Vec<_> = tb.split.train.with_arity(2).cloned().collect();
        let three: Vec<_> = tb.split.train.with_arity(3).cloned().collect();
        let half = (n / 2).min(two.len());
        let rest = (n - half).min(three.len());
        let mut out = two[..half].to_vec();
        out.extend_from_slice(&three[..rest]);
        out
    };
    sizes
        .iter()
        .map(|&n| {
            let n = n.min(tb.split.train.len());
            let subset = stratified(n);
            let library = train_library(
                &tb.mediator,
                tb.estimator.as_ref(),
                tb.config.relevancy,
                &subset,
                &tb.config.core,
            );
            tb.mediator.reset_probes();
            TrainingSizeRow {
                n_train: subset.len(),
                rd_k1: evaluate_rd_based(tb, 1, &library),
            }
        })
        .collect()
}

/// Renders the A3 table.
pub fn render_training_size_ablation(rows: &[TrainingSizeRow], baseline: MethodScores) -> String {
    let mut table = TextTable::new(
        "A3 — training-trace size vs RD-based correctness (k=1)",
        &["#train queries", "Avg(Cor)"],
    );
    table.row(&["0 (= baseline)".into(), fmt3(baseline.avg_cor_a)]);
    for r in rows {
        table.row(&[r.n_train.to_string(), fmt3(r.rd_k1.avg_cor_a)]);
    }
    table.render()
}

// ---------------------------------------------------------------------
// A4 — summary quality (cooperative vs sampled)
// ---------------------------------------------------------------------

/// The A4 comparison: identical scenario and queries, different summary
/// construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SummaryAblationResult {
    /// Scores with exact cooperative summaries (baseline / RD, k = 1).
    pub cooperative: (MethodScores, MethodScores),
    /// Scores with sampled summaries.
    pub sampled: (MethodScores, MethodScores),
}

/// A4: runs Fig. 15's k = 1 columns on two testbeds that differ only in
/// [`crate::testbed::SummaryMode`].
pub fn run_summary_ablation(cooperative: &Testbed, sampled: &Testbed) -> SummaryAblationResult {
    SummaryAblationResult {
        cooperative: (
            evaluate_baseline(cooperative, 1),
            evaluate_rd_based(cooperative, 1, &cooperative.library),
        ),
        sampled: (
            evaluate_baseline(sampled, 1),
            evaluate_rd_based(sampled, 1, &sampled.library),
        ),
    }
}

/// Renders the A4 table.
pub fn render_summary_ablation(r: &SummaryAblationResult) -> String {
    let mut table = TextTable::new(
        "A4 — content-summary quality (k=1 Avg(Cor))",
        &["summaries", "baseline", "RD-based"],
    );
    table.row(&[
        "cooperative (exact)".into(),
        fmt3(r.cooperative.0.avg_cor_a),
        fmt3(r.cooperative.1.avg_cor_a),
    ]);
    table.row(&[
        "sampled (estimated)".into(),
        fmt3(r.sampled.0.avg_cor_a),
        fmt3(r.sampled.1.avg_cor_a),
    ]);
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::{SummaryMode, TestbedConfig};
    use mp_core::CoreConfig;
    use mp_corpus::{ScenarioConfig, ScenarioKind};

    fn tb() -> Testbed {
        Testbed::build(TestbedConfig::tiny(1))
    }

    #[test]
    fn policy_ablation_greedy_not_worse_than_random() {
        let tb = tb();
        let rows = run_policy_ablation(&tb, 1, CorrectnessMetric::Absolute, 0.9, false);
        assert_eq!(rows.len(), 4);
        let probes = |name: &str| {
            rows.iter()
                .find(|r| r.policy == name)
                .unwrap()
                .outcome
                .avg_probes
        };
        assert!(
            probes("greedy") <= probes("random") + 0.5,
            "greedy {} vs random {}",
            probes("greedy"),
            probes("random")
        );
    }

    #[test]
    fn policy_ablation_with_optimal_on_coarse_testbed() {
        // Coarse ED bins keep RD supports within OptimalPolicy's guard.
        let mut cfg = TestbedConfig::tiny(2);
        cfg.scenario = ScenarioConfig {
            n_databases: 4,
            ..ScenarioConfig::tiny(ScenarioKind::Health, 2)
        };
        cfg.n_two = 25;
        cfg.n_three = 15;
        cfg.core = CoreConfig {
            ed_edges: vec![-0.5, 0.05, 1.0],
            ..CoreConfig::default()
        }
        .with_threshold(10.0);
        let tb = Testbed::build(cfg);
        let rows = run_policy_ablation(&tb, 1, CorrectnessMetric::Absolute, 0.9, true);
        assert_eq!(rows.len(), 5);
        let probes = |name: &str| {
            rows.iter()
                .find(|r| r.policy == name)
                .unwrap()
                .outcome
                .avg_probes
        };
        // The optimal policy minimizes *expected* probes under the
        // model; realized averages on actual outcomes can deviate
        // slightly when the model is off, so allow a small tolerance.
        for name in ["greedy", "random", "by-estimate", "max-uncertainty"] {
            assert!(
                probes("optimal") <= probes(name) + 0.35,
                "optimal {} beaten by {name} {}",
                probes("optimal"),
                probes(name)
            );
        }
    }

    #[test]
    fn theta_sweep_produces_rows() {
        let tb = tb();
        let rows = run_theta_ablation(&tb, &[5.0, 10.0, 50.0]);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.rd_k1.avg_cor_a));
        }
    }

    #[test]
    fn training_size_more_is_not_much_worse() {
        let tb = tb();
        let rows = run_training_size_ablation(&tb, &[10, 100]);
        assert_eq!(rows[0].n_train, 10);
        assert_eq!(rows[1].n_train, 100);
        assert!(
            rows[1].rd_k1.avg_cor_a + 0.15 >= rows[0].rd_k1.avg_cor_a,
            "{rows:?}"
        );
    }

    #[test]
    fn summary_ablation_runs() {
        let coop = tb();
        let mut cfg = TestbedConfig::tiny(1);
        cfg.summaries = SummaryMode::Sampled {
            n_queries: 15,
            docs_per_query: 25,
        };
        let sampled = Testbed::build(cfg);
        let r = run_summary_ablation(&coop, &sampled);
        // Exact summaries should not be worse than sampled ones for the
        // baseline estimator (they feed it the true dfs).
        assert!(
            r.cooperative.0.avg_cor_a + 0.2 >= r.sampled.0.avg_cor_a,
            "{r:?}"
        );
        let text = render_summary_ablation(&r);
        assert!(text.contains("cooperative"));
    }

    #[test]
    fn renderers_produce_tables() {
        let tb = tb();
        let rows = run_policy_ablation(&tb, 1, CorrectnessMetric::Absolute, 0.8, false);
        assert!(render_policy_ablation(&rows, 1, 0.8).contains("greedy"));
        let thetas = run_theta_ablation(&tb, &[10.0]);
        assert!(render_theta_ablation(&thetas).contains("theta"));
        let sizes = run_training_size_ablation(&tb, &[20]);
        let base = evaluate_baseline(&tb, 1);
        assert!(render_training_size_ablation(&sizes, base).contains("baseline"));
    }
}

// ---------------------------------------------------------------------
// A5 — relevancy-definition comparison (document-frequency vs
// document-similarity, paper Section 2.1)
// ---------------------------------------------------------------------

/// The A5 comparison: the same pipeline under both relevancy
/// definitions (each testbed is built with the matching estimator —
/// Eq. 1 for document-frequency, the GlOSS-style maximum-similarity
/// estimator for document-similarity).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RelevancyAblationResult {
    /// `(baseline, RD-based)` at k = 1 under document-frequency.
    pub doc_frequency: (MethodScores, MethodScores),
    /// `(baseline, RD-based)` at k = 1 under document-similarity.
    pub doc_similarity: (MethodScores, MethodScores),
}

/// A5: runs the k = 1 comparison on two testbeds differing only in the
/// relevancy definition (and its matching estimator).
pub fn run_relevancy_ablation(
    doc_frequency: &Testbed,
    doc_similarity: &Testbed,
) -> RelevancyAblationResult {
    RelevancyAblationResult {
        doc_frequency: (
            evaluate_baseline(doc_frequency, 1),
            evaluate_rd_based(doc_frequency, 1, &doc_frequency.library),
        ),
        doc_similarity: (
            evaluate_baseline(doc_similarity, 1),
            evaluate_rd_based(doc_similarity, 1, &doc_similarity.library),
        ),
    }
}

/// Renders the A5 table.
pub fn render_relevancy_ablation(r: &RelevancyAblationResult) -> String {
    let mut table = TextTable::new(
        "A5 — relevancy definitions (k=1 Avg(Cor))",
        &["definition", "baseline", "RD-based"],
    );
    table.row(&[
        "document-frequency".into(),
        fmt3(r.doc_frequency.0.avg_cor_a),
        fmt3(r.doc_frequency.1.avg_cor_a),
    ]);
    table.row(&[
        "document-similarity".into(),
        fmt3(r.doc_similarity.0.avg_cor_a),
        fmt3(r.doc_similarity.1.avg_cor_a),
    ]);
    table.render()
}
