//! Cost-aware probing (paper Section 5.2).
//!
//! The paper assumes unit probe costs "to simplify the discussion" and
//! notes the methods "can be extended to scenarios where different
//! databases have different probing costs" — e.g. a slow overseas site
//! vs a fast local one, or metered APIs. This module is that extension:
//!
//! * [`ProbeCosts`] — per-database probe costs;
//! * [`CostAwareGreedyPolicy`] — greedy by *certainty gain per unit
//!   cost* instead of raw expected usefulness;
//! * [`apro_with_costs`] — `APro` with cost accounting and an optional
//!   cost budget.
//!
//! With uniform costs the policy reduces exactly to [`GreedyPolicy`]'s
//! ordering, so the extension is conservative. Caveat (see
//! `examples/cost_aware_probing.rs`): per-step gain-per-cost is
//! *myopic* — when the expensive databases are also the informative
//! ones, paying is optimal and the cost-blind greedy can buy more
//! correctness per unit of budget; beating it there requires
//! budget-level lookahead over the probe sequence.

use crate::correctness::CorrectnessMetric;
use crate::engine;
use crate::expected::RdState;
use crate::probing::apro::{AproConfig, AproOutcome, AproSession};
use crate::probing::greedy::GreedyPolicy;
use crate::probing::policy::ProbePolicy;
use crate::selection::best_set_score_quick;
use serde::{Deserialize, Serialize};

/// Per-database probe costs (strictly positive).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeCosts {
    costs: Vec<f64>,
}

impl ProbeCosts {
    /// Builds from explicit per-database costs.
    ///
    /// # Panics
    /// Panics on empty input or non-positive/non-finite costs.
    pub fn new(costs: Vec<f64>) -> Self {
        assert!(!costs.is_empty(), "need at least one database");
        assert!(
            costs.iter().all(|&c| c.is_finite() && c > 0.0),
            "probe costs must be positive and finite"
        );
        Self { costs }
    }

    /// Unit costs for `n` databases (the paper's simplifying case).
    pub fn uniform(n: usize) -> Self {
        Self::new(vec![1.0; n])
    }

    /// The cost of probing database `i`.
    pub fn cost(&self, i: usize) -> f64 {
        self.costs[i]
    }

    /// Number of databases covered.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// Always false (constructor rejects empty input).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total cost of a probe sequence.
    pub fn total(&self, probes: impl IntoIterator<Item = usize>) -> f64 {
        probes.into_iter().map(|i| self.cost(i)).sum()
    }
}

/// Greedy probing by expected certainty gain *per unit cost*:
///
/// ```text
/// score(i) = ( usefulness(i) − current_certainty ) / cost(i)
/// ```
///
/// The marginal-value-per-dollar rule — the natural generalization of
/// the paper's greedy policy to heterogeneous costs. `select_db` scores
/// every candidate's usefulness in one [`engine::usefulness_all`] scan,
/// as [`GreedyPolicy`] does.
#[derive(Debug)]
pub struct CostAwareGreedyPolicy {
    costs: ProbeCosts,
}

impl CostAwareGreedyPolicy {
    /// Creates the policy over the given cost vector.
    pub fn new(costs: ProbeCosts) -> Self {
        Self { costs }
    }

    /// The per-cost gain score of probing database `i`, from the
    /// reference usefulness evaluation.
    pub fn gain_per_cost(
        &self,
        state: &RdState,
        i: usize,
        k: usize,
        metric: CorrectnessMetric,
    ) -> f64 {
        let current = best_set_score_quick(state, k, metric);
        let usefulness = GreedyPolicy::usefulness(state, i, k, metric);
        (usefulness - current).max(0.0) / self.costs.cost(i)
    }
}

impl ProbePolicy for CostAwareGreedyPolicy {
    fn name(&self) -> &str {
        "cost-aware-greedy"
    }

    fn select_db(&mut self, state: &RdState, k: usize, metric: CorrectnessMetric) -> Option<usize> {
        assert_eq!(
            self.costs.len(),
            state.len(),
            "cost vector does not cover the databases"
        );
        let current = best_set_score_quick(state, k, metric);
        engine::usefulness_all(state, k, metric)
            .into_iter()
            .map(|(i, usefulness)| (i, (usefulness - current).max(0.0) / self.costs.cost(i)))
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("scores are finite")
                    .then(b.0.cmp(&a.0)) // tie → lower index
            })
            .map(|(i, _)| i)
    }
}

/// `APro` with probe-cost accounting: runs like
/// [`apro`](crate::probing::apro::apro), one [`AproSession`], but also
/// stops before a probe whose cost would take the accumulated cost past
/// `max_cost` (if given), and reports the total cost spent.
pub fn apro_with_costs(
    state: &mut RdState,
    config: AproConfig,
    costs: &ProbeCosts,
    max_cost: Option<f64>,
    policy: &mut dyn ProbePolicy,
    probe_fn: &mut dyn FnMut(usize) -> f64,
) -> (AproOutcome, f64) {
    assert_eq!(
        costs.len(),
        state.len(),
        "cost vector does not cover the databases"
    );
    let _span = mp_obs::span!("apro.run");
    let mut spent = 0.0f64;
    let mut session = AproSession::begin(state, policy, config);
    while let Some(db) = session.next_probe() {
        if max_cost.is_some_and(|budget| spent + costs.cost(db) > budget + 1e-12) {
            break;
        }
        let actual = probe_fn(db);
        spent += costs.cost(db);
        session.apply(db, actual);
    }
    (session.finish(), spent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_stats::Discrete;
    use proptest::prelude::*;

    fn d(pairs: &[(f64, f64)]) -> Discrete {
        Discrete::from_weighted(pairs).unwrap()
    }

    /// Paper Figure 5(d) RDs plus a third uncertain database.
    fn state() -> RdState {
        RdState::new(vec![
            d(&[(50.0, 0.4), (100.0, 0.5), (150.0, 0.1)]),
            d(&[(65.0, 0.1), (130.0, 0.9)]),
            d(&[(10.0, 0.5), (120.0, 0.5)]),
        ])
    }

    #[test]
    fn uniform_costs_match_plain_greedy() {
        let state = state();
        let mut plain = GreedyPolicy;
        let mut costed = CostAwareGreedyPolicy::new(ProbeCosts::uniform(3));
        assert_eq!(
            plain.select_db(&state, 1, CorrectnessMetric::Absolute),
            costed.select_db(&state, 1, CorrectnessMetric::Absolute)
        );
    }

    #[test]
    fn expensive_database_is_deprioritized() {
        let state = state();
        let mut plain = GreedyPolicy;
        let preferred = plain
            .select_db(&state, 1, CorrectnessMetric::Absolute)
            .unwrap();
        // Make the plainly-preferred database prohibitively expensive.
        let mut costs = vec![1.0; 3];
        costs[preferred] = 1_000.0;
        let mut costed = CostAwareGreedyPolicy::new(ProbeCosts::new(costs));
        let pick = costed
            .select_db(&state, 1, CorrectnessMetric::Absolute)
            .unwrap();
        assert_ne!(
            pick, preferred,
            "cost-aware policy must route around the expensive db"
        );
    }

    #[test]
    fn budget_is_respected() {
        let mut state = state();
        let costs = ProbeCosts::new(vec![2.0, 2.0, 2.0]);
        let mut policy = CostAwareGreedyPolicy::new(costs.clone());
        let mut probe_fn = |i: usize| [100.0, 130.0, 120.0][i];
        let f: &mut dyn FnMut(usize) -> f64 = &mut probe_fn;
        let (outcome, spent) = apro_with_costs(
            &mut state,
            AproConfig {
                k: 1,
                threshold: 1.0,
                metric: CorrectnessMetric::Absolute,
                max_probes: None,
            },
            &costs,
            Some(3.0), // only one 2.0-cost probe fits
            &mut policy,
            f,
        );
        assert_eq!(outcome.n_probes(), 1);
        assert!((spent - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unbounded_budget_reaches_threshold() {
        let mut state = state();
        let costs = ProbeCosts::new(vec![1.0, 5.0, 2.0]);
        let mut policy = CostAwareGreedyPolicy::new(costs.clone());
        let mut probe_fn = |i: usize| [100.0, 130.0, 10.0][i];
        let f: &mut dyn FnMut(usize) -> f64 = &mut probe_fn;
        let (outcome, spent) = apro_with_costs(
            &mut state,
            AproConfig {
                k: 1,
                threshold: 1.0,
                metric: CorrectnessMetric::Absolute,
                max_probes: None,
            },
            &costs,
            None,
            &mut policy,
            f,
        );
        assert!(outcome.satisfied);
        assert!(spent > 0.0);
        assert!((spent - costs.total(outcome.probes.iter().map(|p| p.db))).abs() < 1e-12);
    }

    #[test]
    fn zero_threshold_spends_nothing() {
        let mut state = state();
        let costs = ProbeCosts::uniform(3);
        let mut policy = CostAwareGreedyPolicy::new(costs.clone());
        let mut probe_fn = |_: usize| -> f64 { panic!("no probes expected") };
        let f: &mut dyn FnMut(usize) -> f64 = &mut probe_fn;
        let (outcome, spent) = apro_with_costs(
            &mut state,
            AproConfig {
                k: 1,
                threshold: 0.0,
                metric: CorrectnessMetric::Absolute,
                max_probes: None,
            },
            &costs,
            Some(100.0),
            &mut policy,
            f,
        );
        assert_eq!(outcome.n_probes(), 0);
        assert_eq!(spent, 0.0);
    }

    #[test]
    fn uniform_costs_without_a_budget_run_apro() {
        use crate::probing::apro::apro;
        use crate::probing::policy::RandomPolicy;
        let mut probe = |i: usize| [100.0, 130.0, 120.0][i];
        for seed in 0..4 {
            for (threshold, max_probes) in [(1.0, None), (0.9, None), (1.0, Some(1))] {
                let config = AproConfig {
                    k: 1,
                    threshold,
                    metric: CorrectnessMetric::Absolute,
                    max_probes,
                };
                let costs = ProbeCosts::uniform(3);
                let (mut costed, mut plain) = (RandomPolicy::new(seed), RandomPolicy::new(seed));
                let (outcome, spent) =
                    apro_with_costs(&mut state(), config, &costs, None, &mut costed, &mut probe);
                let expected = apro(&mut state(), config, &mut plain, &mut probe);
                assert_eq!(outcome, expected, "seed {seed}, t = {threshold}");
                assert_eq!(spent, expected.n_probes() as f64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive_costs() {
        ProbeCosts::new(vec![1.0, 0.0]);
    }

    #[test]
    fn gain_per_cost_scales_inversely_with_cost() {
        let state = state();
        let cheap = CostAwareGreedyPolicy::new(ProbeCosts::new(vec![1.0, 1.0, 1.0]));
        let dear = CostAwareGreedyPolicy::new(ProbeCosts::new(vec![4.0, 4.0, 4.0]));
        for i in 0..3 {
            let g1 = cheap.gain_per_cost(&state, i, 1, CorrectnessMetric::Absolute);
            let g4 = dear.gain_per_cost(&state, i, 1, CorrectnessMetric::Absolute);
            assert!((g1 - 4.0 * g4).abs() < 1e-12, "db{i}");
        }
    }

    fn arb_state() -> impl Strategy<Value = RdState> {
        proptest::collection::vec(
            proptest::collection::vec((0.0f64..50.0, 0.05f64..1.0), 1..5),
            2..7,
        )
        .prop_map(|dbs| {
            RdState::new(
                dbs.into_iter()
                    .map(|pts| Discrete::from_weighted(&pts).unwrap())
                    .collect(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_uniform_costs_pick_as_useful_as_greedy(
            state in arb_state(),
            k_raw in 1usize..4,
            probed in 0usize..3
        ) {
            let mut state = state;
            for db in 0..probed.min(state.len() - 1) {
                let v = state.rds()[db].mean();
                state.probe(db, v);
            }
            let k = k_raw.min(state.len());
            for metric in [CorrectnessMetric::Absolute, CorrectnessMetric::Partial] {
                let greedy = GreedyPolicy.select_db(&state, k, metric).unwrap();
                let mut costed = CostAwareGreedyPolicy::new(ProbeCosts::uniform(state.len()));
                let pick = costed.select_db(&state, k, metric).unwrap();
                let u_greedy = GreedyPolicy::usefulness(&state, greedy, k, metric);
                let u_pick = GreedyPolicy::usefulness(&state, pick, k, metric);
                prop_assert!(
                    (u_greedy - u_pick).abs() < 1e-12,
                    "{:?} k={}: greedy db{} ({}) vs cost-aware db{} ({})",
                    metric, k, greedy, u_greedy, pick, u_pick
                );
            }
        }
    }
}
