//! The exhaustive optimal probing policy (a yardstick for small `n`).
//!
//! The paper states the probe-count-optimal policy exists but costs
//! `O(n!)` and is "not practical for real applications" (Section 5.3).
//! We implement it anyway, for small instances, so the greedy policy can
//! be benchmarked against the true optimum (ablation A1): expectimax
//! over probe sequences minimizing the expected number of probes until
//! some `DBk` reaches the threshold.

use crate::correctness::CorrectnessMetric;
use crate::expected::RdState;
use crate::probing::policy::ProbePolicy;
use crate::selection::best_set;

/// Expectimax-optimal probe selection. Exponential: guarded to small
/// instances (`n ≤ max_databases`, RD supports ≤ `max_support`).
#[derive(Debug)]
pub struct OptimalPolicy {
    threshold: f64,
    /// Hard cap on mediated databases (default 6).
    pub max_databases: usize,
    /// Hard cap on RD support sizes (default 4).
    pub max_support: usize,
}

impl OptimalPolicy {
    /// Creates the policy for a given certainty threshold `t` (the
    /// optimal choice depends on the stopping condition, so the policy
    /// must know it).
    pub fn new(threshold: f64) -> Self {
        Self {
            threshold,
            max_databases: 6,
            max_support: 4,
        }
    }

    fn guard(&self, state: &RdState) {
        assert!(
            state.len() <= self.max_databases,
            "OptimalPolicy is exponential; {} databases exceed the cap of {}",
            state.len(),
            self.max_databases
        );
        for rd in state.rds() {
            assert!(
                rd.len() <= self.max_support,
                "OptimalPolicy is exponential; RD support {} exceeds the cap of {}",
                rd.len(),
                self.max_support
            );
        }
    }

    /// Expected number of *further* probes needed to reach the
    /// threshold from `state`, following the optimal policy.
    fn expected_cost(&self, state: &RdState, k: usize, metric: CorrectnessMetric) -> f64 {
        let (_, score) = best_set(state.rds(), k, metric);
        if score >= self.threshold {
            return 0.0;
        }
        let unprobed = state.unprobed();
        if unprobed.is_empty() {
            // Cannot improve further; treat as terminal.
            return 0.0;
        }
        let mut best = f64::INFINITY;
        for i in unprobed {
            let mut cost = 1.0;
            for &(v, p) in state.rds()[i].points() {
                let next = state.with_hypothetical(i, v);
                cost += p * self.expected_cost(&next, k, metric);
            }
            best = best.min(cost);
        }
        best
    }
}

impl ProbePolicy for OptimalPolicy {
    fn name(&self) -> &str {
        "optimal"
    }

    fn select_db(&mut self, state: &RdState, k: usize, metric: CorrectnessMetric) -> Option<usize> {
        self.guard(state);
        let unprobed = state.unprobed();
        if unprobed.is_empty() {
            return None;
        }
        // Ties go to the lower index, keeping the argmin deterministic.
        unprobed
            .into_iter()
            .map(|i| {
                let mut cost = 1.0;
                for &(v, p) in state.rds()[i].points() {
                    let next = state.with_hypothetical(i, v);
                    cost += p * self.expected_cost(&next, k, metric);
                }
                (i, cost)
            })
            .min_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("costs are finite")
                    .then(a.0.cmp(&b.0))
            })
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probing::greedy::GreedyPolicy;
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
    fn agrees_with_greedy_on_two_databases() {
        // With two databases and one probe to make, the usefulness
        // argmax and the cost argmin coincide here.
        let state = paper_state();
        let mut opt = OptimalPolicy::new(0.95);
        let mut grd = GreedyPolicy;
        assert_eq!(
            opt.select_db(&state, 1, CorrectnessMetric::Absolute),
            grd.select_db(&state, 1, CorrectnessMetric::Absolute)
        );
    }

    #[test]
    fn already_satisfied_state_costs_zero() {
        let state = paper_state();
        let opt = OptimalPolicy::new(0.5); // current certainty .85 ≥ .5
        assert_eq!(
            opt.expected_cost(&state, 1, CorrectnessMetric::Absolute),
            0.0
        );
    }

    #[test]
    fn cost_is_at_least_one_when_below_threshold() {
        let state = paper_state();
        let opt = OptimalPolicy::new(0.99);
        let c = opt.expected_cost(&state, 1, CorrectnessMetric::Absolute);
        assert!(c >= 1.0, "cost={c}");
        assert!(c <= 2.0, "two databases bound the probes: {c}");
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn guard_rejects_large_instances() {
        let rds: Vec<Discrete> = (0..8).map(|i| Discrete::impulse(i as f64)).collect();
        let state = RdState::new(rds);
        let mut opt = OptimalPolicy::new(0.9);
        opt.select_db(&state, 1, CorrectnessMetric::Absolute);
    }

    #[test]
    fn exhausted_state_returns_none() {
        let mut state = paper_state();
        state.probe(0, 1.0);
        state.probe(1, 2.0);
        let mut opt = OptimalPolicy::new(0.9);
        assert_eq!(opt.select_db(&state, 1, CorrectnessMetric::Absolute), None);
    }
}
