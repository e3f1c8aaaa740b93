//! The probing-policy trait and the simple comparison policies.

use crate::correctness::CorrectnessMetric;
use crate::expected::RdState;
use mp_stats::Discrete;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

/// Chooses which database `APro` probes next (paper Figure 11, step (6):
/// `SelectDb`).
pub trait ProbePolicy: Send {
    /// Stable policy name for reports.
    fn name(&self) -> &str;

    /// The next database to probe, or `None` when every database is
    /// already probed. `k` and `metric` describe the selection task the
    /// certainty is measured against.
    fn select_db(&mut self, state: &RdState, k: usize, metric: CorrectnessMetric) -> Option<usize>;
}

/// Uniformly random choice among unprobed databases — the naive
/// baseline a useful policy must beat.
#[derive(Debug)]
pub struct RandomPolicy {
    rng: StdRng,
}

impl RandomPolicy {
    /// Creates the policy with a seed (deterministic experiments).
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ProbePolicy for RandomPolicy {
    fn name(&self) -> &str {
        "random"
    }

    fn select_db(&mut self, state: &RdState, _k: usize, _m: CorrectnessMetric) -> Option<usize> {
        let unprobed = state.unprobed();
        if unprobed.is_empty() {
            None
        } else {
            Some(unprobed[self.rng.gen_range(0..unprobed.len())])
        }
    }
}

/// Probes the unprobed database whose RD has the highest mean — i.e.
/// the database that currently *looks* most relevant. The natural
/// "verify the leader" heuristic.
#[derive(Debug, Default)]
pub struct ByEstimatePolicy;

impl ProbePolicy for ByEstimatePolicy {
    fn name(&self) -> &str {
        "by-estimate"
    }

    fn select_db(&mut self, state: &RdState, _k: usize, _m: CorrectnessMetric) -> Option<usize> {
        argmax_unprobed(state, Discrete::mean)
    }
}

/// Probes the unprobed database with the highest RD variance — i.e. the
/// database whose relevancy we know least about.
#[derive(Debug, Default)]
pub struct UncertaintyPolicy;

impl ProbePolicy for UncertaintyPolicy {
    fn name(&self) -> &str {
        "max-uncertainty"
    }

    fn select_db(&mut self, state: &RdState, _k: usize, _m: CorrectnessMetric) -> Option<usize> {
        argmax_unprobed(state, Discrete::variance)
    }
}

/// The unprobed database whose RD scores highest under `score`, ties to
/// the lower index, or `None` when every database is probed. One pass
/// scores each candidate once.
fn argmax_unprobed(state: &RdState, score: impl Fn(&Discrete) -> f64) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (i, rd) in state.rds().iter().enumerate() {
        if state.is_probed(i) {
            continue;
        }
        let s = score(rd);
        // Only a strictly higher score displaces the lower index.
        if best.is_none_or(|(b, _)| s.partial_cmp(&b).expect("finite scores") == Ordering::Greater)
        {
            best = Some((s, i));
        }
    }
    best.map(|(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(pairs: &[(f64, f64)]) -> Discrete {
        Discrete::from_weighted(pairs).unwrap()
    }

    fn state() -> RdState {
        RdState::new(vec![
            d(&[(10.0, 1.0)]),              // mean 10, var 0
            d(&[(0.0, 0.5), (40.0, 0.5)]),  // mean 20, var 400
            d(&[(29.0, 0.5), (31.0, 0.5)]), // mean 30, var 1
        ])
    }

    #[test]
    fn by_estimate_picks_highest_mean() {
        let mut p = ByEstimatePolicy;
        assert_eq!(
            p.select_db(&state(), 1, CorrectnessMetric::Absolute),
            Some(2)
        );
    }

    #[test]
    fn uncertainty_picks_highest_variance() {
        let mut p = UncertaintyPolicy;
        assert_eq!(
            p.select_db(&state(), 1, CorrectnessMetric::Absolute),
            Some(1)
        );
    }

    #[test]
    fn random_picks_only_unprobed() {
        let mut s = state();
        s.probe(1, 40.0);
        s.probe(2, 29.0);
        let mut p = RandomPolicy::new(0);
        for _ in 0..10 {
            assert_eq!(p.select_db(&s, 1, CorrectnessMetric::Absolute), Some(0));
        }
        s.probe(0, 10.0);
        assert_eq!(p.select_db(&s, 1, CorrectnessMetric::Absolute), None);
    }

    #[test]
    fn policies_skip_probed_databases() {
        let mut s = state();
        s.probe(2, 31.0); // highest mean now probed
        let mut p = ByEstimatePolicy;
        // Impulse at 31 is probed; among unprobed {0, 1}, db1 has the
        // higher mean.
        assert_eq!(p.select_db(&s, 1, CorrectnessMetric::Absolute), Some(1));
    }

    #[test]
    fn policies_break_exact_ties_to_the_lower_index() {
        // db1 and db3 tie on the highest unprobed mean (20) and db0 and
        // db2 on the highest unprobed variance (100); probed db4 holds
        // both maxima and must be skipped.
        let mut s = RdState::new(vec![
            d(&[(0.0, 0.5), (20.0, 0.5)]),  // mean 10, var 100
            d(&[(20.0, 1.0)]),              // mean 20, var 0
            d(&[(5.0, 0.5), (25.0, 0.5)]),  // mean 15, var 100
            d(&[(19.0, 0.5), (21.0, 0.5)]), // mean 20, var 1
            d(&[(0.0, 0.5), (90.0, 0.5)]),  // mean 45, var 2025
        ]);
        s.probe(4, 90.0);
        let m = CorrectnessMetric::Partial;
        assert_eq!(ByEstimatePolicy.select_db(&s, 1, m), Some(1));
        assert_eq!(UncertaintyPolicy.select_db(&s, 1, m), Some(0));
        // Probing the winners hands the tie to the next index.
        s.probe(1, 20.0);
        s.probe(0, 0.0);
        assert_eq!(ByEstimatePolicy.select_db(&s, 1, m), Some(3));
        assert_eq!(UncertaintyPolicy.select_db(&s, 1, m), Some(2));
        s.probe(2, 5.0);
        s.probe(3, 21.0);
        assert_eq!(ByEstimatePolicy.select_db(&s, 1, m), None);
        assert_eq!(UncertaintyPolicy.select_db(&s, 1, m), None);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(RandomPolicy::new(0).name(), "random");
        assert_eq!(ByEstimatePolicy.name(), "by-estimate");
        assert_eq!(UncertaintyPolicy.name(), "max-uncertainty");
    }
}
