//! The paper's greedy probing policy (Section 5.4, Figures 12/13).
//!
//! `APro` halts as soon as some `DBk` reaches the required certainty, so
//! the greedy policy probes the database that is expected to *raise the
//! maximum achievable certainty the most*. Formally, the **usefulness**
//! of probing `db_i` is the expectation, over `db_i`'s RD, of the
//! post-probe maximum `E[Cor(DBk)]`:
//!
//! ```text
//! usefulness(i) = Σ_{(v, p) ∈ RD_i}  p · max_{DBk} E[Cor(DBk) | r_i = v]
//! ```
//!
//! and the policy probes `argmax_i usefulness(i)`.
//!
//! [`GreedyPolicy::usefulness`] is the *reference* evaluation (a cloned
//! state re-probed per outcome). [`GreedyPolicy::select_db`] — the hot
//! path APro hits once per probe — instead scores all candidates through
//! [`crate::engine::usefulness_all`]: the same quantities from one sweep
//! over the merged RD support, on one thread.

use crate::correctness::CorrectnessMetric;
use crate::engine;
use crate::expected::RdState;
use crate::probing::policy::ProbePolicy;

/// The greedy expected-usefulness policy.
#[derive(Debug, Default)]
pub struct GreedyPolicy;

impl GreedyPolicy {
    /// The expected usefulness of probing database `i` — the reference
    /// evaluation (exposed for the worked-example tests, diagnostics,
    /// and the cost-aware policy's single-candidate `gain_per_cost`;
    /// `select_db` uses the equivalent one-pass engine).
    pub fn usefulness(state: &RdState, i: usize, k: usize, metric: CorrectnessMetric) -> f64 {
        engine::naive_usefulness(state, i, k, metric)
    }
}

impl ProbePolicy for GreedyPolicy {
    fn name(&self) -> &str {
        "greedy"
    }

    fn select_db(&mut self, state: &RdState, k: usize, metric: CorrectnessMetric) -> Option<usize> {
        engine::usefulness_all(state, k, metric)
            .into_iter()
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("usefulness is finite")
                    .then(b.0.cmp(&a.0)) // tie → lower index
            })
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_stats::Discrete;

    fn d(pairs: &[(f64, f64)]) -> Discrete {
        Discrete::from_weighted(pairs).unwrap()
    }

    /// Paper Figure 5(d) RDs: db1 ~ {50: .4, 100: .5, 150: .1},
    /// db2 ~ {65: .1, 130: .9}.
    fn paper_state() -> RdState {
        RdState::new(vec![
            d(&[(50.0, 0.4), (100.0, 0.5), (150.0, 0.1)]),
            d(&[(65.0, 0.1), (130.0, 0.9)]),
        ])
    }

    #[test]
    fn paper_example6_usefulness_case_analysis() {
        // Mirroring Figure 13's case analysis on the Example 4 RDs
        // (hand-derived ground truth, k = 1, absolute metric):
        //
        // Probing db1:
        //   r1 = 50  (p .4): db2 always wins           → usefulness 1.0
        //   r1 = 100 (p .5): db2 wins iff 130 (p .9)   → usefulness 0.9
        //   r1 = 150 (p .1): db1 always wins           → usefulness 1.0
        //   expected = .4 + .45 + .1                    = 0.95
        //
        // Probing db2:
        //   r2 = 65  (p .1): P(r1 > 65) = .6           → usefulness 0.6
        //   r2 = 130 (p .9): P(r1 < 130) = .9          → usefulness 0.9
        //   expected = .06 + .81                        = 0.87
        let state = paper_state();
        let u1 = GreedyPolicy::usefulness(&state, 0, 1, CorrectnessMetric::Absolute);
        let u2 = GreedyPolicy::usefulness(&state, 1, 1, CorrectnessMetric::Absolute);
        assert!((u1 - 0.95).abs() < 1e-12, "u1={u1}");
        assert!((u2 - 0.87).abs() < 1e-12, "u2={u2}");
    }

    #[test]
    fn paper_example6_greedy_picks_db1() {
        // The paper's greedy policy picks db1 to probe (the higher
        // expected usefulness), matching Example 6's conclusion.
        let mut p = GreedyPolicy;
        let pick = p.select_db(&paper_state(), 1, CorrectnessMetric::Absolute);
        assert_eq!(pick, Some(0));
    }

    #[test]
    fn usefulness_at_least_current_certainty() {
        // Probing can only add information: for every database, the
        // expected post-probe max certainty is >= the current max
        // certainty (expectation of a max >= max of expectation).
        let state = paper_state();
        let (_, now) = crate::selection::best_set(&state, 1, CorrectnessMetric::Absolute);
        for i in 0..2 {
            let u = GreedyPolicy::usefulness(&state, i, 1, CorrectnessMetric::Absolute);
            assert!(u >= now - 1e-12, "db{i}: usefulness {u} < current {now}");
        }
    }

    #[test]
    fn probing_an_impulse_is_useless() {
        // An already-probed (impulse) database's usefulness equals the
        // current certainty exactly — no information gained.
        let mut state = paper_state();
        state.probe(0, 100.0);
        let (_, now) = crate::selection::best_set(&state, 1, CorrectnessMetric::Absolute);
        let u = GreedyPolicy::usefulness(&state, 0, 1, CorrectnessMetric::Absolute);
        assert!((u - now).abs() < 1e-12);
        // And select_db never returns it.
        let mut p = GreedyPolicy;
        assert_eq!(p.select_db(&state, 1, CorrectnessMetric::Absolute), Some(1));
    }

    #[test]
    fn all_probed_returns_none() {
        let mut state = paper_state();
        state.probe(0, 100.0);
        state.probe(1, 130.0);
        let mut p = GreedyPolicy;
        assert_eq!(p.select_db(&state, 1, CorrectnessMetric::Absolute), None);
    }

    #[test]
    fn works_under_partial_metric() {
        let state = RdState::new(vec![
            d(&[(10.0, 0.5), (90.0, 0.5)]),
            d(&[(50.0, 1.0)]),
            d(&[(40.0, 0.5), (60.0, 0.5)]),
        ]);
        let mut p = GreedyPolicy;
        let pick = p.select_db(&state, 2, CorrectnessMetric::Partial);
        assert!(pick.is_some());
        // db1 is an impulse; probing it is useless, so greedy must pick
        // one of the uncertain databases.
        assert_ne!(pick, Some(1));
    }
}
