//! Cross-crate property tests on the probabilistic model's invariants,
//! validated against Monte-Carlo simulation on *real* testbed RDs (not
//! just synthetic fixtures).

use metaprobe::prelude::*;
use mp_core::expected::{
    expected_absolute, expected_partial, marginal_topk_prob, monte_carlo_expected, RdState,
};
use mp_core::selection::{baseline_select, best_set};
use mp_eval::{Testbed, TestbedConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn testbed() -> Testbed {
    Testbed::build(TestbedConfig::tiny(4))
}

#[test]
fn exact_expectations_match_monte_carlo_on_real_rds() {
    let tb = testbed();
    let mut rng = StdRng::seed_from_u64(99);
    for (qi, q) in tb.split.test.queries().iter().enumerate().take(12) {
        let rds = tb.rds(q);
        let state = RdState::new(rds.clone());
        for k in [1usize, 2] {
            let (set, exact) = best_set(&state, k, CorrectnessMetric::Absolute);
            let mc =
                monte_carlo_expected(&rds, &set, CorrectnessMetric::Absolute, 30_000, &mut rng);
            assert!(
                (exact - mc).abs() < 0.02,
                "query {qi} k={k}: exact {exact} vs MC {mc}"
            );

            let (set_p, exact_p) = best_set(&state, k, CorrectnessMetric::Partial);
            let mc_p =
                monte_carlo_expected(&rds, &set_p, CorrectnessMetric::Partial, 30_000, &mut rng);
            assert!(
                (exact_p - mc_p).abs() < 0.02,
                "query {qi} k={k}: exact_p {exact_p} vs MC {mc_p}"
            );
        }
    }
}

#[test]
fn marginals_sum_to_k_on_real_rds() {
    let tb = testbed();
    for q in tb.split.test.queries().iter().take(20) {
        let rds = tb.rds(q);
        for k in [1usize, 3] {
            let sum: f64 = (0..rds.len()).map(|i| marginal_topk_prob(&rds, i, k)).sum();
            assert!((sum - k as f64).abs() < 1e-6, "k={k}: marginals sum {sum}");
        }
    }
}

#[test]
fn absolute_never_exceeds_partial_on_real_rds() {
    let tb = testbed();
    for q in tb.split.test.queries().iter().take(20) {
        let rds = tb.rds(q);
        for k in [1usize, 2, 3] {
            let set: Vec<usize> = (0..k).collect();
            let a = expected_absolute(&rds, &set);
            let p = expected_partial(&rds, &set);
            assert!(a <= p + 1e-9, "k={k}: absolute {a} > partial {p}");
        }
    }
}

#[test]
fn rd_selection_with_impulse_library_equals_baseline() {
    // An untrained library derives impulse RDs at the estimates, so
    // RD-based selection must coincide with estimate ranking.
    let tb = testbed();
    let empty = mp_core::EdLibrary::empty(tb.n_databases(), tb.config.core.clone());
    for q in tb.split.test.queries().iter().take(30) {
        let estimates = tb.estimates(q);
        let state = RdState::new(mp_core::rd::derive_all_rds(&estimates, q, &empty));
        let (rd_set, _) = best_set(&state, 1, CorrectnessMetric::Absolute);
        let base = baseline_select(&estimates, 1);
        assert_eq!(rd_set, base, "query {q:?}");
    }
}

#[test]
fn golden_standard_is_reachable_by_probing() {
    // Every golden actual must equal what a live probe returns now —
    // i.e. the golden standard and the probe path see the same engine.
    let tb = testbed();
    for (qi, q) in tb.split.test.queries().iter().enumerate().take(10) {
        for i in 0..tb.n_databases() {
            let live = RelevancyDef::DocFrequency.probe(tb.mediator.db(i), q, 0);
            assert_eq!(live, tb.golden.actual(qi, i), "query {qi}, db {i}");
        }
    }
    tb.mediator.reset_probes();
}

#[test]
fn training_is_deterministic_across_builds() {
    let a = Testbed::build(TestbedConfig::tiny(12));
    let b = Testbed::build(TestbedConfig::tiny(12));
    for q in a.split.test.queries().iter().take(10) {
        assert_eq!(a.estimates(q), b.estimates(q));
        let rds_a = a.rds(q);
        let rds_b = b.rds(q);
        for (x, y) in rds_a.iter().zip(&rds_b) {
            assert_eq!(x.points(), y.points());
        }
    }
}
