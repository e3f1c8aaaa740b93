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
        let state = RdState::for_query(&tb.estimates(q), q, &tb.library);
        let rds = state.rds();
        for k in [1usize, 2] {
            let (set, exact) = best_set(&state, k, CorrectnessMetric::Absolute);
            let mc = monte_carlo_expected(rds, &set, CorrectnessMetric::Absolute, 30_000, &mut rng);
            assert!(
                (exact - mc).abs() < 0.02,
                "query {qi} k={k}: exact {exact} vs MC {mc}"
            );

            let (set_p, exact_p) = best_set(&state, k, CorrectnessMetric::Partial);
            let mc_p =
                monte_carlo_expected(rds, &set_p, CorrectnessMetric::Partial, 30_000, &mut rng);
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
        let state = RdState::for_query(&estimates, q, &empty);
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

/// The estimates at which a query state may take the library's frozen
/// floor RD, and the values either side of that cut: 0, half the floor,
/// the floor, one ulp above it, and ten times it.
fn floor_estimates(floor: f64) -> [f64; 5] {
    [
        0.0,
        floor / 2.0,
        floor,
        f64::from_bits(floor.to_bits() + 1),
        10.0 * floor,
    ]
}

/// Fails unless `RdState::for_query` holds `derive_rd` of the leaf's ED,
/// bit for bit, for every database and every leaf, at the floor
/// estimates and at each coverage threshold and twice it (so every leaf
/// is hit).
fn assert_state_rds_equal_derive_rd(lib: &mp_core::EdLibrary) {
    use mp_core::ed::ErrorDistribution;
    use mp_core::rd::derive_rd;
    let config = lib.config();
    let mut estimates = floor_estimates(config.est_floor).to_vec();
    estimates.extend(
        config
            .coverage_thresholds
            .iter()
            .flat_map(|&t| [t, 2.0 * t]),
    );
    let bits = |d: &mp_stats::Discrete| {
        d.points()
            .iter()
            .map(|&(v, p)| (v.to_bits(), p.to_bits()))
            .collect::<Vec<_>>()
    };
    let mut leaves = std::collections::BTreeSet::new();
    for n_terms in 1..=3u32 {
        let q = Query::new((0..n_terms).map(mp_text::TermId));
        for &est in &estimates {
            let qt = lib.classify(q.len(), est);
            leaves.insert(qt);
            let state = RdState::for_query(&vec![est; lib.n_databases()], &q, lib);
            for (db, got) in state.rds().iter().enumerate() {
                let ed = lib
                    .ed_or_fallback(db, qt)
                    .and_then(ErrorDistribution::to_discrete);
                let expected = derive_rd(est, ed.as_ref(), config);
                assert_eq!(
                    bits(got),
                    bits(&expected),
                    "db {db}, {qt:?}, estimate {est}"
                );
            }
        }
    }
    let all = mp_core::QueryType::all(config.coverage_thresholds.len());
    assert_eq!(leaves.len(), all.len(), "every leaf is visited");
}

#[test]
fn frozen_floor_rds_equal_derive_rd_on_every_leaf() {
    let tb = testbed();
    assert_state_rds_equal_derive_rd(&tb.library);
    // A record resets the table: the floor RD of the leaf it lands on
    // must follow the new ED.
    let mut lib = tb.library.clone();
    let q = Query::new([mp_text::TermId(0), mp_text::TermId(1)]);
    let zeros = vec![0.0; lib.n_databases()];
    let before = RdState::for_query(&zeros, &q, &lib).rds()[0].clone();
    for _ in 0..50 {
        lib.record(0, 2, 0.0, 30.0);
    }
    let after = RdState::for_query(&zeros, &q, &lib).rds()[0].clone();
    assert_ne!(before.points(), after.points());
    assert_state_rds_equal_derive_rd(&lib);
}
