//! Relevancy distributions (RDs): from point estimate + ED to a
//! distribution over the actual relevancy (paper Section 3.1, Example 3).

use crate::config::CoreConfig;
use crate::ed::EdLibrary;
use mp_stats::Discrete;
use mp_workload::Query;

/// Derives the RD for one database and query from the error
/// distribution `errors` of its query-type leaf:
///
/// ```text
/// RD support = { r̂_floored · (1 + err)  :  err ∈ ED support }
/// ```
///
/// clamped at 0 (relevancy cannot be negative — colliding support points
/// merge their probability). When the database has no usable ED the RD
/// degrades to an impulse at the estimate, making RD-based selection
/// coincide with the estimation baseline for that database.
pub fn derive_rd(estimate: f64, errors: Option<&Discrete>, config: &CoreConfig) -> Discrete {
    let base = estimate.max(config.est_floor);
    let rd = match errors {
        // The floor is positive (`relative_error` asserts it in
        // training), so the map is non-decreasing in `err`: the ED's
        // order survives and no sort is needed.
        Some(errors) => errors
            .map_nondecreasing(|e| (base * (1.0 + e)).max(0.0))
            .expect("non-empty error distribution maps to non-empty RD"),
        None => Discrete::impulse(estimate.max(0.0)),
    };
    rd.debug_assert_normalized();
    rd
}

/// Derives the RD of a query on database `db` of `lib`, classifying the
/// query for that database first (classification is
/// database-dependent: paper Section 4.1) and scaling the leaf's frozen
/// ED.
///
/// `estimate` must be the estimator output for database `db`.
// mp-lint: allow(L6): pure delegation to derive_rd, which asserts
pub fn derive_db_rd(estimate: f64, db: usize, query: &Query, lib: &EdLibrary) -> Discrete {
    let qt = lib.classify(query.len(), estimate);
    derive_rd(estimate, lib.frozen_ed(db, qt), lib.config())
}

/// Derives the RDs of a query against every database in one call
/// ([`derive_db_rd`] per database).
///
/// `estimates[i]` must be the estimator output for database `i`.
// mp-lint: allow(L6): every element comes from derive_rd, which asserts
pub fn derive_all_rds(estimates: &[f64], query: &Query, lib: &EdLibrary) -> Vec<Discrete> {
    assert_eq!(
        estimates.len(),
        lib.n_databases(),
        "estimate/library mismatch"
    );
    estimates
        .iter()
        .enumerate()
        .map(|(i, &est)| derive_db_rd(est, i, query, lib))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ed::ErrorDistribution;
    use crate::expected::RdState;
    use mp_text::TermId;
    use proptest::prelude::*;

    fn config() -> CoreConfig {
        CoreConfig::default()
    }

    /// The frozen ED of the given error samples.
    fn ed_from(errors: &[f64]) -> Discrete {
        let mut ed = ErrorDistribution::new(&config());
        for &e in errors {
            ed.add(e);
        }
        ed.to_discrete().expect("at least one sample")
    }

    #[test]
    fn paper_example3_rd_derivation() {
        // ED of db1: −50% (p .4), 0% (p .5), +50% (p .1); estimate 100.
        // RD: 50 (p .4), 100 (p .5), 150 (p .1) — Figure 5(b).
        let mut errs = Vec::new();
        errs.extend(std::iter::repeat_n(-0.5, 4));
        errs.extend(std::iter::repeat_n(0.0, 5));
        errs.push(0.5);
        let ed = ed_from(&errs);
        let rd = derive_rd(100.0, Some(&ed), &config());
        assert_eq!(rd.len(), 3);
        assert!((rd.prob_eq(50.0) - 0.4).abs() < 1e-12);
        assert!((rd.prob_eq(100.0) - 0.5).abs() < 1e-12);
        assert!((rd.prob_eq(150.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn missing_ed_degrades_to_impulse() {
        let rd = derive_rd(42.0, None, &config());
        assert!(rd.is_impulse());
        assert_eq!(rd.mean(), 42.0);
    }

    #[test]
    fn negative_relevancies_clamp_to_zero() {
        // An error of −180% would imply negative relevancy; the bin
        // representative is ≥ −1 (errors are ≥ −1 for non-negative
        // actuals) but clamping is still exercised via the open tail.
        let ed = ed_from(&[-1.0, -1.0, 1.0]);
        let rd = derive_rd(100.0, Some(&ed), &config());
        assert!(rd.min_value() >= 0.0);
        assert!((rd.prob_eq(0.0) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_estimate_uses_floor_for_scaling() {
        // est = 0 → base = floor; a +49 error (actual 5 when floored)
        // reconstructs the actual relevancy 5.
        let ed = ed_from(&[49.0]);
        let rd = derive_rd(0.0, Some(&ed), &config());
        assert!(rd.is_impulse());
        assert!((rd.mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn derive_all_uses_per_database_classification() {
        let mut lib = EdLibrary::empty(2, config());
        // db0 trained on high-coverage 2-term with consistent +100%.
        lib.record(0, 2, 500.0, 1000.0);
        // db1 trained on low-coverage 2-term with consistent −100%.
        lib.record(1, 2, 50.0, 0.0);
        let q = mp_workload::Query::new([TermId(0), TermId(1)]);
        let rds = derive_all_rds(&[400.0, 20.0], &q, &lib);
        // db0: estimate 400 × (1 + 1.0) = 800.
        assert!((rds[0].mean() - 800.0).abs() < 1e-9);
        // db1: estimate 20 × (1 − 1.0) = 0.
        assert!((rds[1].mean() - 0.0).abs() < 1e-9);
    }

    /// Databases in a proptest library. Training never records on the
    /// last one, so it has no ED.
    const N_DB: usize = 5;

    /// Actual relevancies a proptest library trains on.
    const ACTUALS: [f64; 6] = [0.0, 0.05, 0.3, 2.0, 9.0, 40.0];

    /// A coverage threshold above, at or below the estimate floor.
    fn theta(kind: usize) -> f64 {
        let floor = config().est_floor;
        [10.0 * floor, floor, floor / 2.0][kind]
    }

    /// Zero of either sign, half the floor, the floor, one ulp above it,
    /// or an estimate above `theta`.
    fn estimate(kind: usize, theta: f64) -> f64 {
        let floor = config().est_floor;
        [
            0.0,
            -0.0,
            floor / 2.0,
            floor,
            floor.next_up(),
            2.0 * theta + 1.0,
        ][kind]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_for_query_equals_a_sorted_state_of_derived_rds(
            theta_kind in 0usize..3,
            records in proptest::collection::vec(
                ((0usize..N_DB - 1, 1usize..4), (0usize..6, 0usize..6)),
                0..40
            ),
            n_terms in 1u32..4,
            kinds in proptest::collection::vec(0usize..6, N_DB),
            probes in proptest::collection::vec((0usize..N_DB, 0usize..N_DB, 0u8..4), 0..5)
        ) {
            let theta = theta(theta_kind);
            let mut lib = EdLibrary::empty(N_DB, config().with_threshold(theta));
            for &((db, terms), (est, actual)) in &records {
                lib.record(db, terms, estimate(est, theta), ACTUALS[actual]);
            }
            let q = Query::new((0..n_terms).map(TermId));
            let estimates: Vec<f64> = kinds.iter().map(|&kind| estimate(kind, theta)).collect();
            let mut state = RdState::for_query(&estimates, &q, &lib);
            let mut sorted = RdState::new(derive_all_rds(&estimates, &q, &lib));
            prop_assert_eq!(state.support_bits(), sorted.support_bits());
            // Probe outcomes of either zero, tying a support point, one
            // ulp above it, or between points.
            for (db, src, kind) in probes {
                let pts = sorted.rds()[src].points();
                let near = pts[src % pts.len()].0;
                let outcome = match kind {
                    0 => -0.0,
                    1 => near,
                    2 => near.next_up(),
                    _ => near + 0.5,
                };
                state.probe(db, outcome);
                sorted.probe(db, outcome);
                prop_assert_eq!(state.support_bits(), sorted.support_bits());
            }
        }
    }

    proptest! {
        #[test]
        fn prop_rd_mass_sums_to_one(
            errors in proptest::collection::vec(-1.0f64..10.0, 1..50),
            est in 0.0f64..1e4
        ) {
            let ed = ed_from(&errors);
            let rd = derive_rd(est, Some(&ed), &config());
            let total: f64 = rd.points().iter().map(|&(_, p)| p).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(rd.min_value() >= 0.0);
        }

        #[test]
        fn prop_rd_mean_tracks_ed_mean(
            est in 1.0f64..1e4
        ) {
            // A single-bin ED (all samples equal) makes the RD an
            // impulse at est·(1+err) exactly.
            let ed = ed_from(&[0.3, 0.3, 0.3]);
            let rd = derive_rd(est, Some(&ed), &config());
            prop_assert!(rd.is_impulse());
            prop_assert!((rd.mean() - est * 1.3).abs() < 1e-6);
        }
    }
}
