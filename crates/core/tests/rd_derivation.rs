//! RD derivation from the library's frozen ED table against the lookup
//! path it replaced.
//!
//! [`derive_all_rds`] reads each `(database, leaf)` ED from a table the
//! library freezes once, with fallbacks resolved, and scales it in one
//! pass. The reference below re-derives every RD the way the table's
//! contents are defined: classify, [`EdLibrary::ed_or_fallback`],
//! [`ErrorDistribution::to_discrete`], then [`Discrete::from_weighted`]
//! of the scaled points. Every RD must match bit for bit, on libraries
//! with untrained databases (impulse RDs), leaves that only a fallback
//! serves, zero estimates (the floor), errors of −100% (which clamp to
//! the same 0), after a JSON round trip, and after a `record` lands on a
//! library whose table was already built.

use mp_core::ed::{EdLibrary, ErrorDistribution};
use mp_core::persist::{library_from_json, library_to_json};
use mp_core::rd::derive_all_rds;
use mp_core::CoreConfig;
use mp_stats::Discrete;
use mp_text::TermId;
use mp_workload::Query;
use proptest::prelude::*;

/// Databases in the fleet. Training never records on the last one, so
/// it always derives impulse RDs.
const N_DB: usize = 5;

/// One training observation: `(database, terms, estimate, actual)`.
type Record = (usize, usize, f64, f64);

fn reference_rds(estimates: &[f64], query: &Query, lib: &EdLibrary) -> Vec<Discrete> {
    estimates
        .iter()
        .enumerate()
        .map(|(db, &estimate)| {
            let qt = lib.classify(query.len(), estimate);
            let base = estimate.max(lib.config().est_floor);
            match lib
                .ed_or_fallback(db, qt)
                .and_then(ErrorDistribution::to_discrete)
            {
                Some(errors) => {
                    let scaled: Vec<(f64, f64)> = errors
                        .points()
                        .iter()
                        .map(|&(e, p)| ((base * (1.0 + e)).max(0.0), p))
                        .collect();
                    Discrete::from_weighted(&scaled).expect("non-empty ED")
                }
                None => Discrete::impulse(estimate.max(0.0)),
            }
        })
        .collect()
}

fn query(n_terms: usize) -> Query {
    Query::new((0..n_terms).map(|t| TermId(u32::try_from(t).expect("few terms"))))
}

fn bits(rds: &[Discrete]) -> Vec<Vec<(u64, u64)>> {
    rds.iter()
        .map(|rd| {
            rd.points()
                .iter()
                .map(|&(v, p)| (v.to_bits(), p.to_bits()))
                .collect()
        })
        .collect()
}

/// Fails unless the frozen path derives the reference's bits for every
/// query, on `lib` and on its JSON round trip.
fn check(lib: &EdLibrary, queries: &[(usize, Vec<f64>)]) -> Result<(), TestCaseError> {
    let loaded = library_from_json(&library_to_json(lib).expect("serializes")).expect("parses");
    prop_assert_eq!(&loaded, lib);
    for (n_terms, estimates) in queries {
        let q = query(*n_terms);
        let expected = bits(&reference_rds(estimates, &q, lib));
        prop_assert_eq!(bits(&derive_all_rds(estimates, &q, lib)), expected.clone());
        prop_assert_eq!(bits(&derive_all_rds(estimates, &q, &loaded)), expected);
    }
    Ok(())
}

/// An estimate or actual: zero (the floor, or an error of −100%), one
/// of the coverage thresholds exactly, or a drawn value.
fn value(kind: u8, drawn: f64) -> f64 {
    match kind {
        0 => 0.0,
        1 => 1.0,
        2 => 20.0,
        _ => drawn,
    }
}

fn records() -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(
        (
            (0usize..N_DB - 1, 1usize..4),
            (0u8..6, 0.0f64..60.0),
            (0u8..6, 0.0f64..200.0),
        ),
        0..60,
    )
    .prop_map(|rs| {
        rs.into_iter()
            .map(|((db, n_terms), (ek, e), (ak, a))| (db, n_terms, value(ek, e), value(ak, a)))
            .collect()
    })
}

fn queries() -> impl Strategy<Value = Vec<(usize, Vec<f64>)>> {
    proptest::collection::vec(
        (
            1usize..4,
            proptest::collection::vec((0u8..6, 0.0f64..60.0), N_DB),
        ),
        1..8,
    )
    .prop_map(|qs| {
        qs.into_iter()
            .map(|(n_terms, ests)| {
                (
                    n_terms,
                    ests.into_iter().map(|(k, e)| value(k, e)).collect(),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frozen_derivation_equals_the_lookup_path(
        trained in records(),
        late in records(),
        queries in queries()
    ) {
        // Three coverage buckets per arity, so fallbacks cross coverage
        // as well as arity.
        let mut lib = EdLibrary::empty(N_DB, CoreConfig::default().with_thresholds(vec![1.0, 20.0]));
        for &(db, n_terms, est, actual) in &trained {
            lib.record(db, n_terms, est, actual);
        }
        check(&lib, &queries)?;
        // The table is built now; later records must reach derivation.
        for &(db, n_terms, est, actual) in &late {
            lib.record(db, n_terms, est, actual);
        }
        check(&lib, &queries)?;
    }
}

/// One trained leaf serves every other leaf of its database through
/// the fallback chain, and errors of −100% clamp to a shared 0.
#[test]
fn one_leaf_serves_every_query_type_through_fallbacks() {
    let mut lib = EdLibrary::empty(2, CoreConfig::default());
    lib.record(0, 2, 500.0, 0.0);
    lib.record(0, 2, 500.0, 0.0);
    lib.record(0, 2, 500.0, 900.0);
    let estimates = [0.0, 3.0];
    for n_terms in 1..4 {
        let q = query(n_terms);
        let rds = derive_all_rds(&estimates, &q, &lib);
        assert_eq!(bits(&rds), bits(&reference_rds(&estimates, &q, &lib)));
        assert_eq!(rds[0].points()[0], (0.0, 2.0 / 3.0));
        assert!(rds[1].is_impulse(), "db 1 is untrained");
    }
}

/// A database without an ED keeps the impulse path at and below the
/// floor, while a trained one scales its frozen ED by the floor; both
/// equal the reference before and after a `record` lands on the built
/// table.
#[test]
fn floor_estimates_derive_the_reference_with_and_without_an_ed() {
    use mp_core::rd::derive_db_rd;
    let mut lib = EdLibrary::empty(2, CoreConfig::default());
    lib.record(0, 2, 0.0, 0.3);
    lib.record(0, 2, 0.05, 0.0);
    let floor = lib.config().est_floor;
    let estimates = [
        0.0,
        floor / 2.0,
        floor,
        f64::from_bits(floor.to_bits() + 1),
        10.0 * floor,
    ];
    let q = query(2);
    for round in 0..2 {
        for &est in &estimates {
            let both = [est, est];
            let expected = bits(&reference_rds(&both, &q, &lib));
            let got: Vec<Discrete> = (0..2).map(|db| derive_db_rd(est, db, &q, &lib)).collect();
            assert_eq!(bits(&got), expected, "round {round}, estimate {est}");
            assert!(got[1].is_impulse(), "db 1 has no ED");
            assert_eq!(got[1].mean(), est);
        }
        // The table is built; this record must reach the floor RD.
        lib.record(0, 2, 0.0, 2.0);
    }
}
