//! The greedy engine's one-pass sweep against the reference usefulness.
//!
//! [`engine::usefulness_all`] scores every unprobed candidate from one
//! sweep over the merged RD support; [`GreedyPolicy::usefulness`] clones
//! the state, probes the candidate at each outcome, and re-runs the
//! best-set quick score. Both rank outcomes by `rank_order`, so every
//! candidate's value must agree to 1e-12 under both metrics (absolute
//! `k > 1` runs the reference fallback), and `select_db` must return
//! the reference argmax whenever the reference's top two values differ
//! by more than 1e-12.
//!
//! The sweep stops once `k` databases are fully swept. Two-tier
//! fleets, where some databases sit wholly above the rest, put that
//! stop at exact ties (`0.0` against `-0.0` too) between a fully swept
//! database and later ones, at lower and at higher index.

use mp_core::engine;
use mp_core::expected::RdState;
use mp_core::probing::ProbePolicy;
use mp_core::{CorrectnessMetric, GreedyPolicy};
use mp_stats::Discrete;
use proptest::prelude::*;

/// Raw `(value, weight)` support per database.
type RawFleet = Vec<Vec<(f64, f64)>>;

const METRICS: [CorrectnessMetric; 2] = [CorrectnessMetric::Absolute, CorrectnessMetric::Partial];

fn build(fleet: &RawFleet) -> Vec<Discrete> {
    fleet
        .iter()
        .map(|pts| Discrete::from_weighted(pts).expect("weights are positive"))
        .collect()
}

/// The `k` values every property checks at fleet size `n`. `k = n − 1`
/// exercises the widest truncated counts; its reference costs
/// `O(n² · s̄ · N · k²)`, so it is only paid up to 16 databases.
fn ks(n: usize) -> Vec<usize> {
    let wide = if n <= 16 { n - 1 } else { n };
    let mut ks: Vec<usize> = [1, 2, 3, 4, wide, n]
        .into_iter()
        .filter(|&k| (1..=n).contains(&k))
        .collect();
    ks.sort_unstable();
    ks.dedup();
    ks
}

/// Checks every candidate's engine value against the reference at one
/// `(k, metric)`, and the engine's pick against the reference argmax.
fn check_at(state: &RdState, k: usize, metric: CorrectnessMetric) -> Result<(), TestCaseError> {
    let fast = engine::usefulness_all(state, k, metric);
    let candidates = state.unprobed();
    prop_assert_eq!(fast.iter().map(|&(h, _)| h).collect::<Vec<_>>(), candidates);
    let mut reference = Vec::with_capacity(fast.len());
    for &(h, u) in &fast {
        let slow = GreedyPolicy::usefulness(state, h, k, metric);
        prop_assert!(
            (u - slow).abs() <= 1e-12,
            "n={} k={} {:?} db{}: engine {} vs reference {}",
            state.len(),
            k,
            metric,
            h,
            u,
            slow
        );
        reference.push((h, slow));
    }
    // Descending by value, ties to the lower index: the first entry is
    // the reference argmax.
    reference.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let pick = GreedyPolicy.select_db(state, k, metric);
    prop_assert_eq!(pick.is_some(), !reference.is_empty());
    if let (Some(pick), [best, second, ..]) = (pick, reference.as_slice()) {
        if best.1 - second.1 > 1e-12 {
            prop_assert_eq!(
                pick,
                best.0,
                "n={} k={} {:?}: select_db picked db{}, reference argmax db{} ({} vs {})",
                state.len(),
                k,
                metric,
                pick,
                best.0,
                best.1,
                second.1
            );
        }
    }
    Ok(())
}

fn check(state: &RdState) -> Result<(), TestCaseError> {
    for k in ks(state.len()) {
        for metric in METRICS {
            check_at(state, k, metric)?;
        }
    }
    Ok(())
}

/// Fleets of 2..=40 databases, skewed small so that most cases stay
/// cheap for the reference.
fn sized(fleet: impl Strategy<Value = RawFleet>) -> impl Strategy<Value = RawFleet> {
    (0usize..3, 0usize..39, fleet).prop_map(|(class, r, mut fleet)| {
        let cap = [6, 16, 40][class];
        fleet.truncate(2 + r % (cap - 1));
        fleet
    })
}

fn float_point() -> impl Strategy<Value = (f64, f64)> {
    (0.0f64..100.0, 0.01f64..1.0)
}

fn grid_point() -> impl Strategy<Value = (f64, f64)> {
    (0u8..6, 0.01f64..1.0).prop_map(|(v, w)| (f64::from(v), w))
}

/// A support from `0.0` or `-0.0`, the smallest positive subnormal (1
/// ulp above zero), and shared anchor values nudged by −1, 0 or +1
/// ulp, so that databases hold values that differ only in their last
/// bit.
fn zero_and_ulp_db() -> impl Strategy<Value = Vec<(f64, f64)>> {
    const ANCHORS: [f64; 3] = [0.0, 1.833_333_333_333_333_3, 7.25];
    proptest::collection::vec((0usize..3, 0u8..3, 0.01f64..1.0), 1..4).prop_map(|pts| {
        let mut db = Vec::new();
        let mut used = [false; 3];
        for (a, nudge, w) in pts {
            // One point per anchor: `from_weighted` would merge two
            // nudges of the same anchor into one support value.
            if std::mem::replace(&mut used[a], true) {
                continue;
            }
            let v = match (a, nudge) {
                (0, 0) => -0.0,
                (0, 1) => 0.0,
                (0, _) => f64::from_bits(1),
                (_, 0) => f64::from_bits(ANCHORS[a].to_bits() - 1),
                (_, 1) => ANCHORS[a],
                _ => f64::from_bits(ANCHORS[a].to_bits() + 1),
            };
            db.push((v, w));
        }
        db
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sweep_matches_reference_on_float_supports(
        fleet in sized(proptest::collection::vec(
            proptest::collection::vec(float_point(), 1..6), 40))
    ) {
        check(&RdState::new(build(&fleet)))?;
    }

    #[test]
    fn sweep_matches_reference_on_integer_grids(
        fleet in sized(proptest::collection::vec(
            proptest::collection::vec(grid_point(), 1..5), 40))
    ) {
        check(&RdState::new(build(&fleet)))?;
    }

    #[test]
    fn sweep_matches_reference_with_impulses(
        fleet in sized(proptest::collection::vec(
            proptest::collection::vec(grid_point(), 1..5), 40)),
        impulses in proptest::collection::vec((0usize..40, 0u8..6), 0..8),
        probes in proptest::collection::vec((0usize..40, 0u8..6), 0..8)
    ) {
        // Unprobed impulses stay candidates; probed impulses at grid
        // values are rivals that tie the candidates' grid points.
        let mut fleet = fleet;
        let n = fleet.len();
        for (db, value) in impulses {
            fleet[db % n] = vec![(f64::from(value), 1.0)];
        }
        let mut state = RdState::new(build(&fleet));
        for (db, value) in probes {
            state.probe(db % n, f64::from(value));
        }
        check(&state)?;
    }

    #[test]
    fn sweep_matches_reference_at_zero_and_one_ulp(
        fleet in sized(proptest::collection::vec(zero_and_ulp_db(), 40))
    ) {
        check(&RdState::new(build(&fleet)))?;
    }

    #[test]
    fn sweep_matches_reference_across_two_tiers(
        fleet in sized(proptest::collection::vec(tiered_db(), 40))
    ) {
        check(&RdState::new(build(&fleet)))?;
    }

    #[test]
    fn negative_supports_match_the_clamped_reference(
        fleet in sized(proptest::collection::vec(
            proptest::collection::vec((-20.0f64..20.0, 0.01f64..1.0), 1..5), 40))
    ) {
        check(&RdState::new(build(&fleet)))?;
    }
}

/// 128 databases with 8-point supports whose ranges overlap heavily:
/// many candidates, rivals and outcomes per bucket row, at the served
/// `k = 2` and the absolute `k = 1` that the paper's examples use.
#[test]
fn sweep_matches_reference_on_a_wide_fleet() {
    let rds: Vec<Discrete> = (0..128)
        .map(|i| {
            let base = 10.0 + f64::from(i) * 1.7;
            let pts: Vec<(f64, f64)> = (0..8)
                .map(|j| {
                    let v = base * (0.2 + 0.45 * f64::from(j));
                    (v, 1.0 + f64::from((i + j) % 3))
                })
                .collect();
            Discrete::from_weighted(&pts).expect("weights are positive")
        })
        .collect();
    let state = RdState::new(rds);
    for (k, metric) in [
        (1, CorrectnessMetric::Absolute),
        (2, CorrectnessMetric::Partial),
    ] {
        check_at(&state, k, metric).expect("engine matches reference");
    }
}

/// Exact ties in the reference go to the lower index. Disjoint supports
/// with dyadic masses make every marginal exactly 0 or 1, so every
/// candidate's usefulness is exactly 1.
#[test]
fn exact_ties_go_to_the_lower_index() {
    let d = |pts: &[(f64, f64)]| Discrete::from_weighted(pts).expect("weights are positive");
    let state = RdState::new(vec![
        d(&[(1.0, 0.5), (2.0, 0.5)]),
        d(&[(50.0, 0.5), (60.0, 0.5)]),
        d(&[(100.0, 0.5), (110.0, 0.5)]),
    ]);
    for metric in METRICS {
        for (_, u) in engine::usefulness_all(&state, 1, metric) {
            assert_eq!(u, 1.0);
        }
        assert_eq!(GreedyPolicy.select_db(&state, 1, metric), Some(0));
    }
}

/// One database of a two-tier fleet: an upper database holds grid
/// values from 5 up, a lower one grid values up to 5, so the upper tier
/// sits wholly above the lower one but for exact ties at 5. A lower
/// database's zero is `-0.0` or `0.0` at random, so tied zeros differ
/// in sign.
fn tiered_db() -> impl Strategy<Value = Vec<(f64, f64)>> {
    (
        0u8..2,
        proptest::collection::vec((0u8..6, 0u8..2, 0.01f64..1.0), 1..4),
    )
        .prop_map(|(upper, pts)| {
            pts.into_iter()
                .map(|(v, sign, w)| match (upper, v) {
                    (1, v) => (f64::from(5 + v), w),
                    (_, 0) if sign == 1 => (-0.0, w),
                    (_, v) => (f64::from(v), w),
                })
                .collect()
        })
}

fn d(pts: &[(f64, f64)]) -> Discrete {
    Discrete::from_weighted(pts).expect("weights are positive")
}

/// Checks every `k` in `ks` under both metrics.
fn check_ks(rds: Vec<Discrete>, ks: &[usize]) {
    let state = RdState::new(rds);
    for &k in ks {
        for metric in METRICS {
            check_at(&state, k, metric).expect("engine matches reference");
        }
    }
}

/// At `k = 2` the sweep stops once dbs 0 and 2 are fully swept, at
/// `(5, 2)`: db 1's point at 5 ties it at a lower index and is swept
/// before the stop, db 3's at a higher index after it. At `k = 1` the
/// stop is the first point, at `k = 3` the point `(2, 3)`.
#[test]
fn stop_lands_on_a_tie_with_lower_and_higher_indices() {
    check_ks(
        vec![
            d(&[(9.0, 1.0)]),
            d(&[(5.0, 0.5), (1.0, 0.5)]),
            d(&[(7.0, 0.5), (5.0, 0.5)]),
            d(&[(5.0, 0.5), (2.0, 0.5)]),
        ],
        &[1, 2, 3],
    );
}

/// Signed zeros tie under the rank order: at `k = 2` the stop falls at
/// `(0.0, 1)`, between db 0's `-0.0` (lower index, ahead) and db 2's and
/// db 3's `-0.0` (higher index, behind).
#[test]
fn stop_lands_on_signed_zero_ties() {
    check_ks(
        vec![
            d(&[(-0.0, 0.5), (3.0, 0.5)]),
            d(&[(0.0, 0.5), (4.0, 0.5)]),
            d(&[(-0.0, 0.5), (2.0, 0.5)]),
            d(&[(-0.0, 0.25), (1.0, 0.75)]),
        ],
        &[1, 2],
    );
}

/// A database whose lowest point has zero mass (its weight did not
/// survive normalization) is fully swept only after that point.
#[test]
fn a_zero_mass_point_counts_its_database_once() {
    check_ks(
        vec![
            d(&[(4.0, 1e-320), (9.0, 1e10)]),
            d(&[(1.0, 0.5), (6.0, 0.5)]),
            d(&[(2.0, 0.5), (7.0, 0.5)]),
            d(&[(3.0, 0.25), (8.0, 0.75)]),
        ],
        &[1, 2, 3],
    );
}

/// `k + 1 = n`: the stop can only come at the last point.
#[test]
fn k_plus_one_equals_n() {
    check_ks(
        vec![
            d(&[(5.0, 0.5), (1.0, 0.5)]),
            d(&[(5.0, 0.5), (3.0, 0.5)]),
            d(&[(4.0, 0.5), (2.0, 0.5)]),
        ],
        &[2],
    );
    check_ks(
        vec![d(&[(0.0, 0.5), (2.0, 0.5)]), d(&[(-0.0, 0.5), (2.0, 0.5)])],
        &[1],
    );
}

/// `k` or more databases wholly above the rest: the stop comes before
/// any lower-tier point, at several `k`.
#[test]
fn upper_tier_of_k_plus_one_or_more() {
    for upper_count in 1..=5u8 {
        // Dbs 0, 2, 4, … (the first `upper_count` even ones) hold
        // values from 10 up, the others below 7.
        let upper = |i: u8| i.is_multiple_of(2) && i / 2 < upper_count;
        let rds: Vec<Discrete> = (0..10u8)
            .map(|i| {
                let v = f64::from(i);
                if upper(i) {
                    d(&[(10.0 + v, 0.5), (20.0, 0.5)])
                } else {
                    d(&[(v / 2.0, 0.5), (3.25, 0.5)])
                }
            })
            .collect();
        let ks: Vec<usize> = (1..=usize::from(upper_count)).collect();
        check_ks(rds, &ks);
    }
}
