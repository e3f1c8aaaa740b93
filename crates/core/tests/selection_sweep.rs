//! The one-pass top-k sweep against the per-database reference DP.
//!
//! [`topk_marginals`] computes every database's `P(i ∈ true top-k)` from
//! one sweep over the merged RD support; [`marginal_topk_prob`] computes
//! one database at a time with its own Poisson-binomial DP over every
//! rival. Both rank outcomes by `rank_order` (value descending, lower
//! index first on exact ties), so they must agree to rounding on every
//! input. The properties draw the shapes that stress that contract:
//!
//! * random float supports (no ties);
//! * integer grids, where cross-database ties are the common case;
//! * probed databases, collapsed to impulses that tie grid points;
//! * the serving fleet's shape: every RD starts at `0.0` and the rest
//!   of its support sits within a few ulps of values other RDs hold;
//! * two tiers, where some databases sit wholly above the rest: the
//!   sweep stops once `k` databases are fully swept, and the tiers put
//!   that stop at exact ties (`0.0` against `-0.0` too) between a fully
//!   swept database and later ones, at lower and at higher index.
//!
//! Sizes run up to 300 databases, with `k ∈ {1, 2, 3, n}` (and
//! `n − 1` up to 80 databases). Each marginal must match to 1e-12, and
//! the marginals must sum to `k` within 1e-9 (exactly `k` databases are
//! in the top-k in every outcome).

use mp_core::expected::{marginal_topk_prob, topk_marginals, RdState};
use mp_stats::Discrete;
use proptest::prelude::*;

/// Raw `(value, weight)` support per database.
type RawFleet = Vec<Vec<(f64, f64)>>;

fn build(fleet: &RawFleet) -> Vec<Discrete> {
    fleet
        .iter()
        .map(|pts| Discrete::from_weighted(pts).expect("weights are positive"))
        .collect()
}

/// The `k` values every property checks at fleet size `n`: the small
/// `k` the engine serves, and `k = n`. `k = n − 1` exercises the
/// widest truncated counts; its `O(n³ · s̄)` reference is only paid up
/// to 80 databases.
fn ks(n: usize) -> Vec<usize> {
    let wide = if n <= 80 { n - 1 } else { n };
    let mut ks: Vec<usize> = [1, 2, 3, wide, n]
        .into_iter()
        .filter(|&k| (1..=n).contains(&k))
        .collect();
    ks.sort_unstable();
    ks.dedup();
    ks
}

fn check(state: &RdState) -> Result<(), TestCaseError> {
    let (n, rds) = (state.len(), state.rds());
    for k in ks(n) {
        let sweep = topk_marginals(state, k);
        prop_assert_eq!(sweep.len(), n);
        for (i, &m) in sweep.iter().enumerate() {
            let dp = marginal_topk_prob(rds, i, k);
            prop_assert!(
                (m - dp).abs() <= 1e-12,
                "n={} k={} db{}: sweep {} vs DP {}",
                n,
                k,
                i,
                m,
                dp
            );
        }
        let sum: f64 = sweep.iter().sum();
        prop_assert!(
            (sum - k as f64).abs() <= 1e-9,
            "n={} k={}: marginals sum to {}",
            n,
            k,
            sum
        );
    }
    Ok(())
}

/// Fleets of 2..=300 databases, skewed small: a size class caps `n`, so
/// most cases stay cheap for the `O(n³ · s̄)` reference at `k ≥ n − 1`.
fn sized(fleet: impl Strategy<Value = RawFleet>) -> impl Strategy<Value = RawFleet> {
    (0usize..4, 0usize..299, fleet).prop_map(|(class, r, mut fleet)| {
        let cap = [6, 24, 80, 300][class];
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

/// The serving fleet's RD shape: a point at `0.0`, then points at shared
/// anchor values, each nudged by 0–2 ulps so that databases hold values
/// that differ only in their last bits.
fn near_tie_db() -> impl Strategy<Value = Vec<(f64, f64)>> {
    const ANCHORS: [f64; 4] = [0.5, 1.833_333_333_333_333_3, 3.0, 7.25];
    (
        0.01f64..1.0,
        proptest::collection::vec((0usize..4, 0u64..3, 0.01f64..1.0), 1..4),
    )
        .prop_map(|(w0, pts)| {
            let mut db = vec![(0.0, w0)];
            let mut used = [false; 4];
            for (a, ulps, w) in pts {
                // One point per anchor: `from_weighted` would merge two
                // nudges of the same anchor into one support value.
                if !std::mem::replace(&mut used[a], true) {
                    db.push((f64::from_bits(ANCHORS[a].to_bits() + ulps), w));
                }
            }
            db
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sweep_matches_dp_on_float_supports(
        fleet in sized(proptest::collection::vec(
            proptest::collection::vec(float_point(), 1..6), 300))
    ) {
        check(&RdState::new(build(&fleet)))?;
    }

    #[test]
    fn sweep_matches_dp_on_integer_grids(
        fleet in sized(proptest::collection::vec(
            proptest::collection::vec(grid_point(), 1..5), 300))
    ) {
        check(&RdState::new(build(&fleet)))?;
    }

    #[test]
    fn sweep_matches_dp_with_probed_impulses(
        fleet in sized(proptest::collection::vec(
            proptest::collection::vec(grid_point(), 1..5), 300)),
        probes in proptest::collection::vec((0usize..300, 0u8..6), 0..40)
    ) {
        // Probing collapses an RD to an impulse at the observed value;
        // grid-valued probes tie the unprobed databases' grid points.
        let mut state = RdState::new(build(&fleet));
        for (db, value) in probes {
            state.probe(db % state.len(), f64::from(value));
        }
        check(&state)?;
    }

    #[test]
    fn sweep_matches_dp_on_near_ties_above_zero(
        fleet in sized(proptest::collection::vec(near_tie_db(), 300))
    ) {
        check(&RdState::new(build(&fleet)))?;
    }

    #[test]
    fn sweep_matches_dp_across_two_tiers(
        fleet in sized(proptest::collection::vec(tiered_db(), 300))
    ) {
        check(&RdState::new(build(&fleet)))?;
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

/// `P(i ∈ top-k)` on fleets built so that the stop falls at a tie.
fn marginals(rds: Vec<Discrete>, k: usize) -> Vec<f64> {
    let state = RdState::new(rds);
    let sweep = topk_marginals(&state, k);
    for (i, &m) in sweep.iter().enumerate() {
        let dp = marginal_topk_prob(state.rds(), i, k);
        assert!((m - dp).abs() <= 1e-12, "k={k} db{i}: sweep {m} vs DP {dp}");
    }
    sweep
}

fn d(pts: &[(f64, f64)]) -> Discrete {
    Discrete::from_weighted(pts).expect("weights are positive")
}

/// At `k = 2`, dbs 0 and 2 are fully swept once the sweep passes
/// `(5, 2)`. Db 1's point at 5 ties it at a lower index, so it ranks
/// ahead and is swept before the stop with one certain rival ahead;
/// db 3's tie at a higher index ranks behind, after the stop, where it
/// would add exactly `+0.0`.
#[test]
fn stop_lands_on_a_tie_with_lower_and_higher_indices() {
    let m = marginals(
        vec![
            d(&[(9.0, 1.0)]),
            d(&[(5.0, 0.5), (1.0, 0.5)]),
            d(&[(7.0, 0.5), (5.0, 0.5)]),
            d(&[(5.0, 0.5), (2.0, 0.5)]),
        ],
        2,
    );
    assert_eq!(m[0], 1.0);
    // Db 1 at 5 beats db 2 whenever db 2 sits at 5 (and db 3 always).
    assert_eq!(m[1], 0.25);
    assert_eq!(m[2], 0.75);
    assert_eq!(m[3], 0.0);
}

/// Signed zeros tie under the rank order. At `k = 2` db 0 is fully
/// swept at its `-0.0` and db 1 at its `0.0`, where the sweep stops:
/// db 0's `-0.0` ranks ahead of that point (lower index), db 2's
/// `-0.0` behind it (higher index).
#[test]
fn stop_lands_on_signed_zero_ties() {
    let m = marginals(
        vec![
            d(&[(-0.0, 0.5), (3.0, 0.5)]),
            d(&[(0.0, 0.5), (4.0, 0.5)]),
            d(&[(-0.0, 0.5), (2.0, 0.5)]),
        ],
        2,
    );
    assert_eq!(m, vec![0.875, 0.75, 0.375]);
    let m = marginals(
        vec![d(&[(-0.0, 1.0)]), d(&[(0.0, 1.0)]), d(&[(-0.0, 1.0)])],
        2,
    );
    assert_eq!(m, vec![1.0, 1.0, 0.0]);
}

/// A weight too small to survive normalization leaves a support point
/// with zero mass. Db 0's lowest point has zero mass, so its two points
/// both have nothing behind them; only its last one may count it as
/// fully swept, or the sweep would stop at `(4, 0)` and drop db 2's
/// point at 2.
#[test]
fn a_zero_mass_point_counts_its_database_once() {
    let db0 = d(&[(4.0, 1e-320), (9.0, 1e10)]);
    assert_eq!(db0.points(), &[(4.0, 0.0), (9.0, 1.0)]);
    let m = marginals(
        vec![
            db0,
            d(&[(1.0, 0.5), (6.0, 0.5)]),
            d(&[(2.0, 0.5), (7.0, 0.5)]),
        ],
        2,
    );
    assert_eq!(m, vec![1.0, 0.25, 0.75]);
}

/// When `k + 1` or more databases sit wholly above the rest, the stop
/// comes before any lower-tier point: every lower database has marginal
/// exactly 0.
#[test]
fn upper_tier_of_k_plus_one_leaves_the_rest_at_zero() {
    for k in 1..=3u8 {
        // Dbs 0, 2, …, 2k hold values from 10 up, the others below 7.
        let upper = |i: u8| i.is_multiple_of(2) && i / 2 <= k;
        let rds: Vec<Discrete> = (0..7u8)
            .map(|i| {
                let v = f64::from(i);
                if upper(i) {
                    d(&[(10.0 + v, 0.5), (20.0, 0.5)])
                } else {
                    d(&[(v, 0.5), (3.5, 0.5)])
                }
            })
            .collect();
        let m = marginals(rds, usize::from(k));
        for (i, &mi) in (0..7u8).zip(&m) {
            if !upper(i) {
                assert_eq!(mi, 0.0, "k={k} db{i}");
            }
        }
    }
}
