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
//!   of its support sits within a few ulps of values other RDs hold.
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

fn check(rds: &[Discrete]) -> Result<(), TestCaseError> {
    let n = rds.len();
    for k in ks(n) {
        let sweep = topk_marginals(rds, k);
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
        check(&build(&fleet))?;
    }

    #[test]
    fn sweep_matches_dp_on_integer_grids(
        fleet in sized(proptest::collection::vec(
            proptest::collection::vec(grid_point(), 1..5), 300))
    ) {
        check(&build(&fleet))?;
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
        check(state.rds())?;
    }

    #[test]
    fn sweep_matches_dp_on_near_ties_above_zero(
        fleet in sized(proptest::collection::vec(near_tie_db(), 300))
    ) {
        check(&build(&fleet))?;
    }
}
