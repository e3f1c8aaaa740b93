//! Exact expected correctness over relevancy distributions
//! (paper Section 5.1, Eqs. 5 and 6).
//!
//! Databases' RDs are independent discrete distributions. Under the
//! library's deterministic tie-break (equal relevancies rank the lower
//! index first — see DESIGN.md) the realized relevancies always induce a
//! *total* order, so "the top-k set" is well-defined in every outcome
//! and both expectations below are exact, not approximations:
//!
//! * **`E[Cor_p(DBk)]`** (Eq. 6) decomposes into per-database marginal
//!   top-k membership probabilities: database `i` is in the true top-k
//!   iff at most `k − 1` other databases beat it. With independent RDs
//!   the count of beating databases is Poisson-binomial. All `n`
//!   marginals come from one sweep over the merged RD support
//!   ([`topk_marginals`]); the per-database DP ([`marginal_topk_prob`])
//!   is kept as its test oracle.
//! * **`E[Cor_a(DBk)]`** (Eq. 5) is the probability that *every*
//!   selected database beats *every* unselected one, i.e. that the
//!   selected set's minimum beats the complement's maximum. We partition
//!   on which complement database attains the maximum and at which of
//!   its support values — a finite, exact sum.
//!
//! A seeded Monte-Carlo estimator ([`monte_carlo_expected`]) serves as
//! an independent oracle in tests.

use crate::correctness::{golden_topk, rank_order, CorrectnessMetric};
use crate::ed::EdLibrary;
use crate::rd::derive_rd;
use mp_stats::float::{canonical, desc_key, exact_zero};
use mp_stats::poisson_binomial::at_most;
use mp_stats::Discrete;
use mp_workload::Query;
use rand::Rng;
use std::cmp::Ordering;

/// The per-query probabilistic state: one RD per database, with probed
/// databases collapsed to impulses (paper Figure 10's two groups), and
/// the merged support every sweep over the state reads.
#[derive(Debug, Clone)]
pub struct RdState {
    rds: Vec<Discrete>,
    probed: Vec<bool>,
    /// Every support point of `rds` in [`rank_order`]: what
    /// [`merged_support`] of `rds` returns, kept current by
    /// [`Self::probe`].
    support: Vec<SupportPoint>,
    /// Each database's total mass: what every rival has behind before a
    /// sweep starts.
    total: Vec<f64>,
}

impl RdState {
    /// Builds the state from initial (unprobed) RDs, sorting every
    /// support point. A query's state comes from [`Self::for_query`],
    /// which builds this state over [`crate::rd::derive_all_rds`].
    pub fn new(rds: Vec<Discrete>) -> Self {
        Self::merged(rds, &FloorRun::default(), &[])
    }

    /// Builds the state of `query` from its estimates, `estimates[i]`
    /// for database `i`: each database's RD scales the ED of its
    /// query-type leaf by its estimate (paper Section 3.1, Example 3),
    /// and the RDs are bit for bit [`crate::rd::derive_all_rds`]'s.
    ///
    /// An estimate at or below the floor that classifies to the floor
    /// leaf (the leaf an estimate at the floor classifies to) scales
    /// that leaf by the floor itself. Such a database takes its RD and
    /// its pre-ranked points from the leaf's floor run; only the other
    /// databases' points are sorted.
    pub fn for_query(estimates: &[f64], query: &Query, library: &EdLibrary) -> Self {
        assert_eq!(
            estimates.len(),
            library.n_databases(),
            "estimate/library mismatch"
        );
        let config = library.config();
        let floor_leaf = library.classify(query.len(), config.est_floor);
        let run = library.floor_run(floor_leaf);
        let mut from_run = vec![false; estimates.len()];
        let rds = estimates
            .iter()
            .enumerate()
            .map(|(db, &estimate)| {
                let qt = library.classify(query.len(), estimate);
                match run.rd(db) {
                    Some(floor_rd) if estimate <= config.est_floor && qt == floor_leaf => {
                        from_run[db] = true;
                        floor_rd.clone()
                    }
                    _ => derive_rd(estimate, library.frozen_ed(db, qt), config),
                }
            })
            .collect();
        Self::merged(rds, run, &from_run)
    }

    /// Builds the state from initial (unprobed) RDs, taking the points
    /// of database `i` from `run` where `from_run[i]` holds
    /// ([`merged_support`]).
    fn merged(rds: Vec<Discrete>, run: &FloorRun, from_run: &[bool]) -> Self {
        assert!(!rds.is_empty(), "need at least one database");
        let probed = vec![false; rds.len()];
        let (support, total) = merged_support(&rds, run, from_run);
        mp_obs::histogram!("rd.support_points", mp_obs::bounds::POW2)
            .record(u64::try_from(support.len()).unwrap_or(u64::MAX));
        Self {
            rds,
            probed,
            support,
            total,
        }
    }

    /// Number of databases.
    pub fn len(&self) -> usize {
        self.rds.len()
    }

    /// Always false (constructor rejects empty input).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The current RDs.
    pub fn rds(&self) -> &[Discrete] {
        &self.rds
    }

    /// Whether database `i` has been probed.
    pub fn is_probed(&self, i: usize) -> bool {
        self.probed[i]
    }

    /// Indices of databases not yet probed.
    pub fn unprobed(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| !self.probed[i]).collect()
    }

    /// Number of probed databases.
    pub fn n_probed(&self) -> usize {
        self.probed.iter().filter(|&&p| p).count()
    }

    /// The merged support of the RDs in rank order, and each database's
    /// total mass.
    pub(crate) fn support(&self) -> (&[SupportPoint], &[f64]) {
        (&self.support, &self.total)
    }

    /// Records a probe outcome: database `i`'s RD becomes an impulse at
    /// the observed actual relevancy (paper Section 3.4, Figure 5(e)).
    ///
    /// Input policy (deliberately `Result`-free): every probe outcome in
    /// the library flows from a [`crate::relevancy::RelevancyDef`]
    /// measurement, which is finite and non-negative by construction, so
    /// a `Result` here would force error plumbing through `APro`, every
    /// probing policy, and the experiment harness for a state that
    /// cannot arise from correct callers. Instead:
    ///
    /// * **Negative values** are clamped to `0.0` — relevancy is a count
    ///   (documents matched / top-n sum), so a caller-fabricated
    ///   negative means "nothing matched", and clamping keeps every
    ///   downstream expectation a probability.
    /// * **NaN** is a programming error, not a data condition: it is
    ///   rejected by a debug assertion, and release builds degrade it to
    ///   the same `0.0` floor rather than silently poisoning every
    ///   subsequent `E[Cor]` comparison (NaN breaks the total rank
    ///   order).
    pub fn probe(&mut self, i: usize, actual: f64) {
        debug_assert!(
            !actual.is_nan(),
            "probe outcome for database {i} is NaN; relevancies are finite by construction"
        );
        // `canonical` folds a caller-supplied `-0.0` to `+0.0`:
        // `f64::max` leaves the sign of a zero result unspecified, and a
        // negative zero in an RD support would make the serialized state
        // and the rank order's `total_cmp` tie-breaking platform-dependent.
        let floored = if actual.is_nan() {
            0.0
        } else {
            canonical(actual.max(0.0))
        };
        self.rds[i] = Discrete::impulse(floored);
        self.probed[i] = true;
        // Splice the impulse into the support in O(N): `rank_order` is a
        // strict total order on support points, so this equals a fresh
        // `merged_support` bit for bit.
        self.support.retain(|&(_, j, _, _)| j != i);
        let at = self
            .support
            .partition_point(|&(v, j, _, _)| rank_order(j, v, i, floored) == Ordering::Less);
        self.support.insert(at, (floored, i, 1.0, 0.0));
        self.total[i] = 1.0;
    }

    /// A copy of the state with database `i` hypothetically probed at
    /// `value` — the what-if primitive the greedy policy evaluates.
    pub fn with_hypothetical(&self, i: usize, value: f64) -> Self {
        let mut c = self.clone();
        c.probe(i, value);
        c
    }
}

#[cfg(test)]
impl RdState {
    /// The support, then the totals, as bits: equal for two states
    /// exactly when their supports and totals are equal bit for bit.
    pub(crate) fn support_bits(&self) -> Vec<u64> {
        let points = self
            .support
            .iter()
            .flat_map(|&(v, i, p, behind)| [v.to_bits(), i as u64, p.to_bits(), behind.to_bits()]);
        points
            .chain(self.total.iter().map(|t| t.to_bits()))
            .collect()
    }
}

/// P(database `j`'s relevancy beats the fixed outcome `(v, i)`) under
/// the library-wide rank order ([`crate::correctness::rank_order`]):
/// `j` beats `(v, i)` at value `u` iff `(j, u)` ranks ahead of `(v, i)`,
/// i.e. `u > v`, or `u = v` and `j < i`. Shared by the exact formulas
/// here, so every consumer breaks ties identically to
/// [`crate::correctness::golden_topk`].
fn prob_beats(rds: &[Discrete], j: usize, v: f64, i: usize) -> f64 {
    debug_assert_ne!(j, i);
    let d = &rds[j];
    // A tie at `v` counts as a win for `j` exactly when the rank order
    // places `(j, v)` ahead of `(i, v)`: then `j` beats it with
    // `P(X ≥ v)`. Only an *exactly* equal support value ties, as in
    // `cdf_lt`'s `<`; `Discrete::prob_eq`'s `PROB_EPS` window would also
    // pick up a point a few ulps above `v` (already inside `prob_gt`) or
    // below it (which the rank order puts behind).
    if rank_order(j, v, i, v) == Ordering::Less {
        (1.0 - d.cdf_lt(v)).clamp(0.0, 1.0)
    } else {
        d.prob_gt(v)
    }
}

/// Every database's exact `P(i ∈ true top-k)`, from one sweep over the
/// state's merged support.
///
/// All `N = Σ|support|` points are visited once, in
/// [`crate::correctness::rank_order`] (value descending, lower index
/// first on ties), so when the sweep reaches `(v, i)` the points already
/// swept are exactly the rival outcomes that rank ahead of it. Rival
/// `j`'s "ranks ahead" trial then has success mass `ahead_j` (its swept
/// mass) and failure mass `behind_j` (its unswept mass, an ascending
/// prefix sum of its RD).
///
/// A segment tree over the `n` databases holds, per node, the
/// distribution of "rivals ahead" among the node's leaves, truncated to
/// the `k` counts `0..k` that matter. `P(≤ k − 1 rivals ahead of (v, i))`
/// is the sum of the truncated convolution of the `O(log n)` siblings on
/// leaf `i`'s path to the root; the same walk then refreshes `i`'s
/// ancestors with its new leaf `[behind_i, ahead_i]`. Every operation is
/// a sum of products of non-negative numbers — there is no
/// deconvolution and no cancellation — so the relative error stays
/// within `O((s̄ + k·log n) · ε)`. Cost: `O(N · k² · log n)` (the state
/// keeps the support sorted), against `O(n² · s̄ · (s̄ + k))` for one
/// [`marginal_topk_prob`] per database.
///
/// The sweep stops once `k` databases are fully swept: every later point
/// has those `k` rivals ahead for certain, their leaves hold exactly
/// `0.0` at count 0, so each of its truncated counts is a sum of
/// products with a `0.0` factor and it adds `p · 0.0 = +0.0`.
pub fn topk_marginals(state: &RdState, k: usize) -> Vec<f64> {
    let n = state.len();
    assert!(k >= 1 && k <= n, "k out of range");
    if k == n {
        // Every database is in the top-n in every outcome.
        return vec![1.0; n];
    }
    // One sweep, on fixed-size nodes for the `k` the engine serves: with
    // the count width known at compile time the convolutions unroll.
    // Against `k`-slot `Vec` nodes that cut the 256-database serving
    // workload's CPU per request by ≈ 23% on a 2-vCPU VM. Both node
    // types run the same arithmetic, so they give the same bits.
    let marginals = match k {
        1 => sweep(state, [0.0; 1]),
        2 => sweep(state, [0.0; 2]),
        3 => sweep(state, [0.0; 3]),
        _ => sweep(state, vec![0.0; k]),
    };
    debug_assert!(
        (marginals.iter().sum::<f64>() - k as f64).abs() <= 1e-9,
        "top-k marginals must sum to k"
    );
    marginals
}

/// The body of [`topk_marginals`] for `k < n`. Every tree node holds the
/// distribution of a count of rivals ranked ahead, truncated to the
/// counts `0..k`, in a node shaped like `zero` (`k` zeroed slots).
fn sweep<C: Clone + AsRef<[f64]> + AsMut<[f64]>>(state: &RdState, zero: C) -> Vec<f64> {
    let n = state.len();
    let k = zero.as_ref().len();
    // Node `x` of the implicit tree has children `2x` and `2x + 1`; the
    // leaf of database `i` is node `size + i`. A rival leaf is `[behind,
    // ahead, 0, …]`, and a padding leaf `[1, 0, …]`: a certain
    // non-rival.
    let size = n.next_power_of_two();
    let mut none = zero.clone();
    none.as_mut()[0] = 1.0;
    let mut tree = vec![none.clone(); 2 * size];
    // Before the sweep every rival is behind with its full mass.
    let (order, total) = state.support();
    for (i, &mass) in total.iter().enumerate() {
        set_rival(tree[size + i].as_mut(), mass, 0.0);
    }
    for x in (1..size).rev() {
        refresh(&mut tree, x);
    }

    let mut ahead = vec![0.0; n];
    // Points left per database, counted: a zero `behind` would also mark
    // the point just above a zero-mass lowest point, counting it twice.
    let mut unswept: Vec<usize> = state.rds().iter().map(Discrete::len).collect();
    let mut full = 0;
    let mut marginals = vec![0.0; n];
    let (mut rivals, mut next) = (none.clone(), zero);
    for &(_, i, p, behind) in order {
        // `(v, i)` is swept from here on: later points see `i` ahead with
        // mass `ahead_i` and behind with the mass of its lower points.
        // The query below never reads `i`'s own leaf, so it can change
        // first.
        ahead[i] += p;
        let mut x = size + i;
        set_rival(tree[x].as_mut(), behind, ahead[i]);
        // One walk to the root: fold each sibling into the rivals-ahead
        // distribution of `(v, i)`, and refresh each ancestor.
        rivals.clone_from(&none);
        while x > 1 {
            conv(rivals.as_ref(), tree[x ^ 1].as_ref(), next.as_mut());
            std::mem::swap(&mut rivals, &mut next);
            x >>= 1;
            refresh(&mut tree, x);
        }
        marginals[i] += p * rivals.as_ref().iter().sum::<f64>();
        unswept[i] -= 1;
        if unswept[i] == 0 {
            full += 1;
            if full == k {
                break;
            }
        }
    }
    for m in &mut marginals {
        *m = m.clamp(0.0, 1.0);
    }
    marginals
}

/// One point of the merged RD support: `(value, database, mass,
/// behind)`, where `behind` is the mass of the database's lower points.
pub(crate) type SupportPoint = (f64, usize, f64, f64);

/// The floor RDs of one query-type leaf, with their support points
/// ranked once.
///
/// At or below the estimate floor a database's RD is a fixed function of
/// its leaf ([`crate::ed::EdLibrary`] freezes it), and most databases of
/// a query on a large fleet sit there. The library builds one run per
/// leaf, next to its frozen table, and [`RdState::for_query`] takes
/// those databases' RDs and points from the run instead of deriving and
/// sorting them again.
#[derive(Debug, Clone, Default)]
pub(crate) struct FloorRun {
    /// Database `i`'s RD at the floor, or `None` when it has no ED.
    rds: Vec<Option<Discrete>>,
    /// Each floor RD's total mass, summed as [`push_points`] sums it
    /// (`0.0` without an RD).
    total: Vec<f64>,
    /// Every floor RD's points in rank order, each with its merge key:
    /// the value's [`desc_key`] in the high half, the database in the
    /// low half.
    points: Vec<(u128, SupportPoint)>,
}

impl FloorRun {
    /// Ranks the points of `rds`, database `i`'s floor RD at `rds[i]`.
    pub(crate) fn new(rds: Vec<Option<Discrete>>) -> Self {
        let mut points = Vec::new();
        let total = rds
            .iter()
            .enumerate()
            .map(|(i, rd)| {
                rd.as_ref()
                    .map_or(0.0, |rd| push_points(&mut points, i, rd))
            })
            .collect();
        let points = ranked_keys(&points)
            .into_iter()
            .map(|key| {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a sort key's low 64 bits hold a position in `points`"
                )]
                let point = points[key as u64 as usize];
                (merge_key(key, point), point)
            })
            .collect();
        Self { rds, total, points }
    }

    /// Database `db`'s floor RD, if it has an ED.
    pub(crate) fn rd(&self, db: usize) -> Option<&Discrete> {
        self.rds.get(db)?.as_ref()
    }
}

/// The merged support of all RDs, sorted by
/// [`crate::correctness::rank_order`], and each database's total mass:
/// what every rival has behind before a sweep starts. [`RdState`] keeps
/// it; both sweeps over the support ([`topk_marginals`] and the greedy
/// engine's) read it there.
///
/// Three steps:
///
/// 1. Every database `i` with `from_run[i]`, whose RD is its floor RD in
///    `run`, takes its points and total from the run.
/// 2. The other databases' points are keyed and sorted
///    ([`ranked_keys`]).
/// 3. One linear pass merges the two lists. A run point and a sorted
///    point always belong to different databases, so their merge keys
///    (value, then database) never tie, and within each list the order
///    is already `rank_order`'s.
///
/// With an empty mask (see [`RdState::new`]) the first and last steps
/// take nothing.
fn merged_support(
    rds: &[Discrete],
    run: &FloorRun,
    from_run: &[bool],
) -> (Vec<SupportPoint>, Vec<f64>) {
    let taken = |i: usize| from_run.get(i).is_some_and(|&taken| taken);
    let mut run_len = 0;
    let mut points = Vec::new();
    let mut total = Vec::with_capacity(rds.len());
    for (i, rd) in rds.iter().enumerate() {
        if taken(i) {
            run_len += rd.len();
            total.push(run.total[i]);
        } else {
            total.push(push_points(&mut points, i, rd));
        }
    }
    let mut order = Vec::with_capacity(run_len + points.len());
    let mut run_points = run
        .points
        .iter()
        .filter(|&&(_, (_, i, ..))| taken(i))
        .peekable();
    for key in ranked_keys(&points) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a sort key's low 64 bits hold a position in `points`"
        )]
        let point = points[key as u64 as usize];
        let at = merge_key(key, point);
        while let Some(&(_, ahead)) = run_points.next_if(|&&(run_key, _)| run_key < at) {
            order.push(ahead);
        }
        order.push(point);
    }
    order.extend(run_points.map(|&(_, point)| point));
    (order, total)
}

/// Appends database `i`'s points to `points`, value ascending, each with
/// the mass of its lower points, and returns the RD's total mass.
fn push_points(points: &mut Vec<SupportPoint>, i: usize, rd: &Discrete) -> f64 {
    let mut behind = 0.0;
    for &(v, p) in rd.points() {
        points.push((v, i, p, behind));
        behind += p;
    }
    behind
}

/// `points`' sort keys in rank order. The sort runs on integers: each
/// point's key is its value's [`desc_key`] in the high half and its
/// position in `points` in the low half. Points are built
/// database-major, so on equal values the lower index keeps the lower
/// position, and the keys' order is `rank_order`'s.
fn ranked_keys(points: &[SupportPoint]) -> Vec<u128> {
    let mut keys: Vec<u128> = points
        .iter()
        .enumerate()
        .map(|(at, &(v, ..))| u128::from(desc_key(v)) << 64 | at as u128)
        .collect();
    keys.sort_unstable();
    keys
}

/// The merge key of `point`, whose sort key is `key`: the same value
/// half, with the database in place of the position.
fn merge_key(key: u128, point: SupportPoint) -> u128 {
    key >> 64 << 64 | point.1 as u128
}

/// Writes one rival's "ranks ahead" pmf into its leaf: `behind` at
/// count 0 and `ahead` at count 1, which is dropped when `k = 1`.
pub(crate) fn set_rival(leaf: &mut [f64], behind: f64, ahead: f64) {
    leaf[0] = behind;
    if let Some(slot) = leaf.get_mut(1) {
        *slot = ahead;
    }
}

/// Recomputes node `x` of [`sweep`]'s tree from its children.
fn refresh<C: AsRef<[f64]> + AsMut<[f64]>>(tree: &mut [C], x: usize) {
    let (parents, children) = tree.split_at_mut(2 * x);
    let (left, right) = (children[0].as_ref(), children[1].as_ref());
    conv(left, right, parents[x].as_mut());
}

/// `out` = the distribution of the sum of two independent counts,
/// truncated to the counts `0..k` (mass at `k` or more is dropped: only
/// `P(≤ k − 1)` is ever read).
pub(crate) fn conv(a: &[f64], b: &[f64], out: &mut [f64]) {
    for (c, o) in out.iter_mut().enumerate() {
        *o = a[..=c]
            .iter()
            .zip(b[..=c].iter().rev())
            .map(|(x, y)| x * y)
            .sum();
    }
}

/// Exact `P(database i ∈ true top-k)` for one database — the reference
/// that [`topk_marginals`] is tested against.
///
/// Decomposition over `i`'s support: `i` is in the top-k at outcome `v`
/// iff at most `k − 1` of the other databases beat `(v, i)`; with
/// independent RDs the beat-count is Poisson-binomial. Costs
/// `O(n · s̄ · (s̄ + k))` per database.
pub fn marginal_topk_prob(rds: &[Discrete], i: usize, k: usize) -> f64 {
    assert!(i < rds.len(), "database index out of range");
    assert!(k >= 1 && k <= rds.len(), "k out of range");
    let mut total = 0.0;
    let mut beat_probs = Vec::with_capacity(rds.len() - 1);
    for &(v, p) in rds[i].points() {
        beat_probs.clear();
        for j in 0..rds.len() {
            if j != i {
                beat_probs.push(prob_beats(rds, j, v, i));
            }
        }
        total += p * at_most(&beat_probs, k - 1);
    }
    total.clamp(0.0, 1.0)
}

/// Exact expected partial correctness `E[Cor_p(set)]` (Eq. 6):
/// the mean of the member databases' marginal top-k probabilities
/// ([`topk_marginals`] over a state built from `rds`), with
/// `k = set.len()`.
pub fn expected_partial(rds: &[Discrete], set: &[usize]) -> f64 {
    assert!(!set.is_empty(), "selection must be non-empty");
    let marginals = topk_marginals(&RdState::new(rds.to_vec()), set.len());
    let sum: f64 = set.iter().map(|&i| marginals[i]).sum();
    (sum / set.len() as f64).clamp(0.0, 1.0)
}

/// Exact expected absolute correctness `E[Cor_a(set)]` (Eq. 5):
/// `P(set is exactly the true top-k)` = `P(min over set beats max over
/// complement)`.
///
/// Partition on the complement database `j` attaining the complement's
/// maximum and its value `v`: every other complement database must fail
/// to beat `(v, j)` and every selected database must beat `(v, j)`.
pub fn expected_absolute(rds: &[Discrete], set: &[usize]) -> f64 {
    assert!(!set.is_empty(), "selection must be non-empty");
    let in_set = {
        let mut m = vec![false; rds.len()];
        for &i in set {
            assert!(i < rds.len(), "database index out of range");
            assert!(!m[i], "duplicate database in selection");
            m[i] = true;
        }
        m
    };
    let complement: Vec<usize> = (0..rds.len()).filter(|&j| !in_set[j]).collect();
    if complement.is_empty() {
        return 1.0; // selecting everything is vacuously the top-n
    }
    let mut total = 0.0;
    for &j in &complement {
        for &(v, pj) in rds[j].points() {
            // P(j attains the complement max at value v):
            let mut p = pj;
            for &j2 in &complement {
                if j2 != j {
                    p *= 1.0 - prob_beats(rds, j2, v, j);
                }
                if exact_zero(p) {
                    break;
                }
            }
            if exact_zero(p) {
                continue;
            }
            // Every selected database must beat (v, j).
            for &i in set {
                p *= prob_beats(rds, i, v, j);
                if exact_zero(p) {
                    break;
                }
            }
            total += p;
        }
    }
    total.clamp(0.0, 1.0)
}

/// Expected correctness under either metric.
pub fn expected_correctness(rds: &[Discrete], set: &[usize], metric: CorrectnessMetric) -> f64 {
    match metric {
        CorrectnessMetric::Absolute => expected_absolute(rds, set),
        CorrectnessMetric::Partial => expected_partial(rds, set),
    }
}

/// Monte-Carlo estimate of the expected correctness — the independent
/// oracle the exact formulas are validated against. Samples each RD,
/// derives the realized top-k under the same tie-break, and scores the
/// candidate set.
pub fn monte_carlo_expected<R: Rng + ?Sized>(
    rds: &[Discrete],
    set: &[usize],
    metric: CorrectnessMetric,
    samples: usize,
    rng: &mut R,
) -> f64 {
    assert!(samples > 0);
    let k = set.len();
    let mut acc = 0.0;
    let mut realized = vec![0.0; rds.len()];
    for _ in 0..samples {
        for (i, rd) in rds.iter().enumerate() {
            realized[i] = rd.sample(rng);
        }
        let golden = golden_topk(&realized, k);
        acc += metric.score(set, &golden);
    }
    acc / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn d(pairs: &[(f64, f64)]) -> Discrete {
        Discrete::from_weighted(pairs).unwrap()
    }

    /// The paper's Example 4 RDs (Figure 5(d)), reconstructed from the
    /// Example 3 derivation: db1 ~ {50: .4, 100: .5, 150: .1},
    /// db2 ~ {65: .1, 130: .9}.
    fn paper_rds() -> Vec<Discrete> {
        vec![
            d(&[(50.0, 0.4), (100.0, 0.5), (150.0, 0.1)]),
            d(&[(65.0, 0.1), (130.0, 0.9)]),
        ]
    }

    #[test]
    fn paper_example4_db2_certainty() {
        // The paper concludes db2 is the most relevant with probability
        // 0.85: r2=130 beats r1 ∈ {50, 100} (.9 × .9 = .81) plus r2=65
        // beats r1 = 50 (.1 × .4 = .04).
        let rds = paper_rds();
        let e = expected_absolute(&rds, &[1]);
        assert!((e - 0.85).abs() < 1e-12, "E[Cor(db2)] = {e}");
        // And db1's certainty is the complement.
        let e1 = expected_absolute(&rds, &[0]);
        assert!((e1 - 0.15).abs() < 1e-12, "E[Cor(db1)] = {e1}");
    }

    #[test]
    fn paper_section34_post_probe_certainty() {
        // Figure 5(e): probing db1 yields relevancy 50; db2 is then
        // always more relevant, so the certainty of returning db2 is 1.
        let mut state = RdState::new(paper_rds());
        state.probe(0, 50.0);
        assert!(state.is_probed(0));
        assert_eq!(expected_absolute(state.rds(), &[1]), 1.0);
        assert_eq!(expected_absolute(state.rds(), &[0]), 0.0);
    }

    #[test]
    fn k1_absolute_equals_partial() {
        let rds = paper_rds();
        for i in 0..2 {
            let a = expected_absolute(&rds, &[i]);
            let p = expected_partial(&rds, &[i]);
            assert!((a - p).abs() < 1e-12, "db{i}: {a} vs {p}");
        }
    }

    #[test]
    fn marginals_sum_to_k() {
        // Σ_i P(i ∈ top-k) = k (exactly k databases are in the top-k in
        // every outcome).
        let rds = vec![
            d(&[(10.0, 0.5), (30.0, 0.5)]),
            d(&[(20.0, 1.0)]),
            d(&[(5.0, 0.3), (25.0, 0.7)]),
            d(&[(15.0, 0.2), (18.0, 0.8)]),
        ];
        for k in 1..=4usize {
            let sum: f64 = (0..4).map(|i| marginal_topk_prob(&rds, i, k)).sum();
            assert!((sum - k as f64).abs() < 1e-9, "k={k}: {sum}");
        }
    }

    #[test]
    fn near_ties_rank_by_exact_value() {
        // Floored estimates leave supports a few ulps apart: db0's upper
        // point sits just above db1's impulse, so db0 ranks ahead of db1
        // exactly when it lands there (probability ½). A `PROB_EPS`
        // tie window used to count that point twice for db0 — once as
        // greater, once as tied — making db0 certain to win.
        let hi = 1.833_333_333_333_333_3;
        let lo = 1.833_333_333_333_333;
        assert!(lo < hi);
        let rds = vec![d(&[(0.0, 0.5), (hi, 0.5)]), Discrete::impulse(lo)];
        assert_eq!(marginal_topk_prob(&rds, 0, 1), 0.5);
        assert_eq!(marginal_topk_prob(&rds, 1, 1), 0.5);
        assert_eq!(
            topk_marginals(&RdState::new(rds.clone()), 1),
            vec![0.5, 0.5]
        );
        assert_eq!(expected_absolute(&rds, &[0]), 0.5);
        assert_eq!(expected_absolute(&rds, &[1]), 0.5);
        let mut rng = StdRng::seed_from_u64(42);
        for set in [[0], [1]] {
            let mc =
                monte_carlo_expected(&rds, &set, CorrectnessMetric::Absolute, 20_000, &mut rng);
            assert!((mc - 0.5).abs() < 0.02, "db{}: mc={mc}", set[0]);
        }
    }

    #[test]
    fn tie_break_prefers_lower_index() {
        // Both databases always have relevancy 7; db0 wins the tie.
        let rds = vec![d(&[(7.0, 1.0)]), d(&[(7.0, 1.0)])];
        assert_eq!(expected_absolute(&rds, &[0]), 1.0);
        assert_eq!(expected_absolute(&rds, &[1]), 0.0);
        assert_eq!(marginal_topk_prob(&rds, 0, 1), 1.0);
        assert_eq!(marginal_topk_prob(&rds, 1, 1), 0.0);
        assert_eq!(
            topk_marginals(&RdState::new(rds.clone()), 1),
            vec![1.0, 0.0]
        );
    }

    #[test]
    fn all_probed_implies_certainty_one() {
        let mut state = RdState::new(vec![
            d(&[(1.0, 0.5), (9.0, 0.5)]),
            d(&[(4.0, 1.0)]),
            d(&[(2.0, 0.9), (6.0, 0.1)]),
        ]);
        state.probe(0, 9.0);
        state.probe(1, 4.0);
        state.probe(2, 6.0);
        // Realized order: db0 (9) > db2 (6) > db1 (4).
        assert_eq!(expected_absolute(state.rds(), &[0, 2]), 1.0);
        assert_eq!(expected_partial(state.rds(), &[0, 2]), 1.0);
        assert_eq!(expected_absolute(state.rds(), &[0, 1]), 0.0);
        assert!((expected_partial(state.rds(), &[0, 1]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn selecting_everything_is_certain() {
        let rds = paper_rds();
        assert_eq!(expected_absolute(&rds, &[0, 1]), 1.0);
        assert!((expected_partial(&rds, &[0, 1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probe_floors_negative_outcomes_at_zero() {
        // The documented clamp policy: a (caller-fabricated) negative
        // relevancy means "nothing matched" and lands at exactly 0.
        let mut state = RdState::new(paper_rds());
        state.probe(0, -3.5);
        assert!(state.rds()[0].is_impulse());
        assert_eq!(state.rds()[0].mean(), 0.0);
        // -0.0 normalizes to the same impulse — *bit-identically* (the
        // regression this pins: `f64::max` may preserve the sign of a
        // zero, which would leak into serialized RDs and tie-breaking).
        let mut state = RdState::new(paper_rds());
        state.probe(0, -0.0);
        assert_eq!(state.rds()[0].mean(), 0.0);
        assert_eq!(state.rds()[0].points()[0].0.to_bits(), 0.0f64.to_bits());
        let mut state = RdState::new(paper_rds());
        state.probe(1, 0.0);
        assert_eq!(state.rds()[1].mean(), 0.0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "NaN"))]
    fn probe_rejects_nan_in_debug() {
        let mut state = RdState::new(paper_rds());
        state.probe(0, f64::NAN);
        // Release builds degrade NaN to the 0.0 floor instead.
        assert_eq!(state.rds()[0].mean(), 0.0);
    }

    #[test]
    fn hypothetical_probe_does_not_mutate() {
        let state = RdState::new(paper_rds());
        let hyp = state.with_hypothetical(0, 150.0);
        assert!(!state.is_probed(0));
        assert!(hyp.is_probed(0));
        assert_eq!(state.unprobed(), vec![0, 1]);
        assert_eq!(hyp.unprobed(), vec![1]);
        assert_eq!(hyp.n_probed(), 1);
    }

    #[test]
    fn exact_matches_monte_carlo_on_paper_example() {
        let rds = paper_rds();
        let mut rng = StdRng::seed_from_u64(42);
        let mc = monte_carlo_expected(&rds, &[1], CorrectnessMetric::Absolute, 200_000, &mut rng);
        assert!((mc - 0.85).abs() < 0.01, "mc={mc}");
    }

    /// Random small RD fixtures for property tests.
    fn arb_rds() -> impl Strategy<Value = Vec<Discrete>> {
        proptest::collection::vec(
            proptest::collection::vec((0.0f64..50.0, 0.05f64..1.0), 1..4),
            2..5,
        )
        .prop_map(|dbs| {
            dbs.into_iter()
                .map(|pts| Discrete::from_weighted(&pts).unwrap())
                .collect()
        })
    }

    /// Fails unless the support `state` holds equals a fresh
    /// `merged_support` of its RDs, bit for bit.
    fn assert_fresh_support(state: &RdState) -> Result<(), TestCaseError> {
        let (support, total) = state.support();
        let (fresh, fresh_total) = merged_support(state.rds(), &FloorRun::default(), &[]);
        let bits =
            |&(v, i, p, behind): &SupportPoint| (v.to_bits(), i, p.to_bits(), behind.to_bits());
        prop_assert_eq!(
            support.iter().map(bits).collect::<Vec<_>>(),
            fresh.iter().map(bits).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            total.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            fresh_total.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
        Ok(())
    }

    /// RDs on a coarse grid with signed zeros, so that probe outcomes
    /// tie other databases' points often.
    fn arb_grid_rds() -> impl Strategy<Value = Vec<Discrete>> {
        proptest::collection::vec(
            proptest::collection::vec((0u8..7, 0.05f64..1.0), 1..4),
            2..6,
        )
        .prop_map(|dbs| {
            dbs.into_iter()
                .map(|pts| {
                    let pts: Vec<(f64, f64)> = pts
                        .into_iter()
                        .map(|(v, p)| (if v == 0 { -0.0 } else { f64::from(v - 1) }, p))
                        .collect();
                    Discrete::from_weighted(&pts).unwrap()
                })
                .collect()
        })
    }

    /// The support `merged_support` sorted before it sorted integer
    /// keys: every point ordered by the `rank_order` comparator.
    fn comparator_support(rds: &[Discrete]) -> Vec<SupportPoint> {
        let mut order = Vec::new();
        for (i, rd) in rds.iter().enumerate() {
            let mut behind = 0.0;
            for &(v, p) in rd.points() {
                order.push((v, i, p, behind));
                behind += p;
            }
        }
        order.sort_by(|a, b| rank_order(a.1, a.0, b.1, b.0));
        order
    }

    /// Fails unless `merged_support` of `rds` orders its points exactly
    /// as the comparator sort does, bit for bit.
    fn assert_keyed_equals_comparator(rds: &[Discrete]) -> Result<(), TestCaseError> {
        let bits =
            |&(v, i, p, behind): &SupportPoint| (v.to_bits(), i, p.to_bits(), behind.to_bits());
        let (keyed, _) = merged_support(rds, &FloorRun::default(), &[]);
        prop_assert_eq!(
            keyed.iter().map(bits).collect::<Vec<_>>(),
            comparator_support(rds).iter().map(bits).collect::<Vec<_>>()
        );
        Ok(())
    }

    /// Support values that tie across databases and sit one ulp apart:
    /// both zeros, the smallest subnormal, and 1.0 with its neighbours.
    fn ulp_grid() -> [f64; 8] {
        [
            -0.0,
            0.0,
            f64::from_bits(1),
            1.0f64.next_down(),
            1.0,
            1.0f64.next_up(),
            2.0,
            7.5,
        ]
    }

    fn ulp_grid_rd(pts: &[(usize, f64)]) -> Discrete {
        let pts: Vec<(f64, f64)> = pts.iter().map(|&(v, p)| (ulp_grid()[v], p)).collect();
        Discrete::from_weighted(&pts).unwrap()
    }

    #[test]
    fn keyed_support_equals_the_comparator_sort_on_a_large_state() {
        // 320 databases over the ulp grid and a coarse integer grid, so
        // most values tie across many databases.
        let mut rng = StdRng::seed_from_u64(21);
        let rds: Vec<Discrete> = (0..320)
            .map(|i| {
                let n_points = 1 + i % 6;
                let pts: Vec<(f64, f64)> = (0..n_points)
                    .map(|_| {
                        let v = if rng.gen_bool(0.5) {
                            ulp_grid()[rng.gen_range(0..8usize)]
                        } else {
                            f64::from(rng.gen_range(0u32..40))
                        };
                        (v, rng.gen_range(0.05..1.0))
                    })
                    .collect();
                Discrete::from_weighted(&pts).unwrap()
            })
            .collect();
        assert_keyed_equals_comparator(&rds).unwrap();
        let state = RdState::new(rds);
        assert_eq!(state.len(), 320);
        assert!(state.support().0.len() > 2 * state.len());
    }

    proptest! {
        #[test]
        fn prop_keyed_support_equals_the_comparator_sort(
            grid in proptest::collection::vec(
                proptest::collection::vec((0usize..8, 0.05f64..1.0), 1..5),
                2..8
            ),
            rds in arb_grid_rds(),
            wide in arb_rds()
        ) {
            let ulps: Vec<Discrete> = grid.iter().map(|pts| ulp_grid_rd(pts)).collect();
            assert_keyed_equals_comparator(&ulps)?;
            assert_keyed_equals_comparator(&rds)?;
            assert_keyed_equals_comparator(&wide)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_probe_splice_equals_a_fresh_merge(
            rds in arb_grid_rds(),
            probes in proptest::collection::vec((0usize..8, 0usize..8, 0u8..6), 1..10)
        ) {
            let mut state = RdState::new(rds);
            assert_fresh_support(&state)?;
            for (db, src, kind) in probes {
                let i = db % state.len();
                // A support point of some database, to tie or nearly tie.
                let pts = state.rds()[src % state.len()].points();
                let near = pts[src % pts.len()].0;
                let outcome = match kind {
                    0 => -0.0,
                    1 => -3.5,
                    2 => near,
                    3 => near.next_up(),
                    4 => near.next_down(),
                    _ => near + 0.5,
                };
                // Re-probe one database on a clone, as the reference
                // usefulness evaluation does per outcome.
                let mut hyp = state.clone();
                hyp.probe(i, outcome);
                assert_fresh_support(&hyp)?;
                hyp.probe(i, near);
                assert_fresh_support(&hyp)?;
                state.probe(i, outcome);
                assert_fresh_support(&state)?;
            }
        }
    }

    /// Fails unless `state` holds the comparator sort of its RDs and their
    /// totals, bit for bit.
    fn assert_comparator_state(state: &RdState) -> Result<(), TestCaseError> {
        let bits =
            |&(v, i, p, behind): &SupportPoint| (v.to_bits(), i, p.to_bits(), behind.to_bits());
        let (support, total) = state.support();
        prop_assert_eq!(
            support.iter().map(bits).collect::<Vec<_>>(),
            comparator_support(state.rds())
                .iter()
                .map(bits)
                .collect::<Vec<_>>()
        );
        let fresh_total = state
            .rds()
            .iter()
            .map(|rd| rd.points().iter().fold(0.0, |behind, &(_, p)| behind + p));
        prop_assert_eq!(
            total.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            fresh_total.map(f64::to_bits).collect::<Vec<_>>()
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn prop_run_merged_support_equals_the_comparator_sort(
            dbs in proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..8, 0.05f64..1.0), 1..5),
                    proptest::collection::vec((0usize..8, 0.05f64..1.0), 1..5),
                    0u8..4,
                ),
                1..12
            ),
            probes in proptest::collection::vec((0usize..12, 0usize..12, 0u8..5), 0..6)
        ) {
            // Kinds 0 and 1 take their floor RD from the run, kind 2 has
            // one but holds another RD of the grid, and kind 3 has no ED,
            // so no floor RD, and holds an impulse.
            let floors: Vec<Option<Discrete>> = dbs
                .iter()
                .map(|(floor, _, kind)| (*kind < 3).then(|| ulp_grid_rd(floor)))
                .collect();
            let from_run: Vec<bool> = dbs.iter().map(|(_, _, kind)| *kind < 2).collect();
            let rds: Vec<Discrete> = dbs
                .iter()
                .zip(&floors)
                .map(|((_, other, kind), floor)| match (kind, floor) {
                    (0 | 1, Some(floor)) => floor.clone(),
                    (2, _) => ulp_grid_rd(other),
                    _ => Discrete::impulse(ulp_grid()[other[0].0]),
                })
                .collect();
            let run = FloorRun::new(floors);
            let mut state = RdState::merged(rds, &run, &from_run);
            assert_comparator_state(&state)?;
            // Probes splice into the run-merged support as into a sorted one.
            for (db, src, kind) in probes {
                let i = db % state.len();
                let pts = state.rds()[src % state.len()].points();
                let near = pts[src % pts.len()].0;
                let outcome = match kind {
                    0 => -0.0,
                    1 => near,
                    2 => near.next_up(),
                    3 => near.next_down(),
                    _ => near + 0.5,
                };
                state.probe(i, outcome);
                assert_comparator_state(&state)?;
                assert_fresh_support(&state)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn prop_exact_absolute_matches_monte_carlo(
            rds in arb_rds(),
            k_raw in 1usize..3,
            seed in 0u64..1000
        ) {
            let k = k_raw.min(rds.len());
            let set: Vec<usize> = (0..k).collect();
            let exact = expected_absolute(&rds, &set);
            let mut rng = StdRng::seed_from_u64(seed);
            let mc = monte_carlo_expected(&rds, &set, CorrectnessMetric::Absolute, 20_000, &mut rng);
            prop_assert!((exact - mc).abs() < 0.02, "exact={}, mc={}", exact, mc);
        }

        #[test]
        fn prop_exact_partial_matches_monte_carlo(
            rds in arb_rds(),
            k_raw in 1usize..3,
            seed in 0u64..1000
        ) {
            let k = k_raw.min(rds.len());
            let set: Vec<usize> = (rds.len() - k..rds.len()).collect();
            let exact = expected_partial(&rds, &set);
            let mut rng = StdRng::seed_from_u64(seed);
            let mc = monte_carlo_expected(&rds, &set, CorrectnessMetric::Partial, 20_000, &mut rng);
            prop_assert!((exact - mc).abs() < 0.02, "exact={}, mc={}", exact, mc);
        }

        #[test]
        fn prop_tie_break_exact_matches_monte_carlo(
            // Integer-valued supports on a 4-value grid, so cross-database
            // value ties occur in most sampled outcomes: this pins the
            // shared `rank_order` tie-break ("equal value → lower index
            // wins") used by both the exact formulas and `golden_topk`
            // inside the Monte-Carlo oracle.
            grids in proptest::collection::vec(
                proptest::collection::vec((0u8..4, 0.05f64..1.0), 1..4),
                2..5
            ),
            k_raw in 1usize..3,
            seed in 0u64..1000
        ) {
            let rds: Vec<Discrete> = grids
                .into_iter()
                .map(|pts| {
                    let pts: Vec<(f64, f64)> =
                        pts.into_iter().map(|(v, p)| (v as f64, p)).collect();
                    Discrete::from_weighted(&pts).unwrap()
                })
                .collect();
            let k = k_raw.min(rds.len());
            let set: Vec<usize> = (0..k).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for metric in [CorrectnessMetric::Absolute, CorrectnessMetric::Partial] {
                let exact = expected_correctness(&rds, &set, metric);
                let mc = monte_carlo_expected(&rds, &set, metric, 20_000, &mut rng);
                prop_assert!(
                    (exact - mc).abs() < 0.02,
                    "{:?}: exact={}, mc={}", metric, exact, mc
                );
            }
        }

        #[test]
        fn prop_absolute_at_most_partial(rds in arb_rds(), k_raw in 1usize..4) {
            // Being exactly right implies every member is right, so
            // E[Cor_a] <= E[Cor_p] always.
            let k = k_raw.min(rds.len());
            let set: Vec<usize> = (0..k).collect();
            let a = expected_absolute(&rds, &set);
            let p = expected_partial(&rds, &set);
            prop_assert!(a <= p + 1e-9, "a={} p={}", a, p);
        }

        #[test]
        fn prop_marginals_sum_to_k(rds in arb_rds(), k_raw in 1usize..5) {
            let k = k_raw.min(rds.len());
            let sum: f64 = (0..rds.len()).map(|i| marginal_topk_prob(&rds, i, k)).sum();
            prop_assert!((sum - k as f64).abs() < 1e-6, "sum={}", sum);
        }

        #[test]
        fn prop_probing_yields_impulse(rds in arb_rds(), value in 0.0f64..100.0) {
            let mut state = RdState::new(rds);
            state.probe(0, value);
            prop_assert!(state.rds()[0].is_impulse());
            prop_assert_eq!(state.rds()[0].mean(), value);
        }
    }
}
