//! The `APro` adaptive probing algorithm (paper Section 5.3, Figure 11).
//!
//! Both per-step evaluations run on exact sweeps over the merged RD
//! support: the greedy policy's `select_db` scores every candidate in
//! one pass ([`crate::engine::usefulness_all`]), and the post-probe
//! re-selection's [`best_set`] reads every marginal from one pass
//! ([`crate::expected::topk_marginals`]). `APro` itself stays a
//! straight-line loop — determinism and the paper's control flow are
//! untouched by either optimisation.

use crate::correctness::CorrectnessMetric;
use crate::expected::RdState;
use crate::probing::policy::ProbePolicy;
use crate::selection::best_set;
use serde::{Deserialize, Serialize};

/// `APro` inputs beyond the RD state (paper Figure 11's `q, k, t`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AproConfig {
    /// Number of databases to select.
    pub k: usize,
    /// User-required certainty level `t`: stop as soon as some `DBk`
    /// has `E[Cor(DBk)] ≥ t`.
    pub threshold: f64,
    /// Correctness metric the certainty is measured under.
    pub metric: CorrectnessMetric,
    /// Optional probe budget: stop after this many probes even below
    /// the threshold (`None` = probe until exhaustion if needed).
    pub max_probes: Option<usize>,
}

impl AproConfig {
    /// Whether a run over `n_databases` databases can answer this
    /// config: `k` must lie in `1..=n_databases` and the threshold in
    /// `[0, 1]` (NaN and the infinities do not). The error says which
    /// bound fails. [`AproSession::begin`] panics on a config that
    /// fails it, so a caller taking `k` or `t` from a user checks here
    /// first.
    pub fn check(&self, n_databases: usize) -> Result<(), &'static str> {
        if self.k == 0 {
            Err("k must be at least 1")
        } else if self.k > n_databases {
            Err("k exceeds the number of databases")
        } else if !(0.0..=1.0).contains(&self.threshold) {
            Err("threshold must be a finite value in [0, 1]")
        } else {
            Ok(())
        }
    }
}

/// One probe performed during an `APro` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeRecord {
    /// The probed database.
    pub db: usize,
    /// The actual relevancy learned.
    pub actual: f64,
    /// The best set after this probe.
    pub selected_after: Vec<usize>,
    /// Its expected correctness after this probe.
    pub expected_after: f64,
}

/// The outcome of an `APro` run, including the full per-probe trace
/// (Figure 16's curves read intermediate selections off this trace).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AproOutcome {
    /// The returned `DBk`.
    pub selected: Vec<usize>,
    /// Its expected correctness at return time.
    pub expected: f64,
    /// The best set before any probing (the pure RD-based answer).
    pub initial_selected: Vec<usize>,
    /// Its expected correctness.
    pub initial_expected: f64,
    /// Probes in order.
    pub probes: Vec<ProbeRecord>,
    /// True when the threshold was met (false = budget/databases ran out).
    pub satisfied: bool,
}

impl AproOutcome {
    /// Number of probes used.
    pub fn n_probes(&self) -> usize {
        self.probes.len()
    }

    /// The best set and certainty after exactly `p` probes (0 = before
    /// probing). `None` when the run used fewer probes.
    pub fn after_probes(&self, p: usize) -> Option<(&[usize], f64)> {
        if p == 0 {
            Some((&self.initial_selected, self.initial_expected))
        } else {
            self.probes
                .get(p - 1)
                .map(|r| (r.selected_after.as_slice(), r.expected_after))
        }
    }
}

/// One `APro` run, factored into externally driven steps.
///
/// [`apro`] is a straight loop over one session, and
/// [`crate::probing::apro_with_costs`] the same loop with a cost budget.
/// servebench's replay drives a session step by step instead, so that
/// it can time each probe's policy and selection work apart. The factoring changes
/// nothing about the run: [`Self::next_probe`] performs exactly the
/// loop head's threshold/budget checks and policy selection,
/// [`Self::apply`] exactly the loop body's state update and
/// re-selection, with counter and trace placement unchanged.
pub struct AproSession<'s> {
    state: &'s mut RdState,
    policy: &'s mut dyn ProbePolicy,
    config: AproConfig,
    selected: Vec<usize>,
    expected: f64,
    initial_selected: Vec<usize>,
    initial_expected: f64,
    probes: Vec<ProbeRecord>,
    /// The database handed out by `next_probe` and not yet applied.
    pending: Option<usize>,
    done: bool,
}

impl<'s> AproSession<'s> {
    /// Starts a run: validates the config and evaluates the pure
    /// RD-based answer (paper Figure 11's initialization).
    pub fn begin(
        state: &'s mut RdState,
        policy: &'s mut dyn ProbePolicy,
        config: AproConfig,
    ) -> Self {
        if let Err(why) = config.check(state.len()) {
            panic!("{why}");
        }
        mp_obs::counter!("apro.runs").incr();
        let (initial_selected, initial_expected) = best_set(state, config.k, config.metric);
        Self {
            selected: initial_selected.clone(),
            expected: initial_expected,
            initial_selected,
            initial_expected,
            probes: Vec::new(),
            pending: None,
            done: false,
            state,
            policy,
            config,
        }
    }

    /// Selects the next database to probe, or `None` when the run is
    /// over (threshold met, budget exhausted, or every database
    /// probed). A returned database **must** be [`Self::apply`]'d
    /// before the next call.
    pub fn next_probe(&mut self) -> Option<usize> {
        assert!(
            self.pending.is_none(),
            "apply the previous probe before selecting the next"
        );
        if self.done {
            return None;
        }
        if self.expected >= self.config.threshold {
            self.done = true;
            return None;
        }
        if let Some(max) = self.config.max_probes {
            if self.probes.len() >= max {
                self.done = true;
                return None;
            }
        }
        mp_obs::counter!("apro.iterations").incr();
        let Some(db) = self
            .policy
            .select_db(self.state, self.config.k, self.config.metric)
        else {
            self.done = true; // every database probed
            return None;
        };
        // Waterfall breadcrumb: which database the adaptive loop chose
        // to probe next (a no-op unless a request trace is active).
        mp_obs::trace_annotate("apro.probe_db", u64::try_from(db).unwrap_or(u64::MAX));
        self.pending = Some(db);
        Some(db)
    }

    /// Lands the probe answer for the database `next_probe` selected:
    /// collapses its RD and re-evaluates the best set.
    ///
    /// # Panics
    /// Panics unless `db` is the database `next_probe` handed out and
    /// has not been applied yet: any other probe would land one the
    /// policy never chose, and its `ProbeRecord` would misreport it.
    pub fn apply(&mut self, db: usize, actual: f64) {
        assert_eq!(
            self.pending,
            Some(db),
            "applied probe must match the selected database"
        );
        self.pending = None;
        self.state.probe(db, actual);
        let (sel, exp) = best_set(self.state, self.config.k, self.config.metric);
        self.selected = sel.clone();
        self.expected = exp;
        self.probes.push(ProbeRecord {
            db,
            actual,
            selected_after: sel,
            expected_after: exp,
        });
    }

    /// Probes landed so far.
    pub fn n_probes(&self) -> usize {
        self.probes.len()
    }

    /// Closes the run and returns its outcome (records the per-query
    /// probe histogram exactly where the loop form did).
    pub fn finish(self) -> AproOutcome {
        let n_probes = u64::try_from(self.probes.len()).unwrap_or(u64::MAX);
        mp_obs::histogram!("apro.probes_per_query", mp_obs::bounds::SMALL).record(n_probes);
        mp_obs::trace_annotate("apro.probes", n_probes);
        AproOutcome {
            satisfied: self.expected >= self.config.threshold,
            selected: self.selected,
            expected: self.expected,
            initial_selected: self.initial_selected,
            initial_expected: self.initial_expected,
            probes: self.probes,
        }
    }
}

/// Runs `APro` (paper Figure 11).
///
/// * `state` — the per-query RD state (derived from estimates + EDs);
///   mutated in place as probes land.
/// * `probe_fn(i)` — performs the live probe of database `i` with the
///   user's query and returns the actual relevancy. `APro` itself never
///   touches databases; this inversion keeps the algorithm pure and
///   testable.
///
/// Termination: the threshold is met, the probe budget is exhausted, or
/// every database has been probed (at which point the certainty is 1 by
/// construction — all RDs are impulses and the best set is exact).
pub fn apro(
    state: &mut RdState,
    config: AproConfig,
    policy: &mut dyn ProbePolicy,
    probe_fn: &mut dyn FnMut(usize) -> f64,
) -> AproOutcome {
    let _span = mp_obs::span!("apro.run");
    let mut session = AproSession::begin(state, policy, config);
    while let Some(db) = session.next_probe() {
        let actual = probe_fn(db);
        session.apply(db, actual);
    }
    session.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probing::greedy::GreedyPolicy;
    use crate::probing::policy::RandomPolicy;
    use mp_stats::Discrete;
    use proptest::prelude::*;

    fn d(pairs: &[(f64, f64)]) -> Discrete {
        Discrete::from_weighted(pairs).unwrap()
    }

    fn paper_state() -> RdState {
        RdState::new(vec![
            d(&[(50.0, 0.4), (100.0, 0.5), (150.0, 0.1)]),
            d(&[(65.0, 0.1), (130.0, 0.9)]),
        ])
    }

    fn cfg(k: usize, t: f64) -> AproConfig {
        AproConfig {
            k,
            threshold: t,
            metric: CorrectnessMetric::Absolute,
            max_probes: None,
        }
    }

    #[test]
    fn below_threshold_answer_returned_without_probing() {
        // Paper Section 3.4: at t = 0.7 the RD-based answer (certainty
        // .85) is returned with zero probes.
        let mut state = paper_state();
        let mut policy = GreedyPolicy;
        let mut probe = |_: usize| -> f64 { panic!("no probe expected") };
        let out = apro(&mut state, cfg(1, 0.7), &mut policy, &mut probe);
        assert!(out.satisfied);
        assert_eq!(out.selected, vec![1]);
        assert!((out.expected - 0.85).abs() < 1e-12);
        assert_eq!(out.n_probes(), 0);
    }

    #[test]
    fn above_threshold_probing_kicks_in() {
        // Paper Section 3.4: at t = 0.9 we must probe. Greedy probes
        // db1 first; suppose the actual relevancy is 50 — then db2 is
        // certain (Figure 5(e)) and APro stops at one probe.
        let mut state = paper_state();
        let mut policy = GreedyPolicy;
        let mut probe = |i: usize| -> f64 {
            assert_eq!(i, 0, "greedy must probe db1 first");
            50.0
        };
        let out = apro(&mut state, cfg(1, 0.9), &mut policy, &mut probe);
        assert!(out.satisfied);
        assert_eq!(out.selected, vec![1]);
        assert_eq!(out.expected, 1.0);
        assert_eq!(out.n_probes(), 1);
        assert_eq!(out.initial_selected, vec![1]);
        assert!((out.initial_expected - 0.85).abs() < 1e-12);
    }

    #[test]
    fn probe_budget_is_respected() {
        let mut state = paper_state();
        let mut policy = GreedyPolicy;
        let mut probe = |_: usize| 100.0;
        let out = apro(
            &mut state,
            AproConfig {
                max_probes: Some(0),
                ..cfg(1, 0.99)
            },
            &mut policy,
            &mut probe,
        );
        assert_eq!(out.n_probes(), 0);
        assert!(!out.satisfied);
    }

    #[test]
    fn exhaustion_reaches_certainty_one() {
        // Threshold 1.0 forces probing everything; afterwards the
        // certainty is exactly 1.
        let mut state = paper_state();
        let mut policy = RandomPolicy::new(7);
        let actuals = [120.0, 65.0];
        let mut probe = |i: usize| actuals[i];
        let out = apro(&mut state, cfg(1, 1.0), &mut policy, &mut probe);
        assert!(out.satisfied);
        assert_eq!(out.expected, 1.0);
        assert_eq!(out.n_probes(), 2);
        assert_eq!(out.selected, vec![0]); // 120 > 65
    }

    #[test]
    fn trace_is_inspectable() {
        let mut state = paper_state();
        let mut policy = GreedyPolicy;
        let mut probe = |_: usize| 50.0;
        let out = apro(&mut state, cfg(1, 1.0), &mut policy, &mut probe);
        let (sel0, exp0) = out.after_probes(0).unwrap();
        assert_eq!(sel0, &[1]);
        assert!((exp0 - 0.85).abs() < 1e-12);
        let (sel1, _) = out.after_probes(1).unwrap();
        assert_eq!(sel1, &[1]);
        assert!(out.after_probes(99).is_none());
    }

    #[test]
    #[should_panic(expected = "applied probe must match the selected database")]
    fn apply_of_another_database_panics() {
        let mut state = paper_state();
        let mut policy = GreedyPolicy;
        let mut session = AproSession::begin(&mut state, &mut policy, cfg(1, 0.9));
        let db = session.next_probe().expect("0.85 < 0.9 needs a probe");
        session.apply(1 - db, 50.0);
    }

    #[test]
    #[should_panic(expected = "applied probe must match the selected database")]
    fn apply_with_nothing_pending_panics() {
        let mut state = paper_state();
        let mut policy = GreedyPolicy;
        let mut session = AproSession::begin(&mut state, &mut policy, cfg(1, 0.9));
        session.apply(0, 50.0);
    }

    #[test]
    #[should_panic(expected = "apply the previous probe before selecting the next")]
    fn next_probe_twice_without_apply_panics() {
        let mut state = paper_state();
        let mut policy = GreedyPolicy;
        let mut session = AproSession::begin(&mut state, &mut policy, cfg(1, 0.9));
        session.next_probe();
        session.next_probe();
    }

    #[test]
    fn no_database_is_probed_twice() {
        let mut state = paper_state();
        let mut policy = RandomPolicy::new(3);
        let mut seen = std::collections::HashSet::new();
        let mut probe = |i: usize| {
            assert!(seen.insert(i), "db {i} probed twice");
            10.0 * i as f64
        };
        let _ = apro(&mut state, cfg(1, 1.0), &mut policy, &mut probe);
    }

    fn arb_state() -> impl Strategy<Value = RdState> {
        proptest::collection::vec(
            proptest::collection::vec((0.0f64..50.0, 0.05f64..1.0), 1..4),
            2..5,
        )
        .prop_map(|dbs| {
            RdState::new(
                dbs.into_iter()
                    .map(|pts| Discrete::from_weighted(&pts).unwrap())
                    .collect(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn prop_apro_terminates_and_is_sound(
            state in arb_state(),
            t in 0.5f64..1.0,
            seed in 0u64..100
        ) {
            let mut state = state;
            let n = state.len();
            let mut policy = RandomPolicy::new(seed);
            // Deterministic fake actuals.
            let mut probe = |i: usize| (i as f64 * 7.3) % 50.0;
            let out = apro(
                &mut state,
                AproConfig { k: 1, threshold: t, metric: CorrectnessMetric::Absolute, max_probes: None },
                &mut policy,
                &mut probe,
            );
            prop_assert!(out.n_probes() <= n);
            prop_assert_eq!(out.selected.len(), 1);
            // Either satisfied, or every database was probed.
            prop_assert!(out.satisfied || out.n_probes() == n);
            // The final expected value is consistent with a recompute.
            let (_, score) = crate::selection::best_set(
                &state, 1, CorrectnessMetric::Absolute);
            prop_assert!((score - out.expected).abs() < 1e-9);
        }

        #[test]
        fn prop_threshold_zero_never_probes(state in arb_state()) {
            let mut state = state;
            let mut policy = GreedyPolicy;
            let mut probe = |_: usize| -> f64 { panic!("no probe at t=0") };
            let out = apro(
                &mut state,
                AproConfig { k: 1, threshold: 0.0, metric: CorrectnessMetric::Partial, max_probes: None },
                &mut policy,
                &mut probe,
            );
            prop_assert_eq!(out.n_probes(), 0);
            prop_assert!(out.satisfied);
        }
    }
}
