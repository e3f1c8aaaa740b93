//! Error distributions (EDs) and their training via database sampling
//! (paper Sections 3.1 and 4).

use crate::config::CoreConfig;
use crate::error::relative_error;
use crate::estimator::{estimate_all, RelevancyEstimator};
use crate::expected::FloorRun;
use crate::query_type::QueryType;
use crate::rd::derive_rd;
use crate::relevancy::RelevancyDef;
use mp_hidden::Mediator;
use mp_stats::{Discrete, Histogram};
use mp_workload::Query;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// An error distribution: the histogram of relative estimation errors a
/// given estimator exhibits on one database for one query type
/// (paper Figure 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorDistribution {
    hist: Histogram,
}

impl ErrorDistribution {
    /// An empty ED over the config's bins.
    pub fn new(config: &CoreConfig) -> Self {
        let ed = Self {
            hist: Histogram::new(config.ed_bins()),
        };
        debug_assert!(ed.samples() == 0, "a fresh ED must start with zero samples");
        ed
    }

    /// Records one observed error.
    pub fn add(&mut self, error: f64) {
        self.hist.add(error);
    }

    /// Number of sample queries behind this ED.
    pub fn samples(&self) -> u64 {
        self.hist.total()
    }

    /// The underlying histogram (for χ² goodness testing).
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// The ED as a discrete distribution over representative error
    /// values; `None` when no samples were recorded.
    pub fn to_discrete(&self) -> Option<Discrete> {
        self.hist.to_discrete().ok().inspect(|d| {
            d.debug_assert_normalized();
            // Occupied-bucket count: how concentrated this ED is.
            mp_obs::histogram!("ed.bucket_occupancy", mp_obs::bounds::POW2)
                .record(u64::try_from(d.points().len()).unwrap_or(u64::MAX));
        })
    }

    /// Merges another ED over the same bins.
    pub fn merge(&mut self, other: &ErrorDistribution) {
        self.hist.merge(&other.hist);
    }
}

/// The learned library of EDs: one per `(database, query type)` leaf.
///
/// Built offline from a training trace (the paper draws its sample
/// queries "randomly chosen from previous query traces", Example 2) and
/// consulted at query time to turn a point estimate into an RD.
///
/// `PartialEq` is exact over the trained content (bin edges and counts
/// compare bit-for-bit) — persistence round-trip tests rely on it.
#[derive(Debug, Clone)]
pub struct EdLibrary {
    /// `per_db[i]` maps query types to their ED on database `i`.
    /// Maps serialize as sorted `[key, value]` pair arrays (JSON object
    /// keys must be strings, and [`QueryType`] is a struct), so the
    /// output is deterministic without an adapter.
    per_db: Vec<HashMap<QueryType, ErrorDistribution>>,
    config: CoreConfig,
    /// The frozen table and the floor runs, built together on first use;
    /// [`Self::record`] resets both. Derived from `per_db`, so they stay
    /// out of the wire format and of `PartialEq`.
    frozen: OnceLock<Frozen>,
}

/// What a query reads of the library, frozen.
#[derive(Debug, Clone)]
struct Frozen {
    /// Every `(database, leaf)` ED as the [`Discrete`] an RD derivation
    /// scales, at `qt.index(..) * n_databases + db`, with fallbacks
    /// resolved.
    eds: Vec<Option<Discrete>>,
    /// Per leaf, in [`QueryType::all`] order, the RD of every estimate at
    /// or below the floor on each database, `derive_rd(est_floor,
    /// Some(&ed))`, with its points pre-ranked. Such an estimate scales
    /// the leaf by the floor itself, so its RD depends on the leaf alone.
    runs: Vec<FloorRun>,
}

impl EdLibrary {
    /// An empty library for `n_databases` databases.
    pub fn empty(n_databases: usize, config: CoreConfig) -> Self {
        Self {
            per_db: vec![HashMap::new(); n_databases],
            config,
            frozen: OnceLock::new(),
        }
    }

    /// Trains EDs by sampling every mediated database with every
    /// training query (paper Section 4): estimate, probe for the actual
    /// relevancy, record the Eq. 2 error under the query's type.
    ///
    /// Probing here is *offline training cost*, not query-time probing;
    /// callers usually `mediator.reset_probes()` afterwards.
    pub fn train(
        mediator: &Mediator,
        estimator: &dyn RelevancyEstimator,
        def: RelevancyDef,
        queries: &[Query],
        config: &CoreConfig,
    ) -> Self {
        let mut lib = Self::empty(mediator.len(), config.clone());
        for q in queries {
            for (i, est) in estimate_all(estimator, mediator, q).into_iter().enumerate() {
                let actual = def.probe(mediator.db(i), q, config.probe_top_n);
                lib.record(i, q.len(), est, actual);
            }
        }
        lib
    }

    /// Records a single observation for database `i`.
    pub fn record(&mut self, db: usize, n_terms: usize, estimate: f64, actual: f64) {
        let qt = QueryType::classify(n_terms, estimate, &self.config.coverage_thresholds);
        let err = relative_error(actual, estimate, self.config.est_floor);
        self.per_db[db]
            .entry(qt)
            .or_insert_with(|| ErrorDistribution::new(&self.config))
            .add(err);
        self.frozen.take();
    }

    /// The configuration the library was trained under.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Number of databases covered.
    pub fn n_databases(&self) -> usize {
        self.per_db.len()
    }

    /// The ED for `(db, query type)` if trained.
    pub fn ed(&self, db: usize, qt: QueryType) -> Option<&ErrorDistribution> {
        self.per_db[db].get(&qt).filter(|ed| ed.samples() > 0)
    }

    /// The ED to *use* for a query of type `qt` on `db`: the exact leaf
    /// when trained, else the first trained fallback
    /// ([`QueryType::fallbacks`]), else `None` (caller degrades to an
    /// impulse RD at the estimate).
    pub fn ed_or_fallback(&self, db: usize, qt: QueryType) -> Option<&ErrorDistribution> {
        if let Some(ed) = self.ed(db, qt) {
            return Some(ed);
        }
        qt.fallbacks(self.config.coverage_thresholds.len())
            .into_iter()
            .find_map(|fb| self.ed(db, fb))
    }

    /// The ED an RD derivation on `db` scales for a query of type `qt`:
    /// [`Self::ed_or_fallback`]'s choice as a [`Discrete`], or `None`
    /// when there is none (the RD degrades to an impulse). A read of the
    /// frozen table, so a query pays no map lookup and no fallback search.
    pub(crate) fn frozen_ed(&self, db: usize, qt: QueryType) -> Option<&Discrete> {
        let leaf = qt.index(self.config.coverage_thresholds.len());
        self.frozen().eds[leaf * self.per_db.len() + db].as_ref()
    }

    /// The floor run of leaf `qt`: every database's RD at the estimate
    /// floor there, pre-ranked ([`crate::expected::RdState::for_query`]
    /// reads the run of the leaf an estimate at the floor classifies to).
    pub(crate) fn floor_run(&self, qt: QueryType) -> &FloorRun {
        &self.frozen().runs[qt.index(self.config.coverage_thresholds.len())]
    }

    fn frozen(&self) -> &Frozen {
        self.frozen.get_or_init(|| self.freeze())
    }

    /// Builds the frozen table, leaf-major, and each leaf's floor run.
    /// `ed.bucket_occupancy` records each leaf here, once per freeze.
    fn freeze(&self) -> Frozen {
        let mut eds = Vec::new();
        let runs = QueryType::all(self.config.coverage_thresholds.len())
            .into_iter()
            .map(|qt| {
                let floor_rds = (0..self.per_db.len())
                    .map(|db| {
                        let ed = self
                            .ed_or_fallback(db, qt)
                            .and_then(ErrorDistribution::to_discrete);
                        let floor_rd = ed
                            .as_ref()
                            .map(|ed| derive_rd(self.config.est_floor, Some(ed), &self.config));
                        eds.push(ed);
                        floor_rd
                    })
                    .collect();
                FloorRun::new(floor_rds)
            })
            .collect();
        Frozen { eds, runs }
    }

    /// Classifies a query for database `db` given its estimate there.
    pub fn classify(&self, n_terms: usize, estimate: f64) -> QueryType {
        QueryType::classify(n_terms, estimate, &self.config.coverage_thresholds)
    }

    /// Per-type sample counts for one database (diagnostics / reports).
    pub fn sample_counts(&self, db: usize) -> Vec<(QueryType, u64)> {
        let mut v: Vec<(QueryType, u64)> = self.per_db[db]
            .iter()
            .map(|(&qt, ed)| (qt, ed.samples()))
            .collect();
        v.sort();
        v
    }
}

impl PartialEq for EdLibrary {
    fn eq(&self, other: &Self) -> bool {
        self.per_db == other.per_db && self.config == other.config
    }
}

// Manual serde impls: the frozen table stays out of the wire format
// (the JSON is byte-identical to the derive over the two trained
// fields, in declaration order).
impl Serialize for EdLibrary {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            (String::from("per_db"), self.per_db.to_value()),
            (String::from("config"), self.config.to_value()),
        ])
    }
}

impl Deserialize for EdLibrary {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        fn field<'v>(v: &'v serde::Value, name: &str) -> Result<&'v serde::Value, serde::Error> {
            v.get(name).ok_or_else(|| serde::Error::missing_field(name))
        }
        if v.as_obj().is_none() {
            return Err(serde::Error::type_mismatch("object", v));
        }
        Ok(EdLibrary {
            per_db: Deserialize::from_value(field(v, "per_db")?)?,
            config: Deserialize::from_value(field(v, "config")?)?,
            frozen: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_type::ArityBucket;

    fn config() -> CoreConfig {
        CoreConfig::default()
    }

    #[test]
    fn ed_accumulates_and_discretizes() {
        let mut ed = ErrorDistribution::new(&config());
        for _ in 0..4 {
            ed.add(-0.5);
        }
        for _ in 0..5 {
            ed.add(0.0);
        }
        ed.add(0.5);
        assert_eq!(ed.samples(), 10);
        let d = ed.to_discrete().unwrap();
        // Paper Figure 4 shape: 0.4 / 0.5 / 0.1.
        assert!((d.prob_eq(-0.5) - 0.4).abs() < 1e-12);
        assert!((d.prob_eq(0.0) - 0.5).abs() < 1e-12);
        assert!((d.prob_eq(0.5) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_ed_has_no_discrete() {
        let ed = ErrorDistribution::new(&config());
        assert!(ed.to_discrete().is_none());
        assert_eq!(ed.samples(), 0);
    }

    #[test]
    fn library_records_by_type() {
        let mut lib = EdLibrary::empty(2, config());
        lib.record(0, 2, 50.0, 100.0); // 2-term, low coverage
        lib.record(0, 2, 500.0, 250.0); // 2-term, high coverage
        lib.record(1, 3, 10.0, 0.0); // 3-term, low coverage (db 1)

        let low2 = QueryType {
            arity: ArityBucket::Two,
            coverage: 0,
        };
        let high2 = QueryType {
            arity: ArityBucket::Two,
            coverage: 1,
        };
        let low3 = QueryType {
            arity: ArityBucket::ThreeUp,
            coverage: 0,
        };

        assert_eq!(lib.ed(0, low2).unwrap().samples(), 1);
        assert_eq!(lib.ed(0, high2).unwrap().samples(), 1);
        assert!(lib.ed(0, low3).is_none());
        assert_eq!(lib.ed(1, low3).unwrap().samples(), 1);
        assert!(lib.ed(1, low2).is_none());
    }

    #[test]
    fn fallback_chain_finds_sibling() {
        let mut lib = EdLibrary::empty(1, config());
        lib.record(0, 2, 500.0, 250.0); // only the high-coverage leaf trained
        let low2 = QueryType {
            arity: ArityBucket::Two,
            coverage: 0,
        };
        assert!(lib.ed(0, low2).is_none());
        assert!(lib.ed_or_fallback(0, low2).is_some());
    }

    #[test]
    fn no_training_no_fallback() {
        let lib = EdLibrary::empty(1, config());
        let qt = QueryType {
            arity: ArityBucket::Two,
            coverage: 0,
        };
        assert!(lib.ed_or_fallback(0, qt).is_none());
    }

    #[test]
    fn record_after_a_state_was_built_leaves_no_stale_run() {
        use crate::expected::RdState;
        use crate::rd::derive_all_rds;
        let bits = |rd: &Discrete| {
            rd.points()
                .iter()
                .map(|&(v, p)| (v.to_bits(), p.to_bits()))
                .collect::<Vec<_>>()
        };
        let mut lib = EdLibrary::empty(3, config());
        for db in 0..3 {
            lib.record(db, 2, 0.0, 2.0 + db as f64);
            lib.record(db, 2, 0.0, 0.0);
        }
        let q = Query::new([mp_text::TermId(0), mp_text::TermId(1)]);
        let estimates = [0.0; 3];
        let before = RdState::for_query(&estimates, &q, &lib);
        assert_eq!(
            before.support_bits(),
            RdState::new(derive_all_rds(&estimates, &q, &lib)).support_bits()
        );

        // Database 1's floor leaf learns a new error: its floor RD moves.
        for _ in 0..5 {
            lib.record(1, 2, 0.0, 9.0);
        }
        let after = RdState::for_query(&estimates, &q, &lib);
        assert_ne!(bits(&after.rds()[1]), bits(&before.rds()[1]));
        assert_eq!(
            after.support_bits(),
            RdState::new(derive_all_rds(&estimates, &q, &lib)).support_bits()
        );
        // The run and the state follow the trained EDs, not the table
        // frozen before the records.
        let qt = lib.classify(2, 0.0);
        let run = lib.floor_run(qt);
        for (db, rd) in after.rds().iter().enumerate() {
            let ed = lib.ed_or_fallback(db, qt);
            let ed = ed.and_then(ErrorDistribution::to_discrete).unwrap();
            let fresh = derive_rd(config().est_floor, Some(&ed), &config());
            let floor = run.rd(db).expect("every database has an ED");
            assert_eq!(bits(floor), bits(&fresh), "db {db}'s run is stale");
            assert_eq!(bits(rd), bits(&fresh));
        }
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = ErrorDistribution::new(&config());
        a.add(0.0);
        let mut b = ErrorDistribution::new(&config());
        b.add(1.5);
        b.add(1.5);
        a.merge(&b);
        assert_eq!(a.samples(), 3);
    }
}
