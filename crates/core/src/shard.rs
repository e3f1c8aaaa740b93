//! The shard layer: a partition of the one database fleet, and the
//! scatter-gather that derives relevancy distributions shard by shard.
//!
//! The paper's metasearcher (Figure 1) is one mediator over every
//! database. A partitioned [`crate::Metasearcher`] keeps that single
//! fleet — one `Mediator`, one `EdLibrary`, all in global index order —
//! and adds a [`ShardPlan`]: each shard is a list of global database
//! indices. RD derivation then runs in two phases:
//!
//! * **Scatter** — every shard derives the RDs of its own members from
//!   the fleet's summaries and library at their global indices. Shards
//!   share nothing mutable, so the phase fans out via [`crate::par`];
//!   one shard runs sequentially.
//! * **Gather** — the per-shard results move into global index order,
//!   each database covered exactly once, and the *global*
//!   `E[Cor(DBk)]` machinery ([`crate::selection::best_set`],
//!   [`crate::probing::apro()`]) runs on the composed vector.
//!
//! **Why the merge is exact.** Estimates, query-type classification,
//! ED lookup, and RD derivation are all functions of *one* database's
//! summary and trained leaves ([`crate::rd::derive_db_rd`]), so a shard
//! computes bit-identical RDs to a one-shard plan for the databases it
//! owns. What is *not* shard-local is the correctness marginal —
//! `P(db ∈ top-k)` depends on every rival fleet-wide — which is why
//! gather hands the canonical global ranking (descending total order,
//! lower index breaks ties) the composed RD vector rather than merging
//! per-shard top-k lists heuristically. The composed vector is the
//! *same multiset of `(index, RD)` pairs* at every shard count, and
//! every downstream step is a deterministic function of it, so
//! selections, probe sequences, and budgets replay bit-for-bit across
//! topologies — the property `tests/shard_equivalence.rs` proves by
//! proptest for shards ∈ {1, 2, 3, 8} including adversarial partitions.
//!
//! Lock inventory: none. A plan is immutable after construction, and
//! the scatter reads only shared, immutable fleet state.

use mp_hidden::Mediator;

/// How a fleet of `n` databases maps onto shards.
///
/// Every variant is a pure function of the mediator's (ordered,
/// authoritative) database list — no clocks, no randomness — so the
/// same fleet always partitions the same way (mp-lint L13 territory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardAssignment {
    /// FNV-1a over the database *name*, modulo the shard count — the
    /// deployment-stable default: a database keeps its shard when the
    /// fleet grows as long as the shard count is unchanged.
    ByNameFnv(usize),
    /// `global index % shards` — the balanced assignment benches use.
    RoundRobin(usize),
    /// An explicit owner table (`owner[global] = shard`). Shards that
    /// never appear stay empty — the adversarial-partition tests use
    /// this for empty / one-giant / all-singleton topologies.
    Explicit {
        /// Total shard count (may exceed the owners actually used).
        shards: usize,
        /// Owning shard per global database index.
        owner: Vec<usize>,
    },
}

/// FNV-1a (64-bit) — the same stable fingerprint discipline as
/// [`mp_workload::Query::fingerprint`], over arbitrary bytes.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ShardAssignment {
    /// The shard count this assignment targets.
    pub fn n_shards(&self) -> usize {
        match self {
            ShardAssignment::ByNameFnv(s) | ShardAssignment::RoundRobin(s) => *s,
            ShardAssignment::Explicit { shards, .. } => *shards,
        }
    }

    /// The owner table for `mediator`'s databases.
    ///
    /// # Panics
    /// Panics on a zero shard count, an explicit table of the wrong
    /// length, or an explicit owner out of range.
    pub fn assign(&self, mediator: &Mediator) -> Vec<usize> {
        let shards = self.n_shards();
        assert!(shards > 0, "shard count must be at least 1");
        let owner: Vec<usize> = match self {
            ShardAssignment::ByNameFnv(_) => (0..mediator.len())
                .map(|i| (fnv1a_64(mediator.db(i).name().as_bytes()) % shards as u64) as usize)
                .collect(),
            ShardAssignment::RoundRobin(_) => (0..mediator.len()).map(|i| i % shards).collect(),
            ShardAssignment::Explicit { owner, .. } => {
                assert_eq!(
                    owner.len(),
                    mediator.len(),
                    "explicit owner table must cover every database"
                );
                owner.clone()
            }
        };
        assert!(
            owner.iter().all(|&s| s < shards),
            "shard owner out of range"
        );
        owner
    }
}

/// The partition of one fleet: who owns which database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `owner[global] = shard`.
    owner: Vec<usize>,
    /// `members[shard]` = owned global indices, strictly ascending.
    members: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Builds the plan for `mediator` under `assignment`.
    pub fn new(assignment: &ShardAssignment, mediator: &Mediator) -> Self {
        let owner = assignment.assign(mediator);
        let mut members = vec![Vec::new(); assignment.n_shards()];
        for (global, &shard) in owner.iter().enumerate() {
            members[shard].push(global);
        }
        Self { owner, members }
    }

    /// Number of shards (including empty ones).
    pub fn n_shards(&self) -> usize {
        self.members.len()
    }

    /// Number of partitioned databases.
    pub fn n_databases(&self) -> usize {
        self.owner.len()
    }

    /// The shard owning global database `global`.
    pub fn shard_of(&self, global: usize) -> usize {
        self.owner[global]
    }

    /// The global indices shard `shard` owns, ascending.
    pub fn members(&self, shard: usize) -> &[usize] {
        &self.members[shard]
    }

    /// Scatter → gather: `answer(members)` returns one answer per
    /// member of a shard, in member order; every shard answers for its
    /// own members (shards fan out via [`crate::par`], so the result is
    /// bit-deterministic by the par contract), then the answers move
    /// into global index order.
    ///
    /// The gather walks the databases in global order and takes each
    /// one's answer from its owner's queue: members are ascending, so
    /// the queue fronts line up, and every answer moves exactly once.
    /// A one-shard plan's answers are already in global order and skip
    /// the walk, which keeps the default plan as cheap as a plain map.
    ///
    /// # Panics
    /// Panics if a shard answers for fewer or more databases than it
    /// owns.
    pub(crate) fn scatter_gather<T, F>(&self, answer: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&[usize]) -> Vec<T> + Sync,
    {
        let mut scattered =
            crate::par::par_map_indexed(self.n_shards(), 1, |s| answer(self.members(s)));
        if let [all] = scattered.as_mut_slice() {
            assert_eq!(
                all.len(),
                self.n_databases(),
                "the one shard answers for every database"
            );
            return std::mem::take(all);
        }
        let mut scattered: Vec<std::vec::IntoIter<T>> =
            scattered.into_iter().map(Vec::into_iter).collect();
        let gathered: Vec<T> = self
            .owner
            .iter()
            .enumerate()
            .map(|(g, &s)| {
                scattered[s]
                    .next()
                    .unwrap_or_else(|| panic!("database {g} missing from scatter"))
            })
            .collect();
        assert!(
            scattered.iter().all(|answers| answers.len() == 0),
            "a shard answered for a database it does not own"
        );
        gathered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::correctness::CorrectnessMetric;
    use crate::estimator::IndependenceEstimator;
    use crate::probing::{AproConfig, GreedyPolicy};
    use crate::relevancy::RelevancyDef;
    use crate::Metasearcher;
    use mp_hidden::{ContentSummary, HiddenWebDatabase, SimulatedHiddenDb};
    use mp_index::{Document, IndexBuilder};
    use mp_text::TermId;
    use mp_workload::Query;
    use std::sync::Arc;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    /// A 6-database fleet with varied term correlations so RDs differ
    /// across databases and probing does real work.
    fn fleet() -> Mediator {
        let mut dbs: Vec<Arc<dyn HiddenWebDatabase>> = Vec::new();
        for d in 0..6u32 {
            let mut b = IndexBuilder::new();
            for i in 0..(40 + 10 * d) {
                let mut doc = Document::new();
                if i % (d + 2) == 0 {
                    doc.add_term(t(0), 1);
                }
                if i % 3 == d % 3 {
                    doc.add_term(t(1), 1);
                }
                doc.add_term(t(2), 1);
                b.add(doc);
            }
            dbs.push(Arc::new(SimulatedHiddenDb::new(
                format!("db-{d}"),
                b.build(),
            )));
        }
        let summaries = dbs
            .iter()
            .map(|d| {
                ContentSummary::new(
                    (0..3u32)
                        .map(|i| (t(i), d.search(&[t(i)], 0).match_count))
                        .collect(),
                    d.size_hint().unwrap(),
                )
            })
            .collect();
        let m = Mediator::new(dbs, summaries);
        m.reset_probes();
        m
    }

    fn train_queries() -> Vec<Query> {
        let mut qs = Vec::new();
        for _ in 0..4 {
            qs.push(Query::new([t(0), t(1)]));
            qs.push(Query::new([t(0), t(2)]));
            qs.push(Query::new([t(1), t(2)]));
        }
        qs
    }

    fn flat() -> Metasearcher {
        Metasearcher::train(
            fleet(),
            Box::new(IndependenceEstimator),
            RelevancyDef::DocFrequency,
            &train_queries(),
            CoreConfig::default().with_threshold(20.0),
        )
    }

    #[test]
    fn plan_round_robin_partitions_the_fleet() {
        let m = fleet();
        let plan = ShardPlan::new(&ShardAssignment::RoundRobin(4), &m);
        assert_eq!(plan.n_shards(), 4);
        assert_eq!(plan.n_databases(), 6);
        for g in 0..6 {
            let s = plan.shard_of(g);
            assert_eq!(s, g % 4);
            assert!(plan.members(s).contains(&g));
        }
        assert_eq!(plan.members(0), &[0, 4]);
        assert_eq!(plan.members(3), &[3]);
    }

    #[test]
    fn fnv_assignment_is_stable_and_name_keyed() {
        let m = fleet();
        let a = ShardAssignment::ByNameFnv(3);
        // Pure function of the names: two evaluations agree exactly.
        assert_eq!(a.assign(&m), a.assign(&m));
        // Keyed by name, not index: a fleet listing the same databases
        // in reverse order assigns each *name* to the same shard.
        let owners = a.assign(&m);
        let rev = Mediator::new(
            (0..m.len()).rev().map(|i| m.db_arc(i)).collect(),
            (0..m.len()).rev().map(|i| m.summary(i).clone()).collect(),
        );
        let rev_owners = a.assign(&rev);
        for i in 0..m.len() {
            assert_eq!(owners[i], rev_owners[m.len() - 1 - i]);
        }
    }

    #[test]
    #[should_panic(expected = "owner out of range")]
    fn explicit_owner_out_of_range_is_rejected() {
        let m = fleet();
        ShardAssignment::Explicit {
            shards: 2,
            owner: vec![0, 1, 2, 0, 0, 0],
        }
        .assign(&m);
    }

    #[test]
    fn scatter_gather_returns_answers_in_global_order() {
        let m = fleet();
        let plan = ShardPlan::new(
            &ShardAssignment::Explicit {
                shards: 4,
                owner: vec![3, 0, 3, 1, 0, 3],
            },
            &m,
        );
        let answers = plan.scatter_gather(|members| members.iter().map(|&g| g * 10).collect());
        assert_eq!(answers, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn empty_shards_answer_nothing_and_gather_still_covers() {
        // Shard 1 of 3 owns nothing.
        let sharded = flat().partitioned(&ShardAssignment::Explicit {
            shards: 3,
            owner: vec![0, 0, 2, 2, 0, 2],
        });
        assert!(sharded.plan().members(1).is_empty());
        assert_eq!(sharded.shard_probes()[1], 0);
        let q = Query::new([t(0), t(1)]);
        assert_eq!(sharded.rds(&q).len(), 6);
        assert_eq!(sharded.rds(&q), flat().rds(&q));
    }

    #[test]
    fn adaptive_selection_counts_probes_per_owning_shard() {
        let sharded = flat().partitioned(&ShardAssignment::RoundRobin(3));
        let q = Query::new([t(0), t(1)]);
        let mut policy = GreedyPolicy;
        let outcome = sharded.select_adaptive(
            &q,
            AproConfig {
                k: 2,
                threshold: 1.0,
                metric: CorrectnessMetric::Partial,
                max_probes: None,
            },
            &mut policy,
        );
        assert!(outcome.n_probes() >= 1);
        // Owning-shard accounting: per-shard totals reconstruct the
        // probe trace exactly.
        let mut expect = vec![0u64; 3];
        for p in &outcome.probes {
            expect[sharded.plan().shard_of(p.db)] += 1;
        }
        assert_eq!(sharded.shard_probes(), expect);
        assert_eq!(sharded.mediator().total_probes(), outcome.n_probes() as u64);
    }

    #[test]
    fn search_matches_one_shard_bit_for_bit() {
        // The twin-stack comparison across many partitions lives in
        // tests/shard_equivalence.rs; this in-module smoke checks the
        // value path on one FNV partition.
        let ms = flat();
        let sharded = flat().partitioned(&ShardAssignment::ByNameFnv(8));
        let config = AproConfig {
            k: 2,
            threshold: 0.9,
            metric: CorrectnessMetric::Partial,
            max_probes: None,
        };
        for q in [
            Query::new([t(0), t(1)]),
            Query::new([t(1), t(2)]),
            Query::new([t(0), t(2)]),
        ] {
            let mut p1 = GreedyPolicy;
            let mut p2 = GreedyPolicy;
            let a = ms.search(&q, config, &mut p1, 5);
            let b = sharded.search(&q, config, &mut p2, 5);
            assert_eq!(a, b, "sharded answer diverged for {q:?}");
        }
    }
}
