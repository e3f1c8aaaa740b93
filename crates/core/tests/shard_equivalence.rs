//! Cross-topology equivalence: a partitioned metasearcher is
//! indistinguishable from the one-shard engine — bit-for-bit.
//!
//! The suite builds *twin stacks* (two independent database fleets from
//! identical deterministic inputs, so probe counters and injection RNGs
//! never cross-contaminate), partitions one of them across
//! shards ∈ {1, 2, 3, 8} under random and adversarial assignments, and
//! asserts:
//!
//! * **RD vectors** replay bit-identically (scatter → gather equals the
//!   one-shard derivation);
//! * **selections and probe sequences** replay exactly — the whole
//!   [`AproOutcome`](mp_core::AproOutcome) (selected order, certainty
//!   bits, per-probe trace, satisfied flag) compares equal, as does the
//!   fused [`MetasearchResult`](mp_core::MetasearchResult);
//! * **probe accounting** is equal per database, and each shard's sum
//!   is exactly its members' share;
//! * **`ProbeBudget`s** (attempts / retries / failures / outages under
//!   failure injection) stay exactly equal per database — topology is
//!   invisible even to the injection layer.

use std::sync::Arc;

use mp_core::probing::GreedyPolicy;
use mp_core::{
    AproConfig, CoreConfig, CorrectnessMetric, EdLibrary, IndependenceEstimator, Metasearcher,
    RelevancyDef, ShardAssignment,
};
use mp_hidden::{ContentSummary, HiddenWebDatabase, Mediator, SimulatedHiddenDb, UnreliableDb};
use mp_index::{Document, IndexBuilder, InvertedIndex};
use mp_text::TermId;
use mp_workload::Query;
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn t(i: u32) -> TermId {
    TermId(i)
}

/// Deterministic per-database corpora from generated `(docs, pattern)`
/// specs: varied sizes and term correlations over terms 0..4 so
/// estimates err differently per database and probing does real work.
fn build_indexes(specs: &[(u8, u8)]) -> Vec<InvertedIndex> {
    specs
        .iter()
        .enumerate()
        .map(|(d, &(docs, pat))| {
            let mut b = IndexBuilder::new();
            let n_docs = 4 + u32::from(docs) % 40;
            for i in 0..n_docs {
                let mut doc = Document::new();
                if i % (2 + u32::from(pat) % 3) == 0 {
                    doc.add_term(t(0), 1);
                }
                if (i + d as u32).is_multiple_of(3) {
                    doc.add_term(t(1), 1);
                }
                if pat % 2 == 0 && i % 2 == 0 {
                    doc.add_term(t(2), 1);
                }
                doc.add_term(t(3), 1);
                b.add(doc);
            }
            b.build()
        })
        .collect()
}

/// One independent stack over the corpora (fresh databases, fresh
/// probe counters; summaries are cooperative so twins agree exactly).
fn stack(indexes: &[InvertedIndex]) -> Mediator {
    let dbs: Vec<Arc<dyn HiddenWebDatabase>> = indexes
        .iter()
        .enumerate()
        .map(|(i, ix)| {
            Arc::new(SimulatedHiddenDb::new(format!("db-{i}"), ix.clone()))
                as Arc<dyn HiddenWebDatabase>
        })
        .collect();
    let summaries = indexes.iter().map(ContentSummary::cooperative).collect();
    Mediator::new(dbs, summaries)
}

fn train_queries() -> Vec<Query> {
    let mut qs = Vec::new();
    for _ in 0..3 {
        qs.push(Query::new([t(0), t(1)]));
        qs.push(Query::new([t(0), t(3)]));
        qs.push(Query::new([t(1), t(2)]));
        qs.push(Query::new([t(2), t(3)]));
    }
    qs
}

fn test_queries() -> Vec<Query> {
    vec![
        Query::new([t(0), t(1)]),
        Query::new([t(1), t(3)]),
        Query::new([t(0), t(2)]),
    ]
}

fn library(mediator: &Mediator) -> EdLibrary {
    let config = CoreConfig::default().with_threshold(10.0);
    let lib = EdLibrary::train(
        mediator,
        &IndependenceEstimator,
        RelevancyDef::DocFrequency,
        &train_queries(),
        &config,
    );
    mediator.reset_probes();
    lib
}

fn flat_twin(indexes: &[InvertedIndex], lib: &EdLibrary) -> Metasearcher {
    Metasearcher::with_library(
        stack(indexes),
        Box::new(IndependenceEstimator),
        RelevancyDef::DocFrequency,
        lib.clone(),
    )
}

fn probe_counts(ms: &Metasearcher) -> Vec<u64> {
    (0..ms.mediator().len())
        .map(|i| ms.mediator().db(i).probe_count())
        .collect()
}

/// The full cross-topology comparison for one fleet and one assignment.
fn assert_equivalent(
    indexes: &[InvertedIndex],
    lib: &EdLibrary,
    assignment: &ShardAssignment,
    config: &AproConfig,
) {
    let ms = flat_twin(indexes, lib);
    let sharded = flat_twin(indexes, lib).partitioned(assignment);
    for q in test_queries() {
        // RD vectors: scatter → gather equals the one-shard derivation.
        assert_eq!(
            sharded.rds(&q),
            ms.rds(&q),
            "RDs diverged under {assignment:?}"
        );

        // Full search: selection order, certainty bits, probe trace,
        // fused hits — all bit-identical.
        let mut p_flat = GreedyPolicy;
        let mut p_shard = GreedyPolicy;
        let a = ms.search(&q, *config, &mut p_flat, 5);
        let b = sharded.search(&q, *config, &mut p_shard, 5);
        assert_eq!(a, b, "search diverged under {assignment:?} for {q:?}");
    }
    // Probe accounting: identical per database, and the sharded side's
    // per-shard totals are exactly the owning shards' shares.
    let flat_counts = probe_counts(&ms);
    let sharded_counts = probe_counts(&sharded);
    assert_eq!(sharded_counts, flat_counts, "probe counters diverged");
    let mut per_shard = vec![0u64; sharded.plan().n_shards()];
    for (g, &c) in sharded_counts.iter().enumerate() {
        per_shard[sharded.plan().shard_of(g)] += c;
    }
    assert_eq!(sharded.shard_probes(), per_shard);
    assert_eq!(
        sharded.shard_probes().iter().sum::<u64>(),
        ms.mediator().total_probes(),
        "fleet-wide probe totals diverged"
    );
}

fn apro_config(k: usize, threshold: f64, metric: CorrectnessMetric) -> AproConfig {
    AproConfig {
        k,
        threshold,
        metric,
        max_probes: None,
    }
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(12))]

    /// Random fleets × random partitions × shards ∈ {1,2,3,8}: the
    /// partitioned metasearcher replays the one-shard engine
    /// bit-for-bit.
    #[test]
    fn random_partitions_are_bit_identical(
        specs in proptest::collection::vec((0u8..=255, 0u8..=255), 2..10),
        owners in proptest::collection::vec(0usize..64, 10),
        mode in 0usize..3,
        k in 1usize..3,
    ) {
        let indexes = build_indexes(&specs);
        let lib = library(&stack(&indexes));
        let k = k.min(indexes.len());
        let config = apro_config(k, 0.9, CorrectnessMetric::Partial);
        for shards in SHARD_COUNTS {
            let assignment = match mode {
                0 => ShardAssignment::RoundRobin(shards),
                1 => ShardAssignment::ByNameFnv(shards),
                _ => ShardAssignment::Explicit {
                    shards,
                    owner: (0..indexes.len()).map(|i| owners[i] % shards).collect(),
                },
            };
            assert_equivalent(&indexes, &lib, &assignment, &config);
        }
    }

    /// Failure injection is topology-blind: flaky twins (counter-keyed
    /// outage/noise injection with retries) keep exactly equal
    /// per-database `ProbeBudget`s across every shard count.
    #[test]
    fn probe_budgets_replay_under_injection(
        specs in proptest::collection::vec((0u8..=255, 0u8..=255), 2..6),
        shards_ix in 0usize..4,
    ) {
        let indexes = build_indexes(&specs);
        let lib = library(&stack(&indexes));
        let shards = SHARD_COUNTS[shards_ix];
        let config = apro_config(1, 0.95, CorrectnessMetric::Absolute);

        // Two independent flaky stacks with identical injection seeds.
        let flaky_stack = || -> (Vec<Arc<UnreliableDb>>, Mediator) {
            let handles: Vec<Arc<UnreliableDb>> = indexes
                .iter()
                .enumerate()
                .map(|(i, ix)| {
                    let base: Arc<dyn HiddenWebDatabase> =
                        Arc::new(SimulatedHiddenDb::new(format!("db-{i}"), ix.clone()));
                    Arc::new(
                        UnreliableDb::new(base, 0.3, 0.2, 0.2, 1_000 + i as u64)
                            .with_retries(2),
                    )
                })
                .collect();
            let dbs: Vec<Arc<dyn HiddenWebDatabase>> = handles
                .iter()
                .map(|h| Arc::clone(h) as Arc<dyn HiddenWebDatabase>)
                .collect();
            let summaries = indexes.iter().map(ContentSummary::cooperative).collect();
            (handles, Mediator::new(dbs, summaries))
        };

        let (flat_handles, flat_med) = flaky_stack();
        let (shard_handles, shard_med) = flaky_stack();
        let ms = Metasearcher::with_library(
            flat_med,
            Box::new(IndependenceEstimator),
            RelevancyDef::DocFrequency,
            lib.clone(),
        );
        let sharded = Metasearcher::with_library(
            shard_med,
            Box::new(IndependenceEstimator),
            RelevancyDef::DocFrequency,
            lib.clone(),
        )
        .partitioned(&ShardAssignment::RoundRobin(shards));
        for q in test_queries() {
            let mut p_flat = GreedyPolicy;
            let mut p_shard = GreedyPolicy;
            let a = ms.select_adaptive(&q, config, &mut p_flat);
            let b = sharded.select_adaptive(&q, config, &mut p_shard);
            prop_assert_eq!(a, b, "outcome diverged at {} shards", shards);
        }
        for (i, (f, s)) in flat_handles.iter().zip(&shard_handles).enumerate() {
            prop_assert_eq!(
                f.budget(),
                s.budget(),
                "ProbeBudget diverged on db {} at {} shards",
                i,
                shards
            );
        }
    }
}

/// Adversarial partitions at fixed fleets: empty shards, one giant
/// shard plus singletons, and the all-singleton topology.
#[test]
fn adversarial_partitions_are_bit_identical() {
    let specs: Vec<(u8, u8)> = (0u8..7)
        .map(|i| (37u8.wrapping_mul(i + 1), 11u8.wrapping_mul(i)))
        .collect();
    let indexes = build_indexes(&specs);
    let lib = library(&stack(&indexes));
    let n = indexes.len();

    let adversarial = [
        // All databases on shard 0; shards 1..7 empty.
        ShardAssignment::Explicit {
            shards: 8,
            owner: vec![0; n],
        },
        // One giant shard plus two singletons, with an empty shard too.
        ShardAssignment::Explicit {
            shards: 4,
            owner: vec![1, 1, 1, 1, 1, 0, 3],
        },
        // All-singleton: every database its own shard.
        ShardAssignment::Explicit {
            shards: n,
            owner: (0..n).collect(),
        },
        // More shards than databases (some necessarily empty).
        ShardAssignment::RoundRobin(3 * n),
    ];
    for assignment in &adversarial {
        for (k, threshold, metric) in [
            (1, 0.95, CorrectnessMetric::Absolute),
            (2, 0.9, CorrectnessMetric::Partial),
            (3, 1.0, CorrectnessMetric::Partial),
        ] {
            assert_equivalent(
                &indexes,
                &lib,
                assignment,
                &apro_config(k, threshold, metric),
            );
        }
    }
}
