//! Batched-execution equivalence: the lock-step batch executor
//! ([`mp_core::batch`]) is indistinguishable from running each request
//! through the per-query engine in isolation — bit-for-bit.
//!
//! The suite builds *twin stacks* (independent fleets from identical
//! deterministic inputs, so probe counters never cross-contaminate),
//! runs one twin through `search_batch_with_rds` and the other through
//! per-request `search_with_rds`, and asserts for batches with every
//! term-overlap shape (identical duplicates, disjoint, partial overlap,
//! singletons, empty):
//!
//! * the full [`MetasearchResult`](mp_core::MetasearchResult) compares
//!   equal per request — selection order, certainty bits, probe trace,
//!   satisfied flag, fused hits;
//! * **probe accounting** is exactly equal per database: batching never
//!   adds, saves, or reorders a probe's cost onto another database;
//! * both hold at every shard count {1, 2, 3, 8} of a partitioned
//!   metasearcher.

use std::sync::Arc;

use mp_core::probing::GreedyPolicy;
use mp_core::{
    AproConfig, BatchQuery, CoreConfig, CorrectnessMetric, EdLibrary, IndependenceEstimator,
    MetasearchResult, Metasearcher, RelevancyDef, ShardAssignment,
};
use mp_hidden::{ContentSummary, HiddenWebDatabase, Mediator, SimulatedHiddenDb};
use mp_index::{Document, IndexBuilder, InvertedIndex};
use mp_text::TermId;
use mp_workload::Query;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn t(i: u32) -> TermId {
    TermId(i)
}

/// Deterministic per-database corpora from generated `(docs, pattern)`
/// specs — same construction as the shard equivalence suite, so
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

fn flat_probe_counts(ms: &Metasearcher) -> Vec<u64> {
    (0..ms.mediator().len())
        .map(|i| ms.mediator().db(i).probe_count())
        .collect()
}

fn apro_config(k: usize, threshold: f64) -> AproConfig {
    AproConfig {
        k,
        threshold,
        metric: CorrectnessMetric::Partial,
        max_probes: None,
    }
}

/// Batch items for `queries` on `ms`'s RD derivation (the RD cache in
/// the serve layer plays this role in production).
fn items<'a>(ms: &Metasearcher, queries: &'a [Query], config: AproConfig) -> Vec<BatchQuery<'a>> {
    queries
        .iter()
        .map(|q| BatchQuery {
            query: q,
            rds: ms.rds(q),
            config,
            policy: Box::new(GreedyPolicy),
        })
        .collect()
}

/// The batch executor vs per-request execution on twin flat stacks:
/// results and per-database probe counters must be exactly equal.
fn assert_flat_equivalent(
    indexes: &[InvertedIndex],
    lib: &EdLibrary,
    queries: &[Query],
    config: AproConfig,
) -> Vec<MetasearchResult> {
    let solo = flat_twin(indexes, lib);
    let batched = flat_twin(indexes, lib);

    let expected: Vec<MetasearchResult> = queries
        .iter()
        .map(|q| {
            let mut policy = GreedyPolicy;
            solo.search_with_rds(q, solo.rds(q), config, &mut policy, 5)
        })
        .collect();
    let got = batched.search_batch_with_rds(items(&batched, queries, config), 5);

    assert_eq!(got.len(), expected.len());
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "request {i} diverged under batching");
    }
    assert_eq!(
        flat_probe_counts(&batched),
        flat_probe_counts(&solo),
        "per-database probe counters diverged under batching"
    );
    expected
}

/// Same comparison on partitioned metasearchers: batched execution at
/// every shard count vs the per-request one-shard engine, including
/// per-database probe accounting.
fn assert_sharded_equivalent(
    indexes: &[InvertedIndex],
    lib: &EdLibrary,
    queries: &[Query],
    config: AproConfig,
    expected: &[MetasearchResult],
    expected_counts: &[u64],
) {
    for shards in SHARD_COUNTS {
        let assignment = ShardAssignment::RoundRobin(shards);
        let sharded = flat_twin(indexes, lib).partitioned(&assignment);
        let got = sharded.search_batch_with_rds(items(&sharded, queries, config), 5);
        assert_eq!(got.len(), expected.len());
        for (i, (g, e)) in got.iter().zip(expected).enumerate() {
            assert_eq!(g, e, "request {i} diverged batched at {shards} shards");
        }
        assert_eq!(
            flat_probe_counts(&sharded),
            expected_counts,
            "probe counters diverged batched at {shards} shards"
        );
    }
}

/// Batches covering every overlap shape over terms 0..4.
fn overlap_batches() -> Vec<Vec<Query>> {
    let a = Query::new([t(0), t(1)]);
    let b = Query::new([t(1), t(3)]);
    let c = Query::new([t(0), t(2)]);
    let d = Query::new([t(2), t(3)]);
    vec![
        // Identical duplicates: hot-key case, maximal sharing.
        vec![a.clone(), a.clone(), a.clone()],
        // Disjoint-ish mix plus duplicates.
        vec![a.clone(), b.clone(), a.clone(), c.clone()],
        // Partial overlap chain a–b–d (shared terms 1 and 3).
        vec![a.clone(), b.clone(), d.clone()],
        // Singleton batch: must equal the solo path exactly.
        vec![b.clone()],
        // Everything at once, shuffled order with repeats.
        vec![d, c, a.clone(), b, a],
    ]
}

#[test]
fn fixed_overlap_shapes_are_bit_identical() {
    let specs: Vec<(u8, u8)> = (0u8..5)
        .map(|i| (41u8.wrapping_mul(i + 1), 13u8.wrapping_mul(i)))
        .collect();
    let indexes = build_indexes(&specs);
    let lib = library(&stack(&indexes));
    for batch in overlap_batches() {
        for (k, threshold) in [(1, 0.95), (2, 0.9)] {
            let config = apro_config(k, threshold);
            let solo = flat_twin(&indexes, &lib);
            let expected = assert_flat_equivalent(&indexes, &lib, &batch, config);
            for q in &batch {
                let mut policy = GreedyPolicy;
                solo.search_with_rds(q, solo.rds(q), config, &mut policy, 5);
            }
            assert_sharded_equivalent(
                &indexes,
                &lib,
                &batch,
                config,
                &expected,
                &flat_probe_counts(&solo),
            );
        }
    }
}

#[test]
fn empty_batch_returns_empty() {
    let indexes = build_indexes(&[(10, 3), (20, 5)]);
    let lib = library(&stack(&indexes));
    let ms = flat_twin(&indexes, &lib);
    assert!(ms.search_batch_with_rds(Vec::new(), 5).is_empty());
    assert_eq!(flat_probe_counts(&ms), vec![0, 0]);
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(10))]

    /// Random fleets × random batches (sizes 1..7, queries drawn from a
    /// small pool so duplicates and partial overlaps occur naturally):
    /// the batch executor replays per-request execution bit-for-bit at
    /// every shard count.
    #[test]
    fn random_batches_are_bit_identical(
        specs in proptest::collection::vec((0u8..=255, 0u8..=255), 2..7),
        picks in proptest::collection::vec(0usize..6, 1..7),
        k in 1usize..3,
    ) {
        let pool = [
            Query::new([t(0), t(1)]),
            Query::new([t(1), t(3)]),
            Query::new([t(0), t(2)]),
            Query::new([t(2), t(3)]),
            Query::new([t(3)]),
            Query::new([t(0), t(1), t(2)]),
        ];
        let indexes = build_indexes(&specs);
        let lib = library(&stack(&indexes));
        let batch: Vec<Query> = picks.iter().map(|&p| pool[p].clone()).collect();
        let config = apro_config(k.min(indexes.len()), 0.9);

        let expected = assert_flat_equivalent(&indexes, &lib, &batch, config);
        let solo = flat_twin(&indexes, &lib);
        for q in &batch {
            let mut policy = GreedyPolicy;
            solo.search_with_rds(q, solo.rds(q), config, &mut policy, 5);
        }
        assert_sharded_equivalent(
            &indexes,
            &lib,
            &batch,
            config,
            &expected,
            &flat_probe_counts(&solo),
        );
    }
}
