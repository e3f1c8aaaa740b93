//! Batched-vs-sequential twin replay across the shards × window ×
//! workers matrix.
//!
//! `mp-core`'s `batch_equivalence` suite proves the lock-step batch
//! executor replays per-request execution bit-for-bit *in isolation*;
//! this suite proves the serving tier preserves that through queues,
//! batch-draining worker pools, in-batch dedup, and caches. For
//! shards ∈ {1, 3} × batch windows ∈ {2, 8} × workers ∈ {1, 4}, with
//! caching off and on:
//!
//! * every served response's [`MetasearchResult`] equals the sequential
//!   flat twin's direct `search` answer exactly (`PartialEq` compares
//!   probe traces, certainties, and fused scores bit-for-bit);
//! * per-database probe counters match the sequential twin exactly —
//!   term-sharing batches save postings traversals, never probes.
//!
//! Twin stacks keep the comparison honest: the served fleet and the
//! sequential fleet are separate `SimulatedHiddenDb` instances built
//! from identical deterministic inputs. The stacks here are *clean*
//! (no failure injection): batched execution reorders the global
//! interleaving of probes across concurrent requests, so it is only
//! transparent over databases whose answers are pure functions of
//! `(database, query)` — the caveat `mp_core::batch` documents. The
//! per-request path keeps its injection-exactness coverage in
//! `retry_budget.rs`.

use std::sync::Arc;

use mp_core::{
    AproConfig, CoreConfig, CorrectnessMetric, EdLibrary, IndependenceEstimator, Metasearcher,
    RelevancyDef, ShardAssignment,
};
use mp_corpus::{Scenario, ScenarioConfig, ScenarioKind};
use mp_hidden::{ContentSummary, HiddenWebDatabase, Mediator, SimulatedHiddenDb};
use mp_serve::{ServeConfig, ServeRequest, Server, Ticket};
use mp_workload::{Query, QueryGenConfig, TrainTestSplit};

const K: usize = 1;
const THRESHOLD: f64 = 0.9;
const FUSE_LIMIT: usize = 10;

const SHARD_COUNTS: [usize; 2] = [1, 3];
const WINDOWS: [usize; 2] = [2, 8];
const WORKER_COUNTS: [usize; 2] = [1, 4];

struct Fixture {
    parts: Vec<(String, mp_index::InvertedIndex)>,
    summaries: Vec<ContentSummary>,
    library: EdLibrary,
    /// The request stream: test queries followed by a repeat of the
    /// same queries, so hot keys (in-batch duplicates and cross-batch
    /// cache hits) occur naturally.
    stream: Vec<Query>,
}

fn fixture() -> Fixture {
    let scenario = Scenario::generate(ScenarioConfig::tiny(ScenarioKind::Health, 33));
    let (model, raw_parts) = scenario.into_parts();
    let mut parts = Vec::new();
    let mut summaries = Vec::new();
    for (spec, index) in raw_parts {
        summaries.push(ContentSummary::cooperative(&index));
        parts.push((spec.name, index));
    }
    let split = TrainTestSplit::generate(
        &model,
        60,
        40,
        QueryGenConfig {
            window: 12,
            seed: 33 ^ 0xFEED,
            ..QueryGenConfig::default()
        },
    );
    let clean_dbs: Vec<Arc<dyn HiddenWebDatabase>> = parts
        .iter()
        .map(|(name, index)| {
            Arc::new(SimulatedHiddenDb::new(name.clone(), index.clone()))
                as Arc<dyn HiddenWebDatabase>
        })
        .collect();
    let clean = Mediator::new(clean_dbs, summaries.clone());
    let config = CoreConfig::default().with_threshold(10.0);
    let library = EdLibrary::train(
        &clean,
        &IndependenceEstimator,
        RelevancyDef::DocFrequency,
        split.train.queries(),
        &config,
    );
    clean.reset_probes();
    let unique: Vec<Query> = split.test.queries().iter().take(10).cloned().collect();
    let stream: Vec<Query> = unique.iter().chain(unique.iter()).cloned().collect();
    Fixture {
        parts,
        summaries,
        library,
        stream,
    }
}

/// One independent clean stack (fresh probe counters per twin).
fn clean_stack(fx: &Fixture) -> (Vec<Arc<SimulatedHiddenDb>>, Mediator) {
    let handles: Vec<Arc<SimulatedHiddenDb>> = fx
        .parts
        .iter()
        .map(|(name, index)| Arc::new(SimulatedHiddenDb::new(name.clone(), index.clone())))
        .collect();
    let dbs: Vec<Arc<dyn HiddenWebDatabase>> = handles
        .iter()
        .map(|h| Arc::clone(h) as Arc<dyn HiddenWebDatabase>)
        .collect();
    (handles, Mediator::new(dbs, fx.summaries.clone()))
}

fn probe_counts(handles: &[Arc<SimulatedHiddenDb>]) -> Vec<u64> {
    handles.iter().map(|h| h.probe_count()).collect()
}

fn request(q: &Query) -> ServeRequest {
    ServeRequest::new(q.clone(), K, THRESHOLD)
}

fn apro_config() -> AproConfig {
    AproConfig {
        k: K,
        threshold: THRESHOLD,
        metric: CorrectnessMetric::Partial,
        max_probes: None,
    }
}

/// The sequential flat baseline over the full (duplicated) stream,
/// computing every request independently — what a cache-off server
/// must replay probe-for-probe.
fn sequential_baseline(fx: &Fixture) -> (Vec<mp_core::MetasearchResult>, Vec<u64>) {
    let (handles, mediator) = clean_stack(fx);
    let ms = Metasearcher::with_library(
        mediator,
        Box::new(IndependenceEstimator),
        RelevancyDef::DocFrequency,
        fx.library.clone(),
    );
    let results = fx
        .stream
        .iter()
        .map(|q| {
            let mut policy = mp_core::GreedyPolicy;
            ms.search(q, apro_config(), &mut policy, FUSE_LIMIT)
        })
        .collect();
    (results, probe_counts(&handles))
}

fn serve_stream(server: &Server, stream: &[Query]) -> Vec<mp_core::MetasearchResult> {
    server.run(|client| {
        let tickets: Vec<_> = stream.iter().map(|q| client.submit(request(q))).collect();
        tickets
            .into_iter()
            .map(|t| t.and_then(Ticket::wait).expect("request served").result)
            .collect::<Vec<_>>()
    })
}

#[test]
fn batched_serving_replays_sequential_flat_twin_exactly() {
    let fx = fixture();
    let (baseline, base_counts) = sequential_baseline(&fx);
    for shards in SHARD_COUNTS {
        for window in WINDOWS {
            for workers in WORKER_COUNTS {
                // Cache off: every request computes (duplicates
                // included), so probe accounting is comparable
                // request-for-request.
                let (handles, mediator) = clean_stack(&fx);
                let ms = Metasearcher::with_library(
                    mediator,
                    Box::new(IndependenceEstimator),
                    RelevancyDef::DocFrequency,
                    fx.library.clone(),
                )
                .partitioned(&ShardAssignment::RoundRobin(shards))
                .shared();
                let server =
                    Server::new(ms, ServeConfig::new(workers, 0).with_batch_window(window));
                let served = serve_stream(&server, &fx.stream);
                let at = format!("{shards} shards × window {window} × {workers} workers");
                assert_eq!(served, baseline, "served results diverged at {at}");
                assert_eq!(
                    probe_counts(&handles),
                    base_counts,
                    "probe accounting diverged at {at}"
                );
            }
        }
    }
}

#[test]
fn batched_caching_layers_stay_transparent() {
    let fx = fixture();
    let (baseline, _) = sequential_baseline(&fx);
    let unique = fx.stream.len() / 2;

    // Single-pass baseline accounting: with the cache on, each unique
    // request's probes are served exactly once no matter how the
    // duplicates land (in-batch dedup, flight joins, or cache hits).
    let single_pass_counts = {
        let (handles, mediator) = clean_stack(&fx);
        let ms = Metasearcher::with_library(
            mediator,
            Box::new(IndependenceEstimator),
            RelevancyDef::DocFrequency,
            fx.library.clone(),
        );
        for q in &fx.stream[..unique] {
            let mut policy = mp_core::GreedyPolicy;
            ms.search(q, apro_config(), &mut policy, FUSE_LIMIT);
        }
        probe_counts(&handles)
    };

    let (handles, mediator) = clean_stack(&fx);
    let ms = Metasearcher::with_library(
        mediator,
        Box::new(IndependenceEstimator),
        RelevancyDef::DocFrequency,
        fx.library.clone(),
    )
    .shared();
    let server = Server::new(ms, ServeConfig::new(4, 256).with_batch_window(8));
    let served = serve_stream(&server, &fx.stream);
    assert_eq!(served, baseline, "cached batched results diverged");
    assert_eq!(
        probe_counts(&handles),
        single_pass_counts,
        "each unique request must compute exactly once under the cache"
    );
    let stats = server.stats();
    assert_eq!(stats.completed, fx.stream.len() as u64);
    assert_eq!(
        stats.hits + stats.misses + stats.dedup_joins,
        stats.completed
    );
    assert_eq!(stats.misses, unique as u64, "one compute per unique key");
}

/// A single-worker server whose driver floods the queue before waiting
/// actually forms multi-request batches (the worker's first blocking
/// pop anchors a batch; everything already queued joins the window).
#[test]
fn batches_actually_form_under_backlog() {
    let fx = fixture();
    let (handles, mediator) = clean_stack(&fx);
    let _ = &handles;
    let ms = Metasearcher::with_library(
        mediator,
        Box::new(IndependenceEstimator),
        RelevancyDef::DocFrequency,
        fx.library.clone(),
    )
    .shared();
    let server = Server::new(ms, ServeConfig::new(1, 0).with_batch_window(8));
    let served = serve_stream(&server, &fx.stream);
    assert_eq!(served.len(), fx.stream.len());
    let stats = server.stats();
    assert_eq!(stats.completed, fx.stream.len() as u64);
    // The driver enqueues far faster than a metasearch completes, so a
    // single worker must have drained at least one multi-request batch.
    assert!(
        stats.batches >= 1,
        "expected at least one multi-request batch, stats: {stats:?}"
    );
    assert!(stats.batched_requests >= 2 * stats.batches);
}
