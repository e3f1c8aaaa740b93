//! Satellite (a): the serving layer is a *transparent* concurrency and
//! caching wrapper — for every request, the response equals what a
//! direct sequential [`Metasearcher::search`] call produces, regardless
//! of worker count and whether the result cache is on.
//!
//! Each answer is a pure function of `(Metasearcher, request)`, so
//! threads can only reorder *which* request computes first, never
//! change what any request computes.

use std::sync::Arc;

use mp_core::probing::GreedyPolicy;
use mp_core::{AproConfig, CorrectnessMetric, IndependenceEstimator, Metasearcher, RelevancyDef};
use mp_eval::testbed::{Testbed, TestbedConfig};
use mp_serve::{CacheStatus, ServeConfig, ServeRequest, Server};
use mp_workload::Query;

const K: usize = 2;
const THRESHOLD: f64 = 0.85;
const FUSE_LIMIT: usize = 10;

fn shared_metasearcher(tb: &Testbed) -> Arc<Metasearcher> {
    Metasearcher::with_library(
        tb.mediator.clone(),
        Box::new(IndependenceEstimator),
        RelevancyDef::DocFrequency,
        tb.library.clone(),
    )
    .shared()
}

fn request(q: &Query) -> ServeRequest {
    ServeRequest::new(q.clone(), K, THRESHOLD)
}

#[test]
fn serving_is_equivalent_to_sequential_search() {
    let tb = Testbed::build(TestbedConfig::tiny(11));
    let queries: Vec<Query> = tb.split.test.queries().to_vec();
    assert_eq!(queries.len(), 200, "tiny testbed ships 200 test queries");
    // Each query at two result-cache keys, so every query computes
    // twice, from RDs of its own each time.
    let requests: Vec<ServeRequest> = queries
        .iter()
        .flat_map(|q| {
            [(K, THRESHOLD), (1, 0.95)]
                .map(|(k, threshold)| ServeRequest::new(q.clone(), k, threshold))
        })
        .collect();

    let ms = shared_metasearcher(&tb);
    let expected: Vec<_> = requests
        .iter()
        .map(|req| {
            let config = AproConfig {
                k: req.k,
                threshold: req.threshold,
                metric: CorrectnessMetric::Partial,
                max_probes: None,
            };
            ms.search(&req.query, config, &mut GreedyPolicy, FUSE_LIMIT)
        })
        .collect();
    assert!(
        expected.iter().any(|r| r.probes_used > 0),
        "the stream must probe"
    );

    for workers in [1usize, 4, 8] {
        for cache_cap in [0usize, 256] {
            let server = Server::new(Arc::clone(&ms), ServeConfig::new(workers, cache_cap));
            let responses = server.serve_batch(requests.iter().cloned());
            assert_eq!(responses.len(), requests.len());
            for (i, resp) in responses.into_iter().enumerate() {
                let resp = resp.unwrap_or_else(|e| {
                    panic!("request {i} rejected under workers={workers} cache={cache_cap}: {e}")
                });
                assert_eq!(
                    resp.result, expected[i],
                    "request {i} diverged under workers={workers} cache={cache_cap}"
                );
                if cache_cap == 0 {
                    assert_eq!(resp.cache, CacheStatus::Bypass);
                }
            }
            let stats = server.stats();
            assert_eq!(stats.completed, requests.len() as u64);
            assert_eq!(stats.rejects, 0);
            if cache_cap == 0 {
                assert_eq!(stats.hits + stats.dedup_joins, 0, "cap 0 disables caching");
            }
            // Each computed request derives its own RDs, exactly once.
            assert_eq!(stats.rd_hits, 0);
            assert_eq!(stats.rd_misses, stats.misses);
        }
    }
}

#[test]
fn duplicate_heavy_stream_is_answered_from_the_cache() {
    let tb = Testbed::build(TestbedConfig::tiny(12));
    let ms = shared_metasearcher(&tb);
    let unique: Vec<Query> = tb.split.test.queries().iter().take(10).cloned().collect();
    let repeats = 5usize;

    let server = Server::new(Arc::clone(&ms), ServeConfig::new(4, 256));
    let stream = (0..repeats).flat_map(|_| unique.iter().map(request));
    let responses = server.serve_batch(stream);

    let mut policy = GreedyPolicy;
    for (i, resp) in responses.into_iter().enumerate() {
        let resp = resp.expect("no rejection under back-pressure submission");
        let q = &unique[i % unique.len()];
        let direct = ms.search(
            q,
            AproConfig {
                k: K,
                threshold: THRESHOLD,
                metric: CorrectnessMetric::Partial,
                max_probes: None,
            },
            &mut policy,
            FUSE_LIMIT,
        );
        assert_eq!(resp.result, direct, "stream position {i}");
    }

    // Each unique key is computed exactly once; every repeat either hit
    // the cache or joined the in-flight leader. No eviction at cap 256.
    let stats = server.stats();
    let total = (unique.len() * repeats) as u64;
    assert_eq!(stats.completed, total);
    assert_eq!(stats.misses, unique.len() as u64, "one computation per key");
    assert_eq!(stats.hits + stats.dedup_joins, total - unique.len() as u64);
    assert_eq!(server.cache_len(), unique.len());

    // With one worker the drain is strictly FIFO, so every repeat finds
    // the leader already published: all-hits, zero joins, exactly.
    let server = Server::new(Arc::clone(&ms), ServeConfig::new(1, 256));
    let stream = (0..repeats).flat_map(|_| unique.iter().map(request));
    for resp in server.serve_batch(stream) {
        resp.expect("no rejection under back-pressure submission");
    }
    let stats = server.stats();
    assert_eq!(stats.misses, unique.len() as u64);
    assert_eq!(stats.hits, total - unique.len() as u64);
    assert_eq!(stats.dedup_joins, 0);
}
