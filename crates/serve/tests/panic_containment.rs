//! A request whose computation panics fails alone: it is answered
//! [`ServeError::Internal`], every other request still gets exactly the
//! sequential answer, and the worker that caught the panic serves on.
//!
//! Every database of a tiny testbed is wrapped so that `search` panics
//! on one test query's exact terms, and the stream holds that query
//! twice. Each session runs on a spawned thread and the test waits for
//! it with a timeout, so a regression (a ticket nobody fills, a worker
//! that died) fails the test instead of hanging it. With tracing on, a
//! panicked request still leaves its waterfall and a `panicked` flight.

#![expect(
    clippy::disallowed_methods,
    reason = "each session runs on its own thread so that a hang fails the test instead of stalling it"
)]

use std::sync::{mpsc, Arc};
use std::time::Duration;

use mp_core::probing::GreedyPolicy;
use mp_core::{AproConfig, CorrectnessMetric, IndependenceEstimator, Metasearcher, RelevancyDef};
use mp_eval::testbed::{Testbed, TestbedConfig};
use mp_hidden::{HiddenWebDatabase, Mediator, SearchResponse};
use mp_index::{DocId, Document};
use mp_serve::{ServeConfig, ServeError, ServeRequest, ServeResponse, ServeStats, Server};
use mp_text::TermId;
use mp_workload::Query;

const K: usize = 2;
const THRESHOLD: f64 = 0.85;
const FUSE_LIMIT: usize = 10;

/// Forwards to `inner`, except that searching for `poison` panics.
struct PoisonedDb {
    inner: Arc<dyn HiddenWebDatabase>,
    poison: Vec<TermId>,
}

impl HiddenWebDatabase for PoisonedDb {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn search(&self, query: &[TermId], top_n: usize) -> SearchResponse {
        assert!(query != self.poison.as_slice(), "injected panic");
        self.inner.search(query, top_n)
    }

    fn fetch(&self, doc: DocId) -> Document {
        self.inner.fetch(doc)
    }

    fn size_hint(&self) -> Option<u32> {
        self.inner.size_hint()
    }

    fn probe_count(&self) -> u64 {
        self.inner.probe_count()
    }

    fn reset_probes(&self) {
        self.inner.reset_probes();
    }
}

fn metasearcher(tb: &Testbed, mediator: Mediator) -> Arc<Metasearcher> {
    Metasearcher::with_library(
        mediator,
        Box::new(IndependenceEstimator),
        RelevancyDef::DocFrequency,
        tb.library.clone(),
    )
    .shared()
}

fn config() -> AproConfig {
    AproConfig {
        k: K,
        threshold: THRESHOLD,
        metric: CorrectnessMetric::Partial,
        max_probes: None,
    }
}

/// What one session left behind.
struct Served {
    responses: Vec<Result<ServeResponse, ServeError>>,
    stats: ServeStats,
    flights: Vec<mp_obs::RecordedFlight>,
    traces: Vec<mp_obs::Trace>,
}

/// Serves `stream` in a session on its own thread; `None` when the
/// session has not returned within a minute. A hung session's thread
/// is left detached, since it can never be joined.
fn serve_with_timeout(
    ms: &Arc<Metasearcher>,
    config: ServeConfig,
    stream: &[Query],
) -> Option<Served> {
    let (tx, rx) = mpsc::channel();
    let ms = Arc::clone(ms);
    let stream = stream.to_vec();
    let session = std::thread::spawn(move || {
        let server = Server::new(ms, config);
        let responses = server.serve_batch(
            stream
                .into_iter()
                .map(|q| ServeRequest::new(q, K, THRESHOLD)),
        );
        // The receiver is gone only when the test already failed.
        let _ = tx.send(Served {
            responses,
            stats: server.stats(),
            flights: server.flight_recorder().flights(),
            traces: server.drain_traces(),
        });
    });
    let served = rx.recv_timeout(Duration::from_secs(60)).ok()?;
    session.join().expect("the session thread must not panic");
    Some(served)
}

/// A metasearcher whose databases panic on `poison`, one over the same
/// databases that never panics, and a stream holding `poison` twice
/// among healthy queries.
struct Fixture {
    poisoned: Arc<Metasearcher>,
    clean: Arc<Metasearcher>,
    poison: Query,
    healthy: Vec<Query>,
    stream: Vec<Query>,
}

fn fixture() -> Fixture {
    let tb = Testbed::build(TestbedConfig::tiny(11));
    let test_queries = tb.split.test.queries();
    let poison = test_queries[0].clone();
    let healthy: Vec<Query> = test_queries
        .iter()
        .filter(|q| q.terms() != poison.terms())
        .take(12)
        .cloned()
        .collect();
    let mut stream = vec![poison.clone()];
    stream.extend_from_slice(&healthy[..6]);
    stream.push(poison.clone());
    stream.extend_from_slice(&healthy[6..]);

    let dbs: Vec<Arc<dyn HiddenWebDatabase>> = (0..tb.mediator.len())
        .map(|i| {
            Arc::new(PoisonedDb {
                inner: tb.mediator.db_arc(i),
                poison: poison.terms().to_vec(),
            }) as Arc<dyn HiddenWebDatabase>
        })
        .collect();
    Fixture {
        poisoned: metasearcher(&tb, Mediator::new(dbs, tb.mediator.summaries().to_vec())),
        clean: metasearcher(&tb, tb.mediator.clone()),
        poison,
        healthy,
        stream,
    }
}

#[test]
fn a_panicking_request_fails_alone_and_the_worker_serves_on() {
    let Fixture {
        poisoned,
        clean,
        poison,
        healthy,
        stream,
    } = fixture();
    for workers in [1usize, 4] {
        for cache_cap in [0usize, 256] {
            let Some(Served {
                responses, stats, ..
            }) = serve_with_timeout(&poisoned, ServeConfig::new(workers, cache_cap), &stream)
            else {
                panic!("workers={workers} cache={cache_cap}: the session hung");
            };
            assert_eq!(responses.len(), stream.len());
            for (q, response) in stream.iter().zip(responses) {
                if q.terms() == poison.terms() {
                    assert_eq!(
                        response.map(|r| r.result),
                        Err(ServeError::Internal),
                        "workers={workers} cache={cache_cap}"
                    );
                } else {
                    let expected = clean.search(q, config(), &mut GreedyPolicy, FUSE_LIMIT);
                    let got = response.unwrap_or_else(|e| {
                        panic!("workers={workers} cache={cache_cap}: healthy query failed: {e}")
                    });
                    assert_eq!(got.result, expected, "workers={workers} cache={cache_cap}");
                }
            }
            assert_eq!(stats.panicked, 2, "workers={workers} cache={cache_cap}");
            assert_eq!(stats.completed, healthy.len() as u64);
        }
    }
}

#[test]
fn a_panicked_request_leaves_a_waterfall_and_a_flight() {
    use mp_obs::FlightReason;

    mp_obs::set_enabled(true);
    let Fixture {
        poisoned, stream, ..
    } = fixture();
    for workers in [1usize, 4] {
        for cache_cap in [0usize, 256] {
            let config = ServeConfig::new(workers, cache_cap).with_trace(true);
            let Some(served) = serve_with_timeout(&poisoned, config, &stream) else {
                panic!("workers={workers} cache={cache_cap}: the session hung");
            };
            let panicked: Vec<&mp_obs::RecordedFlight> = served
                .flights
                .iter()
                .filter(|f| f.reason == FlightReason::Panicked)
                .collect();
            assert_eq!(panicked.len(), 2, "workers={workers} cache={cache_cap}");
            for flight in panicked {
                assert!(flight.trace.has_event("serve.queue_wait"));
                assert!(flight.trace.has_event("serve.panicked"));
            }
            // Every request, the panicked ones included, drains a
            // waterfall.
            assert_eq!(served.traces.len(), stream.len());
            let drained = served
                .traces
                .iter()
                .filter(|t| t.has_event("serve.panicked"))
                .count();
            assert_eq!(drained, 2, "workers={workers} cache={cache_cap}");
        }
    }
}
