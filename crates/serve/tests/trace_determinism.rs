//! Trace determinism: per-request waterfalls are a pure function of the
//! request schedule.
//!
//! [`mp_obs::TraceId`]s are session-monotonic (allocated by the server's
//! stats core, no ambient clock or randomness), and with timings
//! redacted a trace's JSON carries only ids, event names, kinds,
//! values, and order — all of which replay exactly for a deterministic
//! workload. Two properties are pinned:
//!
//! 1. **Byte-identical replay** — the same flaky fixture served twice
//!    (1 worker, sequential submit-then-wait, so queue depths are
//!    deterministically 0) yields byte-identical redacted trace JSON.
//! 2. **Exactly-once across merged buffers** — at any worker count,
//!    draining the striped sink returns every submitted request's trace
//!    exactly once, sorted by id, no matter which worker's shard it
//!    landed in.

use std::sync::Arc;

use mp_core::{EdLibrary, IndependenceEstimator, Metasearcher, RelevancyDef};
use mp_corpus::{Scenario, ScenarioConfig, ScenarioKind};
use mp_hidden::{ContentSummary, HiddenWebDatabase, Mediator, SimulatedHiddenDb, UnreliableDb};
use mp_serve::{ServeConfig, ServeRequest, Server, Ticket};
use mp_workload::{Query, QueryGenConfig, TrainTestSplit};

const K: usize = 1;
const THRESHOLD: f64 = 0.9;
const FAILURE_RATE: f64 = 0.3;
const NOISE_RATE: f64 = 0.2;
const NOISE_SPAN: f64 = 0.2;
const RETRIES: u32 = 2;

struct Fixture {
    inner: Vec<Arc<dyn HiddenWebDatabase>>,
    summaries: Vec<ContentSummary>,
    library: EdLibrary,
    queries: Vec<Query>,
}

/// Clean substrate (same shape as the retry-budget twin tests): library
/// trained on reliable databases, flaky wrappers added per run so the
/// injection RNG replays from the same point every time.
fn fixture() -> Fixture {
    let scenario = Scenario::generate(ScenarioConfig::tiny(ScenarioKind::Health, 33));
    let (model, parts) = scenario.into_parts();
    let mut inner: Vec<Arc<dyn HiddenWebDatabase>> = Vec::new();
    let mut summaries = Vec::new();
    for (spec, index) in parts {
        summaries.push(ContentSummary::cooperative(&index));
        inner.push(Arc::new(SimulatedHiddenDb::new(spec.name, index)));
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
    let clean = Mediator::new(inner.clone(), summaries.clone());
    let config = mp_core::CoreConfig::default().with_threshold(10.0);
    let library = EdLibrary::train(
        &clean,
        &IndependenceEstimator,
        RelevancyDef::DocFrequency,
        split.train.queries(),
        &config,
    );
    let queries = split.test.queries().iter().take(12).cloned().collect();
    Fixture {
        inner,
        summaries,
        library,
        queries,
    }
}

fn flaky_metasearcher(fx: &Fixture) -> Arc<Metasearcher> {
    let dbs: Vec<Arc<dyn HiddenWebDatabase>> = fx
        .inner
        .iter()
        .enumerate()
        .map(|(i, base)| {
            Arc::new(
                UnreliableDb::new(
                    Arc::clone(base),
                    FAILURE_RATE,
                    NOISE_RATE,
                    NOISE_SPAN,
                    1_000 + i as u64,
                )
                .with_retries(RETRIES),
            ) as Arc<dyn HiddenWebDatabase>
        })
        .collect();
    Metasearcher::with_library(
        Mediator::new(dbs, fx.summaries.clone()),
        Box::new(IndependenceEstimator),
        RelevancyDef::DocFrequency,
        fx.library.clone(),
    )
    .shared()
}

fn traced_server(fx: &Fixture, workers: usize) -> Server {
    Server::new(
        flaky_metasearcher(fx),
        ServeConfig::new(workers, 256).with_trace(true),
    )
}

/// One serving session over the fixture's query stream; `sequential`
/// waits for each response before submitting the next request (the
/// deterministic-schedule mode the byte-compare relies on).
fn run_traced(fx: &Fixture, workers: usize, sequential: bool) -> Vec<mp_obs::Trace> {
    mp_obs::set_enabled(true);
    let server = traced_server(fx, workers);
    server.run(|client| {
        if sequential {
            for q in &fx.queries {
                let resp = client
                    .submit(ServeRequest::new(q.clone(), K, THRESHOLD))
                    .and_then(Ticket::wait)
                    .expect("request served");
                assert!(resp.latency_us < u64::MAX);
            }
        } else {
            let tickets: Vec<_> = fx
                .queries
                .iter()
                .map(|q| client.submit(ServeRequest::new(q.clone(), K, THRESHOLD)))
                .collect();
            for t in tickets {
                t.and_then(Ticket::wait).expect("request served");
            }
        }
    });
    server.drain_traces()
}

/// Redacted deterministic serialization of a whole run.
fn redacted_json(traces: &mut [mp_obs::Trace]) -> String {
    let mut out = String::new();
    for t in traces.iter_mut() {
        t.redact_timings();
        out.push_str(&t.to_json());
        out.push('\n');
    }
    out
}

#[test]
fn sequential_single_worker_runs_replay_byte_identical_trace_json() {
    let fx = fixture();
    let mut first = run_traced(&fx, 1, true);
    let mut second = run_traced(&fx, 1, true);

    // The traces are substantive, not vacuously equal: every request
    // carries its queue-wait stage, deterministic queue depths, and a
    // cache-status annotation; the unique stream makes them all misses.
    assert_eq!(first.len(), fx.queries.len());
    for t in &first {
        assert!(t.has_event("serve.queue_wait"), "{t:?}");
        assert!(t.has_event("serve.cache_miss"), "{t:?}");
        assert!(t.has_event("serve.request"), "{t:?}");
        assert_eq!(
            t.find("serve.queue_depth_at_submit").map(|e| e.value),
            Some(0),
            "sequential submit sees an empty queue"
        );
    }
    // The flaky wrappers are hostile enough that retry breadcrumbs
    // appear somewhere in the stream (deterministic: injection seeded).
    assert!(
        first.iter().any(|t| t.has_event("probe.retry")),
        "no probe.retry annotation in any waterfall"
    );

    let a = redacted_json(&mut first);
    let b = redacted_json(&mut second);
    assert_eq!(a, b, "redacted trace JSON must replay byte-for-byte");
}

#[test]
fn sink_drain_is_exactly_once_at_every_worker_count() {
    let fx = fixture();
    for workers in [1usize, 2, 4] {
        let traces = run_traced(&fx, workers, false);
        let ids: Vec<u64> = traces.iter().map(|t| t.id.0).collect();
        let expected: Vec<u64> = (1..=fx.queries.len() as u64).collect();
        assert_eq!(
            ids, expected,
            "every request's trace drains exactly once, sorted, at {workers} workers"
        );
    }
}

#[test]
fn drain_is_empty_without_the_trace_flag() {
    let fx = fixture();
    mp_obs::set_enabled(true);
    let server = Server::new(flaky_metasearcher(&fx), ServeConfig::new(1, 256));
    for r in server.serve_batch(
        fx.queries
            .iter()
            .take(3)
            .map(|q| ServeRequest::new(q.clone(), K, THRESHOLD)),
    ) {
        r.expect("request served");
    }
    assert!(server.drain_traces().is_empty());
    assert!(server.flight_recorder().is_empty());
}
