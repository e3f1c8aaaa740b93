//! The acceptance scenario for the flight recorder: a deterministic
//! serve run drives a deadline-missed request through a busy 1-worker
//! server, and the recorder keeps the full story — the miss itself
//! (with its queue wait) plus the slow completions whose waterfalls
//! show the cache miss, the engine span, and the probe retries — under
//! stable [`mp_obs::TraceId`]s that replay across runs.

use std::sync::Arc;
use std::time::Duration;

use mp_core::{EdLibrary, IndependenceEstimator, Metasearcher, RelevancyDef};
use mp_corpus::{Scenario, ScenarioConfig, ScenarioKind};
use mp_hidden::{ContentSummary, HiddenWebDatabase, Mediator, SimulatedHiddenDb, UnreliableDb};
use mp_obs::FlightReason;
use mp_serve::{ServeConfig, ServeError, ServeRequest, Server, Ticket};
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

/// One run: every fixture query submitted up front (they queue behind a
/// single worker), then one more request with a zero deadline — by the
/// time the worker reaches it, its deadline has passed no matter how
/// the scheduler raced, so the miss is deterministic. Returns the
/// server for inspection after the pool drains.
fn drive(fx: &Fixture) -> Server {
    mp_obs::set_enabled(true);
    let config = ServeConfig {
        flight_recorder_cap: 64, // hold every flight: ids stay stable
        ..ServeConfig::new(1, 256)
    }
    .with_trace(true);
    let server = Server::new(flaky_metasearcher(fx), config);
    server.run(|client| {
        let tickets: Vec<_> = fx
            .queries
            .iter()
            .map(|q| client.submit(ServeRequest::new(q.clone(), K, THRESHOLD)))
            .collect();
        let late = client.submit(
            ServeRequest::new(fx.queries[0].clone(), K, THRESHOLD).with_deadline(Duration::ZERO),
        );
        for t in tickets {
            t.and_then(Ticket::wait).expect("request served");
        }
        assert_eq!(
            late.and_then(Ticket::wait),
            Err(ServeError::DeadlineExceeded),
            "the zero-deadline request must miss"
        );
    });
    server
}

#[test]
fn deadline_missed_flight_records_the_full_waterfall() {
    let fx = fixture();
    let server = drive(&fx);
    let n = fx.queries.len() as u64;

    let stats = server.stats();
    assert_eq!(stats.deadline_misses, 1);
    assert_eq!(stats.completed, n);

    let flights = server.flight_recorder().flights();
    assert_eq!(
        flights.len() as u64,
        n + 1,
        "every completion plus the miss fits under the recorder cap"
    );

    // Report order puts the forced flight first. Its id is the last one
    // allocated (submitted after the whole stream), and its waterfall
    // holds the queue wait that killed it.
    let missed = &flights[0];
    assert_eq!(missed.reason, FlightReason::DeadlineMissed);
    assert_eq!(missed.trace.id, mp_obs::TraceId(n + 1));
    assert!(missed.trace.has_event("serve.queue_wait"));
    assert!(
        !missed.trace.has_event("serve.request"),
        "a missed request is never computed"
    );

    // Every slow completion carries the full story: queue wait, cache
    // miss (the stream is unique), and the engine span.
    for f in &flights[1..] {
        assert_eq!(f.reason, FlightReason::Slow);
        assert!(f.trace.has_event("serve.queue_wait"), "{:?}", f.trace);
        assert!(f.trace.has_event("serve.cache_miss"), "{:?}", f.trace);
        assert!(f.trace.has_event("serve.request"), "{:?}", f.trace);
        assert!(f.trace.has_event("apro.run"), "{:?}", f.trace);
        assert!(f.trace.has_event("apro.probes"), "{:?}", f.trace);
    }
    // And the flaky databases left their retry breadcrumbs somewhere
    // (deterministic: injection is seeded).
    assert!(
        flights.iter().any(|f| f.trace.has_event("probe.retry")),
        "no probe.retry in any kept waterfall"
    );
    assert!(
        flights.iter().any(|f| f.trace.has_event("probe.outage")),
        "no probe.outage in any kept waterfall"
    );

    // The human rendering and the JSON dump agree on the contents.
    let rendered = server.flight_recorder().render();
    assert!(rendered.contains(&format!("flight recorder: {} flight(s)", n + 1)));
    assert!(rendered.contains("[deadline_missed]"));
    let json = server.flight_recorder().to_json();
    assert!(json.starts_with("{\"schema\":\"mp-obs-trace/1\""));
    assert!(json.contains("\"reason\":\"deadline_missed\""));
}

#[test]
fn flight_ids_are_stable_across_runs() {
    let fx = fixture();
    let first = drive(&fx);
    let second = drive(&fx);

    // Id/reason *sets* replay exactly (the Slow flights' report order
    // depends on measured latencies, so compare sorted).
    let key = |server: &Server| {
        let mut ids: Vec<(u64, &'static str)> = server
            .flight_recorder()
            .flights()
            .iter()
            .map(|f| (f.trace.id.0, f.reason.as_str()))
            .collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(key(&first), key(&second));

    // The deadline-missed flight keeps the same id, and its redacted
    // waterfall replays byte-for-byte. The queue-depth notes record how
    // far the single worker had drained when the late request was
    // pushed and popped — thread timing, not schedule — so their values
    // are masked; both notes must still be present.
    let missed_json = |server: &Server| {
        let mut f = server
            .flight_recorder()
            .flights()
            .into_iter()
            .find(|f| f.reason == FlightReason::DeadlineMissed)
            .expect("miss recorded");
        f.trace.redact_timings();
        for note in [
            "serve.queue_depth_at_submit",
            "serve.queue_depth_at_dequeue",
        ] {
            assert!(f.trace.has_event(note), "{note} missing: {:?}", f.trace);
        }
        for e in &mut f.trace.events {
            if e.name.starts_with("serve.queue_depth_") {
                e.value = 0;
            }
        }
        f.trace.to_json()
    };
    assert_eq!(missed_json(&first), missed_json(&second));
}
