//! SLO shedding with recording switched off.
//!
//! The rolling p99 the shed predicate reads comes from the server's own
//! window wheel, which ignores the runtime switch (`MP_OBS`,
//! [`mp_obs::set_enabled`]): shedding is a control decision, not
//! telemetry. The switch is process-global, so this binary holds only
//! tests that run with recording off; the flight-recorder tests in
//! `shed_policy.rs` need it on.

use std::sync::Arc;
use std::time::Duration;

use mp_core::{CoreConfig, EdLibrary, IndependenceEstimator, Metasearcher, RelevancyDef};
use mp_corpus::{Scenario, ScenarioConfig, ScenarioKind};
use mp_hidden::{ContentSummary, HiddenWebDatabase, Mediator, SimulatedHiddenDb};
use mp_serve::{ServeConfig, ServeError, ServeRequest, Server};
use mp_workload::{Query, QueryGenConfig, TrainTestSplit};

const K: usize = 1;
const THRESHOLD: f64 = 0.9;

/// The `shed_policy.rs` fixture: a tiny health scenario and four test
/// queries.
fn metasearcher() -> (Arc<Metasearcher>, Vec<Query>) {
    let scenario = Scenario::generate(ScenarioConfig::tiny(ScenarioKind::Health, 33));
    let (model, raw_parts) = scenario.into_parts();
    let mut dbs: Vec<Arc<dyn HiddenWebDatabase>> = Vec::new();
    let mut summaries = Vec::new();
    for (spec, index) in raw_parts {
        summaries.push(ContentSummary::cooperative(&index));
        dbs.push(Arc::new(SimulatedHiddenDb::new(spec.name, index)));
    }
    let mediator = Mediator::new(dbs, summaries);
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
    let config = CoreConfig::default().with_threshold(10.0);
    let library = EdLibrary::train(
        &mediator,
        &IndependenceEstimator,
        RelevancyDef::DocFrequency,
        split.train.queries(),
        &config,
    );
    mediator.reset_probes();
    let queries: Vec<Query> = split.test.queries().iter().take(4).cloned().collect();
    (
        Metasearcher::with_library(
            mediator,
            Box::new(IndependenceEstimator),
            RelevancyDef::DocFrequency,
            library,
        )
        .shared(),
        queries,
    )
}

/// A staged 1-second tail regression over a 5 ms limit sheds every
/// request with 50 ms of slack, exactly as with recording on.
#[test]
fn violated_slo_sheds_with_recording_off() {
    mp_obs::set_enabled(false);
    let (ms, queries) = metasearcher();
    let server = Server::new(ms, ServeConfig::new(1, 0).with_shed_p99_ms(Some(5)));
    for _ in 0..100 {
        server.record_window_latency_for_test(1_000_000);
    }
    let rolling_p99_us = server.stats().rolling_p99_us;
    assert!(
        rolling_p99_us >= 1_000_000,
        "the staged regression must reach the rolling p99 (read {rolling_p99_us} µs)"
    );
    let responses = server.serve_batch(queries.iter().map(|q| {
        ServeRequest::new(q.clone(), K, THRESHOLD).with_deadline(Duration::from_millis(50))
    }));
    let n = queries.len() as u64;
    assert_eq!(n, 4);
    for r in responses {
        assert_eq!(r, Err(ServeError::Shed));
    }
    let stats = server.stats();
    assert_eq!(stats.sheds, n);
    assert_eq!(stats.completed, 0, "shed requests never compute");
}
