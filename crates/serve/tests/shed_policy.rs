//! The SLO shed policy, end to end.
//!
//! The *decision* is a pure predicate, pinned by a unit test beside
//! `Server::handle` in `server.rs`. This suite drives the policy
//! through a real server: the rolling-latency window is staged via the
//! test hook (no sleeping through a regression), and the assertions
//! cover the full observable surface — the typed
//! [`ServeError::Shed`] response, the `sheds` stats counter, and the
//! flight-recorder entry with the `shed` reason.
//!
//! The tests in `obs_gated` switch recording on, since the flight
//! recorder needs it. The rolling p99 that feeds the predicate does not:
//! `shed_recording_off.rs` checks shedding with recording off, in a
//! binary of its own because the switch is process-global.

use std::sync::Arc;
use std::time::Duration;

use mp_core::{CoreConfig, EdLibrary, IndependenceEstimator, Metasearcher, RelevancyDef};
use mp_corpus::{Scenario, ScenarioConfig, ScenarioKind};
use mp_hidden::{ContentSummary, HiddenWebDatabase, Mediator, SimulatedHiddenDb};
use mp_serve::{ServeConfig, ServeError, ServeRequest, Server};
use mp_workload::{Query, QueryGenConfig, TrainTestSplit};

const K: usize = 1;
const THRESHOLD: f64 = 0.9;

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

/// Stages a severe tail-latency regression in the server's rolling
/// window: enough 1-second observations that the rolling p99 lands in
/// the top bucket, far over any millisecond-scale SLO.
fn stage_regression(server: &Server) {
    for _ in 0..100 {
        server.record_window_latency_for_test(1_000_000);
    }
}

/// With no shed limit configured, a deadlined request under a staged
/// regression still computes — shedding is strictly opt-in.
#[test]
fn no_limit_never_sheds() {
    let (ms, queries) = metasearcher();
    let server = Server::new(ms, ServeConfig::new(1, 0));
    stage_regression(&server);
    let responses = server.serve_batch(queries.iter().map(|q| {
        ServeRequest::new(q.clone(), K, THRESHOLD).with_deadline(Duration::from_secs(60))
    }));
    for r in responses {
        r.expect("no shed limit: every request computes");
    }
    assert_eq!(server.stats().sheds, 0);
}

/// Deadline-free requests are never shed, no matter how bad the tail.
#[test]
fn no_deadline_never_sheds() {
    let (ms, queries) = metasearcher();
    let server = Server::new(ms, ServeConfig::new(1, 0).with_shed_p99_ms(Some(5)));
    stage_regression(&server);
    let responses = server.serve_batch(
        queries
            .iter()
            .map(|q| ServeRequest::new(q.clone(), K, THRESHOLD)),
    );
    for r in responses {
        r.expect("deadline-free requests always compute");
    }
    assert_eq!(server.stats().sheds, 0);
}

mod obs_gated {
    use super::*;
    use mp_obs::FlightReason;

    /// The full shed surface: typed error, stats counter, flight
    /// recorder.
    #[test]
    fn violated_slo_sheds_tight_deadlines() {
        mp_obs::set_enabled(true);
        let (ms, queries) = metasearcher();
        let config = ServeConfig::new(1, 0)
            .with_shed_p99_ms(Some(5))
            .with_trace(true);
        let server = Server::new(ms, config);
        stage_regression(&server);
        // Rolling p99 now ~1s: over the 5ms limit, and far more than
        // the 50ms of slack these requests have.
        let responses = server.serve_batch(queries.iter().map(|q| {
            ServeRequest::new(q.clone(), K, THRESHOLD).with_deadline(Duration::from_millis(50))
        }));
        let n = queries.len() as u64;
        for r in responses {
            assert_eq!(r, Err(ServeError::Shed));
        }
        let stats = server.stats();
        assert_eq!(stats.sheds, n);
        assert_eq!(stats.completed, 0, "shed requests never compute");
        let flights = server.flight_recorder().flights();
        assert_eq!(flights.len() as u64, n);
        for flight in &flights {
            assert_eq!(flight.reason, FlightReason::Shed);
            assert!(flight.trace.has_event("serve.queue_wait"));
        }

        // Ample slack survives the same regression: the predicate sheds
        // only requests the current tail would doom anyway.
        let roomy = server.serve_batch(queries.iter().map(|q| {
            ServeRequest::new(q.clone(), K, THRESHOLD).with_deadline(Duration::from_secs(120))
        }));
        for r in roomy {
            r.expect("a deadline beyond the rolling p99 is kept");
        }
        assert_eq!(server.stats().sheds, n, "no further sheds");
    }

    /// Recovery: once the window forgets the regression, the same
    /// tight-deadline request computes again. Each request is served
    /// alone on a recovered window: a computed request's own latency
    /// enters the window, so requests queued back to back behind it
    /// would shed or not depending on how long it took.
    #[test]
    fn sheds_stop_when_the_window_recovers() {
        mp_obs::set_enabled(true);
        let (ms, queries) = metasearcher();
        let server = Server::new(ms, ServeConfig::new(1, 0).with_shed_p99_ms(Some(5)));
        stage_regression(&server);
        for q in &queries {
            // Advance the rolling window past its horizon: the staged
            // regression (and the previous request) ages out and p99
            // returns to 0.
            for _ in 0..16 {
                server.tick_window();
            }
            let responses = server
                .serve_batch([ServeRequest::new(q.clone(), K, THRESHOLD)
                    .with_deadline(Duration::from_millis(50))]);
            for r in responses {
                r.expect("recovered window sheds nothing");
            }
        }
        assert_eq!(server.stats().sheds, 0);
    }
}
