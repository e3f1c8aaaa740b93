//! Malformed requests are rejected at submit with a typed error.
//!
//! `k = 0`, `k` above the fleet size, and a threshold that is not a
//! finite value in `[0, 1]` cannot be answered: the selection engine
//! asserts on them. The serving layer checks them in
//! `Client::submit`/`Client::try_submit`, answers
//! [`ServeError::InvalidRequest`], and counts them in
//! [`ServeStats::invalid`](mp_serve::ServeStats) — so no worker ever
//! sees one, and the same session keeps answering valid requests
//! bit-identically to sequential `Metasearcher::search`.

use std::sync::Arc;

use mp_core::{IndependenceEstimator, Metasearcher, RelevancyDef};
use mp_eval::testbed::{Testbed, TestbedConfig};
use mp_serve::{PolicySpec, ServeConfig, ServeError, ServeRequest, Server};
use mp_workload::Query;

const FUSE_LIMIT: usize = 10;

fn request(q: &Query, k: usize, threshold: f64) -> ServeRequest {
    let mut req = ServeRequest::new(q.clone(), k, threshold).with_policy(PolicySpec::ByEstimate);
    req.max_probes = Some(2);
    req
}

#[test]
fn malformed_requests_are_rejected_at_submit() {
    let tb = Testbed::build(TestbedConfig::tiny(11));
    let ms = Metasearcher::with_library(
        tb.mediator.clone(),
        Box::new(IndependenceEstimator),
        RelevancyDef::DocFrequency,
        tb.library.clone(),
    )
    .shared();
    let n = ms.mediator().len();
    let q = tb.split.test.queries()[0].clone();
    let bad = [
        request(&q, 0, 0.5),
        request(&q, n + 1, 0.5),
        request(&q, 1, -0.25),
        request(&q, 1, 1.5),
        request(&q, 1, f64::NAN),
        request(&q, 1, f64::INFINITY),
    ];
    // The boundary shapes stay valid.
    let good = [
        request(&q, 2, 0.85),
        request(&q, n, 1.0),
        request(&q, 1, 0.0),
    ];

    let server = Server::new(Arc::clone(&ms), ServeConfig::new(2, 16));
    let answers = server.run(|client| {
        for req in &bad {
            for blocking in [true, false] {
                let outcome = if blocking {
                    client.submit(req.clone())
                } else {
                    client.try_submit(req.clone())
                };
                assert!(
                    matches!(outcome, Err(ServeError::InvalidRequest(_))),
                    "k={} threshold={} (blocking={blocking}) was not rejected",
                    req.k,
                    req.threshold
                );
            }
        }
        // The same session still answers valid requests afterwards.
        good.iter()
            .map(|req| {
                client
                    .submit(req.clone())
                    .and_then(mp_serve::Ticket::wait)
                    .expect("a valid request is answered")
            })
            .collect::<Vec<_>>()
    });

    for (req, resp) in good.iter().zip(&answers) {
        let mut policy = req.policy.build();
        let config = mp_core::AproConfig {
            k: req.k,
            threshold: req.threshold,
            metric: req.metric,
            max_probes: req.max_probes,
        };
        let expected = ms.search(&req.query, config, policy.as_mut(), FUSE_LIMIT);
        assert_eq!(
            resp.result, expected,
            "k={} threshold={}",
            req.k, req.threshold
        );
    }
    let stats = server.stats();
    assert_eq!(stats.invalid, 2 * bad.len() as u64);
    assert_eq!(stats.completed, good.len() as u64);
    assert_eq!(stats.rejects, 0);
}

#[test]
fn invalid_request_errors_name_the_problem() {
    let shown = ServeError::InvalidRequest("k must be at least 1").to_string();
    assert_eq!(shown, "invalid request: k must be at least 1");
}
