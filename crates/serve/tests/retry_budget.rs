//! Satellite (e): retry-budget accounting stays exact under a serving
//! workload, at every worker count.
//!
//! Two *twin* stacks of flaky databases ([`UnreliableDb`] with retries,
//! identical seeds) answer the same query stream — one through the
//! serving layer, one through direct sequential
//! [`Metasearcher::search`] calls. Failure injection is deterministic in
//! (seed, query, attempt), so the per-database [`ProbeBudget`] counters
//! must agree *exactly* whatever the worker count, and turning the
//! result cache on must not add a single physical probe for repeated
//! queries.

use std::sync::Arc;

use mp_core::probing::GreedyPolicy;
use mp_core::{
    AproConfig, CoreConfig, CorrectnessMetric, EdLibrary, IndependenceEstimator, Metasearcher,
    RelevancyDef,
};
use mp_corpus::{Scenario, ScenarioConfig, ScenarioKind};
use mp_hidden::{
    ContentSummary, HiddenWebDatabase, Mediator, ProbeBudget, SimulatedHiddenDb, UnreliableDb,
};
use mp_serve::{ServeConfig, ServeRequest, Server};
use mp_workload::{Query, QueryGenConfig, TrainTestSplit};

const K: usize = 1;
const THRESHOLD: f64 = 0.9;
const FUSE_LIMIT: usize = 10;
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

/// Shared clean substrate: corpus, summaries, a library trained on
/// *reliable* databases (so no injection RNG is consumed before the
/// serving comparison starts), and the query stream.
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
    let config = CoreConfig::default().with_threshold(10.0);
    let library = EdLibrary::train(
        &clean,
        &IndependenceEstimator,
        RelevancyDef::DocFrequency,
        split.train.queries(),
        &config,
    );
    let queries = split.test.queries().iter().take(25).cloned().collect();
    Fixture {
        inner,
        summaries,
        library,
        queries,
    }
}

/// One flaky twin: every database wrapped with identically-seeded
/// injection, handles kept so budgets stay observable after the
/// mediator takes ownership.
fn flaky_twin(fx: &Fixture) -> (Arc<Metasearcher>, Vec<Arc<UnreliableDb>>) {
    let mut wrappers = Vec::new();
    let mut dbs: Vec<Arc<dyn HiddenWebDatabase>> = Vec::new();
    for (i, base) in fx.inner.iter().enumerate() {
        let w = Arc::new(
            UnreliableDb::new(
                Arc::clone(base),
                FAILURE_RATE,
                NOISE_RATE,
                NOISE_SPAN,
                1_000 + i as u64,
            )
            .with_retries(RETRIES),
        );
        wrappers.push(Arc::clone(&w));
        dbs.push(w);
    }
    let ms = Metasearcher::with_library(
        Mediator::new(dbs, fx.summaries.clone()),
        Box::new(IndependenceEstimator),
        RelevancyDef::DocFrequency,
        fx.library.clone(),
    )
    .shared();
    (ms, wrappers)
}

fn budgets(wrappers: &[Arc<UnreliableDb>]) -> Vec<ProbeBudget> {
    wrappers.iter().map(|w| w.budget()).collect()
}

fn apro_config() -> AproConfig {
    AproConfig {
        k: K,
        threshold: THRESHOLD,
        metric: CorrectnessMetric::Partial,
        max_probes: None,
    }
}

#[test]
fn served_probe_budgets_replay_the_sequential_run_exactly() {
    let fx = fixture();

    // Twin A: through the serving layer, 1 worker, caches off — a
    // strict FIFO replay of the stream.
    let (ms_a, wrappers_a) = flaky_twin(&fx);
    ms_a.mediator().reset_probes();
    let server = Server::new(Arc::clone(&ms_a), ServeConfig::new(1, 0));
    let responses = server.serve_batch(
        fx.queries
            .iter()
            .map(|q| ServeRequest::new(q.clone(), K, THRESHOLD)),
    );
    // Captured before twin B runs: the twins share the inner databases,
    // so their physical probe counters accumulate across runs.
    let physical_probes: u64 = (0..wrappers_a.len())
        .map(|i| ms_a.mediator().db(i).probe_count())
        .sum();

    // Twin B: direct sequential calls, same order, same parameters.
    let (ms_b, wrappers_b) = flaky_twin(&fx);
    let mut expected = Vec::new();
    for q in &fx.queries {
        let mut policy = GreedyPolicy;
        expected.push(ms_b.search(q, apro_config(), &mut policy, FUSE_LIMIT));
    }

    for (i, resp) in responses.into_iter().enumerate() {
        let resp = resp.expect("back-pressure submission never rejects");
        assert_eq!(resp.result, expected[i], "query {i} diverged");
    }

    let a = budgets(&wrappers_a);
    let b = budgets(&wrappers_b);
    assert_eq!(a, b, "per-database budgets must replay exactly");

    // The workload is hostile enough that the interesting counters
    // actually move (deterministic: injection is seeded).
    let total: ProbeBudget = a.iter().fold(ProbeBudget::default(), |acc, x| ProbeBudget {
        attempts: acc.attempts + x.attempts,
        retries: acc.retries + x.retries,
        failures: acc.failures + x.failures,
        outages: acc.outages + x.outages,
    });
    assert!(total.attempts > 0, "the stream probed something");
    assert!(total.outages > 0, "outages fired at rate {FAILURE_RATE}");
    assert!(total.retries > 0, "outages were retried");
    assert_eq!(
        total.attempts, physical_probes,
        "every attempt is a physical probe on the wrapped database"
    );
    for db in &a {
        assert!(
            db.attempts <= (db.attempts - db.retries) * u64::from(RETRIES + 1),
            "attempts bounded by 1 + max_retries per logical search"
        );
    }
}

/// Failure-injection twin-replay across worker counts: with the
/// counter-keyed injection stream, a probe's outcome is a pure function
/// of (database seed, query, attempt index) — never of which worker ran
/// it or when. So at *every* worker count the served results must be
/// bit-identical to the sequential replay and the per-database
/// [`ProbeBudget`] counters (attempts, retries, failures, outages) must
/// match it exactly, even though workers interleave probes arbitrarily.
/// Every attempt is a physical probe (pinned above), so equal attempts
/// are equal per-database probe counts.
#[test]
fn twin_replay_is_bit_identical_and_budget_exact_at_every_worker_count() {
    let fx = fixture();

    // Sequential reference replay.
    let (ms_seq, wrappers_seq) = flaky_twin(&fx);
    let mut expected = Vec::new();
    for q in &fx.queries {
        let mut policy = GreedyPolicy;
        expected.push(ms_seq.search(q, apro_config(), &mut policy, FUSE_LIMIT));
    }
    let expected_budgets = budgets(&wrappers_seq);
    let total_attempts: u64 = expected_budgets.iter().map(|b| b.attempts).sum();
    let total_retries: u64 = expected_budgets.iter().map(|b| b.retries).sum();
    assert!(
        total_attempts > 0 && total_retries > 0,
        "workload is hostile"
    );

    for workers in [1usize, 2, 4, 8] {
        let (ms, wrappers) = flaky_twin(&fx);
        let server = Server::new(Arc::clone(&ms), ServeConfig::new(workers, 0));
        let responses = server.serve_batch(
            fx.queries
                .iter()
                .map(|q| ServeRequest::new(q.clone(), K, THRESHOLD)),
        );
        let at = format!("{workers} workers");
        for (i, resp) in responses.into_iter().enumerate() {
            let resp = resp.expect("back-pressure submission never rejects");
            assert_eq!(
                resp.result, expected[i],
                "query {i} diverged from sequential replay at {at}"
            );
        }
        assert_eq!(
            budgets(&wrappers),
            expected_budgets,
            "probe budgets diverged from sequential replay at {at}"
        );
    }
}

#[test]
fn result_cache_spends_zero_extra_probes_on_repeats() {
    let fx = fixture();
    let n = fx.queries.len();

    // Twin A: unique stream, caches off.
    let (ms_a, wrappers_a) = flaky_twin(&fx);
    let server_a = Server::new(Arc::clone(&ms_a), ServeConfig::new(1, 0));
    let single_pass: Vec<_> = server_a
        .serve_batch(
            fx.queries
                .iter()
                .map(|q| ServeRequest::new(q.clone(), K, THRESHOLD)),
        )
        .into_iter()
        .map(|r| r.expect("no rejection").result)
        .collect();

    // Twin B: the same stream played three times, result cache on, at
    // one worker and at four. Repeats must be answered from the cache
    // (or by joining the leader's flight) without touching the flaky
    // databases, so the budgets match the single-pass twin and every
    // pass hands back twin A's answers.
    for workers in [1usize, 4] {
        let (ms_b, wrappers_b) = flaky_twin(&fx);
        let server_b = Server::new(Arc::clone(&ms_b), ServeConfig::new(workers, 256));
        let responses = server_b.serve_batch((0..3).flat_map(|_| {
            fx.queries
                .iter()
                .map(|q| ServeRequest::new(q.clone(), K, THRESHOLD))
        }));
        let at = format!("{workers} workers");
        for (i, r) in responses.into_iter().enumerate() {
            let result = r.expect("no rejection").result;
            assert_eq!(result, single_pass[i % n], "stream position {i} at {at}");
        }
        assert_eq!(
            budgets(&wrappers_a),
            budgets(&wrappers_b),
            "cached repeats must not probe at {at}"
        );
        let stats = server_b.stats();
        assert_eq!(stats.misses, n as u64, "one computation per key at {at}");
        assert_eq!(stats.hits + stats.dedup_joins, 2 * n as u64);
        if workers == 1 {
            // A single worker drains FIFO: every repeat is a plain hit.
            assert_eq!(stats.hits, 2 * n as u64);
        }
    }
}
