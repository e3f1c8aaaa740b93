//! End-to-end integration tests: corpus → mediator → training →
//! selection → adaptive probing → fusion, across crate boundaries.

use metaprobe::prelude::*;
use mp_core::probing::RandomPolicy;
use std::sync::Arc;

fn build_metasearcher(seed: u64) -> (Metasearcher, TrainTestSplit, mp_corpus::TopicModel) {
    let scenario = Scenario::generate(ScenarioConfig::tiny(ScenarioKind::Health, seed));
    let (model, parts) = scenario.into_parts();
    let mut dbs: Vec<Arc<dyn HiddenWebDatabase>> = Vec::new();
    let mut summaries = Vec::new();
    for (spec, index) in parts {
        summaries.push(ContentSummary::cooperative(&index));
        dbs.push(Arc::new(SimulatedHiddenDb::new(spec.name, index)));
    }
    let mediator = Mediator::new(dbs, summaries);
    let split = TrainTestSplit::generate(
        &model,
        80,
        50,
        QueryGenConfig {
            window: 12,
            seed: seed ^ 0xFEED,
            ..QueryGenConfig::default()
        },
    );
    let ms = Metasearcher::train(
        mediator,
        Box::new(IndependenceEstimator),
        RelevancyDef::DocFrequency,
        split.train.queries(),
        CoreConfig::default().with_threshold(10.0),
    );
    (ms, split, model)
}

#[test]
fn full_pipeline_answers_queries() {
    let (ms, split, _model) = build_metasearcher(5);
    let mut policy = GreedyPolicy;
    for query in split.test.queries().iter().take(15) {
        let result = ms.search(
            query,
            AproConfig {
                k: 2,
                threshold: 0.7,
                metric: CorrectnessMetric::Partial,
                max_probes: None,
            },
            &mut policy,
            10,
        );
        assert_eq!(result.outcome.selected.len(), 2);
        assert!(result.outcome.expected >= 0.7 || result.outcome.n_probes() == ms.mediator().len());
        assert!(result.hits.len() <= 10);
        // Fused hits come only from selected databases.
        for hit in &result.hits {
            assert!(result.outcome.selected.contains(&hit.db));
        }
    }
}

#[test]
fn apro_selection_matches_golden_when_exhaustive() {
    // Forcing certainty 1.0 probes until the model is sure; with every
    // database probed the selection must equal the true ranking.
    let (ms, split, _model) = build_metasearcher(6);
    let query = &split.test.queries()[3];
    let mut policy = RandomPolicy::new(0);
    let outcome = ms.select_adaptive(
        query,
        AproConfig {
            k: 1,
            threshold: 1.0,
            metric: CorrectnessMetric::Absolute,
            max_probes: None,
        },
        &mut policy,
    );
    assert!(outcome.satisfied);
    // Validate against direct probing of every database.
    let actuals: Vec<f64> = (0..ms.mediator().len())
        .map(|i| RelevancyDef::DocFrequency.probe(ms.mediator().db(i), query, 0))
        .collect();
    let golden = mp_core::correctness::golden_topk(&actuals, 1);
    if outcome.n_probes() == ms.mediator().len() {
        assert_eq!(outcome.selected, golden);
    }
}

#[test]
fn probe_accounting_matches_trace() {
    let (ms, split, _model) = build_metasearcher(7);
    ms.mediator().reset_probes();
    let query = &split.test.queries()[0];
    let mut policy = GreedyPolicy;
    let outcome = ms.select_adaptive(
        query,
        AproConfig {
            k: 1,
            threshold: 0.95,
            metric: CorrectnessMetric::Absolute,
            max_probes: Some(3),
        },
        &mut policy,
    );
    assert_eq!(ms.mediator().total_probes(), outcome.n_probes() as u64);
    assert!(outcome.n_probes() <= 3);
}

#[test]
fn certainty_trace_is_monotone_under_greedy_stopping() {
    // The returned certainty sequence need not be monotone probe-by-
    // probe (a probe can reveal bad news), but the *final* certainty
    // must meet the threshold or every database must have been probed.
    let (ms, split, _model) = build_metasearcher(8);
    for query in split.test.queries().iter().take(10) {
        let mut policy = GreedyPolicy;
        let outcome = ms.select_adaptive(
            query,
            AproConfig {
                k: 1,
                threshold: 0.9,
                metric: CorrectnessMetric::Absolute,
                max_probes: None,
            },
            &mut policy,
        );
        assert!(
            outcome.expected >= 0.9 || outcome.n_probes() == ms.mediator().len(),
            "query {query:?}: expected {} after {} probes",
            outcome.expected,
            outcome.n_probes()
        );
    }
}

#[test]
fn higher_thresholds_never_probe_less() {
    let (ms, split, _model) = build_metasearcher(9);
    let mut total_low = 0usize;
    let mut total_high = 0usize;
    for query in split.test.queries().iter().take(25) {
        for (t, total) in [(0.7, &mut total_low), (0.95, &mut total_high)] {
            let mut policy = GreedyPolicy;
            let outcome = ms.select_adaptive(
                query,
                AproConfig {
                    k: 1,
                    threshold: t,
                    metric: CorrectnessMetric::Absolute,
                    max_probes: None,
                },
                &mut policy,
            );
            *total += outcome.n_probes();
        }
    }
    assert!(
        total_high >= total_low,
        "t=0.95 used {total_high} probes, t=0.7 used {total_low}"
    );
}

#[test]
fn display_of_queries_roundtrips_through_vocab() {
    let (_ms, split, model) = build_metasearcher(10);
    for query in split.test.queries().iter().take(20) {
        let text = query.display(model.vocab());
        let parsed = Query::parse(&text, model.vocab())
            .expect("generated queries contain only vocabulary terms");
        assert_eq!(&parsed, query);
    }
}

#[test]
fn apro_degrades_gracefully_on_unreliable_databases() {
    // Failure injection: wrap every database with outages + stale
    // counts; APro must still terminate, respect its contract shape,
    // and keep its accounting consistent.
    use mp_hidden::UnreliableDb;

    let scenario = Scenario::generate(ScenarioConfig::tiny(ScenarioKind::Health, 21));
    let (model, parts) = scenario.into_parts();
    let mut dbs: Vec<Arc<dyn HiddenWebDatabase>> = Vec::new();
    let mut summaries = Vec::new();
    for (i, (spec, index)) in parts.into_iter().enumerate() {
        summaries.push(ContentSummary::cooperative(&index));
        let base: Arc<dyn HiddenWebDatabase> = Arc::new(SimulatedHiddenDb::new(spec.name, index));
        dbs.push(Arc::new(UnreliableDb::new(
            base,
            0.15,
            0.3,
            0.25,
            100 + i as u64,
        )));
    }
    let mediator = Mediator::new(dbs, summaries);
    let split = TrainTestSplit::generate(
        &model,
        60,
        40,
        QueryGenConfig {
            window: 12,
            seed: 77,
            ..QueryGenConfig::default()
        },
    );
    let ms = Metasearcher::train(
        mediator,
        Box::new(IndependenceEstimator),
        RelevancyDef::DocFrequency,
        split.train.queries(),
        CoreConfig::default().with_threshold(10.0),
    );

    for query in split.test.queries().iter().take(10) {
        let mut policy = GreedyPolicy;
        let outcome = ms.select_adaptive(
            query,
            AproConfig {
                k: 1,
                threshold: 0.9,
                metric: CorrectnessMetric::Absolute,
                max_probes: None,
            },
            &mut policy,
        );
        assert_eq!(outcome.selected.len(), 1);
        assert!(outcome.n_probes() <= ms.mediator().len());
        assert!(outcome.satisfied || outcome.n_probes() == ms.mediator().len());
        for record in &outcome.probes {
            assert!(record.actual >= 0.0);
        }
    }
}

/// Golden pin: the exact end-to-end answers (selection, certainty bits,
/// probe trace, fused-hit order and score bits) for three representative
/// fixed-seed queries, snapshotted to a fixture file. Engine refactors
/// that shift any result — even a last-ulp score change — turn this red.
///
/// Regenerate deliberately with:
///
/// ```text
/// MP_BLESS=1 cargo test --test end_to_end golden_pin
/// ```
#[test]
fn golden_pin_of_three_representative_queries() {
    let (ms, split, _model) = build_metasearcher(5);
    let mut rendered = String::new();
    for &qi in &[0usize, 7, 19] {
        let query = &split.test.queries()[qi];
        let mut policy = GreedyPolicy;
        let result = ms.search(
            query,
            AproConfig {
                k: 2,
                threshold: 0.9,
                metric: CorrectnessMetric::Partial,
                max_probes: None,
            },
            &mut policy,
            5,
        );
        rendered.push_str(&format!(
            "query {qi} terms={:?}\n",
            query.terms().iter().map(|t| t.0).collect::<Vec<_>>()
        ));
        rendered.push_str(&format!(
            "  selected={:?} expected={:016x} satisfied={}\n",
            result.outcome.selected,
            result.outcome.expected.to_bits(),
            result.outcome.satisfied
        ));
        for p in &result.outcome.probes {
            rendered.push_str(&format!(
                "  probe db={} actual={:016x} after={:016x}\n",
                p.db,
                p.actual.to_bits(),
                p.expected_after.to_bits()
            ));
        }
        for h in &result.hits {
            rendered.push_str(&format!(
                "  hit db={} doc={} score={:016x}\n",
                h.db,
                h.doc.0,
                h.score.to_bits()
            ));
        }
    }

    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/end_to_end_golden.txt");
    if std::env::var_os("MP_BLESS").is_some() {
        std::fs::create_dir_all(fixture.parent().expect("fixture path has a parent"))
            .expect("fixture directory is creatable");
        std::fs::write(&fixture, &rendered).expect("fixture file is writable");
        return;
    }
    let expected = std::fs::read_to_string(&fixture).unwrap_or_else(|_| {
        panic!(
            "missing snapshot {} — run with MP_BLESS=1 to create it",
            fixture.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "end-to-end results drifted from the golden snapshot \
         (re-bless with MP_BLESS=1 if the change is intended)"
    );
}

#[test]
fn cost_aware_probing_integrates_end_to_end() {
    use mp_core::expected::RdState;
    use mp_core::probing::{apro_with_costs, CostAwareGreedyPolicy, ProbeCosts};

    let (ms, split, _model) = build_metasearcher(22);
    let n = ms.mediator().len();
    // The last database is 10x more expensive to probe (slow site).
    let mut costs = vec![1.0; n];
    costs[n - 1] = 10.0;
    let costs = ProbeCosts::new(costs);

    let query = &split.test.queries()[1];
    let mut state = RdState::for_query(&ms.estimates(query), query, ms.library());
    let mut policy = CostAwareGreedyPolicy::new(costs.clone());
    let mut probe_fn = |i: usize| RelevancyDef::DocFrequency.probe(ms.mediator().db(i), query, 0);
    let f: &mut dyn FnMut(usize) -> f64 = &mut probe_fn;
    let (outcome, spent) = apro_with_costs(
        &mut state,
        AproConfig {
            k: 1,
            threshold: 0.95,
            metric: CorrectnessMetric::Absolute,
            max_probes: None,
        },
        &costs,
        Some(6.0),
        &mut policy,
        f,
    );
    assert!(spent <= 6.0 + 1e-9, "budget exceeded: {spent}");
    assert!(spent >= outcome.n_probes() as f64 - 1e-9, "unit-cost floor");
}
