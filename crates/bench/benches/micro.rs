//! Micro-benchmarks of the library's hot paths: index retrieval,
//! expected-correctness math, greedy policy steps, ED training.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mp_bench::bench_testbed;
use mp_core::expected::{expected_absolute, expected_partial, RdState};
use mp_core::probing::GreedyPolicy;
use mp_core::selection::best_set;
use mp_core::{CorrectnessMetric, EdLibrary};
use mp_corpus::{generate_database, DatabaseSpec, TopicModel, TopicModelConfig};
use mp_stats::Discrete;

/// RDs shaped like real per-query state: 20 databases, ~8-point supports.
fn synthetic_rds(n: usize) -> Vec<Discrete> {
    (0..n)
        .map(|i| {
            let base = 10.0 + (i as f64) * 7.3;
            let pts: Vec<(f64, f64)> = (0..8)
                .map(|j| (base * (0.2 + 0.45 * j as f64), 1.0 + ((i + j) % 3) as f64))
                .collect();
            Discrete::from_weighted(&pts).expect("valid RD")
        })
        .collect()
}

fn bench_index(c: &mut Criterion) {
    let model = TopicModel::build(TopicModelConfig::default());
    let spec = DatabaseSpec::generalist("bench", 2_000, model.n_topics(), 1);
    let index = generate_database(&model, &spec);
    let t0 = model.topic(mp_corpus::TopicId(0)).terms()[0];
    let t1 = model.topic(mp_corpus::TopicId(0)).terms()[1];

    c.bench_function("index/build_2k_docs", |b| {
        b.iter(|| generate_database(&model, &spec))
    });
    c.bench_function("index/count_matching_2term", |b| {
        b.iter(|| black_box(index.count_matching(&[t0, t1])))
    });
    c.bench_function("index/cosine_top10", |b| {
        b.iter(|| black_box(index.cosine_topk(&[t0, t1], 10)))
    });
}

fn bench_expected(c: &mut Criterion) {
    let rds = synthetic_rds(20);
    let set1 = vec![0usize];
    let set3 = vec![0usize, 1, 2];

    c.bench_function("expected/absolute_k1_n20", |b| {
        b.iter(|| black_box(expected_absolute(&rds, &set1)))
    });
    c.bench_function("expected/absolute_k3_n20", |b| {
        b.iter(|| black_box(expected_absolute(&rds, &set3)))
    });
    c.bench_function("expected/partial_k3_n20", |b| {
        b.iter(|| black_box(expected_partial(&rds, &set3)))
    });
    let state = RdState::new(rds.clone());
    c.bench_function("expected/best_set_k3_n20", |b| {
        b.iter(|| black_box(best_set(&state, 3, CorrectnessMetric::Partial)))
    });
}

fn bench_greedy(c: &mut Criterion) {
    let rds = synthetic_rds(20);
    let state = RdState::new(rds);

    c.bench_function("greedy/usefulness_one_db_n20", |b| {
        b.iter(|| {
            black_box(GreedyPolicy::usefulness(
                &state,
                0,
                1,
                CorrectnessMetric::Absolute,
            ))
        })
    });

    let costs = mp_core::probing::ProbeCosts::new((1..=20).map(|i| i as f64).collect());
    let policy = mp_core::probing::CostAwareGreedyPolicy::new(costs);
    c.bench_function("greedy/cost_aware_gain_one_db_n20", |b| {
        b.iter(|| black_box(policy.gain_per_cost(&state, 0, 1, CorrectnessMetric::Absolute)))
    });

    // The full per-step candidate scan as one sweep vs the reference
    // evaluation per candidate.
    c.bench_function("greedy/select_db_sweep_n20", |b| {
        b.iter(|| {
            black_box(mp_core::engine::usefulness_all(
                &state,
                1,
                CorrectnessMetric::Absolute,
            ))
        })
    });
    c.bench_function("greedy/select_db_reference_n20", |b| {
        b.iter(|| {
            black_box(
                state
                    .unprobed()
                    .into_iter()
                    .map(|i| {
                        (
                            i,
                            GreedyPolicy::usefulness(&state, i, 1, CorrectnessMetric::Absolute),
                        )
                    })
                    .collect::<Vec<_>>(),
            )
        })
    });
}

fn bench_training(c: &mut Criterion) {
    let tb = bench_testbed(3);
    let queries = &tb.split.train.queries()[..50];

    c.bench_function("train/ed_library_50q_10db", |b| {
        b.iter(|| {
            let lib = EdLibrary::train(
                &tb.mediator,
                tb.estimator.as_ref(),
                tb.config.relevancy,
                queries,
                &tb.config.core,
            );
            tb.mediator.reset_probes();
            black_box(lib)
        })
    });
    let q = &tb.split.test.queries()[0];
    c.bench_function("query/derive_rds_10db", |b| b.iter(|| black_box(tb.rds(q))));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(8)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_index, bench_expected, bench_greedy, bench_training
}
criterion_main!(benches);
