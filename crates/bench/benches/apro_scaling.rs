//! APro hot-path scaling: the greedy `select_db` candidate scan, one
//! sweep over the merged RD support (`engine::usefulness_all`), vs the
//! reference evaluation per candidate, at `n ∈ {16, 64, 256}` mediated
//! databases.
//!
//! Besides the criterion targets, the bench merges its report into the
//! `apro_scaling` section of the machine-readable `BENCH_apro.json` at
//! the repository root, recording both timings and the speedup per
//! size. At every size it asserts that the two scans agree (the sum of
//! all usefulness values, to 1e-9 relative): the only check of the scan
//! beyond proptest sizes, run by CI's serve-bench job. The other benches
//! own the file's other sections.
//!
//! Per size the report also records what mp-obs costs, each from
//! interleaved pairs of engine scans that alternate which side runs
//! first: recording off vs on (`obs_overhead_pct`, budget ≤ 2%), and
//! plain recording vs recording under an active per-request trace scope
//! (`trace_overhead_pct`, the marginal cost of the waterfall, budget
//! ≤ 2%). Each overhead is the median of the per-pair overheads, with
//! their interquartile range and a verdict against the budget: `pass`
//! when the whole IQR is at or below it, `fail` when the whole IQR is
//! above it, `inconclusive` when the IQR straddles it. The verdicts are
//! printed and recorded, not asserted. Last come the per-phase span
//! averages:
//! the sweep (`engine.sweep`) vs the reference fallback
//! (`engine.reference`, driven once via the absolute-metric `k = 2`
//! branch the sweep cannot serve).

#![expect(
    clippy::disallowed_methods,
    reason = "the bench times its runs with the wall clock"
)]

use criterion::{black_box, criterion_group, Criterion};
use mp_core::expected::RdState;
use mp_core::probing::GreedyPolicy;
use mp_core::{engine, CorrectnessMetric};
use mp_stats::Discrete;
use serde::Serialize;
use std::time::Instant;

const SIZES: [usize; 3] = [16, 64, 256];
const K: usize = 1;
const METRIC: CorrectnessMetric = CorrectnessMetric::Absolute;

/// RDs shaped like real per-query state: 8-point supports with heavy
/// cross-database overlap so the rivals-ahead pmfs do real work.
fn synthetic_state(n: usize) -> RdState {
    let rds = (0..n)
        .map(|i| {
            let base = 10.0 + (i as f64) * 7.3;
            let pts: Vec<(f64, f64)> = (0..8)
                .map(|j| (base * (0.2 + 0.45 * j as f64), 1.0 + ((i + j) % 3) as f64))
                .collect();
            Discrete::from_weighted(&pts).expect("valid RD")
        })
        .collect();
    RdState::new(rds)
}

/// The engine scan — what `GreedyPolicy::select_db` runs per probe.
fn engine_scan(state: &RdState) -> Vec<(usize, f64)> {
    engine::usefulness_all(state, K, METRIC)
}

/// The reference scan the engine replaced: one full per-candidate
/// usefulness evaluation, sequential over candidates.
fn reference_scan(state: &RdState) -> Vec<(usize, f64)> {
    state
        .unprobed()
        .into_iter()
        .map(|i| (i, GreedyPolicy::usefulness(state, i, K, METRIC)))
        .collect()
}

fn bench_scaling(c: &mut Criterion) {
    for n in SIZES {
        let state = synthetic_state(n);
        c.bench_function(&format!("apro/select_db_engine_n{n}"), |b| {
            b.iter(|| black_box(engine_scan(&state)))
        });
    }
}

/// Average span timings of one engine phase, from an mp-obs snapshot.
#[derive(Serialize)]
struct PhaseReport {
    span: String,
    calls: u64,
    avg_total_ns: f64,
    avg_self_ns: f64,
}

#[derive(Serialize)]
struct SizeReport {
    n: usize,
    repeats: usize,
    engine_ns: f64,
    reference_ns: f64,
    speedup: f64,
    /// Sample pairs behind each overhead.
    engine_repeats: usize,
    /// The engine scan re-measured with mp-obs recording enabled.
    engine_ns_obs: f64,
    /// Median over pairs of `(on - off) / off`, as a percentage.
    obs_overhead_pct: f64,
    /// The per-pair overheads' quartiles `[q1, q3]`, as percentages.
    obs_overhead_iqr_pct: Vec<f64>,
    /// `obs_overhead_pct`'s verdict against the 2% budget ([`overhead`]).
    obs_verdict: String,
    /// The engine scan re-measured with recording on *and* an active
    /// per-request trace scope (every engine span also lands in the
    /// request waterfall).
    engine_ns_trace: f64,
    /// Median over pairs of `(traced - plain) / plain`, as a percentage:
    /// the marginal cost of tracing over plain recording.
    trace_overhead_pct: f64,
    /// The per-pair overheads' quartiles `[q1, q3]`, as percentages.
    trace_overhead_iqr_pct: Vec<f64>,
    /// `trace_overhead_pct`'s verdict against the 2% budget.
    trace_verdict: String,
    phases: Vec<PhaseReport>,
}

/// The overhead budget of recording, and of tracing over recording.
const BUDGET_PCT: f64 = 2.0;

/// Per-pair overheads of `treated` over `base`, as percentages: their
/// median, their quartiles, and the verdict against [`BUDGET_PCT`]:
/// `pass` when the whole IQR is at or below it, `fail` when the whole
/// IQR is above it, and `inconclusive` when the noise straddles it.
fn overhead(base: &[f64], treated: &[f64]) -> (f64, [f64; 2], &'static str) {
    let mut pct: Vec<f64> = base
        .iter()
        .zip(treated)
        .map(|(b, t)| (t - b) / b * 100.0)
        .collect();
    pct.sort_by(f64::total_cmp);
    let at = |q: usize| pct[(pct.len() - 1) * q / 4];
    let (q1, median, q3) = (at(1), at(2), at(3));
    let verdict = if q3 <= BUDGET_PCT {
        "pass"
    } else if q1 > BUDGET_PCT {
        "fail"
    } else {
        "inconclusive"
    };
    (median, [q1, q3], verdict)
}

#[derive(Serialize)]
struct ScalingReport {
    bench: String,
    k: usize,
    metric: String,
    support_points: usize,
    sizes: Vec<SizeReport>,
}

/// Median wall-clock nanoseconds of `repeats` runs of `f` (after one
/// warm-up run).
fn median_ns<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    let (_, median, _, _) = criterion::summarize(&samples);
    median
}

/// Wall-clock nanoseconds of one call of `f`.
fn time_ns<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_nanos() as f64
}

/// `repeats` interleaved pairs of timings, one by `a` and one by `b`
/// (after one warm-up of each), index-aligned by pair. Slow drift
/// (thermal, scheduler load on a shared runner) hits both sides of a
/// pair alike, and the side that runs first alternates, so neither side
/// always inherits the cache and clock state the other leaves.
fn interleaved_pairs(
    repeats: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (Vec<f64>, Vec<f64>) {
    a();
    b();
    let mut xs = Vec::with_capacity(repeats);
    let mut ys = Vec::with_capacity(repeats);
    for pair in 0..repeats {
        if pair % 2 == 0 {
            xs.push(a());
            ys.push(b());
        } else {
            ys.push(b());
            xs.push(a());
        }
    }
    (xs, ys)
}

/// Engine scans with mp-obs recording off and on, as interleaved pairs.
/// Leaves recording enabled.
fn obs_pairs(repeats: usize, state: &RdState) -> (Vec<f64>, Vec<f64>) {
    let run = |enabled: bool| {
        mp_obs::set_enabled(enabled);
        time_ns(|| engine_scan(state))
    };
    let pairs = interleaved_pairs(repeats, || run(false), || run(true));
    mp_obs::set_enabled(true);
    pairs
}

/// Engine scans with recording on, plain and under an active
/// per-request trace scope, as interleaved pairs. A fresh scope is begun
/// per traced run *outside* the timed region (one scope holds at most
/// `MAX_TRACE_EVENTS` events, so reusing a scope would measure a
/// saturated — cheaper — waterfall); the timed region then pays exactly
/// what a traced serve request pays per engine span: the thread-local
/// push in `on_span_close`.
fn traced_pairs(repeats: usize, state: &RdState) -> (Vec<f64>, Vec<f64>) {
    mp_obs::set_enabled(true);
    let mut id = 0;
    interleaved_pairs(
        repeats,
        || time_ns(|| engine_scan(state)),
        || {
            id += 1;
            let scope = mp_obs::TraceScope::begin(mp_obs::TraceId(id), Instant::now());
            let ns = time_ns(|| engine_scan(state));
            black_box(scope.finish());
            ns
        },
    )
}

/// The median of `samples`.
fn median(samples: &[f64]) -> f64 {
    let (_, median, _, _) = criterion::summarize(samples);
    median
}

/// Head-to-head measurement written to `BENCH_apro.json`.
fn write_scaling_report() {
    let mut sizes = Vec::new();
    for n in SIZES {
        let state = synthetic_state(n);
        let repeats = if n >= 256 { 3 } else { 7 };
        // The engine scan is cheap enough to sample much harder than
        // the reference scan — the overhead comparisons need the extra
        // resolution (budget: ≤ 2%).
        let engine_repeats = if n >= 256 { 15 } else { 31 };
        // Checksum parity guards against benchmarking diverging code.
        let e: f64 = engine_scan(&state).iter().map(|&(_, u)| u).sum();
        let r: f64 = reference_scan(&state).iter().map(|&(_, u)| u).sum();
        assert!(
            (e - r).abs() < 1e-9 * (1.0 + r.abs()),
            "engine and reference scans disagree at n={n}: {e} vs {r}"
        );
        // Engine scan with recording off (one relaxed atomic load per
        // instrumentation site — the historical meaning of `engine_ns`)
        // and on, interleaved; spans from the on-runs give the phases.
        mp_obs::reset();
        let (off, on) = obs_pairs(engine_repeats, &state);
        let fast_snap = mp_obs::snapshot();
        let (engine_ns, engine_ns_obs) = (median(&off), median(&on));
        let (obs_overhead_pct, obs_overhead_iqr_pct, obs_verdict) = overhead(&off, &on);

        // Marginal cost of an active request trace over plain
        // recording, same interleaved protocol. Reported, not asserted:
        // no job pins run conditions tightly enough for a ≤ 2% gate.
        let (plain, traced) = traced_pairs(engine_repeats, &state);
        let engine_ns_trace = median(&traced);
        let (trace_overhead_pct, trace_overhead_iqr_pct, trace_verdict) = overhead(&plain, &traced);

        mp_obs::set_enabled(false);
        let reference_ns = median_ns(repeats, || reference_scan(&state));
        let speedup = reference_ns / engine_ns;

        // The reference fallback is a separate branch (absolute metric,
        // k = 2); drive it once so its phase is timed too.
        mp_obs::reset();
        mp_obs::set_enabled(true);
        black_box(engine::usefulness_all(
            &state,
            2,
            CorrectnessMetric::Absolute,
        ));
        let fallback_snap = mp_obs::snapshot();

        let mut phases = Vec::new();
        for (snap, names) in [
            (&fast_snap, &["engine.usefulness_all", "engine.sweep"][..]),
            (&fallback_snap, &["engine.reference"][..]),
        ] {
            for row in snap
                .spans
                .iter()
                .filter(|r| names.contains(&r.name.as_str()))
            {
                phases.push(PhaseReport {
                    span: row.name.clone(),
                    calls: row.count,
                    avg_total_ns: row.total_ns as f64 / row.count as f64,
                    avg_self_ns: row.self_ns as f64 / row.count as f64,
                });
            }
        }

        let [obs_q1, obs_q3] = obs_overhead_iqr_pct;
        let [trace_q1, trace_q3] = trace_overhead_iqr_pct;
        eprintln!(
            "apro_scaling n={n}: engine {:.3} ms, reference {:.3} ms, speedup {speedup:.1}x; \
             obs on {obs_overhead_pct:+.2}% (IQR {obs_q1:+.2}..{obs_q3:+.2}%, {obs_verdict}), \
             traced {trace_overhead_pct:+.2}% (IQR {trace_q1:+.2}..{trace_q3:+.2}%, \
             {trace_verdict}) against a {BUDGET_PCT}% budget",
            engine_ns / 1e6,
            reference_ns / 1e6,
        );
        sizes.push(SizeReport {
            n,
            repeats,
            engine_ns,
            reference_ns,
            speedup,
            engine_repeats,
            engine_ns_obs,
            obs_overhead_pct,
            obs_overhead_iqr_pct: obs_overhead_iqr_pct.to_vec(),
            obs_verdict: obs_verdict.to_string(),
            engine_ns_trace,
            trace_overhead_pct,
            trace_overhead_iqr_pct: trace_overhead_iqr_pct.to_vec(),
            trace_verdict: trace_verdict.to_string(),
            phases,
        });
    }
    mp_obs::set_enabled(true);
    let report = ScalingReport {
        bench: "greedy select_db candidate scan".to_string(),
        k: K,
        metric: METRIC.to_string(),
        support_points: 8,
        sizes,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_apro.json");
    mp_bench::merge_bench_json(
        std::path::Path::new(path),
        "apro_scaling",
        report.to_value(),
    )
    .expect("BENCH_apro.json written");
    eprintln!("wrote {path} (section apro_scaling)");
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_scaling
}

fn main() {
    benches();
    write_scaling_report();
}
