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
//! Per size the report also records what mp-obs sees: the engine scan
//! re-measured with recording on (`engine_ns_obs`, overhead budget
//! ≤ 2% of `engine_ns`), then again under an active per-request trace
//! scope (`engine_ns_trace` / `trace_overhead_pct` — the marginal cost
//! of the waterfall, budget ≤ 2% over plain recording); both budgets
//! are reported, not asserted. Last come the per-phase span averages:
//! the sweep (`engine.sweep`) vs the reference fallback
//! (`engine.reference`, driven once via the absolute-metric `k = 2`
//! branch the sweep cannot serve).

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
    /// Off/on sample pairs behind `engine_ns` / `engine_ns_obs`.
    engine_repeats: usize,
    /// The engine scan re-measured with mp-obs recording enabled.
    engine_ns_obs: f64,
    /// `(engine_ns_obs - engine_ns) / engine_ns`, as a percentage.
    obs_overhead_pct: f64,
    /// The engine scan re-measured with recording on *and* an active
    /// per-request trace scope (every engine span also lands in the
    /// request waterfall).
    engine_ns_trace: f64,
    /// `(engine_ns_trace - engine_ns_obs) / engine_ns_obs`, as a
    /// percentage — the marginal cost of tracing over plain recording
    /// (budget: ≤ 2%, reported, not asserted).
    trace_overhead_pct: f64,
    phases: Vec<PhaseReport>,
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

/// Median wall-clock nanoseconds of `f` with mp-obs recording off and
/// on, measured as interleaved off/on pairs so slow drift (thermal,
/// scheduler load on a shared runner) hits both sides equally instead
/// of biasing the overhead comparison. Leaves recording enabled.
fn paired_medians_ns<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, f64) {
    for enabled in [false, true] {
        mp_obs::set_enabled(enabled);
        black_box(f()); // warm-up, both modes
    }
    let mut off = Vec::with_capacity(repeats);
    let mut on = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        mp_obs::set_enabled(false);
        let t = Instant::now();
        black_box(f());
        off.push(t.elapsed().as_nanos() as f64);
        mp_obs::set_enabled(true);
        let t = Instant::now();
        black_box(f());
        on.push(t.elapsed().as_nanos() as f64);
    }
    let (_, off_med, _, _) = criterion::summarize(&off);
    let (_, on_med, _, _) = criterion::summarize(&on);
    (off_med, on_med)
}

/// Median wall-clock nanoseconds of `f` with recording on, measured as
/// interleaved pairs: plain vs under an active per-request trace scope.
/// Same drift-cancelling protocol as [`paired_medians_ns`]. A fresh
/// scope is begun per iteration *outside* the timed region (one scope
/// holds at most `MAX_TRACE_EVENTS` events, so reusing a scope would
/// measure a saturated — cheaper — waterfall); the timed region then
/// pays exactly what a traced serve request pays per engine span: the
/// thread-local push in `on_span_close`. Leaves recording enabled.
fn traced_medians_ns<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, f64) {
    mp_obs::set_enabled(true);
    black_box(f()); // warm-up
    let mut plain = Vec::with_capacity(repeats);
    let mut traced = Vec::with_capacity(repeats);
    for i in 0..repeats {
        let t = Instant::now();
        black_box(f());
        plain.push(t.elapsed().as_nanos() as f64);
        let scope = mp_obs::TraceScope::begin(mp_obs::TraceId(i as u64 + 1), Instant::now());
        let t = Instant::now();
        black_box(f());
        traced.push(t.elapsed().as_nanos() as f64);
        black_box(scope.finish());
    }
    let (_, plain_med, _, _) = criterion::summarize(&plain);
    let (_, traced_med, _, _) = criterion::summarize(&traced);
    (plain_med, traced_med)
}

/// Head-to-head measurement written to `BENCH_apro.json`.
fn write_scaling_report() {
    let mut sizes = Vec::new();
    for n in SIZES {
        let state = synthetic_state(n);
        let repeats = if n >= 256 { 3 } else { 7 };
        // The engine scan is cheap enough to sample much harder than
        // the reference scan — the off/on overhead comparison needs
        // the extra resolution (budget: ≤ 2%).
        let engine_repeats = if n >= 256 { 7 } else { 31 };
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
        let (engine_ns, engine_ns_obs) = paired_medians_ns(engine_repeats, || engine_scan(&state));
        let fast_snap = mp_obs::snapshot();
        let obs_overhead_pct = (engine_ns_obs - engine_ns) / engine_ns * 100.0;

        // Marginal cost of an active request trace over plain
        // recording, same interleaved protocol. Reported, not asserted:
        // no job pins run conditions tightly enough for a ≤ 2% gate.
        let (trace_base_ns, engine_ns_trace) =
            traced_medians_ns(engine_repeats, || engine_scan(&state));
        let trace_overhead_pct = (engine_ns_trace - trace_base_ns) / trace_base_ns * 100.0;

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

        eprintln!(
            "apro_scaling n={n}: engine {:.3} ms (obs on {:.3} ms, {obs_overhead_pct:+.2}%; \
             traced {:.3} ms, {trace_overhead_pct:+.2}%), \
             reference {:.3} ms, speedup {speedup:.1}x",
            engine_ns / 1e6,
            engine_ns_obs / 1e6,
            engine_ns_trace / 1e6,
            reference_ns / 1e6
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
            engine_ns_trace,
            trace_overhead_pct,
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
