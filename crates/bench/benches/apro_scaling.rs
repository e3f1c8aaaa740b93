//! APro hot-path scaling: the greedy `select_db` candidate scan, one
//! sweep over the merged RD support (`engine::usefulness_all`), vs the
//! reference evaluation per candidate, at `n ∈ {16, 64, 256}` mediated
//! databases.
//!
//! The bench merges its report into the `apro_scaling` section of the
//! machine-readable `BENCH_apro.json` at the repository root, recording
//! both timings and the speedup per size. At every size it asserts that
//! the two scans agree (the sum of all usefulness values, to 1e-9
//! relative): the only check of the scan beyond proptest sizes, run by
//! CI's serve-bench job. The other benches own the file's other
//! sections. Every timing is a median from `mp_bench::measure`.
//!
//! Per size the report also records what mp-obs costs, each from
//! interleaved pairs of engine scans that alternate which side runs
//! first: recording off vs on (`obs_overhead_pct`, budget ≤ 2%), and
//! plain recording vs recording under an active per-request trace scope
//! (`trace_overhead_pct`, the marginal cost of the waterfall, budget
//! ≤ 2%). Each overhead is the median of the per-pair overheads, with
//! their interquartile range and a verdict against the budget
//! (`Summary::against`): `pass` when the whole IQR is at or below it,
//! `fail` when the whole IQR is above it, `inconclusive` when the IQR
//! straddles it. The verdicts are printed and recorded, not asserted.
//! Last come the per-phase span averages: the sweep (`engine.sweep`)
//! vs the reference fallback (`engine.reference`, driven once via the
//! absolute-metric `k = 2` branch the sweep cannot serve).

#![expect(
    clippy::disallowed_methods,
    reason = "a trace scope begins at a wall-clock instant"
)]

use mp_bench::measure::{self, Summary};
use mp_core::expected::RdState;
use mp_core::probing::GreedyPolicy;
use mp_core::{engine, CorrectnessMetric};
use mp_stats::Discrete;
use serde::Serialize;
use std::hint::black_box;
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
    /// `obs_overhead_pct`'s verdict against the 2% budget
    /// (`Summary::against` on the per-pair overheads).
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

/// Per-pair overheads of `treated` over `base`, as percentages.
fn overheads(base: &[f64], treated: &[f64]) -> Summary {
    let pct: Vec<f64> = base
        .iter()
        .zip(treated)
        .map(|(b, t)| (t - b) / b * 100.0)
        .collect();
    Summary::of(&pct)
}

#[derive(Serialize)]
struct ScalingReport {
    bench: String,
    k: usize,
    metric: String,
    support_points: usize,
    sizes: Vec<SizeReport>,
}

/// Engine scans with mp-obs recording off and on, as interleaved pairs.
/// Leaves recording enabled.
fn obs_pairs(repeats: usize, state: &RdState) -> (Vec<f64>, Vec<f64>) {
    let run = |enabled: bool| {
        mp_obs::set_enabled(enabled);
        measure::elapsed_ns(|| engine_scan(state))
    };
    let pairs = measure::interleaved(repeats, || run(false), || run(true));
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
    measure::interleaved(
        repeats,
        || measure::elapsed_ns(|| engine_scan(state)),
        || {
            id += 1;
            let scope = mp_obs::TraceScope::begin(mp_obs::TraceId(id), Instant::now());
            let ns = measure::elapsed_ns(|| engine_scan(state));
            black_box(scope.finish());
            ns
        },
    )
}

/// Head-to-head measurement written to `BENCH_apro.json`.
fn main() {
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
        let (engine_ns, engine_ns_obs) = (Summary::of(&off).median, Summary::of(&on).median);
        let obs = overheads(&off, &on);

        // Marginal cost of an active request trace over plain
        // recording, same interleaved protocol. Reported, not asserted:
        // no job pins run conditions tightly enough for a ≤ 2% gate.
        let (plain, traced) = traced_pairs(engine_repeats, &state);
        let engine_ns_trace = Summary::of(&traced).median;
        let trace = overheads(&plain, &traced);

        mp_obs::set_enabled(false);
        let reference_ns = measure::timed(repeats, || reference_scan(&state)).median;
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

        let (obs_verdict, trace_verdict) = (obs.against(BUDGET_PCT), trace.against(BUDGET_PCT));
        eprintln!(
            "apro_scaling n={n}: engine {:.3} ms, reference {:.3} ms, speedup {speedup:.1}x; \
             obs on {:+.2}% (IQR {:+.2}..{:+.2}%, {obs_verdict}), \
             traced {:+.2}% (IQR {:+.2}..{:+.2}%, {trace_verdict}) against a {BUDGET_PCT}% budget",
            engine_ns / 1e6,
            reference_ns / 1e6,
            obs.median,
            obs.q1,
            obs.q3,
            trace.median,
            trace.q1,
            trace.q3,
        );
        sizes.push(SizeReport {
            n,
            repeats,
            engine_ns,
            reference_ns,
            speedup,
            engine_repeats,
            engine_ns_obs,
            obs_overhead_pct: obs.median,
            obs_overhead_iqr_pct: vec![obs.q1, obs.q3],
            obs_verdict: obs_verdict.to_string(),
            engine_ns_trace,
            trace_overhead_pct: trace.median,
            trace_overhead_iqr_pct: vec![trace.q1, trace.q3],
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
