//! Serving-layer throughput: queries/sec of [`mp_serve::Server`] over a
//! repeated-query workload, across the worker-count × cache feature
//! matrix.
//!
//! The acceptance comparison (`ISSUE` PR 4) is the 4-worker cached
//! server vs the 1-worker cold-cache baseline on the same stream of
//! `UNIQUE × REPEATS` requests: the cached server must clear **≥ 2×**
//! queries/sec. On a single-core runner the win comes almost entirely
//! from the result cache (repeats are answered without re-running
//! APro), which is exactly why the workload is repeat-heavy; extra
//! workers add whatever overlap the machine actually has.
//!
//! Beyond the acceptance matrix, the bench measures a cold-cache
//! **worker-scaling** sweep (1 / 2 / 4 workers) twice: once with the
//! inner `mp-core::par` fan-out enabled and once with it forced off via
//! [`mp_core::par::set_parallel_enabled`] (the runtime equivalent of
//! building without the `parallel` feature). Each scenario records a
//! `scaling_efficiency` — `qps / (min(workers, cores) × qps of the
//! matching 1-worker row)`, clamped to `[0, 1]` — next to the raw
//! un-normalized `raw_qps_ratio`. The divisor is
//! **hardware-normalized**: on a machine with fewer cores than workers,
//! linear scaling in worker count is physically impossible and the
//! interesting question (the one the shared-nothing cold path answers)
//! is whether surplus workers *cost* throughput through lock convoys.
//! Efficiency 1.0 means the workers extract everything the cores offer
//! (ratios past 1.0 are median noise, so the fraction is clamped and
//! the raw ratio reported separately); the CI guard fails the bench if
//! the cold 4-worker rows fall under 0.7 — the signature of a
//! cross-worker lock reappearing on the serve path.
//!
//! Two **sharded** cold rows (1 and 4 workers over the same fleet
//! partitioned into 4 shards) ride the same matrix and the same ≥ 0.7
//! guard: the partitioned metasearcher answers bit-identically to the
//! one-shard one (the shard layer's equivalence contract), so the rows
//! isolate topology overhead and prove partitioning keeps the
//! shared-nothing cold path lock-free.
//!
//! The bench also emits a per-span self-time profile of the cold
//! 4-worker pass (`repro_output/serve_obs_flame.txt`): mp-obs spans are
//! recorded on each worker's own thread-local stack, so the flame's
//! `hidden.search` / `serve.handle` self-times are exactly the
//! cross-worker hot path this PR de-locked, and CI uploads the file as
//! an artifact for regression archaeology.
//!
//! An **open-loop batched/shed matrix** (`ISSUE` PR 10) rides behind
//! the closed-loop rows: a Zipf-skewed arrival schedule from
//! `mp_workload::openloop` floods the server faster than it completes,
//! and cache-off rows compare batch window 1 vs 8 across 1 and 4
//! workers. The guard here is **batched cold throughput ≥ 1.3× the
//! unbatched single-worker row** — the term-sharing kernel must pay
//! for itself in exactly the duplicate-heavy regime the skew creates —
//! and a fifth row runs the SLO scheduler (tight deadlines + shed
//! limit) to record the shed rate under overload.
//!
//! The report is merged into the `serve_throughput` section of
//! `BENCH_apro.json` at the repository root; the `apro_scaling` and
//! `retrieval_kernel` benches own the file's other sections.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mp_core::{IndependenceEstimator, Metasearcher, RelevancyDef, ShardAssignment};
use mp_eval::{Testbed, TestbedConfig};
use mp_serve::{ServeConfig, ServeRequest, Server};
use mp_workload::{OpenLoopConfig, Query};
use serde::Serialize;

const SEED: u64 = 41;
const UNIQUE: usize = 25;
const REPEATS: usize = 8;
const K: usize = 2;
const THRESHOLD: f64 = 0.85;
const RUNS: usize = 5;

/// The open-loop (batched/shed) matrix: arrivals per run and the Zipf
/// skew of the hot-key distribution. The skew is what gives batches
/// their term overlap — `s = 1.2` makes a handful of queries dominate,
/// the regime the term-sharing kernel is built for.
const OPEN_LOOP_ARRIVALS: usize = 400;
const ZIPF_S: f64 = 1.2;
const BATCH_RUNS: usize = 3;

/// One cell of the feature matrix, measured over `RUNS` fresh servers.
#[derive(Serialize)]
struct ScenarioReport {
    workers: usize,
    /// Shards the fleet is partitioned across.
    shards: usize,
    cache_cap: usize,
    /// Whether the inner `mp-core::par` fan-out was enabled for this
    /// row (`false` ≙ the `parallel` feature compiled out).
    inner_parallel: bool,
    runs: usize,
    /// Median wall nanoseconds for the whole batch.
    wall_ns: f64,
    /// Requests served per second at the median.
    qps: f64,
    /// `min(1, qps / (min(workers, cores) × qps of the matching
    /// 1-worker row))` — the matching row shares this row's cache
    /// capacity and `inner_parallel` setting, and the divisor is capped
    /// at the machine's core count (surplus workers cannot add
    /// throughput, but a shared lock would make them *subtract* it).
    /// 1.0 means the workers extract full linear scaling from the
    /// available cores. The value is **clamped at 1.0**: an efficiency
    /// is a fraction of the linear ideal, and measured ratios above it
    /// are run-to-run noise (a lucky multi-worker median against an
    /// unlucky single-worker one), not super-linear scaling. The
    /// unclamped measurement lives in [`Self::raw_qps_ratio`].
    scaling_efficiency: f64,
    /// `qps / qps of the matching 1-worker row`, un-normalized and
    /// un-clamped — the raw speedup over the single-worker baseline.
    /// This is the number to read when the clamp above kicks in.
    raw_qps_ratio: f64,
    /// Cache accounting from the last run (deterministic for the
    /// 1-worker rows; representative for the multi-worker ones).
    hits: u64,
    misses: u64,
    dedup_joins: u64,
}

/// One row of the open-loop batched/shed matrix. These rows run with
/// the result cache **off** (every skewed duplicate is a cold miss —
/// the regime where term-sharing batches matter) but the RD cache
/// **on** (RD derivation is shared identically in both configurations,
/// so the window-1 vs window-8 comparison isolates the batched
/// scoring kernel).
#[derive(Serialize)]
struct BatchScenarioReport {
    workers: usize,
    batch_window: usize,
    shed_p99_ms: Option<u64>,
    /// Per-request deadline in milliseconds (0 ≙ no deadline — the
    /// throughput rows run deadline-free so nothing sheds).
    deadline_ms: u64,
    arrivals: usize,
    zipf_s: f64,
    runs: usize,
    /// Median wall nanoseconds for the whole schedule.
    wall_ns: f64,
    /// Completed requests per second at the median.
    qps: f64,
    completed: u64,
    sheds: u64,
    deadline_misses: u64,
    /// `sheds / arrivals` from the last measured run — the shed-rate
    /// row the SLO scheduler's acceptance asks for.
    shed_rate: f64,
    batches: u64,
    batched_requests: u64,
}

/// The deterministic Zipf-skewed open-loop schedule, materialized as
/// `(arrival µs, request)` pairs over the testbed's unique query pool.
fn open_loop_requests(queries: &[Query], deadline: Option<Duration>) -> Vec<(u64, ServeRequest)> {
    let schedule = mp_workload::arrivals(&OpenLoopConfig {
        // Far above the server's completion rate: open-loop overload,
        // so backlog (and with it batching opportunity) is sustained.
        rate_per_sec: 2_000_000.0,
        jitter: 0.5,
        n_arrivals: OPEN_LOOP_ARRIVALS,
        n_unique: queries.len(),
        zipf_s: ZIPF_S,
        seed: SEED,
    });
    schedule
        .iter()
        .map(|a| {
            let mut req = ServeRequest::new(queries[a.query_index].clone(), K, THRESHOLD);
            if let Some(d) = deadline {
                req = req.with_deadline(d);
            }
            (a.at_us, req)
        })
        .collect()
}

/// Runs one open-loop row `BATCH_RUNS` times on fresh servers. The
/// driver paces submissions to the schedule's arrival instants (the
/// schedule is faster than the server, so in practice it floods — the
/// point of an open-loop workload) and waits for every ticket at the
/// end; queue back-pressure is the only throttle.
fn run_batch_scenario(
    ms: &Arc<Metasearcher>,
    paced: &[(u64, ServeRequest)],
    workers: usize,
    batch_window: usize,
    shed_p99_ms: Option<u64>,
    deadline_ms: u64,
) -> BatchScenarioReport {
    let mut walls = Vec::with_capacity(BATCH_RUNS);
    let mut last_stats = None;
    for measured in [false, true, true, true] {
        let config = ServeConfig {
            cache_cap: 0,       // every arrival computes: cold-path rows
            rd_cache_cap: 1024, // RD derivation shared in both configs
            ..ServeConfig::new(workers, 0)
        }
        .with_batch_window(batch_window)
        .with_shed_p99_ms(shed_p99_ms);
        let server = Server::new(Arc::clone(ms), config);
        let t = Instant::now();
        server.run(|client| {
            let start = Instant::now();
            let tickets: Vec<_> = paced
                .iter()
                .map(|(at_us, req)| {
                    let target = Duration::from_micros(*at_us);
                    while start.elapsed() < target {
                        std::hint::spin_loop();
                    }
                    client.submit(req.clone())
                })
                .collect();
            for ticket in tickets {
                // Sheds and deadline misses are expected outcomes on
                // the SLO rows, not failures.
                match ticket.and_then(mp_serve::Ticket::wait) {
                    Ok(resp) => {
                        criterion::black_box(resp);
                    }
                    Err(e) => {
                        criterion::black_box(e);
                    }
                }
            }
        });
        let wall = t.elapsed().as_nanos() as f64;
        if measured {
            walls.push(wall);
            last_stats = Some(server.stats());
        }
    }
    let (_, wall_ns, _, _) = criterion::summarize(&walls);
    let stats = last_stats.expect("at least one measured run");
    let qps = stats.completed as f64 / (wall_ns / 1e9);
    let shed_rate = stats.sheds as f64 / paced.len() as f64;
    eprintln!(
        "serve_throughput open-loop workers={workers} window={batch_window} \
         shed_p99_ms={shed_p99_ms:?}: {:.1} ms/schedule, {qps:.0} q/s \
         (completed {} sheds {} deadline_misses {} batches {} batched_requests {})",
        wall_ns / 1e6,
        stats.completed,
        stats.sheds,
        stats.deadline_misses,
        stats.batches,
        stats.batched_requests
    );
    BatchScenarioReport {
        workers,
        batch_window,
        shed_p99_ms,
        deadline_ms,
        arrivals: paced.len(),
        zipf_s: ZIPF_S,
        runs: BATCH_RUNS,
        wall_ns,
        qps,
        completed: stats.completed,
        sheds: stats.sheds,
        deadline_misses: stats.deadline_misses,
        shed_rate,
        batches: stats.batches,
        batched_requests: stats.batched_requests,
    }
}

/// Windowed tail-latency numbers from one cached pass-by-pass run: the
/// driver ticks the serve window wheel once per repeat pass, so the
/// rolling percentiles cover only the most recent passes while the
/// cumulative ones cover the whole batch (including the cold misses of
/// pass one).
#[derive(Serialize)]
struct RollingReport {
    workers: usize,
    cache_cap: usize,
    /// Window ticks driven (= repeat passes).
    window_ticks: u64,
    rolling_p50_us: u64,
    rolling_p99_us: u64,
    rolling_max_us: u64,
    /// Requests inside the rolling window.
    rolling_count: u64,
    cumulative_p50_us: u64,
    cumulative_p99_us: u64,
    cumulative_max_us: u64,
}

#[derive(Serialize)]
struct ThroughputReport {
    bench: String,
    unique_queries: usize,
    repeats: usize,
    k: usize,
    threshold: f64,
    /// Cores the runner actually has — the normalizer behind every
    /// `scaling_efficiency` value (see the bench module docs).
    cores: usize,
    scenarios: Vec<ScenarioReport>,
    /// Rolling (windowed) vs cumulative latency percentiles of the
    /// cached 4-worker configuration (mp-obs window wheel; all zeros
    /// with the `obs` feature off).
    rolling: RollingReport,
    /// `qps(4 workers, cache on) / qps(1 worker, cache off)` — the
    /// acceptance number (must be ≥ 2).
    speedup_vs_cold_baseline: f64,
    /// The open-loop batched/shed matrix: Zipf-skewed arrivals, cache
    /// off, batch window 1 vs 8, plus an SLO-shed row.
    open_loop: Vec<BatchScenarioReport>,
    /// `qps(window 8) / qps(window 1)` on the single-worker cold
    /// open-loop rows — the term-sharing acceptance number (must be
    /// ≥ 1.3 under the skewed workload).
    batched_cold_speedup: f64,
}

/// The testbed's metasearcher, its fleet partitioned into `shards`.
fn shared_metasearcher(tb: &Testbed, shards: usize) -> Arc<Metasearcher> {
    Metasearcher::with_library(
        tb.mediator.clone(),
        Box::new(IndependenceEstimator),
        RelevancyDef::DocFrequency,
        tb.library.clone(),
    )
    .partitioned(&ShardAssignment::ByNameFnv(shards))
    .shared()
}

/// Repeat-major stream: the full unique set, `REPEATS` passes — so with
/// the cache on every pass after the first is pure hits, never
/// in-flight joins.
fn stream(queries: &[Query]) -> Vec<ServeRequest> {
    (0..REPEATS)
        .flat_map(|_| {
            queries
                .iter()
                .map(|q| ServeRequest::new(q.clone(), K, THRESHOLD))
        })
        .collect()
}

/// Runs one scenario `RUNS` times on fresh servers (cold cache each
/// run, so cache-on rows pay their compulsory misses) and reports the
/// median wall time.
fn run_scenario(
    ms: &Arc<Metasearcher>,
    shards: usize,
    requests: &[ServeRequest],
    workers: usize,
    cache_cap: usize,
    inner_parallel: bool,
) -> ScenarioReport {
    mp_core::par::set_parallel_enabled(inner_parallel);
    let mut walls = Vec::with_capacity(RUNS);
    let mut last_stats = None;
    // Warm-up run absorbs first-touch effects (lazy allocs, page-ins).
    for measured in [false, true, true, true, true, true] {
        let server = Server::new(Arc::clone(ms), ServeConfig::new(workers, cache_cap));
        let t = Instant::now();
        for r in server.serve_batch(requests.iter().cloned()) {
            let resp = r.expect("back-pressure submission never rejects");
            criterion::black_box(resp);
        }
        let wall = t.elapsed().as_nanos() as f64;
        if measured {
            walls.push(wall);
            last_stats = Some(server.stats());
        }
    }
    mp_core::par::set_parallel_enabled(true);
    let (_, wall_ns, _, _) = criterion::summarize(&walls);
    let stats = last_stats.expect("at least one measured run");
    let qps = requests.len() as f64 / (wall_ns / 1e9);
    eprintln!(
        "serve_throughput workers={workers} shards={shards} cache_cap={cache_cap} \
         inner_parallel={inner_parallel}: \
         {:.1} ms/batch, {qps:.0} q/s (hits {} misses {} joins {})",
        wall_ns / 1e6,
        stats.hits,
        stats.misses,
        stats.dedup_joins
    );
    ScenarioReport {
        workers,
        shards,
        cache_cap,
        inner_parallel,
        runs: RUNS,
        wall_ns,
        qps,
        scaling_efficiency: 1.0, // filled in once all rows are measured
        raw_qps_ratio: 1.0,      // likewise
        hits: stats.hits,
        misses: stats.misses,
        dedup_joins: stats.dedup_joins,
    }
}

/// Fills `scaling_efficiency` and `raw_qps_ratio` for every row from
/// its matching 1-worker row (same cache capacity and `inner_parallel`
/// setting). The efficiency is hardware-normalized —
/// `qps / (min(workers, cores) × base)` — and clamped to `[0, 1]`:
/// values above 1.0 are measurement noise, not super-linear scaling,
/// and reporting them as "efficiency" misreads the normalizer. The raw
/// (un-normalized, un-clamped) qps ratio is kept alongside so the
/// underlying measurement is never lost to the clamp.
fn fill_scaling_efficiency(scenarios: &mut [ScenarioReport], cores: usize) {
    let singles: Vec<(usize, usize, bool, f64)> = scenarios
        .iter()
        .filter(|s| s.workers == 1)
        .map(|s| (s.shards, s.cache_cap, s.inner_parallel, s.qps))
        .collect();
    for s in scenarios.iter_mut() {
        let base = singles
            .iter()
            .find(|&&(sh, cap, par, _)| {
                sh == s.shards && cap == s.cache_cap && par == s.inner_parallel
            })
            .map(|&(_, _, _, qps)| qps)
            .expect("every matrix row has a matching 1-worker baseline row");
        s.raw_qps_ratio = s.qps / base;
        s.scaling_efficiency = (s.qps / (s.workers.min(cores) as f64 * base)).min(1.0);
    }
}

/// Drives one cached server pass by pass (one window tick per pass) and
/// reads the rolling vs cumulative latency percentiles off its stats.
fn measure_rolling(ms: &Arc<Metasearcher>, queries: &[Query], workers: usize) -> RollingReport {
    let cache_cap = 1024;
    let server = Server::new(Arc::clone(ms), ServeConfig::new(workers, cache_cap));
    server.run(|client| {
        for _ in 0..REPEATS {
            let tickets: Vec<_> = queries
                .iter()
                .map(|q| client.submit(ServeRequest::new(q.clone(), K, THRESHOLD)))
                .collect();
            for t in tickets {
                let resp = t
                    .and_then(mp_serve::Ticket::wait)
                    .expect("back-pressure submission never rejects");
                criterion::black_box(resp);
            }
            server.tick_window();
        }
    });
    let stats = server.stats();
    eprintln!(
        "serve_throughput rolling (last {} tick(s)): p50 {} µs, p99 {} µs, \
         max {} µs over {} request(s); cumulative p50 {} µs, p99 {} µs",
        stats.window_ticks,
        stats.rolling_p50_us,
        stats.rolling_p99_us,
        stats.rolling_max_us,
        stats.rolling_count,
        stats.p50_us,
        stats.p99_us
    );
    RollingReport {
        workers,
        cache_cap,
        window_ticks: stats.window_ticks,
        rolling_p50_us: stats.rolling_p50_us,
        rolling_p99_us: stats.rolling_p99_us,
        rolling_max_us: stats.rolling_max_us,
        rolling_count: stats.rolling_count,
        cumulative_p50_us: stats.p50_us,
        cumulative_p99_us: stats.p99_us,
        cumulative_max_us: stats.latency_max_us,
    }
}

/// Profiles one cold multi-worker batch with a clean mp-obs registry
/// and writes the per-span self-time breakdown (each worker records on
/// its own thread-local span stack; the flame aggregates by span name)
/// to `repro_output/serve_obs_flame.txt` for the CI artifact.
fn write_flame_profile(ms: &Arc<Metasearcher>, requests: &[ServeRequest], workers: usize) {
    mp_obs::reset();
    let server = Server::new(Arc::clone(ms), ServeConfig::new(workers, 0));
    for r in server.serve_batch(requests.iter().cloned()) {
        criterion::black_box(r.expect("back-pressure submission never rejects"));
    }
    let snap = mp_obs::snapshot();
    let out_dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../repro_output"));
    std::fs::create_dir_all(out_dir).expect("repro_output is creatable");
    let path = out_dir.join("serve_obs_flame.txt");
    let mut body = format!(
        "cold serve path, {workers} workers, {} requests, obs recording {}\n\n",
        requests.len(),
        if snap.enabled { "on" } else { "off" }
    );
    body.push_str(&snap.render_flame());
    std::fs::write(&path, body).expect("flame profile written");
    eprintln!(
        "wrote {} (cold {workers}-worker span self-times)",
        path.display()
    );
}

fn main() {
    let tb = Testbed::build(TestbedConfig::tiny(SEED));
    let ms = shared_metasearcher(&tb, 1);
    let queries: Vec<Query> = tb
        .split
        .test
        .queries()
        .iter()
        .take(UNIQUE)
        .cloned()
        .collect();
    assert_eq!(queries.len(), UNIQUE, "testbed provides the unique set");
    let requests = stream(&queries);

    // The same fleet partitioned into shards answers bit-identically
    // (the shard layer's equivalence contract), so these rows measure
    // pure topology overhead.
    const SHARDS: usize = 4;
    let sharded = shared_metasearcher(&tb, SHARDS);

    // Acceptance matrix (inner fan-out on) + cold-cache worker-scaling
    // sweep with the inner fan-out on vs forced off + cold sharded rows
    // (the cold 4-worker sharded row sits under the same ≥ 0.7 scaling
    // guard as the flat one: partitioning must not reintroduce a
    // cross-worker lock).
    let matrix = [
        (1usize, 0usize, true, 1usize),
        (1, 1024, true, 1),
        (2, 0, true, 1),
        (4, 0, true, 1),
        (4, 1024, true, 1),
        (1, 0, false, 1),
        (2, 0, false, 1),
        (4, 0, false, 1),
        (1, 0, true, SHARDS),
        (4, 0, true, SHARDS),
    ];
    let mut scenarios: Vec<ScenarioReport> = matrix
        .iter()
        .map(|&(workers, cap, par, shards)| {
            let target = if shards == 1 { &ms } else { &sharded };
            run_scenario(target, shards, &requests, workers, cap, par)
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    fill_scaling_efficiency(&mut scenarios, cores);
    for s in &scenarios {
        eprintln!(
            "serve_throughput workers={} shards={} cache_cap={} inner_parallel={}: \
             scaling efficiency {:.2} ({cores} cores)",
            s.workers, s.shards, s.cache_cap, s.inner_parallel, s.scaling_efficiency
        );
    }

    // Scaling-regression guard: a cold 4-worker row falling under 0.7
    // means surplus workers are *losing* throughput to a cross-worker
    // lock on the serve path (the defect this bench re-measures). The
    // serve-bench CI job relies on this assert firing.
    for s in scenarios
        .iter()
        .filter(|s| s.workers == 4 && s.cache_cap == 0)
    {
        assert!(
            s.scaling_efficiency >= 0.7,
            "cold scaling regression: 4-worker (shards={}, inner_parallel={}) efficiency \
             {:.2} < 0.7 on {cores} cores — a shared lock is back on the cold path",
            s.shards,
            s.inner_parallel,
            s.scaling_efficiency
        );
    }

    // Per-worker span self-time profile of the cold 4-worker pass (the
    // configuration the lock inventory is about), uploaded by CI.
    write_flame_profile(&ms, &requests, 4);

    // Windowed tail-latency snapshot of the cached configuration.
    let rolling = measure_rolling(&ms, &queries, 4);

    let baseline = scenarios
        .iter()
        .find(|s| s.workers == 1 && s.shards == 1 && s.cache_cap == 0 && s.inner_parallel)
        .expect("baseline scenario present");
    let candidate = scenarios
        .iter()
        .find(|s| s.workers == 4 && s.shards == 1 && s.cache_cap > 0 && s.inner_parallel)
        .expect("candidate scenario present");
    let speedup = candidate.qps / baseline.qps;
    eprintln!("serve_throughput speedup (4w cached vs 1w cold): {speedup:.1}x");
    assert!(
        speedup >= 2.0,
        "acceptance: cached serving must be >= 2x the cold baseline, got {speedup:.2}x"
    );

    // Open-loop batched/shed matrix. Recording is enabled so the SLO
    // row's rolling p99 (obs-gated) sees real latencies; the window-1
    // and window-8 rows carry the same recording overhead, so the
    // batched-vs-unbatched comparison stays apples-to-apples.
    mp_obs::set_enabled(true);
    let open = open_loop_requests(&queries, None);
    let open_deadlined = open_loop_requests(&queries, Some(Duration::from_millis(30)));
    let open_loop = vec![
        run_batch_scenario(&ms, &open, 1, 1, None, 0),
        run_batch_scenario(&ms, &open, 1, 8, None, 0),
        run_batch_scenario(&ms, &open, 4, 1, None, 0),
        run_batch_scenario(&ms, &open, 4, 8, None, 0),
        run_batch_scenario(&ms, &open_deadlined, 4, 8, Some(1), 30),
    ];

    // Term-sharing acceptance guard: under the skewed open-loop
    // workload, batched cold execution must clear ≥ 1.3× the
    // unbatched single-worker cold throughput. A fall below means the
    // batch kernel stopped sharing traversals (or batch formation
    // broke) — the perf contract of this matrix.
    let unbatched = open_loop
        .iter()
        .find(|s| s.workers == 1 && s.batch_window == 1)
        .expect("unbatched open-loop row present");
    let batched = open_loop
        .iter()
        .find(|s| s.workers == 1 && s.batch_window == 8)
        .expect("batched open-loop row present");
    let batched_cold_speedup = batched.qps / unbatched.qps;
    eprintln!(
        "serve_throughput batched cold speedup (window 8 vs 1, 1 worker): \
         {batched_cold_speedup:.2}x"
    );
    assert!(
        batched_cold_speedup >= 1.3,
        "acceptance: batched cold serving must be >= 1.3x unbatched under the skewed \
         open-loop workload, got {batched_cold_speedup:.2}x"
    );
    let shed_row = open_loop
        .iter()
        .find(|s| s.shed_p99_ms.is_some())
        .expect("shed-rate row present");
    eprintln!(
        "serve_throughput shed row: rate {:.3} ({} sheds / {} arrivals)",
        shed_row.shed_rate, shed_row.sheds, shed_row.arrivals
    );

    let report = ThroughputReport {
        bench: "server queries/sec, repeated-query workload".to_string(),
        unique_queries: UNIQUE,
        repeats: REPEATS,
        k: K,
        threshold: THRESHOLD,
        cores,
        scenarios,
        rolling,
        speedup_vs_cold_baseline: speedup,
        open_loop,
        batched_cold_speedup,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_apro.json");
    mp_bench::merge_bench_json(
        std::path::Path::new(path),
        "serve_throughput",
        report.to_value(),
    )
    .expect("BENCH_apro.json written");
    eprintln!("wrote {path} (section serve_throughput)");
}
