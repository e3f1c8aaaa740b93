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
//! **worker-scaling** sweep (1 / 2 / 4 workers). Each scenario records
//! a `scaling_efficiency` — `qps / (min(workers, cores) × qps of the
//! matching 1-worker row)`, clamped to `[0, 1]` — next to the raw
//! un-normalized `raw_qps_ratio`. The divisor is
//! **hardware-normalized**: on a machine with fewer cores than workers,
//! linear scaling in worker count is physically impossible and the
//! interesting question (the one the shared-nothing cold path answers)
//! is whether surplus workers *cost* throughput through lock convoys.
//! Efficiency 1.0 means the workers extract everything the cores offer
//! (ratios past 1.0 are median noise, so the fraction is clamped and
//! the raw ratio reported separately); the CI guard fails the bench if
//! the cold 4-worker row falls under 0.7 — the signature of a
//! cross-worker lock reappearing on the serve path.
//!
//! The bench also emits a per-span self-time profile of the cold
//! 4-worker pass (`repro_output/serve_obs_flame.txt`): mp-obs spans are
//! recorded on each worker's own thread-local stack, so the flame's
//! `hidden.search` / `serve.handle` self-times are exactly the
//! cross-worker hot path this PR de-locked, and CI uploads the file as
//! an artifact for regression archaeology.
//!
//! **Open-loop rows** ride behind the closed-loop ones: a Zipf-skewed
//! arrival schedule from `mp_workload::openloop` floods the server
//! faster than it completes, with the result cache off, on 1 and then
//! 4 workers. A third row repeats the 4-worker flood with the SLO
//! shedder armed to record the shed rate under overload. Its deadline
//! is the unshed 4-worker row's median latency, rounded up to whole
//! milliseconds, so that the flood's tail cannot make it. A fixed
//! deadline drifts out of the shedding regime as the server gets
//! faster: a flood that finishes inside its deadline sheds nothing.
//!
//! The report is merged into the `serve_throughput` section of
//! `BENCH_apro.json` at the repository root (the `apro_scaling` and
//! `retrieval_kernel` benches own the file's other sections) before
//! any guard fires, so a failing run still records its readings.

#![expect(
    clippy::disallowed_methods,
    reason = "the bench times its runs with the wall clock"
)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use mp_core::{IndependenceEstimator, Metasearcher, RelevancyDef};
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

/// The open-loop rows: arrivals per run and the Zipf skew of the
/// hot-key distribution (`s = 1.2` makes a handful of queries
/// dominate).
const OPEN_LOOP_ARRIVALS: usize = 400;
const ZIPF_S: f64 = 1.2;
const OPEN_LOOP_RUNS: usize = 3;
/// The shed row's p99 limit, milliseconds.
const SHED_P99_MS: u64 = 1;

/// One cell of the feature matrix, measured over `RUNS` fresh servers.
#[derive(Serialize)]
struct ScenarioReport {
    workers: usize,
    cache_cap: usize,
    runs: usize,
    /// Median wall nanoseconds for the whole batch.
    wall_ns: f64,
    /// Requests served per second at the median.
    qps: f64,
    /// `min(1, qps / (min(workers, cores) × qps of the matching
    /// 1-worker row))` — the matching row shares this row's cache
    /// capacity, and the divisor is capped at the machine's core count
    /// (surplus workers cannot add throughput, but a shared lock would
    /// make them *subtract* it).
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

/// One open-loop row. These rows run with the result cache **off**, so
/// every arrival, skewed duplicates included, computes on the cold path.
#[derive(Serialize)]
struct OpenLoopReport {
    workers: usize,
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
    /// Median completed-request latency of the last measured run
    /// (bucket upper bound), microseconds.
    p50_us: u64,
    completed: u64,
    sheds: u64,
    deadline_misses: u64,
    /// `sheds / arrivals` from the last measured run.
    shed_rate: f64,
}

/// The deterministic Zipf-skewed open-loop schedule, materialized as
/// `(arrival µs, request)` pairs over the testbed's unique query pool.
fn open_loop_requests(queries: &[Query], deadline: Option<Duration>) -> Vec<(u64, ServeRequest)> {
    let schedule = mp_workload::arrivals(&OpenLoopConfig {
        // Far above the server's completion rate: open-loop overload,
        // so the backlog is sustained.
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

/// Runs one open-loop row `OPEN_LOOP_RUNS` times on fresh servers. The
/// driver paces submissions to the schedule's arrival instants (the
/// schedule is faster than the server, so in practice it floods — the
/// point of an open-loop workload) and waits for every ticket at the
/// end; queue back-pressure is the only throttle.
fn run_open_loop(
    ms: &Arc<Metasearcher>,
    paced: &[(u64, ServeRequest)],
    workers: usize,
    shed_p99_ms: Option<u64>,
    deadline_ms: u64,
) -> OpenLoopReport {
    let mut walls = Vec::with_capacity(OPEN_LOOP_RUNS);
    let mut last_stats = None;
    for measured in [false, true, true, true] {
        let config = ServeConfig::new(workers, 0).with_shed_p99_ms(shed_p99_ms);
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
        "serve_throughput open-loop workers={workers} shed_p99_ms={shed_p99_ms:?} \
         deadline_ms={deadline_ms}: {:.1} ms/schedule, {qps:.0} q/s, p50 {} µs \
         (completed {} sheds {} deadline_misses {})",
        wall_ns / 1e6,
        stats.p50_us,
        stats.completed,
        stats.sheds,
        stats.deadline_misses
    );
    OpenLoopReport {
        workers,
        shed_p99_ms,
        deadline_ms,
        arrivals: paced.len(),
        zipf_s: ZIPF_S,
        runs: OPEN_LOOP_RUNS,
        wall_ns,
        qps,
        p50_us: stats.p50_us,
        completed: stats.completed,
        sheds: stats.sheds,
        deadline_misses: stats.deadline_misses,
        shed_rate,
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
    /// cached 4-worker configuration (the server's own mp-obs window
    /// wheel, which records with recording on or off).
    rolling: RollingReport,
    /// `qps(4 workers, cache on) / qps(1 worker, cache off)` — the
    /// acceptance number (must be ≥ 2).
    speedup_vs_cold_baseline: f64,
    /// The open-loop rows: Zipf-skewed arrivals, cache off, 1 and 4
    /// workers, plus the 4-worker SLO-shed row.
    open_loop: Vec<OpenLoopReport>,
}

/// The testbed's metasearcher.
fn shared_metasearcher(tb: &Testbed) -> Arc<Metasearcher> {
    Metasearcher::with_library(
        tb.mediator.clone(),
        Box::new(IndependenceEstimator),
        RelevancyDef::DocFrequency,
        tb.library.clone(),
    )
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
    requests: &[ServeRequest],
    workers: usize,
    cache_cap: usize,
) -> ScenarioReport {
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
    let (_, wall_ns, _, _) = criterion::summarize(&walls);
    let stats = last_stats.expect("at least one measured run");
    let qps = requests.len() as f64 / (wall_ns / 1e9);
    eprintln!(
        "serve_throughput workers={workers} cache_cap={cache_cap}: \
         {:.1} ms/batch, {qps:.0} q/s (hits {} misses {} joins {})",
        wall_ns / 1e6,
        stats.hits,
        stats.misses,
        stats.dedup_joins
    );
    ScenarioReport {
        workers,
        cache_cap,
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
/// its matching 1-worker row (same cache capacity). The efficiency is
/// hardware-normalized — `qps / (min(workers, cores) × base)` — and
/// clamped to `[0, 1]`: values above 1.0 are measurement noise, not
/// super-linear scaling, and reporting them as "efficiency" misreads
/// the normalizer. The raw (un-normalized, un-clamped) qps ratio is
/// kept alongside so the underlying measurement is never lost to the
/// clamp.
fn fill_scaling_efficiency(scenarios: &mut [ScenarioReport], cores: usize) {
    let singles: Vec<(usize, f64)> = scenarios
        .iter()
        .filter(|s| s.workers == 1)
        .map(|s| (s.cache_cap, s.qps))
        .collect();
    for s in scenarios.iter_mut() {
        let base = singles
            .iter()
            .find(|&&(cap, _)| cap == s.cache_cap)
            .map(|&(_, qps)| qps)
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
    let ms = shared_metasearcher(&tb);
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

    // Acceptance matrix + cold-cache worker-scaling sweep, keyed by
    // (workers, cache capacity).
    let matrix = [(1usize, 0usize), (1, 1024), (2, 0), (4, 0), (4, 1024)];
    let mut scenarios: Vec<ScenarioReport> = matrix
        .iter()
        .map(|&(workers, cap)| run_scenario(&ms, &requests, workers, cap))
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    fill_scaling_efficiency(&mut scenarios, cores);
    for s in &scenarios {
        eprintln!(
            "serve_throughput workers={} cache_cap={}: scaling efficiency {:.2} ({cores} cores)",
            s.workers, s.cache_cap, s.scaling_efficiency
        );
    }

    // Per-worker span self-time profile of the cold 4-worker pass (the
    // configuration the lock inventory is about), uploaded by CI.
    write_flame_profile(&ms, &requests, 4);

    // Windowed tail-latency snapshot of the cached configuration.
    let rolling = measure_rolling(&ms, &queries, 4);

    let baseline = scenarios
        .iter()
        .find(|s| s.workers == 1 && s.cache_cap == 0)
        .expect("baseline scenario present");
    let candidate = scenarios
        .iter()
        .find(|s| s.workers == 4 && s.cache_cap > 0)
        .expect("candidate scenario present");
    let speedup = candidate.qps / baseline.qps;
    eprintln!("serve_throughput speedup (4w cached vs 1w cold): {speedup:.1}x");

    // Open-loop rows. Recording is enabled so every row carries the
    // same recording overhead; the shed row's rolling p99 reads the
    // server's own window, which records either way.
    mp_obs::set_enabled(true);
    let open = open_loop_requests(&queries, None);
    let mut open_loop = vec![
        run_open_loop(&ms, &open, 1, None, 0),
        run_open_loop(&ms, &open, 4, None, 0),
    ];
    // `open_loop[1]` is the unshed 4-worker row.
    let deadline_ms = open_loop[1].p50_us.div_ceil(1_000).max(1);
    let open_deadlined = open_loop_requests(&queries, Some(Duration::from_millis(deadline_ms)));
    let shed_row = run_open_loop(&ms, &open_deadlined, 4, Some(SHED_P99_MS), deadline_ms);
    eprintln!(
        "serve_throughput shed row: rate {:.3} ({} sheds / {} arrivals)",
        shed_row.shed_rate, shed_row.sheds, shed_row.arrivals
    );
    open_loop.push(shed_row);

    let cold_four = scenarios
        .iter()
        .find(|s| s.workers == 4 && s.cache_cap == 0)
        .expect("cold 4-worker scenario present")
        .scaling_efficiency;
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
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_apro.json");
    mp_bench::merge_bench_json(
        std::path::Path::new(path),
        "serve_throughput",
        report.to_value(),
    )
    .expect("BENCH_apro.json written");
    eprintln!("wrote {path} (section serve_throughput)");

    // The guards run only after the report is written, so a failing run
    // still leaves its readings behind; the serve-bench CI job relies on
    // them firing.
    //
    // Scaling regression: the cold 4-worker row falling under 0.7 means
    // surplus workers are *losing* throughput to a cross-worker lock on
    // the serve path (the defect this bench re-measures).
    assert!(
        cold_four >= 0.7,
        "cold scaling regression: 4-worker efficiency {cold_four:.2} < 0.7 on {cores} cores \
         — a shared lock is back on the cold path"
    );
    assert!(
        speedup >= 2.0,
        "acceptance: cached serving must be >= 2x the cold baseline, got {speedup:.2}x"
    );
}
