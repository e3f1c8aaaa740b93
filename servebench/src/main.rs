//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0`, one end-to-end run: set up the workload's
//! deployment [`SETUPS`] times, warm the server up, run [`ROUNDS`]
//! rounds of capacity flood plus open-loop latency phase, re-answer a
//! seeded sample of responses sequentially, and print the end-to-end
//! metrics. With `--trace 1`, one traced run: a short flood, then one
//! open-loop phase in which every other request is spanned, then every
//! computed request replayed through the layers' public calls with
//! spans, and the per-layer table. The last line of standard output is
//! the result as JSON (see `README.md`).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use mp_core::{MetasearchResult, Metasearcher};
use mp_workload::Query;
use servebench::layers::{ratio, LayerTable, LAYERS};
use servebench::load::{self, Collector, Phase};
use servebench::quantile::{self, Percentile};
use servebench::replay::replay;
use servebench::spans::SpanLog;
use servebench::sys;
use servebench::workload::{deploy, schedule, Deployment, QueryStream, Workload};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed warm-up flood before the timed phases.
const WARMUP: Duration = Duration::from_secs(1);
/// Rounds per end-to-end run. Each round is a capacity flood followed
/// by an open-loop latency phase, so both metrics sample the whole run.
const ROUNDS: usize = 4;
/// Share of a round spent in the capacity flood (the rest is the
/// open-loop latency phase).
const CAPACITY_SHARE: f64 = 0.4;
/// The traced run's capacity flood (reported as `load.capacity_qps`).
const TRACE_FLOOD: Duration = Duration::from_secs(2);
/// Served results re-answered sequentially per end-to-end run.
const CHECKS: usize = 48;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let usage = "usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>";
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.filter(|&s| s > 0).ok_or(usage)?,
        trace: trace.ok_or(usage)?,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The JSON result line. A non-finite value (a percentile landing on a
/// failed request) is written as the largest finite double.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                m.value
            } else {
                f64::MAX
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = args.workload;
    println!(
        "servebench run: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"workers\": {nproc}, \"offered_qps\": {}}}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.offered_qps
    );
    if args.trace {
        traced_run(args, nproc)
    } else {
        end_to_end_run(args, nproc)
    }
}

fn golden_topk(d: &Deployment, k: usize) -> Vec<Vec<usize>> {
    (0..d.testbed.golden.n_queries())
        .map(|q| d.testbed.golden.topk(q, k))
        .collect()
}

/// Back-pressured floods keep at most this many tickets outstanding:
/// twice the queue capacity, so the queue stays full while the driver
/// collects.
fn flood_window(d: &Deployment) -> usize {
    2 * d.server.config().queue_cap
}

fn phase_line(name: &str, p: &Phase, seconds: f64) {
    println!(
        "phase {name}: sent {} succeeded {} failed {} over {seconds:.2} s",
        p.records.len(),
        p.succeeded(),
        p.failed()
    );
}

fn print_percentile(name: &str, p: Option<Percentile>) -> f64 {
    match p {
        Some(p) => {
            println!("{name} = {p}");
            p.value
        }
        None => {
            println!("{name}: too few samples");
            f64::INFINITY
        }
    }
}

fn latencies(p: &Phase) -> Vec<f64> {
    quantile::sorted(p.records.iter().map(load::Record::latency_ms).collect())
}

fn lateness_ms(p: &Phase) -> Vec<f64> {
    quantile::sorted(p.records.iter().map(|r| r.late_ns as f64 / 1e6).collect())
}

/// Reports whether the generator held its schedule: a phase whose
/// lateness is comparable to its latency (median against median, p99
/// against p99) measures the generator, not the server, and is invalid.
fn validity_line(p: &Phase) {
    let late = lateness_ms(p);
    let lat = latencies(p);
    let value = |q: Option<Percentile>| q.map_or(f64::INFINITY, |x| x.value);
    let (late50, late99) = (
        value(quantile::median(&late)),
        value(quantile::tail(&late, 99.0)),
    );
    let (lat50, lat99) = (
        value(quantile::median(&lat)),
        value(quantile::tail(&lat, 99.0)),
    );
    let valid = late50 < 0.5 * lat50 && late99 < 0.5 * lat99;
    println!(
        "load: late p50 {late50:.4} ms p99 {late99:.4} ms vs latency p50 {lat50:.4} ms \
         p99 {lat99:.4} ms: {}",
        if valid { "valid" } else { "INVALID" }
    );
}

/// Re-answers each sampled response with the sequential facade;
/// returns the number of mismatches.
fn check_sample(
    ms: &Metasearcher,
    w: &Workload,
    pool: &[Query],
    fuse_limit: usize,
    sample: &[(usize, MetasearchResult)],
) -> usize {
    sample
        .iter()
        .filter(|(q, served)| {
            let mut policy = w.policy.build();
            let reference = ms.search(&pool[*q], w.apro_config(), policy.as_mut(), fuse_limit);
            reference != *served
        })
        .count()
}

fn end_to_end_run(args: &Args, workers: usize) -> Result<(), String> {
    let w = args.workload;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut deployment = None;
    for _ in 0..SETUPS {
        // Drop the previous deployment first so set-ups never overlap.
        drop(deployment.take());
        let started = Instant::now();
        let d = deploy(w, workers);
        setups.push(started.elapsed().as_secs_f64());
        deployment = Some(d);
    }
    let d = deployment.ok_or("no set-up ran")?;
    let setup = quantile::median(&quantile::sorted(setups.clone())).ok_or("no set-up ran")?;
    println!("setup_s = {} (median of {setups:?})", setup.value);

    let pool = d.testbed.split.test.queries();
    let topk = golden_topk(&d, w.k);
    let mut collector = Collector::new(&topk, CHECKS, args.seed);
    let round_s = args.seconds as f64 / ROUNDS as f64;
    let capacity_for = Duration::from_secs_f64(round_s * CAPACITY_SHARE);
    let latency_for = round_s - capacity_for.as_secs_f64();
    let window = flood_window(&d);
    let (warmup, rounds) = d.server.run(|client| {
        let mut stream = QueryStream::new(w.traffic, pool.len(), args.seed);
        let warmup = load::flood(client, w, pool, &mut stream, WARMUP, window, None);
        let slack = sys::set_timer_slack_ns(1);
        let mut rounds = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS as u64 {
            let cpu_before = sys::cpu_seconds_of_other_threads();
            let capacity = load::flood(
                client,
                w,
                pool,
                &mut stream,
                capacity_for,
                window,
                Some(&mut collector),
            );
            let cpu = sys::cpu_seconds_of_other_threads().and_then(|after| Ok(after - cpu_before?));
            let due = schedule(
                w.offered_qps,
                (w.offered_qps * latency_for) as usize,
                args.seed.rotate_left(16) ^ round,
            );
            let latency = load::open_loop(
                client,
                w,
                pool,
                &mut stream,
                &due,
                Some(&mut collector),
                None,
            );
            rounds.push((capacity, cpu, latency));
        }
        (warmup, slack.map(|()| rounds))
    });
    let rounds = rounds.map_err(|e| format!("timer slack: {e}"))?;
    let mut capacity = Vec::with_capacity(ROUNDS);
    let mut latency = Vec::with_capacity(ROUNDS);
    let mut cpu_s = 0.0;
    for (c, cpu, l) in rounds {
        cpu_s += cpu.map_err(|e| format!("CPU time: {e}"))?;
        capacity.push(c);
        latency.push(l);
    }
    println!("phase warmup: sent {} (untimed)", warmup.records.len());
    let capacity_qps = load::completion_rate(&capacity);
    let done: usize = capacity.iter().map(Phase::succeeded).sum();
    let cpu_us_per_request = ratio(cpu_s * 1e6, done as f64);
    println!("capacity_qps = {capacity_qps}");
    println!("cpu_us_per_request = {cpu_us_per_request} (server threads, capacity floods)");
    // Latency percentiles are read per round and the median round is
    // reported, so one disturbed round cannot move the result.
    let mut p50s = Vec::with_capacity(ROUNDS);
    let mut p99s = Vec::with_capacity(ROUNDS);
    for (i, round) in latency.iter().enumerate() {
        let lat = latencies(round);
        p50s.push(print_percentile(
            &format!("round {i} latency p50 ms"),
            quantile::median(&lat),
        ));
        p99s.push(print_percentile(
            &format!("round {i} latency tail ms"),
            quantile::tail(&lat, 99.0),
        ));
        validity_line(round);
    }
    let median_of =
        |v: Vec<f64>| quantile::median(&quantile::sorted(v)).map_or(f64::INFINITY, |p| p.value);
    let (p50, p99) = (median_of(p50s), median_of(p99s));
    let capacity = Phase::concat(capacity);
    let latency = Phase::concat(latency);
    phase_line(
        "capacity",
        &capacity,
        capacity_for.as_secs_f64() * ROUNDS as f64,
    );
    phase_line("latency", &latency, latency_for * ROUNDS as f64);

    let fuse_limit = d.server.config().fuse_limit;
    let mismatches = check_sample(&d.ms, w, pool, fuse_limit, &collector.sample);
    println!(
        "check: {} sampled responses re-answered sequentially, {mismatches} differ",
        collector.sample.len()
    );

    let attempted = capacity.records.len() + latency.records.len();
    let failed = capacity.failed() + latency.failed() + mismatches;
    println!("latency_p50_ms = {p50} (median round)");
    println!("latency_p99_ms = {p99} (median round)");
    println!("failed_share = {}", ratio(failed as f64, attempted as f64));
    let answered = collector.answered as f64;
    println!(
        "probes_per_query = {}",
        ratio(collector.probes_sum as f64, answered)
    );
    let peak = sys::peak_rss_mib().map_err(|e| format!("peak RSS: {e}"))?;
    // The gated metrics. Wall-clock capacity and latency are printed
    // above but not gated: see README.md ("Why wall-clock capacity and
    // latency are not gated").
    let metrics = [
        metric("cpu_us_per_request", cpu_us_per_request, "us"),
        metric(
            "success_share",
            ratio((attempted - failed) as f64, attempted as f64),
            "fraction",
        ),
        metric(
            "searches_per_query",
            ratio(collector.searches_sum as f64, answered),
            "searches",
        ),
        metric(
            "cor_partial",
            ratio(collector.cor_sum, answered),
            "fraction",
        ),
        metric("setup_s", setup.value, "s"),
        metric("peak_rss_mb", peak, "MiB"),
    ];
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    Ok(())
}

fn traced_run(args: &Args, workers: usize) -> Result<(), String> {
    let w = args.workload;
    let d = deploy(w, workers);
    let pool = d.testbed.split.test.queries();
    let seconds = args.seconds as f64;
    let due = schedule(w.offered_qps, (w.offered_qps * seconds) as usize, args.seed);
    let window = flood_window(&d);
    let mut log = SpanLog::new();
    let (flood, phase, before, after) = d.server.run(|client| {
        let mut stream = QueryStream::new(w.traffic, pool.len(), args.seed);
        load::flood(client, w, pool, &mut stream, WARMUP, window, None);
        let flood = load::flood(client, w, pool, &mut stream, TRACE_FLOOD, window, None);
        let slack = sys::set_timer_slack_ns(1);
        let before = client.server().stats();
        let phase = load::open_loop(client, w, pool, &mut stream, &due, None, Some(&mut log));
        let after = client.server().stats();
        (flood, slack.map(|()| phase), before, after)
    });
    let phase = phase.map_err(|e| format!("timer slack: {e}"))?;
    phase_line("capacity", &flood, TRACE_FLOOD.as_secs_f64());
    phase_line("latency-traced", &phase, seconds);
    validity_line(&phase);

    // Replay every computed request.
    let fuse_limit = d.server.config().fuse_limit;
    let mut mismatches = 0;
    for (id, served) in &phase.kept {
        let req = w.request(pool[phase.records[*id].query].clone());
        let id32 = u32::try_from(*id).map_err(|_| "too many requests")?;
        if replay(&d.ms, &req, fuse_limit, id32, &mut log) != *served {
            mismatches += 1;
        }
    }
    println!(
        "replay: {} computed requests replayed, {mismatches} differ from the served result",
        phase.kept.len()
    );
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let span_file = out_dir.join(format!("spans-{}-seed{}.tsv", w.name, args.seed));
    log.write_tsv(&span_file)
        .map_err(|e| format!("{}: {e}", span_file.display()))?;
    println!(
        "spans: {} written to {}",
        log.spans().len(),
        span_file.display()
    );

    let table = LayerTable::from_log(&log);
    // The served (due-to-response) latency minus the request's replayed
    // compute time; hits were not computed and wait their whole latency.
    let wait_us = quantile::sorted(
        phase
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.outcome.is_ok())
            .map(|(id, r)| {
                let replay_ns = u32::try_from(id)
                    .ok()
                    .and_then(|id| table.request_wall_ns.get(&id))
                    .copied()
                    .unwrap_or(0);
                r.latency_ms() * 1e3 - replay_ns as f64 / 1e3
            })
            .collect(),
    );
    let traced_ids = |traced: bool| {
        phase
            .records
            .iter()
            .enumerate()
            .filter(move |(id, _)| load::is_traced(*id) == traced)
            .map(|(_, r)| r)
    };
    let submit_us = quantile::sorted(traced_ids(true).map(|r| r.submit_ns as f64 / 1e3).collect());
    let untraced_latency =
        quantile::sorted(traced_ids(false).map(load::Record::latency_ms).collect());
    let p50_untraced = print_percentile(
        "latency_p50_ms (untraced requests)",
        quantile::median(&untraced_latency),
    );
    let p99_untraced = print_percentile(
        "latency_p99_ms (untraced requests)",
        quantile::tail(&untraced_latency, 99.0),
    );
    let p50_traced = print_percentile(
        "latency_p50_ms (traced requests)",
        quantile::median(&quantile::sorted(
            traced_ids(true).map(load::Record::latency_ms).collect(),
        )),
    );
    let late = print_percentile(
        "load.late_ms.p99",
        quantile::tail(&lateness_ms(&phase), 99.0),
    );
    let offered = phase.records.last().map_or(0.0, |r| {
        ratio(phase.records.len() as f64, r.submitted_ns as f64 / 1e9)
    });
    let completed = after.completed.saturating_sub(before.completed) as f64;
    let rd_hits = after.rd_hits.saturating_sub(before.rd_hits) as f64;
    let rd_lookups = rd_hits + after.rd_misses.saturating_sub(before.rd_misses) as f64;
    let errors = phase.failed();

    let mut metrics = vec![
        metric(
            "load.capacity_qps",
            load::completion_rate(std::slice::from_ref(&flood)),
            "req/s",
        ),
        metric("load.latency_p50_ms", p50_untraced, "ms"),
        metric("load.latency_p99_ms", p99_untraced, "ms"),
        metric("load.offered_qps", offered, "req/s"),
        metric("load.late_ms.p99", late, "ms"),
        metric(
            "serve.hit_share",
            ratio(after.hits.saturating_sub(before.hits) as f64, completed),
            "fraction",
        ),
        metric("serve.rd_hit_share", ratio(rd_hits, rd_lookups), "fraction"),
        metric(
            "serve.dedup_joins",
            after.dedup_joins.saturating_sub(before.dedup_joins) as f64,
            "count",
        ),
        metric(
            "serve.submit_block_us.p99",
            print_percentile(
                "serve.submit_block_us.p99",
                quantile::tail(&submit_us, 99.0),
            ),
            "us",
        ),
        metric(
            "serve.wait_us.p50",
            print_percentile("serve.wait_us.p50", quantile::median(&wait_us)),
            "us",
        ),
        metric(
            "serve.wait_us.p99",
            print_percentile("serve.wait_us.p99", quantile::tail(&wait_us, 99.0)),
            "us",
        ),
        metric("serve.failed", errors as f64, "count"),
    ];
    metrics.extend(layer_metrics(&table));
    metrics.push(metric(
        "unattributed.share",
        ratio(table.unattributed_ns as f64, table.wall_ns as f64),
        "fraction",
    ));
    metrics.push(metric(
        "trace.overhead_share",
        ratio(p50_traced - p50_untraced, p50_untraced),
        "fraction",
    ));
    println!("dominant layer: {}", table.dominant().unwrap_or("none"));
    let failed = errors + mismatches;
    let attempted = phase.records.len();
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    Ok(())
}

/// The per-layer rows of the result line, printing each layer's table
/// line on the way.
fn layer_metrics(t: &LayerTable) -> Vec<Metric> {
    for layer in LAYERS {
        let row = t.row(layer);
        println!(
            "layer {layer}: calls {} ({:.3}/query) share {:.4} self p50 {} p99 {}",
            row.calls,
            t.calls_per_query(layer),
            t.share(layer),
            row.p50().map_or("-".to_string(), |p| p.to_string()),
            row.p99().map_or("-".to_string(), |p| p.to_string()),
        );
    }
    let p50 = |layer: &str| t.row(layer).p50().map_or(0.0, |p| p.value);
    let p99 = |layer: &str| t.row(layer).p99().map_or(0.0, |p| p.value);
    let search = t.row("hidden.search");
    vec![
        metric("core.rd.calls", t.row("core.rd").calls as f64, "count"),
        metric("core.rd.self_us.p50", p50("core.rd"), "us"),
        metric("core.rd.self_us.p99", p99("core.rd"), "us"),
        metric("core.rd.share", t.share("core.rd"), "fraction"),
        metric(
            "core.selection.calls_per_query",
            t.calls_per_query("core.selection"),
            "count",
        ),
        metric("core.selection.self_us.p50", p50("core.selection"), "us"),
        metric("core.selection.self_us.p99", p99("core.selection"), "us"),
        metric(
            "core.selection.share",
            t.share("core.selection"),
            "fraction",
        ),
        metric(
            "core.policy.calls_per_query",
            t.calls_per_query("core.policy"),
            "count",
        ),
        metric(
            "core.policy.self_us_per_query",
            ratio(
                t.row("core.policy").self_total_ns as f64 / 1e3,
                t.requests as f64,
            ),
            "us",
        ),
        metric("core.policy.share", t.share("core.policy"), "fraction"),
        metric(
            "hidden.probe.calls_per_query",
            t.calls_per_query("hidden.probe"),
            "count",
        ),
        metric("hidden.probe.share", t.share("hidden.probe"), "fraction"),
        metric(
            "hidden.search.calls_per_query",
            t.calls_per_query("hidden.search"),
            "count",
        ),
        metric(
            "hidden.search.matched_docs_per_call",
            ratio(search.count_sum as f64, search.calls as f64),
            "docs",
        ),
        metric("hidden.search.self_us.p50", p50("hidden.search"), "us"),
        metric("hidden.search.self_us.p99", p99("hidden.search"), "us"),
        metric("hidden.search.share", t.share("hidden.search"), "fraction"),
        metric("core.fusion.self_us.p50", p50("core.fusion"), "us"),
        metric("core.fusion.share", t.share("core.fusion"), "fraction"),
    ]
}
