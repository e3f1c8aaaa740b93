//! The CLI commands, as testable functions returning their output text.

use crate::state::{self, StateConfig, StateError};
use mp_core::{AproConfig, CorrectnessMetric, EdLibrary, Metasearcher, RelevancyDef};
use mp_corpus::ScenarioKind;
use mp_eval::report::{fmt3, TextTable};
use mp_eval::runner::{evaluate_baseline, evaluate_rd_based};
use mp_serve::PolicySpec;
use mp_text::Analyzer;
use mp_workload::Query;
use std::path::Path;

/// `metaprobe generate`: writes the testbed recipe into the state dir.
pub fn run_generate(
    dir: &Path,
    kind: ScenarioKind,
    seed: u64,
    scale: f64,
    n_databases: usize,
) -> Result<String, StateError> {
    let config = StateConfig::default_for(kind, seed, scale, n_databases);
    state::save_config(dir, &config)?;
    // Build once to validate and report.
    let st = state::load_state(dir)?;
    let mut out = format!(
        "initialized {} ({:?}, seed {seed}, scale {scale})\n",
        dir.display(),
        kind
    );
    out.push_str(&format!(
        "{} databases, {} train / {} test queries\nnext: metaprobe train --state {}\n",
        st.testbed.n_databases(),
        st.testbed.split.train.len(),
        st.testbed.split.test.len(),
        dir.display()
    ));
    Ok(out)
}

/// `metaprobe train`: trains the ED library and persists it.
pub fn run_train(dir: &Path) -> Result<String, StateError> {
    let st = state::load_state(dir)?;
    // The testbed's library was already trained during the rebuild;
    // persist it (identical to retraining — everything is seeded).
    mp_core::save_library(&st.testbed.library, state::library_path(dir))
        .map_err(|e| StateError::Io(std::io::Error::other(e.to_string())))?;
    let probes = st.testbed.split.train.len() * st.testbed.n_databases();
    Ok(format!(
        "trained on {} queries × {} databases ({} offline probes)\nlibrary saved to {}\n",
        st.testbed.split.train.len(),
        st.testbed.n_databases(),
        probes,
        state::library_path(dir).display()
    ))
}

/// `metaprobe info`: databases, sizes, and per-leaf training coverage.
pub fn run_info(dir: &Path) -> Result<String, StateError> {
    let st = state::load_state(dir)?;
    let mut table = TextTable::new(
        format!("state {}", dir.display()),
        &["database", "documents", "trained leaves"],
    );
    let lib: Option<&EdLibrary> = st.trained.as_ref();
    for i in 0..st.testbed.n_databases() {
        let db = st.testbed.mediator.db(i);
        let leaves = lib
            .map(|l| l.sample_counts(i).len().to_string())
            .unwrap_or_else(|| "-".to_string());
        table.row(&[
            db.name().to_string(),
            db.size_hint()
                .map(|s| s.to_string())
                .unwrap_or_else(|| "?".into()),
            leaves,
        ]);
    }
    let mut out = table.render();
    out.push_str(&format!(
        "model: {}\n",
        if st.trained.is_some() {
            "trained (library.json)"
        } else {
            "untrained — run `metaprobe train`"
        }
    ));
    Ok(out)
}

/// `metaprobe query`: answers one keyword query with certainty-controlled
/// selection, printing the decision trail.
pub fn run_query(
    dir: &Path,
    text: &str,
    k: usize,
    threshold: f64,
    policy_name: &str,
) -> Result<String, StateError> {
    let st = state::load_state(dir)?;
    let library = st.library()?.clone();
    let Some(query) = Query::parse(text, &Analyzer::plain(), st.testbed.model.vocab()) else {
        return Ok(format!(
            "no known terms in {text:?} — try `metaprobe suggest` for vocabulary samples\n"
        ));
    };
    let Some(mut policy) = PolicySpec::parse(policy_name, 0).map(|spec| spec.build()) else {
        return Ok(format!(
            "unknown policy {policy_name:?} (greedy | random | by-estimate | max-uncertainty)\n"
        ));
    };

    let ms = Metasearcher::with_library(
        st.testbed.mediator.clone(),
        Box::new(mp_core::IndependenceEstimator),
        RelevancyDef::DocFrequency,
        library,
    );
    let mut out = format!("query: \"{}\"\n", query.display(st.testbed.model.vocab()));

    let baseline = ms.select_baseline(&query, k);
    out.push_str(&format!(
        "baseline would pick: {:?}\n",
        baseline
            .iter()
            .map(|&i| ms.mediator().db(i).name())
            .collect::<Vec<_>>()
    ));

    let result = ms.search(
        &query,
        AproConfig {
            k,
            threshold,
            metric: CorrectnessMetric::Partial,
            max_probes: None,
        },
        policy.as_mut(),
        10,
    );
    for record in &result.outcome.probes {
        out.push_str(&format!(
            "probed {:16} → actual {:>8.1}, certainty {:.2}\n",
            ms.mediator().db(record.db).name(),
            record.actual,
            record.expected_after
        ));
    }
    out.push_str(&format!(
        "selected {:?} with certainty {:.2} after {} probe(s)\n",
        result
            .outcome
            .selected
            .iter()
            .map(|&i| ms.mediator().db(i).name())
            .collect::<Vec<_>>(),
        result.outcome.expected,
        result.outcome.n_probes()
    ));
    out.push_str(&format!("{} fused result document(s)\n", result.hits.len()));
    Ok(out)
}

/// `metaprobe suggest`: prints example queries from the held-out trace
/// (useful because the synthetic vocabulary is pseudo-words).
pub fn run_suggest(dir: &Path, n: usize) -> Result<String, StateError> {
    let st = state::load_state(dir)?;
    let mut out = String::from("example queries from the held-out trace:\n");
    for q in st.testbed.split.test.queries().iter().take(n) {
        out.push_str(&format!("  {}\n", q.display(st.testbed.model.vocab())));
    }
    Ok(out)
}

/// `metaprobe serve`: drives a scripted query stream from the held-out
/// trace through the concurrent serving front-end and reports cache
/// and latency statistics.
///
/// The stream takes the first `n_unique` test queries and plays them
/// `repeat` times round-robin — a repeated-query workload, the shape
/// the result cache exists for. Each pass over the unique queries is
/// one rolling-window tick, so the stats line can report windowed
/// p50/p99 next to the cumulative quantiles. With `trace` (or a
/// `trace_dump` path) every request runs under a per-request trace and
/// the flight recorder's worst waterfalls are rendered (and dumped as
/// `mp-obs-trace/1` JSON).
///
/// `shed_p99_ms` arms the SLO shedder, which sheds deadlined requests
/// whose slack the rolling p99 would blow.
/// The scripted stream is deadline-free, so shedding only shows up
/// when driving the server through code that sets deadlines.
#[expect(
    clippy::too_many_arguments,
    reason = "one parameter per `serve` flag, passed straight from the argument parser"
)]
pub fn run_serve(
    dir: &Path,
    workers: usize,
    cache_cap: usize,
    queue_cap: usize,
    shed_p99_ms: Option<u64>,
    n_unique: usize,
    repeat: usize,
    k: usize,
    threshold: f64,
    policy_name: &str,
    trace: bool,
    trace_dump: Option<&Path>,
) -> Result<String, StateError> {
    use mp_serve::{ServeConfig, ServeRequest, Server};

    let st = state::load_state(dir)?;
    let library = st.library()?.clone();
    let Some(policy) = PolicySpec::parse(policy_name, 0) else {
        return Ok(format!(
            "unknown policy {policy_name:?} (greedy | random | by-estimate | max-uncertainty)\n"
        ));
    };
    let unique: Vec<Query> = st
        .testbed
        .split
        .test
        .queries()
        .iter()
        .take(n_unique.max(1))
        .cloned()
        .collect();

    let ms = Metasearcher::with_library(
        st.testbed.mediator.clone(),
        Box::new(mp_core::IndependenceEstimator),
        RelevancyDef::DocFrequency,
        library,
    )
    .shared();
    let tracing = trace || trace_dump.is_some();
    let server = Server::new(
        ms,
        ServeConfig {
            workers: workers.max(1),
            queue_cap: queue_cap.max(1),
            ..ServeConfig::new(workers.max(1), cache_cap)
        }
        .with_shed_p99_ms(shed_p99_ms)
        .with_trace(tracing),
    );

    #[expect(
        clippy::disallowed_methods,
        reason = "the session's wall time is printed for the operator, not used in an answer"
    )]
    let start = std::time::Instant::now();
    // One submit-and-wait pass per repeat, each pass a window tick.
    let responses: Vec<Result<mp_serve::ServeResponse, mp_serve::ServeError>> =
        server.run(|client| {
            let mut out = Vec::with_capacity(unique.len() * repeat.max(1));
            for _ in 0..repeat.max(1) {
                let tickets: Vec<_> = unique
                    .iter()
                    .map(|q| {
                        client.submit(
                            ServeRequest::new(q.clone(), k, threshold).with_policy(policy.clone()),
                        )
                    })
                    .collect();
                out.extend(
                    tickets
                        .into_iter()
                        .map(|t| t.and_then(mp_serve::Ticket::wait)),
                );
                server.tick_window();
            }
            out
        });
    let wall = start.elapsed();
    let stats = server.stats();
    let qps = responses.len() as f64 / wall.as_secs_f64().max(1e-9);

    let mut out = format!(
        "served {} queries ({} unique × {}) with {} worker(s), cache cap {}\n",
        responses.len(),
        unique.len(),
        repeat.max(1),
        workers.max(1),
        cache_cap,
    );
    out.push_str(&format!(
        "ok {}, rejected {}, invalid {}, deadline-missed {}, shed {}, panicked {}\n",
        stats.completed,
        stats.rejects,
        stats.invalid,
        stats.deadline_misses,
        stats.sheds,
        stats.panicked
    ));
    out.push_str(&format!(
        "result cache: {} hits, {} misses, {} dedup joins\n",
        stats.hits, stats.misses, stats.dedup_joins
    ));
    out.push_str(&format!(
        "latency p50 {} µs, p99 {} µs, max {} µs\n",
        stats.p50_us, stats.p99_us, stats.latency_max_us
    ));
    out.push_str(&format!(
        "rolling (last {} tick(s)): p50 {} µs, p99 {} µs, max {} µs over {} request(s)\n",
        stats.window_ticks.min(8),
        stats.rolling_p50_us,
        stats.rolling_p99_us,
        stats.rolling_max_us,
        stats.rolling_count,
    ));
    out.push_str(&format!(
        "wall {:.3} s, {:.0} queries/s\n",
        wall.as_secs_f64(),
        qps
    ));
    if tracing {
        out.push_str(&server.flight_recorder().render());
        if let Some(path) = trace_dump {
            std::fs::write(path, server.flight_recorder().to_json()).map_err(StateError::Io)?;
            out.push_str(&format!("trace dump written to {}\n", path.display()));
        }
    }
    Ok(out)
}

/// `metaprobe eval`: baseline vs RD-based on the held-out test set.
pub fn run_eval(dir: &Path, k: usize) -> Result<String, StateError> {
    let st = state::load_state(dir)?;
    let library = st.library()?;
    let baseline = evaluate_baseline(&st.testbed, k);
    let rd = evaluate_rd_based(&st.testbed, k, library);
    let mut table = TextTable::new(
        format!(
            "held-out evaluation (k={k}, {} queries, partial correctness)",
            rd.n_queries
        ),
        &["method", "Avg(Cor_p)"],
    );
    table.row(&["baseline".into(), fmt3(baseline.avg_cor_p)]);
    table.row(&["RD-based".into(), fmt3(rd.avg_cor_p)]);
    Ok(table.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_corpus::ScenarioKind;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("metaprobe-cli-cmd-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Writes a *tiny* state (the default generate config is too big for
    /// unit tests).
    fn init_tiny(dir: &Path) {
        let mut c = StateConfig::default_for(ScenarioKind::Health, 5, 0.05, 5);
        c.scenario.topics.n_topics = 6;
        c.scenario.topics.terms_per_topic = 60;
        c.scenario.topics.background_terms = 60;
        c.core = mp_core::CoreConfig::default().with_threshold(10.0);
        c.workload.window = 12;
        c.n_two = 40;
        c.n_three = 30;
        state::save_config(dir, &c).unwrap();
    }

    #[test]
    fn full_cli_workflow() {
        let dir = tmp_dir("workflow");
        init_tiny(&dir);

        let trained = run_train(&dir).unwrap();
        assert!(trained.contains("library saved"));

        let info = run_info(&dir).unwrap();
        assert!(info.contains("trained (library.json)"));
        assert!(info.contains("med."));

        let suggestions = run_suggest(&dir, 3).unwrap();
        let first_query = suggestions.lines().nth(1).unwrap().trim().to_string();
        assert!(!first_query.is_empty());

        let answer = run_query(&dir, &first_query, 1, 0.8, "greedy").unwrap();
        assert!(answer.contains("selected"), "{answer}");
        assert!(answer.contains("certainty"));

        let eval = run_eval(&dir, 1).unwrap();
        assert!(eval.contains("RD-based"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_reports_cache_hits_on_a_repeated_stream() {
        let dir = tmp_dir("serve");
        init_tiny(&dir);
        run_train(&dir).unwrap();

        let out = run_serve(&dir, 2, 64, 16, None, 4, 3, 1, 0.8, "greedy", false, None).unwrap();
        assert!(out.contains("served 12 queries (4 unique × 3)"), "{out}");
        assert!(out.contains("queries/s"), "{out}");
        assert!(out.contains("shed 0, panicked 0"), "{out}");
        // 4 unique queries played 3 times: at most 4 misses, the rest
        // hits or dedup joins.
        assert!(out.contains("result cache:"), "{out}");

        let bad = run_serve(
            &dir,
            2,
            64,
            16,
            None,
            4,
            1,
            1,
            0.8,
            "no-such-policy",
            false,
            None,
        )
        .unwrap();
        assert!(bad.contains("unknown policy"), "{bad}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_trace_dump_writes_schema_valid_json() {
        // The recorder only captures while recording is on, which
        // `MP_OBS=0` switches off for the whole process.
        mp_obs::set_enabled(true);
        let dir = tmp_dir("trace-dump");
        init_tiny(&dir);
        run_train(&dir).unwrap();

        let dump = dir.join("trace.json");
        let out = run_serve(
            &dir,
            1,
            64,
            16,
            None,
            3,
            2,
            1,
            0.8,
            "greedy",
            true,
            Some(&dump),
        )
        .unwrap();
        assert!(out.contains("flight recorder"), "{out}");
        assert!(out.contains("trace dump written to"), "{out}");

        let json = std::fs::read_to_string(&dump).unwrap();
        assert!(
            json.starts_with("{\"schema\":\"mp-obs-trace/1\""),
            "unexpected dump prefix: {}",
            &json[..json.len().min(80)]
        );
        // Recording is on, so the recorder must have captured the
        // slowest requests of the run.
        assert!(json.contains("\"trace\""), "{json}");
        assert!(json.contains("\"reason\""), "{json}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_before_train_is_a_clear_error() {
        let dir = tmp_dir("untrained");
        init_tiny(&dir);
        match run_query(&dir, "anything", 1, 0.8, "greedy") {
            Err(StateError::NotTrained(_)) => {}
            other => panic!("expected NotTrained, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_terms_and_policies_are_handled() {
        let dir = tmp_dir("unknowns");
        init_tiny(&dir);
        run_train(&dir).unwrap();
        let out = run_query(&dir, "zzzz qqqq", 1, 0.8, "greedy").unwrap();
        assert!(out.contains("no known terms"));
        let out = run_query(&dir, "zzzz", 1, 0.8, "nonsense-policy").unwrap();
        assert!(out.contains("no known terms") || out.contains("unknown policy"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
