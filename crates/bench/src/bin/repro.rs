//! `repro` — regenerates every table and figure of the paper's
//! evaluation (plus the ablations) and writes text + JSON reports.
//!
//! ```text
//! repro [--exp all|fig7|fig8|fig9|fig15|fig16|fig17|policies|threshold|training|summaries|relevancy]
//!       [--seed N] [--scale F] [--quick] [--out DIR]
//!       [--obs] [--obs-json PATH] [--obs-verify]
//! ```
//!
//! `--quick` shrinks corpora and query counts (~20× faster) while
//! keeping every experiment's shape — useful for smoke runs and CI.
//!
//! Observability (mp-obs): `--obs` prints the span/metric tree to
//! stderr at exit, `--obs-json PATH` writes the stable JSON snapshot
//! to PATH, and `--obs-verify` exits nonzero if any registered
//! hot-path span recorded zero hits — the CI dead-instrumentation
//! guard. `MP_OBS=0` in the environment disables recording.

use mp_bench::{optimal_policy_testbed, paper_sampling_config};
use mp_core::CorrectnessMetric;
use mp_eval::experiments::ablations::{
    render_policy_ablation, render_relevancy_ablation, render_summary_ablation,
    render_theta_ablation, render_training_size_ablation, run_policy_ablation,
    run_relevancy_ablation, run_summary_ablation, run_theta_ablation, run_training_size_ablation,
};
use mp_eval::experiments::fig15_selection::{render_fig15, run_fig15};
use mp_eval::experiments::fig16_probing::{render_fig16, run_fig16};
use mp_eval::experiments::fig17_threshold::{render_fig17, run_fig17};
use mp_eval::experiments::fig7_sampling::{render_fig7, run_sampling_study};
use mp_eval::experiments::fig8_goodness::{recommended_size, render_fig8};
use mp_eval::experiments::fig9_query_types::{render_fig9, run_fig9};
use mp_eval::report::to_json;
use mp_eval::runner::evaluate_baseline;
use mp_eval::{SummaryMode, Testbed, TestbedConfig};
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Args {
    exp: String,
    seed: u64,
    scale: f64,
    quick: bool,
    out: PathBuf,
    obs: bool,
    obs_json: Option<PathBuf>,
    obs_verify: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        exp: "all".to_string(),
        seed: 42,
        scale: 1.0,
        quick: false,
        out: PathBuf::from("repro_output"),
        obs: false,
        obs_json: None,
        obs_verify: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exp" => args.exp = it.next().expect("--exp needs a value"),
            "--seed" => {
                args.seed = it
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("seed")
            }
            "--scale" => {
                args.scale = it
                    .next()
                    .expect("--scale needs a value")
                    .parse()
                    .expect("scale")
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(it.next().expect("--out needs a value")),
            "--obs" => args.obs = true,
            "--obs-json" => {
                args.obs_json = Some(PathBuf::from(it.next().expect("--obs-json needs a value")))
            }
            "--obs-verify" => args.obs_verify = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--exp all|fig7|fig8|fig9|fig15|fig16|fig17|policies|threshold|training|summaries|relevancy] [--seed N] [--scale F] [--quick] [--out DIR] [--obs] [--obs-json PATH] [--obs-verify]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

struct Reporter {
    out_dir: PathBuf,
    combined: String,
}

impl Reporter {
    fn new(out_dir: PathBuf) -> Self {
        std::fs::create_dir_all(&out_dir).expect("create output dir");
        Self {
            out_dir,
            combined: String::new(),
        }
    }

    fn section(&mut self, name: &str, text: &str, json: Option<String>) {
        println!("{text}");
        self.combined.push_str(text);
        self.combined.push('\n');
        if let Some(j) = json {
            let path = self.out_dir.join(format!("{name}.json"));
            std::fs::write(&path, j).expect("write json report");
        }
    }

    fn finish(&self) {
        let path = self.out_dir.join("report.txt");
        let mut f = std::fs::File::create(&path).expect("create report.txt");
        f.write_all(self.combined.as_bytes()).expect("write report");
        println!("reports written to {}", self.out_dir.display());
    }
}

/// Spans every `--exp all` repro run must exercise. `--obs-verify`
/// fails the process when any of these recorded zero hits — dead
/// instrumentation is indistinguishable from "this phase never ran",
/// which is exactly the regression CI should catch.
const HOT_PATH_SPANS: &[&str] = &[
    "engine.usefulness_all",
    "engine.sweep",
    "selection.best_set",
    "apro.run",
    "hidden.search",
    "index.build",
    "eval.testbed.build",
    "eval.baseline",
    "eval.rd_based",
    "eval.probing_curve",
    "eval.threshold_run",
];

/// Dumps the mp-obs snapshot per the `--obs*` flags and runs the
/// dead-instrumentation guard. Call once, at the end of the run.
fn obs_epilogue(args: &Args) {
    if !(args.obs || args.obs_json.is_some() || args.obs_verify) {
        return;
    }
    let snap = mp_obs::snapshot();
    if args.obs {
        eprint!("{}", snap.render_tree());
        eprint!("{}", snap.render_flame());
    }
    if let Some(path) = &args.obs_json {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create obs snapshot dir");
        }
        std::fs::write(path, snap.to_json()).expect("write obs snapshot");
        eprintln!("obs snapshot written to {}", path.display());
    }
    if args.obs_verify {
        if !mp_obs::is_enabled() {
            eprintln!("repro: --obs-verify needs recording on (unset MP_OBS=0)");
            std::process::exit(1);
        }
        if args.exp != "all" {
            eprintln!(
                "repro: --obs-verify requires --exp all (every span must get a chance to fire)"
            );
            std::process::exit(1);
        }
        let dead = snap.missing_or_zero(HOT_PATH_SPANS);
        if !dead.is_empty() {
            eprintln!(
                "repro: dead instrumentation — hot-path spans with zero hits: {}",
                dead.join(", ")
            );
            std::process::exit(1);
        }
        eprintln!(
            "obs verify: all {} hot-path spans recorded hits",
            HOT_PATH_SPANS.len()
        );
    }
}

fn main() {
    let args = parse_args();
    let want = |name: &str| args.exp == "all" || args.exp == name;
    let mut reporter = Reporter::new(args.out.clone());
    #[expect(
        clippy::disallowed_methods,
        reason = "the run's wall time is printed for the operator; no figure reads it"
    )]
    let t0 = Instant::now();

    // --- Figures 7/8/9 share the sampling-study machinery ------------
    if want("fig7") || want("fig8") {
        let mut cfg = paper_sampling_config(args.seed, args.scale);
        if args.quick {
            cfg.scenario.scale *= 0.15;
            cfg.pool_size = 1_200;
            cfg.sizes = vec![50, 100, 200, 400];
            cfg.repetitions = 5;
        }
        eprintln!(
            "[{:>6.1?}] running sampling study (Figs. 7/8)…",
            t0.elapsed()
        );
        let result = run_sampling_study(&cfg);
        if want("fig7") {
            reporter.section("fig7", &render_fig7(&result, 6), Some(to_json(&result)));
        }
        if want("fig8") {
            let mut text = render_fig8(&result);
            text.push_str(&format!(
                "recommended sampling size (within 0.05 of best): {}\n",
                recommended_size(&result, 0.05)
            ));
            reporter.section("fig8", &text, None);
        }
    }

    // --- The main testbed (Figs. 9, 15, 16, 17, ablations) -----------
    let needs_testbed = [
        "fig9",
        "fig15",
        "fig16",
        "fig17",
        "policies",
        "threshold",
        "training",
        "summaries",
        "relevancy",
    ]
    .iter()
    .any(|e| want(e));
    if !needs_testbed {
        reporter.finish();
        obs_epilogue(&args);
        return;
    }

    let mut cfg = TestbedConfig::paper(args.seed);
    cfg.scenario.scale = args.scale;
    if args.quick {
        cfg.scenario.scale *= 0.15;
        cfg.n_two = 200;
        cfg.n_three = 150;
    }
    eprintln!("[{:>6.1?}] building the health testbed…", t0.elapsed());
    let tb = Testbed::build(cfg.clone());
    eprintln!(
        "[{:>6.1?}] testbed ready: {} databases, {} train / {} test queries",
        t0.elapsed(),
        tb.n_databases(),
        tb.split.train.len(),
        tb.split.test.len()
    );

    if want("fig9") {
        let r = run_fig9(&tb, 0);
        reporter.section("fig9", &render_fig9(&r), Some(to_json(&r)));
    }
    if want("fig15") {
        eprintln!("[{:>6.1?}] Fig. 15 (selection comparison)…", t0.elapsed());
        let r = run_fig15(&tb);
        reporter.section("fig15", &render_fig15(&r), Some(to_json(&r)));
    }
    if want("fig16") {
        eprintln!("[{:>6.1?}] Fig. 16 (probing curves)…", t0.elapsed());
        let max_probes = if args.quick { 6 } else { 10 };
        let r = run_fig16(&tb, max_probes);
        reporter.section("fig16", &render_fig16(&r), Some(to_json(&r)));
    }
    if want("fig17") {
        eprintln!("[{:>6.1?}] Fig. 17 (threshold sweep)…", t0.elapsed());
        let r = run_fig17(&tb, 1, CorrectnessMetric::Absolute);
        reporter.section("fig17", &render_fig17(&r), Some(to_json(&r)));
    }
    if want("policies") {
        eprintln!("[{:>6.1?}] A1 (probing policies)…", t0.elapsed());
        let rows = run_policy_ablation(&tb, 1, CorrectnessMetric::Absolute, 0.9, false);
        let mut text = render_policy_ablation(&rows, 1, 0.9);
        // Optimal yardstick on the small coarse-bin testbed.
        let small = optimal_policy_testbed(args.seed);
        let small_rows = run_policy_ablation(&small, 1, CorrectnessMetric::Absolute, 0.9, true);
        text.push('\n');
        text.push_str(&render_policy_ablation(&small_rows, 1, 0.9));
        text.push_str("(second table: 5-database coarse-bin testbed where the exhaustive optimal policy is tractable)\n");
        reporter.section("policies", &text, Some(to_json(&rows)));
    }
    if want("threshold") {
        eprintln!("[{:>6.1?}] A2 (θ sweep)…", t0.elapsed());
        let thetas = if args.quick {
            vec![0.5, 5.0, 100.0]
        } else {
            vec![0.25, 0.5, 1.0, 5.0, 25.0, 100.0]
        };
        let rows = run_theta_ablation(&tb, &thetas);
        reporter.section("theta", &render_theta_ablation(&rows), Some(to_json(&rows)));
    }
    if want("training") {
        eprintln!("[{:>6.1?}] A3 (training size)…", t0.elapsed());
        let sizes = if args.quick {
            vec![50, 150, 350]
        } else {
            vec![50, 100, 250, 500, 1000, 2000]
        };
        let rows = run_training_size_ablation(&tb, &sizes);
        let baseline = evaluate_baseline(&tb, 1);
        reporter.section(
            "training",
            &render_training_size_ablation(&rows, baseline),
            Some(to_json(&rows)),
        );
    }
    if want("relevancy") {
        eprintln!("[{:>6.1?}] A5 (relevancy definitions)…", t0.elapsed());
        let mut sim_cfg = cfg.clone();
        sim_cfg.relevancy = mp_core::RelevancyDef::DocSimilarity;
        sim_cfg.core = sim_cfg.core.with_threshold(0.6); // similarities ∈ [0, 1]
        let sim_tb =
            Testbed::build_with_estimator(sim_cfg, Box::new(mp_core::MaxSimilarityEstimator));
        let r = run_relevancy_ablation(&tb, &sim_tb);
        reporter.section(
            "relevancy",
            &render_relevancy_ablation(&r),
            Some(to_json(&r)),
        );
    }
    if want("summaries") {
        eprintln!("[{:>6.1?}] A4 (summary quality)…", t0.elapsed());
        let mut sampled_cfg = cfg.clone();
        sampled_cfg.summaries = SummaryMode::Sampled {
            n_queries: 120,
            docs_per_query: 40,
        };
        let sampled = Testbed::build(sampled_cfg);
        let r = run_summary_ablation(&tb, &sampled);
        reporter.section("summaries", &render_summary_ablation(&r), Some(to_json(&r)));
    }

    eprintln!("[{:>6.1?}] done", t0.elapsed());
    reporter.finish();
    obs_epilogue(&args);
}
