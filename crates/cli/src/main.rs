//! `metaprobe` — the command-line front end (see crate docs).

use mp_cli::commands;
use mp_corpus::ScenarioKind;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: metaprobe <command> [options]

commands:
  generate --state DIR [--kind health|newsgroup] [--seed N] [--scale F] [--databases N]
  train    --state DIR
  info     --state DIR
  suggest  --state DIR [--n N]
  query    --state DIR --text \"words…\" [--k N] [--threshold T]
           [--policy greedy|random|by-estimate|max-uncertainty]
  eval     --state DIR [--k N]
  serve    --state DIR [--workers N] [--cache-cap C] [--queue-cap Q]
           [--shed-p99-ms MS]
           [--n UNIQUE] [--repeat R] [--k N] [--threshold T]
           [--policy greedy|random|by-estimate|max-uncertainty]
           [--trace] [--trace-dump PATH]

observability (any command):
  --obs             print an mp-obs span/metric tree to stderr on exit
  --obs-json PATH   write the mp-obs JSON snapshot to PATH on exit
  (env MP_OBS=0 disables recording entirely)

SLO (serve only):
  --shed-p99-ms MS  shed deadlined requests when the rolling p99
                    exceeds MS ms and exceeds their remaining slack
                    (default off; needs obs recording)

tracing (serve only):
  --trace           collect per-request waterfalls; print the flight
                    recorder (slowest / deadline-missed / shed /
                    overload) on exit
  --trace-dump PATH also write the flight recorder as JSON (schema
                    mp-obs-trace/1) to PATH
";

struct Opts {
    state: Option<PathBuf>,
    kind: ScenarioKind,
    seed: u64,
    scale: f64,
    databases: usize,
    n: usize,
    text: Option<String>,
    k: usize,
    threshold: f64,
    policy: String,
    workers: usize,
    cache_cap: usize,
    queue_cap: usize,
    shed_p99_ms: Option<u64>,
    repeat: usize,
    obs: bool,
    obs_json: Option<PathBuf>,
    trace: bool,
    trace_dump: Option<PathBuf>,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            state: None,
            kind: ScenarioKind::Health,
            seed: 42,
            scale: 0.3,
            databases: 20,
            n: 10,
            text: None,
            k: 1,
            threshold: 0.9,
            policy: "greedy".to_string(),
            workers: 4,
            cache_cap: 1024,
            queue_cap: 64,
            shed_p99_ms: None,
            repeat: 4,
            obs: false,
            obs_json: None,
            trace: false,
            trace_dump: None,
        }
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<(String, Opts), String> {
    let command = args.next().ok_or_else(|| USAGE.to_string())?;
    let mut opts = Opts::default();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--state" => opts.state = Some(PathBuf::from(value()?)),
            "--kind" => {
                opts.kind = match value()?.as_str() {
                    "health" => ScenarioKind::Health,
                    "newsgroup" => ScenarioKind::Newsgroup,
                    other => return Err(format!("unknown kind {other:?}")),
                }
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--scale" => opts.scale = value()?.parse().map_err(|e| format!("bad scale: {e}"))?,
            "--databases" => {
                opts.databases = value()?.parse().map_err(|e| format!("bad count: {e}"))?
            }
            "--n" => opts.n = value()?.parse().map_err(|e| format!("bad n: {e}"))?,
            "--text" => opts.text = Some(value()?),
            "--k" => opts.k = value()?.parse().map_err(|e| format!("bad k: {e}"))?,
            "--threshold" => {
                opts.threshold = value()?
                    .parse()
                    .map_err(|e| format!("bad threshold: {e}"))?
            }
            "--policy" => opts.policy = value()?,
            "--workers" => {
                opts.workers = value()?.parse().map_err(|e| format!("bad workers: {e}"))?
            }
            "--cache-cap" => {
                opts.cache_cap = value()?
                    .parse()
                    .map_err(|e| format!("bad cache cap: {e}"))?
            }
            "--queue-cap" => {
                opts.queue_cap = value()?
                    .parse()
                    .map_err(|e| format!("bad queue cap: {e}"))?
            }
            "--shed-p99-ms" => {
                opts.shed_p99_ms = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("bad shed p99 limit: {e}"))?,
                )
            }
            "--repeat" => opts.repeat = value()?.parse().map_err(|e| format!("bad repeat: {e}"))?,
            "--obs" => opts.obs = true,
            "--obs-json" => opts.obs_json = Some(PathBuf::from(value()?)),
            "--trace" => opts.trace = true,
            "--trace-dump" => opts.trace_dump = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok((command, opts))
}

fn main() -> ExitCode {
    let (command, opts) = match parse(std::env::args().skip(1)) {
        Ok(x) => x,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let Some(state) = opts.state.clone() else {
        eprintln!("--state DIR is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "generate" => {
            commands::run_generate(&state, opts.kind, opts.seed, opts.scale, opts.databases)
        }
        "train" => commands::run_train(&state),
        "info" => commands::run_info(&state),
        "suggest" => commands::run_suggest(&state, opts.n),
        "query" => match &opts.text {
            Some(text) => commands::run_query(&state, text, opts.k, opts.threshold, &opts.policy),
            None => {
                eprintln!("query needs --text\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        "eval" => commands::run_eval(&state, opts.k),
        "serve" => commands::run_serve(
            &state,
            opts.workers,
            opts.cache_cap,
            opts.queue_cap,
            opts.shed_p99_ms,
            opts.n,
            opts.repeat,
            opts.k,
            opts.threshold,
            &opts.policy,
            opts.trace,
            opts.trace_dump.as_deref(),
        ),
        other => {
            eprintln!("unknown command {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let code = match result {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    };
    if opts.obs || opts.obs_json.is_some() {
        let snap = mp_obs::snapshot();
        if opts.obs {
            eprint!("{}", snap.render_tree());
        }
        if let Some(path) = &opts.obs_json {
            if let Err(e) = std::fs::write(path, snap.to_json()) {
                eprintln!(
                    "error: cannot write obs snapshot to {}: {e}",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    code
}
