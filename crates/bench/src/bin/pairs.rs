//! `pairs` — the repository benchmark on a parent revision and on the
//! working tree, in alternating pairs.
//!
//! ```text
//! pairs --seeds 23201-23210 [--parent REV] [--workload NAME]... [--work DIR]
//! ```
//!
//! Exports the parent revision (default `HEAD`) with `git archive` into
//! `<work>/parent` (default work dir: `target/pairs`), builds servebench
//! from that export and from the working tree into two separate target
//! directories, then runs each workload (default: every workload
//! `BENCHMARK.json` lists) once per seed on each side with `--trace 0`,
//! using `BENCHMARK.json`'s own command and run length. Each pair
//! alternates which side runs first. `--seeds` takes a comma list and
//! `a-b` ranges.
//!
//! Each run's gated metrics are printed to stderr as it finishes, and
//! its raw result line is appended to `<work>/<workload>.runs`. Per
//! workload, standard output gets a table (see `mp_bench::pairs`): each
//! side's median and quartiles, the pairs in which the change read
//! lower, the median paired ratio, and whether the medians moved beyond
//! the metric's bound. The exit code is 1 when a run's answers were not
//! correct or a metric moved worse beyond its bound, 2 on a usage or
//! run error. Nothing under `servebench/` is written.

use mp_bench::measure::Summary;
use mp_bench::pairs::{
    metric_summary, parse_benchmark, parse_result_line, render, Move, RunResult,
};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Args {
    seeds: Vec<u64>,
    parent: String,
    workloads: Vec<String>,
    work: Option<PathBuf>,
}

const USAGE: &str = "usage: pairs --seeds <list> [--parent REV] [--workload NAME]... [--work DIR]";

/// Parses `23201-23203,23210` into `[23201, 23202, 23203, 23210]`.
fn parse_seeds(list: &str) -> Result<Vec<u64>, String> {
    let mut seeds = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let num = |s: &str| {
            s.trim()
                .parse::<u64>()
                .map_err(|e| format!("seed {s}: {e}"))
        };
        match part.split_once('-') {
            Some((a, b)) => {
                let (a, b) = (num(a)?, num(b)?);
                if a > b {
                    return Err(format!("empty seed range {part}"));
                }
                seeds.extend(a..=b);
            }
            None => seeds.push(num(part)?),
        }
    }
    Ok(seeds)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: Vec::new(),
        parent: "HEAD".to_string(),
        workloads: Vec::new(),
        work: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.to_string());
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seeds" => args.seeds = parse_seeds(&value)?,
            "--parent" => args.parent = value,
            "--workload" => args.workloads.push(value),
            "--work" => args.work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if args.seeds.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(args)
}

/// Runs `cmd` to completion, returning its standard output, or an error
/// carrying its standard error.
fn run(cmd: &mut Command, what: &str) -> Result<String, String> {
    let out = cmd.output().map_err(|e| format!("{what}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{what} failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Exports `commit` into a fresh `<work>/parent`.
fn export_parent(root: &Path, commit: &str, work: &Path) -> Result<PathBuf, String> {
    let dir = work.join("parent");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let tar = work.join("parent.tar");
    run(
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["archive", "--format=tar", "-o"])
            .arg(&tar)
            .arg(commit),
        "git archive",
    )?;
    run(
        Command::new("tar").arg("-xf").arg(&tar).arg("-C").arg(&dir),
        "tar -x",
    )?;
    std::fs::remove_file(&tar).map_err(|e| format!("removing {}: {e}", tar.display()))?;
    Ok(dir)
}

/// One side of the comparison: a source tree and its target directory.
struct Side {
    name: &'static str,
    tree: PathBuf,
    target: PathBuf,
}

impl Side {
    fn build(&self) -> Result<(), String> {
        eprintln!("pairs: building servebench for the {} side", self.name);
        run(
            Command::new("cargo")
                .current_dir(&self.tree)
                .env("CARGO_TARGET_DIR", &self.target)
                .args(["build", "--release", "--quiet", "--offline"])
                .args(["--manifest-path", "servebench/Cargo.toml"]),
            "cargo build",
        )
        .map(drop)
    }

    /// One `--trace 0` run; returns its raw result line.
    fn bench(
        &self,
        command: &[String],
        workload: &str,
        seed: u64,
        seconds: u64,
    ) -> Result<String, String> {
        let (program, rest) = command.split_first().ok_or("empty benchmark command")?;
        let stdout = run(
            Command::new(program)
                .current_dir(&self.tree)
                .env("CARGO_TARGET_DIR", &self.target)
                .args(rest)
                .args(["--workload", workload, "--trace", "0"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()]),
            &format!("{} {workload} seed {seed}", self.name),
        )?;
        stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .map(str::to_string)
            .ok_or_else(|| format!("{} {workload} seed {seed}: no output", self.name))
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| compare(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pairs: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs every pair and prints the tables; `Ok(false)` when a run was
/// not correct or a metric moved worse beyond its bound.
fn compare(args: &Args) -> Result<bool, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .map_err(|e| format!("repository root: {e}"))?;
    let bench = parse_benchmark(
        &std::fs::read_to_string(root.join("BENCHMARK.json"))
            .map_err(|e| format!("reading BENCHMARK.json: {e}"))?,
    )?;
    let workloads = if args.workloads.is_empty() {
        bench.workloads.clone()
    } else {
        args.workloads.clone()
    };
    if let Some(w) = workloads.iter().find(|w| !bench.workloads.contains(w)) {
        return Err(format!("BENCHMARK.json lists no workload {w}"));
    }
    let work = args
        .work
        .clone()
        .unwrap_or_else(|| root.join("target").join("pairs"));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let work = work.canonicalize().map_err(|e| format!("work dir: {e}"))?;

    let commit = run(
        Command::new("git").arg("-C").arg(&root).args([
            "rev-parse",
            "--verify",
            &format!("{}^{{commit}}", args.parent),
        ]),
        "git rev-parse",
    )?
    .trim()
    .to_string();
    eprintln!(
        "pairs: parent {} ({commit}) against the working tree",
        args.parent
    );
    let parent = Side {
        name: "parent",
        tree: export_parent(&root, &commit, &work)?,
        target: work.join("target-parent"),
    };
    let change = Side {
        name: "change",
        tree: root.clone(),
        target: work.join("target-change"),
    };
    parent.build()?;
    change.build()?;

    let mut ok = true;
    for workload in &workloads {
        let log_path = work.join(format!("{workload}.runs"));
        let mut log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| format!("opening {}: {e}", log_path.display()))?;
        let mut measure = |side: &Side, seed: u64| -> Result<RunResult, String> {
            let line = side.bench(&bench.command, workload, seed, bench.run_seconds)?;
            writeln!(log, "{}\t{seed}\t{line}", side.name)
                .map_err(|e| format!("writing {}: {e}", log_path.display()))?;
            let result = parse_result_line(&line)?;
            let shown: Vec<String> = bench
                .gates
                .iter()
                .filter_map(|g| result.metric(&g.name).map(|v| format!("{} {v:.4}", g.name)))
                .collect();
            eprintln!(
                "pairs: {workload} seed {seed} {}: correct {}, {}",
                side.name,
                result.correct,
                shown.join(", ")
            );
            Ok(result)
        };
        let (mut parents, mut changes) = (Vec::new(), Vec::new());
        for (i, &seed) in args.seeds.iter().enumerate() {
            if i % 2 == 0 {
                parents.push(measure(&parent, seed)?);
                changes.push(measure(&change, seed)?);
            } else {
                changes.push(measure(&change, seed)?);
                parents.push(measure(&parent, seed)?);
            }
        }

        let mut summaries = Vec::new();
        for gate in &bench.gates {
            let values = parents
                .iter()
                .zip(&changes)
                .map(|(p, c)| Some((p.metric(&gate.name)?, c.metric(&gate.name)?)))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| format!("{workload}: a run lacks metric {}", gate.name))?;
            summaries.push(metric_summary(gate, &values));
        }
        let correct = |runs: &[RunResult]| runs.iter().filter(|r| r.correct).count();
        let failed = |runs: &[RunResult]| {
            let shares: Vec<f64> = runs.iter().map(RunResult::failed_share).collect();
            Summary::of(&shares).median
        };
        let (pc, cc, n) = (correct(&parents), correct(&changes), parents.len());
        print!("{}", render(workload, &summaries));
        println!(
            "correct runs: parent {pc}/{n}, change {cc}/{n}; median failed share: \
             parent {:.4}, change {:.4}\n",
            failed(&parents),
            failed(&changes),
        );
        ok &= pc == n
            && cc == n
            && summaries
                .iter()
                .all(|s| s.verdict != Move::WorseBeyondBound);
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::parse_seeds;

    #[test]
    fn seeds_take_lists_and_ranges() {
        assert_eq!(
            parse_seeds("23201-23203,23210").unwrap(),
            [23201, 23202, 23203, 23210]
        );
        assert_eq!(parse_seeds("7").unwrap(), [7]);
        assert!(parse_seeds("9-3").is_err());
        assert!(parse_seeds("x").is_err());
    }
}
