//! Summary math for servebench parent/change pairs.
//!
//! The `pairs` binary runs the repository benchmark (`BENCHMARK.json`,
//! `servebench/`) on a parent revision and on the working tree in
//! alternating pairs, one pair per seed, and hands the result lines to
//! this module. Per metric it reports each side's median and quartiles,
//! how many pairs read lower on the change, the median paired ratio
//! (change / parent), and whether the medians moved beyond the metric's
//! `BENCHMARK.json` bound.

use serde::Value;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Metric name, as servebench's result line spells it.
    pub name: String,
    /// True when a lower value is better.
    pub lower_is_better: bool,
    /// Largest tolerated relative move in the worse direction.
    pub bound: f64,
}

/// What `BENCHMARK.json` declares: the command, the workloads, the run
/// length and the gated metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// The command that runs one benchmark process, before its
    /// `--workload/--seed/--seconds/--trace` arguments.
    pub command: Vec<String>,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Seconds per run.
    pub run_seconds: u64,
    /// The end-to-end metrics and their bounds.
    pub gates: Vec<Gate>,
}

fn field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, String> {
    v.get(name).ok_or_else(|| format!("missing field `{name}`"))
}

fn str_of(v: &Value, what: &str) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{what} is not a string"))
}

fn array<'v>(v: &'v Value, name: &str) -> Result<&'v [Value], String> {
    field(v, name)?
        .as_arr()
        .ok_or_else(|| format!("`{name}` is not an array"))
}

/// Parses `BENCHMARK.json`.
pub fn parse_benchmark(text: &str) -> Result<Benchmark, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let command = array(&root, "command")?
        .iter()
        .map(|v| str_of(v, "a command word"))
        .collect::<Result<_, _>>()?;
    let workloads = array(&root, "workloads")?
        .iter()
        .map(|w| str_of(field(w, "name")?, "a workload name"))
        .collect::<Result<_, _>>()?;
    let run_seconds = field(&root, "run_seconds")?
        .as_num()
        .and_then(mp_stats::float::round_u64)
        .ok_or("`run_seconds` is not a whole number")?;
    let gates = array(&root, "end_to_end")?
        .iter()
        .map(|m| {
            let better = str_of(field(m, "better")?, "`better`")?;
            Ok(Gate {
                name: str_of(field(m, "name")?, "a metric name")?,
                lower_is_better: match better.as_str() {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("`better` is {other}, not lower or higher")),
                },
                bound: field(m, "bound")?
                    .as_num()
                    .ok_or("`bound` is not a number")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Benchmark {
        command,
        workloads,
        run_seconds,
        gates,
    })
}

/// One servebench run's result line (the last line of its standard
/// output).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The replayed answers equalled the served ones.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: f64,
    /// Requests that failed.
    pub failed: f64,
    /// `(name, value)` per metric, in the line's order.
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    /// The named metric's value.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    /// Share of attempted requests that failed.
    pub fn failed_share(&self) -> f64 {
        if self.attempted > 0.0 {
            self.failed / self.attempted
        } else {
            0.0
        }
    }
}

/// Parses a result line:
/// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
pub fn parse_result_line(line: &str) -> Result<RunResult, String> {
    let root: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let correct = match field(&root, "correct")? {
        Value::Bool(b) => *b,
        _ => return Err("`correct` is not a boolean".to_string()),
    };
    let num = |name: &str| -> Result<f64, String> {
        field(&root, name)?
            .as_num()
            .ok_or_else(|| format!("`{name}` is not a number"))
    };
    let metrics = field(&root, "metrics")?
        .as_obj()
        .ok_or("`metrics` is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = field(m, "value")?
                .as_num()
                .ok_or_else(|| format!("metric {name} has no numeric value"))?;
            Ok((name.clone(), value))
        })
        .collect::<Result<_, String>>()?;
    Ok(RunResult {
        correct,
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
    })
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted` values, by
/// linear interpolation between closest ranks; `NaN` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor();
    let i = mp_stats::float::round_u64(lo)
        .and_then(|i| usize::try_from(i).ok())
        .unwrap_or(0)
        .min(last);
    let j = (i + 1).min(last);
    sorted[i] + (sorted[j] - sorted[i]) * (pos - lo)
}

/// Median and quartiles of one side's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Lower quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
}

impl Spread {
    /// The spread of `values` (any order).
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Spread {
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Where the change's median sits against the parent's, in the light
/// of the metric's bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Within the bound either way.
    Within,
    /// Worse than the parent by more than the bound.
    WorseBeyondBound,
    /// Better than the parent by more than the bound.
    BetterBeyondBound,
}

/// One metric's summary over the pairs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// The gate the summary is judged against.
    pub gate: Gate,
    /// Pairs summarized.
    pub pairs: usize,
    /// The parent's runs.
    pub parent: Spread,
    /// The change's runs.
    pub change: Spread,
    /// Pairs in which the change read strictly lower.
    pub change_lower: usize,
    /// Pairs in which the change read better (strictly).
    pub change_better: usize,
    /// Median over pairs of change / parent (`NaN` when a parent
    /// value is zero).
    pub median_ratio: f64,
    /// Relative move of the change's median: `change / parent − 1`.
    pub relative_move: f64,
    /// The move against the bound.
    pub verdict: Move,
}

impl MetricSummary {
    /// A gain that holds up: over at least ten pairs, the change is
    /// better in nine of every ten, and its median is better by more
    /// than the parent's interquartile range.
    pub fn gain_holds(&self) -> bool {
        let margin = if self.gate.lower_is_better {
            self.parent.median - self.change.median
        } else {
            self.change.median - self.parent.median
        };
        self.pairs >= 10 && 10 * self.change_better >= 9 * self.pairs && margin > self.parent.iqr()
    }
}

/// Summarizes one metric over `(parent, change)` value pairs.
pub fn summarize(gate: &Gate, pairs: &[(f64, f64)]) -> MetricSummary {
    let parents: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let changes: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let parent = Spread::of(&parents);
    let change = Spread::of(&changes);
    let change_lower = pairs.iter().filter(|(p, c)| c < p).count();
    let change_higher = pairs.iter().filter(|(p, c)| c > p).count();
    let ratios: Vec<f64> = pairs.iter().map(|&(p, c)| c / p).collect();
    let median_ratio = if ratios.iter().all(|r| r.is_finite()) {
        Spread::of(&ratios).median
    } else {
        f64::NAN
    };
    let relative_move = change.median / parent.median - 1.0;
    let worse = if gate.lower_is_better {
        relative_move
    } else {
        -relative_move
    };
    let verdict = if worse > gate.bound {
        Move::WorseBeyondBound
    } else if -worse > gate.bound {
        Move::BetterBeyondBound
    } else {
        Move::Within
    };
    MetricSummary {
        gate: gate.clone(),
        pairs: pairs.len(),
        parent,
        change,
        change_lower,
        change_better: if gate.lower_is_better {
            change_lower
        } else {
            change_higher
        },
        median_ratio,
        relative_move,
        verdict,
    }
}

/// One workload's table: a header plus one row per metric.
pub fn render(workload: &str, summaries: &[MetricSummary]) -> String {
    let mut out = format!(
        "{workload}: {} pair(s)\n{:<20} {:>30} {:>30} {:>7} {:>7}  verdict\n",
        summaries.first().map_or(0, |s| s.pairs),
        "metric",
        "parent median [q1..q3]",
        "change median [q1..q3]",
        "lower",
        "ratio",
    );
    for s in summaries {
        let side = |x: &Spread| format!("{:.4} [{:.4}..{:.4}]", x.median, x.q1, x.q3);
        let verdict = match s.verdict {
            Move::Within => "within bound",
            Move::WorseBeyondBound => "WORSE beyond bound",
            Move::BetterBeyondBound => "better beyond bound",
        };
        out.push_str(&format!(
            "{:<20} {:>30} {:>30} {:>7} {:>7.3}  {verdict} ({:+.1}% vs ±{:.0}%){}\n",
            s.gate.name,
            side(&s.parent),
            side(&s.change),
            format!("{}/{}", s.change_lower, s.pairs),
            s.median_ratio,
            100.0 * s.relative_move,
            100.0 * s.gate.bound,
            if s.gain_holds() { ", gain holds" } else { "" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(cpu: f64, success: f64, correct: bool, failed: u32) -> String {
        format!(
            "{{\"correct\": {correct}, \"attempted\": 1000, \"failed\": {failed}, \"metrics\": \
             {{\"cpu_us_per_request\": {{\"value\": {cpu}, \"unit\": \"us\"}}, \
             \"success_share\": {{\"value\": {success}, \"unit\": \"fraction\"}}}}}}"
        )
    }

    fn gate(name: &str, lower_is_better: bool, bound: f64) -> Gate {
        Gate {
            name: name.to_string(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn parses_a_result_line() {
        let r = parse_result_line(&line(33.5, 1.0, true, 4)).unwrap();
        assert!(r.correct);
        assert_eq!(r.metric("cpu_us_per_request"), Some(33.5));
        assert_eq!(r.metric("success_share"), Some(1.0));
        assert_eq!(r.metric("setup_s"), None);
        assert!((r.failed_share() - 0.004).abs() < 1e-15);
        assert!(parse_result_line("servebench run: {}").is_err());
        assert!(
            !parse_result_line(&line(1.0, 1.0, false, 0))
                .unwrap()
                .correct
        );
    }

    #[test]
    fn parses_the_benchmark_declaration() {
        let text = r#"{"command": ["cargo", "run", "--"], "paths": ["servebench"],
            "run_seconds": 16,
            "workloads": [{"name": "greedy20", "why": "a"}, {"name": "hot_zipf", "why": "b"}],
            "end_to_end": [
              {"name": "cpu_us_per_request", "unit": "us", "better": "lower", "bound": 0.25},
              {"name": "cor_partial", "unit": "fraction", "better": "higher", "bound": 0.15}],
            "per_layer": []}"#;
        let b = parse_benchmark(text).unwrap();
        assert_eq!(b.command, ["cargo", "run", "--"]);
        assert_eq!(b.workloads, ["greedy20", "hot_zipf"]);
        assert_eq!(b.run_seconds, 16);
        assert_eq!(
            b.gates,
            [
                gate("cpu_us_per_request", true, 0.25),
                gate("cor_partial", false, 0.15)
            ]
        );
        assert!(parse_benchmark(&text.replace("\"lower\"", "\"less\"")).is_err());
    }

    #[test]
    fn the_repository_benchmark_declaration_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let b = parse_benchmark(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert!(b.workloads.iter().any(|w| w == "hot_zipf"));
        assert!(b.gates.iter().any(|g| g.name == "cpu_us_per_request"));
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        let s = Spread::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.iqr()), (2.0, 3.0, 4.0, 2.0));
    }

    /// Canned result lines of six pairs: the change is lower in five,
    /// the parent's quartiles are [33.45..33.95], the change's median
    /// 29.0, and success is flat.
    #[test]
    fn summarizes_canned_pairs() {
        let parent = [33.6, 34.0, 33.2, 35.0, 33.8, 33.4];
        let change = [26.3, 34.5, 28.0, 30.0, 29.0, 29.0];
        let runs: Vec<(RunResult, RunResult)> = parent
            .iter()
            .zip(&change)
            .map(|(&p, &c)| {
                (
                    parse_result_line(&line(p, 1.0, true, 0)).unwrap(),
                    parse_result_line(&line(c, 1.0, true, 0)).unwrap(),
                )
            })
            .collect();
        let values = |name: &str| -> Vec<(f64, f64)> {
            runs.iter()
                .map(|(p, c)| (p.metric(name).unwrap(), c.metric(name).unwrap()))
                .collect()
        };

        let cpu = summarize(
            &gate("cpu_us_per_request", true, 0.25),
            &values("cpu_us_per_request"),
        );
        assert_eq!(cpu.pairs, 6);
        assert!((cpu.parent.median - 33.7).abs() < 1e-12);
        assert!((cpu.parent.q1 - 33.45).abs() < 1e-12);
        assert!((cpu.parent.q3 - 33.95).abs() < 1e-12);
        assert!((cpu.change.median - 29.0).abs() < 1e-12);
        assert_eq!((cpu.change_lower, cpu.change_better), (5, 5));
        // Ratios sorted: 0.7827, 0.8434, 0.8571, 0.8580, 0.8683, 1.0147.
        let expected_ratio = (30.0 / 35.0 + 29.0 / 33.8) / 2.0;
        let got = cpu.median_ratio;
        assert!(
            (got - expected_ratio).abs() < 1e-12,
            "{got} vs {expected_ratio}"
        );
        assert!((cpu.relative_move - (29.0 / 33.7 - 1.0)).abs() < 1e-12);
        assert_eq!(cpu.verdict, Move::Within);
        // Five of six is below nine in ten: no claimable gain.
        assert!(!cpu.gain_holds());

        let success = summarize(
            &gate("success_share", false, 0.01),
            &values("success_share"),
        );
        assert_eq!((success.change_lower, success.change_better), (0, 0));
        assert_eq!(success.median_ratio, 1.0);
        assert_eq!(success.verdict, Move::Within);

        let table = render("hot_zipf", &[cpu, success]);
        assert!(table.starts_with("hot_zipf: 6 pair(s)\n"));
        assert!(table.contains("5/6"), "{table}");
    }

    #[test]
    fn flags_moves_beyond_the_bound_in_the_metric_direction() {
        let cpu = gate("cpu_us_per_request", true, 0.25);
        let slower = summarize(&cpu, &[(10.0, 13.0), (10.0, 13.0)]);
        assert_eq!(slower.verdict, Move::WorseBeyondBound);
        let faster = summarize(&cpu, &[(10.0, 7.0); 10]);
        assert_eq!(faster.verdict, Move::BetterBeyondBound);
        assert!(faster.gain_holds());
        // Fewer than ten pairs claim nothing, however clear.
        assert!(!summarize(&cpu, &[(10.0, 7.0); 9]).gain_holds());

        let cor = gate("cor_partial", false, 0.15);
        let lost = summarize(&cor, &[(0.6, 0.5), (0.6, 0.5)]);
        assert_eq!(lost.verdict, Move::WorseBeyondBound);
        assert_eq!((lost.change_lower, lost.change_better), (2, 0));

        // Nine wins of ten still fail when the median gain is inside
        // the parent's interquartile range.
        let mut noisy: Vec<(f64, f64)> = (0..9)
            .map(|i| (10.0 + f64::from(i), 9.9 + f64::from(i)))
            .collect();
        noisy.push((10.0, 30.0));
        let s = summarize(&cpu, &noisy);
        assert_eq!(s.change_better, 9);
        assert!(!s.gain_holds());

        let zero = summarize(&cpu, &[(0.0, 1.0)]);
        assert!(zero.median_ratio.is_nan());
    }
}
