//! # mp-bench — benchmark fixtures for `metaprobe`
//!
//! Shared testbed builders used by the Criterion benches and the
//! `repro` binary that regenerates every table and figure of the paper
//! (see `EXPERIMENTS.md`), and the summary math of the `pairs` binary,
//! which runs the repository benchmark on a parent revision and on the
//! working tree in alternating pairs ([`pairs`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mp_core::CoreConfig;
use mp_corpus::{ScenarioConfig, ScenarioKind, TopicModelConfig};
use mp_eval::experiments::SamplingStudyConfig;
use mp_eval::{Testbed, TestbedConfig};
use mp_workload::QueryGenConfig;

pub mod pairs;

/// The full-scale reproduction testbed (paper Section 6.1 shape):
/// 20 health databases, 1000+1000 train and test queries per arity.
/// `scale` multiplies database sizes (1.0 ≈ 500–8000 docs each).
pub fn paper_testbed(seed: u64, scale: f64) -> Testbed {
    let mut cfg = TestbedConfig::paper(seed);
    cfg.scenario.scale = scale;
    Testbed::build(cfg)
}

/// A scaled-down testbed for Criterion benches: small corpora, a few
/// hundred queries — large enough to exercise every code path, small
/// enough for repeated timing.
pub fn bench_testbed(seed: u64) -> Testbed {
    let cfg = TestbedConfig {
        scenario: ScenarioConfig {
            scale: 0.15,
            n_databases: 10,
            ..ScenarioConfig::new(ScenarioKind::Health, seed)
        },
        n_two: 80,
        n_three: 50,
        core: CoreConfig::default().with_threshold(2.0),
        relevancy: mp_core::RelevancyDef::DocFrequency,
        summaries: mp_eval::SummaryMode::Cooperative,
        workload: QueryGenConfig {
            seed: seed ^ 0x51_7e_a5,
            ..QueryGenConfig::default()
        },
    };
    Testbed::build(cfg)
}

/// A small testbed with coarse ED bins whose RD supports fit the
/// exhaustive [`mp_core::probing::OptimalPolicy`] guards — used by the
/// policy ablation that includes the optimal yardstick.
pub fn optimal_policy_testbed(seed: u64) -> Testbed {
    let cfg = TestbedConfig {
        scenario: ScenarioConfig {
            n_databases: 5,
            scale: 0.08,
            topics: TopicModelConfig {
                n_topics: 6,
                terms_per_topic: 60,
                background_terms: 60,
                seed,
                ..TopicModelConfig::default()
            },
            ..ScenarioConfig::new(ScenarioKind::Health, seed)
        },
        n_two: 150,
        n_three: 100,
        core: CoreConfig {
            ed_edges: vec![-0.5, 0.05, 1.0],
            ..CoreConfig::default()
        }
        .with_threshold(10.0),
        relevancy: mp_core::RelevancyDef::DocFrequency,
        summaries: mp_eval::SummaryMode::Cooperative,
        workload: QueryGenConfig {
            seed: seed ^ 0x51_7e_a5,
            window: 12,
            ..QueryGenConfig::default()
        },
    };
    Testbed::build(cfg)
}

/// The full-scale Figure 7/8 sampling study configuration.
pub fn paper_sampling_config(seed: u64, scale: f64) -> SamplingStudyConfig {
    let mut cfg = SamplingStudyConfig::paper(seed);
    cfg.scenario.scale = scale;
    cfg
}

/// Merges one bench's report into the shared `BENCH_apro.json` artifact
/// instead of overwriting it wholesale: the file is a map of
/// `section → report`, and each bench owns exactly one section, so
/// `apro_scaling` and `serve_throughput` can regenerate independently
/// without clobbering each other's numbers.
///
/// A missing, unparsable, or pre-section-era file (the old layout was a
/// single report with a top-level `"bench"` key) is replaced by a fresh
/// map rather than merged into.
pub fn merge_bench_json(
    path: &std::path::Path,
    section: &str,
    report: serde::Value,
) -> std::io::Result<()> {
    use serde::Value;
    let mut entries: Vec<(String, Value)> = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .and_then(|v| match v {
            Value::Obj(e) if !e.iter().any(|(k, _)| k == "bench") => Some(e),
            _ => None,
        })
        .unwrap_or_default();
    match entries.iter_mut().find(|(k, _)| k == section) {
        Some(slot) => slot.1 = report,
        None => entries.push((section.to_string(), report)),
    }
    let json = serde_json::to_string_pretty(&Value::Obj(entries)).map_err(std::io::Error::other)?;
    std::fs::write(path, json + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_testbed_builds() {
        let tb = bench_testbed(7);
        assert_eq!(tb.n_databases(), 10);
        assert_eq!(tb.split.test.len(), 130);
    }

    #[test]
    fn merge_bench_json_preserves_other_sections() {
        use serde::Value;

        fn obj(key: &str, n: f64) -> Value {
            Value::Obj(vec![(key.to_string(), Value::Num(n))])
        }
        fn field(root: &Value, section: &str, key: &str) -> Option<f64> {
            root.get(section)?.get(key)?.as_num()
        }

        let dir = std::env::temp_dir().join(format!("mp_bench_merge_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let _ = std::fs::remove_file(&path);

        // Fresh file: section lands alone.
        merge_bench_json(&path, "a", obj("x", 1.0)).unwrap();
        // Second section: the first survives.
        merge_bench_json(&path, "b", obj("y", 2.0)).unwrap();
        // Re-running a section replaces only that section.
        merge_bench_json(&path, "a", obj("x", 9.0)).unwrap();
        let root: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(field(&root, "a", "x"), Some(9.0));
        assert_eq!(field(&root, "b", "y"), Some(2.0));

        // Legacy single-report layout is replaced, not merged into.
        std::fs::write(&path, r#"{"bench": "old", "sizes": []}"#).unwrap();
        merge_bench_json(&path, "a", obj("x", 3.0)).unwrap();
        let root: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(field(&root, "a", "x"), Some(3.0));
        assert!(root.get("bench").is_none(), "legacy keys dropped");

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn optimal_testbed_has_small_supports() {
        let tb = optimal_policy_testbed(7);
        assert_eq!(tb.n_databases(), 5);
        for q in tb.split.test.queries().iter().take(20) {
            for rd in tb.rds(q) {
                assert!(rd.len() <= 4, "support {} too large", rd.len());
            }
        }
    }
}
