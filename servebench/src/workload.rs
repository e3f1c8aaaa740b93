//! The three workloads: testbed shape, request shape, traffic shape,
//! and the frozen open-loop offered rate of each.

use std::sync::Arc;

use mp_core::{AproConfig, CorrectnessMetric, IndependenceEstimator, Metasearcher};
use mp_eval::{Testbed, TestbedConfig};
use mp_serve::{PolicySpec, ServeConfig, ServeRequest, Server};
use mp_workload::Query;

use crate::rng::SplitMix;

/// Seed of every workload's corpus, query split and ED training. The
/// testbed is the deployment and stays fixed; `--seed` drives the
/// traffic (query order, Zipf ranks, arrival jitter, checked sample).
pub const CORPUS_SEED: u64 = 2004;

/// Jitter of open-loop inter-arrival gaps: each gap is drawn uniformly
/// from `mean · [1 − JITTER, 1 + JITTER]`.
pub const JITTER: f64 = 0.5;

/// How a workload picks the query of each request from its pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// A seeded permutation of the pool: no query repeats until the
    /// pool is used up.
    Distinct,
    /// Zipf with exponent `s` over a seeded ranking of the pool.
    Zipf(f64),
}

/// One benchmark workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Databases in the health scenario.
    pub n_databases: usize,
    /// Database size multiplier (1.0 ≈ 500–8,000 documents).
    pub scale: f64,
    /// Databases to select.
    pub k: usize,
    /// Certainty threshold `t`.
    pub threshold: f64,
    /// Probing policy.
    pub policy: PolicySpec,
    /// Probe budget.
    pub max_probes: Option<usize>,
    /// Query choice.
    pub traffic: Traffic,
    /// The frozen open-loop offered rate of the latency phase, req/s.
    pub offered_qps: f64,
}

/// Every workload, in the order `BENCHMARK.json` lists them (with why
/// each was chosen).
pub static WORKLOADS: [Workload; 3] = [
    // The paper's setting: the greedy usefulness scan dominates.
    Workload {
        name: "greedy20",
        n_databases: 20,
        scale: 1.0,
        k: 2,
        threshold: 0.85,
        policy: PolicySpec::Greedy,
        max_probes: None,
        traffic: Traffic::Distinct,
        offered_qps: 60.0,
    },
    // Fleet-scale selection: `best_set` over 256 RDs dominates.
    Workload {
        name: "fleet256",
        n_databases: 256,
        scale: 0.05,
        k: 2,
        threshold: 0.85,
        policy: PolicySpec::ByEstimate,
        max_probes: Some(2),
        traffic: Traffic::Distinct,
        offered_qps: 24.0,
    },
    // Hot repeated traffic: hits exercise the queue and cache, misses
    // the retrieval kernel.
    Workload {
        name: "hot_zipf",
        n_databases: 20,
        scale: 10.0,
        k: 3,
        threshold: 0.0,
        policy: PolicySpec::Greedy,
        max_probes: None,
        traffic: Traffic::Zipf(1.0),
        offered_qps: 2000.0,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The testbed this workload serves from.
    pub fn testbed_config(&self) -> TestbedConfig {
        let mut config = TestbedConfig::paper(CORPUS_SEED);
        config.scenario.n_databases = self.n_databases;
        config.scenario.scale = self.scale;
        config
    }

    /// The `APro` parameters of every request.
    pub fn apro_config(&self) -> AproConfig {
        AproConfig {
            k: self.k,
            threshold: self.threshold,
            metric: CorrectnessMetric::Partial,
            max_probes: self.max_probes,
        }
    }

    /// The serving request for `query`.
    pub fn request(&self, query: Query) -> ServeRequest {
        let config = self.apro_config();
        let mut req =
            ServeRequest::new(query, config.k, config.threshold).with_policy(self.policy.clone());
        req.metric = config.metric;
        req.max_probes = config.max_probes;
        req
    }
}

/// The trained facade over a testbed, as the serving tier shares it.
pub fn facade(tb: &Testbed) -> Arc<Metasearcher> {
    Metasearcher::with_library(
        tb.mediator.clone(),
        Box::new(IndependenceEstimator),
        tb.config.relevancy,
        tb.library.clone(),
    )
    .shared()
}

/// A served deployment: the testbed, its facade, and a server over it.
pub struct Deployment {
    /// Corpus, summaries, split, trained EDs and golden standard.
    pub testbed: Testbed,
    /// The trained facade the server shares.
    pub ms: Arc<Metasearcher>,
    /// The server: shipped defaults except `workers`.
    pub server: Server,
}

/// Builds a workload's deployment from its seed to a ready server.
pub fn deploy(workload: &Workload, workers: usize) -> Deployment {
    let testbed = Testbed::build(workload.testbed_config());
    let ms = facade(&testbed);
    let config = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let server = Server::new(Arc::clone(&ms), config);
    Deployment {
        testbed,
        ms,
        server,
    }
}

/// A seeded stream of pool indices following a workload's traffic.
#[derive(Debug, Clone)]
pub struct QueryStream {
    order: Vec<usize>,
    /// Cumulative Zipf weights by rank (empty for distinct traffic).
    cumulative: Vec<f64>,
    next: usize,
    rng: SplitMix,
}

impl QueryStream {
    /// A stream over a pool of `pool` queries. Distinct traffic visits
    /// the pool in a `seed`-ed order. Zipf traffic ranks the pool by a
    /// fixed permutation — which queries are hot is part of the
    /// workload, like its corpus — and `seed` drives the draws.
    pub fn new(traffic: Traffic, pool: usize, seed: u64) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x0051_7EA5);
        let order = match traffic {
            Traffic::Distinct => rng.permutation(pool),
            Traffic::Zipf(_) => SplitMix::new(CORPUS_SEED).permutation(pool),
        };
        let cumulative = match traffic {
            Traffic::Distinct => Vec::new(),
            Traffic::Zipf(s) => {
                let mut total = 0.0;
                (0..pool)
                    .map(|r| {
                        total += 1.0 / ((r + 1) as f64).powf(s);
                        total
                    })
                    .collect()
            }
        };
        Self {
            order,
            cumulative,
            next: 0,
            rng,
        }
    }

    /// The next pool index.
    pub fn next_index(&mut self) -> usize {
        if self.cumulative.is_empty() {
            let i = self.order[self.next % self.order.len()];
            self.next += 1;
            return i;
        }
        let total = *self.cumulative.last().expect("non-empty pool");
        let u = self.rng.next_f64() * total;
        let rank = self.cumulative.partition_point(|&c| c <= u);
        self.order[rank.min(self.order.len() - 1)]
    }
}

/// A seeded open-loop schedule: `n` due instants (ns from the phase
/// start) at mean rate `qps` with uniform jitter.
pub fn schedule(qps: f64, n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix::new(seed ^ 0xA11_0CA7E);
    let mean_ns = 1e9 / qps;
    let mut clock = 0.0;
    (0..n)
        .map(|_| {
            clock += mean_ns * (1.0 - JITTER + 2.0 * JITTER * rng.next_f64());
            clock as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_traffic_repeats_nothing_until_the_pool_is_used_up() {
        let mut s = QueryStream::new(Traffic::Distinct, 100, 3);
        let mut seen: Vec<usize> = (0..100).map(|_| s.next_index()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn streams_and_schedules_are_seeded() {
        for traffic in [Traffic::Distinct, Traffic::Zipf(1.0)] {
            let draw = |seed| {
                let mut s = QueryStream::new(traffic, 50, seed);
                (0..200).map(|_| s.next_index()).collect::<Vec<_>>()
            };
            assert_eq!(draw(1), draw(1));
            assert_ne!(draw(1), draw(2));
        }
        let hottest = |seed| QueryStream::new(Traffic::Zipf(1.0), 50, seed).order[0];
        assert_eq!(hottest(1), hottest(2), "the Zipf ranking is fixed");
        assert_eq!(schedule(100.0, 10, 4), schedule(100.0, 10, 4));
        let s = schedule(1000.0, 10_000, 9);
        let mean_gap = *s.last().unwrap() as f64 / s.len() as f64;
        assert!((mean_gap - 1e6).abs() < 2e4, "mean gap {mean_gap} ns");
    }

    #[test]
    fn zipf_traffic_concentrates_on_the_top_rank() {
        let mut s = QueryStream::new(Traffic::Zipf(1.0), 2000, 11);
        let top = s.order[0];
        let hits = (0..20_000).filter(|_| s.next_index() == top).count();
        // Rank 0 carries 1/H(2000) ≈ 12% of the traffic.
        assert!((2000..2800).contains(&hits), "{hits}");
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let spec = include_str!("../../BENCHMARK.json");
        for w in &WORKLOADS {
            assert_eq!(Workload::by_name(w.name), Some(w));
            let rate = format!("Open-loop rate {} req/s.", w.offered_qps);
            assert!(
                spec.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
            assert!(spec.contains(&rate), "{}: {rate}", w.name);
        }
        assert_eq!(Workload::by_name("nope"), None);
    }
}
