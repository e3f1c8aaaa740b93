//! Fleet-size scaling of the probe-free selection path.
//!
//! The paper's experiments stop at tens of databases. This bench sweeps
//! fleet sizes 20 / 200 / 2 000 / 20 000 databases and measures the
//! **probe-free selection path** — estimates + RD derivation →
//! `E[Cor(DBk)]` selection, i.e. [`Metasearcher::select_rd`] — because
//! that is the work whose cost scales with fleet size on *every*
//! request; adaptive probing cost scales with the probe budget, not the
//! fleet, and is covered by `apro_scaling`. Each row records a
//! **selection checksum** (selected sets + expected-correctness bits
//! folded over the query batch), so a change that moves any answer
//! shows up in the report.
//!
//! Databases are synthetic and deliberately tiny (4–43 documents over a
//! 4-term vocabulary, varied per-database term correlations): the axis
//! under test is *how many* databases selection spans, not how big each
//! one is. The report is merged into the `fleet_scaling` section of
//! `BENCH_apro.json`; CI uploads it as an artifact next to the other
//! sections.

use std::sync::Arc;
use std::time::Instant;

use mp_core::{
    CoreConfig, CorrectnessMetric, EdLibrary, IndependenceEstimator, Metasearcher, RelevancyDef,
};
use mp_hidden::{ContentSummary, HiddenWebDatabase, Mediator, SimulatedHiddenDb};
use mp_index::{Document, IndexBuilder, InvertedIndex};
use mp_text::TermId;
use mp_workload::Query;
use serde::Serialize;

const FLEET_SIZES: [usize; 4] = [20, 200, 2000, 20_000];
const RUNS: usize = 5;

fn t(i: u32) -> TermId {
    TermId(i)
}

/// Deterministic tiny corpora, varied sizes and term correlations per
/// database (the `batch_equivalence` suite's recipe, scaled out to
/// thousands of databases).
fn build_indexes(n: usize) -> Vec<InvertedIndex> {
    (0..n)
        .map(|d| {
            let mut b = IndexBuilder::new();
            let n_docs = 4 + (d as u32).wrapping_mul(7) % 40;
            for i in 0..n_docs {
                let mut doc = Document::new();
                if i % (2 + d as u32 % 3) == 0 {
                    doc.add_term(t(0), 1);
                }
                if (i + d as u32).is_multiple_of(3) {
                    doc.add_term(t(1), 1);
                }
                if d % 2 == 0 && i % 2 == 0 {
                    doc.add_term(t(2), 1);
                }
                doc.add_term(t(3), 1);
                b.add(doc);
            }
            b.build()
        })
        .collect()
}

fn mediator(indexes: &[InvertedIndex]) -> Mediator {
    let dbs: Vec<Arc<dyn HiddenWebDatabase>> = indexes
        .iter()
        .enumerate()
        .map(|(i, ix)| {
            Arc::new(SimulatedHiddenDb::new(format!("db-{i}"), ix.clone()))
                as Arc<dyn HiddenWebDatabase>
        })
        .collect();
    let summaries = indexes.iter().map(ContentSummary::cooperative).collect();
    Mediator::new(dbs, summaries)
}

fn train_queries() -> Vec<Query> {
    vec![
        Query::new([t(0), t(1)]),
        Query::new([t(0), t(3)]),
        Query::new([t(1), t(2)]),
        Query::new([t(2), t(3)]),
    ]
}

fn test_queries() -> Vec<Query> {
    vec![
        Query::new([t(0), t(1)]),
        Query::new([t(1), t(3)]),
        Query::new([t(0), t(2)]),
        Query::new([t(2), t(3)]),
    ]
}

/// Order-sensitive fold of the selection outcome: selected indices in
/// canonical order plus the exact `E[Cor]` bits. Equal checksums ⇔
/// equal selections, bit-for-bit.
fn selection_checksum(ms: &Metasearcher, queries: &[Query], k: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for q in queries {
        let (selected, expected) = ms.select_rd(q, k, CorrectnessMetric::Partial);
        for g in selected {
            mix(g as u64);
        }
        mix(expected.to_bits());
    }
    h
}

/// One fleet-size cell.
#[derive(Serialize)]
struct FleetCell {
    databases: usize,
    runs: usize,
    /// Median wall nanoseconds for one full estimate → RD → select pass
    /// over the query batch.
    wall_ns: f64,
    /// Median per-query selection latency, microseconds.
    us_per_query: f64,
    /// Selection checksum.
    checksum: String,
}

#[derive(Serialize)]
struct FleetReport {
    bench: String,
    k: usize,
    queries: usize,
    cells: Vec<FleetCell>,
}

fn main() {
    let k = 2;
    let queries = test_queries();
    let mut cells = Vec::new();

    for &n in &FLEET_SIZES {
        let indexes = build_indexes(n);
        let med = mediator(&indexes);
        let config = CoreConfig::default().with_threshold(10.0);
        let library = EdLibrary::train(
            &med,
            &IndependenceEstimator,
            RelevancyDef::DocFrequency,
            &train_queries(),
            &config,
        );
        med.reset_probes();

        let ms = Metasearcher::with_library(
            med,
            Box::new(IndependenceEstimator),
            RelevancyDef::DocFrequency,
            library,
        );

        let mut walls = Vec::with_capacity(RUNS);
        // Warm-up pass absorbs first-touch allocations.
        for measured in [false, true, true, true, true, true] {
            let start = Instant::now();
            for q in &queries {
                criterion::black_box(ms.select_rd(q, k, CorrectnessMetric::Partial));
            }
            if measured {
                walls.push(start.elapsed().as_nanos() as f64);
            }
        }
        let (_, wall_ns, _, _) = criterion::summarize(&walls);

        let checksum = selection_checksum(&ms, &queries, k);
        let us_per_query = wall_ns / 1e3 / queries.len() as f64;
        eprintln!(
            "fleet_scaling databases={n}: {us_per_query:.1} µs/query (checksum {checksum:016x})"
        );
        cells.push(FleetCell {
            databases: n,
            runs: RUNS,
            wall_ns,
            us_per_query,
            checksum: format!("{checksum:016x}"),
        });
    }

    let report = FleetReport {
        bench: "probe-free selection, fleet size".to_string(),
        k,
        queries: queries.len(),
        cells,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_apro.json");
    mp_bench::merge_bench_json(
        std::path::Path::new(path),
        "fleet_scaling",
        report.to_value(),
    )
    .expect("BENCH_apro.json written");
    eprintln!("wrote {path} (section fleet_scaling)");
}
