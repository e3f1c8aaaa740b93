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
//! folded over the query batch).
//!
//! The checksums are a bit-identity gate at fleet scale. The bench reads
//! the committed section's checksums before it runs, writes its own
//! section, and then exits non-zero if any size's checksum differs from
//! the committed one. A change that moves answers on purpose commits the
//! rewritten section, as it would re-bless a golden file. A size with no
//! committed checksum is reported, not failed.
//!
//! Databases are synthetic and deliberately tiny (4–43 documents over a
//! 4-term vocabulary, varied per-database term correlations): the axis
//! under test is *how many* databases selection spans, not how big each
//! one is. The report is merged into the `fleet_scaling` section of
//! `BENCH_apro.json`; CI uploads it as an artifact next to the other
//! sections.

#![expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::disallowed_methods,
    reason = "fleet sizes and document counts are small integers, and the bench times its runs with the wall clock"
)]

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
/// database, scaled out to thousands of databases.
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

/// The checksum per fleet size in `BENCH_apro.json`'s committed
/// `fleet_scaling` section (empty when the file or section is missing).
fn committed_checksums(path: &std::path::Path) -> Vec<(usize, String)> {
    let Some(root) = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<serde::Value>(&text).ok())
    else {
        return Vec::new();
    };
    let cells = root
        .get("fleet_scaling")
        .and_then(|s| s.get("cells"))
        .and_then(serde::Value::as_arr)
        .unwrap_or_default();
    cells
        .iter()
        .filter_map(|cell| {
            let databases = cell.get("databases")?.as_num()?;
            let checksum = cell.get("checksum")?.as_str()?;
            Some((databases as usize, checksum.to_string()))
        })
        .collect()
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

fn main() -> std::process::ExitCode {
    let path = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_apro.json"
    ));
    let committed = committed_checksums(path);
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

    let mut moved = 0;
    for cell in &cells {
        match committed.iter().find(|(n, _)| *n == cell.databases) {
            Some((_, was)) if *was != cell.checksum => {
                moved += 1;
                eprintln!(
                    "fleet_scaling databases={}: checksum {} differs from the committed {was}",
                    cell.databases, cell.checksum
                );
            }
            Some(_) => {}
            None => eprintln!(
                "fleet_scaling databases={}: no committed checksum to compare",
                cell.databases
            ),
        }
    }
    let report = FleetReport {
        bench: "probe-free selection, fleet size".to_string(),
        k,
        queries: queries.len(),
        cells,
    };
    mp_bench::merge_bench_json(path, "fleet_scaling", report.to_value())
        .expect("BENCH_apro.json written");
    eprintln!("wrote {} (section fleet_scaling)", path.display());
    if moved > 0 {
        eprintln!(
            "fleet_scaling: {moved} selection checksum(s) moved; commit the rewritten section \
             only if the answers were meant to change"
        );
        return std::process::ExitCode::FAILURE;
    }
    std::process::ExitCode::SUCCESS
}
