//! The `cosine_topk` retrieval kernel vs the retained naive
//! HashMap-accumulator reference, over a (docs × query-terms) matrix of
//! Zipf-distributed synthetic collections.
//!
//! The bench merges its report into the `retrieval_kernel` section of
//! `BENCH_apro.json`, recording per matrix point the naive and dense
//! kernel timings (medians of 7 batches after one warm-up, from
//! `mp_bench::measure`), the speedup, and the documents scored as
//! counted by mp-obs. It fails unless the kernel is ≥ 3× the naive
//! reference at the largest point.
//!
//! Every timed batch is preceded by a bitwise parity check: the kernel
//! must return the naive reference's exact doc set, order, and score
//! bit patterns — a speedup measured against diverging results would be
//! meaningless.

#![expect(
    clippy::cast_possible_truncation,
    reason = "term ids come from a small vocabulary"
)]

use mp_bench::measure;
use mp_index::{Document, IndexBuilder, InvertedIndex};
use mp_text::TermId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::hint::black_box;

/// (documents, query terms) matrix; the last entry is the acceptance
/// point.
const POINTS: [(usize, usize); 4] = [(1_000, 2), (1_000, 6), (20_000, 2), (20_000, 6)];
const VOCAB: usize = 4_000;
const QUERIES: usize = 48;
const TOP_K: usize = 10;
const SEED: u64 = 0xD0C5;

/// Zipf-ish synthetic collection: term ranks drawn with weight
/// `1 / (rank + 1)` via inverse-CDF sampling, 20–60 occurrences per
/// document — a few very common terms (long postings, the regime where
/// the dense accumulator matters) and a long rare tail.
fn build_corpus(docs: usize, rng: &mut StdRng) -> InvertedIndex {
    let mut cdf = Vec::with_capacity(VOCAB);
    let mut total = 0.0f64;
    for rank in 0..VOCAB {
        total += 1.0 / (rank as f64 + 1.0);
        cdf.push(total);
    }
    let mut b = IndexBuilder::new();
    for _ in 0..docs {
        let len = rng.gen_range(20..60usize);
        let mut d = Document::new();
        for _ in 0..len {
            let u: f64 = rng.gen::<f64>() * total;
            let term = cdf.partition_point(|&c| c < u).min(VOCAB - 1);
            d.add_term(TermId(term as u32), 1);
        }
        b.add(d);
    }
    b.build()
}

/// Query mix: one frequent head term (rank < 32) plus tail terms — the
/// shape real keyword queries take.
fn build_queries(terms: usize, rng: &mut StdRng) -> Vec<Vec<TermId>> {
    (0..QUERIES)
        .map(|_| {
            let mut q = vec![TermId(rng.gen_range(0..32u32))];
            while q.len() < terms {
                q.push(TermId(rng.gen_range(32..VOCAB as u32)));
            }
            q
        })
        .collect()
}

fn assert_bit_parity(idx: &InvertedIndex, queries: &[Vec<TermId>]) {
    for q in queries {
        let got = idx.cosine_topk(q, TOP_K);
        let reference = idx.cosine_topk_naive(q, TOP_K);
        assert_eq!(got.len(), reference.len(), "length mismatch");
        for (a, b) in got.iter().zip(&reference) {
            assert!(
                a.doc == b.doc && a.score.to_bits() == b.score.to_bits(),
                "kernel diverged from the naive reference"
            );
        }
    }
}

#[derive(Serialize)]
struct PointReport {
    docs: usize,
    query_terms: usize,
    queries: usize,
    top_k: usize,
    /// Naive HashMap-kernel batch time (all queries once).
    naive_ns: f64,
    /// Dense kernel batch time.
    kernel_ns: f64,
    speedup: f64,
    /// Documents scored over one instrumented batch.
    docs_scored: u64,
}

#[derive(Serialize)]
struct KernelReport {
    bench: String,
    vocab: usize,
    repeats: usize,
    points: Vec<PointReport>,
}

fn counter_value(snap: &mp_obs::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.value)
        .unwrap_or(0)
}

fn main() {
    let repeats = 7;
    let mut points = Vec::new();
    for (docs, terms) in POINTS {
        let mut rng = StdRng::seed_from_u64(SEED ^ (docs as u64) ^ ((terms as u64) << 32));
        let idx = build_corpus(docs, &mut rng);
        let queries = build_queries(terms, &mut rng);
        assert_bit_parity(&idx, &queries);

        // Documents scored, from one instrumented batch.
        mp_obs::reset();
        mp_obs::set_enabled(true);
        for q in &queries {
            black_box(idx.cosine_topk(q, TOP_K));
        }
        let docs_scored = counter_value(&mp_obs::snapshot(), "index.docs_scored");

        // Timed batches with recording off (hot-path conditions).
        mp_obs::set_enabled(false);
        let naive_ns = measure::timed(repeats, || {
            queries
                .iter()
                .map(|q| idx.cosine_topk_naive(q, TOP_K).len())
                .sum::<usize>()
        })
        .median;
        let kernel_ns = measure::timed(repeats, || {
            queries
                .iter()
                .map(|q| idx.cosine_topk(q, TOP_K).len())
                .sum::<usize>()
        })
        .median;
        mp_obs::set_enabled(true);
        let speedup = naive_ns / kernel_ns;
        eprintln!(
            "retrieval_kernel docs={docs} terms={terms}: naive {:.3} ms, kernel {:.3} ms, \
             speedup {speedup:.1}x, {docs_scored} docs scored",
            naive_ns / 1e6,
            kernel_ns / 1e6,
        );
        points.push(PointReport {
            docs,
            query_terms: terms,
            queries: QUERIES,
            top_k: TOP_K,
            naive_ns,
            kernel_ns,
            speedup,
            docs_scored,
        });
    }
    let largest = points.last().expect("matrix is non-empty");
    assert!(
        largest.speedup >= 3.0,
        "acceptance: the kernel must be ≥ 3x the naive reference at the largest point, \
         got {:.2}x",
        largest.speedup
    );
    let report = KernelReport {
        bench: "cosine_topk dense kernel vs naive HashMap reference".to_string(),
        vocab: VOCAB,
        repeats,
        points,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_apro.json");
    mp_bench::merge_bench_json(
        std::path::Path::new(path),
        "retrieval_kernel",
        report.to_value(),
    )
    .expect("BENCH_apro.json written");
    eprintln!("wrote {path} (section retrieval_kernel)");
}
