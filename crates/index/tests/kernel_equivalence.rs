//! Equivalence pins for the retrieval kernel.
//!
//! The production `cosine_topk` (one dense term-at-a-time kernel) must
//! return results **bit-identical** to the retained naive
//! HashMap-accumulator reference (`cosine_topk_naive`) on every input —
//! same documents, same order, same score bit patterns. These tests are
//! the workspace determinism contract for the index layer.

#![expect(
    clippy::cast_possible_truncation,
    clippy::disallowed_methods,
    reason = "test corpora hold far fewer than 2^32 documents and terms, and the concurrency checks run their own threads"
)]

use mp_index::types::{DocId, ScoredDoc};
use mp_index::{Document, IndexBuilder, InvertedIndex};
use mp_text::TermId;
use proptest::prelude::*;

fn t(i: u32) -> TermId {
    TermId(i)
}

fn index_of(docs: &[Vec<u32>]) -> InvertedIndex {
    let mut b = IndexBuilder::new();
    for d in docs {
        b.add(Document::from_terms(d.iter().map(|&i| t(i))));
    }
    b.build()
}

fn assert_bit_identical(label: &str, a: &[ScoredDoc], b: &[ScoredDoc]) {
    assert_eq!(a.len(), b.len(), "{label}: result lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.doc, y.doc, "{label}: doc mismatch at rank {i}");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{label}: score bits differ at rank {i} ({} vs {})",
            x.score,
            y.score
        );
    }
}

/// Random collections over a small vocabulary (dense overlap), queries
/// with duplicate terms and out-of-vocabulary terms (ids ≥ 12 never
/// occur in documents), and the k regimes 0, 1, n (= doc count) and
/// > n.
fn check_against_naive(docs: &[Vec<u32>], query: &[u32]) {
    let idx = index_of(docs);
    let q: Vec<TermId> = query.iter().map(|&i| t(i)).collect();
    let n = docs.len();
    for k in [0usize, 1, 3, n, n + 7, usize::MAX >> 1] {
        assert_bit_identical(
            &format!("k={k}"),
            &idx.cosine_topk(&q, k),
            &idx.cosine_topk_naive(&q, k),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `cosine_topk` is bit-identical to the naive reference across
    /// random indices, duplicate query terms, OOV terms, and all k
    /// regimes.
    #[test]
    fn prop_kernel_bit_identical_to_naive(
        docs in proptest::collection::vec(
            proptest::collection::vec(0u32..12, 1..12), 1..30),
        query in proptest::collection::vec(0u32..16, 1..6)
    ) {
        check_against_naive(&docs, &query);
    }

    /// Skewed frequencies: four common terms fill every document and a
    /// few rare high-idf terms sit in single documents, so small-k
    /// rankings hinge on ties and on the rare terms — the ranking and
    /// every score bit must still match.
    #[test]
    fn prop_kernel_is_exact_under_skew(
        docs in proptest::collection::vec(
            proptest::collection::vec(0u32..4, 1..6), 4..40),
        rare in proptest::collection::vec(0usize..40, 0..5),
        k in 1usize..4
    ) {
        let mut docs = docs;
        let n = docs.len();
        for (j, &d) in rare.iter().enumerate() {
            docs[d % n].push(20 + j as u32); // rare, high-idf terms
        }
        let idx = index_of(&docs);
        let q: Vec<TermId> = (0..2).chain(20..25).map(t).collect();
        assert_bit_identical("skew", &idx.cosine_topk(&q, k), &idx.cosine_topk_naive(&q, k));
    }

    /// Tied k-th scores. Each pair holds two groups of identical
    /// documents over different terms with equal dfs and tfs, so every
    /// document of the pair scores exactly alike. The group over the
    /// higher term id takes the lower doc ids, so the kernel meets those
    /// tied documents after their higher-id rivals. Every k, including
    /// each one that cuts through a tie group, must match the naive
    /// reference bit for bit: the score floor has to let an equal score
    /// reach the doc-id tie-break.
    #[test]
    fn prop_kernel_is_exact_through_tie_groups(
        pairs in proptest::collection::vec((1usize..6, 1u32..4), 1..5),
        filler in proptest::collection::vec(
            proptest::collection::vec(40u32..48, 1..6), 0..10)
    ) {
        let mut docs: Vec<Vec<u32>> = Vec::new();
        let mut query = Vec::new();
        for (p, &(size, tf)) in pairs.iter().enumerate() {
            let (lo, hi) = (10 + 2 * p as u32, 11 + 2 * p as u32);
            query.extend([lo, hi]);
            for term in [hi, lo] {
                let mut doc = vec![term; tf as usize];
                doc.push(30);
                docs.extend(std::iter::repeat_n(doc, size));
            }
        }
        docs.extend(filler);
        let idx = index_of(&docs);
        let q: Vec<TermId> = query.iter().map(|&i| t(i)).collect();
        for k in 1..=docs.len() + 1 {
            assert_bit_identical(
                &format!("tie groups k={k}"),
                &idx.cosine_topk(&q, k),
                &idx.cosine_topk_naive(&q, k),
            );
        }
    }

    /// Forward-index round-trip: `reconstruct_doc` returns exactly the
    /// term bag the builder was fed.
    #[test]
    fn prop_forward_index_roundtrip(
        docs in proptest::collection::vec(
            proptest::collection::vec(0u32..50, 0..20), 0..20)
    ) {
        let idx = index_of(&docs);
        for (d, terms) in docs.iter().enumerate() {
            let rebuilt = idx.reconstruct_doc(DocId(d as u32));
            let mut expected = std::collections::HashMap::new();
            for &term in terms {
                *expected.entry(term).or_insert(0u32) += 1;
            }
            assert_eq!(rebuilt.terms().count(), expected.len(), "doc {d}");
            for (term, tf) in rebuilt.terms() {
                assert_eq!(Some(&tf), expected.get(&term.0), "doc {d} term {}", term.0);
            }
        }
    }
}

/// One thread's scratch serves differently-sized indices back to back:
/// the dense accumulator grows to the largest collection and is reused
/// (not reallocated) for every subsequent query, large or small.
#[test]
fn scratch_pool_reuse_across_differently_sized_indices() {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let small = index_of(&[vec![1, 2], vec![2, 3]]);
                let big = index_of(&(0..500).map(|i| vec![i % 7, i % 11]).collect::<Vec<_>>());
                let q = [t(1), t(2)];

                let s0 = mp_index::scratch::thread_scratch_stats();
                let _ = small.cosine_topk(&q, 5);
                let s1 = mp_index::scratch::thread_scratch_stats();
                assert!(s1.queries > s0.queries, "scratch pool not used");

                let _ = big.cosine_topk(&q, 5);
                let grown = mp_index::scratch::thread_scratch_stats().acc_len;
                assert_eq!(grown, 500, "accumulator sized to the big index");

                // Back to the small index, then the big one again: the
                // accumulator must never grow again.
                for _ in 0..3 {
                    let a = small.cosine_topk(&q, 5);
                    let b = small.cosine_topk_naive(&q, 5);
                    assert_eq!(a.len(), b.len());
                    let _ = big.cosine_topk(&q, 5);
                }
                let end = mp_index::scratch::thread_scratch_stats();
                assert_eq!(end.acc_len, 500);
                assert_eq!(
                    end.acc_grows,
                    mp_index::scratch::thread_scratch_stats().acc_grows,
                    "no further growth"
                );
            })
            .join()
            .expect("scratch reuse test thread must not panic");
    });
}

/// `warm` pre-sizes the accumulator so a worker's first query over the
/// largest mediated collection never grows mid-serve.
#[test]
fn warm_prevents_first_query_growth() {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                mp_index::scratch::warm(1000);
                let grows_before = mp_index::scratch::thread_scratch_stats().acc_grows;
                let idx = index_of(&(0..800).map(|i| vec![i % 5]).collect::<Vec<_>>());
                let _ = idx.cosine_topk(&[t(0)], 3);
                let grows_after = mp_index::scratch::thread_scratch_stats().acc_grows;
                assert_eq!(grows_before, grows_after, "warm scratch must not regrow");
            })
            .join()
            .expect("warm test thread must not panic");
    });
}

/// A 20,000-document collection with a hot head term in every third
/// document, a warm term in every seventh and a tail of rarer terms:
/// long postings lists at small k, the regime where many candidates
/// tie or fall just below the k-th score.
#[test]
fn large_collection_with_a_hot_head_term() {
    let docs: Vec<Vec<u32>> = (0..20_000u32)
        .map(|d| {
            let mut terms = vec![10 + d % 97, 200 + d % 1_009];
            if d % 3 == 0 {
                terms.push(0);
            }
            if d % 7 == 0 {
                terms.extend([1, 1]);
            }
            if d % 5 == 0 {
                terms.push(10 + d % 13);
            }
            terms
        })
        .collect();
    let idx = index_of(&docs);
    assert!(idx.postings(t(0)).len() > 6_000, "head term is hot");
    let queries: [&[u32]; 5] = [
        &[0, 1],
        &[0, 15],
        &[0, 1, 42, 300],
        &[1, 0, 0, 57],
        &[0, 1, 9_999],
    ];
    for query in queries {
        let q: Vec<TermId> = query.iter().map(|&i| t(i)).collect();
        for k in [1usize, 10] {
            let got = idx.cosine_topk(&q, k);
            assert_eq!(got.len(), k, "query {query:?} fills k={k}");
            assert_bit_identical(
                &format!("query {query:?} k={k}"),
                &got,
                &idx.cosine_topk_naive(&q, k),
            );
        }
    }
}
