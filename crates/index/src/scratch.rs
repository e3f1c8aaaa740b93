//! Thread-local scratch pool for the retrieval kernels.
//!
//! Every `cosine_topk` / `max_similarity` call needs per-query working
//! memory: the dense per-document accumulator array, the touched-doc
//! list, per-term weight/bound tables, and the top-k heap. Allocating
//! those per query made the old `HashMap` kernel allocation-bound, so
//! the pool keeps one [`Scratch`] per thread. A serve worker reuses its
//! own across every query it serves (and across differently-sized
//! indices: buffers only ever grow); one of mp-eval's fork-join threads
//! lives for one per-query map, so it reuses its scratch across the
//! queries of its chunk and starts cold on the next map.
//!
//! **Invariant:** between queries, every element of `acc` is exactly
//! `0.0`. The dense kernel restores the invariant by zeroing only the
//! entries it touched; `ensure_doc_capacity` checks the whole array
//! under `debug_assertions`.

use crate::topk::TopK;
use std::cell::RefCell;

/// Reusable per-thread working memory for the retrieval kernels.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Dense per-document dot-product accumulators (all zero between
    /// queries; sized to the largest `doc_count` seen on this thread).
    pub(crate) acc: Vec<f64>,
    /// Documents with a non-zero accumulator this query.
    pub(crate) touched: Vec<u32>,
    /// Query term-id sort buffer (raw, before run-length encoding).
    pub(crate) qterms: Vec<u32>,
    /// Run-length-encoded query term frequencies, ascending term id.
    pub(crate) qtf: Vec<(u32, u32)>,
    /// Per `qtf` entry: query-side tf-idf weight `tfq · idf`.
    pub(crate) wq: Vec<f64>,
    /// Per `qtf` entry: the term's idf in the queried index.
    pub(crate) idf: Vec<f64>,
    /// Per `qtf` entry: max-score upper bound on the term's
    /// contribution to any document's normalized cosine score (scaled
    /// by `1/qnorm` at use).
    pub(crate) bound: Vec<f64>,
    /// Indices into `qtf`, sorted by descending `bound`.
    pub(crate) order: Vec<u32>,
    /// Suffix sums of `bound` over `order` (raw, unnormalized).
    pub(crate) suffix: Vec<f64>,
    /// `slack · suffix / qnorm`: the normalized score any document
    /// drawing only on the corresponding list suffix could still reach.
    pub(crate) suffix_norm: Vec<f64>,
    /// Per `order` entry: cursor into that term's postings list.
    pub(crate) cursor: Vec<usize>,
    /// Per `qtf` entry: the current candidate's tf for that term
    /// (all zero between candidates).
    pub(crate) cand_tf: Vec<u32>,
    /// Reusable bounded top-k collector.
    pub(crate) topk: TopK,
    /// Per-request rows for the batched kernel (one per batch member;
    /// grown on demand, reused across batches like everything else).
    pub(crate) batch_rows: Vec<BatchRow>,
    queries: u64,
    acc_grows: u64,
}

/// One batch member's slice of the batched kernel's working memory.
///
/// The shared-traversal kernel interleaves requests, so the single-query
/// fields of [`Scratch`] can't hold per-request state: each row carries
/// its own dense accumulator, touched list, and prepared query tables.
/// Rows obey the same invariant as `Scratch::acc` — all-zero between
/// batches — restored by zeroing only the touched entries.
#[derive(Debug, Default)]
pub(crate) struct BatchRow {
    /// Dense per-document dot-product accumulators (all zero between
    /// batches).
    pub(crate) acc: Vec<f64>,
    /// Documents with a non-zero accumulator for this request.
    pub(crate) touched: Vec<u32>,
    /// This request's run-length-encoded term frequencies (copied from
    /// `Scratch::qtf` after `prepare_query`).
    pub(crate) qtf: Vec<(u32, u32)>,
    /// Per `qtf` entry: query-side tf-idf weight.
    pub(crate) wq: Vec<f64>,
    /// Per `qtf` entry: the term's idf in the queried index.
    pub(crate) idf: Vec<f64>,
    /// The request's query norm (`0.0` marks a no-op request).
    pub(crate) qnorm: f64,
}

impl BatchRow {
    /// Grows this row's dense accumulator to cover `doc_count` documents
    /// and verifies the all-zero invariant (debug builds only).
    pub(crate) fn ensure_doc_capacity(&mut self, doc_count: usize) {
        debug_assert!(
            self.acc.iter().all(|&x| mp_stats::float::exact_zero(x)),
            "batch-row accumulator not restored to zero by the previous batch"
        );
        if self.acc.len() < doc_count {
            self.acc.resize(doc_count, 0.0);
        }
    }
}

/// A snapshot of one thread's scratch-pool accounting, for tests and
/// diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchStats {
    /// Queries served from this thread's scratch.
    pub queries: u64,
    /// Times the dense accumulator array had to grow.
    pub acc_grows: u64,
    /// Current dense accumulator length (max doc_count seen).
    pub acc_len: usize,
}

impl Scratch {
    /// Grows the dense accumulator to cover `doc_count` documents and
    /// verifies the all-zero invariant (debug builds only). Shrinking
    /// never happens: a smaller index simply uses a prefix, which is
    /// what lets one thread serve differently-sized indices without
    /// reallocating.
    pub(crate) fn ensure_doc_capacity(&mut self, doc_count: usize) {
        debug_assert!(
            self.acc.iter().all(|&x| mp_stats::float::exact_zero(x)),
            "scratch accumulator not restored to zero by the previous query"
        );
        if self.acc.len() < doc_count {
            self.acc.resize(doc_count, 0.0);
            self.acc_grows += 1;
        }
        self.queries += 1;
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` with this thread's scratch. The kernels never re-enter, so
/// the `RefCell` borrow cannot conflict.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Pre-sizes this thread's dense accumulator for indices of up to
/// `doc_count` documents, so the first queries a worker serves don't
/// pay the growth. Serve workers call this once at startup with the
/// largest mediated collection size.
pub fn warm(doc_count: usize) {
    with_scratch(|s| {
        if s.acc.len() < doc_count {
            s.acc.resize(doc_count, 0.0);
            s.acc_grows += 1;
        }
    });
}

/// This thread's scratch-pool accounting.
pub fn thread_scratch_stats() -> ScratchStats {
    with_scratch(|s| ScratchStats {
        queries: s.queries,
        acc_grows: s.acc_grows,
        acc_len: s.acc.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_grows_once_and_sticks() {
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let before = thread_scratch_stats();
                    assert_eq!(before.acc_len, 0);
                    warm(100);
                    warm(50); // smaller: no-op
                    let after = thread_scratch_stats();
                    assert_eq!(after.acc_len, 100);
                    assert_eq!(after.acc_grows, before.acc_grows + 1);
                })
                .join()
                .expect("scratch warm test thread must not panic");
        });
    }
}
