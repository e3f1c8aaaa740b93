//! Thread-local scratch pool for the retrieval kernel.
//!
//! Every `cosine_topk` call needs per-query working memory: the dense
//! per-document accumulator array, the touched-doc list, the per-term
//! weight and idf tables, and the top-k heap; every `count_matching`
//! call needs its distinct terms and one cursor per postings list.
//! Allocating those per query made the old `HashMap` kernel
//! allocation-bound, so the pool keeps one [`Scratch`] per thread. A
//! serve worker reuses its own across every query it serves (and across
//! differently-sized indices: buffers only ever grow); one of mp-eval's
//! fork-join threads lives for one per-query map, so it reuses its
//! scratch across the queries of its chunk and starts cold on the next
//! map.
//!
//! **Invariant:** between queries, every element of `acc` is exactly
//! `0.0`. The kernel restores the invariant by zeroing only the
//! entries it touched; `ensure_doc_capacity` checks the whole array
//! under `debug_assertions`. A kernel that unwinds mid-query can leave
//! touched entries non-zero, so a thread that survives such a panic
//! (a serve worker does) replaces its scratch with [`discard`].

use crate::topk::TopK;
use std::cell::RefCell;

/// Reusable per-thread working memory for the retrieval kernel.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Dense per-document dot-product accumulators (all zero between
    /// queries; sized to the largest `doc_count` seen on this thread).
    pub(crate) acc: Vec<f64>,
    /// Documents with a non-zero accumulator this query.
    pub(crate) touched: Vec<u32>,
    /// Query term-id sort buffer (raw, before run-length encoding; for
    /// `count_matching`, the distinct terms shortest list first).
    pub(crate) qterms: Vec<u32>,
    /// `count_matching`'s position in each postings list after the two
    /// shortest.
    pub(crate) cursors: Vec<usize>,
    /// Run-length-encoded query term frequencies, ascending term id.
    pub(crate) qtf: Vec<(u32, u32)>,
    /// Per `qtf` entry: query-side tf-idf weight `tfq · idf`.
    pub(crate) wq: Vec<f64>,
    /// Per `qtf` entry: the term's idf in the queried index.
    pub(crate) idf: Vec<f64>,
    /// Reusable bounded top-k collector.
    pub(crate) topk: TopK,
    queries: u64,
    acc_grows: u64,
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

/// Runs `f` with this thread's scratch. The kernel never re-enters, so
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

/// Replaces this thread's scratch with an empty one. For a thread
/// that caught a panic which may have unwound out of a kernel: the
/// old accumulator may break the all-zero invariant, the new one holds
/// nothing. Call [`warm`] afterwards to pre-size it again.
pub fn discard() {
    SCRATCH.with(|s| *s.borrow_mut() = Scratch::default());
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
    #![expect(
        clippy::disallowed_methods,
        reason = "the tests check per-thread scratch from their own threads"
    )]

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

    #[test]
    fn discard_leaves_an_empty_scratch() {
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    warm(100);
                    discard();
                    let after = thread_scratch_stats();
                    assert_eq!((after.acc_len, after.acc_grows), (0, 0));
                    warm(10);
                    assert_eq!(thread_scratch_stats().acc_len, 10);
                })
                .join()
                .expect("scratch discard test thread must not panic");
        });
    }
}
