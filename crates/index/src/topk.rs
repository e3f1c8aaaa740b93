//! Bounded top-k collection over scored documents.
//!
//! [`TopK::offer`] decides membership by the total ranking order alone;
//! [`TopK::worst_score`] lets a caller skip candidates that score
//! strictly below the worst kept result without building them.

use crate::types::ScoredDoc;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Wrapper giving `ScoredDoc` the *reverse* ranking order so the
/// `BinaryHeap` (a max-heap) exposes the currently-worst kept result at
/// the top, where it can be evicted in `O(log k)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WorstFirst(ScoredDoc);

impl Eq for WorstFirst {}

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        // ranking_cmp orders best-first (best = Less), so under the
        // max-heap's ordering the greatest element is already the worst
        // kept result — exactly what we want at the top.
        self.0.ranking_cmp(&other.0)
    }
}

impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded collector retaining the `k` best [`ScoredDoc`]s seen.
///
/// `O(log k)` per offer, `O(k log k)` to finish. Ties are broken by
/// ascending doc id, matching [`ScoredDoc::ranking_cmp`].
#[derive(Debug, Clone, Default)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<WorstFirst>,
}

impl TopK {
    /// A collector for the best `k` results. `k = 0` collects nothing.
    ///
    /// Callers may pass an effectively unbounded `k` (e.g. "all
    /// results"); the preallocation is capped so that is cheap.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k.saturating_add(1).min(1 << 12)),
        }
    }

    /// Re-arms a (possibly used) collector for a fresh query with bound
    /// `k`, keeping the heap's allocation — this is what lets the
    /// thread-local scratch pool serve every query without a per-query
    /// heap allocation.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
    }

    /// Offers a candidate result.
    pub fn offer(&mut self, candidate: ScoredDoc) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(WorstFirst(candidate));
            return;
        }
        let worst = self.heap.peek().expect("heap non-empty").0;
        if candidate.ranking_cmp(&worst) == Ordering::Less {
            self.heap.pop();
            self.heap.push(WorstFirst(candidate));
        }
    }

    /// The worst kept result's score once `k` results are held, `None`
    /// while every offer is still kept. A candidate scoring strictly
    /// below it cannot enter; one scoring equal to it still may, on the
    /// doc-id tie-break.
    pub fn worst_score(&self) -> Option<f64> {
        if self.heap.len() < self.k {
            return None;
        }
        self.heap.peek().map(|w| w.0.score)
    }

    /// Number of results currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consumes the collector, returning results best-first.
    pub fn into_sorted(self) -> Vec<ScoredDoc> {
        let mut v: Vec<ScoredDoc> = self.heap.into_iter().map(|w| w.0).collect();
        v.sort_by(|a, b| a.ranking_cmp(b));
        v
    }

    /// Drains the collector into a fresh best-first `Vec`, leaving the
    /// heap empty but with its capacity intact for the next
    /// [`Self::reset`]. Only the returned result vector is allocated.
    pub fn drain_sorted(&mut self) -> Vec<ScoredDoc> {
        let mut v: Vec<ScoredDoc> = self.heap.drain().map(|w| w.0).collect();
        v.sort_by(|a, b| a.ranking_cmp(b));
        v
    }
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::cast_possible_truncation,
        reason = "test lists are far shorter than 2^32"
    )]

    use super::*;
    use crate::types::DocId;
    use proptest::prelude::*;

    fn sd(id: u32, score: f64) -> ScoredDoc {
        ScoredDoc {
            doc: DocId(id),
            score,
        }
    }

    #[test]
    fn keeps_best_k() {
        let mut tk = TopK::new(2);
        for c in [sd(0, 0.1), sd(1, 0.9), sd(2, 0.5), sd(3, 0.7)] {
            tk.offer(c);
        }
        let out = tk.into_sorted();
        assert_eq!(out.iter().map(|s| s.doc.0).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut tk = TopK::new(10);
        tk.offer(sd(0, 0.3));
        assert_eq!(tk.len(), 1);
        assert_eq!(tk.into_sorted().len(), 1);
    }

    #[test]
    fn k_zero_collects_nothing() {
        let mut tk = TopK::new(0);
        tk.offer(sd(0, 1.0));
        assert!(tk.is_empty());
    }

    #[test]
    fn ties_prefer_lower_doc_id() {
        let mut tk = TopK::new(1);
        tk.offer(sd(5, 0.5));
        tk.offer(sd(2, 0.5));
        let out = tk.into_sorted();
        assert_eq!(out[0].doc.0, 2);
    }

    proptest! {
        #[test]
        fn prop_matches_full_sort(
            scores in proptest::collection::vec(0.0f64..1.0, 0..100),
            k in 0usize..20
        ) {
            let candidates: Vec<ScoredDoc> =
                scores.iter().enumerate().map(|(i, &s)| sd(i as u32, s)).collect();
            let mut tk = TopK::new(k);
            for &c in &candidates {
                tk.offer(c);
            }
            let got = tk.into_sorted();

            let mut full = candidates.clone();
            full.sort_by(|a, b| a.ranking_cmp(b));
            full.truncate(k);
            prop_assert_eq!(got, full);
        }
    }
}
