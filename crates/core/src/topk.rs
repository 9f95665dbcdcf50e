//! A bounded top-k accumulator with a dynamically rising threshold.
//!
//! The paper executes top-k queries "essentially using threshold queries …
//! by dynamically adjusting the threshold τ to the k-th highest probability
//! in the current result set" (Section 2). [`TopKHeap`] packages that: it
//! keeps the best `k` matches seen so far and exposes the current effective
//! threshold for pruning. Several searches may feed one: a service top-k
//! merges whole shard answers into it and offers PDR-tree leaf entries
//! one by one.
//!
//! The distance queries rank the other way round, and [`BottomKHeap`] is
//! the same heap over negated distances: its ceiling is the negated
//! floor, so a DSTQ (every match within `τ_d`) and a DS-top-k (the `k`
//! nearest) are one accumulator that differs by `(k, ceiling)`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::query::Match;
use crate::TupleId;

/// Min-heap entry ordered by (score asc, tid desc) so that `peek` is the
/// *weakest* retained match and ties evict the largest tid first,
/// mirroring the deterministic canonical ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry(Match);

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert score so the weakest floats up.
        // `total_cmp`, not `partial_cmp().expect()`: a NaN score (a
        // corrupt page that passed the physical checks) must not panic
        // the process from inside the heap.
        other
            .0
            .score
            .total_cmp(&self.0.score)
            .then_with(|| self.0.tid.cmp(&other.0.tid))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Accumulator for the `k` highest-scoring matches.
///
/// Matches arrive one at a time ([`offer`](TopKHeap::offer)) or as whole
/// ranked answers ([`merge_sorted`](TopKHeap::merge_sorted)). Until `k`
/// are in, every admitted match is kept in one list, sorted only when
/// drained; while only ranked answers have arrived the list is in
/// canonical order, merged in linear time. The `k`-th single offer, or
/// any offer into a full list, turns the list into a heap whose top is
/// the weakest match. At most one of the two holds matches.
#[derive(Debug)]
pub struct TopKHeap {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
    list: Vec<Match>,
    /// Whether no single offer went in: `list` is in canonical order and
    /// `heap` is empty.
    ranked: bool,
    floor: f64,
}

/// Whether `a` ranks before `b`: a higher score, or the same score and a
/// smaller tid — the canonical order, and what it takes to displace the
/// weakest retained match.
fn ranks_before(a: &Match, b: &Match) -> bool {
    a.score > b.score || (a.score == b.score && a.tid < b.tid)
}

impl TopKHeap {
    /// New accumulator retaining at most `k` matches, pruning at `floor`:
    /// matches scoring below `floor` are never admitted (use `0.0`, or a
    /// PETQ threshold when combining top-k with a minimum probability).
    /// Nothing is reserved from `k`, which may be any `usize`: the list
    /// grows as matches are offered.
    pub fn new(k: usize, floor: f64) -> TopKHeap {
        TopKHeap {
            k,
            heap: BinaryHeap::new(),
            list: Vec::new(),
            ranked: true,
            floor,
        }
    }

    /// Offer a match. Returns `true` if it was retained.
    #[inline]
    pub fn offer(&mut self, tid: TupleId, score: f64) -> bool {
        if self.k == 0 || score < self.floor {
            return false;
        }
        let m = Match::new(tid, score);
        self.ranked = false;
        if self.heap.is_empty() {
            if self.list.len() < self.k {
                self.list.push(m);
                if self.list.len() == self.k {
                    self.heapify();
                }
                return true;
            }
            self.heapify();
        }
        let weakest = self.heap.peek().expect("non-empty").0;
        let better = ranks_before(&m, &weakest);
        if better {
            self.heap.pop();
            self.heap.push(HeapEntry(m));
        }
        better
    }

    /// Turn the full list into the heap.
    #[cold]
    fn heapify(&mut self) {
        self.heap = self.list.drain(..).map(HeapEntry).collect();
    }

    /// Offer a whole ranked answer: `run` in canonical order (descending
    /// score, ascending tid), as every `top_k` returns one. Retains what
    /// offering each match in turn would; into a list of ranked answers
    /// it is one linear merge.
    pub fn merge_sorted(&mut self, run: Vec<Match>) {
        if !self.ranked {
            // A match that is not retained ranks no better than the
            // weakest, and neither does any match after it.
            for m in run {
                if !self.offer(m.tid, m.score) {
                    break;
                }
            }
            return;
        }
        let kept = std::mem::take(&mut self.list);
        let mut merged = Vec::with_capacity(self.k.min(kept.len() + run.len()));
        let (mut a, mut b) = (kept.into_iter().peekable(), run.into_iter().peekable());
        while merged.len() < self.k {
            let next = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) if ranks_before(y, x) => b.next(),
                (Some(_), _) => a.next(),
                (None, _) => b.next(),
            };
            match next {
                Some(m) if m.score >= self.floor => merged.push(m),
                _ => break,
            }
        }
        self.list = merged;
    }

    /// The current effective threshold: any future match scoring *at or
    /// below* this cannot change the result set (once full, the k-th best
    /// score; before that, the floor).
    #[inline]
    pub fn threshold(&self) -> f64 {
        if !self.is_full() {
            self.floor
        } else if let Some(e) = self.heap.peek() {
            e.0.score
        } else {
            self.list.last().map_or(self.floor, |m| m.score)
        }
    }

    /// Whether `k` matches have been accumulated.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() >= self.k
    }

    /// Number of retained matches.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() + self.list.len()
    }

    /// Whether no match has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume the heap, returning matches in canonical descending order.
    pub fn into_sorted(self) -> Vec<Match> {
        let mut v = self.list;
        v.extend(self.heap.into_iter().map(|e| e.0));
        if !self.ranked {
            crate::query::sort_matches_desc(&mut v);
        }
        v
    }
}

/// Accumulator for the `k` *lowest*-scoring matches at or below a
/// ceiling (distributional similarity minimizes divergence): a
/// [`TopKHeap`] over the negated distances, floored at the negated
/// ceiling. A DSTQ is one with `k = usize::MAX` and the radius as its
/// ceiling, a DS-top-k one with the query's `k` and no ceiling (`+∞`).
#[derive(Debug)]
pub struct BottomKHeap(TopKHeap);

impl BottomKHeap {
    /// New accumulator retaining at most `k` matches scoring at most
    /// `ceiling`; as [`TopKHeap::new`], nothing is reserved from `k`. A
    /// NaN ceiling admits nothing.
    pub fn new(k: usize, ceiling: f64) -> BottomKHeap {
        let k = if ceiling.is_nan() { 0 } else { k };
        BottomKHeap(TopKHeap::new(k, -ceiling))
    }

    /// Offer a match. Returns `true` if it was retained.
    #[inline]
    pub fn offer(&mut self, tid: TupleId, score: f64) -> bool {
        self.0.offer(tid, -score)
    }

    /// The current pruning bound: a match scoring *above* this cannot
    /// change the result set (the ceiling until the heap fills, then the
    /// k-th smallest score).
    #[inline]
    pub fn bound(&self) -> f64 {
        -self.0.threshold()
    }

    /// Whether `k` matches have been accumulated.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.0.is_full()
    }

    /// Whether no match has been retained.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Consume the heap, returning matches in ascending-score order.
    pub fn into_sorted(self) -> Vec<Match> {
        let mut v = self.0.into_sorted();
        for m in &mut v {
            m.score = -m.score;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottom_k_keeps_smallest() {
        let mut h = BottomKHeap::new(2, f64::INFINITY);
        assert_eq!(h.bound(), f64::INFINITY);
        for (tid, s) in [(1, 0.5), (2, 0.1), (3, 0.9), (4, 0.05)] {
            h.offer(tid, s);
        }
        assert!((h.bound() - 0.1).abs() < 1e-12);
        let out = h.into_sorted();
        assert_eq!(out.iter().map(|m| m.tid).collect::<Vec<_>>(), vec![4, 2]);
    }

    #[test]
    fn bottom_k_ties_prefer_smaller_tid() {
        let mut h = BottomKHeap::new(1, f64::INFINITY);
        h.offer(9, 0.3);
        assert!(h.offer(2, 0.3));
        assert_eq!(h.into_sorted()[0].tid, 2);
    }

    #[test]
    fn bottom_k_zero_capacity() {
        let mut h = BottomKHeap::new(0, f64::INFINITY);
        assert!(!h.offer(1, 0.0));
        assert!(h.is_empty());
    }

    #[test]
    fn keeps_only_k_best() {
        let mut h = TopKHeap::new(3, 0.0);
        for (tid, s) in [(1, 0.1), (2, 0.9), (3, 0.5), (4, 0.7), (5, 0.2)] {
            h.offer(tid, s);
        }
        let out = h.into_sorted();
        assert_eq!(out.iter().map(|m| m.tid).collect::<Vec<_>>(), vec![2, 4, 3]);
    }

    #[test]
    fn threshold_rises_as_heap_fills() {
        let mut h = TopKHeap::new(2, 0.0);
        assert_eq!(h.threshold(), 0.0);
        h.offer(1, 0.4);
        assert_eq!(h.threshold(), 0.0, "not yet full");
        h.offer(2, 0.6);
        assert!((h.threshold() - 0.4).abs() < 1e-12);
        h.offer(3, 0.9);
        assert!((h.threshold() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn floor_rejects_low_scores() {
        let mut h = TopKHeap::new(5, 0.5);
        assert!(!h.offer(1, 0.49));
        assert!(h.offer(2, 0.5));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn ties_prefer_smaller_tid() {
        let mut h = TopKHeap::new(2, 0.0);
        h.offer(10, 0.5);
        h.offer(20, 0.5);
        assert!(
            h.offer(5, 0.5),
            "equal score but smaller tid should displace"
        );
        let out = h.into_sorted();
        assert_eq!(out.iter().map(|m| m.tid).collect::<Vec<_>>(), vec![5, 10]);
    }

    #[test]
    fn k_zero_accepts_nothing() {
        let mut h = TopKHeap::new(0, 0.0);
        assert!(!h.offer(1, 1.0));
        assert!(h.into_sorted().is_empty());
    }

    #[test]
    fn nan_scores_order_totally_instead_of_panicking() {
        // Enough offers that both heaps sift NaN entries against finite
        // ones on push and on pop.
        let scores = [0.4, f64::NAN, 0.9, 0.1, f64::NAN, 0.7, 0.2];
        let mut top = TopKHeap::new(3, 0.0);
        let mut bottom = BottomKHeap::new(3, f64::INFINITY);
        for (tid, &s) in scores.iter().enumerate() {
            top.offer(tid as u64, s);
            bottom.offer(tid as u64, s);
        }
        // Draining sorts through `sort_matches_*`, which must be total too.
        assert_eq!(top.into_sorted().len(), 3);
        assert_eq!(bottom.into_sorted().len(), 3);
        // Finite inputs are unaffected by the NaN neighbours' presence.
        let mut top = TopKHeap::new(2, 0.0);
        for (tid, s) in [(1, 0.4), (2, 0.9), (3, 0.1)] {
            top.offer(tid, s);
        }
        let out = top.into_sorted();
        assert_eq!(out.iter().map(|m| m.tid).collect::<Vec<_>>(), vec![2, 1]);
    }

    #[test]
    fn exact_duplicate_scores_all_fit() {
        let mut h = TopKHeap::new(3, 0.0);
        for tid in 0..3 {
            assert!(h.offer(tid, 0.25));
        }
        assert!(h.is_full());
        assert_eq!(h.into_sorted().len(), 3);
    }
}
