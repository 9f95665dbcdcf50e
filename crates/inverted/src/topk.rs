//! PEQ-top-k over the inverted index.
//!
//! "Top-k queries are executed essentially using threshold queries … by
//! dynamically adjusting the threshold τ to the k-th highest probability in
//! the current result set" (paper §2): the frontier drain under
//! [`Policy::TopK`], whose live threshold θ is the k-th best lower bound.
//!
//! On a tie plateau the drain prunes almost nothing: every candidate has
//! `ub ≥ Σheads ≈ θ`, so it verifies nearly every posting it popped, one
//! random access each. Under [`Strategy::Auto`]
//! ([`InvertedIndex::top_k_planned`]) the drain therefore runs against
//! the price of the alternative plan — read the query's lists to the
//! end, sum exact scores, select the k best — and is abandoned for it as
//! soon as the drain's own cost so far exceeds that price.

use uncat_core::query::{Match, TopKQuery};
use uncat_core::topk::TopKHeap;
use uncat_storage::{BufferPool, QueryMetrics, Result};

use crate::cost::live_scan_cost;
use crate::index::InvertedIndex;
use crate::search::{drain, exact_scores, Policy, Strategy};

impl InvertedIndex {
    /// The `k` tuples with the highest equality probability to `query.q`
    /// (only tuples with non-zero probability are returned), in canonical
    /// descending order: the paper's drain, whatever it costs. Counters
    /// land in the pool's ledger (see [`InvertedIndex::petq`]); the
    /// dynamic-threshold stop is tallied as a `lemma1_stops` — it is
    /// Lemma 1 with θ in place of τ.
    pub fn top_k(&self, pool: &mut BufferPool, query: &TopKQuery) -> Result<Vec<Match>> {
        pool.tally(|pool, metrics| self.top_k_drain(pool, query, 0.0, None, metrics))
    }

    /// [`InvertedIndex::top_k`] under an external score *floor*, as the
    /// plan of a backend configured with `strategy`.
    ///
    /// The floor: the `k` best matches scoring at least `floor`. Callers
    /// that already hold `k` results at `floor` or better (the PEJ-top-k
    /// join) seed the dynamic threshold θ with it, so the drain stops once
    /// `Σ_j q.p_j · p'_j < max(θ, floor)` — never later than a plain top-k
    /// probe, and *before* `k` candidates exist when the frontier cannot
    /// reach the floor at all. Non-positive and non-finite floors degrade
    /// to a plain top-k.
    ///
    /// The strategy: a fixed one gets the paper's drain. [`Strategy::Auto`]
    /// starts the same drain and abandons it for the full scan once its
    /// live counters, priced by [`crate::CostPrediction::cost`]'s formula
    /// (postings popped, plus one random access per candidate up to the
    /// heap's pages), exceed the scan's cost (the lists' lengths plus
    /// their pages): the scan has exact scores from the lists alone and
    /// verifies nothing. Both prices are read off the queried lists'
    /// directories when the query runs. Answers are the same either way.
    pub fn top_k_planned(
        &self,
        pool: &mut BufferPool,
        query: &TopKQuery,
        floor: f64,
        strategy: Strategy,
    ) -> Result<Vec<Match>> {
        let scan_cost = (strategy == Strategy::Auto).then(|| live_scan_cost(self, &query.q));
        pool.tally(|pool, metrics| self.top_k_drain(pool, query, floor, scan_cost, metrics))
    }

    /// The drain, optionally against the price of the scan plan.
    fn top_k_drain(
        &self,
        pool: &mut BufferPool,
        query: &TopKQuery,
        floor: f64,
        scan_cost: Option<u64>,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        if query.k == 0 {
            return Ok(Vec::new());
        }
        let floor = if floor.is_finite() && floor > 0.0 {
            floor
        } else {
            0.0
        };
        let policy = Policy::TopK {
            k: query.k,
            floor,
            scan_cost,
        };
        let mut heap = TopKHeap::new(query.k, floor);
        let mut offer = |tid, pr: f64| {
            if pr > 0.0 {
                heap.offer(tid, pr);
            }
        };
        if !drain(self, pool, &query.q, &policy, metrics, &mut offer)? {
            // The scan plan: exact scores for every tuple in the query's
            // lists, each settled from the lists; the tuple heap is never
            // touched.
            for (tid, pr) in exact_scores(self, pool, &query.q, metrics)?.iter() {
                offer(tid, pr);
            }
        }
        Ok(heap.into_sorted())
    }
}

/// The k-th largest value of an iterator (0 when fewer than k values).
/// Ordering is total even for NaN inputs (`f64::total_cmp`): a corrupt
/// page that yields a NaN bound must degrade that one query, not panic
/// the process.
pub(crate) fn kth_largest(values: impl Iterator<Item = f64>, k: usize) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.len() < k {
        return 0.0;
    }
    let idx = k - 1;
    v.select_nth_unstable_by(idx, |a, b| b.total_cmp(a));
    v[idx]
}

#[cfg(test)]
mod tests {
    use super::kth_largest;

    #[test]
    fn kth_largest_tolerates_nan_without_panicking() {
        // total_cmp ranks a positive NaN above every finite value; the
        // important property is that a corrupt bound cannot panic the
        // selection, and finite inputs are unaffected.
        let vals = [0.3, f64::NAN, 0.9, 0.1];
        assert!(kth_largest(vals.iter().copied(), 1).is_nan());
        assert_eq!(kth_largest(vals.iter().copied(), 2), 0.9);
        assert_eq!(kth_largest(vals.iter().copied(), 4), 0.1);
        assert_eq!(kth_largest([0.5].iter().copied(), 2), 0.0);
    }
}
