//! PEQ-top-k over the inverted index.
//!
//! "Top-k queries are executed essentially using threshold queries … by
//! dynamically adjusting the threshold τ to the k-th highest probability in
//! the current result set" (paper §2). Two executors do that:
//!
//! * Under [`Strategy::Auto`] ([`InvertedIndex::top_k_planned`]) — every
//!   `QueryService` and `DurableIndex` top-k — the block-granular threshold
//!   executor ([`threshold_top_k`]): a frontier over blocks ordered by
//!   `q_j ·` block maximum, Lemma 1 with θ in place of τ, and the tuples it
//!   cannot prune completed from list suffixes. It never fetches a tuple.
//!   One run answers a top-k over several indexes with disjoint ids — a
//!   tenant's shards — under one θ ([`InvertedIndex::top_k_joint`]).
//! * The paper's per-posting drain under [`Policy::TopK`], whose θ is the
//!   k-th best lower bound and whose undecided candidates are verified by
//!   random access. [`InvertedIndex::top_k`] and every fixed strategy run
//!   it; it is kept for the paper's figures, `uncat explain` and the
//!   `inverted.topk.topk_us` probe.

use uncat_core::query::{effective_floor, Match, TopKQuery};
use uncat_core::topk::TopKHeap;
use uncat_storage::{BufferPool, QueryMetrics, Result};

use crate::index::InvertedIndex;
use crate::search::{drain, threshold_top_k, Policy, Strategy};

impl InvertedIndex {
    /// The `k` tuples with the highest equality probability to `query.q`
    /// (only tuples with non-zero probability are returned), in canonical
    /// descending order, by the paper's per-posting drain — kept for the
    /// figures, `uncat explain` and the `inverted.topk.topk_us` probe; a
    /// caller with no figure to draw wants [`InvertedIndex::top_k_planned`]
    /// under [`Strategy::Auto`]. Counters land in the pool's ledger (see
    /// [`InvertedIndex::petq`]); the dynamic-threshold stop is tallied as a
    /// `lemma1_stops` — it is Lemma 1 with θ in place of τ.
    ///
    /// A query floor ([`TopKQuery::floor`]) seeds the dynamic threshold θ,
    /// so the search stops once `Σ_j q.p_j · p'_j < max(θ, floor)` — never
    /// later than an unfloored probe, and before `k` candidates exist when
    /// nothing left can reach the floor.
    pub fn top_k(&self, pool: &mut BufferPool, query: &TopKQuery) -> Result<Vec<Match>> {
        pool.tally(|pool, metrics| self.top_k_drain(pool, query, metrics))
    }

    /// [`InvertedIndex::top_k`] as the plan of a backend configured with
    /// `strategy`: a fixed one runs the paper's drain. [`Strategy::Auto`]
    /// runs the block-granular threshold executor: the floored Lemma 1
    /// stop taken per block on the directory's block maxima, then every
    /// tuple met pruned by an upper bound or completed exactly from the
    /// unread suffixes of its lists, with no random access
    /// (docs/METRICS.md, "Top-k"). The answers are the same.
    pub fn top_k_planned(
        &self,
        pool: &mut BufferPool,
        query: &TopKQuery,
        strategy: Strategy,
    ) -> Result<Vec<Match>> {
        match strategy {
            Strategy::Auto => InvertedIndex::top_k_joint(std::slice::from_ref(&self), pool, query),
            _ => pool.tally(|pool, metrics| self.top_k_drain(pool, query, metrics)),
        }
    }

    /// [`Strategy::Auto`]'s top-k over `indexes` as one index: their tuple
    /// ids must be disjoint, as a relation's shards' are. One threshold
    /// run reads every index's query lists under one θ, the larger of the
    /// floor and the k-th best partial sum over all of them — sound
    /// because a tuple lives in one index — while a tuple's own bounds
    /// take only its index's lists. The answer is the one index's over
    /// the union, bit for bit, and the counters are one query's: at most
    /// one `lemma1_stops`, and `blocks_decoded + blocks_skipped` = every
    /// index's query lists' blocks. [`InvertedIndex::top_k_planned`] under
    /// `Auto` is its one-index case.
    pub fn top_k_joint(
        indexes: &[&InvertedIndex],
        pool: &mut BufferPool,
        query: &TopKQuery,
    ) -> Result<Vec<Match>> {
        if query.k == 0 {
            return Ok(Vec::new());
        }
        let floor = effective_floor(query.floor);
        pool.tally(|pool, metrics| {
            threshold_top_k(indexes, pool, &query.q, query.k, floor, metrics)
        })
    }

    /// The paper's drain under the query's floor.
    fn top_k_drain(
        &self,
        pool: &mut BufferPool,
        query: &TopKQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        if query.k == 0 {
            return Ok(Vec::new());
        }
        let floor = effective_floor(query.floor);
        let policy = Policy::TopK { k: query.k, floor };
        let mut heap = TopKHeap::new(query.k, floor);
        drain(self, pool, &query.q, &policy, metrics, |tid, pr: f64| {
            if pr > 0.0 {
                heap.offer(tid, pr);
            }
        })?;
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
