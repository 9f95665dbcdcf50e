//! PEQ-top-k over the inverted index.
//!
//! "Top-k queries are executed essentially using threshold queries … by
//! dynamically adjusting the threshold τ to the k-th highest probability in
//! the current result set" (paper §2). The driver combines
//! highest-prob-first ordering with rank-join bounds: list heads are
//! drained most-promising-first while per-candidate lower bounds
//! accumulate; the live threshold θ is the k-th best lower bound, and
//! Lemma 1 stops the drain once `Σ_j q.p_j · p'_j < θ`. Only candidates
//! whose upper bound still reaches θ are verified by batched random
//! access.
//!
//! On a tie plateau the drain prunes almost nothing: every candidate has
//! `ub ≥ Σheads ≈ θ`, so it verifies nearly every posting it popped, one
//! random access each. Under [`Strategy::Auto`]
//! ([`InvertedIndex::top_k_planned`]) the drain therefore runs against
//! the price of the alternative plan — read the query's lists to the
//! end, sum exact scores, select the k best — and is abandoned for it as
//! soon as the drain's own cost so far exceeds that price.

use uncat_core::equality::{eq_prob_entries, THRESHOLD_EPS};
use uncat_core::query::{Match, TopKQuery};
use uncat_core::topk::TopKHeap;
use uncat_storage::{BufferPool, Phase, QueryMetrics, Result};

use crate::cost::{live_scan_cost, CostPrediction};
use crate::index::InvertedIndex;
use crate::search::{exact_scores, Frontier, Strategy};
use crate::tid::{TidMap, TidSet};

/// Pops between θ refreshes.
const THETA_EVERY: usize = 64;

struct Cand {
    lb: f64,
    seen: u128,
}

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
        let plan = pool.trace_begin(Phase::Plan);
        let mut frontier = Frontier::open(self, pool, &query.q, metrics)?;
        pool.trace_end(plan);
        // A one-list candidate's bounds converge on contact (nothing is
        // ever fetched for it), as in the estimator's drain prediction.
        let fetches_per_candidate = usize::from(frontier.len() > 1);
        // The drain so far, by `CostPrediction::cost`'s formula on live
        // counters: the postings it popped, plus one batched random
        // access per candidate it would now have to verify — never more
        // pages than the tuple heap has.
        let heap_pages = self.heap_pages();
        let losing = |pops: usize, candidates: usize| {
            scan_cost.is_some_and(|scan| {
                let drain = CostPrediction {
                    postings_scanned: pops as u64,
                    physical_reads: (fetches_per_candidate * candidates).min(heap_pages) as u64,
                    ..CostPrediction::default()
                };
                drain.cost() > scan
            })
        };
        if frontier.len() > 128 {
            // Nothing decoded yet: the whole frontier counts as skipped
            // before the fallback opens its own.
            frontier.account_skips(metrics);
            return self.top_k_random_access(pool, query, floor, &losing, metrics);
        }

        let mut cand: TidMap<Cand> = TidMap::default();
        let mut theta = floor; // max(floor, k-th best lower bound so far)
        let mut pops = 0usize;
        let mut next_refresh = THETA_EVERY;

        let drain = pool.trace_begin(Phase::FrontierMaintenance);
        loop {
            // Lemma 1 with the dynamic threshold: an unseen tuple is
            // bounded by the frontier sum (an over-estimate while bound
            // heads are live, so the stop is conservative); once that
            // cannot reach the k-th best lower bound, the candidate set
            // is complete — and blocks whose maximum cannot beat θ/floor
            // are leapt over without decoding (the check runs *before*
            // `best()`, which is what force-decodes). A positive floor
            // makes the stop valid even before k candidates exist:
            // nothing the frontier can still produce reaches the floor.
            if (cand.len() >= query.k || floor > 0.0) && frontier.sum() < theta - THRESHOLD_EPS {
                if !frontier.all_exhausted() {
                    metrics.lemma1_stops += 1;
                }
                break;
            }
            if losing(pops, cand.len()) {
                pool.trace_end(drain);
                frontier.account_skips(metrics);
                return self.top_k_scan(pool, query, floor, metrics);
            }
            let Some((j, tid, c)) = frontier.best(pool, metrics)? else {
                break;
            };
            let e = cand.entry(tid).or_insert(Cand { lb: 0.0, seen: 0 });
            e.lb += c;
            e.seen |= 1u128 << j;
            frontier.advance(pool, j, metrics)?;

            pops += 1;
            // Refreshing θ costs a pass over the candidate map, so the
            // interval scales with its size (dense data accumulates
            // hundreds of thousands of candidates).
            if pops >= next_refresh {
                next_refresh = pops + THETA_EVERY.max(cand.len() / 4);
                if cand.len() >= query.k {
                    theta = kth_largest(cand.values().map(|c| c.lb), query.k).max(floor);
                }
            }
        }

        // Final bounds with the residual frontier (zero where exhausted;
        // bound heads report their block maximum, keeping upper bounds
        // conservative).
        pool.trace_end(drain);
        let heads = frontier.residual();
        let all_exhausted = frontier.all_exhausted();
        frontier.account_skips(metrics);
        theta = if cand.len() >= query.k {
            kth_largest(cand.values().map(|c| c.lb), query.k).max(floor)
        } else {
            floor
        };

        // Split finalists into settled (lb already exact) and unsettled.
        metrics.candidates_generated += cand.len() as u64;
        let mut settled: Vec<(u64, f64)> = Vec::new();
        let mut unsettled: Vec<u64> = Vec::new();
        for (tid, c) in &cand {
            let remaining: f64 = heads
                .iter()
                .enumerate()
                .filter(|&(j, _)| c.seen & (1u128 << j) == 0)
                .map(|(_, &h)| h)
                .sum();
            let ub = c.lb + remaining;
            if ub < theta - THRESHOLD_EPS {
                metrics.candidates_pruned += 1;
                continue; // cannot make the top k
            }
            if all_exhausted || remaining == 0.0 {
                settled.push((*tid, c.lb));
            } else {
                unsettled.push(*tid);
            }
        }
        metrics.candidates_settled += settled.len() as u64;

        let mut heap = TopKHeap::new(query.k, floor);
        // Unsettled finalists need one random access each, batched so
        // that candidates sharing a heap page cost one read.
        self.verify_each(pool, unsettled, metrics, |tid, t| {
            let pr = eq_prob_entries(query.q.entries(), t);
            if pr > 0.0 {
                heap.offer(tid, pr);
            }
        })?;
        for (tid, pr) in settled {
            if pr > 0.0 {
                heap.offer(tid, pr);
            }
        }
        Ok(heap.into_sorted())
    }

    /// The scan plan: exact scores for every tuple in the query's lists,
    /// then the k best. Every candidate is settled from the lists; the
    /// tuple heap is never touched.
    fn top_k_scan(
        &self,
        pool: &mut BufferPool,
        query: &TopKQuery,
        floor: f64,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        let scores = exact_scores(self, pool, &query.q, metrics)?;
        let mut heap = TopKHeap::new(query.k, floor);
        for (tid, pr) in scores.iter() {
            if pr > 0.0 {
                heap.offer(tid, pr);
            }
        }
        Ok(heap.into_sorted())
    }

    /// Fallback for queries wider than the bound mask: verify every
    /// encountered candidate by random access. The heap's threshold is
    /// `floor` until it fills, so a positive floor prunes from the first
    /// pop.
    fn top_k_random_access(
        &self,
        pool: &mut BufferPool,
        query: &TopKQuery,
        floor: f64,
        losing: &dyn Fn(usize, usize) -> bool,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        let plan = pool.trace_begin(Phase::Plan);
        let mut frontier = Frontier::open(self, pool, &query.q, metrics)?;
        pool.trace_end(plan);
        let drain = pool.trace_begin(Phase::FrontierMaintenance);
        let mut heap = TopKHeap::new(query.k, floor);
        let mut verified = TidSet::default();
        let mut pops = 0usize;
        loop {
            if (heap.is_full() || floor > 0.0) && frontier.sum() < heap.threshold() - THRESHOLD_EPS
            {
                if !frontier.all_exhausted() {
                    metrics.lemma1_stops += 1;
                }
                break;
            }
            if losing(pops, verified.len()) {
                frontier.account_skips(metrics);
                pool.trace_end(drain);
                return self.top_k_scan(pool, query, floor, metrics);
            }
            let Some((j, tid, _c)) = frontier.best(pool, metrics)? else {
                break;
            };
            if verified.insert(tid) {
                // One at a time: the stop test above reads the heap's
                // threshold, which this very score may raise.
                metrics.candidates_generated += 1;
                metrics.candidates_verified += 1;
                self.for_each_tuple(pool, [tid], |tid, t| {
                    let pr = eq_prob_entries(query.q.entries(), t);
                    if pr > 0.0 {
                        heap.offer(tid, pr);
                    }
                })?;
            }
            frontier.advance(pool, j, metrics)?;
            pops += 1;
        }
        frontier.account_skips(metrics);
        pool.trace_end(drain);
        Ok(heap.into_sorted())
    }
}

/// The k-th largest value of an iterator (0 when fewer than k values).
/// Ordering is total even for NaN inputs (`f64::total_cmp`): a corrupt
/// page that yields a NaN bound must degrade that one query, not panic
/// the process.
fn kth_largest(values: impl Iterator<Item = f64>, k: usize) -> f64 {
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
