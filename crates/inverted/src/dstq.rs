//! Distributional similarity queries (DSTQ) over the inverted index.
//!
//! The paper notes that "it is straightforward to adapt our framework of
//! indexing to distributional similarity queries"; this module is that
//! adaptation. For metric divergences (L1/L2) with a tight-enough radius,
//! candidate tuples must overlap the query's support:
//!
//! * **L1**: disjoint supports give `L1(q,t) = mass(q) + mass(t) ≥ mass(q)`,
//!   so if `τ_d < mass(q)` every qualifying tuple shares a category.
//! * **L2**: disjoint supports give `L2(q,t) ≥ ‖q‖₂`, so if `τ_d < ‖q‖₂`
//!   every qualifying tuple shares a category.
//!
//! In those cases the query lists are scanned, and the scan is the
//! filter step too: the lists hold `t_i` for every `i ∈ supp(q)`, so the
//! part of the distance that lies on the query's support —
//! `Σ_{i∈supp q} |q_i − t_i|` for L1, `Σ_{i∈supp q} (q_i − t_i)²` under
//! the root for L2 — is known exactly per tuple when the scan ends. What
//! it leaves out (`t`'s mass off the support) only adds, so it is a lower
//! bound whatever the tuple's mass, and only tuples whose bound is within
//! the radius are fetched for the exact distance; the rest are
//! `candidates_pruned`. Otherwise (wide radius, or the non-metric KL
//! divergence) the evaluation falls back to a full tuple-store scan —
//! pruning with KL would be unsound, which is exactly why the paper uses
//! KL only for clustering.

use uncat_core::equality::THRESHOLD_EPS;
use uncat_core::query::{sort_matches_asc, DsTopKQuery, DstQuery, Match};
use uncat_core::topk::BottomKHeap;
use uncat_core::{Divergence, Uda};
use uncat_storage::{BufferPool, Phase, QueryMetrics, Result};

use crate::acc::ScoreAcc;
use crate::index::InvertedIndex;
use crate::search::accumulate;

/// The support-exact partial distance of one metric query, as a sum the
/// accumulator can hold. A tuple with no posting in list `i` has
/// `t_i = 0` and owes the term `q_i` (L1) or `q_i²` (L2): every tuple
/// starts from `base`, the sum of those, and each posting swaps its
/// list's term for the real one. The L2 sum stays squared; only
/// comparisons need the root, and they square the radius instead.
struct SupportBound {
    /// L2 (sums of squares) rather than L1 (sums of magnitudes).
    squared: bool,
    /// `mass(q)` for L1, `‖q‖₂²` for L2.
    base: f64,
}

impl SupportBound {
    /// `None` for KL: not a metric, no sound bound, the query scans.
    fn new(q: &Uda, divergence: Divergence) -> Option<SupportBound> {
        let (squared, base) = match divergence {
            Divergence::L1 => (false, q.mass()),
            Divergence::L2 => (true, q.iter().map(|(_, p)| (p as f64) * (p as f64)).sum()),
            Divergence::Kl => return None,
        };
        Some(SupportBound { squared, base })
    }

    /// The distance between the query and a tuple disjoint from it, at
    /// least: no tuple outside the query's lists is closer.
    fn disjoint_floor(&self) -> f64 {
        if self.squared {
            self.base.sqrt()
        } else {
            self.base
        }
    }

    /// What a posting `p` in the list of a category with query
    /// probability `qp` adds to its tuple's sum.
    fn term(&self, qp: f64, p: f64) -> f64 {
        if self.squared {
            (qp - p) * (qp - p) - qp * qp
        } else {
            (qp - p).abs() - qp
        }
    }

    /// Scan the query's lists: per overlapping tuple, the sum of its
    /// [`SupportBound::term`]s. Each is one `candidates_generated`.
    fn scan(
        &self,
        idx: &InvertedIndex,
        pool: &mut BufferPool,
        q: &Uda,
        metrics: &mut QueryMetrics,
    ) -> Result<ScoreAcc> {
        let sums = accumulate(idx, pool, q, metrics, |qp, p| self.term(qp, p))?;
        metrics.candidates_generated += sums.len() as u64;
        Ok(sums)
    }

    /// Whether a tuple with accumulated `sum` can be within `radius` of
    /// the query. The sum is the exact one reassociated, so it may sit a
    /// few ulps above the distance `Divergence::eval` computes; the slack
    /// keeps such a tuple in (verification decides it exactly).
    fn within(&self, sum: f64, radius: f64) -> bool {
        let reach = if self.squared {
            radius * radius
        } else {
            radius
        };
        self.base + sum <= reach + THRESHOLD_EPS
    }

    /// The lower bound itself, in the divergence's own unit.
    #[cfg(test)]
    fn value(&self, sum: f64) -> f64 {
        let partial = (self.base + sum).max(0.0);
        if self.squared {
            partial.sqrt()
        } else {
            partial
        }
    }
}

impl InvertedIndex {
    /// Evaluate a DSTQ: all tuples with `F(q, t) ≤ τ_d`, in ascending
    /// divergence order.
    ///
    /// The candidate path tallies list scans, `candidates_pruned` for the
    /// overlapping tuples its lower bound rules out and
    /// `candidates_verified` for the random accesses it pays for the
    /// rest; the scan fallback tallies `heap_tuples_scanned` — so the
    /// pool's ledger shows *which* of the two plans answered the query.
    pub fn dstq(&self, pool: &mut BufferPool, query: &DstQuery) -> Result<Vec<Match>> {
        pool.tally(|pool, metrics| {
            let Some(bound) = SupportBound::new(&query.q, query.divergence)
                .filter(|bound| query.tau_d < bound.disjoint_floor())
            else {
                return self.dstq_scan(pool, query, metrics);
            };
            let sums = bound.scan(self, pool, &query.q, metrics)?;
            let survivors: Vec<u64> = sums
                .iter()
                .filter(|&(_, sum)| bound.within(sum, query.tau_d))
                .map(|(tid, _)| tid)
                .collect();
            metrics.candidates_pruned += (sums.len() - survivors.len()) as u64;
            let mut out = Vec::new();
            self.verify_each(pool, survivors, metrics, |tid, t| {
                let d = query.divergence.eval(query.q.entries(), t);
                if d <= query.tau_d {
                    out.push(Match::new(tid, d));
                }
            })?;
            sort_matches_asc(&mut out);
            Ok(out)
        })
    }

    /// DSQ-top-k: the `k` distributionally closest tuples, ascending by
    /// divergence.
    ///
    /// First tries the query's posting lists: overlapping tuples are
    /// verified in ascending order of their lower bound, in page-grouped
    /// batches, until the k-th best exact distance is below every bound
    /// left. If that distance is also below what any *non-overlapping*
    /// tuple could reach (`mass(q)` for L1, `‖q‖₂` for L2), the candidate
    /// answer is complete. Otherwise — wide radius or KL — a full
    /// tuple-store scan resolves the query exactly.
    ///
    /// Counters follow [`InvertedIndex::dstq`]; when the candidate answer
    /// is incomplete, both the candidate counters *and* the fallback's
    /// `heap_tuples_scanned` are populated — the query really did both.
    pub fn ds_top_k(&self, pool: &mut BufferPool, query: &DsTopKQuery) -> Result<Vec<Match>> {
        pool.tally(|pool, metrics| self.ds_top_k_search(pool, query, metrics))
    }

    fn ds_top_k_search(
        &self,
        pool: &mut BufferPool,
        query: &DsTopKQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        if query.k == 0 {
            return Ok(Vec::new());
        }
        if let Some(bound) = SupportBound::new(&query.q, query.divergence) {
            let sums = bound.scan(self, pool, &query.q, metrics)?;
            let mut by_bound: Vec<(f64, u64)> = sums.iter().map(|(tid, sum)| (sum, tid)).collect();
            by_bound.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut heap = BottomKHeap::new(query.k);
            let mut rest = by_bound.as_slice();
            // k fetches at least fill the heap; doubling from there keeps
            // the total within twice what the stop point needed.
            let mut batch = query.k;
            while let Some(&(sum, _)) = rest.first() {
                if !bound.within(sum, heap.bound()) {
                    break; // nor can anything after it: bounds ascend
                }
                let (now, later) = rest.split_at(batch.min(rest.len()));
                self.verify_each(pool, now.iter().map(|&(_, tid)| tid), metrics, |tid, t| {
                    heap.offer(tid, query.divergence.eval(query.q.entries(), t));
                })?;
                rest = later;
                batch = batch.saturating_mul(2);
            }
            metrics.candidates_pruned += rest.len() as u64;
            if heap.is_full() && heap.bound() < bound.disjoint_floor() {
                return Ok(heap.into_sorted());
            }
        }
        // Fallback: exact scan.
        let mut heap = BottomKHeap::new(query.k);
        let scan = pool.trace_begin(Phase::HeapScan);
        self.scan_tuples(pool, |tid, t| {
            metrics.heap_tuples_scanned += 1;
            heap.offer(tid, query.divergence.eval(query.q.entries(), t.entries()));
        })?;
        pool.trace_end(scan);
        Ok(heap.into_sorted())
    }

    /// Full tuple-store scan fallback (always sound).
    fn dstq_scan(
        &self,
        pool: &mut BufferPool,
        query: &DstQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        let mut out = Vec::new();
        let scan = pool.trace_begin(Phase::HeapScan);
        self.scan_tuples(pool, |tid, t| {
            metrics.heap_tuples_scanned += 1;
            let d = query.divergence.eval(query.q.entries(), t.entries());
            if d <= query.tau_d {
                out.push(Match::new(tid, d));
            }
        })?;
        pool.trace_end(scan);
        sort_matches_asc(&mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uncat_core::{CatId, Domain};
    use uncat_storage::InMemoryDisk;

    const CATS: u32 = 6;

    /// One to three categories with any mass in (0, 1]: sub-unit-mass
    /// tuples are what an incomplete distribution looks like, and the
    /// bound may not assume the missing mass away.
    fn uda_strategy() -> impl Strategy<Value = Uda> {
        proptest::collection::vec((0..CATS, 1u32..=33), 1..=3).prop_map(|pairs| {
            let mut seen = std::collections::BTreeMap::new();
            for (c, w) in pairs {
                seen.entry(c).or_insert(w as f32 / 100.0);
            }
            Uda::from_pairs(seen.into_iter().map(|(c, p)| (CatId(c), p))).unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The accumulated sum is a lower bound on the exact distance for
        // every tuple in the query's lists, tight when the tuple lives on
        // the query's support, and the pruned answer is the reference's.
        #[test]
        fn support_bound_is_sound_and_dstq_is_exact(
            tuples in proptest::collection::vec(uda_strategy(), 1..60),
            q in uda_strategy(),
            radius in 0.0f64..1.2,
        ) {
            let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
            let data: Vec<(u64, Uda)> = (0u64..).zip(tuples).collect();
            let idx = InvertedIndex::build(
                Domain::anonymous(CATS),
                &mut pool,
                data.iter().map(|(t, u)| (*t, u)),
            )
            .unwrap();
            for dv in [Divergence::L1, Divergence::L2] {
                let bound = SupportBound::new(&q, dv).unwrap();
                let sums = bound.scan(&idx, &mut pool, &q, &mut QueryMetrics::new()).unwrap();
                let overlapping = data
                    .iter()
                    .filter(|(_, t)| t.iter().any(|(c, _)| q.prob_of(c) > 0.0))
                    .count();
                prop_assert_eq!(sums.len(), overlapping);
                for (tid, sum) in sums.iter() {
                    let t = &data[tid as usize].1;
                    let d = dv.eval(q.entries(), t.entries());
                    let lb = bound.value(sum);
                    prop_assert!(lb <= d + 1e-7, "{dv:?}: bound {lb} above distance {d}");
                    prop_assert!(bound.within(sum, d), "{dv:?}: a tuple at its own distance is pruned");
                    if t.iter().all(|(c, _)| q.prob_of(c) > 0.0) {
                        prop_assert!((lb - d).abs() <= 1e-7, "{dv:?}: bound {lb} not tight at {d}");
                    }
                }

                pool.reset_stats();
                let got = idx.dstq(&mut pool, &DstQuery::new(q.clone(), radius, dv)).unwrap();
                let m = pool.metrics();
                let mut want: Vec<Match> = data
                    .iter()
                    .map(|(tid, t)| Match::new(*tid, dv.eval(q.entries(), t.entries())))
                    .filter(|m| m.score <= radius)
                    .collect();
                sort_matches_asc(&mut want);
                prop_assert_eq!(&got, &want);
                prop_assert!(m.candidate_invariant_holds());
                prop_assert!(m.candidates_verified as usize >= got.len() || m.heap_tuples_scanned > 0);
            }
        }
    }

    #[test]
    fn kl_still_scans_the_tuple_store() {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
        let data: Vec<(u64, Uda)> = (0..40u64)
            .map(|i| (i, Uda::certain(CatId((i % CATS as u64) as u32))))
            .collect();
        let idx = InvertedIndex::build(
            Domain::anonymous(CATS),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        let q = Uda::certain(CatId(1));
        pool.reset_stats();
        idx.dstq(&mut pool, &DstQuery::new(q.clone(), 0.1, Divergence::Kl))
            .unwrap();
        let m = pool.metrics();
        assert_eq!((m.heap_tuples_scanned, m.candidates_generated), (40, 0));
        pool.reset_stats();
        idx.ds_top_k(&mut pool, &DsTopKQuery::new(q, 3, Divergence::Kl))
            .unwrap();
        let m = pool.metrics();
        assert_eq!((m.heap_tuples_scanned, m.candidates_generated), (40, 0));
    }

    #[test]
    fn ds_top_k_stops_at_the_kth_best_bound() {
        // 200 tuples sharing category 0 with the query at spread-out
        // probabilities: the three closest are found after a few batches,
        // everything whose bound is already worse stays unfetched.
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
        let data: Vec<(u64, Uda)> = (0..200u64)
            .map(|i| {
                let p = (i + 1) as f32 / 200.0;
                (i, Uda::from_pairs([(CatId(0), p)]).unwrap())
            })
            .collect();
        let idx = InvertedIndex::build(
            Domain::anonymous(CATS),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        let q = Uda::from_pairs([(CatId(0), 0.5), (CatId(1), 0.5)]).unwrap();
        pool.reset_stats();
        let got = idx
            .ds_top_k(&mut pool, &DsTopKQuery::new(q, 3, Divergence::L1))
            .unwrap();
        let m = pool.metrics();
        assert_eq!(
            got.iter().map(|m| m.tid).collect::<Vec<_>>(),
            vec![99, 98, 100]
        );
        assert_eq!(
            m.heap_tuples_scanned, 0,
            "the candidate answer was complete"
        );
        assert_eq!(m.candidates_generated, 200);
        assert!(
            m.candidates_verified < 20,
            "verified {}",
            m.candidates_verified
        );
        assert!(m.candidate_invariant_holds());
    }
}
