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
//! In those cases the query lists are scanned for candidates, which are
//! verified by random access. Otherwise (wide radius, or the non-metric
//! KL divergence) the evaluation falls back to a full tuple-store scan —
//! pruning with KL would be unsound, which is exactly why the paper uses
//! KL only for clustering.

use uncat_core::query::{sort_matches_asc, DsTopKQuery, DstQuery, Match};
use uncat_core::topk::BottomKHeap;
use uncat_core::Divergence;
use uncat_storage::{BufferPool, Phase, QueryMetrics, Result};

use crate::index::InvertedIndex;
use crate::search::query_lists;
use crate::tid::TidSet;

impl InvertedIndex {
    /// Evaluate a DSTQ: all tuples with `F(q, t) ≤ τ_d`, in ascending
    /// divergence order.
    pub fn dstq(&self, pool: &mut BufferPool, query: &DstQuery) -> Result<Vec<Match>> {
        self.dstq_metered(pool, query, &mut QueryMetrics::new())
    }

    /// [`InvertedIndex::dstq`] with execution counters. The candidate path
    /// tallies list scans and random-access verifications; the scan
    /// fallback tallies `heap_tuples_scanned` — so the counters show
    /// *which* of the two plans answered the query.
    pub fn dstq_metered(
        &self,
        pool: &mut BufferPool,
        query: &DstQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        let overlap_bound = match query.divergence {
            Divergence::L1 => query.q.mass(),
            Divergence::L2 => query
                .q
                .iter()
                .map(|(_, p)| (p as f64) * (p as f64))
                .sum::<f64>()
                .sqrt(),
            Divergence::Kl => 0.0, // never candidate-prunable
        };
        if query.divergence.is_metric() && query.tau_d < overlap_bound {
            self.dstq_candidates(pool, query, metrics)
        } else {
            self.dstq_scan(pool, query, metrics)
        }
    }

    /// Every tuple id in the query's posting lists: the tuples sharing a
    /// category with the query.
    fn overlap_candidates(
        &self,
        pool: &mut BufferPool,
        q: &uncat_core::Uda,
        metrics: &mut QueryMetrics,
    ) -> Result<TidSet> {
        let mut candidates = TidSet::default();
        let scan = pool.trace_begin(Phase::PostingScan);
        for (_cat, _qp, list) in query_lists(self, q) {
            metrics.lists_opened += 1;
            list.scan_all(self.block_heap(), pool, metrics, |tid, _p| {
                candidates.insert(tid);
            })?;
        }
        pool.trace_end(scan);
        metrics.candidates_generated += candidates.len() as u64;
        Ok(candidates)
    }

    /// Candidate generation from the query's posting lists + verification.
    fn dstq_candidates(
        &self,
        pool: &mut BufferPool,
        query: &DstQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        let candidates = self.overlap_candidates(pool, &query.q, metrics)?;
        let mut out = Vec::new();
        self.verify_each(pool, candidates, metrics, |tid, t| {
            let d = query.divergence.eval(query.q.entries(), t);
            if d <= query.tau_d {
                out.push(Match::new(tid, d));
            }
        })?;
        sort_matches_asc(&mut out);
        Ok(out)
    }

    /// DSQ-top-k: the `k` distributionally closest tuples, ascending by
    /// divergence.
    ///
    /// First tries the query's posting lists: if the k-th best candidate
    /// distance is already below the divergence any *non-overlapping*
    /// tuple could reach (`mass(q)` for L1, `‖q‖₂` for L2), the candidate
    /// answer is complete. Otherwise — wide radius or KL — a full
    /// tuple-store scan resolves the query exactly.
    pub fn ds_top_k(&self, pool: &mut BufferPool, query: &DsTopKQuery) -> Result<Vec<Match>> {
        self.ds_top_k_metered(pool, query, &mut QueryMetrics::new())
    }

    /// [`InvertedIndex::ds_top_k`] with execution counters (same
    /// conventions as [`InvertedIndex::dstq_metered`]; when the candidate
    /// answer is incomplete, both the candidate counters *and* the
    /// fallback's `heap_tuples_scanned` are populated — the query really
    /// did both).
    pub fn ds_top_k_metered(
        &self,
        pool: &mut BufferPool,
        query: &DsTopKQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        if query.k == 0 {
            return Ok(Vec::new());
        }
        let disjoint_floor = match query.divergence {
            Divergence::L1 => query.q.mass(),
            Divergence::L2 => query
                .q
                .iter()
                .map(|(_, p)| (p as f64) * (p as f64))
                .sum::<f64>()
                .sqrt(),
            Divergence::Kl => f64::NEG_INFINITY, // candidates never suffice
        };
        if query.divergence.is_metric() {
            let candidates = self.overlap_candidates(pool, &query.q, metrics)?;
            let mut heap = BottomKHeap::new(query.k);
            self.verify_each(pool, candidates, metrics, |tid, t| {
                heap.offer(tid, query.divergence.eval(query.q.entries(), t));
            })?;
            if heap.is_full() && heap.bound() < disjoint_floor {
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
