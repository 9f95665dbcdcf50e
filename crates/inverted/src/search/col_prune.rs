//! Column pruning (paper §3.1).
//!
//! Every query list is read, but only its *prefix* with probability ≥ τ
//! (lists are sorted by descending probability, so the scan stops at the
//! first entry below τ). Correctness: `Pr(q = t) ≤ max_{i ∈ supp(q)} t.p_i`
//! because `Σ_i q.p_i ≤ 1`; a qualifying tuple therefore has an entry with
//! `t.p ≥ τ` in some query list, inside the scanned prefix. Candidates are
//! verified by random access.

use uncat_core::equality::THRESHOLD_EPS;
use uncat_core::query::{EqQuery, Match};
use uncat_storage::{BufferPool, Phase, QueryMetrics, Result};

use crate::index::InvertedIndex;
use crate::tid::TidSet;

use super::{query_lists, verify_candidates};

/// Metrics profile: every query list is opened but scanned only to its
/// τ-prefix, so `postings_scanned` ≤ brute force's on the same query (the
/// first below-τ entry that terminates each scan is counted — it was
/// read). Block lists stop at block granularity on top: blocks whose
/// quantized-up maximum is below τ are `blocks_skipped` without being
/// decoded, so a list whose very first block maximum misses τ costs zero
/// postings. Every candidate is verified by random access.
pub(super) fn search(
    idx: &InvertedIndex,
    pool: &mut BufferPool,
    query: &EqQuery,
    metrics: &mut QueryMetrics,
) -> Result<Vec<Match>> {
    let mut candidates = TidSet::default();
    let span = pool.trace_begin(Phase::PostingScan);
    for (_cat, _qp, list) in query_lists(idx, &query.q) {
        metrics.lists_opened += 1;
        list.scan_prefix(
            idx.block_heap(),
            pool,
            query.tau - THRESHOLD_EPS,
            metrics,
            |tid, _p| {
                candidates.insert(tid);
            },
        )?;
    }
    pool.trace_end(span);
    metrics.candidates_generated += candidates.len() as u64;
    verify_candidates(idx, pool, query, candidates, metrics)
}
