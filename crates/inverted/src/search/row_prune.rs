//! Row pruning (paper §3.1).
//!
//! Only posting lists whose *query* probability reaches τ are read (fully).
//! Correctness: `Pr(q = t) ≤ max_{i ∈ supp(q) ∩ supp(t)} q.p_i` because
//! `Σ_i t.p_i ≤ 1`; so a tuple qualifying with `Pr ≥ τ` must share at least
//! one item whose query probability is ≥ τ, and therefore appears in one of
//! the retained lists. Candidates are verified by random access.

use uncat_core::equality::THRESHOLD_EPS;
use uncat_core::query::{EqQuery, Match};
use uncat_storage::{BufferPool, Phase, QueryMetrics, Result};

use crate::index::InvertedIndex;
use crate::tid::TidSet;

use super::{query_lists, verify_candidates};

/// Metrics profile: each list below the query-probability threshold is a
/// `lists_pruned` (its postings are never read — the strategy's entire
/// saving); retained lists are scanned fully. Every candidate is verified
/// by random access.
pub(super) fn search(
    idx: &InvertedIndex,
    pool: &mut BufferPool,
    query: &EqQuery,
    metrics: &mut QueryMetrics,
) -> Result<Vec<Match>> {
    let mut candidates = TidSet::default();
    let span = pool.trace_begin(Phase::PostingScan);
    for (_cat, qp, list) in query_lists(idx, &query.q) {
        if qp < query.tau - THRESHOLD_EPS {
            metrics.lists_pruned += 1;
            continue; // row pruned
        }
        metrics.lists_opened += 1;
        list.scan_all(idx.block_heap(), pool, metrics, |tid, _p| {
            candidates.insert(tid);
        })?;
    }
    pool.trace_end(span);
    metrics.candidates_generated += candidates.len() as u64;
    verify_candidates(idx, pool, query, candidates, metrics)
}
