//! `inv-index-search`: the brute-force strategy.
//!
//! Read the complete posting list of every category in the query and
//! aggregate contributions per tuple. Because every non-zero term of
//! `Pr(q = t) = Σ_j q.p_j · t.p_j` lives in some query list, the aggregate
//! *is* the exact probability — no random access is needed. The cost is
//! reading entire lists regardless of τ, which is why the paper calls it
//! out as only competitive "when these lists are not too big and the query
//! involves fewer d_ij".

use uncat_core::equality::meets_threshold;
use uncat_core::query::{EqQuery, Match};
use uncat_storage::{BufferPool, Phase, QueryMetrics, Result};

use crate::index::InvertedIndex;
use crate::tid::TidMap;

use super::query_lists;

/// Metrics profile: every query list is opened and scanned to the end
/// (`postings_scanned` is the total posting count of the query lists — the
/// ceiling the pruning strategies are measured against; block lists decode
/// every block, so both formats scan the same entries). Each aggregated
/// tuple is decided exactly from its accumulated contributions, so all
/// candidates are `candidates_settled`; no random access ever happens.
pub(super) fn search(
    idx: &InvertedIndex,
    pool: &mut BufferPool,
    query: &EqQuery,
    metrics: &mut QueryMetrics,
) -> Result<Vec<Match>> {
    let mut acc: TidMap<f64> = TidMap::default();
    let span = pool.trace_begin(Phase::PostingScan);
    for (_cat, qp, list) in query_lists(idx, &query.q) {
        metrics.lists_opened += 1;
        list.scan_all(idx.block_heap(), pool, metrics, |tid, p| {
            *acc.entry(tid).or_insert(0.0) += qp * p as f64;
        })?;
    }
    pool.trace_end(span);
    metrics.candidates_generated += acc.len() as u64;
    metrics.candidates_settled += acc.len() as u64;
    Ok(acc
        .into_iter()
        .filter(|&(_, pr)| meets_threshold(pr, query.tau))
        .map(|(tid, pr)| Match::new(tid, pr))
        .collect())
}
