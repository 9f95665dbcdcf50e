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
use uncat_core::Uda;
use uncat_storage::{BufferPool, QueryMetrics, Result};

use crate::acc::ScoreAcc;
use crate::index::InvertedIndex;

use super::accumulate;

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
    let scores = exact_scores(idx, pool, &query.q, metrics)?;
    Ok(scores
        .iter()
        .filter(|&(_, pr)| meets_threshold(pr, query.tau))
        .map(|(tid, pr)| Match::new(tid, pr))
        .collect())
}

/// `Pr(q = t)` for every tuple sharing a category with `q`, from the
/// lists alone. The terms of one tuple are added in list order —
/// ascending category, the order `eq_prob_entries` adds them in.
pub(crate) fn exact_scores(
    idx: &InvertedIndex,
    pool: &mut BufferPool,
    q: &Uda,
    metrics: &mut QueryMetrics,
) -> Result<ScoreAcc> {
    let scores = accumulate(idx, pool, q, metrics, |qp, p| qp * p)?;
    let tuples = scores.len() as u64;
    metrics.candidates_generated += tuples;
    metrics.candidates_settled += tuples;
    Ok(scores)
}
