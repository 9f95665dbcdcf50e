//! Highest-prob-first search (paper §3.1, Figure 2).
//!
//! Keep a cursor in every query list. Repeatedly advance the cursor whose
//! head maximizes `q.p_j · p'_j` (the most promising next tuple). Stop as
//! soon as `Σ_j q.p_j · p'_j < τ`: by Lemma 1 no tuple first encountered
//! later can qualify. Every tuple id encountered before the stop is a
//! candidate and is verified by one random access.

use uncat_core::query::{EqQuery, Match};
use uncat_storage::{BufferPool, Phase, QueryMetrics, Result};

use crate::index::InvertedIndex;
use crate::tid::TidSet;

use super::{verify_candidates, Frontier};

/// Metrics profile: `frontier_pops` is the drain depth (the paper's
/// "posting-list depth reached"); a `lemma1_stops` tick records that the
/// drain ended by Lemma 1 rather than by exhausting the lists. Every
/// encountered tuple is a candidate and every candidate is verified by
/// random access.
pub(super) fn search(
    idx: &InvertedIndex,
    pool: &mut BufferPool,
    query: &EqQuery,
    metrics: &mut QueryMetrics,
) -> Result<Vec<Match>> {
    let plan = pool.trace_begin(Phase::Plan);
    let mut frontier = Frontier::open(idx, pool, &query.q, metrics)?;
    pool.trace_end(plan);
    let drain = pool.trace_begin(Phase::FrontierMaintenance);
    let mut seen = TidSet::default();
    loop {
        // Lemma 1: any tuple not yet seen is bounded by the frontier sum
        // (an over-estimate while bound heads are live, so the stop is
        // conservative). The epsilon keeps pruning consistent with
        // `meets_threshold`.
        if frontier.sum() < query.tau - uncat_core::equality::THRESHOLD_EPS {
            if !frontier.all_exhausted() {
                metrics.lemma1_stops += 1;
            }
            break;
        }
        let Some((j, tid, _c)) = frontier.best(pool, metrics)? else {
            break;
        };
        seen.insert(tid);
        frontier.advance(pool, j, metrics)?;
    }
    frontier.account_skips(metrics);
    pool.trace_end(drain);
    metrics.candidates_generated += seen.len() as u64;
    verify_candidates(idx, pool, query, seen, metrics)
}
