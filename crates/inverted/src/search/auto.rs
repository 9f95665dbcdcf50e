//! The adaptive executor behind [`Strategy::Auto`](super::Strategy).
//!
//! Planning: predict every fixed strategy's counters from the cached
//! [`crate::CostStats`] and execute the cheapest by scalar cost. The
//! deterministic strategies (brute, row pruning, column pruning) cannot
//! overrun a conservative prediction, so they run unmodified. The
//! frontier strategies (highest-prob-first, NRA) *can* — their drain
//! depth depends on the live Lemma 1 sum, and statistics go stale
//! between checkpoints — so they run under a postings budget of
//! `OVERRUN_FACTOR × predicted + FALLBACK_BUDGET_FLOOR`.
//!
//! When a drain overruns its budget, the plan is abandoned mid-query:
//! the executor falls back to a column-pruning scan over the same
//! (already warmed) buffer pool, *reusing the partial frontier state* —
//! every tuple id the drain encountered joins the fallback's candidate
//! set, so the drained work is not thrown away. Verification computes
//! exact scores and filters by τ, and the fallback candidate set is a
//! superset of column pruning's, so the fallback is exact. One
//! `plan_fallbacks` tick records the misprediction.
//!
//! Work bound (asserted in `tests/planner.rs`): the adaptive run never
//! scans more postings, nor reads more pages, than running the losing
//! strategy to completion plus running the fallback strategy cold — the
//! abandoned drain is a prefix of the full drain, the fallback scan is
//! exactly column pruning's, and the shared pool only deduplicates
//! reads.

use uncat_core::equality::THRESHOLD_EPS;
use uncat_core::query::{EqQuery, Match};
use uncat_storage::{BufferPool, Phase, QueryMetrics, Result};

use crate::cost::{FALLBACK_BUDGET_FLOOR, OVERRUN_FACTOR};
use crate::index::InvertedIndex;
use crate::tid::TidSet;

use super::{
    brute, col_prune, highest_prob, nra, query_lists, row_prune, verify_candidates, Strategy,
};

/// Postings the adaptive executor lets a frontier drain scan before
/// declaring the plan lost.
fn budget_for(predicted_postings: u64) -> u64 {
    OVERRUN_FACTOR
        .saturating_mul(predicted_postings)
        .saturating_add(FALLBACK_BUDGET_FLOOR)
}

pub(super) fn search(
    idx: &InvertedIndex,
    pool: &mut BufferPool,
    query: &EqQuery,
    metrics: &mut QueryMetrics,
) -> Result<Vec<Match>> {
    let (pick, pred) = idx.plan_petq(query);
    match pick {
        Strategy::Brute => brute::search(idx, pool, query, metrics),
        Strategy::RowPruning => row_prune::search(idx, pool, query, metrics),
        Strategy::ColumnPruning => col_prune::search(idx, pool, query, metrics),
        Strategy::HighestProbFirst => {
            let budget = budget_for(pred.postings_scanned);
            let (candidates, over) =
                highest_prob::collect_candidates(idx, pool, query, Some(budget), metrics)?;
            if over {
                return fallback(idx, pool, query, candidates, metrics);
            }
            metrics.candidates_generated += candidates.len() as u64;
            verify_candidates(idx, pool, query, candidates, metrics)
        }
        Strategy::Nra => {
            let budget = budget_for(pred.postings_scanned);
            match nra::search_budgeted(idx, pool, query, budget, metrics)? {
                nra::NraOutcome::Done(out) => Ok(out),
                nra::NraOutcome::OverBudget(partial) => {
                    fallback(idx, pool, query, partial, metrics)
                }
            }
        }
        Strategy::Auto => unreachable!("the planner only picks fixed strategies"),
    }
}

/// Abandon the losing plan: column-pruning scan on the same pool, with
/// the drain's partial candidates folded in, then one exact batched
/// verification over the union.
fn fallback(
    idx: &InvertedIndex,
    pool: &mut BufferPool,
    query: &EqQuery,
    mut candidates: TidSet,
    metrics: &mut QueryMetrics,
) -> Result<Vec<Match>> {
    metrics.plan_fallbacks += 1;
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
