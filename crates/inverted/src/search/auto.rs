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
//! When a drain overruns its budget, the plan is abandoned mid-query and
//! the executor runs the full scan (`inv-index-search`) over the same,
//! already warmed, buffer pool. The scan is exact from the lists alone:
//! it needs nothing the drain found, builds no candidate union and
//! fetches no tuple — so a misprediction costs one sequential pass over
//! the query's lists, not a second scan plus one random access per
//! candidate. One `plan_fallbacks` tick records the misprediction.
//!
//! Work bound (asserted in `tests/planner.rs`): the adaptive run never
//! scans more postings, nor reads more pages, than running the losing
//! strategy to completion plus running brute force cold — the abandoned
//! drain is a prefix of the full drain, the fallback is exactly brute
//! force, and the shared pool only deduplicates reads.

use uncat_core::query::{EqQuery, Match};
use uncat_storage::{BufferPool, QueryMetrics, Result};

use crate::cost::{FALLBACK_BUDGET_FLOOR, OVERRUN_FACTOR};
use crate::index::InvertedIndex;

use super::{brute, col_prune, highest_prob, nra, row_prune, verify_candidates, Strategy};

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
                return fallback(idx, pool, query, metrics);
            }
            metrics.candidates_generated += candidates.len() as u64;
            verify_candidates(idx, pool, query, candidates, metrics)
        }
        Strategy::Nra => {
            let budget = budget_for(pred.postings_scanned);
            match nra::search_budgeted(idx, pool, query, budget, metrics)? {
                Some(out) => Ok(out),
                None => fallback(idx, pool, query, metrics),
            }
        }
        Strategy::Auto => unreachable!("the planner only picks fixed strategies"),
    }
}

/// Abandon the losing plan for the full scan on the same pool.
fn fallback(
    idx: &InvertedIndex,
    pool: &mut BufferPool,
    query: &EqQuery,
    metrics: &mut QueryMetrics,
) -> Result<Vec<Match>> {
    metrics.plan_fallbacks += 1;
    brute::search(idx, pool, query, metrics)
}
