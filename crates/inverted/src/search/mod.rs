//! PETQ search strategies over the inverted index.
//!
//! The paper's four strategies and NRA (§3.1), kept for its figures and
//! for `uncat explain`, run on three executors: the full scan
//! ([`exact_scores`]), the pruned scan of row and column pruning
//! ([`pruned_scan`]), and the frontier drain ([`drain()`]), whose
//! policies are highest-prob-first, NRA and top-k. `Strategy::Auto`
//! runs a fourth for both PETQ and top-k, the block-granular threshold
//! executor ([`threshold_petq`], [`threshold_top_k`]): Lemma 1 over the
//! directory's block maxima, with θ = τ for a PETQ; one top-k run may
//! span several indexes with disjoint ids. The full scan and
//! the threshold executor keep their per-tuple state in one
//! accumulator, [`crate::acc::Slab`], as a metric DSTQ does.

mod drain;
mod threshold;

pub(crate) use drain::{drain, Policy, RA_FALLBACK as NRA_RA_FALLBACK};
pub(crate) use threshold::{threshold_petq, threshold_top_k};

use uncat_core::distance::ExactSum;
use uncat_core::equality::{eq_prob_entries, meets_threshold, THRESHOLD_EPS};
use uncat_core::query::{sort_matches_desc, EqQuery, Match};
use uncat_core::{CatId, Uda};
use uncat_storage::{BufferPool, Phase, QueryMetrics, Result};

use crate::acc::Slab;
use crate::block::BlockList;
use crate::index::InvertedIndex;
use crate::tid::TidSet;

/// Which search algorithm evaluates a PETQ (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// `inv-index-search`: read every query list fully and aggregate.
    Brute,
    /// Advance the most promising list head; stop by Lemma 1.
    HighestProbFirst,
    /// Read (fully) only the lists with `q.p ≥ τ`.
    RowPruning,
    /// Read each query list only down to probability `τ`.
    ColumnPruning,
    /// Rank-join with upper/lower bounds and deferred random access.
    Nra,
    /// What a caller with no figure to draw should run, and the default:
    /// the block-granular threshold executor, for a PETQ and for top-k
    /// ([`InvertedIndex::top_k_planned`]). Blocks are read in
    /// `q_j ·` block-maximum order until Lemma 1 holds over the
    /// directory's block maxima — with θ = τ for a PETQ, θ the k-th best
    /// partial sum for a top-k — and the tuples it cannot prune are
    /// completed from list suffixes, never by random access. Nothing is
    /// priced: no plan that verifies candidates beats it in wall-clock
    /// (EXPERIMENTS.md, "The null planner"). The five fixed strategies
    /// are kept for the paper's figures and for `uncat explain`.
    #[default]
    Auto,
}

impl Strategy {
    /// All *fixed* strategies, for the ablation sweep.
    /// [`Strategy::Auto`] is deliberately excluded: it is the default,
    /// not one of the paper's strategies, and the figures draw the
    /// paper's five.
    pub const ALL: [Strategy; 5] = [
        Strategy::Brute,
        Strategy::HighestProbFirst,
        Strategy::RowPruning,
        Strategy::ColumnPruning,
        Strategy::Nra,
    ];

    /// Short display name used in figure output.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Brute => "inv-index-search",
            Strategy::HighestProbFirst => "highest-prob-first",
            Strategy::RowPruning => "row-pruning",
            Strategy::ColumnPruning => "column-pruning",
            Strategy::Nra => "nra",
            Strategy::Auto => "auto",
        }
    }
}

impl InvertedIndex {
    /// Evaluate a PETQ with the chosen strategy, returning qualifying
    /// tuples with their exact equality probabilities, in canonical
    /// (descending-probability) order.
    ///
    /// Every list, posting, frontier and candidate event is tallied into
    /// the pool's ledger — read `pool.metrics()` afterwards; the counters
    /// are added to, never reset, so one pool can span several calls.
    ///
    /// A page the store cannot produce fails *this query* with
    /// `Err(StorageError)`; the index and pool remain usable, and the
    /// ledger shows what the query ticked before it died.
    pub fn petq(
        &self,
        pool: &mut BufferPool,
        query: &EqQuery,
        strategy: Strategy,
    ) -> Result<Vec<Match>> {
        let (tau, cut) = (query.tau, query.tau - THRESHOLD_EPS);
        pool.tally(|pool, metrics| {
            let mut out = Vec::new();
            let mut keep = |tid, pr| {
                if meets_threshold(pr, tau) {
                    out.push(Match::new(tid, pr));
                }
            };
            let q = &query.q;
            match strategy {
                Strategy::Brute => {
                    for &(tid, pr) in exact_scores(self, pool, q, metrics)?.slots() {
                        keep(tid, pr.value());
                    }
                }
                Strategy::Auto => threshold_petq(self, pool, q, tau, metrics, keep)?,
                Strategy::RowPruning => pruned_scan(self, pool, q, cut, None, metrics, keep)?,
                Strategy::ColumnPruning => {
                    pruned_scan(self, pool, q, 0.0, Some(cut), metrics, keep)?
                }
                Strategy::HighestProbFirst => {
                    drain(
                        self,
                        pool,
                        q,
                        &Policy::HighestProbFirst { tau },
                        metrics,
                        keep,
                    )?;
                }
                Strategy::Nra => {
                    drain(self, pool, q, &Policy::Nra { tau }, metrics, keep)?;
                }
            }
            sort_matches_desc(&mut out);
            Ok(out)
        })
    }

    /// PEQ: every tuple with non-zero equality probability (Definition 3),
    /// in canonical order. Evaluated by full aggregation over the query's
    /// posting lists.
    pub fn peq(&self, pool: &mut BufferPool, q: &Uda) -> Result<Vec<Match>> {
        let scores = pool.tally(|pool, metrics| exact_scores(self, pool, q, metrics))?;
        let mut out: Vec<Match> = scores
            .slots()
            .iter()
            .map(|&(tid, pr)| Match::new(tid, pr.value()))
            .filter(|m| m.score > 0.0)
            .collect();
        sort_matches_desc(&mut out);
        Ok(out)
    }
}

/// Row and column pruning (paper §3.1): collect the tuple ids of a
/// pruned read of the query's lists, then verify every candidate by
/// batched random access, handing each to `offer` with its exact
/// probability.
///
/// Row pruning opens only the lists with `q.p ≥ min_qp` (τ) and reads
/// them fully: `Pr(q = t) ≤ max_{i ∈ supp(q) ∩ supp(t)} q.p_i` because
/// `Σ_i t.p_i ≤ 1`, so a qualifying tuple appears in a retained list.
/// Metrics profile: each list below the cut is a `lists_pruned` (its
/// postings are never read — the strategy's entire saving).
///
/// Column pruning opens every list (`min_qp` 0) but reads only its
/// `prefix` with `p ≥ τ`: `Pr(q = t) ≤ max_{i ∈ supp(q)} t.p_i` because
/// `Σ_i q.p_i ≤ 1`, so a qualifying tuple has an entry in some scanned
/// prefix. Metrics profile: `postings_scanned` ≤ brute force's on the
/// same query; the scan stops at block granularity, and blocks whose
/// quantized-up maximum is below τ are `blocks_skipped` without being
/// decoded, so a list whose very first block maximum misses τ costs zero
/// postings.
fn pruned_scan(
    idx: &InvertedIndex,
    pool: &mut BufferPool,
    q: &Uda,
    min_qp: f64,
    prefix: Option<f64>,
    metrics: &mut QueryMetrics,
    mut offer: impl FnMut(u64, f64),
) -> Result<()> {
    let mut candidates = TidSet::default();
    let span = pool.trace_begin(Phase::PostingScan);
    for (_cat, qp, list) in query_lists(idx, q) {
        if qp < min_qp {
            metrics.lists_pruned += 1;
            continue;
        }
        metrics.lists_opened += 1;
        let collect = |tid, _p| {
            candidates.insert(tid);
        };
        match prefix {
            None => list.scan_all(idx.block_heap(), pool, metrics, collect)?,
            Some(cut) => list.scan_prefix(idx.block_heap(), pool, cut, metrics, collect)?,
        }
    }
    pool.trace_end(span);
    metrics.candidates_generated += candidates.len() as u64;
    idx.verify_each(pool, candidates, metrics, |tid, t| {
        offer(tid, eq_prob_entries(q.entries(), t));
    })
}

/// The query's support restricted to lists that exist in the index:
/// `(cat, q_prob, list)` triples.
pub(crate) fn query_lists<'a>(idx: &'a InvertedIndex, q: &Uda) -> Vec<(CatId, f64, &'a BlockList)> {
    q.iter()
        .filter_map(|(cat, p)| idx.posting_list(cat).map(|l| (cat, p as f64, l)))
        .collect()
}

/// `Pr(q = t)` for every tuple sharing a category with `q`, from the
/// lists alone: `inv-index-search`, the brute-force strategy, and PEQ.
/// Every non-zero term of `Pr(q = t) = Σ_j q.p_j · t.p_j` lives in some
/// query list, so the aggregate *is* the exact probability and no random
/// access is needed; the cost is reading entire lists regardless of τ,
/// which is why the paper calls it out as only competitive "when these
/// lists are not too big and the query involves fewer d_ij". Each record
/// is `(tid, Σ q_j · t_j)` as the [`ExactSum`] `eq_prob_entries` takes.
///
/// Metrics profile: every query list is opened and scanned to the end
/// (`postings_scanned` is the total posting count of the query lists — the
/// ceiling the pruning strategies are measured against — and every block
/// is decoded). Each aggregated
/// tuple is decided exactly from its accumulated contributions, so all
/// candidates are `candidates_settled`; no random access ever happens.
pub(crate) fn exact_scores(
    idx: &InvertedIndex,
    pool: &mut BufferPool,
    q: &Uda,
    metrics: &mut QueryMetrics,
) -> Result<Slab<(u64, ExactSum)>> {
    let lists = query_lists(idx, q);
    let mut scores = Slab::for_index(idx);
    let span = pool.trace_begin(Phase::PostingScan);
    for (_cat, qp, list) in lists {
        metrics.lists_opened += 1;
        list.scan_all(idx.block_heap(), pool, metrics, |tid, p| {
            let at = scores.slot(tid, || (tid, ExactSum::default()));
            scores.slots_mut()[at].1.add(qp * p as f64);
        })?;
    }
    pool.trace_end(span);
    let tuples = scores.slots().len() as u64;
    metrics.candidates_generated += tuples;
    metrics.candidates_settled += tuples;
    Ok(scores)
}
