//! Probabilistic join operators (paper §2, Definition 6 and variants).
//!
//! Given relations `R`, `S` with UDAs, `R ⋈_{a=b,τ} S` pairs every
//! `(r, s)` with `Pr(r.a = s.b) ≥ τ` (PETJ). PEJ-top-k returns the `k`
//! most probable pairs; DSTJ pairs tuples within a divergence radius.
//!
//! Three physical plans are provided: *block nested loop* (scan the inner
//! relation once, comparing every outer tuple — the no-index baseline),
//! *index nested loop* (probe an [`UncertainIndex`] on `S` once per outer
//! tuple), and the *parallel* plan ([`parallel::parallel_join`]), which
//! partitions the outer relation across a worker pool and — for
//! PEJ-top-k — shares a rising score floor between workers that seeds
//! every probe's dynamic threshold, so warm probes stop as early as
//! Lemma 1 allows at θ = floor. As the paper notes, joining introduces correlations between
//! result tuples; only threshold-based selection is modeled — lineage
//! tracking is out of scope.

mod nested_loop;
pub mod parallel;

pub use nested_loop::{
    block_dstj, block_nested_loop_petj, block_top_k_pej, index_nested_loop_petj,
};
pub use parallel::{parallel_join, parallel_join_with_floor, JoinOutcome, SharedFloor};

use uncat_core::query::{DstQuery, Match, TopKQuery};
use uncat_core::topk::TopKHeap;
use uncat_core::{Divergence, Uda};
use uncat_storage::{BufferPool, Phase, Result};

use crate::index_trait::UncertainIndex;
use crate::scan::ScanBaseline;

/// One joined pair: outer tuple id, inner tuple id, and the score
/// (equality probability or divergence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinPair {
    /// Outer (R) tuple id.
    pub left: u64,
    /// Inner (S) tuple id.
    pub right: u64,
    /// `Pr(r = s)` for equality joins, `F(r, s)` for similarity joins.
    pub score: f64,
}

/// Which join to run — the paper's three forms, with their parameters.
///
/// One spec drives every physical plan (block, index, parallel), so the
/// differential tests and the CLI can swap plans without re-stating the
/// predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JoinSpec {
    /// PETJ (Definition 6): all pairs with `Pr(r = s) ≥ τ`.
    Petj {
        /// Probability threshold.
        tau: f64,
    },
    /// PEJ-top-k: the `k` globally most probable pairs.
    PejTopK {
        /// Number of pairs to return.
        k: usize,
    },
    /// DSTJ: all pairs within divergence `τ_d`.
    Dstj {
        /// Divergence radius.
        tau_d: f64,
        /// Divergence measure.
        divergence: Divergence,
    },
}

impl JoinSpec {
    /// Short name for reports and explain output.
    pub fn name(&self) -> &'static str {
        match self {
            JoinSpec::Petj { .. } => "petj",
            JoinSpec::PejTopK { .. } => "pej-topk",
            JoinSpec::Dstj { .. } => "dstj",
        }
    }
}

/// Canonical equality-join pair ordering: score descending, then
/// `(left, right)` ascending. Total even for NaN scores (`f64::total_cmp`
/// — a corrupt page must degrade one join, never panic the process); a
/// positive NaN sorts before every finite score.
pub fn sort_pairs_desc(pairs: &mut [JoinPair]) {
    pairs.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.left.cmp(&b.left))
            .then_with(|| a.right.cmp(&b.right))
    });
}

/// Canonical similarity-join pair ordering: score (divergence) ascending,
/// then `(left, right)` ascending — the one definition every DSTJ plan
/// sorts by. NaN-total like [`sort_pairs_desc`]; a positive NaN sorts
/// after every finite divergence.
pub fn sort_pairs_asc(pairs: &mut [JoinPair]) {
    pairs.sort_by(|a, b| {
        a.score
            .total_cmp(&b.score)
            .then_with(|| a.left.cmp(&b.left))
            .then_with(|| a.right.cmp(&b.right))
    });
}

/// PEJ-top-k: the `k` most probable pairs, by probing the inner index
/// once per outer tuple under a rising score floor. Every probe's
/// counters land in `pool`'s ledger, as for every join here.
///
/// The floor is the current k-th best pair score. It is maintained from
/// the moment `k` pairs exist (not only once k is exceeded) and is
/// propagated into the probes themselves as the starting value of the
/// probe's dynamic threshold ([`UncertainIndex::top_k_floored`]):
/// a warm probe terminates (Lemma 1 / best-first stop at θ = floor) as
/// soon as no inner tuple can still displace a held pair — never later
/// than a cold top-k probe would. Pairs below the floor can never enter
/// the result (the floor only rises), so pruning them is exact.
pub fn index_top_k_pej(
    outer: &[(u64, Uda)],
    inner: &impl UncertainIndex,
    pool: &mut BufferPool,
    k: usize,
) -> Result<Vec<JoinPair>> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let mut best: Vec<JoinPair> = Vec::new();
    let mut floor = 0.0f64;
    for (ltid, luda) in outer {
        let probe = pool.trace_begin(Phase::JoinProbe);
        let probes = inner.top_k_floored(pool, &TopKQuery::new(luda.clone(), k), floor)?;
        pool.trace_end(probe);
        for m in probes {
            // The floored probe never returns sub-floor scores, but keep
            // the guard: it documents the invariant and protects against
            // a backend with laxer floor semantics.
            if best.len() >= k && m.score < floor {
                continue;
            }
            best.push(JoinPair {
                left: *ltid,
                right: m.tid,
                score: m.score,
            });
        }
        if best.len() >= k {
            sort_pairs_desc(&mut best);
            best.truncate(k);
            floor = best.last().map_or(0.0, |p| p.score);
        }
    }
    sort_pairs_desc(&mut best);
    best.truncate(k);
    Ok(best)
}

/// DSTJ: all pairs within divergence `τ_d`, via index probes.
pub fn index_dstj(
    outer: &[(u64, Uda)],
    inner: &impl UncertainIndex,
    pool: &mut BufferPool,
    tau_d: f64,
    divergence: uncat_core::Divergence,
) -> Result<Vec<JoinPair>> {
    let mut out = Vec::new();
    for (ltid, luda) in outer {
        let probe = pool.trace_begin(Phase::JoinProbe);
        let matches = inner.dstq(pool, &DstQuery::new(luda.clone(), tau_d, divergence))?;
        pool.trace_end(probe);
        for m in matches {
            out.push(JoinPair {
                left: *ltid,
                right: m.tid,
                score: m.score,
            });
        }
    }
    sort_pairs_asc(&mut out);
    Ok(out)
}

/// Run `join` on `pool` and package its pairs with the counters it added
/// to the pool's ledger — an interval measurement, so a warm reused pool
/// is fine.
fn outcome_of(
    pool: &mut BufferPool,
    join: impl FnOnce(&mut BufferPool) -> Result<Vec<JoinPair>>,
) -> Result<JoinOutcome> {
    let before = pool.metrics();
    let pairs = join(pool)?;
    Ok(JoinOutcome {
        pairs,
        metrics: pool.metrics().since(&before),
    })
}

/// Run `spec` as an index nested loop (one probe per outer tuple). The
/// outcome's metrics are the sum of the probes' counters and the pool
/// I/O this join caused.
pub fn index_join(
    outer: &[(u64, Uda)],
    inner: &impl UncertainIndex,
    pool: &mut BufferPool,
    spec: JoinSpec,
) -> Result<JoinOutcome> {
    outcome_of(pool, |pool| match spec {
        JoinSpec::Petj { tau } => index_nested_loop_petj(outer, inner, pool, tau),
        JoinSpec::PejTopK { k } => index_top_k_pej(outer, inner, pool, k),
        JoinSpec::Dstj { tau_d, divergence } => index_dstj(outer, inner, pool, tau_d, divergence),
    })
}

/// Run `spec` as a block nested loop (one scan of the inner relation);
/// see [`index_join`] for the outcome's metrics.
pub fn block_join(
    outer: &[(u64, Uda)],
    inner: &ScanBaseline,
    pool: &mut BufferPool,
    spec: JoinSpec,
) -> Result<JoinOutcome> {
    outcome_of(pool, |pool| match spec {
        JoinSpec::Petj { tau } => block_nested_loop_petj(outer, inner, pool, tau),
        JoinSpec::PejTopK { k } => block_top_k_pej(outer, inner, pool, k),
        JoinSpec::Dstj { tau_d, divergence } => block_dstj(outer, inner, pool, tau_d, divergence),
    })
}

/// Per-outer-tuple top-k (the "k best partners for each r" variant, handy
/// for entity-matching examples).
pub fn index_top_k_per_outer(
    outer: &[(u64, Uda)],
    inner: &impl UncertainIndex,
    pool: &mut BufferPool,
    k: usize,
) -> Result<Vec<(u64, Vec<Match>)>> {
    let mut out = Vec::with_capacity(outer.len());
    for (ltid, luda) in outer {
        let mut h = TopKHeap::new(k, 0.0);
        let probe = pool.trace_begin(Phase::JoinProbe);
        let matches = inner.top_k(pool, &TopKQuery::new(luda.clone(), k))?;
        pool.trace_end(probe);
        for m in matches {
            h.offer(m.tid, m.score);
        }
        out.push((*ltid, h.into_sorted()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(left: u64, right: u64, score: f64) -> JoinPair {
        JoinPair { left, right, score }
    }

    #[test]
    fn sort_desc_is_total_with_nan_scores() {
        // A corrupt page can surface as a NaN score; ordering must stay
        // total (no panic) and deterministic.
        let mut pairs = vec![
            pair(1, 1, 0.4),
            pair(2, 2, f64::NAN),
            pair(3, 3, 0.9),
            pair(4, 4, 0.4),
        ];
        sort_pairs_desc(&mut pairs);
        // Positive NaN is totally-ordered above +inf, so it sorts first;
        // the finite scores follow in descending order with (left, right)
        // tie-breaks.
        assert!(pairs[0].score.is_nan());
        assert_eq!(
            pairs[1..].iter().map(|p| p.left).collect::<Vec<_>>(),
            vec![3, 1, 4]
        );
    }

    #[test]
    fn sort_asc_is_total_with_nan_scores() {
        let mut pairs = vec![pair(1, 1, f64::NAN), pair(2, 2, 0.1), pair(3, 3, 0.7)];
        sort_pairs_asc(&mut pairs);
        assert_eq!(pairs[0].left, 2);
        assert_eq!(pairs[1].left, 3);
        assert!(pairs[2].score.is_nan());
    }

    #[test]
    fn sort_orders_ties_by_tids() {
        let mut pairs = vec![pair(2, 9, 0.5), pair(1, 7, 0.5), pair(1, 3, 0.5)];
        sort_pairs_desc(&mut pairs);
        assert_eq!(
            pairs.iter().map(|p| (p.left, p.right)).collect::<Vec<_>>(),
            vec![(1, 3), (1, 7), (2, 9)]
        );
    }
}
