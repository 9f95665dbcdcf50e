//! Probabilistic join operators (paper §2, Definition 6 and variants).
//!
//! Given relations `R`, `S` with UDAs, `R ⋈_{a=b,τ} S` pairs every
//! `(r, s)` with `Pr(r.a = s.b) ≥ τ` (PETJ). PEJ-top-k returns the `k`
//! most probable pairs; DSTJ pairs tuples within a divergence radius.
//!
//! Three physical plans run one [`JoinSpec`]: [`block_join`] (scan the
//! inner relation once, comparing every outer tuple — the no-index
//! reference), [`index_join`] (probe an [`UncertainIndex`] on `S` once
//! per outer tuple, on the caller's pool), and [`parallel_join`], which
//! partitions the outer relation across workers that each own a pool.
//! The inner index may be a [`crate::Shards`]: a sharded relation is
//! probed as one index. Both index plans run the same per-outer probe: a
//! threshold form probes with its own bound, and PEJ-top-k probes under
//! the join's one rising floor — the k-th best pair score proven so far,
//! carried in every probe's [`TopKQuery::floor`] — so warm probes stop
//! as early as Lemma 1 allows at θ = floor. Every plan puts its pairs
//! into the one canonical order ([`JoinSpec::canonicalize`]). As the
//! paper notes, joining introduces correlations between result tuples;
//! only threshold-based selection is modeled — lineage tracking is out
//! of scope.

pub mod parallel;

pub use parallel::{parallel_join, JoinOutcome};

use uncat_core::equality::{eq_prob, meets_threshold};
use uncat_core::query::{DstQuery, EqQuery, TopKQuery};
use uncat_core::{Divergence, Uda};
use uncat_storage::{BufferPool, Phase, Result};

use crate::index_trait::UncertainIndex;
use crate::scan::ScanBaseline;
use parallel::SharedFloor;

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

    /// Put gathered pairs into this form's canonical order — score
    /// descending for the equality forms, divergence ascending for DSTJ,
    /// ties by `(left, right)` — and keep the best `k` for PEJ-top-k. The
    /// one merge every plan (and the sharded service) ends with, so worker
    /// or shard completion order never reaches the output.
    pub fn canonicalize(&self, pairs: &mut Vec<JoinPair>) {
        match *self {
            JoinSpec::Petj { .. } => sort_pairs_desc(pairs),
            JoinSpec::PejTopK { k } => {
                sort_pairs_desc(pairs);
                pairs.truncate(k);
            }
            JoinSpec::Dstj { .. } => sort_pairs_asc(pairs),
        }
    }
}

/// Equality-join pair order: score descending, then `(left, right)`
/// ascending. Total even for NaN scores (`f64::total_cmp` — a corrupt page
/// must degrade one join, never panic the process); a positive NaN sorts
/// before every finite score.
fn sort_pairs_desc(pairs: &mut [JoinPair]) {
    pairs.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.left.cmp(&b.left))
            .then_with(|| a.right.cmp(&b.right))
    });
}

/// Similarity-join pair order: divergence ascending, then `(left, right)`
/// ascending. NaN-total like [`sort_pairs_desc`]; a positive NaN sorts
/// after every finite divergence.
fn sort_pairs_asc(pairs: &mut [JoinPair]) {
    pairs.sort_by(|a, b| {
        a.score
            .total_cmp(&b.score)
            .then_with(|| a.left.cmp(&b.left))
            .then_with(|| a.right.cmp(&b.right))
    });
}

/// Probe the inner index for one outer tuple under a `JoinProbe` span and
/// fold its matches into `local`, the calling plan's (or worker's) partial
/// result. The probe's counters land in `pool`'s ledger.
///
/// For PEJ-top-k the probe's query carries the current `floor`, so a warm
/// probe stops (Lemma 1 / best-first stop at θ = floor) as soon as no
/// inner tuple can still displace a held pair — never later than an
/// unfloored probe. Once `local` holds `k` pairs it is cut to its best `k`
/// and its k-th score is published: `local` is a subset of the join's
/// pairs, so that score lower-bounds the join's k-th best and pruning
/// below it is exact. A `k` of 0 probes nothing.
fn probe_one(
    spec: JoinSpec,
    inner: &impl UncertainIndex,
    pool: &mut BufferPool,
    (ltid, luda): &(u64, Uda),
    floor: &SharedFloor,
    local: &mut Vec<JoinPair>,
) -> Result<()> {
    let span = pool.trace_begin(Phase::JoinProbe);
    let matches = match spec {
        JoinSpec::Petj { tau } => inner.petq(pool, &EqQuery::new(luda.clone(), tau))?,
        JoinSpec::Dstj { tau_d, divergence } => {
            inner.dstq(pool, &DstQuery::new(luda.clone(), tau_d, divergence))?
        }
        JoinSpec::PejTopK { k: 0 } => Vec::new(),
        JoinSpec::PejTopK { k } => inner.top_k(
            pool,
            &TopKQuery {
                floor: floor.get(),
                ..TopKQuery::new(luda.clone(), k)
            },
        )?,
    };
    pool.trace_end(span);
    let k = match spec {
        JoinSpec::PejTopK { k } => k,
        _ => usize::MAX,
    };
    for m in matches {
        // Re-read the floor: another worker may have raised it since the
        // probe started, and a sub-floor pair can never win.
        if local.len() >= k && m.score < floor.get() {
            continue;
        }
        local.push(JoinPair {
            left: *ltid,
            right: m.tid,
            score: m.score,
        });
    }
    if local.len() >= k {
        spec.canonicalize(local);
        if let Some(last) = local.last() {
            floor.raise(last.score);
        }
    }
    Ok(())
}

/// Run `spec` as an index nested loop on the caller's pool: one probe per
/// outer tuple, PEJ-top-k under a join-local floor. The outcome's
/// metrics are the counters and pool I/O the join added to `pool`'s
/// ledger — an interval measurement, so a warm reused pool is fine.
pub fn index_join(
    outer: &[(u64, Uda)],
    inner: &impl UncertainIndex,
    pool: &mut BufferPool,
    spec: JoinSpec,
) -> Result<JoinOutcome> {
    let before = pool.metrics();
    let floor = SharedFloor::new();
    let mut pairs = Vec::new();
    for tuple in outer {
        probe_one(spec, inner, pool, tuple, &floor, &mut pairs)?;
    }
    spec.canonicalize(&mut pairs);
    Ok(JoinOutcome {
        pairs,
        metrics: pool.metrics().since(&before),
    })
}

/// Run `spec` as a block nested loop — no index: the reference every
/// index plan is tested against. The inner relation is scanned once under
/// a `HeapScan` span and every inner tuple is compared against every outer
/// one (the outer side is in memory: the paper joins an uncertain relation
/// against a stored one, so only the inner side is charged I/O); each inner
/// tuple counts one `heap_tuples_scanned`. Zero-probability pairs never
/// qualify for PEJ-top-k, matching the index plans, and its buffer is cut
/// to the best `k` whenever it outgrows a small multiple of `k`, so the
/// scan stays O(k) in memory. See [`index_join`] for the outcome's
/// metrics.
pub fn block_join(
    outer: &[(u64, Uda)],
    inner: &ScanBaseline,
    pool: &mut BufferPool,
    spec: JoinSpec,
) -> Result<JoinOutcome> {
    let compact_at = match spec {
        JoinSpec::PejTopK { k: 0 } => return Ok(JoinOutcome::default()),
        JoinSpec::PejTopK { k } => 4 * k.max(16),
        _ => usize::MAX,
    };
    let before = pool.metrics();
    let mut pairs = Vec::new();
    let scan = pool.trace_begin(Phase::HeapScan);
    pool.tally(|pool, metrics| {
        inner.scan(pool, |rtid, ruda| {
            metrics.heap_tuples_scanned += 1;
            for (ltid, luda) in outer {
                let (score, keep) = match spec {
                    JoinSpec::Petj { tau } => {
                        let pr = eq_prob(luda, ruda);
                        (pr, meets_threshold(pr, tau))
                    }
                    JoinSpec::PejTopK { .. } => {
                        let pr = eq_prob(luda, ruda);
                        (pr, pr > 0.0)
                    }
                    JoinSpec::Dstj { tau_d, divergence } => {
                        let d = divergence.eval(luda.entries(), ruda.entries());
                        (d, d <= tau_d)
                    }
                };
                if keep {
                    pairs.push(JoinPair {
                        left: *ltid,
                        right: rtid,
                        score,
                    });
                }
            }
            if pairs.len() > compact_at {
                spec.canonicalize(&mut pairs);
            }
        })
    })?;
    pool.trace_end(scan);
    spec.canonicalize(&mut pairs);
    Ok(JoinOutcome {
        pairs,
        metrics: pool.metrics().since(&before),
    })
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
