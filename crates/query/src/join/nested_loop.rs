//! PETJ physical plans.

use uncat_core::equality::{eq_prob, meets_threshold};
use uncat_core::query::EqQuery;
use uncat_core::{Divergence, Uda};
use uncat_storage::{BufferPool, Phase, Result};

use crate::index_trait::UncertainIndex;
use crate::scan::ScanBaseline;

use super::{sort_pairs_asc, sort_pairs_desc, JoinPair};

/// Index nested loop PETJ: probe the inner index once per outer tuple.
/// The probes' counters accumulate in `pool`'s ledger, so it reports the
/// whole join's cost (counters are per-join, not per-probe).
pub fn index_nested_loop_petj(
    outer: &[(u64, Uda)],
    inner: &impl UncertainIndex,
    pool: &mut BufferPool,
    tau: f64,
) -> Result<Vec<JoinPair>> {
    let mut out = Vec::new();
    for (ltid, luda) in outer {
        let probe = pool.trace_begin(Phase::JoinProbe);
        let matches = inner.petq(pool, &EqQuery::new(luda.clone(), tau))?;
        pool.trace_end(probe);
        for m in matches {
            out.push(JoinPair {
                left: *ltid,
                right: m.tid,
                score: m.score,
            });
        }
    }
    sort_pairs_desc(&mut out);
    Ok(out)
}

/// One scan of the inner relation under a `HeapScan` span, `visit`ing
/// every inner tuple once and counting it as one `heap_tuples_scanned`
/// in `pool`'s ledger (each is compared against every outer tuple, but
/// read once) — the loop under the three block plans.
fn scan_inner(
    inner: &ScanBaseline,
    pool: &mut BufferPool,
    mut visit: impl FnMut(u64, &Uda),
) -> Result<()> {
    let scan = pool.trace_begin(Phase::HeapScan);
    pool.tally(|pool, metrics| {
        inner.scan(pool, |rtid, ruda| {
            metrics.heap_tuples_scanned += 1;
            visit(rtid, ruda);
        })
    })?;
    pool.trace_end(scan);
    Ok(())
}

/// Block nested loop PETJ baseline: for each outer tuple, scan the inner
/// relation. (The outer side is in memory — the paper joins an uncertain
/// relation against a stored one; the inner side is charged I/O.)
pub fn block_nested_loop_petj(
    outer: &[(u64, Uda)],
    inner: &ScanBaseline,
    pool: &mut BufferPool,
    tau: f64,
) -> Result<Vec<JoinPair>> {
    let mut out = Vec::new();
    scan_inner(inner, pool, |rtid, ruda| {
        for (ltid, luda) in outer {
            let pr = eq_prob(luda, ruda);
            if meets_threshold(pr, tau) {
                out.push(JoinPair {
                    left: *ltid,
                    right: rtid,
                    score: pr,
                });
            }
        }
    })?;
    sort_pairs_desc(&mut out);
    Ok(out)
}

/// Block nested loop PEJ-top-k baseline: one scan of the inner relation,
/// keeping the `k` best pairs seen so far. Zero-probability pairs never
/// qualify and are dropped on sight, matching the index plans.
pub fn block_top_k_pej(
    outer: &[(u64, Uda)],
    inner: &ScanBaseline,
    pool: &mut BufferPool,
    k: usize,
) -> Result<Vec<JoinPair>> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let mut best: Vec<JoinPair> = Vec::new();
    // Compact whenever the buffer outgrows a small multiple of k, so the
    // scan stays O(k) in memory instead of materializing every pair.
    let compact_at = 4 * k.max(16);
    scan_inner(inner, pool, |rtid, ruda| {
        for (ltid, luda) in outer {
            let pr = eq_prob(luda, ruda);
            if pr > 0.0 {
                best.push(JoinPair {
                    left: *ltid,
                    right: rtid,
                    score: pr,
                });
            }
        }
        if best.len() > compact_at {
            sort_pairs_desc(&mut best);
            best.truncate(k);
        }
    })?;
    sort_pairs_desc(&mut best);
    best.truncate(k);
    Ok(best)
}

/// Block nested loop DSTJ baseline: one scan of the inner relation,
/// keeping every pair within divergence `tau_d`.
pub fn block_dstj(
    outer: &[(u64, Uda)],
    inner: &ScanBaseline,
    pool: &mut BufferPool,
    tau_d: f64,
    divergence: Divergence,
) -> Result<Vec<JoinPair>> {
    let mut out = Vec::new();
    scan_inner(inner, pool, |rtid, ruda| {
        for (ltid, luda) in outer {
            let d = divergence.eval(luda.entries(), ruda.entries());
            if d <= tau_d {
                out.push(JoinPair {
                    left: *ltid,
                    right: rtid,
                    score: d,
                });
            }
        }
    })?;
    sort_pairs_asc(&mut out);
    Ok(out)
}
