//! No-random-access rank-join search (paper §3.1, after Lemma 1).
//!
//! "For each tuple so far encountered … we maintain its *lack* parameter —
//! the amount of probability value required for the tuple, and which lists
//! it could come from. As soon as the probability values of required lists
//! drop below a boundary such that a tuple can never qualify, we discard
//! the tuple. … Finally, once the size of this candidate set falls below
//! some number we perform random accesses for these tuples."
//!
//! Implementation: drain list heads most-promising-first (as in
//! highest-prob-first) while maintaining, per candidate, a lower bound
//! (sum of contributions seen) and a bitmask of the lists it was seen in;
//! the upper bound adds each unseen list's current head contribution.
//! Candidates whose upper bound falls below τ are discarded without any
//! random access — that is the I/O the strategy saves over
//! highest-prob-first. The remainder is resolved by batched (page-sorted)
//! random access; candidates whose bounds have already converged are
//! accepted with their exact accumulated score.

use uncat_core::equality::THRESHOLD_EPS;
use uncat_core::query::{EqQuery, Match};
use uncat_storage::{BufferPool, Phase, QueryMetrics, Result};

use crate::index::InvertedIndex;
use crate::tid::TidMap;

use super::{verify_candidates, Frontier};

/// Random-access fallback size: with at most this many undecided
/// candidates (and no new ones possible), stop draining and verify them.
pub(crate) const RA_FALLBACK: usize = 32;

/// How many pops between candidate sweeps.
const SWEEP_EVERY: usize = 128;

struct Cand {
    lb: f64,
    seen: u128,
}

/// Metrics profile: like highest-prob-first on the frontier side
/// (`frontier_pops`, `lemma1_stops`), but the candidate accounting is the
/// strategy's whole point — `candidates_pruned` are discarded by upper
/// bound, `candidates_settled` are decided from converged bounds, and only
/// `candidates_verified` cost a random access. The deferred random
/// accesses the paper describes are `pruned + settled`.
pub(super) fn search(
    idx: &InvertedIndex,
    pool: &mut BufferPool,
    query: &EqQuery,
    metrics: &mut QueryMetrics,
) -> Result<Vec<Match>> {
    let plan = pool.trace_begin(Phase::Plan);
    let mut frontier = Frontier::open(idx, pool, &query.q, metrics)?;
    pool.trace_end(plan);
    if frontier.len() > 128 {
        // Mask width exceeded (never the case for realistic queries);
        // highest-prob-first is the general fallback. Nothing was
        // decoded, so the whole frontier is charged as skipped.
        frontier.account_skips(metrics);
        return super::highest_prob::search(idx, pool, query, metrics);
    }

    let tau = query.tau;
    let mut cand: TidMap<Cand> = TidMap::default();
    let mut pops = 0usize;
    let mut next_sweep = SWEEP_EVERY;
    let mut undecided_small = false;

    let drain = pool.trace_begin(Phase::NraDrain);
    loop {
        // Stop once no unseen tuple can qualify and the undecided set is
        // small enough for the random-access fallback. Checked before
        // `best()` — which force-decodes bound heads — so a stop leaves
        // the pending blocks undecoded (skipped).
        if frontier.sum() < tau - THRESHOLD_EPS && undecided_small {
            if !frontier.all_exhausted() {
                metrics.lemma1_stops += 1;
            }
            break;
        }
        let Some((j, tid, c)) = frontier.best(pool, metrics)? else {
            break;
        };
        let e = cand.entry(tid).or_insert(Cand { lb: 0.0, seen: 0 });
        e.lb += c;
        e.seen |= 1u128 << j;
        frontier.advance(pool, j, metrics)?;

        pops += 1;
        // Sweeping costs a pass over the candidate map; scale the interval
        // with its size.
        if pops >= next_sweep {
            next_sweep = pops + SWEEP_EVERY.max(cand.len() / 4);
            let heads = frontier.residual();
            let undecided = cand
                .values()
                .filter(|c| {
                    let ub: f64 = c.lb
                        + heads
                            .iter()
                            .enumerate()
                            .filter(|&(j, _)| c.seen & (1u128 << j) == 0)
                            .map(|(_, &h)| h)
                            .sum::<f64>();
                    // Neither surely-in nor surely-out.
                    c.lb < tau - THRESHOLD_EPS && ub >= tau - THRESHOLD_EPS
                })
                .count();
            undecided_small = undecided <= RA_FALLBACK;
        }
    }

    // Final heads after the drain (zero for exhausted lists). Bound
    // heads report their block's quantized-up maximum: upper bounds
    // built from them are conservative, and `remaining == 0.0` still
    // certifies convergence (a live bound head is strictly positive).
    pool.trace_end(drain);
    let heads = frontier.residual();
    let all_exhausted = frontier.all_exhausted();
    frontier.account_skips(metrics);

    metrics.candidates_generated += cand.len() as u64;
    let mut accepted: Vec<Match> = Vec::new();
    let mut needs_ra: Vec<u64> = Vec::new();
    for (tid, c) in &cand {
        let remaining: f64 = heads
            .iter()
            .enumerate()
            .filter(|&(j, _)| c.seen & (1u128 << j) == 0)
            .map(|(_, &h)| h)
            .sum();
        let ub = c.lb + remaining;
        if ub < tau - THRESHOLD_EPS {
            metrics.candidates_pruned += 1;
            continue; // discarded with zero random accesses
        }
        if all_exhausted || remaining == 0.0 {
            // Bounds converged: lb is the exact probability.
            metrics.candidates_settled += 1;
            if c.lb >= tau - THRESHOLD_EPS {
                accepted.push(Match::new(*tid, c.lb));
            }
        } else {
            needs_ra.push(*tid);
        }
    }
    accepted.extend(verify_candidates(idx, pool, query, needs_ra, metrics)?);
    Ok(accepted)
}
