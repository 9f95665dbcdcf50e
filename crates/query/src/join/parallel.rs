//! Parallel, pruning-aware join execution.
//!
//! The outer relation is partitioned across a fixed worker pool: workers
//! pull outer tuples from a shared cursor, probe the inner index with a
//! pool provisioned by [`BatchPools`] (a private per-worker pool, or a
//! handle onto one shared lock-striped pool for the whole join), and the
//! partial results are merged into canonical pair order at the end — so
//! the returned pairs are identical to the sequential plan's no matter
//! how the scheduler interleaved the partitions.
//!
//! For PEJ-top-k the workers additionally share a **monotonically rising
//! global floor**: the best k-th pair score any worker has proven so far,
//! published as an `AtomicU64`-encoded `f64` (probabilities are
//! non-negative, so the IEEE-754 bit patterns order exactly like the
//! values and `fetch_max` on the bits is `max` on the scores). Every
//! probe reads the floor first and carries it in its query
//! ([`uncat_core::query::TopKQuery::floor`]), so a warm probe terminates —
//! Lemma 1 / best-first stop at θ = floor — no later than a cold top-k
//! search would. A pair below the floor can never reach the global
//! top k (the floor only rises and never exceeds the true k-th best
//! score), so the pruning is exact: results stay deterministic while the
//! probe work after warm-up drops with every floor raise.
//!
//! Attribution is exact per worker: each worker's pool is its ledger
//! (private pools count only their worker's traffic, and shared-pool
//! handles meter per handle — PR 3's `PoolHandle` contract), so the
//! summed [`QueryMetrics`] equals the join's true cost in either mode.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use uncat_core::query::effective_floor;
use uncat_core::Uda;
use uncat_storage::{QueryMetrics, Result, SharedStore, StorageError};

use crate::index_trait::UncertainIndex;
use crate::parallel::{fan_out, BatchPools};

use super::{probe_one, JoinPair, JoinSpec};

/// Result of one join execution: the pairs, in canonical order, plus the
/// execution counters summed over every worker (sequential plans fill
/// the same struct, so plans are directly comparable).
#[derive(Debug, Default)]
pub struct JoinOutcome {
    /// Joined pairs in canonical order (score descending for equality
    /// joins, divergence ascending for similarity joins).
    pub pairs: Vec<JoinPair>,
    /// Counters summed over every inner probe; `metrics.io` is the pool
    /// I/O attributed to this join.
    pub metrics: QueryMetrics,
}

impl JoinOutcome {
    /// The paper's y-axis: physical page reads charged to this join.
    pub fn reads(&self) -> u64 {
        self.metrics.io.physical_reads
    }
}

/// A monotonically rising PEJ-top-k score floor shared across one
/// join's concurrent probes. Scores are probabilities (non-negative), so
/// `fetch_max` over the raw bits is `fetch_max` over the values.
pub(crate) struct SharedFloor(AtomicU64);

impl SharedFloor {
    /// A floor of zero: prunes nothing until first raised.
    pub(crate) fn new() -> SharedFloor {
        SharedFloor(AtomicU64::new(0.0f64.to_bits()))
    }

    /// The current floor.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Acquire))
    }

    /// Raise the floor to `score` if it is higher than the current floor.
    /// Never lowers it, and ignores a score that is no floor
    /// ([`effective_floor`]: a NaN from a corrupt page must not poison
    /// every other worker's pruning).
    pub(crate) fn raise(&self, score: f64) {
        self.0
            .fetch_max(effective_floor(score).to_bits(), Ordering::AcqRel);
    }
}

/// One worker's partial result, or the outer index its probe failed at.
type WorkerPart = std::result::Result<(Vec<JoinPair>, QueryMetrics), (usize, StorageError)>;

/// Run `spec` as a parallel index nested loop over `threads` workers
/// (at least one), each owning a pool from `pools`, all probing through
/// the per-outer probe [`super::index_join`] runs. PEJ-top-k probes read
/// and raise one floor the join's workers share; the threshold forms
/// never read it.
///
/// Results are exactly the sequential [`super::index_join`]'s: the same
/// pair set in the same canonical order (for PEJ-top-k, pruning with a
/// lower bound of the true k-th score never discards a winning pair, and
/// the final merge re-ranks under the one total order). On an error the
/// whole join fails — a join is one query, so PR 1's isolation boundary
/// is the join, not the probe — and the error reported is the one from
/// the lowest-indexed failing outer tuple, so failures are deterministic
/// too. A panic in a worker (an index bug) fails the join with
/// [`StorageError::Poisoned`], never the process.
pub fn parallel_join<I: UncertainIndex + Sync>(
    outer: &[(u64, Uda)],
    inner: &I,
    store: &SharedStore,
    pools: &BatchPools,
    spec: JoinSpec,
    threads: usize,
) -> Result<JoinOutcome> {
    let floor = SharedFloor::new();
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let workers = threads.clamp(1, outer.len().max(1));
    let parts = fan_out(workers, workers, |_| -> Result<WorkerPart> {
        let mut pool = pools.pool(store);
        let mut local = Vec::new();
        // Stop early once any worker has failed the join.
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(tuple) = outer.get(i) else { break };
            if let Err(e) = probe_one(spec, inner, &mut pool, tuple, &floor, &mut local) {
                failed.store(true, Ordering::Relaxed);
                return Ok(Err((i, e)));
            }
        }
        // The worker's pool is its ledger: a private pool counts only
        // this worker; a shared-pool handle meters per handle.
        Ok(Ok((local, pool.metrics())))
    });

    let mut pairs = Vec::new();
    let mut metrics = QueryMetrics::new();
    let mut errors = Vec::new();
    for part in parts {
        // usize::MAX orders a panicked worker after every real error: a
        // deterministic storage failure, when present, wins.
        match part.unwrap_or_else(|e| Err((usize::MAX, e))) {
            Ok((local, m)) => {
                pairs.extend(local);
                metrics.merge(&m);
            }
            Err(failure) => errors.push(failure),
        }
    }
    if let Some((_, e)) = errors.into_iter().min_by_key(|(i, _)| *i) {
        return Err(e);
    }
    spec.canonicalize(&mut pairs);
    Ok(JoinOutcome { pairs, metrics })
}
