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
//! probe reads the floor first and seeds its dynamic threshold with it
//! (`top_k_floored`), so a warm probe terminates — Lemma 1 /
//! best-first stop at θ = floor — no later than a cold top-k search
//! would. A pair below the floor can never reach the global
//! top k (the floor only rises and never exceeds the true k-th best
//! score), so the pruning is exact: results stay deterministic while the
//! probe work after warm-up drops with every floor raise.
//!
//! Attribution is exact per worker: each worker's pool is its ledger
//! (private pools count only their worker's traffic, and shared-pool
//! handles meter per handle — PR 3's `PoolHandle` contract), so the
//! summed [`QueryMetrics`] equals the join's true cost in either mode.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use uncat_core::query::{DstQuery, EqQuery, TopKQuery};
use uncat_core::Uda;
use uncat_storage::{BufferPool, QueryMetrics, Result, SharedStore, StorageError};

use crate::index_trait::UncertainIndex;
use crate::parallel::{lock_recover, BatchPools};

use super::{sort_pairs_asc, sort_pairs_desc, JoinPair, JoinSpec};

/// Result of one join execution: the pairs, in canonical order, plus the
/// execution counters summed over every worker (sequential plans fill
/// the same struct, so plans are directly comparable).
#[derive(Debug)]
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

/// A monotonically rising PEJ-top-k score floor shared across concurrent
/// probes. Scores are probabilities (non-negative), so `fetch_max` over
/// the raw bits is `fetch_max` over the values.
///
/// One floor normally serves one join (see [`parallel_join`]), but any
/// caller that splits a top-k computation across executions whose result
/// sets it will merge — the sharded scatter-gather service shares one
/// floor across every shard probe — can pass its own instance to
/// [`parallel_join_with_floor`] or seed probes directly with
/// [`SharedFloor::get`]. Exactness only requires that every published
/// score is a lower bound on the final k-th best of the *merged* result.
pub struct SharedFloor(AtomicU64);

impl SharedFloor {
    /// A floor of zero: prunes nothing until first raised.
    pub fn new() -> SharedFloor {
        SharedFloor(AtomicU64::new(0.0f64.to_bits()))
    }

    /// The current floor.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Acquire))
    }

    /// Raise the floor to `score` if it is higher than the current floor.
    /// Never lowers it, and ignores non-finite scores (a NaN from a
    /// corrupt page must not poison every other worker's pruning).
    pub fn raise(&self, score: f64) {
        if score > 0.0 && score.is_finite() {
            self.0.fetch_max(score.to_bits(), Ordering::AcqRel);
        }
    }
}

impl Default for SharedFloor {
    fn default() -> SharedFloor {
        SharedFloor::new()
    }
}

/// Record a worker failure, keeping the lowest-indexed one so the error
/// a join reports is deterministic regardless of scheduling.
fn record_error(error: &Mutex<Option<(usize, StorageError)>>, i: usize, e: StorageError) {
    let mut slot = lock_recover(error);
    let replace = match &*slot {
        Some((j, _)) => i < *j,
        None => true,
    };
    if replace {
        *slot = Some((i, e));
    }
}

/// One worker's private state, merged after the scope joins.
struct WorkerPart {
    pairs: Vec<JoinPair>,
    metrics: QueryMetrics,
}

/// Run `spec` as a parallel index nested loop over `threads` workers
/// (at least one).
///
/// Results are exactly the sequential [`super::index_join`]'s: the same
/// pair set in the same canonical order (for PEJ-top-k, pruning with a
/// lower bound of the true k-th score never discards a winning pair, and
/// the final merge re-ranks under the one total order). On an error the
/// whole join fails — a join is one query, so PR 1's isolation boundary
/// is the join, not the probe — and the error reported is the one from
/// the lowest-indexed failing outer tuple, so failures are deterministic
/// too.
pub fn parallel_join<I: UncertainIndex + Sync>(
    outer: &[(u64, Uda)],
    inner: &I,
    store: &SharedStore,
    pools: &BatchPools,
    spec: JoinSpec,
    threads: usize,
) -> Result<JoinOutcome> {
    parallel_join_with_floor(
        outer,
        inner,
        store,
        pools,
        spec,
        threads,
        &SharedFloor::new(),
    )
}

/// [`parallel_join`] against an external, possibly pre-raised
/// [`SharedFloor`]. The sharded scatter-gather executor passes one floor
/// to every shard's join so a floor proven on a warm shard prunes the
/// probes of every other shard; the floor is read and raised only by
/// PEJ-top-k probes (the threshold forms carry their own bound in the
/// spec). Sharing a floor across joins is exact as long as the caller
/// merges (and re-truncates) the joins' pair sets, because each published
/// score then lower-bounds the merged k-th best.
pub fn parallel_join_with_floor<I: UncertainIndex + Sync>(
    outer: &[(u64, Uda)],
    inner: &I,
    store: &SharedStore,
    pools: &BatchPools,
    spec: JoinSpec,
    threads: usize,
    floor: &SharedFloor,
) -> Result<JoinOutcome> {
    if let JoinSpec::PejTopK { k: 0 } = spec {
        return Ok(JoinOutcome {
            pairs: Vec::new(),
            metrics: QueryMetrics::new(),
        });
    }

    let next = AtomicUsize::new(0);
    let error: Mutex<Option<(usize, StorageError)>> = Mutex::new(None);
    let parts: Mutex<Vec<WorkerPart>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, outer.len().max(1)) {
            scope.spawn(|| {
                // A panic anywhere in the probe path (an index bug, a
                // poisoned lock observed mid-update) fails this *join*
                // with a typed error; it must never unwind through the
                // scope and take the process down with it.
                let worker = AssertUnwindSafe(|| {
                    let mut pool = pools.pool(store);
                    let mut local: Vec<JoinPair> = Vec::new();
                    loop {
                        if lock_recover(&error).is_some() {
                            break; // another worker already failed the join
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= outer.len() {
                            break;
                        }
                        let (ltid, luda) = &outer[i];
                        if let Err(e) =
                            probe_one(spec, inner, &mut pool, *ltid, luda, floor, &mut local)
                        {
                            record_error(&error, i, e);
                            break;
                        }
                    }
                    // The worker's pool is its ledger: a private pool counts
                    // only this worker; a shared-pool handle meters per handle.
                    lock_recover(&parts).push(WorkerPart {
                        pairs: local,
                        metrics: pool.metrics(),
                    });
                });
                if catch_unwind(worker).is_err() {
                    // usize::MAX orders the panic after every real error:
                    // a deterministic storage failure, when present, wins.
                    record_error(&error, usize::MAX, StorageError::Poisoned);
                }
            });
        }
    });

    if let Some((_, e)) = error.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(e);
    }
    let mut pairs = Vec::new();
    let mut metrics = QueryMetrics::new();
    // No recorded error, so no worker panicked while holding this lock;
    // a poisoned lock here is unreachable, but degrade to a typed error
    // rather than panicking if it ever happens.
    let collected = parts.into_inner().map_err(|_| StorageError::Poisoned)?;
    for part in collected {
        pairs.extend(part.pairs);
        metrics.merge(&part.metrics);
    }
    // Deterministic merge: worker completion order never reaches the
    // output, only the canonical total order does.
    match spec {
        JoinSpec::Petj { .. } => sort_pairs_desc(&mut pairs),
        JoinSpec::PejTopK { k } => {
            sort_pairs_desc(&mut pairs);
            pairs.truncate(k);
        }
        JoinSpec::Dstj { .. } => sort_pairs_asc(&mut pairs),
    }
    Ok(JoinOutcome { pairs, metrics })
}

/// Probe the inner index for one outer tuple and fold the matches into
/// the worker's partial result.
fn probe_one<I: UncertainIndex>(
    spec: JoinSpec,
    inner: &I,
    pool: &mut BufferPool,
    ltid: u64,
    luda: &Uda,
    floor: &SharedFloor,
    local: &mut Vec<JoinPair>,
) -> Result<()> {
    match spec {
        JoinSpec::Petj { tau } => {
            for m in inner.petq(pool, &EqQuery::new(luda.clone(), tau))? {
                local.push(JoinPair {
                    left: ltid,
                    right: m.tid,
                    score: m.score,
                });
            }
        }
        JoinSpec::Dstj { tau_d, divergence } => {
            for m in inner.dstq(pool, &DstQuery::new(luda.clone(), tau_d, divergence))? {
                local.push(JoinPair {
                    left: ltid,
                    right: m.tid,
                    score: m.score,
                });
            }
        }
        JoinSpec::PejTopK { k } => {
            // Live threshold propagation: the floor published by any
            // worker seeds this probe's dynamic threshold, so a warm
            // probe stops (Lemma 1 / best-first stop at θ = floor) as
            // soon as no inner tuple can still displace a held pair —
            // never later than a cold top-k probe would.
            let probes =
                inner.top_k_floored(pool, &TopKQuery::new(luda.clone(), k), floor.get())?;
            for m in probes {
                // Re-read the floor: it may have risen since the probe
                // started, and a sub-floor pair can never win.
                if local.len() >= k && m.score < floor.get() {
                    continue;
                }
                local.push(JoinPair {
                    left: ltid,
                    right: m.tid,
                    score: m.score,
                });
            }
            if local.len() >= k {
                sort_pairs_desc(local);
                local.truncate(k);
                // This worker's k-th best is a lower bound on the global
                // k-th best (its pairs are a subset of the global set),
                // so publishing it can only tighten every probe.
                if let Some(last) = local.last() {
                    floor.raise(last.score);
                }
            }
        }
    }
    Ok(())
}
