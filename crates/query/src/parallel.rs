//! Parallel batch execution.
//!
//! The paper's model gives every query its own buffer pool, which makes
//! query batches embarrassingly parallel: the page store is shared and
//! internally synchronized, the indexes are immutable during reads, and
//! each worker owns its pools. This module fans a batch out over a fixed
//! number of threads and returns outcomes in input order.
//!
//! Failure isolation extends to batches: each query's outcome is its own
//! `Result`, so one bad page fails one slot of the batch while every other
//! query still completes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use uncat_core::query::{EqQuery, Match};
use uncat_storage::trace::{Clock, QueryTrace};
use uncat_storage::{
    BufferPool, QueryMetrics, Result, SharedBufferPool, SharedStore, StorageError,
};

use crate::executor::{run_query, QueryOutcome};
use crate::index_trait::UncertainIndex;

/// How a batch provisions buffer frames — the paper's model (a private
/// pool per query) or one [`SharedBufferPool`] serving every query in
/// the batch, so repeated index pages are fetched once per *batch*
/// instead of once per *query* — and whether its queries are traced.
pub struct BatchPools {
    frames: Frames,
    clock: Option<Arc<dyn Clock>>,
}

enum Frames {
    /// A fresh private pool of this many frames per query (the paper's
    /// experimental setup).
    Private(usize),
    /// One shared lock-striped pool for the whole batch; per-query I/O
    /// attribution still comes out exact via per-handle stats.
    Shared(Arc<SharedBufferPool>),
}

impl BatchPools {
    /// The paper's model: a private `frames`-frame pool per query.
    pub fn private(frames: usize) -> BatchPools {
        BatchPools {
            frames: Frames::Private(frames),
            clock: None,
        }
    }

    /// A shared pool of `total_frames` frames striped over `shards`
    /// shards on `store`.
    pub fn shared(store: &SharedStore, total_frames: usize, shards: usize) -> BatchPools {
        BatchPools::over(SharedBufferPool::new(store.clone(), total_frames, shards))
    }

    /// Handles onto an existing shared pool (the service's one pool).
    pub fn over(pool: Arc<SharedBufferPool>) -> BatchPools {
        BatchPools {
            frames: Frames::Shared(pool),
            clock: None,
        }
    }

    /// Trace every query of a batch run on these pools: each outcome
    /// carries a [`QueryTrace`] recorded against the shared `clock`; fold
    /// them with [`batch_trace`].
    pub fn traced(mut self, clock: Arc<dyn Clock>) -> BatchPools {
        self.clock = Some(clock);
        self
    }

    /// The shared pool behind this provisioning, if any — for reading
    /// pool-level hit-rate counters after the batch.
    pub fn shared_pool(&self) -> Option<&Arc<SharedBufferPool>> {
        match &self.frames {
            Frames::Private(_) => None,
            Frames::Shared(pool) => Some(pool),
        }
    }

    /// Materialize the pool one query (or one join worker) runs against.
    pub(crate) fn pool(&self, store: &SharedStore) -> BufferPool {
        match &self.frames {
            Frames::Private(frames) => BufferPool::with_capacity(store.clone(), *frames),
            Frames::Shared(pool) => BufferPool::from_handle(pool.handle()),
        }
    }
}

/// Lock a slot's mutex, recovering the data from a poisoned lock. Every
/// guarded update is a single assignment that cannot be observed
/// half-done, so the data is still well-formed; the panic that poisoned
/// the lock surfaces as a typed [`StorageError::Poisoned`] on the affected
/// slot instead of cascading panics across workers.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The slot fan-out: run `job(i)` for every `i < n` on `threads` workers
/// (at least one) pulling indexes from a shared cursor; results come back
/// in index order, one `Result` per slot, however the jobs were scheduled.
/// Batches run one slot per query; a parallel join runs one slot per
/// worker.
///
/// A panicking job must fail its own slot, not the process: the unwind is
/// caught, the slot is filled with a typed [`StorageError::Poisoned`],
/// and the worker dies quietly (its remaining slots are picked up by the
/// other workers via the shared cursor).
pub(crate) fn fan_out<T: Send>(
    n: usize,
    threads: usize,
    job: impl Fn(usize) -> Result<T> + Sync,
) -> Vec<Result<T>> {
    let mut out: Vec<Option<Result<T>>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let next = AtomicUsize::new(0);
    let cells: Vec<Mutex<&mut Option<Result<T>>>> = out.iter_mut().map(Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            scope.spawn(|| {
                let worker = AssertUnwindSafe(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = job(i);
                    **lock_recover(&cells[i]) = Some(result);
                });
                let _ = catch_unwind(worker);
            });
        }
    });
    drop(cells);
    out.into_iter()
        .map(|o| o.unwrap_or(Err(StorageError::Poisoned)))
        .collect()
}

/// Extra attempts a batch slot gets when the shared pool momentarily has
/// every frame pinned by concurrent handles ([`StorageError::PoolExhausted`]).
/// Contention like that is transient — handles unpin as their reads
/// complete — so a bounded retry turns a scheduling accident into a
/// slightly slower answer. Persistent exhaustion (a pool genuinely too
/// small for one query's working set) still fails after the last attempt.
const POOL_EXHAUSTED_RETRIES: usize = 2;

/// Run `f` once per query on `threads` workers ([`fan_out`]); results
/// come back in input order, one `Result` per query. Each query runs
/// through [`run_query`] against a pool from `pools` (private per query,
/// or a handle onto the batch's shared pool) that is its ledger alone
/// (never shared across threads), so per-query counters are exact
/// regardless of scheduling.
///
/// A query that fails with [`StorageError::PoolExhausted`] is retried up
/// to [`POOL_EXHAUSTED_RETRIES`] times, each attempt against a **fresh
/// pool**: the abandoned attempt's pool is dropped with its ledger, so
/// nothing it ticked before dying leaks into the outcome and
/// [`batch_metrics`] stays per-attempt-exact (it describes exactly the
/// executions whose results were returned).
fn run_batch<Q, I, F>(
    index: &I,
    store: &SharedStore,
    pools: &BatchPools,
    queries: &[Q],
    threads: usize,
    f: F,
) -> Vec<Result<QueryOutcome>>
where
    Q: Sync,
    I: UncertainIndex + Sync,
    F: Fn(&I, &mut BufferPool, &Q) -> Result<Vec<Match>> + Sync,
{
    fan_out(queries.len(), threads, |i| {
        let mut attempt = 0;
        loop {
            let mut pool = pools.pool(store);
            let outcome = run_query(&mut pool, pools.clock.as_ref(), |pool| {
                f(index, pool, &queries[i])
            });
            match outcome {
                Err(StorageError::PoolExhausted) if attempt < POOL_EXHAUSTED_RETRIES => {
                    attempt += 1;
                }
                done => return done,
            }
        }
    })
}

/// Sum the counters of every *successful* outcome in a batch. Because
/// counters are additive and each query's pool is its own ledger, this
/// equals the metrics of running the same queries sequentially — `tests`
/// below pin that invariant.
pub fn batch_metrics(results: &[Result<QueryOutcome>]) -> QueryMetrics {
    QueryMetrics::sum(
        results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|o| &o.metrics),
    )
}

/// Merge the traces of every successful outcome in a batch: histograms
/// add field-wise and span trees are concatenated, so the result is the
/// exact batch-level latency profile regardless of how queries were
/// scheduled across workers (the timing analogue of [`batch_metrics`]).
pub fn batch_trace(results: &[Result<QueryOutcome>]) -> QueryTrace {
    let mut merged = QueryTrace::default();
    for trace in results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .filter_map(|o| o.trace.as_ref())
    {
        merged.merge(trace);
    }
    merged
}

/// Evaluate a batch of PETQs in parallel against `pools`.
pub fn petq_batch_with<I: UncertainIndex + Sync>(
    index: &I,
    store: &SharedStore,
    pools: &BatchPools,
    queries: &[EqQuery],
    threads: usize,
) -> Vec<Result<QueryOutcome>> {
    run_batch(index, store, pools, queries, threads, |i, p, q| {
        i.petq(p, q)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncat_core::{CatId, Domain, Uda};
    use uncat_inverted::InvertedIndex;
    use uncat_storage::InMemoryDisk;

    fn uda(pairs: &[(u32, f32)]) -> Uda {
        Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
    }

    #[test]
    fn parallel_matches_sequential() {
        let store = InMemoryDisk::shared();
        let data: Vec<(u64, Uda)> = (0..2000u64)
            .map(|i| {
                let c = (i % 11) as u32;
                (i, uda(&[(c, 0.6), ((c + 3) % 11, 0.4)]))
            })
            .collect();
        let mut pool = BufferPool::with_capacity(store.clone(), 128);
        let idx = crate::InvertedBackend::new(
            InvertedIndex::build(
                Domain::anonymous(11),
                &mut pool,
                data.iter().map(|(t, u)| (*t, u)),
            )
            .unwrap(),
        );
        pool.flush().unwrap();
        drop(pool);

        let queries: Vec<EqQuery> = (0..16)
            .map(|i| EqQuery::new(uda(&[((i % 11) as u32, 1.0)]), 0.3))
            .collect();

        let par = petq_batch_with(&idx, &store, &BatchPools::private(100), &queries, 4);
        for (q, outcome) in queries.iter().zip(&par) {
            let outcome = outcome.as_ref().expect("in-memory query");
            let mut p = BufferPool::with_capacity(store.clone(), 100);
            let seq = idx.petq(&mut p, q).unwrap();
            assert_eq!(
                outcome.matches.iter().map(|m| m.tid).collect::<Vec<_>>(),
                seq.iter().map(|m| m.tid).collect::<Vec<_>>(),
            );
            assert_eq!(
                outcome.reads(),
                p.stats().physical_reads,
                "identical cold I/O"
            );
        }
    }

    #[test]
    fn petq_batch_matches_sequential_on_pdr() {
        use uncat_pdrtree::{PdrConfig, PdrTree};

        let store = InMemoryDisk::shared();
        let data: Vec<(u64, Uda)> = (0..800u64)
            .map(|i| {
                let c = (i % 9) as u32;
                (i, uda(&[(c, 0.7), ((c + 4) % 9, 0.3)]))
            })
            .collect();
        let mut pool = BufferPool::with_capacity(store.clone(), 128);
        let tree = PdrTree::build(
            Domain::anonymous(9),
            PdrConfig::default(),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        pool.flush().unwrap();
        drop(pool);

        let queries: Vec<EqQuery> = (0..8)
            .map(|i| EqQuery::new(data[i * 7].1.clone(), 0.2))
            .collect();
        let par = petq_batch_with(&tree, &store, &BatchPools::private(100), &queries, 3);
        for (q, out) in queries.iter().zip(par) {
            let out = out.expect("in-memory query");
            let mut p = BufferPool::with_capacity(store.clone(), 100);
            let seq = UncertainIndex::petq(&tree, &mut p, q).unwrap();
            assert!(!seq.is_empty());
            assert_eq!(out.matches, seq);
            assert_eq!(out.metrics, p.metrics(), "identical cold counters");
        }
    }

    #[test]
    fn shared_pool_batch_matches_private_and_saves_reads() {
        let store = InMemoryDisk::shared();
        let data: Vec<(u64, Uda)> = (0..3000u64)
            .map(|i| {
                let c = (i % 13) as u32;
                (i, uda(&[(c, 0.6), ((c + 5) % 13, 0.4)]))
            })
            .collect();
        let mut pool = BufferPool::with_capacity(store.clone(), 128);
        let idx = crate::InvertedBackend::new(
            InvertedIndex::build(
                Domain::anonymous(13),
                &mut pool,
                data.iter().map(|(t, u)| (*t, u)),
            )
            .unwrap(),
        );
        pool.flush().unwrap();
        drop(pool);

        // A repeated-query mix: every query re-reads the same hot lists.
        let queries: Vec<EqQuery> = (0..24)
            .map(|i| EqQuery::new(uda(&[((i % 3) as u32, 1.0)]), 0.3))
            .collect();

        let private = petq_batch_with(&idx, &store, &BatchPools::private(100), &queries, 4);
        let pools = BatchPools::shared(&store, 400, 8);
        let shared = petq_batch_with(&idx, &store, &pools, &queries, 4);

        let mut private_reads = 0;
        let mut shared_reads = 0;
        for (p, s) in private.iter().zip(&shared) {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(
                p.matches.iter().map(|m| m.tid).collect::<Vec<_>>(),
                s.matches.iter().map(|m| m.tid).collect::<Vec<_>>(),
                "pool flavor must not change results"
            );
            assert_eq!(
                p.metrics.io.logical_reads, s.metrics.io.logical_reads,
                "same access pattern either way"
            );
            private_reads += p.metrics.io.physical_reads;
            shared_reads += s.metrics.io.physical_reads;
        }
        assert!(
            shared_reads < private_reads,
            "shared pool must save physical reads on repeated queries \
             ({shared_reads} vs {private_reads})"
        );
        // Per-handle attribution sums to the pool's aggregate.
        let agg = pools.shared_pool().unwrap().stats();
        assert_eq!(agg.physical_reads, shared_reads);
    }

    #[test]
    fn pool_exhausted_retry_is_per_attempt_exact() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let store = InMemoryDisk::shared();
        let data: Vec<(u64, Uda)> = (0..50u64)
            .map(|i| (i, uda(&[((i % 3) as u32, 1.0)])))
            .collect();
        let mut pool = BufferPool::with_capacity(store.clone(), 64);
        let idx = crate::InvertedBackend::new(
            InvertedIndex::build(
                Domain::anonymous(3),
                &mut pool,
                data.iter().map(|(t, u)| (*t, u)),
            )
            .unwrap(),
        );
        pool.flush().unwrap();
        drop(pool);

        // Queries are slot indexes; each slot's first attempt ticks a
        // counter and then dies with PoolExhausted, and every attempt
        // ticks `plan_fallbacks`. Per-attempt exactness means the tick
        // from the abandoned attempt never reaches the outcome.
        let queries: Vec<usize> = (0..6).collect();
        let attempts: Vec<AtomicUsize> = queries.iter().map(|_| AtomicUsize::new(0)).collect();
        let pools = BatchPools::private(50);
        let out = run_batch(&idx, &store, &pools, &queries, 3, |i, p, q| {
            p.tally(|_, m| m.plan_fallbacks += 1);
            if attempts[*q].fetch_add(1, Ordering::Relaxed) == 0 && *q != 0 {
                return Err(StorageError::PoolExhausted);
            }
            i.petq(p, &EqQuery::new(uda(&[(0, 1.0)]), 0.5))
        });
        for (q, o) in queries.iter().zip(&out) {
            let o = o.as_ref().expect("retry must succeed");
            assert_eq!(
                o.metrics.plan_fallbacks, 1,
                "slot {q}: the failed attempt's counters leaked into the outcome"
            );
            let expected = if *q == 0 { 1 } else { 2 };
            assert_eq!(attempts[*q].load(Ordering::Relaxed), expected);
        }
        assert_eq!(
            batch_metrics(&out).plan_fallbacks,
            queries.len() as u64,
            "batch sum counts exactly the returned executions"
        );
    }

    #[test]
    fn pool_exhausted_gives_up_after_bounded_retries() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let store = InMemoryDisk::shared();
        let data: Vec<(u64, Uda)> = (0..20u64).map(|i| (i, uda(&[(0, 1.0)]))).collect();
        let mut pool = BufferPool::with_capacity(store.clone(), 64);
        let idx = crate::InvertedBackend::new(
            InvertedIndex::build(
                Domain::anonymous(1),
                &mut pool,
                data.iter().map(|(t, u)| (*t, u)),
            )
            .unwrap(),
        );
        pool.flush().unwrap();
        drop(pool);

        let attempts = AtomicUsize::new(0);
        let queries = [0usize];
        let pools = BatchPools::private(50);
        let out = run_batch(&idx, &store, &pools, &queries, 1, |_, _, _| {
            attempts.fetch_add(1, Ordering::Relaxed);
            Err(StorageError::PoolExhausted)
        });
        assert!(matches!(out[0], Err(StorageError::PoolExhausted)));
        assert_eq!(
            attempts.load(Ordering::Relaxed),
            POOL_EXHAUSTED_RETRIES + 1,
            "one initial attempt plus the bounded retries"
        );
    }

    #[test]
    fn panicking_query_fails_its_slot_only() {
        let store = InMemoryDisk::shared();
        let data: Vec<(u64, Uda)> = (0..50u64)
            .map(|i| (i, uda(&[((i % 3) as u32, 1.0)])))
            .collect();
        let mut pool = BufferPool::with_capacity(store.clone(), 64);
        let idx = crate::InvertedBackend::new(
            InvertedIndex::build(
                Domain::anonymous(3),
                &mut pool,
                data.iter().map(|(t, u)| (*t, u)),
            )
            .unwrap(),
        );
        pool.flush().unwrap();
        drop(pool);

        let queries: Vec<usize> = (0..8).collect();
        let pools = BatchPools::private(50);
        let out = run_batch(&idx, &store, &pools, &queries, 3, |i, p, q| {
            assert_ne!(*q, 2, "injected query bug");
            i.petq(p, &EqQuery::new(uda(&[(0, 1.0)]), 0.5))
        });
        for (q, o) in queries.iter().zip(&out) {
            if *q == 2 {
                assert!(
                    matches!(o, Err(StorageError::Poisoned)),
                    "the panicking slot surfaces as a typed error"
                );
            } else {
                assert!(o.is_ok(), "slot {q} must survive a neighbor's panic");
            }
        }
    }

    #[test]
    fn panicking_probe_fails_the_join_not_the_process() {
        use crate::join::{parallel_join, JoinSpec};
        use uncat_core::query::{DsTopKQuery, DstQuery, Match, TopKQuery};

        /// An index whose every probe panics — a stand-in for an index
        /// bug surfacing mid-join.
        struct Panicky;
        impl UncertainIndex for Panicky {
            fn petq(&self, _: &mut BufferPool, _: &EqQuery) -> Result<Vec<Match>> {
                panic!("injected probe bug");
            }
            fn top_k(&self, _: &mut BufferPool, _: &TopKQuery) -> Result<Vec<Match>> {
                panic!("injected probe bug");
            }
            fn dstq(&self, _: &mut BufferPool, _: &DstQuery) -> Result<Vec<Match>> {
                panic!("injected probe bug");
            }
            fn ds_top_k(&self, _: &mut BufferPool, _: &DsTopKQuery) -> Result<Vec<Match>> {
                panic!("injected probe bug");
            }
            fn tuple_count(&self) -> u64 {
                1
            }
            fn backend_name(&self) -> &'static str {
                "panicky"
            }
        }

        let store = InMemoryDisk::shared();
        let outer: Vec<(u64, Uda)> = (0..4u64).map(|i| (i, uda(&[(0, 1.0)]))).collect();
        let pools = BatchPools::private(50);
        let out = parallel_join(
            &outer,
            &Panicky,
            &store,
            &pools,
            JoinSpec::Petj { tau: 0.5 },
            2,
        );
        assert!(
            matches!(out, Err(StorageError::Poisoned)),
            "a probe panic must fail the join with a typed error"
        );
    }

    /// 100 tuples over three categories behind an inverted backend.
    fn small_backend() -> (SharedStore, crate::InvertedBackend) {
        let store = InMemoryDisk::shared();
        let data: Vec<(u64, Uda)> = (0..100u64)
            .map(|i| {
                (
                    i,
                    uda(&[((i % 3) as u32, 0.7), (((i + 1) % 3) as u32, 0.3)]),
                )
            })
            .collect();
        let mut pool = BufferPool::with_capacity(store.clone(), 64);
        let idx = InvertedIndex::build(
            Domain::anonymous(3),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        pool.flush().unwrap();
        (store, crate::InvertedBackend::new(idx))
    }

    /// A batch asked for zero workers runs on one: the same matches and
    /// the same counters as a one-worker batch.
    fn zero_threads_is_one<Q>(
        queries: &[Q],
        batch: impl Fn(&[Q], usize) -> Vec<Result<QueryOutcome>>,
    ) {
        let (zero, one) = (batch(queries, 0), batch(queries, 1));
        assert_eq!(zero.len(), queries.len());
        for (z, o) in zero.iter().zip(&one) {
            let (z, o) = (z.as_ref().unwrap(), o.as_ref().unwrap());
            assert_eq!(z.matches, o.matches);
            assert_eq!(z.metrics, o.metrics);
        }
    }

    #[test]
    fn petq_batch_with_zero_threads_runs_on_one_worker() {
        let (store, idx) = small_backend();
        let pools = BatchPools::private(50);
        let queries = vec![EqQuery::new(uda(&[(0, 1.0)]), 0.5); 3];
        zero_threads_is_one(&queries, |q, t| petq_batch_with(&idx, &store, &pools, q, t));
    }

    /// A join asked for zero workers runs on one: the same `pairs` pairs
    /// and the same counters as a one-worker join.
    fn zero_thread_join_is_one(spec: crate::join::JoinSpec, pairs: usize) {
        use crate::join::parallel_join;
        let (store, idx) = small_backend();
        let outer: Vec<(u64, Uda)> = (0..4u64)
            .map(|i| (i, uda(&[((i % 3) as u32, 1.0)])))
            .collect();
        let pools = BatchPools::private(50);
        let run = |threads| parallel_join(&outer, &idx, &store, &pools, spec, threads).unwrap();
        let (zero, one) = (run(0), run(1));
        assert_eq!(one.pairs.len(), pairs, "{}", spec.name());
        assert_eq!(zero.pairs, one.pairs);
        assert_eq!(zero.metrics, one.metrics);
    }

    #[test]
    fn parallel_join_with_zero_threads_runs_on_one_worker() {
        zero_thread_join_is_one(crate::join::JoinSpec::Petj { tau: 0.5 }, 134);
    }

    /// PEJ-top-k under its shared floor, asked for zero workers.
    #[test]
    fn floored_parallel_join_with_zero_threads_runs_on_one_worker() {
        zero_thread_join_is_one(crate::join::JoinSpec::PejTopK { k: 4 }, 4);
    }

    #[test]
    fn single_thread_and_oversubscription_work() {
        let store = InMemoryDisk::shared();
        let data: Vec<(u64, Uda)> = (0..100u64)
            .map(|i| (i, uda(&[((i % 3) as u32, 1.0)])))
            .collect();
        let mut pool = BufferPool::with_capacity(store.clone(), 64);
        let idx = crate::InvertedBackend::new(
            InvertedIndex::build(
                Domain::anonymous(3),
                &mut pool,
                data.iter().map(|(t, u)| (*t, u)),
            )
            .unwrap(),
        );
        pool.flush().unwrap();
        drop(pool);
        let queries = vec![EqQuery::new(uda(&[(0, 1.0)]), 0.5); 3];
        for threads in [1usize, 8] {
            let out = petq_batch_with(&idx, &store, &BatchPools::private(50), &queries, threads);
            assert_eq!(out.len(), 3);
            for o in &out {
                assert_eq!(o.as_ref().expect("in-memory query").matches.len(), 34);
            }
        }
    }
}
