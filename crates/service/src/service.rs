//! The query service: named tenants, each one sharded index
//! ([`uncat_query::Shards`]), over one shared buffer pool. The service
//! admits a request, runs it on the tenant's index and keeps the books.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use uncat_core::query::{DstQuery, EqQuery, Match, TopKQuery};
use uncat_core::{Domain, Uda};
use uncat_inverted::{InvertedIndex, Strategy};
use uncat_pdrtree::{PdrConfig, PdrTree};
use uncat_query::join::{parallel_join, JoinPair, JoinSpec};
use uncat_query::parallel::BatchPools;
use uncat_query::{run_query, InvertedBackend, Shards, UncertainIndex};
use uncat_storage::trace::{Clock, MonotonicClock, QueryTrace};
use uncat_storage::{
    BufferPool, IoStats, QueryMetrics, SharedBufferPool, SharedStore, StorageError,
};

use crate::error::{Result, ServiceError};
use crate::tenant::{Tenant, TenantConfig, TenantStats};

/// Frames used to build a tenant's shards (a private pool per shard
/// build, released immediately after the flush).
const BUILD_FRAMES: usize = 128;

/// Which shard owns tuple `tid` when a dataset is split `shards` ways.
///
/// SplitMix64 on the tid: tenants routinely use dense sequential tids,
/// and a plain modulus would put every residue class on one shard. The
/// function is part of the service's contract — clients that pre-split
/// data (or tests that predict placement) must agree with the service.
pub fn shard_of(tid: u64, shards: usize) -> usize {
    assert!(shards >= 1, "a dataset has at least one shard");
    let mut z = tid.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % shards as u64) as usize
}

/// Service-wide provisioning.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Frames in the one shared lock-striped pool every tenant reads
    /// through.
    pub total_frames: usize,
    /// Lock stripes in the shared pool.
    pub pool_shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            total_frames: 1024,
            pool_shards: 8,
        }
    }
}

/// One select query's result, as the service returns it.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// Matches in the query form's canonical order, exact across every
    /// shard (tid-identical to the unsharded plan).
    pub matches: Vec<Match>,
    /// The query's one ledger, every shard's probe included, plus its
    /// admission stamp.
    pub metrics: QueryMetrics,
    /// The latency trace, when tracing is enabled: one `query` root over
    /// every shard's probe.
    pub trace: Option<QueryTrace>,
    /// End-to-end wall time, admission wait included.
    pub wall_ns: u64,
}

/// One join's result, as the service returns it.
#[derive(Debug)]
pub struct ServiceJoinOutcome {
    /// Joined pairs in the spec's canonical order.
    pub pairs: Vec<JoinPair>,
    /// The join's counters, every worker's ledger summed.
    pub metrics: QueryMetrics,
    /// End-to-end wall time, admission wait included.
    pub wall_ns: u64,
}

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A long-lived, multi-tenant query service.
///
/// Every tenant's shards live in one [`SharedStore`] and read through
/// one lock-striped [`SharedBufferPool`]; per-tenant frame quotas (an
/// [`crate::Admission`] gate per tenant) decide *admission*, the pool
/// decides *placement*. Datasets are horizontally partitioned by
/// [`shard_of`], and a tenant is one [`Shards`] index over its
/// partitions, which gathers every query form into the exact
/// single-index answer.
pub struct QueryService {
    store: SharedStore,
    pool: Arc<SharedBufferPool>,
    clock: Arc<dyn Clock>,
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    /// Attach a latency trace to every outcome.
    tracing: AtomicBool,
}

impl QueryService {
    /// A service over `store`, with one shared pool per `config`.
    pub fn new(store: SharedStore, config: ServiceConfig) -> QueryService {
        let pool = SharedBufferPool::new(store.clone(), config.total_frames, config.pool_shards);
        QueryService {
            store,
            pool,
            clock: Arc::new(MonotonicClock::new()),
            tenants: RwLock::new(HashMap::new()),
            tracing: AtomicBool::new(false),
        }
    }

    /// The store tenants' shards are built against.
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// The shared pool's aggregate I/O counters.
    pub fn pool_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Attach a [`QueryTrace`] to every outcome from now on.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Register a tenant from pre-built shards (any backend mix).
    /// Replaces an existing tenant of the same name.
    pub fn register_tenant(
        &self,
        config: TenantConfig,
        shards: Vec<Box<dyn UncertainIndex + Send + Sync>>,
    ) {
        assert!(!shards.is_empty(), "a tenant needs at least one shard");
        let name = config.name.clone();
        let tenant = Arc::new(Tenant::new(config, Shards::new(shards)));
        self.tenants
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name, tenant);
    }

    /// Register a tenant whose dataset is split [`shard_of`]-wise into
    /// `shards` inverted indexes running `strategy`.
    pub fn register_tenant_inverted(
        &self,
        config: TenantConfig,
        domain: &Domain,
        data: &[(u64, Uda)],
        shards: usize,
        strategy: Strategy,
    ) -> Result<()> {
        let boxed = self.build_shards(data, shards, |part, pool| {
            let idx = InvertedIndex::build(domain.clone(), pool, part.iter().copied())?;
            Ok(Box::new(InvertedBackend::with_strategy(idx, strategy)))
        })?;
        self.register_tenant(config, boxed);
        Ok(())
    }

    /// Register a tenant whose dataset is split [`shard_of`]-wise into
    /// `shards` PDR-trees, each bulk-loaded ([`PdrTree::bulk_build`]): the
    /// relation is complete at registration, so there is nothing for
    /// tuple-at-a-time insertion to buy.
    pub fn register_tenant_pdr(
        &self,
        config: TenantConfig,
        domain: &Domain,
        data: &[(u64, Uda)],
        shards: usize,
    ) -> Result<()> {
        let boxed = self.build_shards(data, shards, |part, pool| {
            let tree = PdrTree::bulk_build(
                domain.clone(),
                PdrConfig::default(),
                pool,
                part.iter().copied(),
            )?;
            Ok(Box::new(tree))
        })?;
        self.register_tenant(config, boxed);
        Ok(())
    }

    fn build_shards<F>(
        &self,
        data: &[(u64, Uda)],
        shards: usize,
        build: F,
    ) -> Result<Vec<Box<dyn UncertainIndex + Send + Sync>>>
    where
        F: Fn(
            &[(u64, &Uda)],
            &mut BufferPool,
        ) -> std::result::Result<Box<dyn UncertainIndex + Send + Sync>, StorageError>,
    {
        assert!(shards >= 1, "a tenant needs at least one shard");
        let mut parts: Vec<Vec<(u64, &Uda)>> = vec![Vec::new(); shards];
        for (tid, uda) in data {
            parts[shard_of(*tid, shards)].push((*tid, uda));
        }
        let mut boxed = Vec::with_capacity(shards);
        for part in &parts {
            let mut pool = BufferPool::with_capacity(self.store.clone(), BUILD_FRAMES);
            let shard = build(part, &mut pool)?;
            pool.flush()?;
            boxed.push(shard);
        }
        Ok(boxed)
    }

    /// Registered tenant names, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Snapshot a tenant's aggregate statistics.
    pub fn tenant_stats(&self, name: &str) -> Result<TenantStats> {
        let tenant = self.tenant(name)?;
        let stats = lock_recover(&tenant.stats).clone();
        Ok(stats)
    }

    /// A tenant's live admission gate: `(frames in use, queued
    /// requests)`. Lets operators (and tests) observe backpressure
    /// without perturbing it.
    pub fn tenant_admission(&self, name: &str) -> Result<(usize, usize)> {
        let tenant = self.tenant(name)?;
        Ok((tenant.admission.in_use(), tenant.admission.waiting()))
    }

    fn tenant(&self, name: &str) -> Result<Arc<Tenant>> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownTenant(name.to_string()))
    }

    /// PETQ for `tenant`.
    pub fn petq(&self, tenant: &str, query: &EqQuery) -> Result<ServiceOutcome> {
        self.serve(tenant, |index, pool| index.petq(pool, query))
    }

    /// PEQ-top-k for `tenant`: one search over every shard into one heap
    /// ([`Shards`]).
    pub fn top_k(&self, tenant: &str, query: &TopKQuery) -> Result<ServiceOutcome> {
        self.serve(tenant, |index, pool| index.top_k(pool, query))
    }

    /// DSTQ for `tenant`.
    pub fn dstq(&self, tenant: &str, query: &DstQuery) -> Result<ServiceOutcome> {
        self.serve(tenant, |index, pool| index.dstq(pool, query))
    }

    /// Join `outer` against `tenant`'s index (`threads` workers — at
    /// least one — all sharing the service pool): each probe asks every
    /// shard, so the answer is exactly the unsharded join's.
    pub fn join(
        &self,
        tenant: &str,
        outer: &[(u64, Uda)],
        spec: JoinSpec,
        threads: usize,
    ) -> Result<ServiceJoinOutcome> {
        let tenant = self.tenant(tenant)?;
        let started = self.clock.now_ns();
        // Priced at the workers the join runs: at least one. Saturating, so
        // an absurd thread count is an oversize request, not an overflow.
        let cost = tenant
            .config
            .frames_per_query
            .saturating_mul(threads.max(1));
        let guard = self.admit(&tenant, cost)?;
        let pools = BatchPools::over(self.pool.clone());
        let out = parallel_join(outer, &tenant.index, &self.store, &pools, spec, threads)
            .map_err(|e| self.fail(&tenant, e))?;
        let mut metrics = out.metrics;
        metrics.admission_waits = u64::from(guard.waited());
        drop(guard);
        let wall_ns = self.clock.now_ns().saturating_sub(started);
        self.record(&tenant, &metrics, wall_ns);
        Ok(ServiceJoinOutcome {
            pairs: out.pairs,
            metrics,
            wall_ns,
        })
    }

    /// Admit one request or count its rejection.
    fn admit<'t>(
        &self,
        tenant: &'t Arc<Tenant>,
        cost: usize,
    ) -> Result<crate::admission::AdmitGuard<'t>> {
        match tenant.admission.admit(cost) {
            Some(guard) => Ok(guard),
            None => {
                let mut stats = lock_recover(&tenant.stats);
                stats.rejected += 1;
                stats.metrics.admission_rejects += 1;
                Err(ServiceError::Rejected {
                    tenant: tenant.config.name.clone(),
                })
            }
        }
    }

    /// Count an admitted query that died inside a shard.
    fn fail(&self, tenant: &Tenant, e: StorageError) -> ServiceError {
        lock_recover(&tenant.stats).failed += 1;
        ServiceError::from(e)
    }

    /// Fold a completed query into the tenant's aggregates.
    fn record(&self, tenant: &Tenant, metrics: &QueryMetrics, wall_ns: u64) {
        let mut stats = lock_recover(&tenant.stats);
        stats.metrics.merge(metrics);
        stats.latency.record(wall_ns);
        stats.completed += 1;
    }

    /// The select skeleton: admit, run `probe` on the tenant's index
    /// through [`run_query`] on a fresh handle onto the shared pool (the
    /// query's one ledger, traced when tracing is on), stamp the
    /// admission wait into its counters and fold it into the tenant's
    /// aggregates. Concurrency comes from concurrent queries, not from
    /// inside one (EXPERIMENTS.md, "Scatter threads").
    fn serve<F>(&self, name: &str, probe: F) -> Result<ServiceOutcome>
    where
        F: FnOnce(&Shards, &mut BufferPool) -> std::result::Result<Vec<Match>, StorageError>,
    {
        let tenant = self.tenant(name)?;
        let started = self.clock.now_ns();
        let guard = self.admit(&tenant, tenant.config.frames_per_query)?;
        let clock = self.tracing.load(Ordering::Relaxed).then_some(&self.clock);
        let mut pool = BufferPool::from_handle(self.pool.handle());
        let out = run_query(&mut pool, clock, |pool| probe(&tenant.index, pool))
            .map_err(|e| self.fail(&tenant, e))?;
        let mut metrics = out.metrics;
        metrics.admission_waits = u64::from(guard.waited());
        drop(guard);
        let wall_ns = self.clock.now_ns().saturating_sub(started);
        self.record(&tenant, &metrics, wall_ns);
        Ok(ServiceOutcome {
            matches: out.matches,
            metrics,
            trace: out.trace,
            wall_ns,
        })
    }
}
