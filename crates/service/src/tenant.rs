//! A tenant: one sharded index, an admission gate, and aggregate
//! statistics.

use std::sync::Mutex;

use uncat_query::Shards;
use uncat_storage::trace::LatencyHistogram;
use uncat_storage::QueryMetrics;

use crate::admission::Admission;

/// How a tenant is provisioned.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Tenant name — the routing key for every request.
    pub name: String,
    /// Buffer frames this tenant may have reserved at once. Each
    /// admitted query reserves [`TenantConfig::frames_per_query`], so
    /// the quota caps the tenant's concurrent queries.
    pub frame_quota: usize,
    /// Requests allowed to wait for capacity once the quota is reached;
    /// arrivals beyond this are rejected.
    pub queue_depth: usize,
    /// Frames one query's working set is charged as (the paper's
    /// per-query pool size).
    pub frames_per_query: usize,
}

impl TenantConfig {
    /// A tenant with the paper's per-query frame budget, room for four
    /// concurrent queries, and a queue of four more.
    pub fn new(name: impl Into<String>) -> TenantConfig {
        TenantConfig {
            name: name.into(),
            frame_quota: 400,
            queue_depth: 4,
            frames_per_query: 100,
        }
    }

    /// Set the frame quota.
    pub fn frame_quota(mut self, quota: usize) -> TenantConfig {
        self.frame_quota = quota;
        self
    }

    /// Set the wait-queue depth.
    pub fn queue_depth(mut self, depth: usize) -> TenantConfig {
        self.queue_depth = depth;
        self
    }

    /// Set the per-query frame charge.
    pub fn frames_per_query(mut self, frames: usize) -> TenantConfig {
        self.frames_per_query = frames;
        self
    }
}

/// A tenant's aggregate view: counters summed over every completed
/// query (admission counters included) plus the end-to-end latency
/// histogram. Snapshots are cheap clones; histograms and counters both
/// merge additively, so per-tenant aggregates sum to service-level ones.
#[derive(Clone, Debug, Default)]
pub struct TenantStats {
    /// Execution counters summed over completed queries, plus this
    /// tenant's `admission_rejects`.
    pub metrics: QueryMetrics,
    /// End-to-end (admission wait included) per-query latency.
    pub latency: LatencyHistogram,
    /// Queries that ran to completion.
    pub completed: u64,
    /// Requests turned away by admission control.
    pub rejected: u64,
    /// Admitted queries that died inside a shard with a storage error.
    /// Every request is exactly one of `completed`, `rejected`, `failed`.
    pub failed: u64,
}

/// One registered tenant.
pub(crate) struct Tenant {
    pub(crate) config: TenantConfig,
    /// The tenant's dataset as one index over its horizontal
    /// partitions; a tuple lives in shard [`crate::shard_of`]`(tid, n)`.
    pub(crate) index: Shards,
    pub(crate) admission: Admission,
    pub(crate) stats: Mutex<TenantStats>,
}

impl Tenant {
    pub(crate) fn new(config: TenantConfig, index: Shards) -> Tenant {
        let admission = Admission::new(config.frame_quota, config.queue_depth);
        Tenant {
            config,
            index,
            admission,
            stats: Mutex::new(TenantStats::default()),
        }
    }
}
