//! Multi-tenant sharded query service over the uncertain-data indexes.
//!
//! A [`QueryService`] is the long-lived deployment shape of this
//! workspace: many named tenants, each a horizontally partitioned
//! dataset (hash on tuple id, [`shard_of`]) indexed shard-by-shard with
//! either paper index, all reading through **one** lock-striped
//! [`uncat_storage::SharedBufferPool`]. What keeps tenants honest is
//! admission control, not the pool: every query reserves its tenant's
//! per-query frame charge at an [`Admission`] gate before touching a
//! page, waits in a bounded queue when the tenant is at quota, and is
//! rejected (typed, counted) when the queue is full too.
//!
//! A tenant is one index: [`uncat_query::Shards`] over its shards, which
//! gathers every query form into the exact single-index answer.
//! Threshold queries concatenate shard results (the shards partition the
//! tuple ids); a top-k is one search over every shard sharing one heap,
//! so a PDR-tree shard opens only nodes whose bound reaches the k-th
//! best of the whole tenant, and the inverted shards run one threshold
//! run over all their lists, which prunes each at the tenant's θ; a join
//! probes the tenant's index once per outer tuple. A PETQ, top-k or DSTQ
//! runs on one handle onto the pool, so its
//! [`uncat_storage::QueryMetrics`] are one ledger and its latency trace
//! has one root. The service itself keeps only admission and
//! bookkeeping.
//!
//! See `docs/SERVICE.md` for the full design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod error;
mod service;
mod tenant;

pub use admission::{Admission, AdmitGuard};
pub use error::{Result, ServiceError};
pub use service::{shard_of, QueryService, ServiceConfig, ServiceJoinOutcome, ServiceOutcome};
pub use tenant::{TenantConfig, TenantStats};
