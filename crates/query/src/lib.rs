//! Unified query execution over uncertain-data indexes.
//!
//! * [`UncertainIndex`] — one trait for both paper indexes plus the
//!   full-scan baseline, so benchmarks and joins are generic.
//! * [`TopKSearch`] — one index's share of a top-k that several indexes
//!   answer into one heap ([`UncertainIndex::top_k_search`]): the
//!   PDR-tree steps its best-first search node by node, and an inverted
//!   index under `Strategy::Auto` joins one threshold run with every
//!   other such index of the top-k ([`TopKPart`]); any other index runs
//!   its `top_k` once, floored at the heap's threshold. [`Shards`]
//!   drives it.
//! * [`Shards`] — indexes whose tuple ids partition one relation, as one
//!   [`UncertainIndex`]: the one scatter-gather, which a service tenant
//!   is and a join probes.
//! * [`ScanBaseline`] — evaluates every query by scanning the tuple heap;
//!   the correctness oracle and the "no index" comparison point.
//! * [`run_query`] — the one probe runner: a query on a pool under a
//!   root span, returned with the pool's ledger
//!   ([`uncat_storage::QueryMetrics`], see `docs/METRICS.md`) and trace.
//!   Hand it a fresh 100-frame pool for the paper's per-query setup.
//! * [`join`] — the join operators built on the select primitives: PETJ
//!   (Definition 6), PEJ-top-k, and DSTJ, each with block, index, and
//!   parallel physical plans (both index plans run one per-outer probe;
//!   PEJ-top-k carries a rising score floor into every probe's query).
//! * [`parallel`] — batch execution across threads (each query gets its
//!   own buffer pool, exactly like the paper's per-query setup).
//! * [`planner`] — the inverted index's PETQ ranking by page reads, from
//!   zero-I/O statistics (DESIGN.md §6h). No query is routed by it; the
//!   benchmark's `query.planner.plan_petq_ns` probe times it.
//! * [`durable`] — [`DurableIndex`], crash-safe online mutation for both
//!   paper indexes: write-ahead logging with group commit, no-steal
//!   buffering, redo-journaled checkpoints, and recovery that truncates
//!   torn log tails and replays the rest (DESIGN.md §6f).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
mod executor;
mod index_trait;
pub mod join;
pub mod parallel;
pub mod planner;
mod scan;
mod shards;

pub use durable::{
    split_snapshot, CheckpointCrash, DurableConfig, DurableIndex, DurableStorage, FileSlot,
    LogRecord, MemSlot, MutableBackend, RecoveryReport, SnapshotSlot,
};
pub use executor::{run_query, QueryOutcome};
pub use index_trait::{InvertedBackend, TopKPart, TopKSearch, UncertainIndex};
pub use parallel::{batch_trace, BatchPools};
pub use planner::Planner;
pub use scan::ScanBaseline;
pub use shards::Shards;
