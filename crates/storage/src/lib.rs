//! Paged storage substrate for the uncertain-data indexes.
//!
//! The ICDE'07 evaluation measures *disk I/Os through a buffer manager*:
//! 8 KB pages, a 100-frame buffer pool per query, clock replacement. This
//! crate reproduces that measurement substrate:
//!
//! * [`page`] — the 8 KB page unit and little-endian field accessors.
//! * [`disk`] — [`disk::PageStore`], the simulated disk: an in-memory page
//!   array with physical read/write counters.
//! * [`shared`] — [`shared::SharedBufferPool`], the one buffer manager: a
//!   lock-striped ring of frames with clock replacement, RAII
//!   pinning, an optional no-steal discipline and per-handle I/O
//!   attribution.
//! * [`buffer`] — [`buffer::BufferPool`], what index code sees: a
//!   per-query handle on a ring (its own one-stripe ring — the paper's
//!   private 100-frame pool — or one shared with concurrent queries via
//!   [`buffer::BufferPool::from_handle`]) plus the query's tracer and
//!   counters. All index structures read pages exclusively through it,
//!   so its misses *are* the paper's I/O metric.
//! * [`heap`] — a slotted-page heap file; the tuple store that random-access
//!   candidate verification reads from.
//! * [`btree`] — a paged B+tree with fixed-width keys/values: the layout
//!   of the inverted index's old `UIV1` posting lists, kept for
//!   `uncat upgrade` and one benchmark probe, and the order-preserving
//!   key encodings.
//! * [`metrics`] — [`metrics::QueryMetrics`], the query-level execution
//!   counters every search path in the workspace populates (documented
//!   counter by counter in `docs/METRICS.md`).
//! * [`trace`] — [`trace::Tracer`], the opt-in latency layer: per-query
//!   span trees and mergeable log-bucketed latency histograms riding on
//!   the same pool the counters do (DESIGN.md §6g).
//! * [`wal`] — [`wal::Wal`], an append-only write-ahead log with
//!   CRC32C-framed records, group commit, and a reader that truncates a
//!   torn tail at the first bad record; the durability substrate for
//!   online index mutation (DESIGN.md §6f).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btree;
pub mod buffer;
pub mod crc;
pub mod disk;
pub mod error;
pub mod fault;
pub mod file_disk;
pub mod heap;
pub mod metrics;
pub mod page;
pub mod shared;
pub mod snapshot;
pub mod stats;
pub mod trace;
pub mod wal;

/// Cases per property in this crate's unit tests: `default`, or
/// `PROPTEST_CASES` when set (the nightly job runs them at 256).
#[cfg(test)]
pub(crate) fn proptest_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

pub use buffer::BufferPool;
pub use disk::{InMemoryDisk, PageStore, SharedStore};
pub use error::{Result, StorageError};
pub use fault::{Fault, FaultLog, FaultStore, LogFault};
pub use file_disk::FileDisk;
pub use heap::{HeapFile, RecordId};
pub use metrics::QueryMetrics;
pub use page::{PageId, PAGE_SIZE};
pub use shared::{PinGuard, PoolHandle, SharedBufferPool, DEFAULT_SHARDS};
pub use stats::IoStats;
pub use trace::{
    Clock, FakeClock, LatencyHistogram, MonotonicClock, Phase, QueryTrace, Span, SpanId,
    TraceHistograms, Tracer,
};
pub use wal::{
    FileLog, LogDevice, LogScan, MemLog, SharedLog, TailStatus, Wal, WalConfig, WalStats,
};
