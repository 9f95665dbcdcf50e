//! The frozen surface: the only file that names an `uncat_*` crate.
//!
//! Every other module reaches the system through these re-exports, so
//! this file is the complete list of what a change to the repository
//! can break in the benchmark (`benchmark/README.md` lists the functions
//! called on each type). A later issue that renames or deletes one of
//! these re-points it here first.

// --- End-to-end path -------------------------------------------------
// The timed windows call nothing but these.

/// `QueryService::{new, register_tenant_inverted, register_tenant_pdr,
/// petq, top_k, dstq, pool_stats, tenant_stats}`.
pub use uncat_service::{QueryService, ServiceConfig, ServiceError, ServiceOutcome, TenantConfig};

/// `DurableIndex::{create, open, insert, update, delete, petq, top_k,
/// dstq, checkpoint, flush_wal, tuple_count, wal_stats}` (the traced
/// pass calls the `_metered` twins of the three reads to get counters),
/// `DurableStorage::open_files`.
pub use uncat_query::{DurableConfig, DurableIndex, DurableStorage, InvertedBackend};

/// `crm::crm1` is the data; queries are drawn from the data.
pub use uncat_datagen::crm::{crm1, DOMAIN_SIZE};
pub use uncat_datagen::Dataset;

/// Query and answer types, and the ground truth the checker computes
/// from the raw dataset: `eq_prob`, `Divergence::eval`, `encoded_len`.
pub use uncat_core::codec::{decode as codec_decode, encode_to_vec, encoded_len};
pub use uncat_core::equality::eq_prob;
pub use uncat_core::query::{DstQuery, EqQuery, Match, TopKQuery};
pub use uncat_core::{CatId, Divergence, Domain, Uda};

/// Stores handed to the service: `InMemoryDisk::shared`,
/// `FileDisk::create`, and `PageStore::num_pages` to size them.
pub use uncat_storage::{
    FileDisk, InMemoryDisk, IoStats, QueryMetrics, SharedStore, WalStats, PAGE_SIZE,
};

/// `InvertedIndex::build` inside `DurableIndex::create`'s init closure,
/// with the strategy every tenant gets.
pub use uncat_inverted::{InvertedIndex, Strategy};

// --- Layer probes ----------------------------------------------------
// One public entry point per probe, the unmetered one where a twin
// exists.

pub use uncat_inverted::{decode_block, encode_block};
pub use uncat_pdrtree::config::Compression;
pub use uncat_pdrtree::{Boundary, PdrConfig, PdrTree};
pub use uncat_query::join::{index_join, JoinSpec};
pub use uncat_query::parallel::{petq_batch_with, BatchPools};
pub use uncat_query::{Planner, ScanBaseline, UncertainIndex};
pub use uncat_service::Admission;
pub use uncat_storage::btree::BTree;
pub use uncat_storage::crc::crc32c;
pub use uncat_storage::page::zeroed_page;
pub use uncat_storage::{
    BufferPool, FileLog, HeapFile, PageId, PageStore, SharedBufferPool, SharedLog, Wal, WalConfig,
};
