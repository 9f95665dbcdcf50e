//! Online mutable indexes: write-ahead logging, checkpoints, recovery.
//!
//! Both paper indexes support in-place mutation (`insert`/`update`/
//! `delete`), but a mutation that dies halfway through its page writes
//! would leave the on-disk structure unreadable. [`DurableIndex`] makes
//! mutation crash-safe with three cooperating mechanisms (DESIGN.md §6f):
//!
//! 1. **Write-ahead log.** Every mutation is appended to a
//!    [`Wal`] (CRC-framed, group-committed) *before*
//!    any page is touched. A logged-and-synced mutation survives a crash;
//!    an unsynced one is cleanly truncated away on reopen.
//! 2. **No-steal buffering.** The index's pages are mutated only inside a
//!    no-steal [`BufferPool`]: dirty pages are *never* written back
//!    outside a checkpoint, so the durable page image always equals the
//!    last checkpoint exactly, and WAL replay starts from a known state.
//!    (Logical replay over half-applied pages would double-apply.)
//! 3. **Checkpoint redo journal.** A checkpoint must install many pages
//!    plus a metadata snapshot atomically. It first writes all of them to
//!    a side journal (same CRC framing), syncs it, and only then installs.
//!    Recovery redoes a complete journal and ignores an incomplete one —
//!    either way the store is consistent.
//!
//! Epochs tie the three together: every checkpoint advances an epoch
//! counter stored in the snapshot, and the WAL's first record names the
//! epoch it extends. Recovery replays the WAL only when the epochs match;
//! a stale log (its effects already folded into a newer checkpoint) is
//! discarded, and a log from the *future* is reported as corruption
//! rather than replayed onto the wrong base.
//!
//! Failure handling is fail-stop: once a mutation has been logged, any
//! error applying it (or any error inside a checkpoint) **poisons** the
//! index — every further operation returns
//! [`StorageError::Poisoned`] until the index is reopened, which re-runs
//! recovery and restores log/state agreement.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::sync::Mutex;

use uncat_core::query::{DsTopKQuery, DstQuery, EqQuery, Match, TopKQuery};
use uncat_core::{codec, Uda};
use uncat_inverted::InvertedIndex;
use uncat_pdrtree::PdrTree;
use uncat_storage::page::PageBuf;
use uncat_storage::snapshot as snapfile;
use uncat_storage::trace::{Clock, Phase, QueryTrace, Tracer};
use uncat_storage::{
    BufferPool, FileDisk, FileLog, InMemoryDisk, IoStats, MemLog, PageId, QueryMetrics, Result,
    SharedLog, SharedStore, StorageError, TailStatus, Wal, WalConfig, WalStats, PAGE_SIZE,
};

use crate::index_trait::{InvertedBackend, UncertainIndex};

// --- Snapshot slot ---

/// Where the crash-atomic metadata snapshot lives.
///
/// `commit` must be atomic under crashes: after a crash, `load` returns
/// either the previous snapshot or the new one, never a torn mix. The
/// file implementation gets this from the temp-file/fsync/rename protocol
/// of [`uncat_storage::snapshot::commit`]; the in-memory implementation
/// is trivially atomic.
pub trait SnapshotSlot: Send + Sync {
    /// Atomically replace the stored snapshot with `blob`.
    fn commit(&self, blob: &[u8]) -> Result<()>;
    /// The stored snapshot, or `None` if none was ever committed.
    fn load(&self) -> Result<Option<Vec<u8>>>;
}

/// In-memory snapshot slot for tests and simulations.
#[derive(Default)]
pub struct MemSlot {
    blob: Mutex<Option<Vec<u8>>>,
}

impl MemSlot {
    /// A fresh, empty slot.
    pub fn new() -> MemSlot {
        MemSlot::default()
    }
}

impl SnapshotSlot for MemSlot {
    fn commit(&self, blob: &[u8]) -> Result<()> {
        let mut g = self.blob.lock().unwrap_or_else(|p| p.into_inner());
        *g = Some(blob.to_vec());
        Ok(())
    }

    fn load(&self) -> Result<Option<Vec<u8>>> {
        let g = self.blob.lock().unwrap_or_else(|p| p.into_inner());
        Ok(g.clone())
    }
}

/// File-backed snapshot slot using the crash-atomic snapshot file
/// protocol (temp file, fsync, rename, directory fsync).
pub struct FileSlot {
    path: PathBuf,
}

impl FileSlot {
    /// A slot at `path`. The file need not exist yet.
    pub fn new(path: impl Into<PathBuf>) -> FileSlot {
        FileSlot { path: path.into() }
    }
}

impl SnapshotSlot for FileSlot {
    fn commit(&self, blob: &[u8]) -> Result<()> {
        snapfile::commit(&self.path, blob)
    }

    fn load(&self) -> Result<Option<Vec<u8>>> {
        if !self.path.exists() {
            return Ok(None);
        }
        snapfile::load(&self.path).map(Some)
    }
}

// --- Log record codec ---

const REC_BEGIN_EPOCH: u8 = 0;
const REC_INSERT: u8 = 1;
const REC_UPDATE: u8 = 2;
const REC_DELETE: u8 = 3;

/// One logical WAL record. UDAs ride in the shared
/// [`uncat_core::codec`] encoding, so a replayed distribution is
/// bit-identical to the one originally indexed.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// First record of every log: names the checkpoint epoch the
    /// following mutations extend.
    BeginEpoch(u64),
    /// Insert a new tuple (pre-validated: `tid` was absent at log time).
    Insert {
        /// Tuple id.
        tid: u64,
        /// Its distribution.
        uda: Uda,
    },
    /// Upsert a tuple's distribution.
    Update {
        /// Tuple id.
        tid: u64,
        /// The replacement distribution.
        uda: Uda,
    },
    /// Delete a tuple (pre-validated: `tid` was present at log time).
    Delete {
        /// Tuple id.
        tid: u64,
    },
}

impl LogRecord {
    /// Serialize to a WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = vec![match self {
            LogRecord::BeginEpoch(_) => REC_BEGIN_EPOCH,
            LogRecord::Insert { .. } => REC_INSERT,
            LogRecord::Update { .. } => REC_UPDATE,
            LogRecord::Delete { .. } => REC_DELETE,
        }];
        match self {
            LogRecord::BeginEpoch(n) | LogRecord::Delete { tid: n } => {
                v.extend_from_slice(&n.to_le_bytes())
            }
            LogRecord::Insert { tid, uda } | LogRecord::Update { tid, uda } => {
                codec::encode_record(*tid, uda, &mut v)
            }
        }
        v
    }

    /// Decode a WAL payload. The framing layer has already checked the
    /// CRC, so a decode failure here means a logic error or version skew,
    /// not a torn write — it is reported as corruption, never replayed.
    pub fn decode(bytes: &[u8]) -> Result<LogRecord> {
        let (&tag, rest) = bytes
            .split_first()
            .ok_or(StorageError::Corrupt("empty log record"))?;
        // A whole body of exactly one u64, or `what`.
        let u64_of = |what| {
            <[u8; 8]>::try_from(rest)
                .map(u64::from_le_bytes)
                .map_err(|_| StorageError::Corrupt(what))
        };
        match tag {
            REC_BEGIN_EPOCH => Ok(LogRecord::BeginEpoch(u64_of("begin-epoch record length")?)),
            REC_INSERT | REC_UPDATE => {
                let (tid, uda, used) = codec::scan_record(rest)
                    .and_then(|(tid, mut uda, used)| Ok((tid, uda.to_uda()?, used)))
                    .map_err(|_| StorageError::Corrupt("log record uda does not decode"))?;
                if used != rest.len() {
                    return Err(StorageError::Corrupt("trailing bytes in log record"));
                }
                Ok(if tag == REC_INSERT {
                    LogRecord::Insert { tid, uda }
                } else {
                    LogRecord::Update { tid, uda }
                })
            }
            REC_DELETE => Ok(LogRecord::Delete {
                tid: u64_of("delete record length")?,
            }),
            _ => Err(StorageError::Corrupt("unknown log record tag")),
        }
    }
}

// --- Checkpoint journal codec ---

const J_HEADER: u8 = 0x10;
const J_PAGE: u8 = 0x11;
const J_SNAPSHOT: u8 = 0x12;
const J_COMMIT: u8 = 0x13;

fn j_header(base_epoch: u64, new_epoch: u64, page_count: u32) -> Vec<u8> {
    let mut v = vec![J_HEADER];
    v.extend_from_slice(&base_epoch.to_le_bytes());
    v.extend_from_slice(&new_epoch.to_le_bytes());
    v.extend_from_slice(&page_count.to_le_bytes());
    v
}

fn j_page(pid: PageId, buf: &[u8; PAGE_SIZE]) -> Vec<u8> {
    let mut v = vec![J_PAGE];
    v.extend_from_slice(&pid.0.to_le_bytes());
    v.extend_from_slice(buf);
    v
}

fn j_snapshot(blob: &[u8]) -> Vec<u8> {
    let mut v = vec![J_SNAPSHOT];
    v.extend_from_slice(blob);
    v
}

/// A fully parsed, committed checkpoint journal.
struct JournalImage {
    base_epoch: u64,
    new_epoch: u64,
    pages: Vec<(PageId, PageBuf)>,
    snapshot: Vec<u8>,
}

/// Parse journal records into a redo image. Returns `None` for anything
/// short of a complete `header, pages…, snapshot, commit` sequence: an
/// incomplete journal is the normal result of crashing mid-checkpoint
/// (before the install phase started) and is simply discarded.
fn parse_journal(records: &[Vec<u8>]) -> Option<JournalImage> {
    let mut it = records.iter();
    let header = it.next()?;
    if header.len() != 1 + 8 + 8 + 4 || header[0] != J_HEADER {
        return None;
    }
    let base_epoch = u64::from_le_bytes(header[1..9].try_into().ok()?);
    let new_epoch = u64::from_le_bytes(header[9..17].try_into().ok()?);
    let count = u32::from_le_bytes(header[17..21].try_into().ok()?) as usize;
    let mut pages = Vec::with_capacity(count.min(records.len()));
    for _ in 0..count {
        let rec = it.next()?;
        if rec.len() != 1 + 8 + PAGE_SIZE || rec[0] != J_PAGE {
            return None;
        }
        let pid = PageId(u64::from_le_bytes(rec[1..9].try_into().ok()?));
        let mut buf = uncat_storage::page::zeroed_page();
        buf.copy_from_slice(&rec[9..]);
        pages.push((pid, buf));
    }
    let snap = it.next()?;
    if snap.first() != Some(&J_SNAPSHOT) {
        return None;
    }
    let commit = it.next()?;
    if commit.as_slice() != [J_COMMIT] || it.next().is_some() {
        return None;
    }
    Some(JournalImage {
        base_epoch,
        new_epoch,
        pages,
        snapshot: snap[1..].to_vec(),
    })
}

// --- Epoch wrapper around backend snapshots ---

const WRAP_MAGIC: &[u8; 4] = b"UDX1";

fn wrap_blob(epoch: u64, inner: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(12 + inner.len());
    v.extend_from_slice(WRAP_MAGIC);
    v.extend_from_slice(&epoch.to_le_bytes());
    v.extend_from_slice(inner);
    v
}

/// Split a committed durable snapshot payload into its checkpoint epoch
/// and the wrapped backend blob: the one `UDX1` unwrapper, which
/// [`DurableIndex::open`] and tooling that reads the snapshot slot
/// directly (the CLI's read path and `uncat upgrade`) share.
pub fn split_snapshot(blob: &[u8]) -> Result<(u64, &[u8])> {
    if blob.len() < 12 || &blob[..4] != WRAP_MAGIC {
        return Err(StorageError::Corrupt("snapshot wrapper: bad magic"));
    }
    let epoch = u64::from_le_bytes(blob[4..12].try_into().expect("8-byte slice"));
    Ok((epoch, &blob[12..]))
}

// --- Mutable backends ---

/// The mutation-side contract a backend must satisfy to run under a
/// [`DurableIndex`]. Apply methods are called *after* the mutation has
/// been logged (and on replay during recovery); they must be
/// deterministic given the same starting state and mutation sequence.
pub trait MutableBackend: UncertainIndex + Sized {
    /// Apply an insert. The durable layer has already rejected duplicate
    /// tuple ids before logging.
    fn apply_insert(&mut self, pool: &mut BufferPool, tid: u64, uda: &Uda) -> Result<()>;
    /// Apply an upsert; returns whether a previous distribution existed.
    fn apply_update(&mut self, pool: &mut BufferPool, tid: u64, uda: &Uda) -> Result<bool>;
    /// Apply a delete; returns whether the tuple existed.
    fn apply_delete(&mut self, pool: &mut BufferPool, tid: u64) -> Result<bool>;
    /// Whether `tid` is currently indexed.
    fn contains(&self, pool: &mut BufferPool, tid: u64) -> Result<bool>;
    /// Whether the backend can index `tid` at all. The durable layer asks
    /// before it logs an insert or an upsert, so a tuple id the backend
    /// would refuse is refused with nothing written. The default admits
    /// every id.
    fn admits(&self, _tid: u64) -> Result<()> {
        Ok(())
    }
    /// Serialize the backend's metadata (paired with a page store holding
    /// its pages).
    fn snapshot_blob(&self) -> Vec<u8>;
    /// Reattach a backend from [`MutableBackend::snapshot_blob`] output
    /// over the same page store, `store`: a backend may check its pages
    /// there before it answers anything (the inverted index refuses a
    /// file in a retired layout).
    fn open_blob(blob: &[u8], store: &SharedStore) -> Result<Self>;
}

impl MutableBackend for InvertedBackend {
    fn apply_insert(&mut self, pool: &mut BufferPool, tid: u64, uda: &Uda) -> Result<()> {
        self.index.insert(pool, tid, uda)
    }

    fn apply_update(&mut self, pool: &mut BufferPool, tid: u64, uda: &Uda) -> Result<bool> {
        self.index.update(pool, tid, uda)
    }

    fn apply_delete(&mut self, pool: &mut BufferPool, tid: u64) -> Result<bool> {
        self.index.delete(pool, tid)
    }

    fn contains(&self, _pool: &mut BufferPool, tid: u64) -> Result<bool> {
        Ok(self.index.contains(tid))
    }

    fn admits(&self, tid: u64) -> Result<()> {
        InvertedIndex::admits(tid)
    }

    fn snapshot_blob(&self) -> Vec<u8> {
        self.index.snapshot()
    }

    fn open_blob(blob: &[u8], store: &SharedStore) -> Result<InvertedBackend> {
        let index = InvertedIndex::open(blob)?;
        index.check_layout(store)?;
        Ok(InvertedBackend::new(index))
    }
}

impl MutableBackend for PdrTree {
    fn apply_insert(&mut self, pool: &mut BufferPool, tid: u64, uda: &Uda) -> Result<()> {
        PdrTree::insert(self, pool, tid, uda)
    }

    fn apply_update(&mut self, pool: &mut BufferPool, tid: u64, uda: &Uda) -> Result<bool> {
        PdrTree::update(self, pool, tid, uda)
    }

    fn apply_delete(&mut self, pool: &mut BufferPool, tid: u64) -> Result<bool> {
        Ok(PdrTree::delete(self, pool, tid)?.is_some())
    }

    fn contains(&self, pool: &mut BufferPool, tid: u64) -> Result<bool> {
        Ok(self.find_tuple(pool, tid)?.is_some())
    }

    fn snapshot_blob(&self) -> Vec<u8> {
        self.snapshot()
    }

    fn open_blob(blob: &[u8], _store: &SharedStore) -> Result<PdrTree> {
        PdrTree::open(blob)
    }
}

// --- Durable storage bundle ---

/// The four durable locations a [`DurableIndex`] spans: the page store,
/// the write-ahead log, the checkpoint redo journal, and the metadata
/// snapshot slot. Clone it to "reboot" in tests: drop the index, keep the
/// bundle, reopen.
#[derive(Clone)]
pub struct DurableStorage {
    /// Page store holding index pages (heap, postings, tree nodes).
    pub store: SharedStore,
    /// Write-ahead log device.
    pub wal: SharedLog,
    /// Checkpoint redo-journal device.
    pub journal: SharedLog,
    /// Crash-atomic metadata snapshot slot.
    pub slot: Arc<dyn SnapshotSlot>,
}

impl DurableStorage {
    /// An all-in-memory bundle for tests and simulations.
    pub fn in_memory() -> DurableStorage {
        DurableStorage {
            store: InMemoryDisk::shared(),
            wal: MemLog::shared(),
            journal: MemLog::shared(),
            slot: Arc::new(MemSlot::new()),
        }
    }

    /// A file-backed bundle rooted at an existing page file plus three
    /// sibling files (created on demand): the WAL, the journal, and the
    /// snapshot. `create` makes a fresh page file; otherwise the existing
    /// one is opened.
    pub fn open_files(
        pages: &Path,
        wal: &Path,
        journal: &Path,
        snapshot: &Path,
        create: bool,
    ) -> Result<DurableStorage> {
        let store: SharedStore = if create {
            Arc::new(FileDisk::create(pages).map_err(|e| StorageError::io("create", None, e))?)
        } else {
            Arc::new(FileDisk::open(pages).map_err(|e| StorageError::io("open", None, e))?)
        };
        Ok(DurableStorage {
            store,
            wal: Arc::new(FileLog::open_or_create(wal)?),
            journal: Arc::new(FileLog::open_or_create(journal)?),
            slot: Arc::new(FileSlot::new(snapshot)),
        })
    }
}

// --- Configuration ---

/// Crash-point injection inside [`DurableIndex::checkpoint`], for
/// recovery testing: the checkpoint fails (with a typed I/O error, and
/// the index poisoned) immediately *after* the named phase completed, so
/// a reopen exercises recovery from exactly that boundary. Fires once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointCrash {
    /// No injection.
    #[default]
    None,
    /// Crash after the redo journal is written and synced, before any
    /// page is installed.
    AfterJournal,
    /// Crash after the dirty pages are installed into the store, before
    /// the snapshot commit.
    AfterInstall,
    /// Crash after the snapshot commit, before the WAL reset.
    AfterSnapshot,
    /// Crash after the WAL reset and begin-epoch append, before the
    /// journal is cleared.
    AfterWalReset,
}

/// Tuning knobs for a [`DurableIndex`].
#[derive(Debug, Clone, Copy)]
pub struct DurableConfig {
    /// WAL group-commit window (records per fsync). `1` = sync every
    /// mutation; larger windows trade a bounded loss window for fewer
    /// fsyncs.
    pub group_commit: usize,
    /// Frames in the index's private no-steal buffer pool.
    pub pool_frames: usize,
    /// Checkpoint automatically after this many mutations (`0` disables
    /// the count trigger; the dirty-page watermark still applies).
    pub checkpoint_every: u64,
    /// Crash-point injection for recovery tests.
    pub crash: CheckpointCrash,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            group_commit: 1,
            pool_frames: 64,
            checkpoint_every: 0,
            crash: CheckpointCrash::None,
        }
    }
}

/// What recovery found and did while opening a [`DurableIndex`].
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The epoch the index resumed at.
    pub epoch: u64,
    /// Mutation records replayed from the WAL tail.
    pub replayed_records: u64,
    /// How the WAL ended (a torn tail was truncated at the first bad
    /// record before replay).
    pub wal_tail: TailStatus,
    /// Whether a complete checkpoint journal was redone.
    pub journal_redone: bool,
    /// Whether a stale WAL (already folded into a newer checkpoint) was
    /// discarded instead of replayed.
    pub stale_wal_discarded: bool,
}

// --- The durable index ---

/// A crash-safe mutable index: a [`MutableBackend`] plus its private
/// no-steal pool, write-ahead log, checkpoint journal, and snapshot slot.
///
/// Mutations are logged before they touch a page; queries run against the
/// live (buffered) state through the index's own pool. Call
/// [`DurableIndex::checkpoint`] (or configure auto-checkpointing) to fold
/// the log into a new durable base and truncate it.
pub struct DurableIndex<B: MutableBackend> {
    backend: B,
    pool: BufferPool,
    wal: Wal,
    storage: DurableStorage,
    config: DurableConfig,
    epoch: u64,
    poisoned: bool,
    mutations_since_checkpoint: u64,
    replayed_records: u64,
}

impl<B: MutableBackend> DurableIndex<B> {
    /// Build a fresh durable index: `init` constructs the backend (for
    /// example via `InvertedIndex::build` or `PdrTree::new`) against the
    /// index's no-steal pool, then an initial checkpoint publishes it.
    /// The index is durable from the moment this returns; a crash before
    /// that leaves nothing recoverable (creation is not atomic, the first
    /// checkpoint's snapshot commit is the publish point).
    pub fn create<F>(storage: DurableStorage, config: DurableConfig, init: F) -> Result<Self>
    where
        F: FnOnce(&mut BufferPool) -> Result<B>,
    {
        let mut pool = BufferPool::new_no_steal(storage.store.clone(), config.pool_frames);
        let backend = init(&mut pool)?;
        let wal = Wal::new(
            storage.wal.clone(),
            WalConfig {
                group_commit: config.group_commit,
            },
        );
        let mut idx = DurableIndex {
            backend,
            pool,
            wal,
            storage,
            config,
            epoch: 0,
            poisoned: false,
            mutations_since_checkpoint: 0,
            replayed_records: 0,
        };
        idx.checkpoint()?;
        Ok(idx)
    }

    /// Reopen a durable index after a shutdown or crash: load the last
    /// committed snapshot, redo a completed checkpoint journal if one was
    /// interrupted mid-install, repair the WAL's tail, and replay its
    /// mutations. Returns the index positioned exactly where the last
    /// acknowledged (synced) mutation left it, plus a report of what
    /// recovery did. A backend that refuses its pages
    /// ([`MutableBackend::open_blob`]: an inverted index in a retired
    /// layout) fails the open before the log is replayed.
    pub fn open(storage: DurableStorage, config: DurableConfig) -> Result<(Self, RecoveryReport)> {
        // 1. The last committed snapshot names the base epoch.
        let mut blob = storage.slot.load()?.ok_or(StorageError::Corrupt(
            "no committed snapshot to recover from",
        ))?;
        let (mut epoch, _) = split_snapshot(&blob)?;

        // 2. Redo an interrupted checkpoint. A complete journal whose
        //    base epoch matches the loaded snapshot means the crash hit
        //    between "journal synced" and "snapshot committed": reinstall
        //    its pages (idempotent) and finish the snapshot commit. Any
        //    other journal content is a discarded torso.
        let jscan = Wal::scan(storage.journal.as_ref())?;
        let mut journal_redone = false;
        if let Some(img) = parse_journal(&jscan.records) {
            if img.base_epoch == epoch {
                for (pid, buf) in &img.pages {
                    storage.store.write(*pid, buf)?;
                }
                storage.slot.commit(&img.snapshot)?;
                epoch = img.new_epoch;
                blob = img.snapshot;
                journal_redone = true;
            }
        }
        storage.journal.truncate(0)?;

        let (snap_epoch, inner) = split_snapshot(&blob)?;
        debug_assert_eq!(snap_epoch, epoch);
        let backend = B::open_blob(inner, &storage.store)?;
        let pool = BufferPool::new_no_steal(storage.store.clone(), config.pool_frames);

        // 3. Repair and replay the WAL.
        let (wal, scan) = Wal::open(
            storage.wal.clone(),
            WalConfig {
                group_commit: config.group_commit,
            },
        )?;
        let wal_tail = scan.tail;
        let mut idx = DurableIndex {
            backend,
            pool,
            wal,
            storage,
            config,
            epoch,
            poisoned: false,
            mutations_since_checkpoint: 0,
            replayed_records: 0,
        };
        let mut replayed = 0u64;
        let mut stale_wal_discarded = false;
        if scan.records.is_empty() {
            // Fresh or fully-torn log: seal the current epoch.
            idx.wal.append(&LogRecord::BeginEpoch(epoch).encode())?;
            idx.wal.flush()?;
        } else {
            let LogRecord::BeginEpoch(log_epoch) = LogRecord::decode(&scan.records[0])? else {
                return Err(StorageError::Corrupt(
                    "write-ahead log does not start with a begin-epoch record",
                ));
            };
            if log_epoch > epoch {
                return Err(StorageError::Corrupt(
                    "write-ahead log is ahead of the snapshot",
                ));
            }
            if log_epoch < epoch {
                // The crash hit after the snapshot commit but before the
                // WAL reset: these mutations are already folded into the
                // snapshot (via the journal's pages). Replaying them
                // would double-apply.
                idx.wal.reset()?;
                idx.wal.append(&LogRecord::BeginEpoch(epoch).encode())?;
                idx.wal.flush()?;
                stale_wal_discarded = true;
            } else {
                for rec in &scan.records[1..] {
                    idx.apply(&LogRecord::decode(rec)?)?;
                    replayed += 1;
                }
                idx.mutations_since_checkpoint = replayed;
            }
        }
        idx.replayed_records = replayed;
        let report = RecoveryReport {
            epoch: idx.epoch,
            replayed_records: replayed,
            wal_tail,
            journal_redone,
            stale_wal_discarded,
        };
        Ok((idx, report))
    }

    fn fail_if_poisoned(&self) -> Result<()> {
        if self.poisoned {
            return Err(StorageError::Poisoned);
        }
        Ok(())
    }

    fn poison(&mut self, e: StorageError) -> StorageError {
        self.poisoned = true;
        e
    }

    /// Apply a logged mutation to the backend (also the replay path).
    fn apply(&mut self, rec: &LogRecord) -> Result<()> {
        match rec {
            LogRecord::BeginEpoch(_) => Err(StorageError::Corrupt(
                "begin-epoch record in the middle of a log",
            )),
            LogRecord::Insert { tid, uda } => self.backend.apply_insert(&mut self.pool, *tid, uda),
            LogRecord::Update { tid, uda } => self
                .backend
                .apply_update(&mut self.pool, *tid, uda)
                .map(|_| ()),
            LogRecord::Delete { tid } => {
                self.backend.apply_delete(&mut self.pool, *tid).map(|_| ())
            }
        }
    }

    /// Log, then apply, then maybe auto-checkpoint. Any failure after the
    /// append starts poisons the index: the log and the in-memory state
    /// can no longer be assumed to agree, and a reopen re-syncs them.
    fn commit_mutation(&mut self, rec: LogRecord) -> Result<()> {
        // An error return leaves the mutation span open; the tracer
        // force-closes it when the trace is taken.
        let span = self.pool.trace_begin(Phase::Mutation);
        let before = self.wal.stats();
        let t0 = self.pool.tracer_mut().now_ns();
        let logged = self.wal.append(&rec.encode());
        let after = self.wal.stats();
        if let Some(t0) = t0 {
            let dur = self
                .pool
                .tracer_mut()
                .now_ns()
                .unwrap_or(t0)
                .saturating_sub(t0);
            // An append that closes a group-commit window performs the
            // fsync inside the same call, so the whole duration is charged
            // to both histograms (see docs/METRICS.md).
            self.pool
                .tracer_mut()
                .record_wal(dur, after.fsyncs > before.fsyncs);
        }
        self.record_wal(&before);
        if let Err(e) = logged {
            // The device may hold a torn record; appending after it would
            // put valid records beyond a bad one, where the scan cannot
            // see them. Only recovery (which truncates the tail) may
            // write to this log again.
            return Err(self.poison(e));
        }
        if let Err(e) = self.apply(&rec) {
            return Err(self.poison(e));
        }
        self.mutations_since_checkpoint += 1;
        let out = self.maybe_auto_checkpoint();
        self.pool.trace_end(span);
        out
    }

    /// Add the log records appended and fsyncs issued since `before` to
    /// the pool's ledger (`wal_appends`/`wal_fsyncs`).
    fn record_wal(&mut self, before: &WalStats) {
        let after = self.wal.stats();
        self.pool.tally(|_, m| {
            m.wal_appends += after.records_appended - before.records_appended;
            m.wal_fsyncs += after.fsyncs - before.fsyncs;
        });
    }

    fn maybe_auto_checkpoint(&mut self) -> Result<()> {
        let by_count = self.config.checkpoint_every > 0
            && self.mutations_since_checkpoint >= self.config.checkpoint_every;
        // The no-steal pool cannot evict dirty frames; checkpoint before
        // it fills up so mutations and queries keep finding free frames.
        let by_dirty = self.pool.dirty_count() >= self.config.pool_frames.saturating_mul(3) / 4;
        if by_count || by_dirty {
            let before = self.wal.stats();
            let out = self.checkpoint();
            self.record_wal(&before);
            out?;
        }
        Ok(())
    }

    /// Insert a new tuple. Duplicate ids, and ids the backend cannot
    /// address, are rejected *before* logging (nothing is written).
    /// Durable once the group-commit window syncs (immediately at
    /// window 1). The write-path counters (`wal_appends`/`wal_fsyncs`) of
    /// every mutation land in the index's ledger
    /// ([`DurableIndex::metrics`]).
    pub fn insert(&mut self, tid: u64, uda: &Uda) -> Result<()> {
        self.fail_if_poisoned()?;
        self.backend.admits(tid)?;
        if self.backend.contains(&mut self.pool, tid)? {
            return Err(StorageError::Duplicate { key: tid });
        }
        self.commit_mutation(LogRecord::Insert {
            tid,
            uda: uda.clone(),
        })
    }

    /// Upsert a tuple's distribution. Returns whether a previous
    /// distribution was replaced.
    pub fn update(&mut self, tid: u64, uda: &Uda) -> Result<bool> {
        self.fail_if_poisoned()?;
        self.backend.admits(tid)?;
        let existed = self.backend.contains(&mut self.pool, tid)?;
        self.commit_mutation(LogRecord::Update {
            tid,
            uda: uda.clone(),
        })?;
        Ok(existed)
    }

    /// Delete a tuple. Returns whether it existed; deleting an absent
    /// tuple writes nothing to the log.
    pub fn delete(&mut self, tid: u64) -> Result<bool> {
        self.fail_if_poisoned()?;
        if !self.backend.contains(&mut self.pool, tid)? {
            return Ok(false);
        }
        self.commit_mutation(LogRecord::Delete { tid })?;
        Ok(true)
    }

    /// Fold the buffered state into a new durable base (epoch + 1) and
    /// truncate the WAL. The sequence — journal, install, snapshot
    /// commit, WAL reset, journal clear — is crash-consistent at every
    /// boundary; see the module docs and DESIGN.md §6f. A failure
    /// mid-checkpoint poisons the index (reopen to recover).
    pub fn checkpoint(&mut self) -> Result<()> {
        self.fail_if_poisoned()?;
        match self.checkpoint_inner() {
            Ok(()) => Ok(()),
            Err(e) => Err(self.poison(e)),
        }
    }

    fn crash_point(&mut self, here: CheckpointCrash) -> Result<()> {
        if self.config.crash == here {
            self.config.crash = CheckpointCrash::None;
            return Err(StorageError::Io {
                op: "checkpoint",
                pid: None,
                detail: format!("injected crash {here:?}"),
            });
        }
        Ok(())
    }

    fn checkpoint_inner(&mut self) -> Result<()> {
        let new_epoch = self.epoch + 1;
        let dirty = self.pool.dirty_pages();
        let blob = wrap_blob(new_epoch, &self.backend.snapshot_blob());

        // Phase 1: write the complete redo image to the side journal and
        // sync it. Nothing durable is overwritten yet. (An error return
        // leaves the current phase span open; the tracer force-closes it
        // when the trace is taken.)
        let sj = self.pool.trace_begin(Phase::CheckpointJournal);
        self.storage.journal.truncate(0)?;
        let mut journal = Wal::new(
            self.storage.journal.clone(),
            WalConfig {
                group_commit: usize::MAX,
            },
        );
        journal.append(&j_header(self.epoch, new_epoch, dirty.len() as u32))?;
        for (pid, buf) in &dirty {
            journal.append(&j_page(*pid, buf))?;
        }
        journal.append(&j_snapshot(&blob))?;
        journal.append(&[J_COMMIT])?;
        journal.flush()?;
        self.pool.trace_end(sj);
        self.crash_point(CheckpointCrash::AfterJournal)?;

        // Phase 2: install the dirty pages in place. A crash here is
        // repaired by redoing the journal.
        let si = self.pool.trace_begin(Phase::CheckpointInstall);
        for (pid, buf) in &dirty {
            self.storage.store.write(*pid, buf)?;
        }
        self.pool.trace_end(si);
        self.crash_point(CheckpointCrash::AfterInstall)?;

        // Phase 3: atomically publish the new metadata snapshot. This is
        // the commit point of the checkpoint.
        let sc = self.pool.trace_begin(Phase::CheckpointCommit);
        self.storage.slot.commit(&blob)?;
        self.pool.trace_end(sc);
        self.crash_point(CheckpointCrash::AfterSnapshot)?;

        // Phases 4 and 5 share one span: both are epoch-retirement
        // bookkeeping (new log, cleared journal, clean pool).
        let sr = self.pool.trace_begin(Phase::CheckpointReset);

        // Phase 4: start the new epoch's log. An old log surviving a
        // crash here is recognized as stale by its begin-epoch record.
        self.wal.reset()?;
        self.epoch = new_epoch;
        self.wal
            .append(&LogRecord::BeginEpoch(new_epoch).encode())?;
        self.wal.flush()?;
        self.crash_point(CheckpointCrash::AfterWalReset)?;

        // Phase 5: retire the journal and the dirty bookkeeping.
        self.storage.journal.truncate(0)?;
        self.pool.mark_all_clean();
        self.mutations_since_checkpoint = 0;
        self.pool.trace_end(sr);
        Ok(())
    }

    /// Force pending group-commit records to disk (no-op at window 1).
    /// Call before process exit when running with a wider window.
    pub fn flush_wal(&mut self) -> Result<()> {
        self.fail_if_poisoned()?;
        let before = self.wal.stats();
        let t0 = self.pool.tracer_mut().now_ns();
        let out = self.wal.flush();
        if let Some(t0) = t0 {
            let dur = self
                .pool
                .tracer_mut()
                .now_ns()
                .unwrap_or(t0)
                .saturating_sub(t0);
            if self.wal.stats().fsyncs > before.fsyncs {
                self.pool.tracer_mut().record_wal_sync(dur);
            }
        }
        out
    }

    /// Enable latency tracing on this handle's private pool: subsequent
    /// mutations, checkpoints, and queries record spans and WAL/buffer
    /// latency histograms against `clock` until [`DurableIndex::take_trace`]
    /// collects them.
    pub fn enable_tracing(&mut self, clock: Arc<dyn Clock>) {
        self.pool.set_tracer(Tracer::enabled(clock));
    }

    /// Collect the trace accumulated since [`DurableIndex::enable_tracing`]
    /// and disable tracing. `None` when tracing was never enabled.
    pub fn take_trace(&mut self) -> Option<QueryTrace> {
        self.pool.take_trace()
    }

    /// The ledger of this handle's private pool: the counters of every
    /// query and mutation run through it (recovery's replay included),
    /// `io` filled in.
    pub fn metrics(&self) -> QueryMetrics {
        self.pool.metrics()
    }

    /// Run `read` and add the search counters it put in the ledger to
    /// `metrics`, leaving `metrics.io` alone — the contract of the three
    /// `_metered` reads.
    fn metered<R>(&mut self, metrics: &mut QueryMetrics, read: impl FnOnce(&mut Self) -> R) -> R {
        let before = self.pool.metrics();
        let out = read(self);
        let mut counters = self.pool.metrics().since(&before);
        counters.io = IoStats::default();
        metrics.merge(&counters);
        out
    }

    /// PETQ against the live (buffered) state.
    pub fn petq(&mut self, query: &EqQuery) -> Result<Vec<Match>> {
        self.fail_if_poisoned()?;
        self.backend.petq(&mut self.pool, query)
    }

    /// [`DurableIndex::petq`] with its execution counters added to
    /// `metrics` (`metrics.io` is left untouched).
    pub fn petq_metered(
        &mut self,
        query: &EqQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        self.metered(metrics, |idx| idx.petq(query))
    }

    /// Top-k against the live state.
    pub fn top_k(&mut self, query: &TopKQuery) -> Result<Vec<Match>> {
        self.fail_if_poisoned()?;
        self.backend.top_k(&mut self.pool, query)
    }

    /// [`DurableIndex::top_k`] with its execution counters added to
    /// `metrics` (`metrics.io` is left untouched).
    pub fn top_k_metered(
        &mut self,
        query: &TopKQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        self.metered(metrics, |idx| idx.top_k(query))
    }

    /// DSTQ against the live state.
    pub fn dstq(&mut self, query: &DstQuery) -> Result<Vec<Match>> {
        self.fail_if_poisoned()?;
        self.backend.dstq(&mut self.pool, query)
    }

    /// [`DurableIndex::dstq`] with its execution counters added to
    /// `metrics` (`metrics.io` is left untouched).
    pub fn dstq_metered(
        &mut self,
        query: &DstQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        self.metered(metrics, |idx| idx.dstq(query))
    }

    /// DSQ-top-k against the live state.
    pub fn ds_top_k(&mut self, query: &DsTopKQuery) -> Result<Vec<Match>> {
        self.fail_if_poisoned()?;
        self.backend.ds_top_k(&mut self.pool, query)
    }

    /// Current checkpoint epoch (starts at 1 for a fresh index).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a post-log failure has poisoned this handle.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Cumulative WAL write-side counters for this handle.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Records replayed by the recovery that opened this handle (0 for a
    /// freshly created index or a clean open).
    pub fn replayed_records(&self) -> u64 {
        self.replayed_records
    }

    /// Mutations logged since the last checkpoint.
    pub fn mutations_since_checkpoint(&self) -> u64 {
        self.mutations_since_checkpoint
    }

    /// Number of indexed tuples.
    pub fn tuple_count(&self) -> u64 {
        self.backend.tuple_count()
    }

    /// The wrapped backend (read-only).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The backend and the index's pool, for read-side helpers that need
    /// both (invariant checks, tuple lookups). Mutating the backend
    /// through this bypasses the log and forfeits crash safety.
    pub fn parts_mut(&mut self) -> (&mut B, &mut BufferPool) {
        (&mut self.backend, &mut self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncat_core::{CatId, Domain};
    use uncat_inverted::InvertedIndex;
    use uncat_pdrtree::PdrConfig;
    use uncat_storage::{FaultLog, LogFault};

    fn uda(pairs: &[(u32, f32)]) -> Uda {
        Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
    }

    fn inverted_storage() -> (DurableStorage, DurableIndex<InvertedBackend>) {
        let storage = DurableStorage::in_memory();
        let idx = DurableIndex::create(storage.clone(), DurableConfig::default(), |_pool| {
            Ok(InvertedBackend::new(InvertedIndex::new(Domain::anonymous(
                8,
            ))))
        })
        .unwrap();
        (storage, idx)
    }

    #[test]
    fn log_record_codec_roundtrips() {
        let records = [
            LogRecord::BeginEpoch(7),
            LogRecord::Insert {
                tid: 3,
                uda: uda(&[(0, 0.25), (5, 0.75)]),
            },
            LogRecord::Update {
                tid: u64::MAX,
                uda: uda(&[(2, 1.0)]),
            },
            LogRecord::Delete { tid: 0 },
        ];
        for r in &records {
            assert_eq!(&LogRecord::decode(&r.encode()).unwrap(), r);
        }
        assert!(LogRecord::decode(&[]).is_err());
        assert!(LogRecord::decode(&[99]).is_err());
        assert!(LogRecord::decode(&[REC_DELETE, 1, 2]).is_err());
        let mut trailing = LogRecord::Delete { tid: 9 }.encode();
        trailing.push(0);
        assert!(LogRecord::decode(&trailing).is_err());
    }

    #[test]
    fn unsynced_snapshot_wrapper_rejects_garbage() {
        let blob = wrap_blob(4, b"payload");
        let (e, inner) = split_snapshot(&blob).unwrap();
        assert_eq!(e, 4);
        assert_eq!(inner, b"payload");
        assert!(split_snapshot(b"UDX").is_err());
        assert!(split_snapshot(b"XXXX01234567").is_err());
    }

    #[test]
    fn mutations_survive_a_reopen_via_wal_replay() {
        let (storage, mut idx) = inverted_storage();
        idx.insert(1, &uda(&[(0, 0.6), (1, 0.4)])).unwrap();
        idx.insert(2, &uda(&[(1, 1.0)])).unwrap();
        idx.update(1, &uda(&[(2, 1.0)])).unwrap();
        assert!(idx.delete(2).unwrap());
        assert!(!idx.delete(2).unwrap(), "double delete is a clean no-op");
        drop(idx); // no checkpoint: durable pages still hold epoch 1

        let (mut idx, report) =
            DurableIndex::<InvertedBackend>::open(storage, DurableConfig::default()).unwrap();
        assert_eq!(report.replayed_records, 4);
        assert_eq!(report.epoch, 1);
        assert!(!report.journal_redone);
        assert_eq!(idx.tuple_count(), 1);
        let hits = idx.petq(&EqQuery::new(uda(&[(2, 1.0)]), 0.5)).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].tid, 1);
    }

    #[test]
    fn checkpoint_truncates_the_log_and_reopen_replays_nothing() {
        let (storage, mut idx) = inverted_storage();
        for t in 0..20u64 {
            idx.insert(t, &uda(&[((t % 8) as u32, 1.0)])).unwrap();
        }
        idx.checkpoint().unwrap();
        assert_eq!(idx.epoch(), 2);
        assert_eq!(idx.mutations_since_checkpoint(), 0);
        drop(idx);

        let (mut idx, report) =
            DurableIndex::<InvertedBackend>::open(storage, DurableConfig::default()).unwrap();
        assert_eq!(report.replayed_records, 0);
        assert_eq!(report.epoch, 2);
        assert_eq!(idx.tuple_count(), 20);
        let hits = idx.petq(&EqQuery::new(uda(&[(3, 1.0)]), 0.9)).unwrap();
        assert_eq!(hits.len(), 3, "tids 3, 11, 19");
    }

    #[test]
    fn auto_checkpoint_fires_by_mutation_count() {
        let storage = DurableStorage::in_memory();
        let config = DurableConfig {
            checkpoint_every: 4,
            ..DurableConfig::default()
        };
        let mut idx = DurableIndex::create(storage, config, |_pool| {
            Ok(InvertedBackend::new(InvertedIndex::new(Domain::anonymous(
                4,
            ))))
        })
        .unwrap();
        assert_eq!(idx.epoch(), 1);
        for t in 0..8u64 {
            idx.insert(t, &uda(&[((t % 4) as u32, 1.0)])).unwrap();
        }
        assert_eq!(idx.epoch(), 3, "two automatic checkpoints");
        assert_eq!(idx.mutations_since_checkpoint(), 0);
    }

    #[test]
    fn duplicate_insert_is_rejected_before_logging() {
        let (_storage, mut idx) = inverted_storage();
        idx.insert(5, &uda(&[(0, 1.0)])).unwrap();
        let appended = idx.wal_stats().records_appended;
        assert_eq!(
            idx.insert(5, &uda(&[(1, 1.0)])),
            Err(StorageError::Duplicate { key: 5 })
        );
        assert_eq!(
            idx.wal_stats().records_appended,
            appended,
            "a rejected insert writes nothing"
        );
        assert!(!idx.is_poisoned(), "pre-log rejection does not poison");
    }

    /// The inverted index addresses tuples with 32 bits. A larger id used
    /// to be logged and then applied truncated (release) or to panic
    /// after the append (debug); it is refused before the log sees it.
    #[test]
    fn an_unaddressable_tid_is_rejected_before_logging() {
        let (_storage, mut idx) = inverted_storage();
        idx.insert(5, &uda(&[(0, 1.0)])).unwrap();
        let appended = idx.wal_stats().records_appended;
        let tid = (1u64 << 32) + 5;
        let refused = Err(StorageError::KeyOutOfRange {
            key: tid,
            max: u32::MAX as u64,
        });
        assert_eq!(idx.insert(tid, &uda(&[(1, 1.0)])), refused);
        assert_eq!(idx.update(tid, &uda(&[(1, 1.0)])).map(|_| ()), refused);
        assert_eq!(idx.delete(tid), Ok(false), "no such tuple, as ever");
        assert_eq!(idx.wal_stats().records_appended, appended);
        assert!(!idx.is_poisoned(), "pre-log rejection does not poison");
        assert_eq!(idx.tuple_count(), 1);
        idx.insert(u32::MAX as u64, &uda(&[(1, 1.0)])).unwrap();
    }

    #[test]
    fn append_failure_poisons_and_reopen_recovers() {
        let store = InMemoryDisk::shared();
        let flog = Arc::new(FaultLog::new(MemLog::shared()));
        let storage = DurableStorage {
            store,
            wal: flog.clone() as SharedLog,
            journal: MemLog::shared(),
            slot: Arc::new(MemSlot::new()),
        };
        let mut idx = DurableIndex::create(storage.clone(), DurableConfig::default(), |_pool| {
            Ok(InvertedBackend::new(InvertedIndex::new(Domain::anonymous(
                4,
            ))))
        })
        .unwrap();
        idx.insert(1, &uda(&[(0, 1.0)])).unwrap();

        // Checkpoint at create appended begin-epoch (1 append); insert is
        // the 2nd. Fail the 3rd, keeping a 5-byte torn prefix.
        flog.arm(LogFault::ShortAppend {
            after: flog.appends_so_far() + 1,
            keep: 5,
        });
        let err = idx.insert(2, &uda(&[(1, 1.0)])).unwrap_err();
        assert!(matches!(err, StorageError::Io { .. }), "{err:?}");
        assert!(idx.is_poisoned());
        assert_eq!(
            idx.insert(3, &uda(&[(2, 1.0)])),
            Err(StorageError::Poisoned)
        );
        assert_eq!(idx.delete(1), Err(StorageError::Poisoned));
        assert_eq!(idx.checkpoint(), Err(StorageError::Poisoned));
        drop(idx);

        let (mut idx, report) =
            DurableIndex::<InvertedBackend>::open(storage, DurableConfig::default()).unwrap();
        assert!(
            matches!(report.wal_tail, TailStatus::Torn { .. }),
            "the short append left a torn tail: {:?}",
            report.wal_tail
        );
        assert_eq!(report.replayed_records, 1, "only the acknowledged insert");
        assert_eq!(idx.tuple_count(), 1);
        // The repaired log accepts new mutations.
        idx.insert(2, &uda(&[(1, 1.0)])).unwrap();
        assert_eq!(idx.tuple_count(), 2);
    }

    #[test]
    fn checkpoint_crash_after_journal_is_redone_on_open() {
        let storage = DurableStorage::in_memory();
        let mut idx = DurableIndex::create(storage.clone(), DurableConfig::default(), |_pool| {
            Ok(InvertedBackend::new(InvertedIndex::new(Domain::anonymous(
                4,
            ))))
        })
        .unwrap();
        idx.insert(1, &uda(&[(0, 1.0)])).unwrap();
        idx.insert(2, &uda(&[(3, 1.0)])).unwrap();
        idx.config.crash = CheckpointCrash::AfterJournal;
        let err = idx.checkpoint().unwrap_err();
        assert!(matches!(err, StorageError::Io { .. }), "{err:?}");
        assert!(idx.is_poisoned());
        drop(idx);

        let (mut idx, report) =
            DurableIndex::<InvertedBackend>::open(storage, DurableConfig::default()).unwrap();
        assert!(report.journal_redone, "complete journal must be redone");
        assert_eq!(report.epoch, 2, "the interrupted checkpoint completed");
        assert!(report.stale_wal_discarded, "old-epoch log is not replayed");
        assert_eq!(idx.tuple_count(), 2);
        let hits = idx.petq(&EqQuery::new(uda(&[(3, 1.0)]), 0.9)).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn pdr_tree_backend_roundtrips_through_create_and_open() {
        let storage = DurableStorage::in_memory();
        let mut idx = DurableIndex::create(storage.clone(), DurableConfig::default(), |pool| {
            PdrTree::new(Domain::anonymous(6), PdrConfig::default(), pool)
        })
        .unwrap();
        for t in 0..30u64 {
            idx.insert(
                t,
                &uda(&[((t % 6) as u32, 0.7), (((t + 1) % 6) as u32, 0.3)]),
            )
            .unwrap();
        }
        assert!(idx.delete(7).unwrap());
        idx.update(8, &uda(&[(0, 1.0)])).unwrap();
        drop(idx);

        let (mut idx, report) =
            DurableIndex::<PdrTree>::open(storage, DurableConfig::default()).unwrap();
        assert_eq!(report.replayed_records, 32);
        assert_eq!(idx.tuple_count(), 29);
        let (tree, pool) = idx.parts_mut();
        assert_eq!(tree.check_invariants(pool).unwrap(), 29);
        assert_eq!(tree.find_tuple(pool, 8).unwrap(), Some(uda(&[(0, 1.0)])));
        assert_eq!(tree.find_tuple(pool, 7).unwrap(), None);
    }

    #[test]
    fn opening_without_a_snapshot_is_a_typed_error() {
        let storage = DurableStorage::in_memory();
        let err = match DurableIndex::<InvertedBackend>::open(storage, DurableConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("open without a snapshot must fail"),
        };
        assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn group_commit_batches_appends_per_fsync() {
        let storage = DurableStorage::in_memory();
        let config = DurableConfig {
            group_commit: 4,
            ..DurableConfig::default()
        };
        let mut idx = DurableIndex::create(storage, config, |_pool| {
            Ok(InvertedBackend::new(InvertedIndex::new(Domain::anonymous(
                4,
            ))))
        })
        .unwrap();
        let base = idx.wal_stats();
        for t in 0..8u64 {
            idx.insert(t, &uda(&[((t % 4) as u32, 1.0)])).unwrap();
        }
        let metrics = idx.metrics();
        let s = idx.wal_stats();
        assert_eq!(s.records_appended - base.records_appended, 8);
        assert_eq!(
            s.group_commit_batches - base.group_commit_batches,
            2,
            "two windows of four"
        );
        assert_eq!(metrics.wal_appends, 8);
        assert_eq!(metrics.wal_fsyncs, 2);
    }
}
