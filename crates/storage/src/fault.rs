//! Deterministic fault injection for storage tests.
//!
//! [`FaultStore`] wraps any [`PageStore`] and injects failures at exact,
//! seedable points: the Nth physical read or write, torn writes that
//! persist only a prefix of the page, single-bit flips on read, and
//! allocation failure (ENOSPC). Because triggers count operations rather
//! than rolling dice per call, a failing test reproduces byte-for-byte —
//! this is the harness behind the crate's failure-path coverage.
//!
//! ```
//! use std::sync::Arc;
//! use uncat_storage::{FaultStore, Fault, InMemoryDisk, PageStore, StorageError};
//!
//! let faults = Arc::new(FaultStore::new(InMemoryDisk::shared(), 42));
//! faults.arm(Fault::FailRead { after: 2 });
//! let store: uncat_storage::SharedStore = faults.clone();
//! let pid = store.allocate().unwrap();
//! let mut buf = [0u8; uncat_storage::PAGE_SIZE];
//! assert!(store.read(pid, &mut buf).is_ok()); // read #1
//! assert!(matches!(store.read(pid, &mut buf), Err(StorageError::Io { .. }))); // read #2
//! assert!(store.read(pid, &mut buf).is_ok()); // faults fire once
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::disk::{PageStore, SharedStore};
use crate::error::{Result, StorageError};
use crate::page::{PageId, PAGE_SIZE};
use crate::wal::{LogDevice, SharedLog};

/// A failure to inject, with its trigger point. Each `after` counts
/// operations of the fault's kind on this store, starting at 1; a fault
/// fires exactly once, on operation number `after`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The `after`-th read fails with [`StorageError::Io`].
    FailRead {
        /// 1-based read index that fails.
        after: u64,
    },
    /// The `after`-th write fails with [`StorageError::Io`]; nothing is
    /// persisted.
    FailWrite {
        /// 1-based write index that fails.
        after: u64,
    },
    /// The `after`-th allocation fails with [`StorageError::NoSpace`].
    FailAllocate {
        /// 1-based allocation index that fails.
        after: u64,
    },
    /// The `after`-th write persists only the first `keep` bytes of the
    /// new image (the page keeps its old suffix) and reports
    /// [`StorageError::Io`] — a torn write.
    TornWrite {
        /// 1-based write index that tears.
        after: u64,
        /// Bytes of the new image that reach the store.
        keep: usize,
    },
    /// The `after`-th read succeeds but one bit of the returned buffer is
    /// flipped (position derived from the store's seed) — bit rot past
    /// any physical checksum.
    FlipBitOnRead {
        /// 1-based read index that is corrupted.
        after: u64,
    },
}

impl Fault {
    fn counter(&self) -> Kind {
        match self {
            Fault::FailRead { .. } | Fault::FlipBitOnRead { .. } => Kind::Read,
            Fault::FailWrite { .. } | Fault::TornWrite { .. } => Kind::Write,
            Fault::FailAllocate { .. } => Kind::Allocate,
        }
    }

    fn after(&self) -> u64 {
        match *self {
            Fault::FailRead { after }
            | Fault::FailWrite { after }
            | Fault::FailAllocate { after }
            | Fault::TornWrite { after, .. }
            | Fault::FlipBitOnRead { after } => after,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
    Allocate,
}

/// A [`PageStore`] wrapper injecting armed [`Fault`]s deterministically.
pub struct FaultStore {
    inner: SharedStore,
    seed: u64,
    reads: AtomicU64,
    writes: AtomicU64,
    allocs: AtomicU64,
    armed: Mutex<Vec<Fault>>,
    fired: AtomicU64,
}

impl FaultStore {
    /// Wrap `inner`; `seed` fixes the bit positions chosen by
    /// [`Fault::FlipBitOnRead`].
    pub fn new(inner: SharedStore, seed: u64) -> FaultStore {
        FaultStore {
            inner,
            seed,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            armed: Mutex::new(Vec::new()),
            fired: AtomicU64::new(0),
        }
    }

    /// Arm a fault. Multiple faults may be armed; each fires once when
    /// its operation counter reaches its trigger.
    pub fn arm(&self, fault: Fault) {
        self.armed.lock().push(fault);
    }

    /// Remove every armed (not-yet-fired) fault.
    pub fn disarm_all(&self) {
        self.armed.lock().clear();
    }

    /// How many armed faults have fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Physical reads seen so far; arm `FailRead { after: reads_so_far() + n }`
    /// to fail the nth upcoming read regardless of history.
    pub fn reads_so_far(&self) -> u64 {
        self.reads.load(Ordering::SeqCst)
    }

    /// Physical writes seen so far (see [`FaultStore::reads_so_far`]).
    pub fn writes_so_far(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    /// Take the fault of `kind` triggered at operation `n`, if any.
    fn triggered(&self, kind: Kind, n: u64) -> Option<Fault> {
        let mut armed = self.armed.lock();
        let idx = armed
            .iter()
            .position(|f| f.counter() == kind && f.after() == n)?;
        self.fired.fetch_add(1, Ordering::Relaxed);
        Some(armed.swap_remove(idx))
    }

    /// Deterministic bit index in a page for read corruption number `n`.
    fn bit_position(&self, n: u64) -> usize {
        // xorshift* over (seed, n): stable across platforms.
        let mut x = self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % (PAGE_SIZE as u64 * 8)) as usize
    }
}

impl PageStore for FaultStore {
    fn allocate(&self) -> Result<PageId> {
        let n = self.allocs.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(Fault::FailAllocate { .. }) = self.triggered(Kind::Allocate, n) {
            return Err(StorageError::NoSpace);
        }
        self.inner.allocate()
    }

    fn read(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()> {
        let n = self.reads.fetch_add(1, Ordering::SeqCst) + 1;
        match self.triggered(Kind::Read, n) {
            Some(Fault::FailRead { .. }) => Err(StorageError::Io {
                op: "read",
                pid: Some(pid),
                detail: format!("injected read failure #{n}"),
            }),
            Some(Fault::FlipBitOnRead { .. }) => {
                self.inner.read(pid, out)?;
                let bit = self.bit_position(n);
                out[bit / 8] ^= 1 << (bit % 8);
                Ok(())
            }
            _ => self.inner.read(pid, out),
        }
    }

    fn write(&self, pid: PageId, data: &[u8; PAGE_SIZE]) -> Result<()> {
        let n = self.writes.fetch_add(1, Ordering::SeqCst) + 1;
        match self.triggered(Kind::Write, n) {
            Some(Fault::FailWrite { .. }) => Err(StorageError::Io {
                op: "write",
                pid: Some(pid),
                detail: format!("injected write failure #{n}"),
            }),
            Some(Fault::TornWrite { keep, .. }) => {
                // Persist the merge of the new prefix with the old
                // suffix, then report failure — the state a torn write
                // leaves behind.
                let mut merged = [0u8; PAGE_SIZE];
                self.inner.read(pid, &mut merged)?;
                let keep = keep.min(PAGE_SIZE);
                merged[..keep].copy_from_slice(&data[..keep]);
                self.inner.write(pid, &merged)?;
                Err(StorageError::Io {
                    op: "write",
                    pid: Some(pid),
                    detail: format!("injected torn write #{n} (kept {keep} bytes)"),
                })
            }
            _ => self.inner.write(pid, data),
        }
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn reads(&self) -> u64 {
        self.inner.reads()
    }

    fn writes(&self) -> u64 {
        self.inner.writes()
    }
}

/// A failure to inject into a [`LogDevice`], with its trigger point. Like
/// [`Fault`], every `after` is 1-based over operations of that kind on
/// this device and fires exactly once — except that [`FaultLog`] also has
/// a *crash mode* (see [`FaultLog::crash_after_ops`]) under which every
/// operation past a chosen point fails, modelling a dead process rather
/// than a transient error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFault {
    /// The `after`-th append fails with [`StorageError::Io`]; nothing
    /// reaches the device.
    FailAppend {
        /// 1-based append index that fails.
        after: u64,
    },
    /// The `after`-th append persists only the first `keep` bytes — a
    /// short write at byte granularity — and reports
    /// [`StorageError::Io`]. The partial bytes stay on the device (a
    /// later writeback or explicit sync can make them durable), which is
    /// exactly how a torn record reaches a WAL tail.
    ShortAppend {
        /// 1-based append index that tears.
        after: u64,
        /// Bytes of the record that reach the device.
        keep: usize,
    },
    /// The `after`-th sync fails with [`StorageError::Io`]; the durable
    /// prefix is unchanged.
    FailSync {
        /// 1-based sync index that fails.
        after: u64,
    },
    /// The `after`-th truncate fails with [`StorageError::Io`]; the
    /// device keeps its length.
    FailTruncate {
        /// 1-based truncate index that fails.
        after: u64,
    },
}

impl LogFault {
    fn counter(&self) -> LogKind {
        match self {
            LogFault::FailAppend { .. } | LogFault::ShortAppend { .. } => LogKind::Append,
            LogFault::FailSync { .. } => LogKind::Sync,
            LogFault::FailTruncate { .. } => LogKind::Truncate,
        }
    }

    fn after(&self) -> u64 {
        match *self {
            LogFault::FailAppend { after }
            | LogFault::ShortAppend { after, .. }
            | LogFault::FailSync { after }
            | LogFault::FailTruncate { after } => after,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LogKind {
    Append,
    Sync,
    Truncate,
}

/// A [`LogDevice`] wrapper injecting [`LogFault`]s deterministically —
/// the byte-granularity counterpart of [`FaultStore`] for WAL paths.
pub struct FaultLog {
    inner: SharedLog,
    appends: AtomicU64,
    syncs: AtomicU64,
    truncates: AtomicU64,
    ops: AtomicU64,
    /// Total-operation count after which every operation fails
    /// (crash mode); 0 = off.
    crash_at: AtomicU64,
    armed: Mutex<Vec<LogFault>>,
    fired: AtomicU64,
}

impl FaultLog {
    /// Wrap `inner`.
    pub fn new(inner: SharedLog) -> FaultLog {
        FaultLog {
            inner,
            appends: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            truncates: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            crash_at: AtomicU64::new(0),
            armed: Mutex::new(Vec::new()),
            fired: AtomicU64::new(0),
        }
    }

    /// Arm a fault (fires once; see [`FaultStore::arm`]).
    pub fn arm(&self, fault: LogFault) {
        self.armed.lock().push(fault);
    }

    /// Remove every armed (not-yet-fired) fault.
    pub fn disarm_all(&self) {
        self.armed.lock().clear();
    }

    /// How many armed faults have fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Enter crash mode after `n` more operations (appends, syncs, and
    /// truncates combined): operations up to and including the `n`-th
    /// from now succeed, everything after fails with
    /// [`StorageError::Io`] until [`FaultLog::revive`] — the process is
    /// dead, not unlucky. `n = 0` kills the device immediately.
    pub fn crash_after_ops(&self, n: u64) {
        let now = self.ops.load(Ordering::SeqCst);
        self.crash_at.store(now + n + 1, Ordering::SeqCst);
    }

    /// Leave crash mode (the harness "restarts the process").
    pub fn revive(&self) {
        self.crash_at.store(0, Ordering::SeqCst);
    }

    /// Appends seen so far (arm `after: appends_so_far() + n` to hit the
    /// nth upcoming append regardless of history).
    pub fn appends_so_far(&self) -> u64 {
        self.appends.load(Ordering::SeqCst)
    }

    /// Syncs seen so far (see [`FaultLog::appends_so_far`]).
    pub fn syncs_so_far(&self) -> u64 {
        self.syncs.load(Ordering::SeqCst)
    }

    /// Truncates seen so far (see [`FaultLog::appends_so_far`]).
    pub fn truncates_so_far(&self) -> u64 {
        self.truncates.load(Ordering::SeqCst)
    }

    /// Count a mutating operation and report whether crash mode fails it.
    fn crashed(&self) -> bool {
        let op = self.ops.fetch_add(1, Ordering::SeqCst) + 1;
        let at = self.crash_at.load(Ordering::SeqCst);
        at != 0 && op >= at
    }

    fn dead(op: &'static str) -> StorageError {
        StorageError::Io {
            op,
            pid: None,
            detail: "injected crash: log device is dead".into(),
        }
    }

    /// Take the fault of `kind` triggered at operation `n`, if any.
    fn triggered(&self, kind: LogKind, n: u64) -> Option<LogFault> {
        let mut armed = self.armed.lock();
        let idx = armed
            .iter()
            .position(|f| f.counter() == kind && f.after() == n)?;
        self.fired.fetch_add(1, Ordering::Relaxed);
        Some(armed.swap_remove(idx))
    }
}

impl LogDevice for FaultLog {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        if self.crashed() {
            return Err(FaultLog::dead("append"));
        }
        let n = self.appends.fetch_add(1, Ordering::SeqCst) + 1;
        match self.triggered(LogKind::Append, n) {
            Some(LogFault::FailAppend { .. }) => Err(StorageError::Io {
                op: "append",
                pid: None,
                detail: format!("injected append failure #{n}"),
            }),
            Some(LogFault::ShortAppend { keep, .. }) => {
                let keep = keep.min(bytes.len());
                self.inner.append(&bytes[..keep])?;
                Err(StorageError::Io {
                    op: "append",
                    pid: None,
                    detail: format!("injected short append #{n} (kept {keep} bytes)"),
                })
            }
            _ => self.inner.append(bytes),
        }
    }

    fn sync(&self) -> Result<()> {
        if self.crashed() {
            return Err(FaultLog::dead("sync"));
        }
        let n = self.syncs.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(LogFault::FailSync { .. }) = self.triggered(LogKind::Sync, n) {
            return Err(StorageError::Io {
                op: "sync",
                pid: None,
                detail: format!("injected sync failure #{n}"),
            });
        }
        self.inner.sync()
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn truncate(&self, len: u64) -> Result<()> {
        if self.crashed() {
            return Err(FaultLog::dead("truncate"));
        }
        let n = self.truncates.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(LogFault::FailTruncate { .. }) = self.triggered(LogKind::Truncate, n) {
            return Err(StorageError::Io {
                op: "truncate",
                pid: None,
                detail: format!("injected truncate failure #{n}"),
            });
        }
        self.inner.truncate(len)
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;
    use crate::page::zeroed_page;
    use std::sync::Arc;

    fn harness() -> (Arc<FaultStore>, SharedStore) {
        let fs = Arc::new(FaultStore::new(InMemoryDisk::shared(), 7));
        let store: SharedStore = fs.clone();
        (fs, store)
    }

    #[test]
    fn nth_read_fails_once() {
        let (fs, store) = harness();
        let pid = store.allocate().unwrap();
        fs.arm(Fault::FailRead { after: 2 });
        let mut buf = zeroed_page();
        assert!(store.read(pid, &mut buf).is_ok());
        assert!(matches!(
            store.read(pid, &mut buf),
            Err(StorageError::Io { op: "read", .. })
        ));
        assert!(
            store.read(pid, &mut buf).is_ok(),
            "fault fires exactly once"
        );
        assert_eq!(fs.fired(), 1);
    }

    #[test]
    fn nth_write_fails_and_persists_nothing() {
        let (fs, store) = harness();
        let pid = store.allocate().unwrap();
        fs.arm(Fault::FailWrite { after: 1 });
        let mut data = zeroed_page();
        data[0] = 9;
        assert!(store.write(pid, &data).is_err());
        let mut buf = zeroed_page();
        store.read(pid, &mut buf).unwrap();
        assert_eq!(buf[0], 0, "failed write must not persist");
    }

    #[test]
    fn allocation_failure_is_nospace() {
        let (fs, store) = harness();
        fs.arm(Fault::FailAllocate { after: 2 });
        assert!(store.allocate().is_ok());
        assert_eq!(store.allocate(), Err(StorageError::NoSpace));
        assert!(store.allocate().is_ok());
    }

    #[test]
    fn torn_write_persists_prefix_only() {
        let (fs, store) = harness();
        let pid = store.allocate().unwrap();
        let mut old = zeroed_page();
        old.fill(0xAA);
        store.write(pid, &old).unwrap();
        fs.arm(Fault::TornWrite {
            after: 2,
            keep: 100,
        });
        let mut new = zeroed_page();
        new.fill(0xBB);
        assert!(store.write(pid, &new).is_err());
        let mut buf = zeroed_page();
        store.read(pid, &mut buf).unwrap();
        assert_eq!(buf[0], 0xBB);
        assert_eq!(buf[99], 0xBB);
        assert_eq!(buf[100], 0xAA, "suffix keeps pre-tear contents");
    }

    #[test]
    fn bit_flip_is_deterministic_per_seed() {
        let observe = |seed| {
            let fs = Arc::new(FaultStore::new(InMemoryDisk::shared(), seed));
            let store: SharedStore = fs.clone();
            let pid = store.allocate().unwrap();
            fs.arm(Fault::FlipBitOnRead { after: 1 });
            let mut buf = zeroed_page();
            store.read(pid, &mut buf).unwrap();
            buf.iter().position(|&b| b != 0)
        };
        let a = observe(1).expect("one byte corrupted");
        let b = observe(1).expect("one byte corrupted");
        assert_eq!(a, b, "same seed, same flipped bit");
    }

    use crate::wal::MemLog;

    fn log_harness() -> (Arc<FaultLog>, Arc<MemLog>) {
        let mem = MemLog::shared();
        let log: SharedLog = mem.clone();
        (Arc::new(FaultLog::new(log)), mem)
    }

    #[test]
    fn short_append_persists_exact_prefix() {
        let (fl, mem) = log_harness();
        fl.arm(LogFault::ShortAppend { after: 2, keep: 3 });
        fl.append(b"whole").unwrap();
        assert!(matches!(
            fl.append(b"cut here"),
            Err(StorageError::Io { op: "append", .. })
        ));
        fl.append(b"!").unwrap();
        assert_eq!(mem.read_all().unwrap(), b"wholecut!");
        assert_eq!(fl.fired(), 1);
    }

    #[test]
    fn nth_sync_fails_without_advancing_durability() {
        let (fl, mem) = log_harness();
        fl.arm(LogFault::FailSync { after: 1 });
        fl.append(b"abc").unwrap();
        assert!(fl.sync().is_err());
        assert_eq!(mem.synced_len(), 0, "failed sync must not seal bytes");
        fl.sync().unwrap();
        assert_eq!(mem.synced_len(), 3);
    }

    #[test]
    fn nth_truncate_fails_and_keeps_length() {
        let (fl, mem) = log_harness();
        fl.append(b"abcdef").unwrap();
        fl.arm(LogFault::FailTruncate { after: 1 });
        assert!(fl.truncate(0).is_err());
        assert_eq!(mem.len().unwrap(), 6);
        fl.truncate(0).unwrap();
        assert_eq!(mem.len().unwrap(), 0);
    }

    #[test]
    fn crash_mode_kills_every_operation_after_the_point() {
        let (fl, mem) = log_harness();
        fl.crash_after_ops(2);
        fl.append(b"one").unwrap(); // op 1
        fl.sync().unwrap(); // op 2
        assert!(fl.append(b"dead").is_err(), "op 3 is past the crash");
        assert!(fl.sync().is_err(), "a dead process stays dead");
        assert!(fl.truncate(0).is_err());
        assert_eq!(mem.read_all().unwrap(), b"one");
        fl.revive();
        fl.append(b"+back").unwrap();
        assert_eq!(mem.read_all().unwrap(), b"one+back");
    }

    #[test]
    fn crash_counts_are_deterministic_across_runs() {
        let survivors = |kill_at: u64| {
            let (fl, mem) = log_harness();
            fl.crash_after_ops(kill_at);
            let mut acked = 0;
            for i in 0..10u8 {
                if fl.append(&[i]).is_ok() && fl.sync().is_ok() {
                    acked += 1;
                } else {
                    break;
                }
            }
            (acked, mem.synced_len())
        };
        assert_eq!(survivors(5), survivors(5), "same kill point, same state");
        assert_eq!(survivors(5).0, 2, "2 append+sync pairs fit in 5 ops");
    }
}
