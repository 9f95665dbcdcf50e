//! Write-ahead log: append-only record framing with group commit.
//!
//! A [`Wal`] turns a byte-oriented [`LogDevice`] into a record log with
//! the same integrity discipline as the snapshot file protocol: every
//! record is framed as `magic ‖ u32 len ‖ CRC32C(payload) ‖ payload`
//! (little-endian, CRC from [`crate::crc`]), so a torn or corrupt tail is
//! detected — never interpreted. Appends are buffered by the OS until an
//! fsync; [`Wal`] batches that fsync over a configurable *group-commit
//! window* of records, trading a bounded loss window for fewer syncs.
//!
//! [`Wal::scan`] reads a log back and stops cleanly at the first record
//! that is torn (the device ends inside it), truncated (header cut
//! short), or corrupt (bad magic or checksum). Everything before that
//! point is returned; the tail's diagnosis is a typed [`TailStatus`], and
//! [`Wal::open`] repairs the device by truncating at the last valid
//! record so new appends extend a clean log.
//!
//! Two devices are provided: [`FileLog`] over a real file (fsync via
//! `sync_data`), and [`MemLog`], whose *durable* contents are exactly the
//! synced prefix — [`MemLog::crash_keep`] models a crash that preserves
//! the synced prefix plus any prefix of the unsynced tail (real disks may
//! persist buffered bytes the application never synced). Deterministic
//! fault injection over any device lives in [`crate::fault::FaultLog`].

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::crc::crc32c;
use crate::error::{Result, StorageError};

/// Per-record frame magic (little-endian `"WRC1"` on disk).
pub const RECORD_MAGIC: u32 = u32::from_le_bytes(*b"WRC1");

/// Frame header bytes before the payload: magic, length, CRC32C.
pub const FRAME_HEADER: usize = 4 + 4 + 4;

/// A byte-oriented append-only log device. Methods take `&self` (interior
/// mutability) so devices can be shared between a [`Wal`], fault
/// injectors, and recovery code, mirroring [`crate::disk::PageStore`].
pub trait LogDevice: Send + Sync {
    /// Append bytes at the end of the log. Buffered: not durable until
    /// [`sync`](LogDevice::sync) returns.
    fn append(&self, bytes: &[u8]) -> Result<()>;
    /// Make every appended byte durable (fsync).
    fn sync(&self) -> Result<()>;
    /// Read the whole log as currently visible (including appended but
    /// not yet synced bytes).
    fn read_all(&self) -> Result<Vec<u8>>;
    /// Cut the log to `len` bytes (tail repair / log truncation). The
    /// truncation itself is made durable before returning.
    fn truncate(&self, len: u64) -> Result<()>;
    /// Current log length in bytes.
    fn len(&self) -> Result<u64>;
    /// Whether the log holds no bytes.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// A shareable log device.
pub type SharedLog = Arc<dyn LogDevice>;

// --- In-memory device with fsync semantics ---

struct MemLogState {
    bytes: Vec<u8>,
    synced: usize,
}

/// In-memory [`LogDevice`] that models fsync: the durable contents are
/// the synced prefix. [`MemLog::crash_keep`] discards whatever a crash
/// would lose, making crash-recovery tests deterministic without files.
pub struct MemLog {
    inner: Mutex<MemLogState>,
}

impl MemLog {
    /// A fresh, empty log.
    pub fn new() -> MemLog {
        MemLog {
            inner: Mutex::new(MemLogState {
                bytes: Vec::new(),
                synced: 0,
            }),
        }
    }

    /// A fresh log behind an `Arc`, ready to share with a [`Wal`] and a
    /// test harness simultaneously.
    pub fn shared() -> Arc<MemLog> {
        Arc::new(MemLog::new())
    }

    /// Bytes guaranteed durable (covered by a completed sync).
    pub fn synced_len(&self) -> u64 {
        self.inner.lock().synced as u64
    }

    /// Simulate a crash: keep the synced prefix plus at most `extra`
    /// bytes of the unsynced tail (a real disk may have written back any
    /// prefix of the buffered bytes before power was lost). `extra = 0`
    /// is the conservative crash: only what was fsynced survives.
    pub fn crash_keep(&self, extra: usize) {
        let mut s = self.inner.lock();
        let keep = (s.synced + extra).min(s.bytes.len());
        s.bytes.truncate(keep);
        s.synced = s.synced.min(keep);
    }

    /// Simulate the conservative crash: only synced bytes survive.
    pub fn crash(&self) {
        self.crash_keep(0);
    }
}

impl Default for MemLog {
    fn default() -> Self {
        MemLog::new()
    }
}

impl LogDevice for MemLog {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.inner.lock().bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        let mut s = self.inner.lock();
        s.synced = s.bytes.len();
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        Ok(self.inner.lock().bytes.clone())
    }

    fn truncate(&self, len: u64) -> Result<()> {
        let mut s = self.inner.lock();
        let len = (len as usize).min(s.bytes.len());
        s.bytes.truncate(len);
        s.synced = len;
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.inner.lock().bytes.len() as u64)
    }
}

// --- File-backed device ---

/// [`LogDevice`] over a real file. Appends seek to the end; `sync` is
/// `fdatasync`-class (`File::sync_data`).
pub struct FileLog {
    file: Mutex<File>,
}

impl FileLog {
    /// Open `path` for appending, creating it if absent.
    pub fn open_or_create(path: impl AsRef<Path>) -> Result<FileLog> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path.as_ref())
            .map_err(|e| StorageError::io("open", None, e))?;
        Ok(FileLog {
            file: Mutex::new(file),
        })
    }
}

impl LogDevice for FileLog {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        let mut f = self.file.lock();
        f.seek(SeekFrom::End(0))
            .map_err(|e| StorageError::io("seek", None, e))?;
        f.write_all(bytes)
            .map_err(|e| StorageError::io("append", None, e))
    }

    fn sync(&self) -> Result<()> {
        self.file
            .lock()
            .sync_data()
            .map_err(|e| StorageError::io("sync", None, e))
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(0))
            .map_err(|e| StorageError::io("seek", None, e))?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)
            .map_err(|e| StorageError::io("read", None, e))?;
        Ok(bytes)
    }

    fn truncate(&self, len: u64) -> Result<()> {
        let f = self.file.lock();
        f.set_len(len)
            .map_err(|e| StorageError::io("truncate", None, e))?;
        f.sync_data().map_err(|e| StorageError::io("sync", None, e))
    }

    fn len(&self) -> Result<u64> {
        let f = self.file.lock();
        Ok(f.metadata()
            .map_err(|e| StorageError::io("stat", None, e))?
            .len())
    }
}

// --- The record log ---

/// Write-side configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Records per fsync batch. `1` syncs every append (no loss window);
    /// larger windows batch appends into one fsync, so a crash can lose
    /// up to `group_commit - 1` acknowledged-but-unsynced records (the
    /// standard group-commit trade). The window is counted, not timed, so
    /// tests are deterministic.
    pub group_commit: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { group_commit: 1 }
    }
}

/// Write-side counters (documented in `docs/METRICS.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended to the log.
    pub records_appended: u64,
    /// Group-commit batches synced (each batch covered ≥ 1 record).
    pub group_commit_batches: u64,
    /// Device fsyncs issued (batches plus record-free syncs such as the
    /// sync sealing a log reset).
    pub fsyncs: u64,
}

/// Why the readable part of a log ends where it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// The log ends exactly at a record boundary.
    Clean,
    /// The log ends inside or after a bad record; everything from
    /// `valid_len` on must be discarded.
    Torn {
        /// Bytes of the log that hold whole, valid records.
        valid_len: u64,
        /// Bytes past `valid_len` (the unusable tail).
        dropped_bytes: u64,
        /// What was wrong with the first bad record.
        reason: &'static str,
    },
}

/// The result of scanning a log: every valid record in append order plus
/// the tail diagnosis.
#[derive(Debug)]
pub struct LogScan {
    /// Payloads of the whole, valid records.
    pub records: Vec<Vec<u8>>,
    /// How the log ends.
    pub tail: TailStatus,
}

/// An append-only record log with group commit over a [`LogDevice`].
pub struct Wal {
    dev: SharedLog,
    config: WalConfig,
    pending: usize,
    synced_records: u64,
    appended_records: u64,
    stats: WalStats,
}

impl Wal {
    /// A writer over `dev` without reading it first. Use when the device
    /// is known clean (fresh log or just repaired); otherwise use
    /// [`Wal::open`].
    pub fn new(dev: SharedLog, config: WalConfig) -> Wal {
        assert!(config.group_commit >= 1, "group-commit window must be ≥ 1");
        Wal {
            dev,
            config,
            pending: 0,
            synced_records: 0,
            appended_records: 0,
            stats: WalStats::default(),
        }
    }

    /// Open an existing log: scan it, repair a torn tail by truncating the
    /// device at the last valid record, and return a writer positioned
    /// after it together with the scan.
    pub fn open(dev: SharedLog, config: WalConfig) -> Result<(Wal, LogScan)> {
        let scan = Wal::scan(dev.as_ref())?;
        if let TailStatus::Torn { valid_len, .. } = scan.tail {
            dev.truncate(valid_len)?;
        }
        let mut wal = Wal::new(dev, config);
        wal.synced_records = scan.records.len() as u64;
        wal.appended_records = wal.synced_records;
        Ok((wal, scan))
    }

    /// Read every whole, valid record, stopping cleanly at the first
    /// torn, truncated, or corrupt one. Pure read: the device is not
    /// repaired (see [`Wal::open`]).
    pub fn scan(dev: &dyn LogDevice) -> Result<LogScan> {
        let bytes = dev.read_all()?;
        let mut records = Vec::new();
        let mut pos = 0usize;
        let tail = loop {
            let rem = bytes.len() - pos;
            if rem == 0 {
                break TailStatus::Clean;
            }
            let torn = |reason| TailStatus::Torn {
                valid_len: pos as u64,
                dropped_bytes: rem as u64,
                reason,
            };
            if rem < FRAME_HEADER {
                break torn("log ends inside a record header");
            }
            let magic = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
            if magic != RECORD_MAGIC {
                break torn("bad record magic");
            }
            let len =
                u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes"));
            if len > rem - FRAME_HEADER {
                break torn("log ends inside a record payload");
            }
            let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
            if crc32c(payload) != crc {
                break torn("record checksum mismatch");
            }
            records.push(payload.to_vec());
            pos += FRAME_HEADER + len;
        };
        Ok(LogScan { records, tail })
    }

    /// Append one record. Durable once the group-commit window fills (or
    /// [`Wal::flush`] is called); an `Err` leaves the device in an
    /// unknown position — callers must treat the log as needing repair.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        assert!(
            payload.len() <= u32::MAX as usize,
            "WAL record exceeds the u32 length field"
        );
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32c(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.dev.append(&frame)?;
        self.pending += 1;
        self.appended_records += 1;
        self.stats.records_appended += 1;
        if self.pending >= self.config.group_commit {
            self.flush()?;
        }
        Ok(())
    }

    /// Sync the device, sealing any pending records into durability. A
    /// no-op when nothing is pending.
    pub fn flush(&mut self) -> Result<()> {
        if self.pending == 0 {
            return Ok(());
        }
        self.dev.sync()?;
        self.stats.fsyncs += 1;
        self.stats.group_commit_batches += 1;
        self.synced_records += self.pending as u64;
        self.pending = 0;
        Ok(())
    }

    /// Truncate the log to zero bytes (after a successful checkpoint) and
    /// seal the truncation. Pending (never-synced) records are discarded
    /// with it.
    pub fn reset(&mut self) -> Result<()> {
        self.dev.truncate(0)?;
        self.stats.fsyncs += 1;
        self.pending = 0;
        self.synced_records = 0;
        self.appended_records = 0;
        Ok(())
    }

    /// Records appended this session (durable or not).
    pub fn appended_records(&self) -> u64 {
        self.appended_records
    }

    /// Records covered by a completed sync (the durable prefix).
    pub fn synced_records(&self) -> u64 {
        self.synced_records
    }

    /// Cumulative write-side counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The device this log writes to.
    pub fn device(&self) -> &SharedLog {
        &self.dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal(window: usize) -> (Wal, Arc<MemLog>) {
        let dev = MemLog::shared();
        let log: SharedLog = dev.clone();
        (
            Wal::new(
                log,
                WalConfig {
                    group_commit: window,
                },
            ),
            dev,
        )
    }

    #[test]
    fn append_scan_roundtrip() {
        let (mut w, dev) = wal(1);
        for i in 0..10u32 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        let scan = Wal::scan(dev.as_ref()).unwrap();
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.records.len(), 10);
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(r.as_slice(), (i as u32).to_le_bytes());
        }
        assert_eq!(w.stats().records_appended, 10);
        assert_eq!(w.stats().fsyncs, 10, "window 1 syncs every record");
    }

    #[test]
    fn empty_records_roundtrip() {
        let (mut w, dev) = wal(1);
        w.append(&[]).unwrap();
        w.append(b"x").unwrap();
        let scan = Wal::scan(dev.as_ref()).unwrap();
        assert_eq!(scan.records, vec![Vec::<u8>::new(), b"x".to_vec()]);
    }

    #[test]
    fn group_commit_batches_syncs() {
        let (mut w, dev) = wal(4);
        for i in 0..10u32 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        // Two full windows synced; 2 records pending.
        assert_eq!(w.stats().fsyncs, 2);
        assert_eq!(w.stats().group_commit_batches, 2);
        assert_eq!(w.synced_records(), 8);
        // A crash now loses exactly the pending tail.
        dev.crash();
        let scan = Wal::scan(dev.as_ref()).unwrap();
        assert_eq!(scan.records.len(), 8);
        assert_eq!(scan.tail, TailStatus::Clean);
    }

    #[test]
    fn explicit_flush_seals_the_window() {
        let (mut w, dev) = wal(64);
        w.append(b"a").unwrap();
        w.append(b"b").unwrap();
        assert_eq!(w.synced_records(), 0);
        w.flush().unwrap();
        assert_eq!(w.synced_records(), 2);
        assert_eq!(w.stats().fsyncs, 1);
        w.flush().unwrap();
        assert_eq!(w.stats().fsyncs, 1, "flush with nothing pending is free");
        dev.crash();
        assert_eq!(Wal::scan(dev.as_ref()).unwrap().records.len(), 2);
    }

    #[test]
    fn torn_tail_is_diagnosed_and_repaired_at_every_cut() {
        // Build a 3-record log, then cut it at every byte boundary inside
        // the last record: scan must return the first two records and a
        // torn tail — never a panic, never a third record.
        let (mut w, dev) = wal(1);
        for payload in [b"first!".as_slice(), b"second".as_slice(), b"third?"] {
            w.append(payload).unwrap();
        }
        let full = dev.read_all().unwrap();
        let rec_len = FRAME_HEADER + 6;
        let two = full.len() - rec_len;
        for cut in two + 1..full.len() {
            let dev = MemLog::shared();
            dev.append(&full[..cut]).unwrap();
            dev.sync().unwrap();
            let scan = Wal::scan(dev.as_ref()).unwrap();
            assert_eq!(scan.records.len(), 2, "cut at {cut}");
            match scan.tail {
                TailStatus::Torn {
                    valid_len,
                    dropped_bytes,
                    ..
                } => {
                    assert_eq!(valid_len as usize, two);
                    assert_eq!(dropped_bytes as usize, cut - two);
                }
                TailStatus::Clean => panic!("cut at {cut} must be torn"),
            }
            // open() repairs: the device is cut back and appendable.
            let log: SharedLog = dev.clone();
            let (mut w2, scan) = Wal::open(log, WalConfig::default()).unwrap();
            assert_eq!(scan.records.len(), 2);
            assert_eq!(dev.len().unwrap() as usize, two);
            w2.append(b"fourth").unwrap();
            let rescan = Wal::scan(dev.as_ref()).unwrap();
            assert_eq!(rescan.tail, TailStatus::Clean);
            assert_eq!(rescan.records.len(), 3);
            assert_eq!(rescan.records[2], b"fourth");
        }
    }

    #[test]
    fn corrupt_record_stops_the_scan_before_later_valid_records() {
        let (mut w, dev) = wal(1);
        w.append(b"keep").unwrap();
        w.append(b"flip").unwrap();
        w.append(b"lost").unwrap();
        let mut bytes = dev.read_all().unwrap();
        // Flip one payload byte of the middle record.
        let mid = FRAME_HEADER + 4 + FRAME_HEADER;
        bytes[mid] ^= 0x40;
        let dev = MemLog::shared();
        dev.append(&bytes).unwrap();
        let scan = Wal::scan(dev.as_ref()).unwrap();
        assert_eq!(scan.records, vec![b"keep".to_vec()]);
        assert!(
            matches!(
                scan.tail,
                TailStatus::Torn {
                    reason: "record checksum mismatch",
                    ..
                }
            ),
            "{:?}",
            scan.tail
        );
    }

    #[test]
    fn garbage_magic_is_torn_not_panic() {
        let dev = MemLog::shared();
        dev.append(b"this is not a log record at all........")
            .unwrap();
        let scan = Wal::scan(dev.as_ref()).unwrap();
        assert!(scan.records.is_empty());
        assert!(matches!(
            scan.tail,
            TailStatus::Torn {
                valid_len: 0,
                reason: "bad record magic",
                ..
            }
        ));
    }

    #[test]
    fn oversized_length_field_is_torn_not_alloc() {
        let dev = MemLog::shared();
        let mut frame = Vec::new();
        frame.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        frame.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        frame.extend_from_slice(&0u32.to_le_bytes());
        dev.append(&frame).unwrap();
        let scan = Wal::scan(dev.as_ref()).unwrap();
        assert!(scan.records.is_empty());
        assert!(matches!(
            scan.tail,
            TailStatus::Torn {
                reason: "log ends inside a record payload",
                ..
            }
        ));
    }

    #[test]
    fn reset_truncates_and_restarts_counters() {
        let (mut w, dev) = wal(1);
        w.append(b"old").unwrap();
        w.reset().unwrap();
        assert_eq!(dev.len().unwrap(), 0);
        assert_eq!(w.synced_records(), 0);
        w.append(b"new").unwrap();
        let scan = Wal::scan(dev.as_ref()).unwrap();
        assert_eq!(scan.records, vec![b"new".to_vec()]);
        assert_eq!(w.stats().records_appended, 2, "stats are cumulative");
    }

    #[test]
    fn crash_keep_preserves_partial_unsynced_tail() {
        let (mut w, dev) = wal(64); // nothing synced
        w.append(b"aaaa").unwrap();
        w.append(b"bbbb").unwrap();
        let rec = (FRAME_HEADER + 4) as u64;
        // The disk wrote back the first record and half the second.
        dev.crash_keep(rec as usize + 7);
        assert_eq!(dev.len().unwrap(), rec + 7);
        let scan = Wal::scan(dev.as_ref()).unwrap();
        assert_eq!(scan.records, vec![b"aaaa".to_vec()]);
        assert!(matches!(scan.tail, TailStatus::Torn { .. }));
    }

    #[test]
    fn file_log_roundtrips_and_repairs() {
        let path = std::env::temp_dir().join(format!("uncat-wal-{}.log", std::process::id()));
        struct Cleanup(std::path::PathBuf);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        let _guard = Cleanup(path.clone());
        let _ = std::fs::remove_file(&path);
        {
            let dev: SharedLog = Arc::new(FileLog::open_or_create(&path).unwrap());
            let (mut w, scan) = Wal::open(dev, WalConfig::default()).unwrap();
            assert!(scan.records.is_empty());
            w.append(b"persisted").unwrap();
            w.flush().unwrap();
        }
        // Tear the file mid-record, then reopen: repair cuts it back.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let dev: SharedLog = Arc::new(FileLog::open_or_create(&path).unwrap());
        let (mut w, scan) = Wal::open(dev.clone(), WalConfig::default()).unwrap();
        assert!(scan.records.is_empty());
        assert!(matches!(scan.tail, TailStatus::Torn { .. }));
        assert_eq!(dev.len().unwrap(), 0);
        w.append(b"again").unwrap();
        w.flush().unwrap();
        let scan = Wal::scan(dev.as_ref()).unwrap();
        assert_eq!(scan.records, vec![b"again".to_vec()]);
    }
}
