//! Typed storage errors.
//!
//! Every physical I/O operation in this crate is fallible: a failed read,
//! a checksum mismatch, or an exhausted pool surfaces as a
//! [`StorageError`] that callers propagate instead of a process abort.
//! Queries run one-at-a-time over a per-query [`crate::BufferPool`], so a
//! bad page degrades exactly the query that touched it.

use crate::page::PageId;

/// Result alias for fallible storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Why a storage operation failed.
///
/// What each variant means for callers:
///
/// * [`Io`](StorageError::Io) — the operating system rejected a physical
///   read/write/extend. Retrying may help for transient conditions; the
///   page contents on disk are unknown.
/// * [`ShortRead`](StorageError::ShortRead) — the backing file ended
///   mid-page: the file was truncated outside our control.
/// * [`Checksum`](StorageError::Checksum) — the page was read in full but
///   its CRC32C trailer disagrees with its contents: bit rot or a torn
///   write. The page must not be interpreted.
/// * [`OutOfBounds`](StorageError::OutOfBounds) — a structure referenced
///   a page that was never allocated: a corrupt directory/snapshot, not a
///   transient condition.
/// * [`PoolExhausted`](StorageError::PoolExhausted) — the buffer pool
///   could not find an evictable frame.
/// * [`NoSpace`](StorageError::NoSpace) — page allocation failed
///   (ENOSPC-class conditions).
/// * [`Corrupt`](StorageError::Corrupt) — bytes read back (a page, a
///   log record, a metadata snapshot file or the blob it carries) fail
///   a check or do not decode as the expected structure.
/// * [`Duplicate`](StorageError::Duplicate) — an insert named a key that
///   already exists; nothing was modified.
/// * [`KeyOutOfRange`](StorageError::KeyOutOfRange) — an insert named a
///   key the structure cannot address; nothing was modified.
/// * [`RecordTooLarge`](StorageError::RecordTooLarge) — the record cannot
///   fit the page-size budget of its container; nothing was modified.
/// * [`EmptyRecord`](StorageError::EmptyRecord) — zero-length records are
///   not storable (length 0 marks a tombstone); nothing was modified.
/// * [`Poisoned`](StorageError::Poisoned) — a durable index hit a failure
///   after logging a mutation, so its in-memory state may disagree with
///   the log; reopen (recover) to restore consistency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The OS-level operation `op` failed with `detail`.
    Io {
        /// Which operation failed: `"seek"`, `"read"`, `"write"`, …
        op: &'static str,
        /// The page involved, when known.
        pid: Option<PageId>,
        /// OS error text.
        detail: String,
    },
    /// The file ended before a full page could be read.
    ShortRead {
        /// The page whose read came up short.
        pid: PageId,
    },
    /// Page contents disagree with their stored CRC32C.
    Checksum {
        /// The corrupt page.
        pid: PageId,
    },
    /// Access to a page beyond the allocated range.
    OutOfBounds {
        /// The requested page.
        pid: PageId,
        /// Number of pages actually allocated.
        pages: u64,
    },
    /// The buffer pool has no evictable frame.
    PoolExhausted,
    /// Page allocation failed for lack of space.
    NoSpace,
    /// Stored bytes fail a check or decode to an invalid structure.
    Corrupt(&'static str),
    /// An insert named a key (tuple id) that already exists.
    Duplicate {
        /// The duplicated key.
        key: u64,
    },
    /// An insert named a key (tuple id) beyond what the structure can
    /// address.
    KeyOutOfRange {
        /// The offending key.
        key: u64,
        /// The largest key the structure addresses.
        max: u64,
    },
    /// A record exceeds its container's budget.
    RecordTooLarge {
        /// Size of the offending record in bytes.
        len: usize,
        /// Largest storable size in bytes.
        max: usize,
    },
    /// A zero-length record was offered for storage.
    EmptyRecord,
    /// The in-memory state of a durable index was poisoned by an earlier
    /// post-log failure; reopen to recover.
    Poisoned,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io {
                op,
                pid: Some(pid),
                detail,
            } => {
                write!(f, "i/o failure during {op} of page {pid}: {detail}")
            }
            StorageError::Io {
                op,
                pid: None,
                detail,
            } => {
                write!(f, "i/o failure during {op}: {detail}")
            }
            StorageError::ShortRead { pid } => {
                write!(f, "short read: file ends inside page {pid}")
            }
            StorageError::Checksum { pid } => {
                write!(f, "checksum mismatch on page {pid}")
            }
            StorageError::OutOfBounds { pid, pages } => {
                write!(
                    f,
                    "access to unallocated page {pid} (only {pages} allocated)"
                )
            }
            StorageError::PoolExhausted => write!(f, "buffer pool exhausted"),
            StorageError::NoSpace => write!(f, "out of space allocating a page"),
            StorageError::Corrupt(what) => write!(f, "corrupt data: {what}"),
            StorageError::Duplicate { key } => {
                write!(f, "duplicate tuple id {key}")
            }
            StorageError::KeyOutOfRange { key, max } => {
                write!(f, "tuple id {key} is out of range (largest is {max})")
            }
            StorageError::RecordTooLarge { len, max } => {
                write!(f, "record of {len} bytes exceeds the {max}-byte budget")
            }
            StorageError::EmptyRecord => {
                write!(
                    f,
                    "empty records are not storable (length 0 marks a tombstone)"
                )
            }
            StorageError::Poisoned => {
                write!(
                    f,
                    "durable index state poisoned by an earlier failure; reopen to recover"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl StorageError {
    /// Wrap an OS error for operation `op` on page `pid`.
    pub fn io(op: &'static str, pid: impl Into<Option<PageId>>, err: std::io::Error) -> Self {
        StorageError::Io {
            op,
            pid: pid.into(),
            detail: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_page() {
        let e = StorageError::Checksum { pid: PageId(9) };
        assert!(e.to_string().contains("page p9"), "{e}");
        let e = StorageError::io("read", PageId(3), std::io::Error::other("boom"));
        assert!(
            e.to_string().contains("read") && e.to_string().contains("boom"),
            "{e}"
        );
    }

    #[test]
    fn mutation_variants_name_their_cause() {
        let e = StorageError::Duplicate { key: 17 };
        assert!(e.to_string().contains("17"), "{e}");
        let e = StorageError::KeyOutOfRange { key: 99, max: 42 };
        assert!(
            e.to_string().contains("99") && e.to_string().contains("42"),
            "{e}"
        );
        let e = StorageError::RecordTooLarge {
            len: 9000,
            max: 8000,
        };
        assert!(
            e.to_string().contains("9000") && e.to_string().contains("8000"),
            "{e}"
        );
        assert!(StorageError::EmptyRecord.to_string().contains("tombstone"));
        assert!(StorageError::Poisoned.to_string().contains("reopen"));
    }
}
