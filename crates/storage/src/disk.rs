//! The simulated disk: a page store with physical I/O counters.
//!
//! The paper evaluates on I/O counts, not wall-clock time, so an in-memory
//! array of pages behind the same buffer-manager interface reproduces the
//! metric exactly (see DESIGN.md §3). A store is shared by construction-time
//! and per-query buffer pools via [`SharedStore`].
//!
//! Every operation is fallible: implementations surface bad pages and
//! failed I/O as [`StorageError`] values so one bad page degrades one
//! query instead of aborting the process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{Result, StorageError};
use crate::page::{zeroed_page, PageBuf, PageId, PAGE_SIZE};

/// Abstract page store. Implementations must be internally synchronized;
/// all methods take `&self`.
pub trait PageStore: Send + Sync {
    /// Allocate a fresh zeroed page and return its id.
    fn allocate(&self) -> Result<PageId>;
    /// Copy page `pid` into `out`. Accessing a page that was never
    /// allocated yields [`StorageError::OutOfBounds`].
    fn read(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()>;
    /// Overwrite page `pid` with `data`.
    fn write(&self, pid: PageId, data: &[u8; PAGE_SIZE]) -> Result<()>;
    /// Number of allocated pages.
    fn num_pages(&self) -> u64;
    /// Physical reads served so far.
    fn reads(&self) -> u64;
    /// Physical writes served so far.
    fn writes(&self) -> u64;
}

/// Shared handle to a page store.
pub type SharedStore = Arc<dyn PageStore>;

/// In-memory simulated disk.
pub struct InMemoryDisk {
    pages: RwLock<Vec<PageBuf>>,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl InMemoryDisk {
    /// Empty disk.
    pub fn new() -> InMemoryDisk {
        InMemoryDisk {
            pages: RwLock::new(Vec::new()),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// Empty disk wrapped for sharing.
    pub fn shared() -> SharedStore {
        Arc::new(InMemoryDisk::new())
    }
}

impl Default for InMemoryDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl PageStore for InMemoryDisk {
    fn allocate(&self) -> Result<PageId> {
        let mut pages = self.pages.write();
        pages.push(zeroed_page());
        Ok(PageId(pages.len() as u64 - 1))
    }

    fn read(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let pages = self.pages.read();
        let page = pages.get(pid.0 as usize).ok_or(StorageError::OutOfBounds {
            pid,
            pages: pages.len() as u64,
        })?;
        out.copy_from_slice(&page[..]);
        Ok(())
    }

    fn write(&self, pid: PageId, data: &[u8; PAGE_SIZE]) -> Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        let mut pages = self.pages.write();
        let pages_len = pages.len() as u64;
        let page = pages
            .get_mut(pid.0 as usize)
            .ok_or(StorageError::OutOfBounds {
                pid,
                pages: pages_len,
            })?;
        page.copy_from_slice(data);
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        self.pages.read().len() as u64
    }

    fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_write_roundtrip() {
        let d = InMemoryDisk::new();
        let a = d.allocate().unwrap();
        let b = d.allocate().unwrap();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        assert_eq!(d.num_pages(), 2);

        let mut buf = zeroed_page();
        buf[0] = 0xAB;
        buf[PAGE_SIZE - 1] = 0xCD;
        d.write(b, &buf).unwrap();

        let mut out = zeroed_page();
        d.read(b, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        assert_eq!(out[PAGE_SIZE - 1], 0xCD);

        // Page `a` is still zeroed.
        d.read(a, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn counters_track_operations() {
        let d = InMemoryDisk::new();
        let p = d.allocate().unwrap();
        let mut buf = zeroed_page();
        d.read(p, &mut buf).unwrap();
        d.read(p, &mut buf).unwrap();
        d.write(p, &buf).unwrap();
        assert_eq!(d.reads(), 2);
        assert_eq!(d.writes(), 1);
    }

    #[test]
    fn unallocated_access_is_a_typed_error() {
        let d = InMemoryDisk::new();
        let mut buf = zeroed_page();
        assert_eq!(
            d.read(PageId(7), &mut buf),
            Err(StorageError::OutOfBounds {
                pid: PageId(7),
                pages: 0
            })
        );
        assert_eq!(
            d.write(PageId(7), &buf),
            Err(StorageError::OutOfBounds {
                pid: PageId(7),
                pages: 0
            })
        );
    }
}
