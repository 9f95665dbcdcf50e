//! The per-query buffer pool: a handle on the buffer ring, plus the
//! query's ledger.
//!
//! The experimental setup of the paper: "all experiments are conducted with
//! a buffer manager that allocates 100 blocks to each query. A clock
//! replacement algorithm is used to manage the buffer pool." Index code
//! accesses pages only through [`BufferPool::read`] / [`BufferPool::write`],
//! so [`IoStats::physical_reads`] is exactly the paper's y-axis.
//!
//! Every page access is fallible: a failed physical read, a checksum
//! mismatch, or an unwritable eviction victim propagates as a
//! [`StorageError`](crate::StorageError) to the calling query rather than
//! aborting the process.
//!
//! [`BufferPool`] owns no replacement logic. It is a [`PoolHandle`] on a
//! [`SharedBufferPool`] — the one ring, in [`crate::shared`] — and the
//! constructors differ only in which ring that is: `new` /
//! `with_capacity` / `new_no_steal` build a private
//! one-stripe ring for this pool alone (the paper's per-query buffer),
//! [`BufferPool::from_handle`] joins a ring shared with concurrent
//! queries. Index and query code is written against this one type and
//! cannot tell the difference — `stats()` always reports the I/O
//! performed *by this query*.
//!
//! The pool a query runs on is also that query's ledger. Besides the
//! handle and its I/O counters it carries the query's [`Tracer`] and its
//! [`QueryMetrics`]: every public query entry point takes
//! `(pool, query…)`, runs its kernel against local counters
//! ([`BufferPool::tally`]) and adds them here on the way out, on the
//! error path too. To read a query's counters, run it and read
//! [`BufferPool::metrics`].

use crate::disk::SharedStore;
use crate::error::Result;
use crate::metrics::QueryMetrics;
use crate::page::{PageBuf, PageId, PAGE_SIZE};
use crate::shared::{PoolHandle, SharedBufferPool};
use crate::stats::IoStats;
use crate::trace::{Phase, QueryTrace, SpanId, Tracer};

/// Default pool capacity in frames — the paper's per-query allocation.
pub const DEFAULT_FRAMES: usize = 100;

/// A buffer manager over a shared page store.
///
/// Single-owner (methods take `&mut self`): each query drives exactly one
/// pool, like the paper's per-query buffers. The frames behind it belong
/// to a [`SharedBufferPool`] that is either this pool's alone or shared
/// with concurrent queries — see [`BufferPool::from_handle`].
pub struct BufferPool {
    handle: PoolHandle,
    /// Latency recorder for the query driving this pool. Disabled by
    /// default: one `None` check per access, nothing else (DESIGN.md §6g).
    tracer: Tracer,
    /// Execution counters of the queries run through this pool. Its `io`
    /// is never read: [`BufferPool::metrics`] fills that from `stats()`.
    ledger: QueryMetrics,
}

impl BufferPool {
    /// A private pool with the paper's default 100 frames.
    pub fn new(store: SharedStore) -> BufferPool {
        BufferPool::with_capacity(store, DEFAULT_FRAMES)
    }

    /// A private pool with a custom frame count (≥ 1).
    pub fn with_capacity(store: SharedStore, capacity: usize) -> BufferPool {
        BufferPool::from_handle(SharedBufferPool::new(store, capacity, 1).handle())
    }

    /// A private pool under the *no-steal* discipline: dirty frames are
    /// never written back to the store — not by eviction (dirty frames
    /// are ineligible victims), not on drop — so durable pages always
    /// hold the state of the last explicit installation (the checkpoint
    /// discipline of `uncat_query`'s durable index). A pool whose frames
    /// are all dirty reports `StorageError::PoolExhausted` rather than
    /// stealing one; [`flush`](BufferPool::flush) remains available as
    /// the *explicit* install path.
    pub fn new_no_steal(store: SharedStore, capacity: usize) -> BufferPool {
        let ring = SharedBufferPool::build(store, capacity, 1, true);
        BufferPool::from_handle(ring.handle())
    }

    /// Pool backed by a per-query handle onto a [`SharedBufferPool`]. All
    /// reads and writes go through the ring's frames;
    /// [`stats`](BufferPool::stats) reports only the I/O performed through
    /// this handle, so per-query metrics stay exact.
    pub fn from_handle(handle: PoolHandle) -> BufferPool {
        BufferPool {
            handle,
            tracer: Tracer::disabled(),
            ledger: QueryMetrics::default(),
        }
    }

    /// Number of dirty (not-yet-written-back) resident frames, ring-wide.
    pub fn dirty_count(&self) -> usize {
        self.handle.pool().dirty_count()
    }

    /// Clone the after-images of every dirty frame (page id ascending, so
    /// output is deterministic). This is the checkpoint's redo source:
    /// the pages whose durable copies are stale.
    pub fn dirty_pages(&self) -> Vec<(PageId, PageBuf)> {
        self.handle.pool().dirty_pages()
    }

    /// Mark every frame clean *without* writing anything back: the caller
    /// has installed the dirty images through another channel (a
    /// committed checkpoint).
    pub fn mark_all_clean(&mut self) {
        self.handle.pool().mark_all_clean()
    }

    /// The shared store this pool sits on.
    pub fn store(&self) -> &SharedStore {
        self.handle.pool().store()
    }

    /// Allocate a fresh page on the store and cache its (zeroed) image.
    pub fn allocate(&mut self) -> Result<PageId> {
        self.timed(|h| h.allocate())
    }

    /// Read page `pid`, exposing its bytes to `f`.
    pub fn read<R>(&mut self, pid: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        self.timed(|h| h.read(pid, f))
    }

    /// Mutate page `pid` in place; the frame is marked dirty and written
    /// back on eviction or [`flush`](BufferPool::flush).
    pub fn write<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        self.timed(|h| h.write(pid, f))
    }

    /// Write every dirty frame of the ring back to the store, charging
    /// the writes to this pool. On error the failing frame (and any not
    /// yet visited) stays dirty.
    pub fn flush(&mut self) -> Result<()> {
        self.timed(|h| h.flush())
    }

    /// Run a pool operation, attributing its duration to the I/O latency
    /// histograms when tracing is enabled and the operation performed
    /// physical I/O. The disabled path is a single branch: no clock read,
    /// no stats snapshot, no allocation.
    fn timed<R>(&mut self, op: impl FnOnce(&mut PoolHandle) -> Result<R>) -> Result<R> {
        if !self.tracer.is_enabled() {
            return op(&mut self.handle);
        }
        let before = self.handle.stats();
        let t0 = self.tracer.now_ns().unwrap_or(0);
        let out = op(&mut self.handle);
        let dur = self.tracer.now_ns().unwrap_or(t0).saturating_sub(t0);
        let after = self.handle.stats();
        let read = after.physical_reads > before.physical_reads;
        let write = after.physical_writes > before.physical_writes;
        if read || write {
            self.tracer.record_io(dur, read, write);
        }
        out
    }

    /// Install a tracer (enabled or disabled) on this pool. The search
    /// paths all receive `&mut BufferPool`, so hosting the tracer here
    /// lets them record spans without any signature changes.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Whether a tracer is currently recording on this pool.
    pub fn trace_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// The pool's tracer (for direct histogram recording, e.g. WAL
    /// timing at the durable-index call sites).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Open a span of `phase` on this pool's tracer.
    /// [`SpanId::NONE`] when tracing is off.
    pub fn trace_begin(&mut self, phase: Phase) -> SpanId {
        self.tracer.begin(phase)
    }

    /// Close a span opened with [`trace_begin`](BufferPool::trace_begin).
    pub fn trace_end(&mut self, id: SpanId) {
        self.tracer.end(id)
    }

    /// Finish recording and return the trace, leaving tracing disabled.
    pub fn take_trace(&mut self) -> Option<QueryTrace> {
        self.tracer.take()
    }

    /// Drop all cached frames of the ring (flushing dirty ones): a cold
    /// cache. Frames pinned by other queries survive.
    pub fn clear(&mut self) -> Result<()> {
        self.handle.flush()?; // the write-backs are this pool's
        self.handle.pool().drop_unpinned();
        Ok(())
    }

    /// I/O performed by this query so far (through this pool's handle).
    pub fn stats(&self) -> IoStats {
        self.handle.stats()
    }

    /// Execution counters accumulated through this pool, with `io` filled
    /// from [`stats`](BufferPool::stats): the whole cost profile of the
    /// queries run on it since it was created or last
    /// [`reset_stats`](BufferPool::reset_stats).
    pub fn metrics(&self) -> QueryMetrics {
        QueryMetrics {
            io: self.stats(),
            ..self.ledger
        }
    }

    /// Run `kernel` against fresh counters and add them to this pool's
    /// ledger on the way out, whatever it returned: a query that dies
    /// mid-drain still shows what it ticked. (Anything it writes to the
    /// counters' `io` is ignored: the pool counts its own.) The search
    /// kernels tick a `&mut QueryMetrics` inside `read` closures that
    /// hold the pool borrowed, so the counters are local while the kernel
    /// runs and land here once per public call.
    pub fn tally<R>(&mut self, kernel: impl FnOnce(&mut BufferPool, &mut QueryMetrics) -> R) -> R {
        let mut counters = QueryMetrics::new();
        let out = kernel(self, &mut counters);
        self.ledger.merge(&counters);
        out
    }

    /// Zero the I/O counters and the execution counters together (cache
    /// contents are retained).
    pub fn reset_stats(&mut self) {
        self.ledger = QueryMetrics::default();
        self.handle.reset_stats();
    }

    /// Frame capacity of the ring behind this pool.
    pub fn capacity(&self) -> usize {
        self.handle.pool().capacity()
    }

    /// Number of resident pages, ring-wide.
    pub fn resident(&self) -> usize {
        self.handle.pool().resident()
    }

    /// Whether `pid` is currently cached (no I/O side effects).
    pub fn is_resident(&self, pid: PageId) -> bool {
        self.handle.pool().is_resident(pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;
    use crate::error::StorageError;
    use crate::fault::{Fault, FaultStore};
    use crate::page::zeroed_page;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::with_capacity(InMemoryDisk::shared(), frames)
    }

    #[test]
    fn repeated_reads_hit_the_cache() {
        let mut p = pool(4);
        let pid = p.allocate().unwrap();
        p.flush().unwrap();
        p.reset_stats();
        for _ in 0..5 {
            p.read(pid, |_| ()).unwrap();
        }
        let s = p.stats();
        assert_eq!(s.physical_reads, 0, "page was resident after allocate");
        assert_eq!(s.hits, 5);
        assert_eq!(s.logical_reads, 5);
    }

    #[test]
    fn writes_are_flushed_and_visible_to_other_pools() {
        let store = InMemoryDisk::shared();
        let pid;
        {
            let mut w = BufferPool::with_capacity(store.clone(), 2);
            pid = w.allocate().unwrap();
            w.write(pid, |b| b[17] = 99).unwrap();
            w.flush().unwrap();
        }
        let mut r = BufferPool::with_capacity(store, 2);
        let v = r.read(pid, |b| b[17]).unwrap();
        assert_eq!(v, 99);
        assert_eq!(r.stats().physical_reads, 1);
    }

    #[test]
    fn eviction_happens_beyond_capacity() {
        let mut p = pool(2);
        let pids: Vec<PageId> = (0..3).map(|_| p.allocate().unwrap()).collect();
        p.flush().unwrap();
        // Touch all three; only two fit.
        for &pid in &pids {
            p.read(pid, |_| ()).unwrap();
        }
        assert_eq!(p.resident(), 2);
        assert!(!p.is_resident(pids[0]) || !p.is_resident(pids[1]) || !p.is_resident(pids[2]));
    }

    #[test]
    fn clock_gives_second_chance_to_referenced_pages() {
        let mut p = pool(2);
        let a = p.allocate().unwrap();
        let _b = p.allocate().unwrap(); // fills both frames; both referenced
        p.flush().unwrap();
        p.read(a, |_| ()).unwrap(); // keep A hot
        let c = p.allocate().unwrap(); // must evict someone
        p.flush().unwrap();
        // A was re-referenced after B, so the clock should clear reference
        // bits in order and evict one of the stale pages — after the dust
        // settles A or B is out but C is in.
        assert!(p.is_resident(c));
        assert_eq!(p.resident(), 2);
    }

    /// (Also what `shared::tests::dirty_eviction_writes_back` checked on a
    /// bare handle: the same lines, now reached from here.)
    #[test]
    fn dirty_eviction_writes_back() {
        let store = InMemoryDisk::shared();
        let mut p = BufferPool::with_capacity(store.clone(), 1);
        let a = p.allocate().unwrap();
        p.write(a, |b| b[0] = 7).unwrap();
        let _b = p.allocate().unwrap(); // evicts dirty `a`
        let mut q = BufferPool::with_capacity(store, 1);
        assert_eq!(q.read(a, |b| b[0]).unwrap(), 7);
    }

    #[test]
    fn cold_read_counts_one_physical_io_per_page() {
        let store = InMemoryDisk::shared();
        let pids: Vec<PageId> = {
            let mut w = BufferPool::with_capacity(store.clone(), 8);
            let v: Vec<PageId> = (0..8).map(|_| w.allocate().unwrap()).collect();
            w.flush().unwrap();
            v
        };
        let mut p = BufferPool::with_capacity(store, 100);
        for &pid in &pids {
            p.read(pid, |_| ()).unwrap();
            p.read(pid, |_| ()).unwrap();
        }
        let s = p.stats();
        assert_eq!(s.physical_reads, 8);
        assert_eq!(s.hits, 8);
    }

    #[test]
    fn clear_resets_cache_but_preserves_data() {
        let mut p = pool(4);
        let a = p.allocate().unwrap();
        p.write(a, |b| b[3] = 5).unwrap();
        p.clear().unwrap();
        assert_eq!(p.resident(), 0);
        assert_eq!(p.read(a, |b| b[3]).unwrap(), 5);
        assert!(p.is_resident(a));
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        let _ = pool(0);
    }

    #[test]
    fn both_policies_deliver_identical_data() {
        let store = InMemoryDisk::shared();
        let pids: Vec<PageId> = {
            let mut w = BufferPool::with_capacity(store.clone(), 16);
            let v: Vec<PageId> = (0..10u8)
                .map(|i| {
                    let pid = w.allocate().unwrap();
                    w.write(pid, |b| b[0] = i).unwrap();
                    pid
                })
                .collect();
            w.flush().unwrap();
            v
        };
        // The two write-back policies: a stealing ring and a no-steal one.
        for no_steal in [false, true] {
            let ring = SharedBufferPool::build(store.clone(), 3, 1, no_steal);
            let mut p = BufferPool::from_handle(ring.handle());
            for (i, &pid) in pids.iter().enumerate() {
                assert_eq!(p.read(pid, |b| b[0]).unwrap() as usize, i, "{no_steal}");
            }
        }
    }

    /// Deterministic access trace on which clock and exact LRU part ways.
    ///
    /// Capacity 3, pages A B C resident with A re-touched last, then a
    /// fourth page D faults in. The clock hand sits at slot 0 with every
    /// reference bit set, so it sweeps A, B, C clearing bits and returns
    /// to slot 0: A — the re-touched page clock cannot protect, because
    /// one full sweep erases all recency it knows about. (Exact LRU would
    /// evict B, the oldest access.)
    #[test]
    fn clock_and_lru_diverge_on_a_re_touched_page() {
        let (evicted, survivor) = (0, 1); // evicts A, keeps B
        let store = InMemoryDisk::shared();
        let pids: Vec<PageId> = {
            let mut w = BufferPool::with_capacity(store.clone(), 8);
            let v: Vec<PageId> = (0..4).map(|_| w.allocate().unwrap()).collect();
            w.flush().unwrap();
            v
        };
        let mut p = BufferPool::with_capacity(store, 3);
        p.read(pids[0], |_| ()).unwrap(); // A → slot 0
        p.read(pids[1], |_| ()).unwrap(); // B → slot 1
        p.read(pids[2], |_| ()).unwrap(); // C → slot 2
        p.read(pids[0], |_| ()).unwrap(); // re-touch A
        p.read(pids[3], |_| ()).unwrap(); // D faults in, someone goes
        assert!(!p.is_resident(pids[evicted]), "clock must evict A");
        assert!(p.is_resident(pids[survivor]), "clock must keep B");
        assert!(p.is_resident(pids[3]));
        // The residency difference is visible in the I/O counters of the
        // next access: the survivor hits, the victim re-faults.
        p.reset_stats();
        p.read(pids[survivor], |_| ()).unwrap();
        assert_eq!(p.stats().hits, 1, "the survivor must hit");
        p.read(pids[evicted], |_| ()).unwrap();
        assert_eq!(p.stats().physical_reads, 1, "the victim must re-fault");
    }

    /// (Absorbs `shared::tests::failed_read_fails_one_query_and_pool_stays_usable`,
    /// which drove the same fault through a bare handle.)
    #[test]
    fn injected_read_failure_propagates_without_poisoning_the_pool() {
        let faults = Arc::new(FaultStore::new(InMemoryDisk::shared(), 3));
        faults.arm(Fault::FailRead { after: 1 });
        let mut p = BufferPool::with_capacity(faults.clone(), 4);
        let pid = p.allocate().unwrap();
        p.clear().unwrap();
        assert!(matches!(p.read(pid, |_| ()), Err(StorageError::Io { .. })));
        // The failed page was not installed; the fault fired once and the
        // pool stays usable.
        assert!(!p.is_resident(pid));
        assert_eq!(p.read(pid, |b| b[0]).unwrap(), 0);
    }

    /// (Also what `shared::tests::failed_dirty_eviction_keeps_the_frame_dirty`
    /// checked on a bare handle.)
    #[test]
    fn failed_dirty_eviction_keeps_the_frame_dirty() {
        let faults = Arc::new(FaultStore::new(InMemoryDisk::shared(), 3));
        let mut p = BufferPool::with_capacity(faults.clone(), 1);
        let a = p.allocate().unwrap();
        p.write(a, |b| b[0] = 5).unwrap();
        faults.arm(Fault::FailWrite { after: 1 });
        // Allocating a second page must evict dirty `a`; the injected
        // write failure surfaces and `a`'s image survives in the pool.
        assert!(p.allocate().is_err());
        assert_eq!(p.read(a, |b| b[0]).unwrap(), 5);
        p.flush().unwrap();
    }

    #[test]
    fn allocation_failure_surfaces_as_nospace() {
        let faults = Arc::new(FaultStore::new(InMemoryDisk::shared(), 3));
        faults.arm(Fault::FailAllocate { after: 1 });
        let mut p = BufferPool::with_capacity(faults, 2);
        assert_eq!(p.allocate(), Err(StorageError::NoSpace));
        assert!(p.allocate().is_ok());
    }

    #[test]
    fn no_steal_never_writes_dirty_pages_to_the_store() {
        let store = InMemoryDisk::shared();
        // Pre-allocate pages through a normal pool so the store has them.
        let pids: Vec<PageId> = {
            let mut w = BufferPool::with_capacity(store.clone(), 8);
            let v: Vec<PageId> = (0..4).map(|_| w.allocate().unwrap()).collect();
            w.flush().unwrap();
            v
        };
        {
            let mut p = BufferPool::new_no_steal(store.clone(), 2);
            p.write(pids[0], |b| b[0] = 1).unwrap();
            // One clean slot left: reading the others cycles through it
            // without ever touching the dirty frame.
            for &pid in &pids[1..] {
                p.read(pid, |_| ()).unwrap();
            }
            assert_eq!(p.dirty_count(), 1);
            assert_eq!(p.stats().physical_writes, 0, "no-steal: no writeback");
            // Dropping the pool must not flush either.
        }
        let mut check = BufferPool::with_capacity(store, 2);
        assert_eq!(
            check.read(pids[0], |b| b[0]).unwrap(),
            0,
            "durable page keeps its pre-mutation image"
        );
    }

    #[test]
    fn no_steal_all_dirty_pool_is_exhausted_not_stolen() {
        let store = InMemoryDisk::shared();
        let mut p = BufferPool::new_no_steal(store, 2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        assert_eq!(p.dirty_count(), 2, "fresh pages are dirty");
        assert_eq!(p.allocate(), Err(StorageError::PoolExhausted));
        // The two dirty pages are intact and the store untouched.
        p.read(a, |_| ()).unwrap();
        p.read(b, |_| ()).unwrap();
        assert_eq!(p.stats().physical_writes, 0);
    }

    #[test]
    fn dirty_pages_and_mark_all_clean_drive_the_checkpoint_protocol() {
        let store = InMemoryDisk::shared();
        let mut p = BufferPool::new_no_steal(store.clone(), 4);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.write(b, |buf| buf[9] = 42).unwrap();
        let dirty = p.dirty_pages();
        assert_eq!(
            dirty.iter().map(|(pid, _)| *pid).collect::<Vec<_>>(),
            {
                let mut v = vec![a, b];
                v.sort();
                v
            },
            "deterministic ascending order"
        );
        // Install through the side channel (what a checkpoint does) …
        for (pid, buf) in &dirty {
            store.write(*pid, buf).unwrap();
        }
        p.mark_all_clean();
        assert_eq!(p.dirty_count(), 0);
        // … and the durable copies now match the cached images.
        let mut check = BufferPool::with_capacity(store, 4);
        assert_eq!(check.read(b, |buf| buf[9]).unwrap(), 42);
    }

    /// The case that used to panic: checkpoint bookkeeping through a
    /// `from_handle` pool, here over a multi-stripe no-steal ring.
    /// (`shared_backed_pool_is_interchangeable_with_private` is gone with
    /// the second backing; a handle-backed pool's reads, writes and flush
    /// are covered by the ledger test below and by
    /// `shared::tests::dirty_pages_flush_and_are_visible_elsewhere`.)
    #[test]
    fn checkpoint_bookkeeping_works_through_a_handle_on_a_striped_no_steal_ring() {
        let store = InMemoryDisk::shared();
        let ring = SharedBufferPool::build(store.clone(), 8, 4, true);
        let mut p = BufferPool::from_handle(ring.handle());
        let pids: Vec<PageId> = (0..6).map(|_| p.allocate().unwrap()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            p.write(pid, |b| b[0] = i as u8 + 1).unwrap();
        }
        let dirty = p.dirty_pages();
        let order: Vec<PageId> = dirty.iter().map(|(pid, _)| *pid).collect();
        assert_eq!(order, pids, "every stripe's dirty pages, ascending");
        for (pid, buf) in &dirty {
            store.write(*pid, buf).unwrap();
        }
        p.mark_all_clean();
        assert_eq!(p.dirty_count(), 0);
        assert_eq!(p.stats().physical_writes, 0, "nothing was stolen");
        // A second handle on the ring sees clean, evictable frames …
        let mut q = BufferPool::from_handle(ring.handle());
        let more: Vec<PageId> = (0..8).map(|_| q.allocate().unwrap()).collect();
        assert_eq!(q.dirty_count(), 8, "the ring is all dirty again");
        assert_eq!(q.allocate(), Err(StorageError::PoolExhausted));
        assert!(more.iter().all(|&pid| q.is_resident(pid)));
        // … and the installed images are the durable ones.
        let mut check = BufferPool::with_capacity(store, 2);
        for (i, &pid) in pids.iter().enumerate() {
            assert_eq!(check.read(pid, |b| b[0]).unwrap(), i as u8 + 1);
        }
    }

    /// A stand-in kernel: read `pids`, ticking one posting per page.
    fn scan(pool: &mut BufferPool, pids: &[PageId]) -> Result<()> {
        pool.tally(|pool, m| {
            m.lists_opened += 1;
            for &pid in pids {
                pool.read(pid, |_| m.postings_scanned += 1)?;
            }
            Ok(())
        })
    }

    #[test]
    fn ledger_sums_what_ran_through_the_pool_and_resets_with_the_io() {
        let store = InMemoryDisk::shared();
        let pids: Vec<PageId> = {
            let mut w = BufferPool::with_capacity(store.clone(), 8);
            let v = (0..6).map(|_| w.allocate().unwrap()).collect();
            w.flush().unwrap();
            v
        };
        let shared = SharedBufferPool::new(store.clone(), 8, 2);
        let fresh = |handle: bool| {
            if handle {
                BufferPool::from_handle(shared.handle())
            } else {
                BufferPool::with_capacity(store.clone(), 8)
            }
        };
        for handle in [false, true] {
            // Two scans through one pool …
            let mut both = fresh(handle);
            scan(&mut both, &pids[..4]).unwrap();
            scan(&mut both, &pids[2..]).unwrap();
            let m = both.metrics();
            assert_eq!((m.lists_opened, m.postings_scanned), (2, 8));
            assert_eq!(m.io, both.stats(), "io is the pool's own count");
            assert_eq!(m.io.logical_reads, 8);
            // … tick what the same two tick on a pool each.
            let (mut a, mut b) = (fresh(handle), fresh(handle));
            scan(&mut a, &pids[..4]).unwrap();
            scan(&mut b, &pids[2..]).unwrap();
            let mut sum = QueryMetrics::sum([&a.metrics(), &b.metrics()]);
            assert_eq!(sum.io.logical_reads, m.io.logical_reads);
            sum.io = m.io; // the frames are shared, the counters are not
            assert_eq!(m, sum, "handle-backed: {handle}");

            both.reset_stats();
            assert_eq!(both.metrics(), QueryMetrics::default());
            assert_eq!(both.stats(), IoStats::default());
        }
    }

    #[test]
    fn a_kernel_that_dies_leaves_its_counters_in_the_ledger() {
        let faults = Arc::new(FaultStore::new(InMemoryDisk::shared(), 3));
        let mut p = BufferPool::with_capacity(faults.clone(), 4);
        let pids: Vec<PageId> = (0..3).map(|_| p.allocate().unwrap()).collect();
        p.clear().unwrap();
        p.reset_stats();
        faults.arm(Fault::FailRead {
            after: faults.reads_so_far() + 3,
        });
        assert!(matches!(scan(&mut p, &pids), Err(StorageError::Io { .. })));
        let m = p.metrics();
        assert_eq!((m.lists_opened, m.postings_scanned), (1, 2));
        assert_eq!(m.io.physical_reads, 3, "the failed read was attempted");
        // The pool stays usable, and keeps adding to the same ledger.
        scan(&mut p, &pids).unwrap();
        assert_eq!(p.metrics().postings_scanned, 5);
    }

    /// The ring's specification as a Vec scan: one byte per page, every
    /// lookup linear, one stripe. The oracle for the property below.
    #[derive(Default)]
    struct Model {
        frames: Vec<ModelFrame>,
        disk: Vec<u8>,
        cap: usize,
        no_steal: bool,
        hand: usize,
        io: IoStats,
    }

    #[derive(Clone, Copy)]
    struct ModelFrame {
        pid: PageId,
        byte: u8,
        referenced: bool,
        dirty: bool,
    }

    impl Model {
        fn victim(&mut self) -> Result<usize> {
            if self.frames.len() < self.cap {
                return Ok(self.frames.len());
            }
            let stuck = |f: &ModelFrame| self.no_steal && f.dirty;
            if self.frames.iter().all(stuck) {
                return Err(StorageError::PoolExhausted);
            }
            let slot = loop {
                let slot = self.hand;
                self.hand = (self.hand + 1) % self.cap;
                let f = &mut self.frames[slot];
                match (self.no_steal && f.dirty, f.referenced) {
                    (true, _) => {}
                    (false, true) => f.referenced = false,
                    (false, false) => break slot,
                }
            };
            let f = self.frames[slot];
            if f.dirty {
                self.disk[f.pid.0 as usize] = f.byte;
                self.io.physical_writes += 1;
            }
            Ok(slot)
        }

        /// Fault `pid` in (`fresh`: a just-allocated page, no read) and
        /// touch it; `put` overwrites its byte and dirties it.
        fn access(&mut self, pid: PageId, fresh: bool, put: Option<u8>) -> Result<u8> {
            self.io.logical_reads += u64::from(!fresh);
            let slot = match self.frames.iter().position(|f| f.pid == pid) {
                Some(slot) => {
                    self.io.hits += 1;
                    slot
                }
                None => {
                    self.io.physical_reads += u64::from(!fresh);
                    let slot = self.victim()?;
                    let frame = ModelFrame {
                        pid,
                        byte: self.disk[pid.0 as usize],
                        referenced: true,
                        dirty: fresh,
                    };
                    if slot == self.frames.len() {
                        self.frames.push(frame);
                    } else {
                        self.frames[slot] = frame;
                    }
                    slot
                }
            };
            let f = &mut self.frames[slot];
            f.referenced = true;
            if let Some(byte) = put {
                (f.byte, f.dirty) = (byte, true);
            }
            Ok(f.byte)
        }

        fn flush(&mut self) {
            for f in self.frames.iter_mut().filter(|f| f.dirty) {
                self.disk[f.pid.0 as usize] = f.byte;
                self.io.physical_writes += 1;
                f.dirty = false;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::proptest_cases(64)))]

        // Random traces through `BufferPool` against the model: after
        // every step the outcome, the I/O counters, the dirty count and
        // the resident set agree, and after a flush so do the store's
        // bytes.
        #[test]
        fn the_ring_agrees_with_a_vec_scan_model(
            (cap, no_steal) in (1usize..=8, any::<bool>()),
            ops in proptest::collection::vec((0u8..11, any::<u8>(), any::<u8>()), 1..160),
        ) {
            let store = InMemoryDisk::shared();
            let ring = SharedBufferPool::build(store.clone(), cap, 1, no_steal);
            let mut pool = BufferPool::from_handle(ring.handle());
            let mut model = Model { cap, no_steal, ..Model::default() };
            for (step, (kind, pick, byte)) in ops.into_iter().enumerate() {
                let pid = PageId((pick as usize % model.disk.len().max(1)) as u64);
                let mut flushed = false;
                match kind {
                    _ if model.disk.is_empty() => {}
                    0..=3 => prop_assert_eq!(
                        pool.read(pid, |b| b[0]), model.access(pid, false, None), "read, step {}", step
                    ),
                    4..=6 => prop_assert_eq!(
                        pool.write(pid, |b| { b[0] = byte; byte }),
                        model.access(pid, false, Some(byte)),
                        "write, step {}", step
                    ),
                    9 => {
                        pool.flush().unwrap();
                        model.flush();
                        flushed = true;
                    }
                    10 => {
                        pool.clear().unwrap();
                        model.flush();
                        model.frames.clear();
                        model.hand = 0;
                        flushed = true;
                    }
                    _ => {}
                }
                if model.disk.is_empty() || matches!(kind, 7 | 8) {
                    let fresh = PageId(model.disk.len() as u64);
                    model.disk.push(0);
                    let want = model.access(fresh, true, None).map(|_| fresh);
                    prop_assert_eq!(pool.allocate(), want, "allocate, step {}", step);
                }
                prop_assert_eq!(pool.stats(), model.io, "step {}", step);
                prop_assert_eq!(pool.dirty_count(), model.frames.iter().filter(|f| f.dirty).count());
                for i in 0..model.disk.len() {
                    let pid = PageId(i as u64);
                    let want = model.frames.iter().any(|f| f.pid == pid);
                    prop_assert_eq!(pool.is_resident(pid), want, "step {} {:?}", step, pid);
                    if flushed {
                        let mut buf = zeroed_page();
                        store.read(pid, &mut buf).unwrap();
                        prop_assert_eq!(buf[0], model.disk[i], "step {} {:?}", step, pid);
                    }
                }
            }
        }
    }
}
