//! The buffer ring: a lock-striped pool of page frames with clock
//! replacement, shared by any number of per-query handles.
//!
//! This is the only place residency, eviction order, dirty tracking and
//! I/O attribution are decided. The paper's "100 frames per query, clock
//! replacement" is a [`SharedBufferPool`] with **one** stripe and one
//! handle (every [`crate::BufferPool`] constructor builds exactly that);
//! a batch or the service puts many handles on one multi-stripe pool so a
//! hot page is fetched once per *pool*, not once per query.
//!
//! * **Stripes.** The pool is split into `N` shards; a page id maps to
//!   exactly one, and each shard owns its frame ring, page table, clock
//!   hand and [`IoStats`] behind a `Mutex`. Queries touching different
//!   shards never contend, and an eviction in one shard proceeds while
//!   readers hold frames in every other.
//! * **Pins.** [`PinGuard`] pins a frame for as long as it lives: the
//!   eviction sweep skips pinned frames (the guard holds a strong
//!   reference to the frame's data; a frame is evictable only when the
//!   shard holds the sole reference). Page bytes sit behind a per-frame
//!   `RwLock`, so pinned readers proceed in parallel and never hold the
//!   shard lock while reading.
//! * **Attribution.** Every access is counted twice: into the owning
//!   shard's [`IoStats`] (the pool-level view, [`SharedBufferPool::stats`]
//!   / [`SharedBufferPool::shard_stats`]) and into the [`PoolHandle`] that
//!   made it (the per-query view behind `QueryMetrics.io`).
//! * **No-steal.** A pool built by [`crate::BufferPool::new_no_steal`]
//!   never writes a dirty frame back on its own — not by eviction (the
//!   sweep skips a dirty frame exactly as it skips a pinned one), not on
//!   drop — so the store always holds the last explicitly installed state
//!   (the checkpoint discipline of `uncat_query`'s durable index). A
//!   stealing pool writes dirty victims back and flushes, best effort,
//!   when its last reference drops.
//! * **Failure isolation.** A failed physical read or an unwritable
//!   eviction victim fails only the query that triggered it: the page
//!   table is never left inconsistent, a dirty victim that cannot be
//!   persisted stays resident and dirty, and the pool stays usable. A
//!   shard with no evictable frame surfaces
//!   [`StorageError::PoolExhausted`] to the requester instead of blocking.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::disk::SharedStore;
use crate::error::{Result, StorageError};
use crate::page::{zeroed_page, PageBuf, PageId, PAGE_SIZE};
use crate::stats::IoStats;

/// Default shard count: enough striping for small-machine thread counts
/// without fragmenting the frame budget.
pub const DEFAULT_SHARDS: usize = 8;

/// The guarded page image: bytes plus the dirty flag. Keeping `dirty`
/// inside the lock means writers mark-and-mutate atomically with respect
/// to write-back, so a flush can never clear the flag under a concurrent
/// mutation and lose it.
struct PageData {
    buf: PageBuf,
    dirty: bool,
    /// The pool's count of dirty page images, kept in step with `dirty`
    /// so the checkpoint trigger need not lock every frame to count.
    dirty_frames: Arc<AtomicUsize>,
}

impl PageData {
    fn set_dirty(&mut self, dirty: bool) {
        if self.dirty != dirty {
            self.dirty = dirty;
            // Relaxed: a tally, it publishes nothing.
            if dirty {
                self.dirty_frames.fetch_add(1, Ordering::Relaxed);
            } else {
                self.dirty_frames.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for PageData {
    fn drop(&mut self) {
        self.set_dirty(false);
    }
}

/// Shared frame payload; pins hold an `Arc` to it.
struct FrameData {
    page: RwLock<PageData>,
}

struct SharedFrame {
    pid: PageId,
    data: Arc<FrameData>,
    referenced: bool,
}

impl SharedFrame {
    /// Evictable means nobody outside the shard holds the frame: the
    /// shard's own `Arc` is the only strong reference. Pins are only
    /// created under the shard lock, so while the shard is locked the
    /// count can drop (a guard dropped elsewhere) but never rise — a
    /// frame observed evictable stays evictable.
    fn pinned(&self) -> bool {
        Arc::strong_count(&self.data) > 1
    }
}

/// One stripe: its own frame ring, page table, clock hand, and counters.
struct ShardCore {
    frames: Vec<SharedFrame>,
    map: HashMap<PageId, usize>,
    hand: usize,
    capacity: usize,
    stats: IoStats,
}

/// The buffer ring: a thread-safe pool of page frames over a shared
/// store, striped into independently locked shards (see the module docs).
pub struct SharedBufferPool {
    store: SharedStore,
    no_steal: bool,
    capacity: usize,
    dirty_frames: Arc<AtomicUsize>,
    shards: Vec<Mutex<ShardCore>>,
}

impl SharedBufferPool {
    /// Pool with `total_frames` frames striped over `shards` shards and
    /// clock replacement. `total_frames` must be at least `shards` so
    /// every shard owns a frame.
    pub fn new(store: SharedStore, total_frames: usize, shards: usize) -> Arc<SharedBufferPool> {
        SharedBufferPool::build(store, total_frames, shards, false)
    }

    /// Every constructor. With `no_steal`, dirty frames are never victims
    /// and nothing is written back on drop
    /// ([`crate::BufferPool::new_no_steal`]).
    pub(crate) fn build(
        store: SharedStore,
        total_frames: usize,
        shards: usize,
        no_steal: bool,
    ) -> Arc<SharedBufferPool> {
        assert!(shards >= 1, "buffer pool needs at least one shard");
        assert!(
            total_frames >= shards,
            "buffer pool needs at least one frame per shard ({total_frames} frames, {shards} shards)"
        );
        let cores = (0..shards)
            .map(|i| {
                let capacity = total_frames / shards + usize::from(i < total_frames % shards);
                Mutex::new(ShardCore {
                    frames: Vec::with_capacity(capacity),
                    map: HashMap::with_capacity(capacity),
                    hand: 0,
                    capacity,
                    stats: IoStats::default(),
                })
            })
            .collect();
        Arc::new(SharedBufferPool {
            store,
            no_steal,
            capacity: total_frames,
            dirty_frames: Arc::default(),
            shards: cores,
        })
    }

    /// A per-query handle over this pool (fresh zeroed per-handle stats).
    pub fn handle(self: &Arc<Self>) -> PoolHandle {
        PoolHandle {
            pool: Arc::clone(self),
            stats: IoStats::default(),
        }
    }

    /// The shared store this pool sits on.
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// Number of shards (lock stripes).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total frame capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident pages across all shards.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.lock().frames.len()).sum()
    }

    /// Whether `pid` is currently cached (no I/O side effects).
    pub fn is_resident(&self, pid: PageId) -> bool {
        self.shards[self.shard_of(pid)]
            .lock()
            .map
            .contains_key(&pid)
    }

    /// Aggregate I/O counters: the field-wise sum of every shard's stats.
    /// Because every access is recorded in exactly one shard, this equals
    /// the sum of all per-handle stats (plus the write-back traffic of
    /// [`flush`](SharedBufferPool::flush) / [`clear`](SharedBufferPool::clear)
    /// called on the pool rather than through a handle).
    pub fn stats(&self) -> IoStats {
        let mut total = IoStats::default();
        for shard in &self.shards {
            let s = shard.lock().stats;
            total.hits += s.hits;
            total.physical_reads += s.physical_reads;
            total.physical_writes += s.physical_writes;
            total.logical_reads += s.logical_reads;
        }
        total
    }

    /// Per-shard I/O counters, in shard order — the load-balance view
    /// (`hit_ratio` per stripe, skew across stripes).
    pub fn shard_stats(&self) -> Vec<IoStats> {
        self.shards.iter().map(|s| s.lock().stats).collect()
    }

    /// Zero every shard's counters (cache contents are retained).
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.lock().stats = IoStats::default();
        }
    }

    fn shard_of(&self, pid: PageId) -> usize {
        // Page ids are allocated contiguously, so plain modulo stripes
        // consecutive pages round-robin across shards — the best case for
        // sequential scans.
        (pid.0 % self.shards.len() as u64) as usize
    }

    /// Allocate a fresh page on the store and cache its (zeroed, dirty)
    /// image without a read.
    fn allocate(&self, stats: &mut IoStats) -> Result<PageId> {
        let pid = self.store.allocate()?;
        let mut core = self.shards[self.shard_of(pid)].lock();
        let slot = self.victim_slot(&mut core, stats)?;
        self.install(&mut core, slot, pid, zeroed_page(), true);
        Ok(pid)
    }

    /// Pin page `pid` into the pool, charging the access to `stats`.
    fn pin(&self, pid: PageId, stats: &mut IoStats) -> Result<PinGuard> {
        let mut core = self.shards[self.shard_of(pid)].lock();
        core.stats.logical_reads += 1;
        stats.logical_reads += 1;
        if let Some(&slot) = core.map.get(&pid) {
            core.stats.hits += 1;
            stats.hits += 1;
            let frame = &mut core.frames[slot];
            frame.referenced = true;
            return Ok(PinGuard {
                pid,
                data: Arc::clone(&frame.data),
            });
        }
        // Miss: one physical read, charged to this handle. The read
        // happens under the shard lock so a page is faulted exactly once
        // even when several queries miss on it simultaneously; other
        // shards are unaffected.
        core.stats.physical_reads += 1;
        stats.physical_reads += 1;
        let mut buf = zeroed_page();
        self.store.read(pid, &mut buf)?;
        let slot = self.victim_slot(&mut core, stats)?;
        let data = self.install(&mut core, slot, pid, buf, false);
        Ok(PinGuard { pid, data })
    }

    /// Write every dirty frame back to the store. On error the failing
    /// frame (and any not yet visited) stays dirty. Write-back traffic is
    /// charged to the owning shard's stats; [`PoolHandle::flush`] also
    /// charges the handle that asked.
    pub fn flush(&self) -> Result<()> {
        self.flush_for(&mut IoStats::default())
    }

    fn flush_for(&self, stats: &mut IoStats) -> Result<()> {
        for shard in &self.shards {
            let mut core = shard.lock();
            for i in 0..core.frames.len() {
                let (pid, data) = {
                    let f = &core.frames[i];
                    (f.pid, Arc::clone(&f.data))
                };
                // Exclusive page lock: no concurrent mutator can set the
                // dirty flag between our write-back and our clearing it.
                let mut page = data.page.write();
                if page.dirty {
                    self.store.write(pid, &page.buf)?;
                    page.set_dirty(false);
                    core.stats.physical_writes += 1;
                    stats.physical_writes += 1;
                }
            }
        }
        Ok(())
    }

    /// Drop every unpinned frame (flushing dirty ones first): a cold
    /// cache. Pinned frames survive — their guards stay valid.
    pub fn clear(&self) -> Result<()> {
        self.flush()?;
        self.drop_unpinned();
        Ok(())
    }

    /// [`clear`](Self::clear) for a caller that flushed through its handle.
    pub(crate) fn drop_unpinned(&self) {
        for shard in &self.shards {
            let mut core = shard.lock();
            let old = std::mem::take(&mut core.frames);
            core.frames = old.into_iter().filter(|f| f.pinned()).collect();
            core.map = core
                .frames
                .iter()
                .enumerate()
                .map(|(i, f)| (f.pid, i))
                .collect();
            core.hand = 0;
        }
    }

    /// Visit every resident frame's page under its exclusive lock, shard
    /// by shard: the checkpoint bookkeeping's one loop.
    fn for_each_page(&self, mut f: impl FnMut(PageId, &mut PageData)) {
        for shard in &self.shards {
            for frame in &shard.lock().frames {
                f(frame.pid, &mut frame.data.page.write());
            }
        }
    }

    /// Number of dirty (not-yet-written-back) resident frames.
    pub(crate) fn dirty_count(&self) -> usize {
        self.dirty_frames.load(Ordering::Relaxed)
    }

    /// Clone the after-images of every dirty frame, page id ascending.
    pub(crate) fn dirty_pages(&self) -> Vec<(PageId, PageBuf)> {
        let mut pages = Vec::new();
        self.for_each_page(|pid, page| {
            if page.dirty {
                pages.push((pid, page.buf.clone()));
            }
        });
        pages.sort_by_key(|(pid, _)| *pid);
        pages
    }

    /// Mark every frame clean *without* writing anything back.
    pub(crate) fn mark_all_clean(&self) {
        self.for_each_page(|_, page| page.set_dirty(false));
    }

    /// Whether the eviction sweep must pass over `frame`: somebody holds
    /// a pin on it, or it is dirty and this pool does not steal. (An
    /// unpinned frame's page lock is uncontended.)
    fn unevictable(&self, frame: &SharedFrame) -> bool {
        frame.pinned() || (self.no_steal && frame.data.page.read().dirty)
    }

    /// Pick a frame slot in `core`, evicting by second-chance clock if the
    /// shard is full. Unevictable frames are never victims; a dirty
    /// victim that cannot be written back stays resident and dirty, and
    /// the error propagates to the one requesting query.
    fn victim_slot(&self, core: &mut ShardCore, stats: &mut IoStats) -> Result<usize> {
        if core.frames.len() < core.capacity {
            return Ok(core.frames.len()); // a new slot: `install` pushes it
        }
        if core.frames.iter().all(|f| self.unevictable(f)) {
            return Err(StorageError::PoolExhausted);
        }
        // Second-chance clock over evictable frames. Neither a pin nor a
        // dirty bit can appear on an unpinned frame while we hold the
        // shard lock, so at least one frame stays evictable and the sweep
        // terminates within two revolutions.
        let slot = loop {
            let slot = core.hand;
            core.hand = (core.hand + 1) % core.frames.len();
            if self.unevictable(&core.frames[slot]) {
                continue;
            }
            let frame = &mut core.frames[slot];
            if frame.referenced {
                frame.referenced = false; // second chance
            } else {
                break slot;
            }
        };
        let frame = &core.frames[slot];
        {
            // The victim is unpinned, so this lock is uncontended.
            let mut page = frame.data.page.write();
            if page.dirty {
                self.store.write(frame.pid, &page.buf)?;
                page.set_dirty(false);
                core.stats.physical_writes += 1;
                stats.physical_writes += 1;
            }
        }
        let pid = frame.pid;
        core.map.remove(&pid);
        Ok(slot)
    }

    /// Install `buf` as page `pid` in `slot` (from
    /// [`victim_slot`](Self::victim_slot): a vacated frame, or one past
    /// the last for a shard still filling), replacing the frame's data
    /// `Arc` wholesale so any straggling reference to the previous
    /// occupant keeps seeing the *old* page, never the new one.
    fn install(
        &self,
        core: &mut ShardCore,
        slot: usize,
        pid: PageId,
        buf: PageBuf,
        dirty: bool,
    ) -> Arc<FrameData> {
        let mut page = PageData {
            buf,
            dirty: false,
            dirty_frames: Arc::clone(&self.dirty_frames),
        };
        page.set_dirty(dirty);
        let data = Arc::new(FrameData {
            page: RwLock::new(page),
        });
        let frame = SharedFrame {
            pid,
            data: Arc::clone(&data),
            referenced: true,
        };
        if slot == core.frames.len() {
            core.frames.push(frame);
        } else {
            core.frames[slot] = frame;
        }
        core.map.insert(pid, slot);
        data
    }
}

impl Drop for SharedBufferPool {
    fn drop(&mut self) {
        // Best-effort writeback; errors here have no caller to report to
        // and must not turn into a panic during unwinding. A no-steal
        // pool must not flush: its dirty frames are exactly the pages the
        // durability protocol keeps off the store until a checkpoint, and
        // the WAL already covers them.
        if !self.no_steal {
            let _ = self.flush();
        }
    }
}

/// RAII pin on one frame of a [`SharedBufferPool`].
///
/// While the guard lives, the frame is immune to eviction (in its own
/// shard; other shards were never affected). Page access goes through the
/// frame's own reader–writer lock, so pinned readers in the same shard
/// proceed in parallel and no page access holds a shard lock.
pub struct PinGuard {
    pid: PageId,
    data: Arc<FrameData>,
}

impl PinGuard {
    /// The pinned page's id.
    pub fn pid(&self) -> PageId {
        self.pid
    }

    /// Read the pinned page (shared page lock for the duration of `f`).
    pub fn with_page<R>(&self, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> R {
        let page = self.data.page.read();
        f(&page.buf)
    }

    /// Mutate the pinned page (exclusive page lock); the frame is marked
    /// dirty atomically with the mutation.
    pub fn with_page_mut<R>(&self, f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R) -> R {
        let mut page = self.data.page.write();
        page.set_dirty(true);
        f(&mut page.buf)
    }
}

/// A per-query handle over a [`SharedBufferPool`].
///
/// The handle owns the query's private [`IoStats`] — hits, misses and
/// write-backs are attributed to whichever handle caused them, so
/// per-query `QueryMetrics.io` stays exact while the underlying frames
/// are shared. [`crate::BufferPool`] is this handle plus the query's
/// tracer and ledger.
pub struct PoolHandle {
    pool: Arc<SharedBufferPool>,
    stats: IoStats,
}

impl PoolHandle {
    /// The shared pool behind this handle.
    pub fn pool(&self) -> &Arc<SharedBufferPool> {
        &self.pool
    }

    /// Allocate a fresh page on the store and cache its (zeroed) image.
    pub fn allocate(&mut self) -> Result<PageId> {
        self.pool.allocate(&mut self.stats)
    }

    /// Read page `pid`, exposing its bytes to `f` (pin, shared-lock,
    /// read, unpin).
    pub fn read<R>(&mut self, pid: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        Ok(self.pin(pid)?.with_page(f))
    }

    /// Mutate page `pid` in place (marked dirty, written back on eviction
    /// or flush).
    pub fn write<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        Ok(self.pin(pid)?.with_page_mut(f))
    }

    /// Pin `pid` and return an RAII guard for direct multi-access. The
    /// frame cannot be evicted while the guard lives; drop it promptly —
    /// a shard whose frames are all pinned refuses further faults with
    /// [`StorageError::PoolExhausted`].
    pub fn pin(&mut self, pid: PageId) -> Result<PinGuard> {
        self.pool.pin(pid, &mut self.stats)
    }

    /// [`SharedBufferPool::flush`], with the write-backs also charged to
    /// this handle.
    pub fn flush(&mut self) -> Result<()> {
        self.pool.flush_for(&mut self.stats)
    }

    /// I/O performed *through this handle* so far.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Zero this handle's counters (the pool's aggregate is unaffected).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::disk::InMemoryDisk;

    fn pool(frames: usize, shards: usize) -> Arc<SharedBufferPool> {
        SharedBufferPool::new(InMemoryDisk::shared(), frames, shards)
    }

    #[test]
    fn capacity_is_striped_across_shards() {
        let p = pool(10, 4);
        assert_eq!(p.shard_count(), 4);
        assert_eq!(p.capacity(), 10);
        let p = pool(4, 4);
        assert_eq!(p.capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one frame per shard")]
    fn underprovisioned_pool_rejected() {
        let _ = pool(3, 4);
    }

    #[test]
    fn hits_are_shared_across_handles() {
        let p = pool(8, 2);
        let mut a = p.handle();
        let pid = a.allocate().unwrap();
        p.flush().unwrap();
        a.read(pid, |_| ()).unwrap();
        // A second handle reads the same page: pure hit, no physical I/O.
        let mut b = p.handle();
        b.read(pid, |_| ()).unwrap();
        assert_eq!(b.stats().physical_reads, 0);
        assert_eq!(b.stats().hits, 1);
        // Aggregate pool stats equal the sum of the handle stats.
        let total = p.stats();
        assert_eq!(
            total.logical_reads,
            a.stats().logical_reads + b.stats().logical_reads
        );
        assert_eq!(total.hits, a.stats().hits + b.stats().hits);
    }

    #[test]
    fn pinned_frames_survive_eviction_pressure() {
        // One shard, two frames: pin one, then flood the shard.
        let p = pool(2, 1);
        let mut h = p.handle();
        let keep = h.allocate().unwrap();
        h.write(keep, |b| b[0] = 7).unwrap();
        let pin = h.pin(keep).unwrap();
        let others: Vec<PageId> = (0..4).map(|_| h.allocate().unwrap()).collect();
        for &pid in &others {
            h.read(pid, |_| ()).unwrap();
        }
        assert!(p.is_resident(keep), "pinned frame must not be evicted");
        assert_eq!(pin.with_page(|b| b[0]), 7);
        drop(pin);
        // Unpinned now: further pressure may evict it.
        for &pid in &others {
            h.read(pid, |_| ()).unwrap();
        }
        assert_eq!(p.resident(), 2);
    }

    #[test]
    fn fully_pinned_shard_reports_exhaustion_not_deadlock() {
        let p = pool(1, 1);
        let mut h = p.handle();
        let a = h.allocate().unwrap();
        p.flush().unwrap();
        let _pin = h.pin(a).unwrap();
        let b = p.store().allocate().unwrap();
        assert_eq!(
            h.read(b, |_| ()).unwrap_err(),
            StorageError::PoolExhausted,
            "a fully pinned shard must refuse, not block"
        );
        drop(_pin);
        assert!(h.read(b, |_| ()).is_ok(), "pool recovers once unpinned");
    }

    // Dirty eviction, a failed dirty eviction and a failed read are
    // checked once, through the facade every caller uses: `buffer::tests::
    // {dirty_eviction_writes_back, failed_dirty_eviction_keeps_the_frame_dirty,
    // injected_read_failure_propagates_without_poisoning_the_pool}`.

    #[test]
    fn dirty_pages_flush_and_are_visible_elsewhere() {
        let store = InMemoryDisk::shared();
        let p = SharedBufferPool::new(store.clone(), 4, 2);
        let mut h = p.handle();
        let pid = h.allocate().unwrap();
        h.write(pid, |b| b[9] = 42).unwrap();
        p.flush().unwrap();
        let mut private = BufferPool::with_capacity(store, 2);
        assert_eq!(private.read(pid, |b| b[9]).unwrap(), 42);
    }

    #[test]
    fn concurrent_readers_and_allocators_agree_with_store() {
        let store = InMemoryDisk::shared();
        let p = SharedBufferPool::new(store.clone(), 16, 4);
        // Seed 32 pages with known bytes.
        let pids: Vec<PageId> = {
            let mut h = p.handle();
            (0..32u8)
                .map(|i| {
                    let pid = h.allocate().unwrap();
                    h.write(pid, |b| b[0] = i).unwrap();
                    pid
                })
                .collect()
        };
        p.flush().unwrap();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let p = &p;
                let pids = &pids;
                scope.spawn(move || {
                    let mut h = p.handle();
                    for round in 0..50 {
                        let i = (t * 7 + round * 13) % pids.len();
                        let v = h.read(pids[i], |b| b[0]).unwrap();
                        assert_eq!(v as usize, i);
                    }
                });
            }
        });
        // Aggregate arithmetic still holds under concurrency.
        let s = p.stats();
        assert_eq!(s.logical_reads, s.hits + s.physical_reads);
    }

    #[test]
    fn shard_stats_sum_to_aggregate() {
        let p = pool(8, 4);
        let mut h = p.handle();
        let pids: Vec<PageId> = (0..8).map(|_| h.allocate().unwrap()).collect();
        p.flush().unwrap();
        for &pid in &pids {
            h.read(pid, |_| ()).unwrap();
            h.read(pid, |_| ()).unwrap();
        }
        let per_shard = p.shard_stats();
        assert_eq!(per_shard.len(), 4);
        let total = p.stats();
        assert_eq!(
            per_shard.iter().map(|s| s.logical_reads).sum::<u64>(),
            total.logical_reads
        );
        assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), total.hits);
    }
}
