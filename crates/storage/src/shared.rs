//! Shared, lock-striped buffer pool for concurrent query batches.
//!
//! The paper's experimental model gives every query a private 100-frame
//! pool ([`crate::BufferPool`]), which makes batches embarrassingly
//! parallel but wastes all cross-query locality: a hot postings page or a
//! PDR-tree root is re-read once per query. [`SharedBufferPool`] is the
//! production-shaped alternative — one pool shared by every query in a
//! batch, so hot pages are fetched once per *batch*.
//!
//! # Architecture
//!
//! * **Lock striping.** The pool is split into `N` shards; a page id maps
//!   to exactly one shard, and each shard owns its own clock ring, page
//!   table, and [`IoStats`] behind a `Mutex`. Two queries touching pages
//!   in different shards never contend, and an eviction in one shard
//!   proceeds while readers hold frames in every other shard.
//! * **RAII pinning.** [`PinGuard`] pins a frame for as long as it lives:
//!   the shard's eviction scan skips pinned frames (the guard holds a
//!   strong reference to the frame's data; a frame is evictable only when
//!   the shard holds the sole reference). Page bytes sit behind a
//!   per-frame `RwLock`, so many pinned readers proceed in parallel and
//!   never hold the shard lock while reading.
//! * **Attribution.** Every access is counted twice: into the owning
//!   shard's aggregate [`IoStats`] (the pool-level view,
//!   [`SharedBufferPool::stats`] / [`SharedBufferPool::shard_stats`]) and
//!   into the caller-supplied per-handle [`IoStats`] (the per-query view
//!   that [`PoolHandle`] merges into `QueryMetrics.io`).
//! * **Failure isolation.** The PR-1 fault-tolerance contract extends to
//!   the shared pool: a failed physical read or an unwritable eviction
//!   victim fails only the query that triggered it — the shard's page
//!   table is never left inconsistent, a dirty victim that cannot be
//!   persisted stays resident and dirty, and the pool remains usable for
//!   every other query. A shard whose frames are all pinned surfaces
//!   [`StorageError::PoolExhausted`] to the requester instead of blocking.
//!
//! [`PoolHandle`] (one per query/worker) adapts the shared pool to the
//! single-owner [`crate::BufferPool`] interface via
//! [`crate::BufferPool::from_handle`], so every `UncertainIndex` search
//! path runs unchanged against either pool flavor.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::buffer::Replacement;
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
}

/// Shared frame payload; pins hold an `Arc` to it.
struct FrameData {
    page: RwLock<PageData>,
}

struct SharedFrame {
    pid: PageId,
    data: Arc<FrameData>,
    referenced: bool,
    last_used: u64,
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
    tick: u64,
    stats: IoStats,
}

/// A thread-safe buffer pool shared by concurrent queries, striped into
/// independently locked shards (see the module docs).
pub struct SharedBufferPool {
    store: SharedStore,
    policy: Replacement,
    shards: Vec<Mutex<ShardCore>>,
}

impl SharedBufferPool {
    /// Pool with `total_frames` frames striped over `shards` shards and
    /// clock replacement. `total_frames` must be at least `shards` so
    /// every shard owns a frame.
    pub fn new(store: SharedStore, total_frames: usize, shards: usize) -> Arc<SharedBufferPool> {
        SharedBufferPool::with_policy(store, total_frames, shards, Replacement::Clock)
    }

    /// Pool with an explicit replacement policy.
    pub fn with_policy(
        store: SharedStore,
        total_frames: usize,
        shards: usize,
        policy: Replacement,
    ) -> Arc<SharedBufferPool> {
        assert!(shards >= 1, "shared pool needs at least one shard");
        assert!(
            total_frames >= shards,
            "shared pool needs at least one frame per shard ({total_frames} frames, {shards} shards)"
        );
        let cores = (0..shards)
            .map(|i| {
                let capacity = total_frames / shards + usize::from(i < total_frames % shards);
                Mutex::new(ShardCore {
                    frames: Vec::with_capacity(capacity),
                    map: HashMap::with_capacity(capacity),
                    hand: 0,
                    capacity,
                    tick: 0,
                    stats: IoStats::default(),
                })
            })
            .collect();
        Arc::new(SharedBufferPool {
            store,
            policy,
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

    /// The replacement policy in use.
    pub fn policy(&self) -> Replacement {
        self.policy
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
        self.shards.iter().map(|s| s.lock().capacity).sum()
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

    /// Fraction of `pages` currently cached, probing every `stride`-th
    /// page (stride 0 and 1 both probe every page). The cross-backend
    /// planner samples this to discount predicted physical reads for
    /// data that is already hot; it is a point-in-time estimate with no
    /// I/O side effects. An empty page set reports 0.0.
    pub fn residency_fraction(&self, pages: &[PageId], stride: usize) -> f64 {
        let stride = stride.max(1);
        let mut probed = 0u64;
        let mut hot = 0u64;
        for &pid in pages.iter().step_by(stride) {
            probed += 1;
            if self.is_resident(pid) {
                hot += 1;
            }
        }
        if probed == 0 {
            0.0
        } else {
            hot as f64 / probed as f64
        }
    }

    /// Aggregate I/O counters: the field-wise sum of every shard's stats.
    /// Because every access is recorded in exactly one shard, this equals
    /// the sum of all per-handle stats (plus flush write-back traffic,
    /// which is charged to the pool, not to a handle).
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
    /// image, exactly like [`crate::BufferPool::allocate`].
    pub fn allocate(&self, stats: &mut IoStats) -> Result<PageId> {
        let pid = self.store.allocate()?;
        let mut core = self.shards[self.shard_of(pid)].lock();
        let slot = self.victim_slot(&mut core, stats)?;
        Self::install(&mut core, slot, pid, zeroed_page(), true);
        Ok(pid)
    }

    /// Pin page `pid` into the pool and return an RAII guard. The frame
    /// cannot be evicted while the guard lives; drop it promptly — a
    /// shard whose frames are all pinned refuses further faults with
    /// [`StorageError::PoolExhausted`].
    pub fn pin(&self, pid: PageId, stats: &mut IoStats) -> Result<PinGuard> {
        let mut core = self.shards[self.shard_of(pid)].lock();
        core.stats.logical_reads += 1;
        stats.logical_reads += 1;
        if let Some(&slot) = core.map.get(&pid) {
            core.stats.hits += 1;
            stats.hits += 1;
            core.tick += 1;
            let tick = core.tick;
            let frame = &mut core.frames[slot];
            frame.referenced = true;
            frame.last_used = tick;
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
        let data = Self::install(&mut core, slot, pid, buf, false);
        Ok(PinGuard { pid, data })
    }

    /// Read page `pid`, exposing its bytes to `f` (pin, shared-lock,
    /// read, unpin).
    pub fn read<R>(
        &self,
        pid: PageId,
        stats: &mut IoStats,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        let pin = self.pin(pid, stats)?;
        Ok(pin.with_page(f))
    }

    /// Mutate page `pid` in place; the frame is marked dirty and written
    /// back on eviction or [`flush`](SharedBufferPool::flush).
    pub fn write<R>(
        &self,
        pid: PageId,
        stats: &mut IoStats,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        let pin = self.pin(pid, stats)?;
        Ok(pin.with_page_mut(f))
    }

    /// Write every dirty frame back to the store. On error the failing
    /// frame (and any not yet visited) stays dirty. Write-back traffic is
    /// charged to the owning shard's stats.
    pub fn flush(&self) -> Result<()> {
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
                    page.dirty = false;
                    core.stats.physical_writes += 1;
                }
            }
        }
        Ok(())
    }

    /// Drop every unpinned frame (flushing dirty ones first): a cold
    /// cache. Pinned frames survive — their guards stay valid.
    pub fn clear(&self) -> Result<()> {
        self.flush()?;
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
        Ok(())
    }

    /// Pick a frame slot in `core`, evicting per the configured policy if
    /// the shard is full. Pinned frames are never victims; a dirty victim
    /// that cannot be written back stays resident and dirty, and the
    /// error propagates to the one requesting query.
    fn victim_slot(&self, core: &mut ShardCore, stats: &mut IoStats) -> Result<usize> {
        if core.frames.len() < core.capacity {
            core.frames.push(SharedFrame {
                pid: PageId::INVALID,
                data: Arc::new(FrameData {
                    page: RwLock::new(PageData {
                        buf: zeroed_page(),
                        dirty: false,
                    }),
                }),
                referenced: false,
                last_used: 0,
            });
            return Ok(core.frames.len() - 1);
        }
        if core.frames.iter().all(|f| f.pinned()) {
            return Err(StorageError::PoolExhausted);
        }
        let slot = match self.policy {
            // Second-chance clock over unpinned frames. Pins cannot be
            // created while we hold the shard lock, so at least one
            // unpinned frame stays unpinned and the sweep terminates
            // within two revolutions.
            Replacement::Clock => loop {
                let slot = core.hand;
                core.hand = (core.hand + 1) % core.frames.len();
                let frame = &mut core.frames[slot];
                if frame.pinned() {
                    continue;
                }
                if frame.referenced {
                    frame.referenced = false; // second chance
                } else {
                    break slot;
                }
            },
            Replacement::Lru => core
                .frames
                .iter()
                .enumerate()
                .filter(|(_, f)| !f.pinned())
                .min_by_key(|(_, f)| f.last_used)
                .map(|(i, _)| i)
                .ok_or(StorageError::PoolExhausted)?,
        };
        let frame = &core.frames[slot];
        {
            // The victim is unpinned, so this lock is uncontended.
            let mut page = frame.data.page.write();
            if page.dirty {
                self.store.write(frame.pid, &page.buf)?;
                page.dirty = false;
                core.stats.physical_writes += 1;
                stats.physical_writes += 1;
            }
        }
        let pid = frame.pid;
        core.map.remove(&pid);
        Ok(slot)
    }

    /// Install `buf` as page `pid` in `slot`, replacing the frame's data
    /// `Arc` wholesale so any straggling reference to the previous
    /// occupant keeps seeing the *old* page, never the new one.
    fn install(
        core: &mut ShardCore,
        slot: usize,
        pid: PageId,
        buf: PageBuf,
        dirty: bool,
    ) -> Arc<FrameData> {
        core.tick += 1;
        let tick = core.tick;
        let data = Arc::new(FrameData {
            page: RwLock::new(PageData { buf, dirty }),
        });
        core.frames[slot] = SharedFrame {
            pid,
            data: Arc::clone(&data),
            referenced: true,
            last_used: tick,
        };
        core.map.insert(pid, slot);
        data
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
        page.dirty = true;
        f(&mut page.buf)
    }
}

/// A per-query handle over a [`SharedBufferPool`].
///
/// The handle owns the query's private [`IoStats`] — hits and misses are
/// attributed to whichever handle performed the access, so per-query
/// `QueryMetrics.io` stays exact while the underlying frames are shared.
/// Wrap it in a [`crate::BufferPool`] via [`crate::BufferPool::from_handle`]
/// to run any existing search path against the shared pool unchanged.
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

    /// Read page `pid`, exposing its bytes to `f`.
    pub fn read<R>(&mut self, pid: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        self.pool.read(pid, &mut self.stats, f)
    }

    /// Mutate page `pid` in place (marked dirty, written back on eviction
    /// or flush).
    pub fn write<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        self.pool.write(pid, &mut self.stats, f)
    }

    /// Pin `pid` for direct multi-access (see [`SharedBufferPool::pin`]).
    pub fn pin(&mut self, pid: PageId) -> Result<PinGuard> {
        self.pool.pin(pid, &mut self.stats)
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
    use crate::fault::{Fault, FaultStore};

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
    fn dirty_eviction_writes_back() {
        let store = InMemoryDisk::shared();
        let p = SharedBufferPool::new(store.clone(), 1, 1);
        let mut h = p.handle();
        let a = h.allocate().unwrap();
        h.write(a, |b| b[0] = 5).unwrap();
        let _b = h.allocate().unwrap(); // evicts dirty `a`
        let mut q = BufferPool::with_capacity(store, 1);
        assert_eq!(q.read(a, |b| b[0]).unwrap(), 5);
    }

    #[test]
    fn failed_read_fails_one_query_and_pool_stays_usable() {
        let faults = Arc::new(FaultStore::new(InMemoryDisk::shared(), 3));
        let p = SharedBufferPool::new(faults.clone(), 4, 2);
        let mut h = p.handle();
        let pid = h.allocate().unwrap();
        p.clear().unwrap();
        faults.arm(Fault::FailRead {
            after: faults.reads_so_far() + 1,
        });
        assert!(matches!(h.read(pid, |_| ()), Err(StorageError::Io { .. })));
        // The failed page was not installed; a retry succeeds.
        assert!(!p.is_resident(pid));
        assert_eq!(h.read(pid, |b| b[0]).unwrap(), 0);
    }

    #[test]
    fn failed_dirty_eviction_keeps_the_frame_dirty() {
        let faults = Arc::new(FaultStore::new(InMemoryDisk::shared(), 3));
        let p = SharedBufferPool::new(faults.clone(), 1, 1);
        let mut h = p.handle();
        let a = h.allocate().unwrap();
        h.write(a, |b| b[0] = 5).unwrap();
        faults.arm(Fault::FailWrite {
            after: faults.writes_so_far() + 1,
        });
        assert!(h.allocate().is_err());
        assert_eq!(h.read(a, |b| b[0]).unwrap(), 5, "image survives in pool");
        p.flush().unwrap();
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
