//! The inverted index structure: directory, block posting lists, tuple
//! store.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use uncat_core::uda::Entry;
use uncat_core::{codec, CatId, Domain, Uda};
use uncat_storage::{
    BufferPool, HeapFile, PageId, Phase, QueryMetrics, RecordId, Result, StorageError,
};

use crate::block::BlockList;
use crate::cost::CostStats;
use crate::postings::{entries_of, posting_key, KEY_LEN};
use crate::tid::TidMap;

/// Heap-record layout: `u64 tid (LE) ‖ UDA encoding`. Carrying the tid in
/// the record lets full scans attribute distributions without a reverse
/// map.
fn encode_record(tid: u64, uda: &Uda) -> Vec<u8> {
    let mut v = Vec::with_capacity(8 + codec::encoded_len(uda));
    v.extend_from_slice(&tid.to_le_bytes());
    codec::encode(uda, &mut v);
    v
}

/// Split a stored tuple record into its tid and its UDA encoding. A
/// record that does not parse — possible only if a page was corrupted
/// past the physical checks — surfaces as a typed
/// [`StorageError::Corrupt`], never a panic.
fn split_record(bytes: &[u8]) -> Result<(u64, &[u8])> {
    match bytes.split_first_chunk::<8>() {
        Some((tid, uda)) => Ok((u64::from_le_bytes(*tid), uda)),
        None => Err(StorageError::Corrupt(
            "tuple record shorter than its tid header",
        )),
    }
}

const BAD_UDA: StorageError = StorageError::Corrupt("stored UDA does not decode");
const DELETED_RECORD: StorageError = StorageError::Corrupt("rid map points at a deleted record");

/// Decode a stored tuple record into an owned distribution.
fn decode_record(bytes: &[u8]) -> Result<(u64, Uda)> {
    let (tid, uda) = split_record(bytes)?;
    let (uda, _) = codec::decode(uda).map_err(|_| BAD_UDA)?;
    Ok((tid, uda))
}

/// Structural statistics returned by [`InvertedIndex::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexStats {
    /// Non-empty posting lists (categories that occur in the data).
    pub lists: u64,
    /// Total posting entries across all lists.
    pub postings: u64,
    /// Length of the longest posting list.
    pub longest_list: u64,
    /// Posting blocks across all lists.
    pub posting_blocks: u64,
    /// Pages occupied by the block heap.
    pub block_pages: u64,
    /// Pages occupied by the tuple store.
    pub heap_pages: u64,
}

impl IndexStats {
    /// Average posting-list length.
    pub fn avg_list_len(&self) -> f64 {
        if self.lists == 0 {
            0.0
        } else {
            self.postings as f64 / self.lists as f64
        }
    }
}

/// A probabilistic inverted index over one uncertain attribute.
///
/// The directory (category → block directory) and the tuple-id → record
/// map are kept in memory: they are per-category / per-tuple index
/// *metadata*, equivalent to the always-hot top of an on-disk directory.
/// Posting entries and tuple records live on pages and are charged I/O
/// through the [`BufferPool`] passed to every operation. Every operation
/// touching pages is fallible: an unreadable or corrupt page fails that
/// operation with `Err(StorageError)` and leaves the process alive.
///
/// ```
/// use uncat_core::{CatId, Domain, EqQuery, Uda};
/// use uncat_inverted::{InvertedIndex, Strategy};
/// use uncat_storage::{BufferPool, InMemoryDisk};
///
/// let mut pool = BufferPool::new(InMemoryDisk::shared());
/// let t0 = Uda::from_pairs([(CatId(0), 0.5), (CatId(1), 0.5)])?;
/// let t1 = Uda::from_pairs([(CatId(1), 1.0)])?;
/// let index = InvertedIndex::build(
///     Domain::anonymous(2),
///     &mut pool,
///     [(0u64, &t0), (1u64, &t1)],
/// ).expect("in-memory build");
///
/// let hits = index.petq(
///     &mut pool,
///     &EqQuery::new(Uda::certain(CatId(1)), 0.6),
///     Strategy::ColumnPruning,
/// ).expect("in-memory query");
/// assert_eq!(hits.len(), 1);
/// assert_eq!(hits[0].tid, 1);
/// # Ok::<(), uncat_core::Error>(())
/// ```
pub struct InvertedIndex {
    domain: Domain,
    postings: BTreeMap<CatId, BlockList>,
    heap: HeapFile,
    /// Payloads of the posting lists' blocks.
    block_heap: HeapFile,
    rids: TidMap<RecordId>,
    /// One past the largest tuple id ever indexed (see
    /// [`InvertedIndex::tid_span`]).
    tid_span: u64,
    /// Lazily collected cost statistics (see [`crate::cost`]). Computed
    /// on first use, pre-populated when a snapshot carries a stats
    /// section, and dropped by every mutation, so a value that is
    /// present describes the live directory.
    cost: OnceLock<CostStats>,
}

impl InvertedIndex {
    /// Create an empty index over `domain`.
    pub fn new(domain: Domain) -> InvertedIndex {
        InvertedIndex {
            domain,
            postings: BTreeMap::new(),
            heap: HeapFile::new(),
            block_heap: HeapFile::new(),
            rids: TidMap::default(),
            tid_span: 0,
            cost: OnceLock::new(),
        }
    }

    /// Whether the index can address `tid`: posting keys and block
    /// payloads carry tuple ids in 32 bits, so a larger one is refused —
    /// [`StorageError::KeyOutOfRange`] — by [`InvertedIndex::build`],
    /// [`InvertedIndex::insert`] and [`InvertedIndex::update`] before
    /// anything is modified.
    pub fn admits(tid: u64) -> Result<()> {
        const MAX: u64 = u32::MAX as u64;
        if tid > MAX {
            return Err(StorageError::KeyOutOfRange { key: tid, max: MAX });
        }
        Ok(())
    }

    /// Admit `tid` ([`InvertedIndex::admits`], no duplicate) and store its
    /// record, before any posting names it.
    fn admit(&mut self, pool: &mut BufferPool, tid: u64, uda: &Uda) -> Result<()> {
        InvertedIndex::admits(tid)?;
        if self.rids.contains_key(&tid) {
            return Err(StorageError::Duplicate { key: tid });
        }
        let rid = self.heap.insert(pool, &encode_record(tid, uda))?;
        self.rids.insert(tid, rid);
        self.tid_span = self.tid_span.max(tid + 1);
        Ok(())
    }

    /// Build from a collection of tuples. Postings are loaded in stream
    /// (key) order per category, so consecutive full blocks pack onto
    /// consecutive heap pages.
    pub fn build<'a, I>(domain: Domain, pool: &mut BufferPool, tuples: I) -> Result<InvertedIndex>
    where
        I: IntoIterator<Item = (u64, &'a Uda)>,
    {
        let mut idx = InvertedIndex::new(domain);
        let mut per_cat: BTreeMap<CatId, Vec<[u8; KEY_LEN]>> = BTreeMap::new();
        for (tid, uda) in tuples {
            debug_assert!(uda.max_cat().is_none_or(|c| idx.domain.contains(c)));
            idx.admit(pool, tid, uda)?;
            for (cat, p) in uda.iter() {
                per_cat.entry(cat).or_default().push(posting_key(p, tid));
            }
        }
        for (cat, mut keys) in per_cat {
            keys.sort_unstable();
            let list = BlockList::build(&mut idx.block_heap, pool, &entries_of(&keys))?;
            idx.postings.insert(cat, list);
        }
        Ok(idx)
    }

    /// Insert one tuple. A duplicate tuple id is rejected with
    /// [`StorageError::Duplicate`], one the index cannot address
    /// ([`InvertedIndex::admits`]) with [`StorageError::KeyOutOfRange`],
    /// before anything is modified.
    pub fn insert(&mut self, pool: &mut BufferPool, tid: u64, uda: &Uda) -> Result<()> {
        self.cost.take();
        self.admit(pool, tid, uda)?;
        for (cat, p) in uda.iter() {
            self.postings
                .entry(cat)
                .or_default()
                .insert(&mut self.block_heap, pool, tid, p)?;
        }
        Ok(())
    }

    /// Upsert a tuple: replace its distribution if present (delete plus
    /// probability-ordered reinsertion — posting keys sort by descending
    /// probability, so reinserting re-establishes list order), insert it
    /// otherwise. Returns whether a previous distribution was replaced.
    pub fn update(&mut self, pool: &mut BufferPool, tid: u64, uda: &Uda) -> Result<bool> {
        InvertedIndex::admits(tid)?;
        let existed = self.delete(pool, tid)?;
        self.insert(pool, tid, uda)?;
        Ok(existed)
    }

    /// Whether `tid` is indexed (in-memory lookup, no I/O).
    pub fn contains(&self, tid: u64) -> bool {
        self.rids.contains_key(&tid)
    }

    /// Delete a tuple. Returns whether it existed.
    pub fn delete(&mut self, pool: &mut BufferPool, tid: u64) -> Result<bool> {
        self.cost.take();
        let Some(rid) = self.rids.remove(&tid) else {
            return Ok(false);
        };
        let uda = self.read_tuple(pool, rid)?;
        for (cat, p) in uda.iter() {
            let list = self.postings.get_mut(&cat).ok_or(StorageError::Corrupt(
                "posting list missing for stored entry",
            ))?;
            let removed = list.remove(&mut self.block_heap, pool, tid, p)?;
            debug_assert!(removed, "posting entry missing for tuple {tid}");
        }
        self.heap.delete(pool, rid)?;
        Ok(true)
    }

    /// Random-access a tuple's distribution (one page read).
    /// `Ok(None)` means the tuple id is not indexed.
    pub fn get_tuple(&self, pool: &mut BufferPool, tid: u64) -> Result<Option<Uda>> {
        match self.rids.get(&tid) {
            Some(&rid) => self.read_tuple(pool, rid).map(Some),
            None => Ok(None),
        }
    }

    fn read_tuple(&self, pool: &mut BufferPool, rid: RecordId) -> Result<Uda> {
        let mut out = None;
        self.heap
            .visit_slots(pool, rid.page, &[rid.slot], |_, bytes| {
                out = Some(decode_record(bytes.ok_or(DELETED_RECORD)?)?.1);
                Ok(())
            })?;
        out.ok_or(DELETED_RECORD)
    }

    /// Batched random access, the verification kernel of every strategy:
    /// `f(tid, entries)` once per element of `tids` (duplicates included),
    /// in heap order rather than the caller's. Each tuple id is resolved
    /// to its record address once, the addresses are sorted, and every
    /// heap page is read once per batch; records are decoded — with
    /// [`codec::decode`]'s validation — in place into one reused buffer,
    /// so nothing is allocated or copied per tuple. A tuple id that is
    /// not indexed means a posting outlived its tuple and is
    /// [`StorageError::Corrupt`].
    pub(crate) fn for_each_tuple(
        &self,
        pool: &mut BufferPool,
        tids: impl IntoIterator<Item = u64>,
        mut f: impl FnMut(u64, &[Entry]),
    ) -> Result<()> {
        let mut at: Vec<(PageId, u16, u64)> = tids
            .into_iter()
            .map(|tid| match self.rids.get(&tid) {
                Some(rid) => Ok((rid.page, rid.slot, tid)),
                None => Err(StorageError::Corrupt(
                    "posting refers to an unindexed tuple",
                )),
            })
            .collect::<Result<_>>()?;
        at.sort_unstable();
        let mut slots: Vec<u16> = Vec::new();
        let mut entries: Vec<Entry> = Vec::new();
        for run in at.chunk_by(|a, b| a.0 == b.0) {
            slots.clear();
            slots.extend(run.iter().map(|&(_, slot, _)| slot));
            self.heap.visit_slots(pool, run[0].0, &slots, |i, bytes| {
                let (_, uda) = split_record(bytes.ok_or(DELETED_RECORD)?)?;
                codec::decode_into(uda, &mut entries).map_err(|_| BAD_UDA)?;
                f(run[i].2, &entries);
                Ok(())
            })?;
        }
        Ok(())
    }

    /// [`InvertedIndex::for_each_tuple`] as the verification phase of a
    /// query: one `candidates_verified` per tuple, under a
    /// [`Phase::Verification`] span that is closed on the error return
    /// too.
    pub(crate) fn verify_each(
        &self,
        pool: &mut BufferPool,
        tids: impl IntoIterator<Item = u64>,
        metrics: &mut QueryMetrics,
        mut f: impl FnMut(u64, &[Entry]),
    ) -> Result<()> {
        let span = pool.trace_begin(Phase::Verification);
        let verified = self.for_each_tuple(pool, tids, |tid, t| {
            metrics.candidates_verified += 1;
            f(tid, t);
        });
        pool.trace_end(span);
        verified
    }

    /// Number of indexed tuples.
    pub fn len(&self) -> usize {
        self.rids.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.rids.is_empty()
    }

    /// One past the largest tuple id ever indexed: every posting's id is
    /// below it. Kept by `build` and `insert`, derived from the rid map
    /// when a snapshot is opened, never lowered by a delete — what the
    /// score accumulator sizes its flat layout by (`acc`).
    pub(crate) fn tid_span(&self) -> u64 {
        self.tid_span
    }

    /// The indexed domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Number of posting entries in `cat`'s list.
    pub fn list_len(&self, cat: CatId) -> u64 {
        self.postings.get(&cat).map_or(0, |l| l.len())
    }

    /// Visit every stored tuple in heap order: `f(tid, uda)`. Costs one
    /// page read per heap page (a full relation scan).
    pub fn scan_tuples(&self, pool: &mut BufferPool, mut f: impl FnMut(u64, &Uda)) -> Result<()> {
        let mut decode_err: Option<StorageError> = None;
        self.heap.scan(pool, |_, bytes| {
            if decode_err.is_some() {
                return;
            }
            match decode_record(bytes) {
                Ok((tid, uda)) => f(tid, &uda),
                Err(e) => decode_err = Some(e),
            }
        })?;
        match decode_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Number of pages occupied by the tuple store (for sizing reports).
    pub fn heap_pages(&self) -> usize {
        self.heap.num_pages()
    }

    /// Structural statistics over the posting directory.
    pub fn stats(&self) -> IndexStats {
        let mut s = IndexStats {
            heap_pages: self.heap.num_pages() as u64,
            block_pages: self.block_heap.num_pages() as u64,
            ..IndexStats::default()
        };
        for list in self.postings.values() {
            s.lists += 1;
            s.postings += list.len();
            s.longest_list = s.longest_list.max(list.len());
            s.posting_blocks += list.blocks().len() as u64;
        }
        s
    }

    pub(crate) fn posting_list(&self, cat: CatId) -> Option<&BlockList> {
        self.postings.get(&cat)
    }

    /// The heap holding the posting lists' block payloads.
    pub(crate) fn block_heap(&self) -> &HeapFile {
        &self.block_heap
    }

    /// Check structural invariants: every stored tuple has exactly one
    /// posting per non-zero category (with the stored probability), every
    /// posting refers to a stored tuple, and the counters agree. Returns
    /// the number of tuples checked. Test/debug aid — reads everything.
    pub fn check_invariants(&self, pool: &mut BufferPool) -> Result<u64> {
        let mut tuple_entries = 0u64;
        let mut tuples = 0u64;
        self.scan_tuples(pool, |tid, uda| {
            tuples += 1;
            assert!(
                self.rids.contains_key(&tid),
                "tuple {tid} missing from the rid map"
            );
            tuple_entries += uda.len() as u64;
        })?;
        assert_eq!(tuples, self.rids.len() as u64, "heap and rid map disagree");

        let mut posting_entries = 0u64;
        for (cat, list) in &self.postings {
            let mut in_list = 0u64;
            let mut prev: Option<[u8; KEY_LEN]> = None;
            for meta in list.blocks() {
                let bytes = self
                    .block_heap
                    .get(pool, meta.rid)?
                    .ok_or(StorageError::Corrupt(
                        "block directory points at a deleted record",
                    ))?;
                let entries = crate::block::decode_block(&bytes)?;
                assert_eq!(
                    entries.len(),
                    meta.count as usize,
                    "block count disagrees with its directory in {cat}"
                );
                let (tid0, p0) = entries[0];
                assert_eq!(
                    meta.sep,
                    posting_key(p0, tid0),
                    "block separator not the exact first key in {cat}"
                );
                for &(tid, p) in &entries {
                    in_list += 1;
                    assert!(
                        self.rids.contains_key(&tid),
                        "posting in {cat} refers to unknown tuple {tid}"
                    );
                    assert!(p > 0.0 && p <= 1.0, "posting probability out of range");
                    assert!(
                        p as f64 <= crate::block::dequantize(meta.max_q),
                        "block max must dominate every entry in {cat}"
                    );
                    let key = posting_key(p, tid);
                    if let Some(prev) = prev {
                        assert!(prev < key, "stream order violated in {cat}");
                    }
                    prev = Some(key);
                }
            }
            assert_eq!(
                in_list,
                list.len(),
                "list length counter out of sync for {cat}"
            );
            posting_entries += in_list;
        }
        assert_eq!(
            posting_entries, tuple_entries,
            "posting entries disagree with stored distributions"
        );
        Ok(tuples)
    }

    // --- persistence plumbing (see `persist`) ---

    pub(crate) fn heap_parts(&self) -> (&[uncat_storage::PageId], u64) {
        self.heap.raw_parts()
    }

    pub(crate) fn block_heap_parts(&self) -> (&[uncat_storage::PageId], u64) {
        self.block_heap.raw_parts()
    }

    pub(crate) fn rid_map(&self) -> &TidMap<RecordId> {
        &self.rids
    }

    pub(crate) fn posting_map(&self) -> &BTreeMap<CatId, BlockList> {
        &self.postings
    }

    /// The posting lists and the heap their payloads live in, for
    /// `upgrade` to rebuild. Drops the cost statistics, as every mutation
    /// does.
    pub(crate) fn lists_mut(&mut self) -> (&mut BTreeMap<CatId, BlockList>, &mut HeapFile) {
        self.cost.take();
        (&mut self.postings, &mut self.block_heap)
    }

    pub(crate) fn from_parts(
        domain: Domain,
        postings: BTreeMap<CatId, BlockList>,
        heap: HeapFile,
        block_heap: HeapFile,
        rids: TidMap<RecordId>,
    ) -> InvertedIndex {
        let tid_span = rids.keys().max().map_or(0, |&tid| tid.saturating_add(1));
        InvertedIndex {
            domain,
            postings,
            heap,
            block_heap,
            rids,
            tid_span,
            cost: OnceLock::new(),
        }
    }

    /// Pre-populate the cost-statistics cache (snapshot load). Returns
    /// whether the value was installed (false if already computed).
    pub(crate) fn preset_cost_stats(&self, stats: CostStats) -> bool {
        self.cost.set(stats).is_ok()
    }

    /// Cost statistics for the I/O model, collected from in-memory
    /// metadata (zero I/O; see [`CostStats`]) when first asked for and
    /// kept until the next [`InvertedIndex::insert`],
    /// [`InvertedIndex::update`] or [`InvertedIndex::delete`] drops
    /// them: they always describe the live directory. No query reads
    /// them; [`InvertedIndex::plan_petq`] and the `UIV2` snapshot's
    /// statistics section (docs/FORMAT.md §10) do.
    pub fn cost_stats(&self) -> &CostStats {
        self.cost.get_or_init(|| crate::cost::collect(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncat_storage::InMemoryDisk;

    fn uda(pairs: &[(u32, f32)]) -> Uda {
        Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
    }

    fn pool() -> BufferPool {
        BufferPool::with_capacity(InMemoryDisk::shared(), 100)
    }

    #[test]
    fn build_and_random_access() {
        let mut p = pool();
        let data = [
            (0u64, uda(&[(0, 0.5), (1, 0.5)])),
            (1, uda(&[(1, 0.2), (2, 0.8)])),
            (2, uda(&[(0, 1.0)])),
        ];
        let idx = InvertedIndex::build(
            Domain::anonymous(3),
            &mut p,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.list_len(CatId(0)), 2);
        assert_eq!(idx.list_len(CatId(1)), 2);
        assert_eq!(idx.list_len(CatId(2)), 1);
        assert_eq!(idx.get_tuple(&mut p, 1).unwrap().unwrap(), data[1].1);
        assert!(idx.get_tuple(&mut p, 99).unwrap().is_none());
    }

    #[test]
    fn insert_then_delete_cleans_postings() {
        let mut p = pool();
        let mut idx = InvertedIndex::new(Domain::anonymous(4));
        idx.insert(&mut p, 7, &uda(&[(0, 0.4), (3, 0.6)])).unwrap();
        idx.insert(&mut p, 8, &uda(&[(3, 1.0)])).unwrap();
        assert_eq!(idx.list_len(CatId(3)), 2);
        assert_eq!(idx.check_invariants(&mut p).unwrap(), 2);
        assert!(idx.delete(&mut p, 7).unwrap());
        assert!(!idx.delete(&mut p, 7).unwrap());
        assert_eq!(idx.list_len(CatId(0)), 0);
        assert_eq!(idx.list_len(CatId(3)), 1);
        assert_eq!(idx.len(), 1);
        assert!(idx.get_tuple(&mut p, 7).unwrap().is_none());
        assert_eq!(idx.check_invariants(&mut p).unwrap(), 1);
    }

    #[test]
    fn stats_reflect_structure() {
        let mut p = pool();
        let data = [
            (0u64, uda(&[(0, 0.5), (1, 0.5)])),
            (1, uda(&[(1, 0.2), (2, 0.8)])),
            (2, uda(&[(1, 1.0)])),
        ];
        let idx = InvertedIndex::build(
            Domain::anonymous(3),
            &mut p,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        let s = idx.stats();
        assert_eq!(s.lists, 3);
        assert_eq!(s.postings, 5);
        assert_eq!(s.longest_list, 3);
        assert!(s.heap_pages >= 1);
        assert!((s.avg_list_len() - 5.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn queries_on_empty_index_return_nothing() {
        let mut p = pool();
        let idx = InvertedIndex::new(Domain::anonymous(4));
        let q = uncat_core::query::EqQuery::new(Uda::certain(CatId(0)), 0.1);
        for strat in crate::Strategy::ALL {
            assert!(idx.petq(&mut p, &q, strat).unwrap().is_empty(), "{strat:?}");
        }
        assert!(idx
            .top_k(
                &mut p,
                &uncat_core::query::TopKQuery::new(Uda::certain(CatId(0)), 3)
            )
            .unwrap()
            .is_empty());
        assert!(idx.peq(&mut p, &Uda::certain(CatId(0))).unwrap().is_empty());
        assert_eq!(idx.check_invariants(&mut p).unwrap(), 0);
    }

    #[test]
    fn disjoint_query_reads_no_lists() {
        let mut p = pool();
        let mut idx = InvertedIndex::new(Domain::anonymous(8));
        for i in 0..20u64 {
            idx.insert(&mut p, i, &uda(&[(0, 0.5), (1, 0.5)])).unwrap();
        }
        p.clear().unwrap();
        p.reset_stats();
        let q = uncat_core::query::EqQuery::new(Uda::certain(CatId(7)), 0.1);
        assert!(idx
            .petq(&mut p, &q, crate::Strategy::Nra)
            .unwrap()
            .is_empty());
        assert_eq!(
            p.stats().physical_reads,
            0,
            "no posting list exists for category 7"
        );
    }

    #[test]
    fn corrupted_heap_page_degrades_to_a_typed_error() {
        use uncat_storage::{Fault, FaultStore};

        let faults = std::sync::Arc::new(FaultStore::new(InMemoryDisk::shared(), 11));
        let mut p = BufferPool::with_capacity(faults.clone(), 100);
        let data: Vec<(u64, Uda)> = (0..200u64)
            .map(|i| (i, uda(&[((i % 3) as u32, 1.0)])))
            .collect();
        let idx = InvertedIndex::build(
            Domain::anonymous(3),
            &mut p,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        p.clear().unwrap();
        // Fail the next physical read: the query using it errors instead of
        // aborting, and the next query — with the fault spent — succeeds.
        faults.arm(Fault::FailRead {
            after: faults.reads_so_far() + 1,
        });
        let q = uncat_core::query::EqQuery::new(Uda::certain(CatId(1)), 0.5);
        assert!(idx
            .petq(&mut p, &q, crate::Strategy::ColumnPruning)
            .is_err());
        let ok = idx
            .petq(&mut p, &q, crate::Strategy::ColumnPruning)
            .unwrap();
        assert!(
            !ok.is_empty(),
            "index answers normally once the fault is gone"
        );
    }

    #[test]
    fn duplicate_tid_is_a_typed_error() {
        let mut p = pool();
        let mut idx = InvertedIndex::new(Domain::anonymous(2));
        idx.insert(&mut p, 1, &uda(&[(0, 1.0)])).unwrap();
        assert_eq!(
            idx.insert(&mut p, 1, &uda(&[(1, 1.0)])),
            Err(StorageError::Duplicate { key: 1 })
        );
        // The rejected insert modified nothing: the original
        // distribution and postings are intact.
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get_tuple(&mut p, 1).unwrap().unwrap(), uda(&[(0, 1.0)]));
        assert_eq!(idx.check_invariants(&mut p).unwrap(), 1);
        // build() rejects duplicates the same way.
        let dup = [(5u64, uda(&[(0, 1.0)])), (5, uda(&[(1, 1.0)]))];
        assert_eq!(
            InvertedIndex::build(
                Domain::anonymous(2),
                &mut p,
                dup.iter().map(|(t, u)| (*t, u)),
            )
            .err(),
            Some(StorageError::Duplicate { key: 5 })
        );
    }

    /// Posting keys and block payloads carry 32-bit ids. `posting_key`
    /// only debug-asserted that: in release, tuple `2^32 + 5` was indexed
    /// under postings naming tuple 5 — brute force answered with a tuple
    /// that does not exist and column pruning with `Corrupt` — and a
    /// debug build panicked half way through the insert.
    #[test]
    fn a_tid_past_32_bits_is_refused_before_anything_is_modified() {
        let mut p = pool();
        let tid = (1u64 << 32) + 5;
        let refused = StorageError::KeyOutOfRange {
            key: tid,
            max: u32::MAX as u64,
        };
        let data = [(1u64, uda(&[(0, 1.0)])), (tid, uda(&[(0, 0.5), (1, 0.5)]))];
        let built = InvertedIndex::build(
            Domain::anonymous(2),
            &mut p,
            data.iter().map(|(t, u)| (*t, u)),
        );
        assert_eq!(built.err(), Some(refused.clone()));

        let mut idx = InvertedIndex::new(Domain::anonymous(2));
        idx.insert(&mut p, 1, &data[0].1).unwrap();
        assert_eq!(idx.insert(&mut p, tid, &data[1].1), Err(refused.clone()));
        assert_eq!(idx.update(&mut p, tid, &data[1].1), Err(refused.clone()));
        assert_eq!(idx.delete(&mut p, tid), Ok(false));
        assert_eq!((idx.len(), idx.tid_span()), (1, 2));
        assert_eq!(idx.list_len(CatId(1)), 0, "no posting went in first");
        assert_eq!(idx.check_invariants(&mut p).unwrap(), 1);
        let q = uncat_core::query::EqQuery::new(Uda::certain(CatId(0)), 0.1);
        for strat in crate::Strategy::ALL {
            let hits = idx.petq(&mut p, &q, strat).unwrap();
            assert_eq!(hits.len(), 1, "{strat:?}");
            assert_eq!(hits[0].tid, 1, "{strat:?}");
        }
        // The largest id there is goes in, and sets the span.
        idx.insert(&mut p, u32::MAX as u64, &data[1].1).unwrap();
        assert_eq!(idx.tid_span(), 1 << 32);
        assert!(idx.delete(&mut p, u32::MAX as u64).unwrap());
        assert_eq!(idx.tid_span(), 1 << 32, "a delete does not lower it");
        assert_eq!(
            idx.petq(&mut p, &q, crate::Strategy::Brute).unwrap().len(),
            1
        );
    }

    #[test]
    fn update_replaces_in_probability_order() {
        let mut p = pool();
        let mut idx = InvertedIndex::new(Domain::anonymous(4));
        idx.insert(&mut p, 1, &uda(&[(0, 0.9), (1, 0.1)])).unwrap();
        idx.insert(&mut p, 2, &uda(&[(0, 0.5), (2, 0.5)])).unwrap();
        assert!(idx.contains(1));
        assert!(!idx.contains(9));
        // Replace tuple 1's distribution entirely.
        assert!(idx.update(&mut p, 1, &uda(&[(2, 0.3), (3, 0.7)])).unwrap());
        assert_eq!(idx.list_len(CatId(0)), 1, "old postings removed");
        assert_eq!(idx.list_len(CatId(1)), 0);
        assert_eq!(idx.list_len(CatId(2)), 2);
        assert_eq!(idx.list_len(CatId(3)), 1);
        assert_eq!(
            idx.get_tuple(&mut p, 1).unwrap().unwrap(),
            uda(&[(2, 0.3), (3, 0.7)])
        );
        // Upsert of a fresh tid inserts.
        assert!(!idx.update(&mut p, 3, &uda(&[(0, 1.0)])).unwrap());
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.check_invariants(&mut p).unwrap(), 3);
        // Queries see the updated state.
        let q = uncat_core::query::EqQuery::new(Uda::certain(CatId(2)), 0.2);
        let mut tids: Vec<u64> = idx
            .petq(&mut p, &q, crate::Strategy::Nra)
            .unwrap()
            .iter()
            .map(|m| m.tid)
            .collect();
        tids.sort_unstable();
        assert_eq!(tids, vec![1, 2]);
    }

    /// `n` tuples of one to six categories: ~40 bytes a record, so a few
    /// hundred of them span several heap pages.
    fn wide_dataset(n: u64) -> Vec<(u64, Uda)> {
        (0..n)
            .map(|i| {
                let width = 1 + (i % 6) as u32;
                let pairs: Vec<(u32, f32)> = (0..width)
                    .map(|k| ((i as u32 * 7 + k * 5) % 32, 1.0 / (width + k) as f32 / 2.0))
                    .collect();
                let mut distinct = pairs.clone();
                distinct.sort_by_key(|&(c, _)| c);
                distinct.dedup_by_key(|&mut (c, _)| c);
                (i, uda(&distinct))
            })
            .collect()
    }

    #[test]
    fn verification_errors_are_typed_and_close_their_span() {
        use uncat_storage::{FakeClock, Tracer};

        let mut p = pool();
        let data = wide_dataset(300);
        let mut idx = InvertedIndex::build(
            Domain::anonymous(32),
            &mut p,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        // A posting naming a tuple the rid map does not know.
        assert_eq!(
            idx.for_each_tuple(&mut p, [5, 9_999], |_, _| {}),
            Err(StorageError::Corrupt(
                "posting refers to an unindexed tuple"
            ))
        );
        // A record tombstoned behind the rid map's back: every strategy
        // that verifies tuple 7 fails with a typed error, and the
        // verification span is closed on the way out — the next span
        // opens at the root, not under a dangling one.
        let rid = idx.rids[&7];
        idx.heap.delete(&mut p, rid).unwrap();
        let q = uncat_core::query::EqQuery::new(data[7].1.clone(), 0.01);
        p.set_tracer(Tracer::enabled(std::sync::Arc::new(FakeClock::auto(1))));
        for strat in [crate::Strategy::ColumnPruning, crate::Strategy::RowPruning] {
            assert_eq!(
                idx.petq(&mut p, &q, strat),
                Err(DELETED_RECORD),
                "{strat:?}"
            );
        }
        let next = p.trace_begin(Phase::Plan);
        p.trace_end(next);
        let trace = p.take_trace().unwrap();
        let last = trace.spans.last().unwrap();
        assert_eq!(last.phase, Phase::Plan);
        assert!(last.is_root(), "a verification span was left open");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        // The batched visitor against one `get_tuple` per tid: any
        // multiset of live tids — duplicates, several heap pages,
        // records sitting behind a tombstoned slot — comes back exactly,
        // as a multiset, at one page read per distinct page.
        #[test]
        fn for_each_tuple_agrees_with_get_tuple(
            picks in proptest::collection::vec(0u64..400, 0..120),
            dead in 0u64..400,
        ) {
            let mut p = pool();
            let data = wide_dataset(400);
            let mut idx = InvertedIndex::build(
                Domain::anonymous(32),
                &mut p,
                data.iter().map(|(t, u)| (*t, u)),
            )
            .unwrap();
            proptest::prop_assert!(idx.heap_pages() >= 3);
            proptest::prop_assert!(idx.delete(&mut p, dead).unwrap());
            let tids: Vec<u64> = picks.into_iter().filter(|&t| t != dead).collect();

            let mut want: Vec<(u64, Uda)> = Vec::new();
            for &tid in &tids {
                want.push((tid, idx.get_tuple(&mut p, tid).unwrap().unwrap()));
            }
            p.reset_stats();
            let mut got: Vec<(u64, Uda)> = Vec::new();
            idx.for_each_tuple(&mut p, tids.iter().copied(), |tid, entries| {
                got.push((tid, Uda::from_pairs(entries.iter().map(|e| (e.cat, e.prob))).unwrap()));
            })
            .unwrap();
            let pages: std::collections::HashSet<PageId> =
                tids.iter().map(|t| idx.rids[t].page).collect();
            proptest::prop_assert_eq!(p.stats().logical_reads, pages.len() as u64);
            want.sort_by_key(|(tid, _)| *tid);
            got.sort_by_key(|(tid, _)| *tid);
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert!(idx.for_each_tuple(&mut p, [dead], |_, _| {}).is_err());
        }
    }
}
