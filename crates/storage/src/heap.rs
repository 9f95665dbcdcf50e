//! Slotted-page heap file: the tuple store.
//!
//! Each tuple's UDA encoding is stored as one variable-length record;
//! random-access candidate verification ("check whether the tuple
//! qualifies") costs exactly one page read per record, which is the I/O
//! behaviour the paper's search strategies trade off against.
//!
//! Page layout:
//!
//! ```text
//! 0   u16 slot_count
//! 2   u16 free_end          offset where the record area starts (grows down)
//! 4   slot[i]: u16 offset, u16 len     (len == 0 ⇒ deleted)
//! ... free space ...
//! ... records packed at the tail ...
//! ```
//!
//! Slot ids are stable for the life of a record; its bytes may move
//! within the page ([`HeapFile::update`] compacts a page when that makes
//! room), which is what the slot indirection is for.
//!
//! Every page access goes through a fallible [`BufferPool`]; slot
//! directories that point outside the page (possible only with a corrupt
//! page that passed physical checks) surface as
//! [`StorageError::Corrupt`].

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{field, PageId, PAGE_SIZE};

const HDR_SLOTS: usize = 0;
const HDR_FREE_END: usize = 2;
const HDR_LEN: usize = 4;
const SLOT_LEN: usize = 4;

/// Address of a record: page plus slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordId {
    /// The page holding the record.
    pub page: PageId,
    /// Slot index within the page.
    pub slot: u16,
}

/// A heap file of variable-length records.
///
/// The file's page list lives in memory (it is index metadata, not data);
/// record bytes live on pages and are accessed through a [`BufferPool`].
pub struct HeapFile {
    pages: Vec<PageId>,
    records: u64,
}

/// Largest record the heap can store on one page.
pub const MAX_RECORD: usize = PAGE_SIZE - HDR_LEN - SLOT_LEN;

/// Validate a slot's record bounds against the page, rejecting corrupt
/// directories instead of panicking on a slice.
fn record_bounds(off: usize, len: usize) -> Result<std::ops::Range<usize>> {
    if off >= PAGE_SIZE || len > PAGE_SIZE - off {
        return Err(StorageError::Corrupt("heap slot points outside its page"));
    }
    Ok(off..off + len)
}

/// The sizes a slot can describe: `1..=MAX_RECORD` bytes.
fn check_record_len(data: &[u8]) -> Result<()> {
    if data.len() > MAX_RECORD {
        return Err(StorageError::RecordTooLarge {
            len: data.len(),
            max: MAX_RECORD,
        });
    }
    if data.is_empty() {
        return Err(StorageError::EmptyRecord);
    }
    Ok(())
}

/// The page's slot count, checked against the room a directory can take
/// so that every slot below it can be read without leaving the page.
fn slot_count(b: &[u8; PAGE_SIZE]) -> Result<u16> {
    let slots = field::get_u16(b, HDR_SLOTS);
    if HDR_LEN + slots as usize * SLOT_LEN > PAGE_SIZE {
        return Err(StorageError::Corrupt(
            "heap slot directory overruns its page",
        ));
    }
    Ok(slots)
}

/// `(offset, len)` of `slot`'s directory entry; `slot` is below
/// [`slot_count`].
fn slot_entry(b: &[u8; PAGE_SIZE], slot: u16) -> (usize, usize) {
    let slot_off = HDR_LEN + slot as usize * SLOT_LEN;
    (
        field::get_u16(b, slot_off) as usize,
        field::get_u16(b, slot_off + 2) as usize,
    )
}

fn set_slot_entry(b: &mut [u8; PAGE_SIZE], slot: u16, off: usize, len: usize) {
    let slot_off = HDR_LEN + slot as usize * SLOT_LEN;
    field::put_u16(b, slot_off, off as u16);
    field::put_u16(b, slot_off + 2, len as u16);
}

/// [`HeapFile::update`] within one page. `Ok(false)` means the page
/// cannot hold `data` even compacted: the slot is tombstoned and the
/// caller places the record elsewhere. An error leaves the page as it
/// was.
fn update_on_page(b: &mut [u8; PAGE_SIZE], slot: u16, data: &[u8]) -> Result<bool> {
    let slots = slot_count(b)?;
    if slot >= slots {
        return Err(StorageError::Corrupt(
            "heap update of a slot past the directory",
        ));
    }
    let (off, len) = slot_entry(b, slot);
    if len == 0 {
        return Err(StorageError::Corrupt("heap update of a deleted record"));
    }
    record_bounds(off, len)?;
    if data.len() <= len {
        b[off..off + data.len()].copy_from_slice(data);
        set_slot_entry(b, slot, off, data.len());
        return Ok(true);
    }
    let slot_area_end = HDR_LEN + slots as usize * SLOT_LEN;
    let mut free_end = field::get_u16(b, HDR_FREE_END) as usize;
    if free_end > PAGE_SIZE || free_end < slot_area_end {
        return Err(StorageError::Corrupt(
            "heap free-space pointer outside its page",
        ));
    }
    if free_end - slot_area_end < data.len() {
        // The gap is too small: squeeze out the dead extents (this
        // record's old bytes, shrunk tails, tombstoned records) if that
        // makes room.
        let others = || (0..slots).filter(|&s| s != slot);
        let mut live = 0usize;
        for s in others() {
            let (o, l) = slot_entry(b, s);
            if l > 0 {
                live += record_bounds(o, l)?.len();
            }
        }
        if live + data.len() > PAGE_SIZE - slot_area_end {
            set_slot_entry(b, slot, off, 0);
            return Ok(false);
        }
        let before = *b;
        free_end = PAGE_SIZE;
        for s in others() {
            let (o, l) = slot_entry(&before, s);
            if l > 0 {
                free_end -= l;
                b[free_end..free_end + l].copy_from_slice(&before[o..o + l]);
                set_slot_entry(b, s, free_end, l);
            }
        }
    }
    let at = free_end - data.len();
    b[at..free_end].copy_from_slice(data);
    set_slot_entry(b, slot, at, data.len());
    field::put_u16(b, HDR_FREE_END, at as u16);
    Ok(true)
}

impl HeapFile {
    /// New empty heap file.
    pub fn new() -> HeapFile {
        HeapFile {
            pages: Vec::new(),
            records: 0,
        }
    }

    /// Reattach a heap file from persisted parts (see
    /// [`HeapFile::raw_parts`]). The caller asserts the pages belong to a
    /// heap previously built on the same store.
    pub fn from_raw_parts(pages: Vec<PageId>, records: u64) -> HeapFile {
        HeapFile { pages, records }
    }

    /// The persistable identity of this heap: its page list and live
    /// record count.
    pub fn raw_parts(&self) -> (&[PageId], u64) {
        (&self.pages, self.records)
    }

    /// Number of live records.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// Whether the heap holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Number of pages the heap occupies.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// The heap's pages in allocation order (for full scans).
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Insert a record, returning its address.
    ///
    /// Rejects `data` above [`MAX_RECORD`] with
    /// [`StorageError::RecordTooLarge`] and zero-length `data` with
    /// [`StorageError::EmptyRecord`] (zero length marks a deleted slot on
    /// the page, so empty records would be unretrievable). With online
    /// mutation these sizes arrive from callers at runtime, so they are
    /// typed errors rather than panics; nothing is modified when they
    /// fire.
    pub fn insert(&mut self, pool: &mut BufferPool, data: &[u8]) -> Result<RecordId> {
        check_record_len(data)?;
        if let Some(&last) = self.pages.last() {
            if let Some(rid) = Self::try_insert_on(pool, last, data)? {
                self.records += 1;
                return Ok(rid);
            }
        }
        let pid = pool.allocate()?;
        pool.write(pid, |b| {
            field::put_u16(b, HDR_SLOTS, 0);
            field::put_u16(b, HDR_FREE_END, PAGE_SIZE as u16);
        })?;
        self.pages.push(pid);
        let rid = Self::try_insert_on(pool, pid, data)?
            .ok_or(StorageError::Corrupt("fresh heap page rejected a record"))?;
        self.records += 1;
        Ok(rid)
    }

    fn try_insert_on(pool: &mut BufferPool, pid: PageId, data: &[u8]) -> Result<Option<RecordId>> {
        pool.write(pid, |b| {
            let slots = field::get_u16(b, HDR_SLOTS) as usize;
            let free_end = field::get_u16(b, HDR_FREE_END) as usize;
            let slot_area_end = HDR_LEN + (slots + 1) * SLOT_LEN;
            if free_end < slot_area_end || free_end - slot_area_end < data.len() {
                return None;
            }
            let off = free_end - data.len();
            b[off..off + data.len()].copy_from_slice(data);
            set_slot_entry(b, slots as u16, off, data.len());
            field::put_u16(b, HDR_SLOTS, (slots + 1) as u16);
            field::put_u16(b, HDR_FREE_END, off as u16);
            Some(RecordId {
                page: pid,
                slot: slots as u16,
            })
        })
    }

    /// Visit the records in `slots` of `page` under a single page read:
    /// `f(i, bytes)` for the `i`-th slot, in the order given, with `None`
    /// for a deleted or out-of-range slot. Nothing is copied; the first
    /// error — `f`'s own or a slot pointing outside the page — ends the
    /// visit.
    pub fn visit_slots(
        &self,
        pool: &mut BufferPool,
        page: PageId,
        slots: impl IntoIterator<Item = u16>,
        mut f: impl FnMut(usize, Option<&[u8]>) -> Result<()>,
    ) -> Result<()> {
        pool.read(page, |b| {
            let count = slot_count(b)?;
            for (i, slot) in slots.into_iter().enumerate() {
                let record = if slot < count {
                    let (off, len) = slot_entry(b, slot);
                    if len == 0 {
                        None
                    } else {
                        Some(&b[record_bounds(off, len)?])
                    }
                } else {
                    None
                };
                f(i, record)?;
            }
            Ok(())
        })?
    }

    /// Read a record's bytes. Returns `Ok(None)` for a deleted slot.
    pub fn get(&self, pool: &mut BufferPool, rid: RecordId) -> Result<Option<Vec<u8>>> {
        let mut out = None;
        self.visit_slots(pool, rid.page, [rid.slot], |_, bytes| {
            out = bytes.map(<[u8]>::to_vec);
            Ok(())
        })?;
        Ok(out)
    }

    /// Replace a live record's bytes, returning its (possibly new)
    /// address. The record stays where it is when the new bytes fit its
    /// old extent; otherwise it moves into the page's free gap; otherwise
    /// the page is compacted (slot ids stay, records move) when that
    /// makes room; only when the page cannot hold it at all is the slot
    /// tombstoned and the record inserted elsewhere. Size errors are
    /// [`HeapFile::insert`]'s and fire before anything is modified; a
    /// deleted or out-of-range `rid` is [`StorageError::Corrupt`].
    pub fn update(
        &mut self,
        pool: &mut BufferPool,
        rid: RecordId,
        data: &[u8],
    ) -> Result<RecordId> {
        check_record_len(data)?;
        let placed = pool.write(rid.page, |b| update_on_page(b, rid.slot, data))??;
        if placed {
            return Ok(rid);
        }
        self.records -= 1;
        self.insert(pool, data)
    }

    /// Delete a record: the slot is tombstoned, and its bytes are reclaimed
    /// when a later [`HeapFile::update`] compacts the page. Returns whether
    /// a live record was deleted.
    pub fn delete(&mut self, pool: &mut BufferPool, rid: RecordId) -> Result<bool> {
        let deleted = pool.write(rid.page, |b| {
            if rid.slot >= slot_count(b)? {
                return Ok(false);
            }
            let (off, len) = slot_entry(b, rid.slot);
            if len == 0 {
                return Ok(false);
            }
            set_slot_entry(b, rid.slot, off, 0);
            Ok(true)
        })??;
        if deleted {
            self.records -= 1;
        }
        Ok(deleted)
    }

    /// Visit every live record in page order: `f(rid, bytes)`. The first
    /// error — `f`'s own or a slot pointing outside its page — ends the
    /// scan.
    pub fn scan(
        &self,
        pool: &mut BufferPool,
        mut f: impl FnMut(RecordId, &[u8]) -> Result<()>,
    ) -> Result<()> {
        for &pid in &self.pages {
            pool.read(pid, |b| {
                for slot in 0..slot_count(b)? {
                    let (off, len) = slot_entry(b, slot);
                    if len > 0 {
                        f(RecordId { page: pid, slot }, &b[record_bounds(off, len)?])?;
                    }
                }
                Ok(())
            })??;
        }
        Ok(())
    }
}

impl Default for HeapFile {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn setup() -> (HeapFile, BufferPool) {
        (
            HeapFile::new(),
            BufferPool::with_capacity(InMemoryDisk::shared(), 16),
        )
    }

    #[test]
    fn insert_get_roundtrip() {
        let (mut h, mut p) = setup();
        let a = h.insert(&mut p, b"hello").unwrap();
        let b = h.insert(&mut p, b"world!!").unwrap();
        assert_eq!(h.get(&mut p, a).unwrap().unwrap(), b"hello");
        assert_eq!(h.get(&mut p, b).unwrap().unwrap(), b"world!!");
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn records_pack_many_per_page() {
        let (mut h, mut p) = setup();
        for i in 0..100u32 {
            h.insert(&mut p, &i.to_le_bytes()).unwrap();
        }
        assert_eq!(h.num_pages(), 1, "100 tiny records fit one 8K page");
    }

    #[test]
    fn page_overflow_allocates_new_page() {
        let (mut h, mut p) = setup();
        let big = vec![0xAB; 4000];
        let r1 = h.insert(&mut p, &big).unwrap();
        let r2 = h.insert(&mut p, &big).unwrap();
        let r3 = h.insert(&mut p, &big).unwrap();
        assert_eq!(h.num_pages(), 2);
        assert_ne!(r1.page, r3.page);
        assert_eq!(h.get(&mut p, r2).unwrap().unwrap().len(), 4000);
    }

    #[test]
    fn delete_tombstones() {
        let (mut h, mut p) = setup();
        let a = h.insert(&mut p, b"gone").unwrap();
        let b = h.insert(&mut p, b"stays").unwrap();
        assert!(h.delete(&mut p, a).unwrap());
        assert!(!h.delete(&mut p, a).unwrap(), "double delete is a no-op");
        assert_eq!(h.get(&mut p, a).unwrap(), None);
        assert_eq!(h.get(&mut p, b).unwrap().unwrap(), b"stays");
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn scan_visits_live_records_in_order() {
        let (mut h, mut p) = setup();
        let ids: Vec<RecordId> = (0..5u8).map(|i| h.insert(&mut p, &[i]).unwrap()).collect();
        h.delete(&mut p, ids[2]).unwrap();
        let mut seen = Vec::new();
        h.scan(&mut p, |_, bytes| {
            seen.push(bytes[0]);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![0, 1, 3, 4]);
    }

    #[test]
    fn get_of_bogus_slot_is_none() {
        let (mut h, mut p) = setup();
        let a = h.insert(&mut p, b"x").unwrap();
        assert!(h
            .get(
                &mut p,
                RecordId {
                    page: a.page,
                    slot: 99
                }
            )
            .unwrap()
            .is_none());
    }

    #[test]
    fn corrupt_slot_directory_is_a_typed_error() {
        let (mut h, mut p) = setup();
        let a = h.insert(&mut p, b"victim").unwrap();
        // Point the slot's offset beyond the page.
        p.write(a.page, |b| {
            field::put_u16(b, HDR_LEN, (PAGE_SIZE - 1) as u16);
            field::put_u16(b, HDR_LEN + 2, 32);
        })
        .unwrap();
        assert_eq!(
            h.get(&mut p, a),
            Err(StorageError::Corrupt("heap slot points outside its page"))
        );
        assert!(h.scan(&mut p, |_, _| Ok(())).is_err());
    }

    #[test]
    fn max_record_fits() {
        let (mut h, mut p) = setup();
        let r = h.insert(&mut p, &vec![7u8; MAX_RECORD]).unwrap();
        assert_eq!(h.get(&mut p, r).unwrap().unwrap().len(), MAX_RECORD);
    }

    #[test]
    fn oversize_record_is_a_typed_error() {
        let (mut h, mut p) = setup();
        assert_eq!(
            h.insert(&mut p, &vec![0u8; MAX_RECORD + 1]),
            Err(StorageError::RecordTooLarge {
                len: MAX_RECORD + 1,
                max: MAX_RECORD
            })
        );
        assert_eq!(h.len(), 0, "rejected insert modifies nothing");
        assert_eq!(h.num_pages(), 0);
    }

    #[test]
    fn empty_record_is_a_typed_error() {
        let (mut h, mut p) = setup();
        assert_eq!(h.insert(&mut p, b""), Err(StorageError::EmptyRecord));
        assert_eq!(h.len(), 0, "rejected insert modifies nothing");
    }

    #[test]
    fn visit_slots_reports_dead_and_bogus_slots_under_one_read() {
        let (mut h, mut p) = setup();
        let a = h.insert(&mut p, b"first").unwrap();
        let b = h.insert(&mut p, b"second").unwrap();
        h.delete(&mut p, a).unwrap();
        p.reset_stats();
        let mut seen = Vec::new();
        h.visit_slots(&mut p, a.page, [b.slot, a.slot, 99, b.slot], |i, bytes| {
            seen.push((i, bytes.map(<[u8]>::to_vec)));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![
                (0, Some(b"second".to_vec())),
                (1, None),
                (2, None),
                (3, Some(b"second".to_vec())),
            ]
        );
        assert_eq!(p.stats().logical_reads, 1, "one read for the whole batch");
        // The closure's error ends the visit and is what the caller sees.
        let mut calls = 0;
        let err = h.visit_slots(&mut p, a.page, [b.slot, b.slot], |_, _| {
            calls += 1;
            Err(StorageError::Corrupt("stop"))
        });
        assert_eq!(err, Err(StorageError::Corrupt("stop")));
        assert_eq!(calls, 1);
    }

    #[test]
    fn corrupt_slot_count_is_a_typed_error() {
        let (mut h, mut p) = setup();
        let a = h.insert(&mut p, b"victim").unwrap();
        p.write(a.page, |b| field::put_u16(b, HDR_SLOTS, u16::MAX))
            .unwrap();
        let overrun = StorageError::Corrupt("heap slot directory overruns its page");
        assert_eq!(h.get(&mut p, a), Err(overrun.clone()));
        assert_eq!(h.update(&mut p, a, b"x"), Err(overrun.clone()));
        assert_eq!(h.delete(&mut p, a), Err(overrun));
        assert!(h.scan(&mut p, |_, _| Ok(())).is_err());
    }

    /// Free bytes between the slot directory and the record area.
    fn gap(p: &mut BufferPool, pid: PageId) -> usize {
        p.read(pid, |b| {
            field::get_u16(b, HDR_FREE_END) as usize
                - (HDR_LEN + field::get_u16(b, HDR_SLOTS) as usize * SLOT_LEN)
        })
        .unwrap()
    }

    #[test]
    fn update_takes_the_cheapest_branch_that_fits() {
        let (mut h, mut p) = setup();
        let a = h.insert(&mut p, &[1u8; 3000]).unwrap();
        let b = h.insert(&mut p, &[2u8; 3000]).unwrap();
        let c = h.insert(&mut p, &[3u8; 1000]).unwrap();
        assert_eq!(h.num_pages(), 1);
        let free = gap(&mut p, a.page);

        // Fits its old extent: overwritten in place, nothing else moves.
        assert_eq!(h.update(&mut p, c, &[4u8; 600]).unwrap(), c);
        assert_eq!(gap(&mut p, a.page), free);
        assert_eq!(h.get(&mut p, c).unwrap().unwrap(), vec![4u8; 600]);

        // Outgrows the extent but fits the gap: appended, same slot.
        assert_eq!(h.update(&mut p, c, &[5u8; 1100]).unwrap(), c);
        assert_eq!(gap(&mut p, a.page), free - 1100);

        // Outgrows the gap; the dead extents (1000 + the 3000 freed by
        // deleting `a`) make room once squeezed out: slot ids stay.
        assert!(h.delete(&mut p, a).unwrap());
        assert_eq!(h.update(&mut p, c, &[6u8; 4000]).unwrap(), c);
        assert_eq!(h.get(&mut p, b).unwrap().unwrap(), vec![2u8; 3000]);
        assert_eq!(h.get(&mut p, c).unwrap().unwrap(), vec![6u8; 4000]);
        assert_eq!(h.get(&mut p, a).unwrap(), None);
        assert_eq!(h.num_pages(), 1, "compaction, not relocation");

        // Cannot fit beside `b` however the page is packed: relocated.
        let moved = h.update(&mut p, c, &[7u8; 6000]).unwrap();
        assert_ne!(moved.page, c.page);
        assert_eq!(h.get(&mut p, c).unwrap(), None, "old slot tombstoned");
        assert_eq!(h.get(&mut p, moved).unwrap().unwrap(), vec![7u8; 6000]);
        assert_eq!(h.get(&mut p, b).unwrap().unwrap(), vec![2u8; 3000]);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn update_rejects_bad_sizes_and_dead_records_without_modifying() {
        let (mut h, mut p) = setup();
        let a = h.insert(&mut p, b"keep").unwrap();
        let dead = h.insert(&mut p, b"gone").unwrap();
        h.delete(&mut p, dead).unwrap();
        assert_eq!(h.update(&mut p, a, b""), Err(StorageError::EmptyRecord));
        assert_eq!(
            h.update(&mut p, a, &vec![0u8; MAX_RECORD + 1]),
            Err(StorageError::RecordTooLarge {
                len: MAX_RECORD + 1,
                max: MAX_RECORD
            })
        );
        assert_eq!(
            h.update(&mut p, dead, b"x"),
            Err(StorageError::Corrupt("heap update of a deleted record"))
        );
        let bogus = RecordId {
            page: a.page,
            slot: 99,
        };
        assert_eq!(
            h.update(&mut p, bogus, b"x"),
            Err(StorageError::Corrupt(
                "heap update of a slot past the directory"
            ))
        );
        assert_eq!(h.get(&mut p, a).unwrap().unwrap(), b"keep");
        assert_eq!(h.len(), 1);
        // A lone record may grow to the page's whole capacity in place.
        let (mut h, mut p) = setup();
        let only = h.insert(&mut p, b"x").unwrap();
        assert_eq!(
            h.update(&mut p, only, &vec![9u8; MAX_RECORD]).unwrap(),
            only
        );
        assert_eq!(h.get(&mut p, only).unwrap().unwrap().len(), MAX_RECORD);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::proptest_cases(48)))]

        // Insert/update/delete against a map model, with sizes drawn so
        // that updates overwrite in place, spill into the gap, compact
        // the page, and relocate. After every step every live record
        // reads back exactly, and only the updated record may move.
        #[test]
        fn update_agrees_with_a_map_model(
            ops in proptest::collection::vec((0u8..8, any::<u16>(), 0usize..6), 1..120)
        ) {
            const SIZES: [usize; 6] = [1, 40, 700, 1900, 3500, MAX_RECORD];
            let (mut h, mut p) = setup();
            let mut model: HashMap<RecordId, Vec<u8>> = HashMap::new();
            let mut order: Vec<RecordId> = Vec::new();
            for (step, (kind, pick, size)) in ops.into_iter().enumerate() {
                let bytes = vec![step as u8; SIZES[size]];
                let target = (!order.is_empty()).then(|| order[pick as usize % order.len()]);
                match (kind, target) {
                    (0..=2, _) | (_, None) => {
                        let rid = h.insert(&mut p, &bytes).unwrap();
                        prop_assert!(model.insert(rid, bytes).is_none(), "rid reused");
                        order.push(rid);
                    }
                    (3..=6, Some(rid)) => {
                        let now = h.update(&mut p, rid, &bytes).unwrap();
                        model.remove(&rid);
                        prop_assert!(model.insert(now, bytes).is_none(), "rid collides");
                        order.retain(|&r| r != rid);
                        order.push(now);
                    }
                    (_, Some(rid)) => {
                        prop_assert!(h.delete(&mut p, rid).unwrap());
                        model.remove(&rid);
                        order.retain(|&r| r != rid);
                    }
                }
                prop_assert_eq!(h.len(), model.len() as u64);
                for (rid, want) in &model {
                    let got = h.get(&mut p, *rid).unwrap();
                    prop_assert_eq!(got.as_ref(), Some(want), "step {} rid {:?}", step, rid);
                }
            }
        }
    }
}
