//! Readers for the layouts nothing writes any more, behind one converter,
//! [`upgrade`].
//!
//! Two layouts shipped before today's and are still found in old files
//! (`docs/FORMAT.md` §8.2 and §9):
//!
//! * `UIV1` snapshots, whose posting lists are raw `(tid, p)` keys in one
//!   paged B+tree per category. Each tree is reattached read-only
//!   ([`BTree::from_raw_parts`]) and its leaves are walked
//!   ([`BTree::scan_all`]).
//! * Block payloads in the varint layout (bit 15 of the count clear),
//!   which `UIV2` page files written before the packed layout hold, often
//!   beside packed ones that later mutations wrote.
//!
//! Either way every list is read whole and rebuilt with
//! [`BlockList::build`] into a fresh block heap, as a build lays it out.
//! The conversion writes only pages it allocates: the pages the committed
//! snapshot names are never touched, so it stays valid — and holds every
//! entry — until the new snapshot is committed, whether or not the
//! conversion gets that far.
//!
//! Nothing else reads either layout: [`InvertedIndex::open`] refuses
//! `UIV1`, [`InvertedIndex::check_layout`] a file that holds a varint
//! payload anywhere and [`crate::visit_block`] a varint payload it is
//! handed, all with errors that name `uncat upgrade`. The input comes
//! from files this build did not write, so both readers take it as
//! hostile: a count the bytes cannot back, a tree that lies about its
//! shape or a payload that does not parse is a typed error, and no
//! allocation is sized from a count before the bytes have vouched for
//! it.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use uncat_core::{CatId, Prob, TupleId};
use uncat_storage::btree::BTree;
use uncat_storage::snapshot::Reader;
use uncat_storage::{BufferPool, HeapFile, PageId, Result, SharedStore, StorageError};

use crate::block::{decode_block, prob_at, BlockList, PACKED_TAG, VARINT_REFUSED};
use crate::index::InvertedIndex;
use crate::persist::{read_domain, read_store_parts, MAGIC_V1};
use crate::postings::{decode_posting, posting_key, KEY_LEN};

/// Convert an inverted-index snapshot to the current layout: a `UIV1`
/// blob's raw lists, or every list of a `UIV2` blob that holds a varint
/// payload, are rebuilt as packed block lists on pages allocated from
/// `pool`. Returns the `UIV2` blob to commit once `pool` is flushed; a
/// blob that is already current comes back unchanged, and nothing is
/// written.
///
/// A blob or page that does not parse is [`StorageError::Corrupt`] or
/// the pool's own error. The pages written before it are referenced by
/// no snapshot; the old one reads as it did.
pub fn upgrade(pool: &mut BufferPool, blob: &[u8]) -> Result<Vec<u8>> {
    let (mut idx, raw) = if blob.starts_with(MAGIC_V1) {
        parse_uiv1(blob)?
    } else {
        let idx = InvertedIndex::open(blob)?;
        if !holds_varint(pool, &idx)? {
            return Ok(blob.to_vec());
        }
        (idx, Vec::new())
    };
    let pages = pool.store().num_pages();
    let (postings, block_heap) = idx.lists_mut();
    let old_heap = std::mem::replace(block_heap, HeapFile::new());
    for (cat, list) in std::mem::take(postings) {
        let entries = block_entries(pool, &old_heap, &list)?;
        postings.insert(cat, BlockList::build(block_heap, pool, &entries)?);
    }
    for (cat, root, len, depth) in raw {
        // A tree of depth d spans at least d pages: this bounds the
        // descent of a tree whose pages route in a circle.
        if u64::from(depth) > pages {
            return Err(StorageError::Corrupt("UIV1 list deeper than the page file"));
        }
        let entries = raw_entries(pool, &BTree::from_raw_parts(root, len, depth))?;
        postings.insert(cat, BlockList::build(block_heap, pool, &entries)?);
    }
    Ok(idx.snapshot())
}

impl InvertedIndex {
    /// Refuse an index whose lists hold any payload in the retired varint
    /// layout, with the error [`crate::visit_block`] gives one: the whole
    /// file, once, where it is opened over its pages in `store` — not the
    /// first query that happens to decode such a block, since a pruned
    /// query passes most blocks over. Reads every payload page once,
    /// through a pool of its own (a caller's pool keeps its pages and its
    /// ledger), and writes nothing.
    pub fn check_layout(&self, store: &SharedStore) -> Result<()> {
        let mut pool = BufferPool::with_capacity(store.clone(), CHECK_FRAMES);
        if holds_varint(&mut pool, self)? {
            return Err(VARINT_REFUSED);
        }
        Ok(())
    }
}

/// Frames of [`InvertedIndex::check_layout`]'s pool: the payloads are
/// read in directory order, each page once.
const CHECK_FRAMES: usize = 8;

/// One `UIV1` list header: category, tree root, entry count, depth.
type RawList = (CatId, PageId, u64, u32);

/// Parse a `UIV1` blob: the index without its lists, and the lists'
/// headers in category order.
fn parse_uiv1(blob: &[u8]) -> Result<(InvertedIndex, Vec<RawList>)> {
    let mut r = Reader::new(blob, MAGIC_V1)?;
    let domain = read_domain(&mut r)?;
    let (heap, rids) = read_store_parts(&mut r)?;
    let n_lists = r.u32()?;
    let mut lists: Vec<RawList> = Vec::new();
    for _ in 0..n_lists {
        let cat = CatId(r.u32()?);
        if lists.last().is_some_and(|&(last, ..)| last >= cat) {
            return Err(StorageError::Corrupt("UIV1 lists out of category order"));
        }
        lists.push((cat, r.pid()?, r.u64()?, r.u32()?));
    }
    if !r.is_done() {
        return Err(StorageError::Corrupt("trailing bytes"));
    }
    let idx = InvertedIndex::from_parts(domain, BTreeMap::new(), heap, HeapFile::new(), rids);
    Ok((idx, lists))
}

/// Whether any payload of `idx`'s lists is in the varint layout. Reads
/// the payloads, writes nothing.
fn holds_varint(pool: &mut BufferPool, idx: &InvertedIndex) -> Result<bool> {
    let mut varint = false;
    for list in idx.posting_map().values() {
        list.for_each_payload(idx.block_heap(), pool, |_, bytes| {
            varint = !is_packed(bytes);
            Ok(!varint)
        })?;
        if varint {
            break;
        }
    }
    Ok(varint)
}

fn is_packed(bytes: &[u8]) -> bool {
    matches!(bytes, [lo, hi, ..] if u16::from_le_bytes([*lo, *hi]) & PACKED_TAG != 0)
}

/// A block list's entries in stream order, each payload read in its own
/// layout, checked as [`checked`] does.
fn block_entries(
    pool: &mut BufferPool,
    heap: &HeapFile,
    list: &BlockList,
) -> Result<Vec<(TupleId, Prob)>> {
    let mut entries = Vec::new();
    list.for_each_payload(heap, pool, |meta, bytes| {
        let block = if is_packed(bytes) {
            decode_block(bytes)?
        } else {
            decode_varint(bytes)?
        };
        if block.len() != meta.count as usize {
            return Err(StorageError::Corrupt(
                "block count disagrees with its directory",
            ));
        }
        entries.extend(block);
        Ok(true)
    })?;
    checked(entries, list.len())
}

/// A raw list's entries in stream order, checked as [`checked`] does. The
/// walk stops at the first key past the recorded count, not above the one
/// before it — so a leaf chain that loops ends — or with a probability
/// outside `(0, 1]`.
fn raw_entries(pool: &mut BufferPool, tree: &BTree<KEY_LEN, 0>) -> Result<Vec<(TupleId, Prob)>> {
    let mut entries: Vec<(TupleId, Prob)> = Vec::new();
    let mut last: Option<[u8; KEY_LEN]> = None;
    let mut bad = None;
    tree.scan_all(pool, |key, _| {
        let (p, tid) = decode_posting(key);
        bad = if entries.len() as u64 == tree.len() {
            Some("posting list longer than recorded")
        } else if last.is_some_and(|last| last >= *key) {
            Some("posting list out of stream order")
        } else if !(p > 0.0 && p <= 1.0) {
            Some("UIV1 posting probability out of range")
        } else {
            entries.push((tid, p));
            last = Some(*key);
            None
        };
        match bad {
            Some(_) => ControlFlow::Break(()),
            None => ControlFlow::Continue(()),
        }
    })?;
    if let Some(what) = bad {
        return Err(StorageError::Corrupt(what));
    }
    checked(entries, tree.len())
}

/// A list's entries as read, before they are rebuilt: exactly as many as
/// its header recorded, in strictly ascending stream order, and no tuple
/// twice.
fn checked(entries: Vec<(TupleId, Prob)>, recorded: u64) -> Result<Vec<(TupleId, Prob)>> {
    if entries.len() as u64 != recorded {
        return Err(StorageError::Corrupt(
            "posting list length disagrees with its header",
        ));
    }
    let key = |&(tid, p): &(TupleId, Prob)| posting_key(p, tid);
    if entries.windows(2).any(|w| key(&w[0]) >= key(&w[1])) {
        return Err(StorageError::Corrupt("posting list out of stream order"));
    }
    let mut tids: Vec<TupleId> = entries.iter().map(|&(tid, _)| tid).collect();
    tids.sort_unstable();
    if tids.windows(2).any(|w| w[0] == w[1]) {
        return Err(StorageError::Corrupt("posting list names a tuple twice"));
    }
    Ok(entries)
}

const VARINT_TRUNCATED: StorageError = StorageError::Corrupt("posting block varint truncated");

fn read_varint(bytes: &[u8], at: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*at).ok_or(VARINT_TRUNCATED)?;
        *at += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(StorageError::Corrupt("posting block varint overflows"));
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Decode a payload in the varint layout (`docs/FORMAT.md` §8.2): the
/// `u16` count, `count` LEB128 tids — the first absolute, the rest
/// strictly positive deltas — then the probabilities in the same order.
/// Returns the entries in stream order. Every tid read consumes a byte,
/// so the payload's length, not its count field, bounds the buffer.
pub(crate) fn decode_varint(bytes: &[u8]) -> Result<Vec<(TupleId, Prob)>> {
    let count = match bytes {
        [lo, hi, ..] => u16::from_le_bytes([*lo, *hi]) as usize,
        _ => return Err(VARINT_TRUNCATED),
    };
    let mut at = 2usize;
    let mut tids: Vec<TupleId> = Vec::new();
    for _ in 0..count {
        let v = read_varint(bytes, &mut at)?;
        let tid = match tids.last() {
            None => v,
            Some(&prev) => prev
                .checked_add(v)
                .filter(|&tid| tid > prev)
                .ok_or(StorageError::Corrupt("posting block tids not ascending"))?,
        };
        if tid > u32::MAX as u64 {
            return Err(StorageError::Corrupt("posting block tid overflows"));
        }
        tids.push(tid);
    }
    let probs = &bytes[at..];
    if probs.len() != 4 * count {
        return Err(StorageError::Corrupt(
            "posting block probability area missized",
        ));
    }
    let mut entries = tids
        .into_iter()
        .zip(probs.chunks_exact(4))
        .map(|(tid, bits)| Ok((tid, prob_at(bits)?)))
        .collect::<Result<Vec<_>>>()?;
    entries.sort_unstable_by_key(|&(tid, p)| (!p.to_bits(), tid));
    Ok(entries)
}
