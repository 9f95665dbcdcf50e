//! Compressed block posting format (ROADMAP open item 1).
//!
//! A posting list is split into blocks of ~[`BLOCK_TARGET`] entries, each
//! stored as one heap record. Inside a block, tuple ids are sorted
//! ascending and bit-packed — a 32-bit first id, then every gap to the
//! next id at one per-block width — and probabilities are kept as raw
//! `f32` bits — lossless, so every strategy produces exact scores. Per
//! block, the in-memory directory keeps:
//!
//! * the exact 8-byte posting key of the block's first entry (the
//!   *separator*, used to place mutations),
//! * the entry count,
//! * `max_q`: the block's maximum probability quantized **up** to a
//!   multiple of `1/65535`. Rounding up keeps pruning conservative —
//!   [`dequantize`]`(max_q)` dominates every probability in the block, so
//!   a block whose dequantized maximum is below the live bound (τ, θ, or
//!   a Lemma 1 frontier sum) can be skipped without decoding,
//! * the heap [`RecordId`] holding the payload (the skip pointer: the
//!   directory walks block to block without touching payload pages).
//!
//! Payload wire format (`docs/FORMAT.md` §8.2 has the byte-level spec):
//!
//! ```text
//! u16 count | 0x8000 (LE)   bit 15 tags the packed layout
//! u8  width                 bits per gap, 0..=32
//! u32 first tid (LE)
//! (count-1) × width bits    gap - 1 to the next tid, LSB first
//! count × f32 prob (LE)     raw bits, ascending-tid order
//! ```
//!
//! This is the only layout read. Blocks written before it — bit 15
//! clear, one LEB128 varint per tid — are refused with a typed error
//! naming `uncat upgrade`, which rebuilds their lists packed (the
//! `legacy` module).
//!
//! The *stream* order of a block — the order cursors deliver entries — is
//! descending probability with ties by ascending tid, the posting-key
//! order; [`decode_block`] re-sorts into it for the frontier
//! cursors. Full and prefix scans do not care about the order inside a
//! block and read it with [`visit_block`], in storage order, without the
//! sort or a buffer.

use std::ops::Range;

use uncat_core::{Prob, TupleId};
use uncat_storage::{BufferPool, HeapFile, QueryMetrics, RecordId, Result, StorageError};

use crate::postings::{decode_posting, posting_key, CursorHead, KEY_LEN};

/// Entries per block when building or splitting.
pub const BLOCK_TARGET: usize = 128;

/// An inserted-into block splits once it exceeds this (2 × target).
pub const BLOCK_SPLIT: usize = 2 * BLOCK_TARGET;

/// Quantization denominator for block maxima.
pub const PROB_SCALE: u32 = 65_535;

/// Quantize a probability **up**: the smallest `q` with
/// `q / 65535 ≥ p`. Over-estimation keeps block-max pruning sound.
pub fn quantize_up(p: f32) -> u16 {
    debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    let mut q = ((p as f64) * PROB_SCALE as f64).ceil() as u32;
    q = q.min(PROB_SCALE);
    // Guard the float path: bump until the dequantized value dominates.
    while ((q as f64) / PROB_SCALE as f64) < p as f64 && q < PROB_SCALE {
        q += 1;
    }
    q as u16
}

/// The probability bound a quantized maximum stands for.
pub fn dequantize(q: u16) -> f64 {
    q as f64 / PROB_SCALE as f64
}

/// Bit 15 of a payload's count word: set in the packed layout, clear in
/// the varint layout that preceded it (whose counts never reached it).
pub(crate) const PACKED_TAG: u16 = 0x8000;

/// Bytes before the gaps of a packed payload: count word, width, first tid.
const PACKED_HEADER: usize = 7;

const SHORT_HEADER: StorageError = StorageError::Corrupt("posting block shorter than its header");

/// Encode a block payload in the packed layout. `entries` must be in
/// stream order (descending probability, ties by ascending tid); tids
/// must be distinct and fit 32 bits ([`crate::InvertedIndex`] admits no
/// other).
pub fn encode_block(entries: &[(TupleId, Prob)]) -> Vec<u8> {
    debug_assert!(entries.len() < PACKED_TAG as usize);
    let mut by_tid: Vec<(TupleId, Prob)> = entries.to_vec();
    by_tid.sort_unstable_by_key(|&(tid, _)| tid);
    debug_assert!(by_tid.last().is_none_or(|&(tid, _)| tid <= u32::MAX as u64));
    debug_assert!(by_tid.windows(2).all(|w| w[0].0 < w[1].0), "duplicate tid");
    // Ids ascend strictly, so a gap is at least 1 and is stored less 1.
    let gaps = by_tid.windows(2).map(|w| w[1].0 - w[0].0 - 1);
    let width = gaps
        .clone()
        .max()
        .map_or(0, |g| u64::BITS - g.leading_zeros());
    let gap_bytes = (by_tid.len().saturating_sub(1) * width as usize).div_ceil(8);
    let mut out = Vec::with_capacity(PACKED_HEADER + gap_bytes + 4 * by_tid.len());
    out.extend_from_slice(&(by_tid.len() as u16 | PACKED_TAG).to_le_bytes());
    out.push(width as u8);
    let first = by_tid.first().map_or(0, |&(tid, _)| tid as u32);
    out.extend_from_slice(&first.to_le_bytes());
    // Fewer than 8 bits are pending before a gap of at most 32 goes in.
    let (mut pending, mut bits) = (0u64, 0u32);
    for gap in gaps {
        pending |= gap << bits;
        bits += width;
        while bits >= 8 {
            out.push(pending as u8);
            pending >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        out.push(pending as u8);
    }
    for &(_, p) in &by_tid {
        out.extend_from_slice(&p.to_bits().to_le_bytes());
    }
    out
}

/// A stored probability: four little-endian bytes of an `f32` in `(0, 1]`.
#[inline]
pub(crate) fn prob_at(bits: &[u8]) -> Result<Prob> {
    let p = f32::from_le_bytes([bits[0], bits[1], bits[2], bits[3]]);
    if !(p > 0.0 && p <= 1.0) {
        return Err(StorageError::Corrupt(
            "posting block probability out of range",
        ));
    }
    Ok(p)
}

/// What reading a payload in the retired varint layout fails with.
pub(crate) const VARINT_REFUSED: StorageError =
    StorageError::Corrupt("posting block in the retired varint layout: run `uncat upgrade`");

/// Visit a block payload's entries in storage (ascending-tid) order:
/// `f(tid, p)` per entry, no buffer, no sort. Returns the entry count. A
/// payload that does not parse — possible only through corruption that
/// passed the physical checks — is a typed error; `f` may already have
/// seen entries by then, and the caller drops what it made of them. A
/// payload in the retired varint layout is refused with an error that
/// names `uncat upgrade`.
pub fn visit_block(bytes: &[u8], f: impl FnMut(TupleId, Prob)) -> Result<usize> {
    let word = match bytes {
        [lo, hi, ..] => u16::from_le_bytes([*lo, *hi]),
        _ => return Err(SHORT_HEADER),
    };
    if word & PACKED_TAG == 0 {
        return Err(VARINT_REFUSED);
    }
    visit_packed(bytes, (word & !PACKED_TAG) as usize, f)
}

/// [`visit_block`] on the packed layout: one pass, and per gap a load, a
/// shift, a mask and an add — no branch that depends on the data.
fn visit_packed(bytes: &[u8], count: usize, mut f: impl FnMut(TupleId, Prob)) -> Result<usize> {
    let (header, body) = bytes
        .split_first_chunk::<PACKED_HEADER>()
        .ok_or(SHORT_HEADER)?;
    let width = header[2] as usize;
    if width > 32 {
        return Err(StorageError::Corrupt(
            "posting block gap width exceeds 32 bits",
        ));
    }
    // `count` < 2^15 and `width` ≤ 32: no overflow, and nothing is sized
    // from either before the slice's own length has vouched for them.
    let gap_bytes = (count.saturating_sub(1) * width).div_ceil(8);
    if body.len() != gap_bytes + 4 * count {
        return Err(StorageError::Corrupt("posting block missized"));
    }
    let mut probs = body[gap_bytes..].chunks_exact(4);
    let Some(first) = probs.next() else {
        return Ok(0);
    };
    let mut tid = u32::from_le_bytes([header[3], header[4], header[5], header[6]]) as u64;
    f(tid, prob_at(first)?);
    let mask = (1u64 << width) - 1;
    for (i, bits) in probs.enumerate() {
        // A gap starts inside the gap area and spans at most 7 + 32 bits;
        // the eight bytes from its first are in the payload because at
        // least two probabilities follow the gap area.
        let at = i * width;
        let word = body[at / 8..]
            .first_chunk::<8>()
            .ok_or(StorageError::Corrupt("posting block missized"))?;
        tid += ((u64::from_le_bytes(*word) >> (at % 8)) & mask) + 1;
        f(tid, prob_at(bits)?);
    }
    // Ids only ascend, so the last one speaks for all of them.
    if tid > u32::MAX as u64 {
        return Err(StorageError::Corrupt("posting block tid overflows"));
    }
    Ok(count)
}

/// Decode a block payload back into stream order (descending probability,
/// ties by ascending tid). A payload that does not parse — possible only
/// through corruption that passed the physical checks — is a typed error.
pub fn decode_block(bytes: &[u8]) -> Result<Vec<(TupleId, Prob)>> {
    let mut entries = Vec::new();
    decode_block_into(bytes, &mut entries)?;
    Ok(entries)
}

/// [`decode_block`] into a caller-owned buffer (cleared first), so a
/// cursor walking a list allocates once.
fn decode_block_into(bytes: &[u8], entries: &mut Vec<(TupleId, Prob)>) -> Result<()> {
    entries.clear();
    // An entry takes at least the four bytes of its probability, so the
    // payload's length — not its count field — bounds the reservation.
    entries.reserve(bytes.len() / 4);
    visit_block(bytes, |tid, p| entries.push((tid, p)))?;
    // Stream order = posting-key order: descending p, ties ascending
    // tid. Probabilities are positive, so their bit patterns order as
    // the values do and the complement reverses them.
    entries.sort_unstable_by_key(|&(tid, p)| (!p.to_bits(), tid));
    Ok(())
}

/// Directory entry for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Exact posting key of the block's first stream entry. Directory
    /// order is ascending `sep` — i.e. descending probability.
    pub sep: [u8; KEY_LEN],
    /// Entries in the block.
    pub count: u16,
    /// Block maximum probability, quantized up ([`quantize_up`]).
    pub max_q: u16,
    /// Heap record holding the encoded payload (the skip pointer).
    pub rid: RecordId,
}

/// One category's posting list: the block directory plus
/// the total entry count. Payloads live in the index's block heap.
#[derive(Debug, Default, Clone)]
pub struct BlockList {
    blocks: Vec<BlockMeta>,
    entries: u64,
}

impl BlockList {
    /// An empty list.
    pub fn new() -> BlockList {
        BlockList::default()
    }

    /// Reattach from persisted parts (see `persist`).
    pub fn from_raw_parts(blocks: Vec<BlockMeta>, entries: u64) -> BlockList {
        BlockList { blocks, entries }
    }

    /// Total posting entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// The block directory, in stream order.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// Build a list from entries already in stream order, packing
    /// [`BLOCK_TARGET`] entries per block. Payload records are inserted
    /// in stream order, so consecutive blocks pack pages densely.
    pub fn build(
        heap: &mut HeapFile,
        pool: &mut BufferPool,
        entries: &[(TupleId, Prob)],
    ) -> Result<BlockList> {
        let mut list = BlockList::new();
        for chunk in entries.chunks(BLOCK_TARGET) {
            let rid = heap.insert(pool, &encode_block(chunk))?;
            list.blocks.push(meta_for(chunk, rid));
            list.entries += chunk.len() as u64;
        }
        Ok(list)
    }

    /// Index of the block whose key range covers `key` (for mutation
    /// placement). Empty lists have no covering block.
    fn covering_block(&self, key: &[u8; KEY_LEN]) -> Option<usize> {
        if self.blocks.is_empty() {
            return None;
        }
        // Last block with sep ≤ key; keys before the first separator
        // belong in block 0 (its separator moves down).
        Some(
            self.blocks
                .partition_point(|b| b.sep <= *key)
                .saturating_sub(1),
        )
    }

    /// Insert one entry, splitting the receiving block at
    /// [`BLOCK_SPLIT`]. The payload record is rewritten where it is
    /// ([`HeapFile::update`]: its address changes only when its page
    /// cannot hold it any more), so mutations do not leave dead payloads
    /// behind; the directory keeps exact separators so stream order is
    /// preserved across arbitrary mutations.
    pub fn insert(
        &mut self,
        heap: &mut HeapFile,
        pool: &mut BufferPool,
        tid: TupleId,
        p: Prob,
    ) -> Result<()> {
        let key = posting_key(p, tid);
        let Some(i) = self.covering_block(&key) else {
            let rid = heap.insert(pool, &encode_block(&[(tid, p)]))?;
            self.blocks.push(meta_for(&[(tid, p)], rid));
            self.entries = 1;
            return Ok(());
        };
        let mut entries = self.read_block(heap, pool, i)?;
        let at = entries.partition_point(|&(t, q)| posting_key(q, t) < key);
        entries.insert(at, (tid, p));
        let right = (entries.len() > BLOCK_SPLIT).then(|| entries.split_off(entries.len() / 2));
        self.rewrite(heap, pool, i, &entries)?;
        if let Some(right) = right {
            let right_rid = heap.insert(pool, &encode_block(&right))?;
            self.blocks.insert(i + 1, meta_for(&right, right_rid));
        }
        self.entries += 1;
        Ok(())
    }

    /// Remove one entry (exact `(tid, p)` match). Returns whether it was
    /// present; a shrunk block is rewritten in place, an emptied one is
    /// deleted and dropped from the directory.
    pub fn remove(
        &mut self,
        heap: &mut HeapFile,
        pool: &mut BufferPool,
        tid: TupleId,
        p: Prob,
    ) -> Result<bool> {
        let key = posting_key(p, tid);
        let Some(i) = self.covering_block(&key) else {
            return Ok(false);
        };
        let mut entries = self.read_block(heap, pool, i)?;
        let Some(at) = entries.iter().position(|&(t, q)| t == tid && q == p) else {
            return Ok(false);
        };
        entries.remove(at);
        if entries.is_empty() {
            heap.delete(pool, self.blocks[i].rid)?;
            self.blocks.remove(i);
        } else {
            self.rewrite(heap, pool, i, &entries)?;
        }
        self.entries -= 1;
        Ok(true)
    }

    /// Replace block `i`'s payload with `entries` (non-empty, in stream
    /// order), packed and in place ([`HeapFile::update`]), and its
    /// directory entry with theirs.
    fn rewrite(
        &mut self,
        heap: &mut HeapFile,
        pool: &mut BufferPool,
        i: usize,
        entries: &[(TupleId, Prob)],
    ) -> Result<()> {
        let rid = heap.update(pool, self.blocks[i].rid, &encode_block(entries))?;
        self.blocks[i] = meta_for(entries, rid);
        Ok(())
    }

    fn read_block(
        &self,
        heap: &HeapFile,
        pool: &mut BufferPool,
        i: usize,
    ) -> Result<Vec<(TupleId, Prob)>> {
        let mut entries = Vec::new();
        read_payload(heap, pool, self.blocks[i].rid, |bytes| {
            decode_block_into(bytes, &mut entries)
        })?;
        Ok(entries)
    }

    /// Hand every block's payload to `f` in directory order — `f(meta,
    /// bytes)`, returning whether to go on — with one page read per run
    /// of directory neighbours that share a payload page (a built list
    /// packs consecutive blocks onto consecutive pages, so that is one
    /// read per page, not per block).
    pub(crate) fn for_each_payload(
        &self,
        heap: &HeapFile,
        pool: &mut BufferPool,
        f: impl FnMut(&BlockMeta, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        visit_payloads(&self.blocks, heap, pool, f)
    }

    /// Visit every entry, block by block in stream order and by ascending
    /// tid inside a block — every caller aggregates per tuple id, and none
    /// reads the order. Ticks `blocks_decoded` per block and
    /// `postings_scanned` per entry, and reads each payload page once per
    /// run of blocks on it.
    pub(crate) fn scan_all(
        &self,
        heap: &HeapFile,
        pool: &mut BufferPool,
        metrics: &mut QueryMetrics,
        mut f: impl FnMut(TupleId, Prob),
    ) -> Result<()> {
        self.for_each_payload(heap, pool, |meta, bytes| {
            let n = visit_block(bytes, &mut f)?;
            check_count(n, meta)?;
            metrics.blocks_decoded += 1;
            metrics.postings_scanned += n as u64;
            Ok(true)
        })
    }

    /// Visit the entries with `p ≥ cut` of the list's stream prefix —
    /// column pruning's access pattern — in no promised order (see
    /// [`BlockList::scan_all`]). The scan stops at block granularity: after
    /// the first block holding an entry below `cut`, or before the first
    /// whose quantized-up maximum is below it, and everything after the
    /// stop point is `blocks_skipped` undecoded. Only the entries kept
    /// tick `postings_scanned`: the boundary falls inside an
    /// already-decoded block.
    pub(crate) fn scan_prefix(
        &self,
        heap: &HeapFile,
        pool: &mut BufferPool,
        cut: f64,
        metrics: &mut QueryMetrics,
        mut f: impl FnMut(TupleId, Prob),
    ) -> Result<()> {
        let mut decoded = 0u64;
        self.for_each_payload(heap, pool, |meta, bytes| {
            if dequantize(meta.max_q) < cut {
                // The quantized maximum dominates every entry in the
                // block (and in all later blocks).
                return Ok(false);
            }
            let mut kept = 0u64;
            let n = visit_block(bytes, |tid, p| {
                if (p as f64) >= cut {
                    kept += 1;
                    f(tid, p);
                }
            })?;
            check_count(n, meta)?;
            decoded += 1;
            metrics.postings_scanned += kept;
            Ok(kept == n as u64)
        })?;
        metrics.blocks_decoded += decoded;
        metrics.blocks_skipped += self.blocks.len() as u64 - decoded;
        Ok(())
    }

    /// Visit the entries of the blocks in `range`, in storage order, for
    /// a reader that passes blocks over on trust of the directory: each
    /// block must agree with its entry there (`checked_visit`). One page
    /// read per run of blocks sharing a payload page; ticks
    /// `blocks_decoded` and `postings_scanned`.
    pub(crate) fn scan_blocks(
        &self,
        heap: &HeapFile,
        pool: &mut BufferPool,
        range: Range<usize>,
        metrics: &mut QueryMetrics,
        mut f: impl FnMut(TupleId, Prob),
    ) -> Result<()> {
        visit_payloads(&self.blocks[range], heap, pool, |meta, bytes| {
            checked_visit(meta, bytes, metrics, &mut f)?;
            Ok(true)
        })
    }

    /// The blocks that can hold an entry with `lo ≤ p ≤ hi`: from the
    /// first that can hold one at or below `hi` to the last whose largest
    /// entry (its separator's) is at least `lo`.
    pub(crate) fn blocks_between(&self, lo: f64, hi: f64) -> Range<usize> {
        let from = self.first_block_at_or_below(0, hi);
        let to = from
            + self.blocks[from..]
                .iter()
                .take_while(|b| decode_posting(&b.sep).0 as f64 >= lo)
                .count();
        from..to
    }

    /// The first block from `from` on that can hold an entry with
    /// `p ≤ cap`. Stream order puts every entry of block `i` at or above
    /// the exact probability of block `i + 1`'s separator, so block `i` is
    /// passed over while that is above `cap`; the last block never is.
    pub(crate) fn first_block_at_or_below(&self, from: usize, cap: f64) -> usize {
        let later = self.blocks.get(from + 1..).unwrap_or_default();
        from + later
            .iter()
            .take_while(|b| decode_posting(&b.sep).0 as f64 > cap)
            .count()
    }
}

/// A payload must hold as many entries as its directory entry says.
fn check_count(n: usize, meta: &BlockMeta) -> Result<()> {
    if n != meta.count as usize {
        return Err(StorageError::Corrupt(
            "block count disagrees with its directory",
        ));
    }
    Ok(())
}

/// [`visit_block`] for a reader that passes blocks over on trust of the
/// directory: besides the count, the block's largest probability must be
/// its separator's (its first entry in stream order) and within its
/// quantized-up maximum, or a block passed over on the strength of
/// either could have held an answer. Ticks `blocks_decoded` and
/// `postings_scanned`.
fn checked_visit(
    meta: &BlockMeta,
    bytes: &[u8],
    metrics: &mut QueryMetrics,
    f: &mut impl FnMut(TupleId, Prob),
) -> Result<()> {
    let mut max: Prob = 0.0;
    let n = visit_block(bytes, |tid, p| {
        max = max.max(p);
        f(tid, p);
    })?;
    check_count(n, meta)?;
    if max != decode_posting(&meta.sep).0 || max as f64 > dequantize(meta.max_q) {
        return Err(StorageError::Corrupt(
            "posting block maximum disagrees with its directory",
        ));
    }
    metrics.blocks_decoded += 1;
    metrics.postings_scanned += n as u64;
    Ok(())
}

/// [`BlockList::for_each_payload`] over any run of a directory's blocks.
fn visit_payloads(
    blocks: &[BlockMeta],
    heap: &HeapFile,
    pool: &mut BufferPool,
    mut f: impl FnMut(&BlockMeta, &[u8]) -> Result<bool>,
) -> Result<()> {
    let mut go_on = true;
    for run in blocks.chunk_by(|a, b| a.rid.page == b.rid.page) {
        if !go_on {
            break;
        }
        let slots = run.iter().map(|m| m.rid.slot);
        heap.visit_slots(pool, run[0].rid.page, slots, |i, bytes| {
            if go_on {
                go_on = f(&run[i], bytes.ok_or(DELETED_PAYLOAD)?)?;
            }
            Ok(())
        })?;
    }
    Ok(())
}

const DELETED_PAYLOAD: StorageError =
    StorageError::Corrupt("block directory points at a deleted record");

/// Run `f` on one payload record's bytes, in place on its page.
fn read_payload(
    heap: &HeapFile,
    pool: &mut BufferPool,
    rid: RecordId,
    mut f: impl FnMut(&[u8]) -> Result<()>,
) -> Result<()> {
    heap.visit_slots(pool, rid.page, [rid.slot], |_, bytes| {
        f(bytes.ok_or(DELETED_PAYLOAD)?)
    })
}

fn meta_for(entries: &[(TupleId, Prob)], rid: RecordId) -> BlockMeta {
    let (tid0, p0) = entries[0];
    BlockMeta {
        sep: posting_key(p0, tid0),
        count: entries.len() as u16,
        max_q: quantize_up(p0),
        rid,
    }
}

/// A seeking cursor over a [`BlockList`]: blocks decode lazily, so a list
/// whose bound never justifies a decode costs no payload reads at all.
pub struct BlockCursor<'a> {
    list: &'a BlockList,
    heap: &'a HeapFile,
    /// Current block index.
    block: usize,
    /// Decoded entries of the current block (stream order) while
    /// `decoded`; stale otherwise, kept for its allocation.
    buf: Vec<(TupleId, Prob)>,
    pos: usize,
    decoded: bool,
    /// Blocks this cursor has decoded (for skip accounting).
    decoded_blocks: u64,
}

impl<'a> BlockCursor<'a> {
    /// Cursor at the head of the list, with nothing decoded yet.
    pub fn open(list: &'a BlockList, heap: &'a HeapFile) -> BlockCursor<'a> {
        BlockCursor {
            list,
            heap,
            block: 0,
            buf: Vec::new(),
            pos: 0,
            decoded: false,
            decoded_blocks: 0,
        }
    }

    /// Whether the cursor is past the last entry.
    fn exhausted(&self) -> bool {
        self.block >= self.list.blocks.len()
    }

    /// What is known about the entry under the cursor without I/O: the
    /// entry itself when its block is decoded, otherwise the block's
    /// quantized-up maximum as a bound. `None` once exhausted.
    pub fn peek(&self) -> Option<CursorHead> {
        if self.exhausted() {
            None
        } else if self.decoded {
            let (tid, p) = self.buf[self.pos];
            Some(CursorHead::Exact { tid, p })
        } else {
            Some(CursorHead::Bound {
                p: dequantize(self.list.blocks[self.block].max_q),
            })
        }
    }

    /// The exact entry under the cursor, decoding the current block if
    /// needed. `decoded_new` reports whether this call decoded a block
    /// (the caller ticks `blocks_decoded`).
    pub fn head(&mut self, pool: &mut BufferPool) -> Result<Option<((TupleId, Prob), bool)>> {
        if self.exhausted() {
            return Ok(None);
        }
        let mut decoded_new = false;
        if !self.decoded {
            let meta = &self.list.blocks[self.block];
            let buf = &mut self.buf;
            read_payload(self.heap, pool, meta.rid, |bytes| {
                decode_block_into(bytes, buf)
            })?;
            // An empty block has no head to return: a directory that
            // claims one is as corrupt as one that miscounts.
            if self.buf.is_empty() || self.buf.len() != meta.count as usize {
                return Err(StorageError::Corrupt(
                    "block count disagrees with its directory",
                ));
            }
            self.pos = 0;
            self.decoded = true;
            self.decoded_blocks += 1;
            decoded_new = true;
        }
        Ok(Some((self.buf[self.pos], decoded_new)))
    }

    /// Step one entry. Crossing a block boundary leaves the next block
    /// undecoded — its [`peek`](BlockCursor::peek) is a bound served from
    /// the directory until [`head`](BlockCursor::head) is forced.
    pub fn advance(&mut self) {
        if self.exhausted() {
            return;
        }
        debug_assert!(self.decoded, "advance past an undecoded head");
        self.pos += 1;
        if self.pos >= self.buf.len() {
            self.block += 1;
            self.pos = 0;
            self.decoded = false;
        }
    }

    /// Blocks this cursor never decoded — charged as `blocks_skipped`
    /// when the search stops (so `blocks_decoded + blocks_skipped` equals
    /// the block count of every opened list).
    pub fn undecoded_blocks(&self) -> u64 {
        self.list.blocks.len() as u64 - self.decoded_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uncat_storage::InMemoryDisk;

    fn stream_sorted(entries: &mut [(TupleId, Prob)]) {
        entries.sort_unstable_by_key(|&(tid, p)| posting_key(p, tid));
    }

    /// The reference the in-place parser must agree with: every tid into
    /// a buffer, the gaps one bit at a time, then the probabilities, then
    /// a sort by posting key. A payload without the packed tag is refused.
    fn decode_block_reference(bytes: &[u8]) -> Result<Vec<(TupleId, Prob)>> {
        let header = bytes.get(..2).ok_or(StorageError::Corrupt("header"))?;
        let word = u16::from_le_bytes([header[0], header[1]]);
        if word & PACKED_TAG == 0 {
            return Err(StorageError::Corrupt("varint"));
        }
        let count = (word & !PACKED_TAG) as usize;
        let mut tids = Vec::new();
        let fixed = bytes.get(2..7).ok_or(StorageError::Corrupt("header"))?;
        let width = fixed[0] as usize;
        if width > 32 {
            return Err(StorageError::Corrupt("width"));
        }
        let gaps = count.saturating_sub(1);
        let bit = |n: usize| -> Result<u64> {
            let byte = bytes.get(7 + n / 8).ok_or(StorageError::Corrupt("gaps"))?;
            Ok((byte >> (n % 8)) as u64 & 1)
        };
        let mut tid = u32::from_le_bytes([fixed[1], fixed[2], fixed[3], fixed[4]]) as u64;
        for i in 0..count {
            if i > 0 {
                let mut gap = 0u64;
                for b in 0..width {
                    gap |= bit((i - 1) * width + b)? << b;
                }
                tid += gap + 1;
            }
            if tid > u32::MAX as u64 {
                return Err(StorageError::Corrupt("tid overflows"));
            }
            tids.push(tid);
        }
        let at = 7 + (gaps * width).div_ceil(8);
        if bytes.len() != at + 4 * count {
            return Err(StorageError::Corrupt("probability area missized"));
        }
        let mut entries = Vec::with_capacity(count);
        for (tid, bits) in tids.into_iter().zip(bytes[at..].chunks_exact(4)) {
            let p = f32::from_le_bytes([bits[0], bits[1], bits[2], bits[3]]);
            if !(p > 0.0 && p <= 1.0) {
                return Err(StorageError::Corrupt("probability out of range"));
            }
            entries.push((tid, p));
        }
        // Not `posting_key`: it debug-asserts 32-bit tids, which a
        // mutated payload need not have.
        entries.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        Ok(entries)
    }

    /// `visit_block`'s entries, or its error.
    fn visited(bytes: &[u8]) -> Result<Vec<(TupleId, Prob)>> {
        let mut seen = Vec::new();
        let n = visit_block(bytes, |tid, p| seen.push((tid, p)))?;
        assert_eq!(n, seen.len(), "returned count is the number of calls");
        Ok(seen)
    }

    fn distinct_entries(raw: Vec<(u64, u32)>) -> Vec<(TupleId, Prob)> {
        let mut seen = std::collections::HashSet::new();
        let mut entries: Vec<(TupleId, Prob)> = raw
            .into_iter()
            .filter(|&(tid, _)| seen.insert(tid))
            .map(|(tid, q)| (tid, q as f32 / PROB_SCALE as f32))
            .collect();
        stream_sorted(&mut entries);
        entries
    }

    #[test]
    fn quantization_rounds_up_and_dominates() {
        for p in [1e-7f32, 1e-4, 0.1, 0.25, 0.5, 0.999, 1.0, 1.0 / 3.0, 0.7] {
            let q = quantize_up(p);
            assert!(dequantize(q) >= p as f64, "p={p} q={q}");
            if q > 1 {
                assert!(dequantize(q - 1) < p as f64, "q not minimal for p={p}: {q}");
            }
        }
        assert_eq!(quantize_up(1.0), PROB_SCALE as u16);
    }

    /// `n` entries `stride` ids apart from `base`, in stream order.
    fn strided(base: u64, stride: u64, n: usize) -> Vec<(TupleId, Prob)> {
        let mut entries: Vec<(TupleId, Prob)> = (0..n as u64)
            .map(|i| base + i * stride)
            .map(|tid| (tid, ((tid * 7919) % 1000 + 1) as f32 / 1000.0))
            .collect();
        stream_sorted(&mut entries);
        entries
    }

    #[test]
    fn codec_roundtrips_edge_blocks() {
        // Empty, single entry, maximal tid gap, boundary probabilities.
        let cases: Vec<Vec<(TupleId, Prob)>> = vec![
            vec![],
            vec![(0, 1.0)],
            vec![(u32::MAX as u64, f32::MIN_POSITIVE)],
            vec![(0, 0.5), (u32::MAX as u64, 0.5)],
            vec![(7, 1.0), (3, 0.25), (9, 0.25), (1, 1.0 / 65535.0)],
        ];
        for mut entries in cases {
            stream_sorted(&mut entries);
            let bytes = encode_block(&entries);
            assert_eq!(decode_block(&bytes).unwrap(), entries);
        }
        // The widths at both ends — consecutive ids take no gap bits at
        // all, the two ends of the id space take 32 — at the counts around
        // a block's split point, up against the top of the id space.
        let top = u32::MAX as u64;
        for n in [0usize, 1, 2, 255, 256, 257] {
            for (entries, width) in [
                (strided(0, 1, n), 0),
                (strided(top + 1 - n as u64, 1, n), 0),
                (strided(5, 3, n), 2),
                (strided(0, top, n.min(2)), 32),
            ] {
                let bytes = encode_block(&entries);
                assert_eq!(bytes[1] & 0x80, 0x80, "every block written is packed");
                if entries.len() >= 2 {
                    assert_eq!(bytes[2], width, "n={n}");
                }
                let gap_bytes = (entries.len().saturating_sub(1) * bytes[2] as usize).div_ceil(8);
                assert_eq!(bytes.len(), 7 + gap_bytes + 4 * entries.len());
                assert_eq!(
                    decode_block(&bytes).unwrap(),
                    entries,
                    "n={n} width={width}"
                );
                assert_eq!(decode_block_reference(&bytes).unwrap(), entries);
            }
        }
    }

    /// The varint layout still decodes — in `upgrade`'s reader, the one
    /// place that parses it — and every query-path decoder refuses it
    /// with an error that names the command. (`tests/upgrade.rs` takes
    /// whole varint lists over the 32-bit id space through `upgrade`.)
    #[test]
    fn legacy_varint_payloads_still_decode() {
        use crate::legacy::decode_varint;
        let refused = StorageError::Corrupt(
            "posting block in the retired varint layout: run `uncat upgrade`",
        );
        for (shipped, entries) in [
            // The bytes docs/FORMAT.md walks through.
            (
                vec![2, 0, 2, 5, 0, 0, 0x80, 0x3E, 0, 0, 0x40, 0x3F],
                vec![(7, 0.75), (2, 0.25)],
            ),
            (vec![0, 0], vec![]),
            // The largest tid: five LEB128 bytes.
            (
                [
                    &[1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F][..],
                    &1f32.to_le_bytes(),
                ]
                .concat(),
                vec![(u32::MAX as u64, 1.0)],
            ),
        ] {
            assert_eq!(decode_varint(&shipped).unwrap(), entries);
            assert_eq!(visited(&shipped), Err(refused.clone()));
            assert_eq!(decode_block(&shipped), Err(refused.clone()));
        }
        // One past the 32-bit id space, and a delta that does not advance.
        let over = [
            &[1, 0, 0x80, 0x80, 0x80, 0x80, 0x10][..],
            &1f32.to_le_bytes(),
        ]
        .concat();
        assert!(decode_varint(&over).is_err());
        let stuck = [2, 0, 5, 0, 0, 0, 0x80, 0x3E, 0, 0, 0x80, 0x3E];
        assert!(decode_varint(&stuck).is_err());
    }

    #[test]
    fn a_hostile_count_or_width_is_refused_before_anything_is_sized_from_it() {
        // The largest count and width the header can name, over a body
        // that holds neither: an error, and a buffer the slice bounds.
        let mut hostile = vec![0xFF, 0xFF, 32, 0, 0, 0, 0];
        hostile.extend_from_slice(&[0x3F; 64]);
        for width in [0u8, 1, 32, 33, 255] {
            hostile[2] = width;
            let mut entries = Vec::new();
            assert!(
                decode_block_into(&hostile, &mut entries).is_err(),
                "width {width}"
            );
            assert!(entries.capacity() <= hostile.len(), "width {width}");
            assert!(visited(&hostile).is_err());
        }
        // A width past 32 is refused even where the lengths would agree.
        let mut wide = encode_block(&strided(0, u32::MAX as u64, 2));
        assert_eq!(wide[2], 32);
        wide[2] = 40;
        wide.push(0);
        assert!(decode_block(&wide).is_err());
        // A last gap that carries the ids past 32 bits.
        let mut over = encode_block(&strided(u32::MAX as u64 - 4, 2, 3));
        assert_eq!(over[2], 1);
        assert!(decode_block(&over).is_ok());
        over[3..7].copy_from_slice(&(u32::MAX - 3).to_le_bytes());
        assert_eq!(
            decode_block(&over),
            Err(StorageError::Corrupt("posting block tid overflows"))
        );
        // The retired tag with a count nothing backs.
        assert!(decode_block(&[0xFF, 0x7F]).is_err());
    }

    #[test]
    fn corrupt_payloads_are_typed_errors() {
        assert!(decode_block(&[]).is_err());
        assert!(decode_block(&[5, 0]).is_err(), "count with no entries");
        let good = encode_block(&[(1, 0.5), (2, 0.25)]);
        assert!(decode_block(&good[..good.len() - 1]).is_err(), "truncated");
        let mut long = good.clone();
        long.push(0);
        assert!(decode_block(&long).is_err(), "trailing bytes");
        // A zero probability cannot appear in a posting list.
        let mut zero_p = encode_block(&[(1, 0.5)]);
        let n = zero_p.len();
        zero_p[n - 4..].copy_from_slice(&0f32.to_bits().to_le_bytes());
        assert!(decode_block(&zero_p).is_err());
    }

    #[test]
    fn an_empty_block_under_a_zero_count_entry_is_corrupt_not_a_panic() {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 8);
        let mut heap = HeapFile::new();
        let rid = heap.insert(&mut pool, &encode_block(&[])).unwrap();
        let meta = BlockMeta {
            sep: posting_key(1.0, 0),
            count: 0,
            max_q: quantize_up(1.0),
            rid,
        };
        let list = BlockList::from_raw_parts(vec![meta], 0);
        let mut cur = BlockCursor::open(&list, &heap);
        assert!(matches!(cur.head(&mut pool), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn build_packs_blocks_and_mutations_keep_order() {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
        let mut heap = HeapFile::new();
        let mut entries: Vec<(TupleId, Prob)> = (0..300u64)
            .map(|t| (t, 1.0 - (t as f32 + 1.0) / 512.0))
            .collect();
        stream_sorted(&mut entries);
        let mut list = BlockList::build(&mut heap, &mut pool, &entries).unwrap();
        assert_eq!(list.len(), 300);
        assert_eq!(list.blocks().len(), 3);
        for b in list.blocks() {
            assert!(b.count as usize <= BLOCK_TARGET);
        }

        // Insert at the front (new maximum), middle, and back.
        list.insert(&mut heap, &mut pool, 1000, 1.0).unwrap();
        list.insert(&mut heap, &mut pool, 1001, 0.6).unwrap();
        list.insert(&mut heap, &mut pool, 1002, 1e-6).unwrap();
        assert!(list.remove(&mut heap, &mut pool, 1001, 0.6).unwrap());
        assert!(!list.remove(&mut heap, &mut pool, 1001, 0.6).unwrap());

        // Full stream through a cursor is sorted and complete.
        let mut cur = BlockCursor::open(&list, &heap);
        let mut seen = Vec::new();
        while let Some(((tid, p), _)) = cur.head(&mut pool).unwrap() {
            seen.push((tid, p));
            cur.advance();
        }
        assert_eq!(seen.len(), 302);
        assert_eq!(seen[0], (1000, 1.0));
        assert_eq!(seen.last().copied().unwrap(), (1002, 1e-6));
        for w in seen.windows(2) {
            assert!(
                posting_key(w[0].1, w[0].0) < posting_key(w[1].1, w[1].0),
                "stream order violated: {w:?}"
            );
        }
        assert_eq!(cur.undecoded_blocks(), 0);
    }

    #[test]
    fn splitting_keeps_separators_exact() {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
        let mut heap = HeapFile::new();
        let mut list = BlockList::new();
        for t in 0..(BLOCK_SPLIT as u64 + 50) {
            let p = 0.9 - (t as f32) * 1e-3;
            list.insert(&mut heap, &mut pool, t, p).unwrap();
        }
        assert!(list.blocks().len() >= 2, "split must have happened");
        let mut cur = BlockCursor::open(&list, &heap);
        let mut n = 0u64;
        let mut block_starts: Vec<(TupleId, Prob)> = Vec::new();
        let mut at_start = true;
        while let Some(((tid, p), decoded_new)) = cur.head(&mut pool).unwrap() {
            if decoded_new || at_start {
                block_starts.push((tid, p));
                at_start = false;
            }
            n += 1;
            cur.advance();
        }
        assert_eq!(n, list.len());
        for (meta, &(tid, p)) in list.blocks().iter().zip(&block_starts) {
            assert_eq!(meta.sep, posting_key(p, tid), "separator must be exact");
            assert!(dequantize(meta.max_q) >= p as f64);
        }
    }

    /// Regression for the leak behind "`ingest_mix`'s page file grows
    /// 160 → 730 pages in one window": every mutation used to tombstone
    /// the block's payload and insert a new one, and the heap never
    /// reclaims. Rewritten in place, a long run of mutations keeps the
    /// block heap within 2× of a fresh build of the same content.
    #[test]
    fn alternating_mutations_do_not_leak_payload_pages() {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 256);
        let mut heap = HeapFile::new();
        let prob = |t: u64| ((t * 37) % 997 + 1) as f32 / 1000.0;
        let mut lists: Vec<BlockList> = Vec::new();
        let mut live: Vec<Vec<(TupleId, Prob)>> = Vec::new();
        for l in 0..3u64 {
            let mut entries: Vec<(TupleId, Prob)> =
                (0..1500u64).map(|t| (3 * t + l, prob(3 * t + l))).collect();
            stream_sorted(&mut entries);
            lists.push(BlockList::build(&mut heap, &mut pool, &entries).unwrap());
            live.push(entries);
        }
        let mut next = 10_000u64;
        for step in 0..5000usize {
            let l = step % 3;
            if step % 2 == 0 {
                next += 1;
                lists[l]
                    .insert(&mut heap, &mut pool, next, prob(next))
                    .unwrap();
                live[l].push((next, prob(next)));
            } else {
                let victim = (step * 7919) % live[l].len();
                let (tid, p) = live[l].swap_remove(victim);
                assert!(lists[l].remove(&mut heap, &mut pool, tid, p).unwrap());
            }
        }
        let mut fresh_heap = HeapFile::new();
        for (list, entries) in lists.iter().zip(&mut live) {
            stream_sorted(entries);
            let mut streamed = Vec::new();
            let mut cur = BlockCursor::open(list, &heap);
            while let Some((e, _)) = cur.head(&mut pool).unwrap() {
                streamed.push(e);
                cur.advance();
            }
            assert_eq!(&streamed, entries, "mutations kept the stream exact");
            BlockList::build(&mut fresh_heap, &mut pool, entries).unwrap();
        }
        assert!(
            heap.num_pages() <= 2 * fresh_heap.num_pages(),
            "{} pages after 5000 mutations, {} freshly built",
            heap.num_pages(),
            fresh_heap.num_pages()
        );
    }

    #[test]
    fn for_each_payload_reads_each_page_once_and_stops_on_request() {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
        let mut heap = HeapFile::new();
        let mut entries: Vec<(TupleId, Prob)> = (0..4000u64)
            .map(|t| (t, 1.0 - (t as f32 + 1.0) / 4096.0))
            .collect();
        stream_sorted(&mut entries);
        let list = BlockList::build(&mut heap, &mut pool, &entries).unwrap();
        assert!(heap.num_pages() >= 3 && list.blocks().len() > heap.num_pages());
        pool.reset_stats();
        let mut seen = 0usize;
        list.for_each_payload(&heap, &mut pool, |meta, bytes| {
            assert_eq!(visit_block(bytes, |_, _| {})?, meta.count as usize);
            seen += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen, list.blocks().len());
        assert_eq!(pool.stats().logical_reads, heap.num_pages() as u64);
        // Stopping mid-run visits nothing further and reads no later page.
        pool.reset_stats();
        let mut seen = 0usize;
        list.for_each_payload(&heap, &mut pool, |_, _| {
            seen += 1;
            Ok(seen < 2)
        })
        .unwrap();
        assert_eq!(seen, 2);
        assert_eq!(pool.stats().logical_reads, 1);
    }

    /// Blocks over the whole 32-bit id space in the shapes that set the
    /// gap width: scattered ids (wide), runs of consecutive ids (width 0),
    /// even strides, both ends of the space at once (width 32) — at any
    /// count up to a block past its split point, and at the counts around
    /// it.
    fn block_strategy() -> impl Strategy<Value = Vec<(TupleId, Prob)>> {
        (
            (0u32..5, 0usize..8),
            0u64..=u32::MAX as u64,
            1u64..70_000,
            proptest::collection::vec((0u64..=u32::MAX as u64, 1u32..=PROB_SCALE), 0..260),
        )
            .prop_map(|((shape, pick), base, stride, raw)| {
                let n = [0, 1, 2, 256, 257, raw.len(), raw.len(), raw.len()][pick];
                let room = u32::MAX as u64 - base;
                match shape {
                    0 => distinct_entries(raw),
                    1 => strided(base.min(u32::MAX as u64 - 260), 1, n),
                    2 => strided(
                        base,
                        stride.min(room / 260).max(1),
                        n.min(room as usize + 1),
                    ),
                    3 => distinct_entries(
                        raw.into_iter()
                            .chain([(0, 1), (u32::MAX as u64, PROB_SCALE)])
                            .collect(),
                    ),
                    // A dense neighbourhood, the usual block of a long list.
                    _ => distinct_entries(
                        raw.into_iter()
                            .map(|(t, q)| (base.min(u32::MAX as u64 - 4096) + t % 4096, q))
                            .collect(),
                    ),
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::proptest_cases(64)))]

        // The in-place parser against the buffered reference: the same
        // entries (as a multiset — the visit is in storage order) for a
        // valid payload, and the same accept/reject verdict from the
        // visitor, the public decoder and the reference — and the same
        // entries where they accept — for every byte of it replaced by
        // another and for three single-bit flips of every byte. A flip of
        // the tag bit must be refused by all three.
        #[test]
        fn visit_block_agrees_with_the_reference_decoder(
            mut entries in block_strategy(),
            flip in 1u8..=255,
            bits in (0u32..8, 0u32..8, 0u32..8),
        ) {
            entries.truncate(48);
            let bytes = encode_block(&entries);
            let mut seen = visited(&bytes).unwrap();
            prop_assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "storage order");
            stream_sorted(&mut seen);
            prop_assert_eq!(&seen, &entries);
            prop_assert_eq!(decode_block_reference(&bytes).unwrap(), entries);
            for i in 0..bytes.len() {
                for mask in [flip, 1 << bits.0, 1 << bits.1, 1 << bits.2] {
                    let mut bad = bytes.clone();
                    bad[i] ^= mask;
                    let reference = decode_block_reference(&bad);
                    prop_assert_eq!(
                        visited(&bad).is_ok(), reference.is_ok(), "byte {} ^ {:#x}", i, mask
                    );
                    match (decode_block(&bad), reference) {
                        (Ok(got), Ok(want)) => {
                            prop_assert_eq!(got, want, "byte {} ^ {:#x}", i, mask)
                        }
                        (got, want) => {
                            prop_assert_eq!(got.is_ok(), want.is_ok(), "byte {} ^ {:#x}", i, mask)
                        }
                    }
                }
            }
        }

        // Round trip over the whole id range and every gap width.
        #[test]
        fn codec_roundtrip(entries in block_strategy()) {
            let bytes = encode_block(&entries);
            prop_assert_eq!(bytes.len(), {
                let gap_bits = entries.len().saturating_sub(1) * bytes[2] as usize;
                7 + gap_bits.div_ceil(8) + 4 * entries.len()
            });
            prop_assert!(bytes[2] <= 32);
            let back = decode_block(&bytes).unwrap();
            prop_assert_eq!(&back, &entries);
        }

        // Every decoded probability is dominated by the block's
        // quantized-up maximum — the invariant block-max pruning needs.
        #[test]
        fn decoded_p_never_exceeds_block_max(raw in proptest::collection::vec(
            (0u64..=u32::MAX as u64, 1u32..=u32::MAX), 1..150)
        ) {
            let mut entries: Vec<(TupleId, Prob)> = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for (tid, bits) in raw {
                // Spread probabilities across (0, 1] including values that
                // straddle quantization boundaries.
                let p = (bits as f64 / u32::MAX as f64) as f32;
                let p = p.clamp(f32::MIN_POSITIVE, 1.0);
                if seen.insert(tid) {
                    entries.push((tid, p));
                }
            }
            stream_sorted(&mut entries);
            let max_q = quantize_up(entries[0].1);
            for &(_, p) in decode_block(&encode_block(&entries)).unwrap().iter() {
                prop_assert!(p as f64 <= dequantize(max_q));
            }
        }
    }
}
