//! Posting-list key encoding, the two physical list formats, and the
//! cursor adapters the search strategies consume.
//!
//! A posting entry `(tid, p)` is keyed by the 8 bytes
//! `f32_desc(p) ‖ u32_be(tid)`: ascending key order is descending
//! probability, ties by ascending tuple id — exactly the order the
//! search strategies consume (the *stream order*). Two physical layouts
//! produce that stream:
//!
//! * [`PostingList::Tree`] — raw pairs as zero-value B+tree keys
//!   (`UIV1`, the original format),
//! * [`PostingList::Blocks`] — compressed blocks with a quantized-up
//!   per-block maximum enabling block-max pruning (`UIV2`, the default;
//!   see [`crate::block`]).
//!
//! [`ListCursor`] unifies the two for frontier searches. Its head is
//! either *exact* (the entry is materialized) or a *bound* (only the
//! block's quantized maximum is known — an upper bound on the head's
//! probability, obtained without decoding). Counting convention:
//! `postings_scanned` ticks once per entry *materialized*, so block
//! lists whose blocks are never decoded contribute zero, and
//! `blocks_decoded`/`blocks_skipped` partition every opened block list.

use std::ops::ControlFlow;

use uncat_core::{Prob, TupleId};
use uncat_storage::btree::keys::{concat, f32_desc, f32_from_desc, u32_be, u32_from_be};
use uncat_storage::btree::{BTree, Cursor};
use uncat_storage::{BufferPool, HeapFile, QueryMetrics, Result, StorageError};

use crate::block::{dequantize, visit_block, BlockCursor, BlockList, BlockMeta};

/// Width of a posting key in bytes.
pub const KEY_LEN: usize = 8;

/// The B+tree type backing one posting list.
pub type PostingTree = BTree<KEY_LEN, 0>;

/// Encode a posting key.
pub fn posting_key(prob: Prob, tid: TupleId) -> [u8; KEY_LEN] {
    debug_assert!(
        tid <= u32::MAX as u64,
        "posting lists address tuples with 32-bit ids"
    );
    concat(f32_desc(prob), u32_be(tid as u32))
}

/// Decode a posting key into `(prob, tid)`.
pub fn decode_posting(key: &[u8; KEY_LEN]) -> (Prob, TupleId) {
    (f32_from_desc(&key[..4]), u32_from_be(&key[4..]) as TupleId)
}

/// A cursor over one posting list, streaming `(tid, prob)` by descending
/// probability.
pub struct PostingCursor {
    inner: Cursor<KEY_LEN, 0>,
}

impl PostingCursor {
    /// Cursor over a whole posting list from its highest probability.
    pub fn open(tree: &PostingTree, pool: &mut BufferPool) -> Result<PostingCursor> {
        Ok(PostingCursor {
            inner: tree.cursor_first(pool)?,
        })
    }

    /// Entry under the cursor: `(tid, prob)`.
    pub fn head(&self, pool: &mut BufferPool) -> Result<Option<(TupleId, Prob)>> {
        Ok(self.inner.entry(pool)?.map(|(k, _)| {
            let (p, tid) = decode_posting(&k);
            (tid, p)
        }))
    }

    /// Advance one entry.
    pub fn advance(&mut self, pool: &mut BufferPool) -> Result<()> {
        self.inner.advance(pool)
    }
}

/// One category's posting list in either physical format.
pub enum PostingList {
    /// Raw `(tid, p)` pairs as B+tree keys (snapshot format `UIV1`).
    Tree(PostingTree),
    /// Compressed, skippable blocks (snapshot format `UIV2`).
    Blocks(BlockList),
}

impl PostingList {
    /// Total posting entries.
    pub fn len(&self) -> u64 {
        match self {
            PostingList::Tree(t) => t.len(),
            PostingList::Blocks(b) => b.len(),
        }
    }

    /// Visit every entry, in no promised order (the raw tree streams by
    /// descending probability; block lists go block by block in stream
    /// order and by ascending tid inside a block — every caller
    /// aggregates per tuple id, and none reads the order). Ticks
    /// `postings_scanned` per entry; block lists also tick
    /// `blocks_decoded` per block — a full scan decodes everything, so
    /// both formats count identically on the entries axis — and read each
    /// payload page once per run of blocks on it.
    pub fn scan_all(
        &self,
        block_heap: &HeapFile,
        pool: &mut BufferPool,
        metrics: &mut QueryMetrics,
        mut f: impl FnMut(TupleId, Prob),
    ) -> Result<()> {
        match self {
            PostingList::Tree(tree) => tree.scan_all(pool, |key, _| {
                let (p, tid) = decode_posting(key);
                metrics.postings_scanned += 1;
                f(tid, p);
                ControlFlow::Continue(())
            }),
            PostingList::Blocks(list) => list.for_each_payload(block_heap, pool, |meta, bytes| {
                let n = visit_block(bytes, &mut f)?;
                check_count(n, meta)?;
                metrics.blocks_decoded += 1;
                metrics.postings_scanned += n as u64;
                Ok(true)
            }),
        }
    }

    /// Visit the entries with `p ≥ cut` of the list's stream prefix —
    /// column pruning's access pattern — in no promised order (see
    /// [`PostingList::scan_all`]). For the raw tree the terminating entry
    /// ticks `postings_scanned`: the scan has no information besides the
    /// entries themselves, so it must decode one below-cut key to know to
    /// stop. Block lists don't charge it — the boundary falls inside an
    /// already-decoded block — and stop at block granularity too: the
    /// scan ends after the first block holding an entry below `cut`, or
    /// before the first whose quantized-up maximum is below it, and
    /// everything after the stop point is `blocks_skipped` undecoded.
    pub fn scan_prefix(
        &self,
        block_heap: &HeapFile,
        pool: &mut BufferPool,
        cut: f64,
        metrics: &mut QueryMetrics,
        mut f: impl FnMut(TupleId, Prob),
    ) -> Result<()> {
        match self {
            PostingList::Tree(tree) => tree.scan_all(pool, |key, _| {
                let (p, tid) = decode_posting(key);
                metrics.postings_scanned += 1;
                if (p as f64) < cut {
                    return ControlFlow::Break(());
                }
                f(tid, p);
                ControlFlow::Continue(())
            }),
            PostingList::Blocks(list) => {
                let mut decoded = 0u64;
                list.for_each_payload(block_heap, pool, |meta, bytes| {
                    if dequantize(meta.max_q) < cut {
                        // The quantized maximum dominates every entry in
                        // the block (and in all later blocks).
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
                metrics.blocks_skipped += list.blocks().len() as u64 - decoded;
                Ok(())
            }
        }
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

/// What a [`ListCursor`] knows about the entry under it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CursorHead {
    /// The entry is materialized.
    Exact {
        /// Tuple id under the cursor.
        tid: TupleId,
        /// Exact probability under the cursor.
        p: Prob,
    },
    /// Only an upper bound on the head probability is known (the current
    /// block's quantized-up maximum); the block is not decoded.
    Bound {
        /// Upper bound on the probability under the cursor.
        p: f64,
    },
}

/// A cursor over either list format, streaming heads for the frontier
/// searches. Tree cursors always expose exact heads; block cursors
/// expose bounds until a decode is forced.
pub enum ListCursor<'a> {
    /// Cursor over a raw B+tree list.
    Tree(PostingCursor),
    /// Lazily decoding cursor over a block list.
    Blocks(BlockCursor<'a>),
}

impl<'a> ListCursor<'a> {
    /// Open a cursor and return the first head. Tree heads are exact and
    /// tick `postings_scanned`; block heads start as bounds, for free.
    pub fn open(
        list: &'a PostingList,
        block_heap: &'a HeapFile,
        pool: &mut BufferPool,
        metrics: &mut QueryMetrics,
    ) -> Result<(ListCursor<'a>, Option<CursorHead>)> {
        match list {
            PostingList::Tree(tree) => {
                let cur = PostingCursor::open(tree, pool)?;
                let head = cur.head(pool)?.map(|(tid, p)| {
                    metrics.postings_scanned += 1;
                    CursorHead::Exact { tid, p }
                });
                Ok((ListCursor::Tree(cur), head))
            }
            PostingList::Blocks(blocks) => {
                let cur = BlockCursor::open(blocks, block_heap);
                let head = cur.bound().map(|p| CursorHead::Bound { p });
                Ok((ListCursor::Blocks(cur), head))
            }
        }
    }

    /// Materialize the entry under the cursor, decoding its block if
    /// needed (ticking `blocks_decoded`, and `postings_scanned` for the
    /// newly materialized entry). `None` iff the cursor is exhausted.
    pub fn force(
        &mut self,
        pool: &mut BufferPool,
        metrics: &mut QueryMetrics,
    ) -> Result<Option<(TupleId, Prob)>> {
        match self {
            ListCursor::Tree(cur) => cur.head(pool),
            ListCursor::Blocks(cur) => {
                let Some(((tid, p), decoded_new)) = cur.head(pool)? else {
                    return Ok(None);
                };
                if decoded_new {
                    metrics.blocks_decoded += 1;
                    metrics.postings_scanned += 1;
                }
                Ok(Some((tid, p)))
            }
        }
    }

    /// Step one entry and return the new head. An exact new head ticks
    /// `postings_scanned`; a block-boundary crossing yields a bound head
    /// without I/O.
    pub fn advance(
        &mut self,
        pool: &mut BufferPool,
        metrics: &mut QueryMetrics,
    ) -> Result<Option<CursorHead>> {
        match self {
            ListCursor::Tree(cur) => {
                cur.advance(pool)?;
                Ok(cur.head(pool)?.map(|(tid, p)| {
                    metrics.postings_scanned += 1;
                    CursorHead::Exact { tid, p }
                }))
            }
            ListCursor::Blocks(cur) => {
                cur.advance();
                if let Some((tid, p)) = cur.exact_head() {
                    metrics.postings_scanned += 1;
                    Ok(Some(CursorHead::Exact { tid, p }))
                } else {
                    Ok(cur.bound().map(|p| CursorHead::Bound { p }))
                }
            }
        }
    }

    /// Charge this cursor's never-decoded blocks as skipped. Call once
    /// when the search stops consuming the cursor, so that
    /// `blocks_decoded + blocks_skipped` covers every opened list.
    pub fn account_skips(&self, metrics: &mut QueryMetrics) {
        if let ListCursor::Blocks(cur) = self {
            metrics.blocks_skipped += cur.undecoded_blocks();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncat_storage::{BufferPool, InMemoryDisk};

    #[test]
    fn key_roundtrip() {
        for (p, tid) in [(1.0f32, 0u64), (0.5, 42), (1e-4, 4_000_000_000)] {
            let k = posting_key(p, tid);
            assert_eq!(decode_posting(&k), (p, tid));
        }
    }

    #[test]
    fn keys_sort_by_descending_probability() {
        let hi = posting_key(0.9, 100);
        let lo = posting_key(0.1, 1);
        assert!(hi < lo, "higher probability must sort first");
        let a = posting_key(0.5, 1);
        let b = posting_key(0.5, 2);
        assert!(a < b, "ties break by ascending tid");
    }

    #[test]
    fn cursor_streams_descending() {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 32);
        let mut tree = PostingTree::create(&mut pool).unwrap();
        let probs = [0.3f32, 0.9, 0.1, 0.5, 0.7];
        for (tid, &p) in probs.iter().enumerate() {
            tree.insert(&mut pool, &posting_key(p, tid as u64), &[])
                .unwrap();
        }
        let mut c = PostingCursor::open(&tree, &mut pool).unwrap();
        let mut seen = Vec::new();
        while let Some((tid, p)) = c.head(&mut pool).unwrap() {
            seen.push((tid, p));
            c.advance(&mut pool).unwrap();
        }
        assert_eq!(
            seen,
            vec![(1, 0.9), (4, 0.7), (3, 0.5), (0, 0.3), (2, 0.1)],
            "cursor must stream by descending probability"
        );
    }
}
