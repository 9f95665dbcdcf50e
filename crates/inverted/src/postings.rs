//! Posting-list key encoding and the head a frontier cursor exposes.
//!
//! A posting entry `(tid, p)` is keyed by the 8 bytes
//! `f32_desc(p) ‖ u32_be(tid)`: ascending key order is descending
//! probability, ties by ascending tuple id — exactly the order the
//! search strategies consume (the *stream order*). Lists are stored as
//! compressed blocks ([`crate::block`]); the key is what a block
//! directory's separators and mutation placement compare.
//!
//! A cursor's head ([`CursorHead`]) is either *exact* (the entry is
//! materialized) or a *bound* (only the block's quantized maximum is
//! known — an upper bound on the head's probability, obtained without
//! decoding). Counting convention: `postings_scanned` ticks once per
//! entry *materialized*, so blocks that are never decoded contribute
//! zero, and `blocks_decoded`/`blocks_skipped` partition every opened
//! list.

use uncat_core::{Prob, TupleId};
use uncat_storage::btree::keys::{concat, f32_desc, f32_from_desc, u32_be, u32_from_be};

/// Width of a posting key in bytes.
pub const KEY_LEN: usize = 8;

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

/// Sorted keys as the `(tid, p)` entries a block list is built from.
pub(crate) fn entries_of(keys: &[[u8; KEY_LEN]]) -> Vec<(TupleId, Prob)> {
    keys.iter()
        .map(|k| {
            let (p, tid) = decode_posting(k);
            (tid, p)
        })
        .collect()
}

/// What a cursor knows about the entry under it.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockCursor, BlockList};
    use uncat_storage::{BufferPool, HeapFile, InMemoryDisk};

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
        let mut heap = HeapFile::new();
        let mut list = BlockList::new();
        let probs = [0.3f32, 0.9, 0.1, 0.5, 0.7];
        for (tid, &p) in probs.iter().enumerate() {
            list.insert(&mut heap, &mut pool, tid as u64, p).unwrap();
        }
        let mut c = BlockCursor::open(&list, &heap);
        assert_eq!(
            c.peek(),
            Some(CursorHead::Bound {
                p: crate::block::dequantize(crate::block::quantize_up(0.9))
            }),
            "an undecoded head is its block's bound"
        );
        let mut seen = Vec::new();
        while let Some((entry, _)) = c.head(&mut pool).unwrap() {
            assert_eq!(
                c.peek(),
                Some(CursorHead::Exact {
                    tid: entry.0,
                    p: entry.1
                })
            );
            seen.push(entry);
            c.advance();
        }
        assert_eq!(c.peek(), None);
        assert_eq!(
            seen,
            vec![(1, 0.9), (4, 0.7), (3, 0.5), (0, 0.3), (2, 0.1)],
            "cursor must stream by descending probability"
        );
    }
}
