//! Metadata snapshots: close an inverted index and reopen it later over
//! the same (durable) page store.
//!
//! Page contents — block payloads and tuple records — live in the store
//! and are durable by themselves (e.g. behind a
//! [`uncat_storage::FileDisk`]). What must be remembered across a restart
//! is the in-memory metadata: the posting directory, the heap page
//! lists, and the tuple-id → record map. [`InvertedIndex::snapshot`]
//! serializes exactly that; the blob is small (tens of bytes per
//! category plus ~18 bytes per tuple plus 22 bytes per posting block).
//! The crash-atomic snapshot file protocol (`uncat_storage::snapshot`'s
//! `commit` and `load`) puts it on disk: a torn or corrupted commit is
//! detected on load and the previous file survives untouched.
//!
//! The snapshot is `UIV2` (byte-level spec in `docs/FORMAT.md` §10): the
//! tuple store's parts, the block heap's page list and, per category, the
//! block directory (separator key, count, quantized maximum, payload
//! record). [`InvertedIndex::open`] refuses the `UIV1` snapshots of the
//! retired raw B+tree layout with an error naming `uncat upgrade`, which
//! converts them ([`crate::upgrade`]).

use std::collections::BTreeMap;

use uncat_core::{CatId, Domain};
use uncat_storage::snapshot::{read_domain_parts, write_domain_parts, Reader, Writer};
use uncat_storage::{HeapFile, RecordId, Result, StorageError};

use crate::block::{BlockList, BlockMeta};
use crate::index::InvertedIndex;
use crate::postings::KEY_LEN;
use crate::tid::TidMap;

/// The retired raw-list snapshot, read only by [`crate::upgrade`].
pub(crate) const MAGIC_V1: &[u8; 4] = b"UIV1";
const MAGIC_V2: &[u8; 4] = b"UIV2";

/// Bytes per serialized rid-map entry (tid + page + slot); used to clamp
/// pre-allocation against the bytes actually present.
const RID_ENTRY_LEN: usize = 8 + 8 + 2;

/// Bytes per serialized block directory entry
/// (sep + count + max_q + page + slot).
const BLOCK_META_LEN: usize = 8 + 2 + 2 + 8 + 2;

/// Serialize a domain (labels or anonymous cardinality).
pub(crate) fn write_domain(w: &mut Writer, d: &Domain) {
    let labels = d.is_labeled().then(|| d.labels());
    write_domain_parts(w, d.size(), labels);
}

pub(crate) fn read_domain(r: &mut Reader<'_>) -> Result<Domain> {
    let (size, labels) = read_domain_parts(r)?;
    Ok(match labels {
        Some(l) => Domain::from_labels(l),
        None => Domain::anonymous(size),
    })
}

impl InvertedIndex {
    /// Serialize the index's metadata as `UIV2`. Pair with a flushed
    /// store: call `pool.flush()` first so every page this metadata
    /// references is durable.
    ///
    /// The blob carries the planner's cost-statistics section after the
    /// posting directory; readers treat it as optional, so pre-stats
    /// snapshots keep loading (stats are then rebuilt lazily — see
    /// `docs/FORMAT.md` §10).
    pub fn snapshot(&self) -> Vec<u8> {
        self.snapshot_inner(true)
    }

    /// [`InvertedIndex::snapshot`] without the cost-statistics section —
    /// the pre-stats `UIV2` byte layout. Exists so compatibility tests
    /// can exercise the lazy-rebuild path against snapshots produced by
    /// older builds; not for production use.
    #[doc(hidden)]
    pub fn snapshot_without_stats(&self) -> Vec<u8> {
        self.snapshot_inner(false)
    }

    fn snapshot_inner(&self, with_stats: bool) -> Vec<u8> {
        let mut w = Writer::new(MAGIC_V2);
        write_domain(&mut w, self.domain());

        let (heap_pages, records) = self.heap_parts();
        w.u32(heap_pages.len() as u32);
        for &p in heap_pages {
            w.pid(p);
        }
        w.u64(records);

        // The live map is hashed; serialize in tid order so identical
        // indexes produce identical bytes (save → load → save is the
        // identity, which persistence tests pin).
        let rids = self.rid_map();
        let mut ordered: Vec<(&u64, &RecordId)> = rids.iter().collect();
        ordered.sort_unstable_by_key(|(tid, _)| **tid);
        w.u64(ordered.len() as u64);
        for (&tid, rid) in ordered {
            w.u64(tid);
            w.pid(rid.page);
            w.u16(rid.slot);
        }

        let (block_pages, block_records) = self.block_heap_parts();
        w.u32(block_pages.len() as u32);
        for &p in block_pages {
            w.pid(p);
        }
        w.u64(block_records);

        let postings = self.posting_map();
        w.u32(postings.len() as u32);
        for (cat, list) in postings {
            w.u32(cat.0);
            w.u64(list.len());
            w.u32(list.blocks().len() as u32);
            for b in list.blocks() {
                w.u64(u64::from_be_bytes(b.sep));
                w.u16(b.count);
                w.u16(b.max_q);
                w.pid(b.rid.page);
                w.u16(b.rid.slot);
            }
        }
        if with_stats {
            crate::cost::write_cost_stats(&mut w, self.cost_stats());
        }
        w.finish()
    }

    /// Reattach an index from a snapshot over the same store. A `UIV1`
    /// snapshot is refused with an error naming `uncat upgrade`.
    pub fn open(blob: &[u8]) -> Result<InvertedIndex> {
        if blob.starts_with(MAGIC_V1) {
            return Err(StorageError::Corrupt(
                "UIV1 holds the retired raw posting layout: run `uncat upgrade`",
            ));
        }
        let mut r = Reader::new(blob, MAGIC_V2)?;
        let domain = read_domain(&mut r)?;
        let (heap, rids) = read_store_parts(&mut r)?;

        let n_block_pages = r.u32()? as usize;
        let mut block_pages = Vec::with_capacity(n_block_pages.min(r.remaining() / 8 + 1));
        for _ in 0..n_block_pages {
            block_pages.push(r.pid()?);
        }
        let block_records = r.u64()?;
        let block_heap = HeapFile::from_raw_parts(block_pages, block_records);

        let n_lists = r.u32()? as usize;
        let mut postings: BTreeMap<CatId, BlockList> = BTreeMap::new();
        for _ in 0..n_lists {
            let cat = CatId(r.u32()?);
            let entries = r.u64()?;
            let n_blocks = r.u32()? as usize;
            let mut blocks: Vec<BlockMeta> =
                Vec::with_capacity(n_blocks.min(r.remaining() / BLOCK_META_LEN + 1));
            let mut counted = 0u64;
            for _ in 0..n_blocks {
                let sep: [u8; KEY_LEN] = r.u64()?.to_be_bytes();
                let count = r.u16()?;
                let max_q = r.u16()?;
                let page = r.pid()?;
                let slot = r.u16()?;
                if count == 0 {
                    // Blocks are never written empty; a cursor landing on
                    // one would have no head.
                    return Err(StorageError::Corrupt("empty block in directory"));
                }
                counted += count as u64;
                blocks.push(BlockMeta {
                    sep,
                    count,
                    max_q,
                    rid: RecordId { page, slot },
                });
            }
            if counted != entries {
                return Err(StorageError::Corrupt("block directory counts disagree"));
            }
            postings.insert(cat, BlockList::from_raw_parts(blocks, entries));
        }
        // Optional cost-statistics section: snapshots written before the
        // planner existed end here, and load with statistics rebuilt
        // lazily on first use. When the section is present it must be
        // the last thing in the blob.
        let stats = if r.is_done() {
            None
        } else {
            let stats = crate::cost::read_cost_stats(&mut r)?;
            if !r.is_done() {
                return Err(StorageError::Corrupt("trailing bytes"));
            }
            Some(stats)
        };
        let idx = InvertedIndex::from_parts(domain, postings, heap, block_heap, rids);
        if let Some(stats) = stats {
            idx.preset_cost_stats(stats);
        }
        Ok(idx)
    }
}

/// The tuple-store sections `UIV1` and `UIV2` share: heap page list +
/// record count, then the rid map.
pub(crate) fn read_store_parts(r: &mut Reader<'_>) -> Result<(HeapFile, TidMap<RecordId>)> {
    let n_pages = r.u32()? as usize;
    // Untrusted count: clamp pre-allocation to what the blob can hold.
    let mut pages = Vec::with_capacity(n_pages.min(r.remaining() / 8 + 1));
    for _ in 0..n_pages {
        pages.push(r.pid()?);
    }
    let records = r.u64()?;
    let heap = HeapFile::from_raw_parts(pages, records);

    let n_rids = r.u64()? as usize;
    let mut rids: TidMap<RecordId> = TidMap::with_capacity_and_hasher(
        n_rids.min(r.remaining() / RID_ENTRY_LEN + 1),
        Default::default(),
    );
    for _ in 0..n_rids {
        let tid = r.u64()?;
        let page = r.pid()?;
        let slot = r.u16()?;
        rids.insert(tid, RecordId { page, slot });
    }
    Ok((heap, rids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncat_core::query::EqQuery;
    use uncat_core::Uda;
    use uncat_storage::{snapshot, BufferPool, FileDisk, InMemoryDisk, PageId};

    fn uda(pairs: &[(u32, f32)]) -> Uda {
        Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
    }

    #[test]
    fn snapshot_roundtrip_preserves_queries() {
        let store = InMemoryDisk::shared();
        let data: Vec<(u64, Uda)> = (0..300u64)
            .map(|i| {
                let c = (i % 7) as u32;
                (i, uda(&[(c, 0.6), ((c + 1) % 7, 0.4)]))
            })
            .collect();
        let blob = {
            let mut pool = BufferPool::with_capacity(store.clone(), 100);
            let idx = InvertedIndex::build(
                Domain::anonymous(7),
                &mut pool,
                data.iter().map(|(t, u)| (*t, u)),
            )
            .unwrap();
            pool.flush().unwrap();
            idx.snapshot()
        };
        assert!(blob.starts_with(MAGIC_V2), "default build snapshots as v2");

        let reopened = InvertedIndex::open(&blob).expect("snapshot decodes");
        assert_eq!(reopened.len(), 300);
        assert_eq!(
            reopened.tid_span(),
            300,
            "not stored: one past the largest id"
        );
        let mut pool = BufferPool::with_capacity(store, 100);
        let q = EqQuery::new(uda(&[(0, 1.0)]), 0.3);
        let out = reopened.petq(&mut pool, &q, crate::Strategy::Nra).unwrap();
        assert!(!out.is_empty());
        for m in &out {
            let t = reopened
                .get_tuple(&mut pool, m.tid)
                .unwrap()
                .expect("tuple readable");
            assert!((uncat_core::equality::eq_prob(&q.q, &t) - m.score).abs() < 1e-9);
        }
        assert!(reopened.check_invariants(&mut pool).unwrap() == 300);
    }

    #[test]
    fn snapshot_roundtrip_with_labeled_domain() {
        let store = InMemoryDisk::shared();
        let domain = Domain::from_labels(["Brake", "Tires"]);
        let blob = {
            let mut pool = BufferPool::with_capacity(store.clone(), 16);
            let mut idx = InvertedIndex::new(domain);
            idx.insert(&mut pool, 1, &uda(&[(0, 1.0)])).unwrap();
            pool.flush().unwrap();
            idx.snapshot()
        };
        let reopened = InvertedIndex::open(&blob).expect("snapshot decodes");
        assert_eq!(reopened.domain().label_of(CatId(1)), Some("Tires"));
        assert_eq!(reopened.len(), 1);
    }

    #[test]
    fn save_load_roundtrip_over_a_real_file() {
        let dir = std::env::temp_dir();
        let pages = dir.join(format!("uncat-inv-persist-{}.pages", std::process::id()));
        let snap = dir.join(format!("uncat-inv-persist-{}.snap", std::process::id()));
        struct Cleanup(Vec<std::path::PathBuf>);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                for p in &self.0 {
                    let _ = std::fs::remove_file(p);
                }
            }
        }
        let _guard = Cleanup(vec![pages.clone(), snap.clone()]);

        let data: Vec<(u64, Uda)> = (0..100u64)
            .map(|i| (i, uda(&[((i % 5) as u32, 1.0)])))
            .collect();
        {
            let store: uncat_storage::SharedStore =
                std::sync::Arc::new(FileDisk::create(&pages).expect("create"));
            let mut pool = BufferPool::with_capacity(store, 64);
            let idx = InvertedIndex::build(
                Domain::anonymous(5),
                &mut pool,
                data.iter().map(|(t, u)| (*t, u)),
            )
            .unwrap();
            pool.flush().unwrap();
            snapshot::commit(&snap, &idx.snapshot()).expect("atomic snapshot commit");
        }
        // Process "restart": reopen the page file and the snapshot file.
        let store: uncat_storage::SharedStore =
            std::sync::Arc::new(FileDisk::open(&pages).expect("open"));
        let idx = InvertedIndex::open(&snapshot::load(&snap).expect("snapshot loads"))
            .expect("snapshot decodes");
        let mut pool = BufferPool::with_capacity(store, 64);
        let out = idx
            .petq(
                &mut pool,
                &EqQuery::new(uda(&[(2, 1.0)]), 0.9),
                crate::Strategy::ColumnPruning,
            )
            .unwrap();
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn garbage_blob_rejected() {
        assert!(InvertedIndex::open(b"nope").is_err());
        assert!(
            InvertedIndex::open(b"UIV1").is_err(),
            "truncated after magic"
        );
        assert!(
            InvertedIndex::open(b"UIV2").is_err(),
            "truncated after magic"
        );
    }

    #[test]
    fn ballooned_counts_cannot_exhaust_memory() {
        // A snapshot claiming u32::MAX heap pages must fail cleanly (the
        // clamp keeps pre-allocation at the blob's actual size), whether
        // `open` reads it or — for the retired `UIV1` — `upgrade` does.
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 4);
        for magic in [MAGIC_V1, MAGIC_V2] {
            let mut w = Writer::new(magic);
            write_domain(&mut w, &Domain::anonymous(3));
            w.u32(u32::MAX); // heap page count
            let blob = w.finish();
            assert!(InvertedIndex::open(&blob).is_err());
            assert!(crate::upgrade(&mut pool, &blob).is_err());
        }
    }

    #[test]
    fn v2_rejects_directory_count_mismatch() {
        // A v2 list whose block counts do not sum to its entry count is
        // corrupt metadata, not a usable index.
        let mut w = Writer::new(MAGIC_V2);
        write_domain(&mut w, &Domain::anonymous(2));
        w.u32(0); // heap pages
        w.u64(0); // heap records
        w.u64(0); // rids
        w.u32(0); // block-heap pages
        w.u64(0); // block-heap records
        w.u32(1); // one list
        w.u32(0); // cat
        w.u64(5); // claims 5 entries...
        w.u32(1); // ...in one block...
        w.u64(0); // sep
        w.u16(2); // ...of 2 (mismatch)
        w.u16(100);
        w.pid(PageId(0));
        w.u16(0);
        let blob = w.finish();
        assert!(InvertedIndex::open(&blob).is_err());
    }

    #[test]
    fn v2_rejects_an_empty_block_in_the_directory() {
        // A real snapshot, then one more directory entry of count 0 in
        // front of its only list's blocks: the counts still sum to the
        // list's length, but a cursor landing on the block has no head.
        let store = InMemoryDisk::shared();
        let mut pool = BufferPool::with_capacity(store, 16);
        let data: Vec<(u64, Uda)> = (0..10u64).map(|i| (i, uda(&[(0, 1.0)]))).collect();
        let idx = InvertedIndex::build(
            Domain::anonymous(1),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        let blob = idx.snapshot();
        assert!(InvertedIndex::open(&blob).is_ok());

        let first = idx.posting_map()[&CatId(0)].blocks()[0];
        let mut needle = u64::from_be_bytes(first.sep).to_le_bytes().to_vec();
        needle.extend_from_slice(&first.count.to_le_bytes());
        let at = blob
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("directory entry in the blob");
        // The list's block count sits just before its first entry.
        let mut mutated = blob.clone();
        let nblocks = u32::from_le_bytes(mutated[at - 4..at].try_into().unwrap());
        mutated[at - 4..at].copy_from_slice(&(nblocks + 1).to_le_bytes());
        let empty = [&blob[at..at + 8], &[0, 0], &blob[at + 10..at + 22]].concat();
        mutated.splice(at..at, empty);
        let err = InvertedIndex::open(&mutated).err().expect("refused");
        assert_eq!(err, StorageError::Corrupt("empty block in directory"));
    }
}
