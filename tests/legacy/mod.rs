//! Writers, by hand after `docs/FORMAT.md`, of the two layouts only
//! `uncat upgrade` still reads: a `UIV1` snapshot over raw B+tree posting
//! lists (§9) and a `UIV2` snapshot whose blocks are in the varint layout
//! (§8.2, §10). Nothing in the library writes either any more; these are
//! the only writers of them, shared by the format goldens, the converter's
//! tests and the CLI's upgrade workflow.

#![allow(dead_code)] // each test crate uses its own part

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use uncat::core::{codec, CatId, Domain, Uda};
use uncat::inverted::{encode_block, quantize_up, BLOCK_TARGET};
use uncat::storage::btree::keys::{concat, f32_desc, u32_be};
use uncat::storage::page::field;
use uncat::storage::snapshot::{self, write_domain_parts, Writer};
use uncat::storage::{BufferPool, FileDisk, HeapFile, PageId, RecordId, SharedStore, PAGE_SIZE};

/// Which retired layout to write.
#[derive(Debug, Clone, Copy)]
pub enum Layout {
    /// `UIV1`: one B+tree of zero-value posting keys per category.
    RawLists,
    /// `UIV2` whose every block payload is in the varint layout.
    VarintBlocks,
    /// `UIV2` whose lists hold every third block packed, the rest varint:
    /// a varint file after mutations made by a newer build.
    MixedBlocks,
}

/// The 8-byte posting key of §8.1.
fn posting_key(p: f32, tid: u64) -> [u8; 8] {
    concat(f32_desc(p), u32_be(tid as u32))
}

/// A block payload in the varint layout of §8.2, as it shipped.
pub fn encode_varint(entries: &[(u64, f32)]) -> Vec<u8> {
    let mut by_tid = entries.to_vec();
    by_tid.sort_unstable_by_key(|&(tid, _)| tid);
    let mut out = (by_tid.len() as u16).to_le_bytes().to_vec();
    let mut prev = 0;
    for (i, &(tid, _)) in by_tid.iter().enumerate() {
        let mut v = if i == 0 { tid } else { tid - prev };
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
        prev = tid;
    }
    for &(_, p) in &by_tid {
        out.extend_from_slice(&p.to_le_bytes());
    }
    out
}

/// Write `tuples` over `domain` into `pool`'s store in `layout` and
/// return the snapshot blob naming those pages. Tuples go to the heap
/// first, then the lists in category order, as the old builds laid them
/// out.
pub fn write(
    pool: &mut BufferPool,
    domain: &Domain,
    tuples: &[(u64, Uda)],
    layout: Layout,
) -> Vec<u8> {
    let mut heap = HeapFile::new();
    let mut rids: Vec<(u64, RecordId)> = Vec::new();
    let mut lists: BTreeMap<CatId, Vec<[u8; 8]>> = BTreeMap::new();
    for (tid, uda) in tuples {
        let mut record = tid.to_le_bytes().to_vec();
        codec::encode(uda, &mut record);
        rids.push((*tid, heap.insert(pool, &record).expect("heap insert")));
        for (cat, p) in uda.iter() {
            lists.entry(cat).or_default().push(posting_key(p, *tid));
        }
    }
    lists.values_mut().for_each(|keys| keys.sort_unstable());
    rids.sort_unstable_by_key(|&(tid, _)| tid);

    let mut w = Writer::new(match layout {
        Layout::RawLists => b"UIV1",
        Layout::VarintBlocks | Layout::MixedBlocks => b"UIV2",
    });
    let labels = domain.is_labeled().then(|| domain.labels());
    write_domain_parts(&mut w, domain.size(), labels);
    let (pages, records) = heap.raw_parts();
    w.u32(pages.len() as u32);
    pages.iter().for_each(|&p| w.pid(p));
    w.u64(records);
    w.u64(rids.len() as u64);
    for (tid, rid) in &rids {
        w.u64(*tid);
        w.pid(rid.page);
        w.u16(rid.slot);
    }
    match layout {
        Layout::RawLists => {
            w.u32(lists.len() as u32);
            for (cat, keys) in &lists {
                let (root, depth) = write_tree(pool, keys);
                w.u32(cat.0);
                w.pid(root);
                w.u64(keys.len() as u64);
                w.u32(depth);
            }
        }
        Layout::VarintBlocks | Layout::MixedBlocks => {
            let mixed = matches!(layout, Layout::MixedBlocks);
            let mut blocks = HeapFile::new();
            let mut directory = Vec::new();
            for (cat, keys) in &lists {
                let entries: Vec<(u64, f32)> = keys
                    .iter()
                    .map(|k| {
                        let p = f32::from_bits(!u32::from_be_bytes(k[..4].try_into().unwrap()));
                        (u32::from_be_bytes(k[4..].try_into().unwrap()) as u64, p)
                    })
                    .collect();
                let mut metas = Vec::new();
                let chunks = entries.chunks(BLOCK_TARGET).zip(keys.chunks(BLOCK_TARGET));
                for (i, (chunk, seps)) in chunks.enumerate() {
                    let payload = if mixed && i % 3 == 0 {
                        encode_block(chunk)
                    } else {
                        encode_varint(chunk)
                    };
                    let rid = blocks.insert(pool, &payload).expect("block insert");
                    metas.push((seps[0], chunk.len() as u16, quantize_up(chunk[0].1), rid));
                }
                directory.push((*cat, keys.len() as u64, metas));
            }
            let (pages, records) = blocks.raw_parts();
            w.u32(pages.len() as u32);
            pages.iter().for_each(|&p| w.pid(p));
            w.u64(records);
            w.u32(directory.len() as u32);
            for (cat, entries, metas) in directory {
                w.u32(cat.0);
                w.u64(entries);
                w.u32(metas.len() as u32);
                for (sep, count, max_q, rid) in metas {
                    w.u64(u64::from_be_bytes(sep));
                    w.u16(count);
                    w.u16(max_q);
                    w.pid(rid.page);
                    w.u16(rid.slot);
                }
            }
        }
    }
    pool.flush().expect("flush");
    w.finish()
}

/// One list as a B+tree of zero-value keys: leaves of at most
/// `(PAGE_SIZE - 12) / 8` keys chained left to right, under one internal
/// root when there is more than one. Returns the root and the depth.
fn write_tree(pool: &mut BufferPool, keys: &[[u8; 8]]) -> (PageId, u32) {
    let leaf_cap = (PAGE_SIZE - 12) / 8;
    let chunks: Vec<&[[u8; 8]]> = keys.chunks(leaf_cap).collect();
    let leaves: Vec<PageId> = chunks.iter().map(|_| pool.allocate().unwrap()).collect();
    for (i, chunk) in chunks.iter().enumerate() {
        let next = leaves.get(i + 1).copied().unwrap_or(PageId::INVALID);
        pool.write(leaves[i], |b| node(b, 0, chunk.len(), next, chunk.concat()))
            .unwrap();
    }
    if leaves.len() == 1 {
        return (leaves[0], 1);
    }
    let mut body = leaves[0].0.to_le_bytes().to_vec();
    for (chunk, leaf) in chunks.iter().zip(&leaves).skip(1) {
        body.extend_from_slice(&chunk[0]);
        body.extend_from_slice(&leaf.0.to_le_bytes());
    }
    let root = pool.allocate().unwrap();
    pool.write(root, |b| {
        node(b, 1, leaves.len() - 1, PageId::INVALID, body)
    })
    .unwrap();
    (root, 2)
}

/// A node page: `u8` type (0 leaf, 1 internal), pad, `u16` count, `u64`
/// next leaf, then the body.
fn node(b: &mut [u8; PAGE_SIZE], kind: u8, count: usize, next: PageId, body: Vec<u8>) {
    b[0] = kind;
    field::put_u16(b, 2, count as u16);
    field::put_pid(b, 4, next);
    b[12..12 + body.len()].copy_from_slice(&body);
}

/// [`write`] as files: a fresh page file at `pages` and the snapshot
/// committed at `meta`, as an old `uncat build` left them.
pub fn write_files(
    pages: &Path,
    meta: &Path,
    domain: &Domain,
    tuples: &[(u64, Uda)],
    layout: Layout,
) {
    let store: SharedStore = Arc::new(FileDisk::create(pages).expect("create the page file"));
    let mut pool = BufferPool::with_capacity(store, 64);
    let blob = write(&mut pool, domain, tuples, layout);
    snapshot::commit(meta, &blob).expect("commit the snapshot");
}
