//! `uncat::inverted::upgrade` on the layouts only it still reads, as
//! `tests/legacy` writes them after `docs/FORMAT.md`: a conversion
//! answers like a fresh build of the same tuples, a failed one leaves
//! every page of the old snapshot as it was, and no mutation of the old
//! bytes makes it panic.

mod legacy;

use proptest::prelude::*;

use uncat::core::{CatId, Domain, EqQuery, TopKQuery, Uda};
use uncat::inverted::{upgrade, InvertedIndex, Strategy};
use uncat::storage::{BufferPool, HeapFile, InMemoryDisk, PageId, RecordId, PAGE_SIZE};

use legacy::Layout;

/// Cases per property: `default`, or the `PROPTEST_CASES` environment
/// variable when set (the vendored proptest does not read it itself).
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn uda(pairs: &[(u32, f32)]) -> Uda {
    Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
}

/// `n` tuples over `cats` categories, two categories each.
fn dataset(n: u64, cats: u32) -> Vec<(u64, Uda)> {
    (0..n)
        .map(|i| {
            let c = (i % cats as u64) as u32;
            let p = 0.3 + 0.5 * ((i * 7919 % 101) as f32 / 101.0);
            (i, uda(&[(c, p), ((c + 1) % cats, 1.0 - p)]))
        })
        .collect()
}

fn pool() -> BufferPool {
    BufferPool::with_capacity(InMemoryDisk::shared(), 256)
}

fn fresh(pool: &mut BufferPool, cats: u32, tuples: &[(u64, Uda)]) -> InvertedIndex {
    InvertedIndex::build(
        Domain::anonymous(cats),
        pool,
        tuples.iter().map(|(t, u)| (*t, u)),
    )
    .unwrap()
}

/// Every PETQ strategy and a top-k on `got`, against `want`: the same
/// answers from the same number of page reads.
fn assert_answers_alike(got: &InvertedIndex, want: &InvertedIndex, pool: &mut BufferPool) {
    for cat in 0..4 {
        let q = uda(&[(cat, 0.7), ((cat + 2) % 4, 0.3)]);
        let mut run = |idx: &InvertedIndex| {
            pool.reset_stats();
            let petq: Vec<_> = Strategy::ALL
                .iter()
                .map(|&s| idx.petq(pool, &EqQuery::new(q.clone(), 0.3), s).unwrap())
                .collect();
            let top = idx.top_k(pool, &TopKQuery::new(q.clone(), 7)).unwrap();
            (petq, top, pool.stats().logical_reads)
        };
        assert_eq!(run(got), run(want), "category {cat}");
    }
}

/// Every page of `pool`'s store, flushed.
fn pages(pool: &mut BufferPool) -> Vec<[u8; PAGE_SIZE]> {
    pool.flush().unwrap();
    (0..pool.store().num_pages())
        .map(|p| pool.read(PageId(p), |b| *b).unwrap())
        .collect()
}

/// A copy of `pool`'s store, page for page, behind a fresh pool.
fn copy_of(pool: &mut BufferPool) -> BufferPool {
    let mut copy = BufferPool::with_capacity(InMemoryDisk::shared(), 16);
    for page in pages(pool) {
        let pid = copy.allocate().unwrap();
        copy.write(pid, |b| *b = page).unwrap();
    }
    copy
}

/// The last record on the last page of a `UIV2` file `tests/legacy`
/// wrote — the last block of the last list — with a handle on its page.
fn last_block(pool: &mut BufferPool) -> (HeapFile, RecordId) {
    let last = PageId(pool.store().num_pages() - 1);
    let heap = HeapFile::from_raw_parts(vec![last], 0);
    let mut rid = None;
    heap.scan(pool, |r, _| {
        rid = Some(r);
        Ok(())
    })
    .unwrap();
    (heap, rid.expect("a block on the last page"))
}

#[test]
fn a_uiv1_snapshot_is_refused_by_open_and_upgraded_to_blocks() {
    let mut pool = pool();
    // 1500 postings a list: two levels of raw B+tree.
    let tuples = dataset(3000, 4);
    let blob = legacy::write(&mut pool, &Domain::anonymous(4), &tuples, Layout::RawLists);
    let refused = InvertedIndex::open(&blob).err().expect("UIV1 is refused");
    assert!(refused.to_string().contains("uncat upgrade"), "{refused}");

    let before = pages(&mut pool);
    let upgraded = upgrade(&mut pool, &blob).unwrap();
    assert_eq!(
        pages(&mut pool)[..before.len()],
        before,
        "the trees stay put"
    );
    assert!(upgraded.starts_with(b"UIV2"));
    let idx = InvertedIndex::open(&upgraded).unwrap();
    assert_eq!(idx.check_invariants(&mut pool).unwrap(), 3000);
    let want = fresh(&mut pool, 4, &tuples);
    assert_eq!(idx.stats().posting_blocks, want.stats().posting_blocks);
    assert_answers_alike(&idx, &want, &mut pool);
    // A current blob comes back as it went in, and nothing is written.
    let before = pages(&mut pool);
    assert_eq!(upgrade(&mut pool, &upgraded).unwrap(), upgraded);
    assert_eq!(pages(&mut pool), before);
}

#[test]
fn upgrade_rebuilds_a_mixed_list_to_read_like_a_fresh_build() {
    let mut pool = pool();
    let tuples = dataset(3000, 4);
    let blob = legacy::write(
        &mut pool,
        &Domain::anonymous(4),
        &tuples,
        Layout::MixedBlocks,
    );
    let mixed = InvertedIndex::open(&blob).unwrap();

    // A read that reaches a varint block fails with the typed error;
    // nothing else fails.
    let q = EqQuery::new(uda(&[(0, 1.0)]), 0.3);
    let err = mixed.petq(&mut pool, &q, Strategy::Brute).unwrap_err();
    assert!(err.to_string().contains("uncat upgrade"), "{err}");
    assert!(mixed.get_tuple(&mut pool, 5).unwrap().is_some());

    let upgraded = upgrade(&mut pool, &blob).unwrap();
    let idx = InvertedIndex::open(&upgraded).unwrap();
    assert_eq!(idx.check_invariants(&mut pool).unwrap(), 3000);
    let want = fresh(&mut pool, 4, &tuples);
    assert_eq!(idx.stats().posting_blocks, want.stats().posting_blocks);
    assert_eq!(idx.stats().block_pages, want.stats().block_pages);
    assert_answers_alike(&idx, &want, &mut pool);
    assert_eq!(upgrade(&mut pool, &upgraded).unwrap(), upgraded);
}

/// A conversion that fails part-way — here on a corrupt last block, after
/// the other lists were rebuilt — has written only pages it allocated:
/// the old snapshot still names every entry it did, and once the block
/// is repaired the same blob converts. The first block of category 0 has
/// one wide gap among unit ones, so packed it is longer than its varint
/// payload on a page the old build filled: it could not have been
/// rewritten where it was.
#[test]
fn a_failed_upgrade_leaves_every_page_of_the_old_snapshot_as_it_was() {
    let mut pool = pool();
    let mut tuples = dataset(3000, 4);
    let uneven = (10_000..10_127).chain([9_000_000]);
    tuples.extend(uneven.map(|tid| (tid, uda(&[(0, 0.999), (1, 0.001)]))));
    let blob = legacy::write(
        &mut pool,
        &Domain::anonymous(4),
        &tuples,
        Layout::VarintBlocks,
    );

    let (mut heap, rid) = last_block(&mut pool);
    let shipped = heap.get(&mut pool, rid).unwrap().unwrap();
    let mut bad = shipped.clone();
    let n = bad.len();
    bad[n - 4..].copy_from_slice(&0f32.to_le_bytes());
    assert_eq!(heap.update(&mut pool, rid, &bad).unwrap(), rid);

    let before = pages(&mut pool);
    let err = upgrade(&mut pool, &blob).unwrap_err();
    assert!(err.to_string().contains("probability"), "{err}");
    let after = pages(&mut pool);
    assert!(after.len() > before.len(), "other lists were rebuilt first");
    assert_eq!(after[..before.len()], before);
    let old = InvertedIndex::open(&blob).unwrap();
    assert!(old.get_tuple(&mut pool, 9_000_000).unwrap().is_some());

    assert_eq!(heap.update(&mut pool, rid, &shipped).unwrap(), rid);
    let idx = InvertedIndex::open(&upgrade(&mut pool, &blob).unwrap()).unwrap();
    assert_eq!(
        idx.check_invariants(&mut pool).unwrap(),
        tuples.len() as u64
    );
    let want = fresh(&mut pool, 4, &tuples);
    assert_answers_alike(&idx, &want, &mut pool);
}

/// Every single-byte mutation of the two inputs only `upgrade` reads — a
/// small `UIV1` blob and a varint payload — converts or is a typed error,
/// and a conversion opens.
#[test]
fn every_single_byte_mutation_of_a_legacy_input_converts_or_is_refused() {
    let tuples = dataset(4, 3);
    let domain = Domain::anonymous(3);
    let mut pool = pool();
    let blob = legacy::write(&mut pool, &domain, &tuples, Layout::RawLists);
    let mut converted = 0;
    for i in 0..blob.len() {
        for delta in 1..=255u8 {
            let mut bad = blob.clone();
            bad[i] = bad[i].wrapping_add(delta);
            if let Ok(out) = upgrade(&mut copy_of(&mut pool), &bad) {
                InvertedIndex::open(&out).expect("a conversion opens");
                converted += 1;
            }
        }
    }
    assert!(converted > 0, "a mutated rid map still converts");

    let mut pool = self::pool();
    let blob = legacy::write(&mut pool, &domain, &tuples, Layout::VarintBlocks);
    let (_, rid) = last_block(&mut pool);
    let payload = HeapFile::from_raw_parts(vec![rid.page], 0)
        .get(&mut pool, rid)
        .unwrap()
        .unwrap();
    for i in 0..payload.len() {
        for delta in 0..=255u8 {
            let mut bad = payload.clone();
            bad[i] = bad[i].wrapping_add(delta);
            let mut pool = copy_of(&mut pool);
            let mut heap = HeapFile::from_raw_parts(vec![rid.page], 0);
            assert_eq!(heap.update(&mut pool, rid, &bad).unwrap(), rid);
            match upgrade(&mut pool, &blob) {
                Ok(out) => {
                    InvertedIndex::open(&out).expect("a conversion opens");
                }
                Err(e) => assert_ne!(delta, 0, "the shipped payload converts: {e}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    // A varint list over the whole 32-bit id space, both ends included,
    // converts to exactly the postings it was written from.
    #[test]
    fn varint_lists_over_the_whole_id_space_upgrade_as_written(
        raw in proptest::collection::vec((0u64..=u32::MAX as u64, 1u32..=65_535), 0..300)
    ) {
        let mut postings: Vec<(u64, f32)> = raw
            .into_iter()
            .chain([(0, 1), (u32::MAX as u64, 65_535)])
            .map(|(tid, q)| (tid, q as f32 / 65_535.0))
            .collect();
        postings.sort_unstable_by_key(|&(tid, _)| tid);
        postings.dedup_by_key(|&mut (tid, _)| tid);
        let tuples: Vec<(u64, Uda)> = postings.iter().map(|&(t, p)| (t, uda(&[(0, p)]))).collect();
        let mut pool = pool();
        let blob = legacy::write(&mut pool, &Domain::anonymous(1), &tuples, Layout::VarintBlocks);
        let idx = InvertedIndex::open(&upgrade(&mut pool, &blob).unwrap()).unwrap();
        let q = EqQuery::new(Uda::certain(CatId(0)), 1e-6);
        let mut got: Vec<(u64, f32)> = idx
            .petq(&mut pool, &q, Strategy::Brute)
            .unwrap()
            .iter()
            .map(|m| (m.tid, m.score as f32))
            .collect();
        got.sort_unstable_by_key(|&(tid, _)| tid);
        prop_assert_eq!(got, postings);
    }
}
