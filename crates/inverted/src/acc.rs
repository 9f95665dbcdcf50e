//! Per-query records keyed by tuple id, with no hash per posting where
//! the index's ids are dense enough to make that pay.
//!
//! Every executor that folds postings into per-tuple state keeps it in a
//! [`Slab`]: the full scan's sums (brute-force PETQ and PEQ,
//! `crate::search::exact_scores`), `Auto`'s PETQ and top-k records, and a
//! metric DSTQ's [`Partial`] distances. The records are dense, in
//! first-touch order; an id finds its record through one of two layouts:
//!
//! * *flat*: a `u32` per id, one past the index of the id's record (0 for
//!   none, [`RULED_OUT`] for a tuple the executor will make no record
//!   for); a posting is one load and, on first touch, a store;
//! * *map*: a [`TidMap`] from id to the same entry, a hash and a probe per
//!   posting.
//!
//! The layout is the index's, not the query's: an index takes the flat
//! one when its 4 bytes per id of [`crate::InvertedIndex::tid_span`] (one
//! past the largest id it ever indexed) come to at most 32 bytes per
//! tuple it holds ([`crate::InvertedIndex::len`]). A service shard holds
//! 1/*n* of its tenant's tuples and ids from all of their range, so a
//! shard of a tenant split up to about eight ways is flat and one split
//! wider is not; an index whose ids are scattered over the 32-bit range
//! is the map. `Auto`'s top-k over a tenant's inverted shards is one run
//! with one slab ([`Slab::for_indexes`]), laid out as the tenant's one
//! index would be, so a tenant with dense ids is flat however many ways
//! it is split.
//!
//! The flat index is not allocated per query. Each thread keeps one
//! buffer, all zeros between queries, that a slab takes when it opens and
//! grows to the index's span when it is shorter; when the slab drops — on
//! every path, an error's too — it zeroes exactly the entries it set and
//! gives the buffer back. A thread that ran a query therefore holds one
//! buffer of 4 bytes per id of the widest flat index it queried, at most
//! 32 bytes per tuple of that index (two, while two flat slabs are open
//! on the thread at once; the larger is kept).
//!
//! Every executor adds a tuple's terms as one
//! [`uncat_core::distance::ExactSum`], so its sums do not depend on the
//! order the lists bring them in and are bit-identical to
//! [`uncat_core::equality::eq_prob`] in either layout.

use std::cell::Cell;

use uncat_core::distance::ExactSum;

use crate::index::InvertedIndex;
use crate::tid::TidMap;

/// The entry of a tuple ruled out: no record, and none is made later.
const RULED_OUT: u32 = u32::MAX;

thread_local! {
    /// The flat layout's index, all zeros whenever no slab holds it.
    static SCRATCH: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

/// Whether an index of `tuples` tuples with ids below `span` finds its
/// records through the flat layout: 4 bytes per id of the span, at most
/// 32 per tuple (see the module documentation).
fn flat_fits(span: u64, tuples: u64) -> bool {
    span.saturating_mul(4) <= tuples.saturating_mul(32)
}

/// One tuple's metric distance to a DSTQ's query, as far as the query's
/// lists show it (`crate::dstq`): the sum of its on-support terms, and
/// what its postings seen hold of its own mass (`Σ p` for L1, `Σ p²` for
/// L2).
pub(crate) struct Partial {
    pub(crate) on: ExactSum,
    pub(crate) own: ExactSum,
    pub(crate) tid: u32,
}

impl Partial {
    pub(crate) fn new(tid: u64) -> Partial {
        Partial {
            on: ExactSum::default(),
            own: ExactSum::default(),
            // Posting tids are 32-bit (`visit_block` checks).
            tid: tid as u32,
        }
    }
}

/// Per-tuple records of a scan: dense, in first-touch order, found by
/// tuple id through one of two layouts (see the module documentation).
pub(crate) struct Slab<S> {
    /// The flat layout: this thread's scratch index, covering at least
    /// the span. Empty in the map layout.
    flat: Vec<u32>,
    /// The ids whose entry in `flat` this slab set.
    touched: Vec<u32>,
    /// The map layout — and, beside the flat one, any id past its end.
    sparse: TidMap<u32>,
    slots: Vec<S>,
}

impl<S> Slab<S> {
    /// A slab for a scan of `idx`, in the index's layout.
    pub(crate) fn for_index(idx: &InvertedIndex) -> Slab<S> {
        Slab::for_indexes(std::slice::from_ref(&idx))
    }

    /// A slab for one scan of several indexes whose tuple ids are
    /// disjoint, in the layout of the one index they make up: the widest
    /// span against every tuple.
    pub(crate) fn for_indexes(indexes: &[&InvertedIndex]) -> Slab<S> {
        let span = indexes.iter().map(|idx| idx.tid_span()).max().unwrap_or(0);
        let tuples = indexes.iter().map(|idx| idx.len() as u64).sum();
        Slab::with_ids(span, tuples)
    }

    /// A slab for an index of `tuples` tuples with ids below `span`.
    fn with_ids(span: u64, tuples: u64) -> Slab<S> {
        let mut flat = Vec::new();
        if span > 0 && flat_fits(span, tuples) {
            flat = SCRATCH.take();
            if flat.len() < span as usize {
                flat.resize(span as usize, 0);
            }
        }
        Slab {
            flat,
            touched: Vec::new(),
            sparse: TidMap::default(),
            slots: Vec::new(),
        }
    }

    /// The index of `tid`'s record, made by `new` on first touch.
    #[inline]
    pub(crate) fn slot(&mut self, tid: u64, new: impl FnOnce() -> S) -> usize {
        self.slot_unless_ruled_out(tid, || Some(new()))
            .expect("only `new` rules a tuple out")
    }

    /// The index of `tid`'s record. On first touch `new` makes it — or,
    /// returning `None`, rules the tuple out: it gets no record, now or
    /// at any later touch, and this returns `None` for it from then on.
    #[inline]
    pub(crate) fn slot_unless_ruled_out(
        &mut self,
        tid: u64,
        new: impl FnOnce() -> Option<S>,
    ) -> Option<usize> {
        let flat = tid < self.flat.len() as u64;
        let entry = if flat {
            &mut self.flat[tid as usize]
        } else {
            self.sparse.entry(tid).or_insert(0)
        };
        match *entry {
            0 => {
                if flat {
                    self.touched.push(tid as u32);
                }
                let Some(record) = new() else {
                    *entry = RULED_OUT;
                    return None;
                };
                let at = self.slots.len();
                *entry = at as u32 + 1;
                self.slots.push(record);
                Some(at)
            }
            RULED_OUT => None,
            e => Some(e as usize - 1),
        }
    }

    /// The index of `tid`'s record, if it has one.
    #[inline]
    fn find(&self, tid: u64) -> Option<usize> {
        let entry = if tid < self.flat.len() as u64 {
            self.flat[tid as usize]
        } else {
            *self.sparse.get(&tid)?
        };
        (entry != 0 && entry != RULED_OUT).then(|| entry as usize - 1)
    }

    /// Whether `tid` has a record.
    pub(crate) fn contains(&self, tid: u64) -> bool {
        self.find(tid).is_some()
    }

    /// `tid`'s record, if it has one.
    #[inline]
    pub(crate) fn get_mut(&mut self, tid: u64) -> Option<&mut S> {
        let at = self.find(tid)?;
        self.slots.get_mut(at)
    }

    /// Every record, in first-touch order.
    pub(crate) fn slots(&self) -> &[S] {
        &self.slots
    }

    /// [`Slab::slots`], mutably.
    pub(crate) fn slots_mut(&mut self) -> &mut [S] {
        &mut self.slots
    }
}

impl<S> Drop for Slab<S> {
    /// Zero the entries this slab set and give the flat index back to the
    /// thread, keeping the larger buffer if it holds one already.
    fn drop(&mut self) {
        if self.flat.is_empty() {
            return;
        }
        for &tid in &self.touched {
            self.flat[tid as usize] = 0;
        }
        let flat = std::mem::take(&mut self.flat);
        // Gone only while the thread itself is being torn down.
        let _ = SCRATCH.try_with(|scratch| {
            let held = scratch.take();
            scratch.set(if held.len() >= flat.len() { held } else { flat });
        });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    impl<S> Slab<S> {
        /// Bytes the flat layout holds (none in the map layout).
        fn flat_bytes(&self) -> u64 {
            4 * self.flat.capacity() as u64
        }
    }

    /// How many ids this thread's scratch index covers, once every slab
    /// on the thread has dropped; panics unless every entry is zero.
    pub(crate) fn clean_scratch_len() -> usize {
        let scratch = SCRATCH.take();
        let dirty = scratch.iter().position(|&e| e != 0);
        let len = scratch.len();
        SCRATCH.set(scratch);
        assert_eq!(dirty, None, "a slab left its scratch entries set");
        len
    }

    /// Add `delta` to `tid`'s sum, as the full scan does.
    fn add(slab: &mut Slab<(u64, f64)>, tid: u64, delta: f64) {
        let at = slab.slot(tid, || (tid, 0.0));
        slab.slots_mut()[at].1 += delta;
    }

    fn sorted(slab: &Slab<(u64, f64)>) -> Vec<(u64, f64)> {
        let mut got = slab.slots().to_vec();
        got.sort_by_key(|&(tid, _)| tid);
        got
    }

    #[test]
    fn dense_indexes_take_the_flat_layout_and_sparse_ones_the_map() {
        let before = clean_scratch_len();
        // 4 000 tuples with ids below 20 000: 20 bytes of span per tuple.
        let mut dense = Slab::with_ids(20_000, 4_000);
        for tid in (0..20_000).step_by(5) {
            add(&mut dense, tid, 1.0);
        }
        assert_eq!(dense.slots().len(), 4_000);
        assert!(dense.flat.len() >= 20_000);
        assert!(dense.sparse.is_empty());
        drop(dense);
        assert!(clean_scratch_len() >= 20_000);

        // The same tuples with ids below 1 000 000: 1 000 bytes per tuple.
        let mut sparse = Slab::with_ids(1_000_000, 4_000);
        for tid in (0..1_000_000).step_by(250) {
            add(&mut sparse, tid, 1.0);
        }
        assert_eq!((sparse.slots().len(), sparse.flat_bytes()), (4_000, 0));
        assert_eq!(sparse.sparse.len(), 4_000);

        // The fewest tuples that buy the flat layout buy it within the
        // memory bound, at every span.
        for span in 1..=40_000u64 {
            let tuples = span.div_ceil(8);
            assert!(4 * span <= 32 * tuples);
            let slab = Slab::<(u64, f64)>::with_ids(span, tuples);
            assert!(slab.flat.len() as u64 >= span, "span {span}");
            let below = Slab::<(u64, f64)>::with_ids(span, tuples - 1);
            assert_eq!(below.flat_bytes(), 0, "span {span}");
        }
        // Grown one id at a time, the thread still holds one buffer, as
        // long as the widest span.
        assert_eq!(clean_scratch_len(), before.max(40_000));
    }

    #[test]
    fn an_id_at_or_above_the_span_keeps_its_sum() {
        let mut slab = Slab::with_ids(100, 1_000);
        for tid in [99, 100, 101, u64::MAX, 100, 99] {
            add(&mut slab, tid, 0.5);
        }
        let want = vec![(99, 1.0), (100, 1.0), (101, 0.5), (u64::MAX, 0.5)];
        assert_eq!((slab.slots().len(), sorted(&slab)), (4, want));
    }

    #[test]
    fn a_zero_sum_is_still_a_member() {
        for span in [10, 1_000_000] {
            let mut slab = Slab::with_ids(span, 200);
            add(&mut slab, 7, 0.0);
            add(&mut slab, 9, 0.25);
            add(&mut slab, 9, -0.25);
            assert_eq!(sorted(&slab), vec![(7, 0.0), (9, 0.0)]);
        }
        assert!(Slab::<(u64, f64)>::with_ids(0, 0).slots().is_empty());
    }

    /// The service's `shard_of` (SplitMix64 on the tid, modulo the shard
    /// count), which this crate cannot name.
    fn shard_of(tid: u64, shards: u64) -> u64 {
        let mut z = tid.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % shards
    }

    /// A shard of a two-shard tenant holds every other id or so of the
    /// tenant's 40 000: half the tuples, all of the span, 8 bytes of span
    /// per tuple. Every scan of it, broad or narrow, sums flat from its
    /// first posting to its last. A shard of a sixteen-shard tenant holds
    /// 1/16 of the tuples over the same span — 64 bytes per tuple — and
    /// every scan of it sums in the map.
    #[test]
    fn a_shard_of_a_split_tenant_sums_flat_over_its_id_span() {
        use uncat_core::{CatId, Domain, Uda};
        use uncat_storage::{BufferPool, InMemoryDisk, QueryMetrics};

        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 400);
        let uda = |tid: u64| {
            let (a, b) = (CatId((tid % 7) as u32), CatId(7 + (tid % 11) as u32));
            Uda::from_pairs([(a, 0.5), (b, 0.5)]).unwrap()
        };
        for (shards, flat) in [(2, true), (16, false)] {
            let data: Vec<(u64, Uda)> = (0..40_000u64)
                .filter(|&tid| shard_of(tid, shards) == 0)
                .map(|tid| (tid, uda(tid)))
                .collect();
            let tuples = data.iter().map(|(t, u)| (*t, u));
            let idx =
                crate::InvertedIndex::build(Domain::anonymous(18), &mut pool, tuples).unwrap();
            let share = 40_000 / shards as usize;
            assert!((share * 9 / 10..share * 11 / 10).contains(&idx.len()));
            assert!(
                (39_900..=40_000).contains(&idx.tid_span()),
                "{}",
                idx.tid_span()
            );

            let queries: [&[u32]; 5] = [&[0], &[9], &[0, 9], &[1, 2, 3], &[2, 8, 12, 15]];
            for cats in queries {
                let p = 1.0 / cats.len() as f32;
                let q = Uda::from_pairs(cats.iter().map(|&c| (CatId(c), p))).unwrap();
                let postings: u64 = cats.iter().map(|&c| idx.list_len(CatId(c))).sum();
                let mut m = QueryMetrics::new();
                let scores = crate::search::exact_scores(&idx, &mut pool, &q, &mut m).unwrap();
                assert_eq!(m.postings_scanned, postings);
                if flat {
                    assert!(scores.flat.len() as u64 >= idx.tid_span(), "{cats:?}");
                    assert!(scores.sparse.is_empty(), "{cats:?}");
                } else {
                    assert_eq!(scores.flat_bytes(), 0, "{cats:?}");
                    assert_eq!(scores.sparse.len(), scores.slots().len(), "{cats:?}");
                }
            }
        }
    }

    /// An index holding ids 0 and `u32::MAX` spans 2³² ids: a flat index
    /// for it would be 16 GiB. It answers `Auto` PETQ and top-k, the full
    /// scan and an L1 DSTQ through the map, and this thread never takes a
    /// scratch buffer.
    #[test]
    fn an_index_spanning_every_32_bit_id_answers_through_the_map() {
        use uncat_core::equality::{eq_prob, meets_threshold};
        use uncat_core::query::{sort_matches_desc, DstQuery, EqQuery, Match, TopKQuery};
        use uncat_core::{CatId, Divergence, Domain, Uda};
        use uncat_storage::{BufferPool, InMemoryDisk};

        use crate::Strategy;

        let before = clean_scratch_len();
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
        let uda = |a: f32| Uda::from_pairs([(CatId(0), a), (CatId(1), 1.0 - a)]).unwrap();
        let data: Vec<(u64, Uda)> = [0, 1, 77, 1 << 20, u32::MAX as u64 - 1, u32::MAX as u64]
            .iter()
            .enumerate()
            .map(|(i, &tid)| (tid, uda(0.1 + 0.15 * i as f32)))
            .collect();
        let idx = crate::InvertedIndex::build(
            Domain::anonymous(2),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        assert_eq!(idx.tid_span(), 1 << 32);

        let q = Uda::from_pairs([(CatId(0), 0.7), (CatId(1), 0.3)]).unwrap();
        let mut all: Vec<Match> = data
            .iter()
            .map(|(tid, t)| Match::new(*tid, eq_prob(&q, t)))
            .collect();
        sort_matches_desc(&mut all);
        let tau = all[3].score;
        let petq = EqQuery::new(q.clone(), tau);
        let want: Vec<u64> = all
            .iter()
            .filter(|m| meets_threshold(m.score, tau))
            .map(|m| m.tid)
            .collect();
        for strategy in [Strategy::Auto, Strategy::Brute] {
            let got = idx.petq(&mut pool, &petq, strategy).unwrap();
            assert_eq!(got.iter().map(|m| m.tid).collect::<Vec<_>>(), want);
        }
        let top = idx
            .top_k_planned(&mut pool, &TopKQuery::new(q.clone(), 2), Strategy::Auto)
            .unwrap();
        assert_eq!(top.iter().map(|m| m.tid).collect::<Vec<_>>(), want[..2]);
        let near = idx
            .dstq(&mut pool, &DstQuery::new(q.clone(), 0.5, Divergence::L1))
            .unwrap();
        let mut want_near: Vec<u64> = data
            .iter()
            .filter(|(_, t)| Divergence::L1.eval(q.entries(), t.entries()) <= 0.5)
            .map(|(tid, _)| *tid)
            .collect();
        let mut got_near: Vec<u64> = near.iter().map(|m| m.tid).collect();
        want_near.sort_unstable();
        got_near.sort_unstable();
        assert!(!got_near.is_empty());
        assert_eq!(got_near, want_near);
        assert_eq!(clean_scratch_len(), before, "no flat index was taken");
    }

    /// Tids from a handful of dense neighbourhoods scattered over the
    /// whole 32-bit range (plus a few beyond it): many repeats, most of
    /// them at or above any span the cases name.
    fn tid_strategy() -> impl Strategy<Value = u64> {
        (0u64..8, 0u64..3000, 0u32..20).prop_map(|(hood, offset, far)| {
            let base = (hood / 3) * (u32::MAX as u64 / 2);
            if far == 0 {
                u64::MAX - offset
            } else {
                base.saturating_sub(1500) + offset
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::proptest_cases(64)))]

        // Sums against a hash map: same members, and — the adds for one
        // tid arrive in the same order — bit-identical sums, for
        // duplicates, negative and zero deltas alike, in the flat layout
        // and the map, with ids below, at and above the span (which the
        // case names, and need not be true); the layout is the one the
        // span and tuple count choose; and once the slab drops, this
        // thread's scratch index is all zeros again.
        #[test]
        fn agrees_with_a_tid_map(
            adds in proptest::collection::vec((tid_strategy(), -4i32..5), 0..600),
            tuples in 0u64..4_000,
            span in 0u64..20_000,
        ) {
            let mut slab = Slab::with_ids(span, tuples);
            let flat = span > 0 && 4 * span <= 32 * tuples;
            prop_assert_eq!(!slab.flat.is_empty(), flat);
            prop_assert!(slab.flat.len() as u64 >= if flat { span } else { 0 });
            let mut model: TidMap<f64> = TidMap::default();
            for &(tid, d) in &adds {
                let delta = d as f64 * 0.1;
                add(&mut slab, tid, delta);
                *model.entry(tid).or_insert(0.0) += delta;
            }
            let mut got: Vec<(u64, u64)> =
                slab.slots().iter().map(|&(t, s)| (t, s.to_bits())).collect();
            let mut want: Vec<(u64, u64)> = model.iter().map(|(&t, s)| (t, s.to_bits())).collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert!(got.windows(2).all(|w| w[0].0 != w[1].0), "a tid came back twice");
            prop_assert_eq!(got, want);
            drop(slab);
            clean_scratch_len();
        }

        // The slab against a map of first touches, with ids below, at and
        // above the span in either layout, some of them ruled out at
        // their first touch: an id keeps the index it was first given,
        // indices are dense in first-touch order, exactly the ids touched
        // and not ruled out have a record, a ruled-out id never gets one,
        // and the scratch index is all zeros once the slab drops.
        #[test]
        fn a_slab_keeps_first_touch_order(
            touches in proptest::collection::vec((tid_strategy(), 0u8..4), 0..600),
            tuples in 0u64..4_000,
            span in 0u64..20_000,
        ) {
            let mut slab: Slab<u64> = Slab::with_ids(span, tuples);
            let mut model: TidMap<Option<usize>> = TidMap::default();
            let mut records = 0;
            for &(tid, roll) in &touches {
                let want = *model.entry(tid).or_insert_with(|| {
                    (roll != 0).then(|| {
                        records += 1;
                        records - 1
                    })
                });
                prop_assert_eq!(slab.slot_unless_ruled_out(tid, || (roll != 0).then_some(tid)), want);
            }
            prop_assert_eq!(slab.slots().len(), records);
            for (&tid, &at) in &model {
                prop_assert_eq!(slab.contains(tid), at.is_some());
                if let Some(at) = at {
                    prop_assert_eq!(slab.slots()[at], tid);
                    prop_assert_eq!(slab.get_mut(tid).copied(), Some(tid));
                } else {
                    prop_assert_eq!(slab.get_mut(tid), None);
                }
            }
            for &(tid, _) in &touches {
                let other = tid ^ 1;
                let has = model.get(&other).is_some_and(|at| at.is_some());
                prop_assert_eq!(slab.get_mut(other).is_some(), has);
            }
            drop(slab);
            clean_scratch_len();
        }
    }

    /// Posting lists the way a scan meets them: `per_list` random ids out
    /// of `tuples`, in blocks of 128 ascending inside a block.
    fn block_ordered_lists(tuples: u64, per_list: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..3)
            .map(|_| {
                let mut ids = std::collections::HashSet::new();
                while ids.len() < per_list {
                    ids.insert(next() % tuples);
                }
                let mut list: Vec<u64> = ids.into_iter().collect();
                for block in list.chunks_mut(128) {
                    block.sort_unstable();
                }
                list
            })
            .collect()
    }

    /// ns per posting (allocation, adds and the final walk of the sums)
    /// of the map layout, of a flat index zeroed for the scan alone, and
    /// of the flat layout as [`Slab`] keeps it — the thread's scratch
    /// index, reused — from dense lists down to a handful of postings per
    /// 1024 ids.
    ///
    /// `cargo test --release -p uncat-inverted density_sweep -- --ignored --nocapture`
    #[test]
    #[ignore = "a measurement, not a check"]
    fn density_sweep() {
        fn ns_per_posting(postings: usize, mut run: impl FnMut() -> f64) -> f64 {
            let reps = (1_000_000 / postings).max(3);
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    let sink: f64 = (0..reps).map(|_| run()).sum();
                    std::hint::black_box(sink);
                    t.elapsed().as_nanos() as f64 / (reps * postings) as f64
                })
                .fold(f64::MAX, f64::min)
        }
        println!("      span  per list  per 1024 |        map     fresh    reused");
        let densities = [300u64, 150, 120, 60, 30, 15, 6];
        let spans = [20_000u64, 100_000, 1_000_000];
        for (span, per_1024) in spans.iter().flat_map(|&s| densities.map(|d| (s, d))) {
            let per_list = (span * per_1024 / 1024 / 3) as usize;
            let lists = block_ordered_lists(span, per_list, 42);
            let postings = 3 * per_list;
            let feed = |mut slab: Slab<(u64, f64)>| {
                for list in &lists {
                    for &tid in list {
                        add(&mut slab, tid, 0.3);
                    }
                }
                slab.slots().iter().map(|&(_, sum)| sum).sum::<f64>()
            };
            let map = ns_per_posting(postings, || feed(Slab::with_ids(span, 0)));
            let fresh = ns_per_posting(postings, || {
                SCRATCH.take();
                feed(Slab::with_ids(span, span))
            });
            let reused = ns_per_posting(postings, || feed(Slab::with_ids(span, span)));
            println!(
                "{span:>10} {per_list:>9} {per_1024:>9} | {map:>10.1} {fresh:>9.1} {reused:>9.1}"
            );
        }
    }
}
