//! Per-query records keyed by tuple id, with no hash per posting where
//! the postings are dense enough to make that pay.
//!
//! Every executor that folds postings into per-tuple state keeps it in a
//! [`Slab`]: the full scan's sums (brute-force PETQ and PEQ,
//! `crate::search::exact_scores`), `Auto`'s PETQ and top-k records, and a
//! metric DSTQ's [`Partial`] distances. The records are dense, in
//! first-touch order; an id finds its record through one of two layouts,
//! chosen once when the scan starts from the two numbers the index
//! already has — how many postings the query's lists hold, and the span
//! of its tuple ids ([`crate::InvertedIndex::tid_span`], one past the
//! largest id it ever indexed):
//!
//! * *flat*: a zeroed `u32` per id of the span, one past the index of
//!   the id's record; a posting is one load and, on first touch, a store;
//! * *map*: a [`TidMap`] from id to record index, a hash and a probe per
//!   posting.
//!
//! The flat layout has the whole span to zero before the scan, so it wins
//! once postings are dense enough in the span. It is taken from
//! [`MIN_PER_1024`] postings per 1024 ids up: above every crossing the
//! ignored `density_sweep` below has measured (EXPERIMENTS.md, "One
//! accumulator"), and the density at which its 4 bytes per id come to at
//! most 32 bytes per posting scanned, whatever the largest tid. The
//! density is taken over the span, not the tuple count: a service shard
//! holds 1/*n* of its tenant's tuples and ids from all of their range.
//!
//! The full scan adds a tuple's terms in list order — ascending category,
//! the order `eq_prob_entries` adds them in — so its sums are
//! bit-identical to [`uncat_core::equality::eq_prob`] in either layout.
//! The other executors meet a tuple's terms in an order the data decides,
//! so they add them with [`TwoSum`]: the result does not depend on it.

use uncat_core::distance::TwoSum;

use crate::tid::TidMap;

/// Postings per 1024 ids of span from which a scan finds its records
/// through the flat layout (see the module documentation).
const MIN_PER_1024: u64 = 130;

/// Whether a scan of `postings` postings over ids below `span` takes the
/// flat layout (see the module documentation).
fn takes_flat(postings: u64, span: u64) -> bool {
    postings.saturating_mul(1024) >= span.saturating_mul(MIN_PER_1024)
}

/// One tuple's metric distance to a DSTQ's query, as far as the query's
/// lists show it (`crate::dstq`): the compensated sum of its on-support
/// terms, the compensated sum of what its postings seen hold of its own
/// mass (`Σ p` for L1, `Σ p²` for L2), and how many postings that was.
pub(crate) struct Partial {
    pub(crate) on: TwoSum,
    pub(crate) own: TwoSum,
    pub(crate) seen: u32,
    pub(crate) tid: u32,
}

impl Partial {
    pub(crate) fn new(tid: u64) -> Partial {
        Partial {
            on: TwoSum::default(),
            own: TwoSum::default(),
            seen: 0,
            // Posting tids are 32-bit (`visit_block` checks).
            tid: tid as u32,
        }
    }
}

/// Per-tuple records of a scan: dense, in first-touch order, found by
/// tuple id through one of two layouts (see the module documentation).
pub(crate) struct Slab<S> {
    /// The flat layout: one past the index of each id's record, 0 for
    /// none, for every id below the span. Empty in the map layout.
    flat: Vec<u32>,
    /// The map layout — and, beside the flat one, any id at or above the
    /// span.
    sparse: TidMap<u32>,
    slots: Vec<S>,
}

impl<S> Slab<S> {
    /// A slab for a scan of at most `postings` postings over an index
    /// whose tuple ids are all below `span`.
    pub(crate) fn for_scan(postings: u64, span: u64) -> Slab<S> {
        let flat = if takes_flat(postings, span) {
            span as usize
        } else {
            0
        };
        Slab {
            flat: vec![0; flat],
            sparse: TidMap::default(),
            slots: Vec::new(),
        }
    }

    /// The index of `tid`'s record, made by `new` on first touch.
    #[inline]
    pub(crate) fn slot(&mut self, tid: u64, new: impl FnOnce() -> S) -> usize {
        let next = self.slots.len() as u32;
        let at = if tid < self.flat.len() as u64 {
            let entry = &mut self.flat[tid as usize];
            if *entry == 0 {
                *entry = next + 1;
            }
            *entry - 1
        } else {
            *self.sparse.entry(tid).or_insert(next)
        };
        if at == next {
            self.slots.push(new());
        }
        at as usize
    }

    /// Whether `tid` has a record.
    pub(crate) fn contains(&self, tid: u64) -> bool {
        if tid < self.flat.len() as u64 {
            self.flat[tid as usize] != 0
        } else {
            self.sparse.contains_key(&tid)
        }
    }

    /// `tid`'s record, if it has one.
    #[inline]
    pub(crate) fn get_mut(&mut self, tid: u64) -> Option<&mut S> {
        let at = if tid < self.flat.len() as u64 {
            self.flat[tid as usize].checked_sub(1)?
        } else {
            *self.sparse.get(&tid)?
        };
        self.slots.get_mut(at as usize)
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl<S> Slab<S> {
        /// Bytes the flat layout holds (none in the map layout).
        fn flat_bytes(&self) -> u64 {
            4 * self.flat.capacity() as u64
        }
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
    fn dense_scans_take_the_flat_layout_and_sparse_ones_the_map() {
        // 6 000 postings over a span of 20 000 ids: 300 per 1024.
        let mut dense = Slab::for_scan(6_000, 20_000);
        for tid in (0..20_000).step_by(5) {
            add(&mut dense, tid, 1.0);
        }
        assert_eq!(dense.slots().len(), 4_000);
        assert_eq!(dense.flat.len(), 20_000);
        assert!(dense.sparse.is_empty());

        // The same postings over a span of 1 000 000: 6 per 1024.
        let mut sparse = Slab::for_scan(6_000, 1_000_000);
        for tid in (0..1_000_000).step_by(250) {
            add(&mut sparse, tid, 1.0);
        }
        assert_eq!((sparse.slots().len(), sparse.flat_bytes()), (4_000, 0));

        // The fewest postings that buy the flat layout buy it within the
        // memory bound, at every span.
        for span in 0..40_000u64 {
            let postings = (span * MIN_PER_1024).div_ceil(1024);
            let slab = Slab::<(u64, f64)>::for_scan(postings, span);
            assert_eq!(slab.flat.len() as u64, span);
            assert!(slab.flat_bytes() <= 32 * postings, "span {span}");
            if postings > 0 {
                let below = Slab::<(u64, f64)>::for_scan(postings - 1, span);
                assert_eq!(below.flat_bytes(), 0);
            }
        }
    }

    #[test]
    fn an_id_at_or_above_the_span_keeps_its_sum() {
        let mut slab = Slab::for_scan(1_000, 100);
        for tid in [99, 100, 101, u64::MAX, 100, 99] {
            add(&mut slab, tid, 0.5);
        }
        let want = vec![(99, 1.0), (100, 1.0), (101, 0.5), (u64::MAX, 0.5)];
        assert_eq!((slab.slots().len(), sorted(&slab)), (4, want));
    }

    #[test]
    fn a_zero_sum_is_still_a_member() {
        for span in [10, 1_000_000] {
            let mut slab = Slab::for_scan(200, span);
            add(&mut slab, 7, 0.0);
            add(&mut slab, 9, 0.25);
            add(&mut slab, 9, -0.25);
            assert_eq!(sorted(&slab), vec![(7, 0.0), (9, 0.0)]);
        }
        assert!(Slab::<(u64, f64)>::for_scan(0, 0).slots().is_empty());
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
    /// tenant's 40 000: half the tuples, all of the span. Sized by the
    /// tuple count, its scans looked twice as dense as they are, were
    /// rationed accordingly and spilt to the map half way; sized by the
    /// span, every brute scan above the density constant is flat from its
    /// first posting to its last, and every one below it never leaves the
    /// map.
    #[test]
    fn a_shard_of_a_split_tenant_sums_flat_over_its_id_span() {
        use uncat_core::{CatId, Domain, Uda};
        use uncat_storage::{BufferPool, InMemoryDisk, QueryMetrics};

        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 400);
        let uda = |tid: u64| {
            let (a, b) = (CatId((tid % 7) as u32), CatId(7 + (tid % 11) as u32));
            Uda::from_pairs([(a, 0.5), (b, 0.5)]).unwrap()
        };
        let data: Vec<(u64, Uda)> = (0..40_000u64)
            .filter(|&tid| shard_of(tid, 2) == 0)
            .map(|tid| (tid, uda(tid)))
            .collect();
        let tuples = data.iter().map(|(t, u)| (*t, u));
        let idx = crate::InvertedIndex::build(Domain::anonymous(18), &mut pool, tuples).unwrap();
        assert!((19_000..21_000).contains(&idx.len()));
        assert!((39_990..=40_000).contains(&idx.tid_span()));

        let mut flat = 0;
        let queries: [&[u32]; 5] = [&[0], &[9], &[0, 9], &[1, 2, 3], &[2, 8, 12, 15]];
        for cats in queries {
            let p = 1.0 / cats.len() as f32;
            let q = Uda::from_pairs(cats.iter().map(|&c| (CatId(c), p))).unwrap();
            let postings: u64 = cats.iter().map(|&c| idx.list_len(CatId(c))).sum();
            let mut m = QueryMetrics::new();
            let scores = crate::search::exact_scores(&idx, &mut pool, &q, &mut m).unwrap();
            assert_eq!(m.postings_scanned, postings);
            if postings * 1024 >= idx.tid_span() * MIN_PER_1024 {
                assert_eq!(scores.flat.len() as u64, idx.tid_span(), "{cats:?}");
                assert!(scores.sparse.is_empty(), "{cats:?}");
                flat += 1;
            } else {
                assert_eq!(scores.flat_bytes(), 0, "{cats:?}");
            }
        }
        assert!((2..=3).contains(&flat), "queries on both sides: {flat}");
    }

    /// Tids from a handful of dense neighbourhoods scattered over the
    /// whole 32-bit range (plus a few beyond it): many repeats, most of
    /// them at or above any span the hints name.
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
        // and the map, with ids below, at and above the span (the size
        // hints decide the layout, and need not be true); and the flat
        // layout holds no more than 32 bytes per posting it was told of,
        // whatever the largest tid is.
        #[test]
        fn agrees_with_a_tid_map(
            adds in proptest::collection::vec((tid_strategy(), -4i32..5), 0..600),
            postings in 0u64..4_000,
            span in 0u64..20_000,
        ) {
            let mut slab = Slab::for_scan(postings, span);
            prop_assert!(slab.flat_bytes() <= 32 * postings);
            let mut model: TidMap<f64> = TidMap::default();
            for &(tid, d) in &adds {
                let delta = d as f64 * 0.1;
                add(&mut slab, tid, delta);
                *model.entry(tid).or_insert(0.0) += delta;
            }
            prop_assert!(slab.flat_bytes() <= 32 * postings);
            let mut got: Vec<(u64, u64)> =
                slab.slots().iter().map(|&(t, s)| (t, s.to_bits())).collect();
            let mut want: Vec<(u64, u64)> = model.iter().map(|(&t, s)| (t, s.to_bits())).collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert!(got.windows(2).all(|w| w[0].0 != w[1].0), "a tid came back twice");
            prop_assert_eq!(got, want);
        }

        // The slab against a map of first touches, with ids below, at and
        // above the span in either layout: an id keeps the index it was
        // first given, indices are dense in first-touch order, and exactly
        // the ids touched have a record.
        #[test]
        fn a_slab_keeps_first_touch_order(
            tids in proptest::collection::vec(tid_strategy(), 0..600),
            postings in 0u64..4_000,
            span in 0u64..20_000,
        ) {
            let mut slab: Slab<u64> = Slab::for_scan(postings, span);
            let flat = if takes_flat(postings, span) { span } else { 0 };
            prop_assert_eq!(slab.flat.len() as u64, flat);
            let mut model: TidMap<usize> = TidMap::default();
            for &tid in &tids {
                let next = model.len();
                let want = *model.entry(tid).or_insert(next);
                prop_assert_eq!(slab.slot(tid, || tid), want);
            }
            prop_assert_eq!(slab.slots().len(), model.len());
            for (&tid, &at) in &model {
                prop_assert_eq!(slab.slots()[at], tid);
                prop_assert_eq!(slab.get_mut(tid).copied(), Some(tid));
            }
            for &tid in &tids {
                let other = tid ^ 1;
                prop_assert_eq!(slab.get_mut(other).is_some(), model.contains_key(&other));
            }
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

    /// The measurement behind [`MIN_PER_1024`]: ns per posting
    /// (allocation, adds and the final walk of the sums) of the map
    /// layout, of the flat layout whatever the density, and of [`Slab`]
    /// as the full scan builds it, from dense lists down to a handful of
    /// postings per 1024 ids.
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
        println!("      span  per list  per 1024 |        map      flat      Slab");
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
            let map = ns_per_posting(postings, || feed(Slab::for_scan(0, span)));
            let flat = ns_per_posting(postings, || feed(Slab::for_scan(u64::MAX, span)));
            let chosen = ns_per_posting(postings, || feed(Slab::for_scan(postings as u64, span)));
            println!(
                "{span:>10} {per_list:>9} {per_1024:>9} | {map:>10.1} {flat:>9.1} {chosen:>9.1}"
            );
        }
    }
}
