//! The per-query score accumulator: `tid → f64`, no hash per posting
//! where the postings are dense enough to make that pay.
//!
//! Every full-list plan (brute-force PETQ and PEQ, and DSTQ's partial
//! distances) folds one term per posting into a per-tuple sum.
//! [`ScoreAcc`] holds the sums in one of two layouts,
//! chosen once when the scan starts from the two numbers the index
//! already has — how many postings the query's lists hold, and the span
//! of its tuple ids ([`crate::InvertedIndex::tid_span`], one past the
//! largest id it ever indexed):
//!
//! * *flat*: one zeroed `f64` per id of the span plus a presence bit; a
//!   posting is `sums[tid] += delta` and one bit-or;
//! * *map*: a [`TidMap`] with room for every posting from the start, so
//!   a posting is a hash and a probe but never a rehash.
//!
//! The flat layout has the whole span to zero before the scan and to walk
//! after it, so it wins once postings are dense enough in the span.
//! Measured (the ignored `density_sweep` below), flat and map cross
//! between 30 and 60 postings per 1024 ids on spans of 20 000 to 100 000
//! ids and between 60 and 120 on a span of 1 000 000; at 6 per 1024 the
//! flat layout is four to thirteen times slower. The flat layout is
//! taken from [`MIN_PER_1024`] postings per 1024 ids up: above
//! every crossing measured, and the density at which its 8 bytes and a
//! bit per id come to 64 bytes per posting scanned — the bound a scan
//! starts within in either layout (a map slot is 17 bytes, at most 2.3
//! slots a posting), whatever the largest tid. The density is taken over
//! the span, not the tuple count: a service shard holds 1/*n* of its
//! tenant's tuples and ids from all of their range.
//!
//! Either way a tuple's terms are added in arrival order, so its sum is
//! bit-identical in both layouts.
//!
//! [`Slab`] makes the same choice for an executor that keeps more than a
//! sum per tuple (`Auto`'s PETQ and top-k, and a metric DSTQ's
//! [`Partial`] distances): its records are dense, in first-touch order,
//! and an id finds its record through a `u32` per id of the span or a
//! [`TidMap`], by the same rule.
//!
//! Those executors meet a tuple's terms in an order the data decides, so
//! they add them with [`TwoSum`]: the result does not depend on it.

use uncat_core::distance::TwoSum;

use crate::tid::TidMap;

/// Postings per 1024 ids of span from which a scan sums into the flat
/// layout (see the module documentation).
const MIN_PER_1024: u64 = 130;

/// Sums keyed by tuple id; see the module documentation.
pub(crate) struct ScoreAcc {
    /// The flat layout: the sum of each id below the span the scan was
    /// sized for. Empty in the map layout.
    sums: Vec<f64>,
    /// One bit per slot of `sums`: whether [`ScoreAcc::add`] ever named
    /// it. A sum can be zero (or cancel to zero) and still belong to a
    /// candidate.
    present: Vec<u64>,
    /// The map layout — and, beside the flat one, any id at or above the
    /// span (an index hands out none).
    sparse: TidMap<f64>,
}

impl ScoreAcc {
    /// An accumulator for a scan of `postings` postings over an index
    /// whose tuple ids are all below `span`.
    pub(crate) fn for_scan(postings: u64, span: u64) -> ScoreAcc {
        let flat = takes_flat(postings, span);
        let slots = if flat { span as usize } else { 0 };
        ScoreAcc {
            sums: vec![0.0; slots],
            present: vec![0; slots.div_ceil(64)],
            // No tuple id arrives more often than there are postings:
            // sized once, the map never rehashes to grow.
            sparse: TidMap::with_capacity_and_hasher(
                if flat { 0 } else { postings as usize },
                Default::default(),
            ),
        }
    }

    /// Add `delta` to `tid`'s sum (which starts at `0.0`).
    #[inline]
    pub(crate) fn add(&mut self, tid: u64, delta: f64) {
        if tid < self.sums.len() as u64 {
            let slot = tid as usize;
            self.sums[slot] += delta;
            self.present[slot / 64] |= 1 << (slot % 64);
        } else {
            *self.sparse.entry(tid).or_insert(0.0) += delta;
        }
    }

    /// Distinct tuple ids added so far.
    pub(crate) fn len(&self) -> usize {
        let flat: usize = self.present.iter().map(|w| w.count_ones() as usize).sum();
        flat + self.sparse.len()
    }

    /// Every `(tid, sum)`, in no promised order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        let flat = self.present.iter().enumerate().flat_map(move |(w, &bits)| {
            SetBits(bits).map(move |b| {
                let slot = w * 64 + b as usize;
                (slot as u64, self.sums[slot])
            })
        });
        flat.chain(self.sparse.iter().map(|(&tid, &sum)| (tid, sum)))
    }
}

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

/// Per-tuple records of an executor that keeps more than a sum: dense, in
/// first-touch order, found by tuple id through [`ScoreAcc`]'s two
/// layouts, chosen by the same rule.
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

/// The positions of a word's set bits, ascending.
struct SetBits(u64);

impl Iterator for SetBits {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl ScoreAcc {
        /// Bytes the flat layout holds (none in the map layout).
        fn flat_bytes(&self) -> u64 {
            8 * (self.sums.capacity() + self.present.capacity()) as u64
        }
    }

    fn sorted(acc: &ScoreAcc) -> Vec<(u64, f64)> {
        let mut got: Vec<(u64, f64)> = acc.iter().collect();
        got.sort_by_key(|&(tid, _)| tid);
        got
    }

    #[test]
    fn dense_scans_take_the_flat_layout_and_sparse_ones_the_map() {
        // 6 000 postings over a span of 20 000 ids: 300 per 1024.
        let mut dense = ScoreAcc::for_scan(6_000, 20_000);
        for tid in (0..20_000).step_by(5) {
            dense.add(tid, 1.0);
        }
        assert_eq!(dense.len(), 4_000);
        assert_eq!(dense.sums.len(), 20_000);
        assert!(dense.sparse.is_empty());

        // The same postings over a span of 1 000 000: 6 per 1024.
        let mut sparse = ScoreAcc::for_scan(6_000, 1_000_000);
        for tid in (0..1_000_000).step_by(250) {
            sparse.add(tid, 1.0);
        }
        assert_eq!((sparse.len(), sparse.flat_bytes()), (4_000, 0));

        // The fewest postings that buy the flat layout buy it within the
        // memory bound, at every span.
        for span in 0..40_000u64 {
            let postings = (span * MIN_PER_1024).div_ceil(1024);
            let acc = ScoreAcc::for_scan(postings, span);
            assert_eq!(acc.sums.len() as u64, span);
            assert!(acc.flat_bytes() <= 64 * postings, "span {span}");
            if postings > 0 {
                assert_eq!(ScoreAcc::for_scan(postings - 1, span).flat_bytes(), 0);
            }
        }
    }

    #[test]
    fn an_id_at_or_above_the_span_keeps_its_sum() {
        let mut acc = ScoreAcc::for_scan(1_000, 100);
        for tid in [99, 100, 101, u64::MAX, 100, 99] {
            acc.add(tid, 0.5);
        }
        let want = vec![(99, 1.0), (100, 1.0), (101, 0.5), (u64::MAX, 0.5)];
        assert_eq!((acc.len(), sorted(&acc)), (4, want));
    }

    #[test]
    fn a_zero_sum_is_still_a_member() {
        for span in [10, 1_000_000] {
            let mut acc = ScoreAcc::for_scan(200, span);
            acc.add(7, 0.0);
            acc.add(9, 0.25);
            acc.add(9, -0.25);
            assert_eq!(acc.len(), 2);
            assert_eq!(sorted(&acc), vec![(7, 0.0), (9, 0.0)]);
        }
        assert_eq!(ScoreAcc::for_scan(0, 0).iter().count(), 0);
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
    /// span, every scan above the density constant is flat from its first
    /// posting to its last, and every one below it never leaves the map.
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
            let acc = crate::search::accumulate(&idx, &mut pool, &q, &mut m, |qp, p| qp * p);
            let acc = acc.unwrap();
            assert_eq!(m.postings_scanned, postings);
            if postings * 1024 >= idx.tid_span() * MIN_PER_1024 {
                assert_eq!(acc.sums.len() as u64, idx.tid_span(), "{cats:?}");
                assert!(acc.sparse.is_empty(), "{cats:?}");
                flat += 1;
            } else {
                assert_eq!(acc.flat_bytes(), 0, "{cats:?}");
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

        // Against the hash map it replaces: same members, and — the adds
        // for one tid arrive in the same order — bit-identical sums, for
        // duplicates, negative and zero deltas alike, in the flat layout
        // and the map, with ids below, at and above the span (the size
        // hints decide the layout, and need not be true); and the flat
        // scan starts with no more than 64 bytes per posting it was told
        // of — flat or map — whatever the largest tid is.
        #[test]
        fn agrees_with_a_tid_map(
            adds in proptest::collection::vec((tid_strategy(), -4i32..5), 0..600),
            postings in 0u64..4_000,
            span in 0u64..20_000,
        ) {
            let mut acc = ScoreAcc::for_scan(postings, span);
            // A slot of the map is a 16-byte pair and a control byte, and
            // one in eight stays empty.
            let map_bytes = 20 * acc.sparse.capacity() as u64;
            prop_assert!(acc.flat_bytes() + map_bytes <= 64 * postings);
            let mut model: TidMap<f64> = TidMap::default();
            for &(tid, d) in &adds {
                let delta = d as f64 * 0.1;
                acc.add(tid, delta);
                *model.entry(tid).or_insert(0.0) += delta;
            }
            prop_assert!(acc.flat_bytes() <= 64 * postings);
            prop_assert_eq!(acc.len(), model.len());
            let mut got: Vec<(u64, u64)> = acc.iter().map(|(t, s)| (t, s.to_bits())).collect();
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
    /// (allocation, adds and the final walk) of the map, of the flat
    /// layout whatever the density, and of [`ScoreAcc`] as a scan builds
    /// it, from dense lists down to a handful of postings per 1024 ids.
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
        println!("      span  per list  per 1024 |  grown map  sized map      flat  ScoreAcc");
        let densities = [300u64, 150, 120, 60, 30, 15, 6];
        let spans = [20_000u64, 100_000, 1_000_000];
        for (span, per_1024) in spans.iter().flat_map(|&s| densities.map(|d| (s, d))) {
            let per_list = (span * per_1024 / 1024 / 3) as usize;
            let lists = block_ordered_lists(span, per_list, 42);
            let postings = 3 * per_list;
            let feed = |mut acc: ScoreAcc| {
                for list in &lists {
                    for &tid in list {
                        acc.add(tid, 0.3);
                    }
                }
                acc.iter().map(|(_, sum)| sum).sum::<f64>()
            };
            // The map as a scan used to start it, and as it starts it now.
            let grown = ns_per_posting(postings, || feed(ScoreAcc::for_scan(0, span)));
            let sized = ns_per_posting(postings, || {
                feed(ScoreAcc::for_scan(postings as u64, u64::MAX))
            });
            let flat = ns_per_posting(postings, || feed(ScoreAcc::for_scan(u64::MAX, span)));
            let chosen =
                ns_per_posting(postings, || feed(ScoreAcc::for_scan(postings as u64, span)));
            println!(
                "{span:>10} {per_list:>9} {per_1024:>9} | {grown:>10.1} {sized:>10.1} {flat:>9.1} {chosen:>9.1}"
            );
        }
    }
}
