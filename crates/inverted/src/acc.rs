//! The per-query score accumulator: `tid → f64`, no hash per posting
//! where the postings are dense enough to make that pay.
//!
//! Every full-list plan (brute-force PETQ, `Auto`'s fallback, the top-k
//! scan, DSTQ's partial distances) folds one term per posting into a
//! per-tuple sum. A hash map pays a hash, a probe and a possible grow on
//! every posting; the sums themselves are one add. [`ScoreAcc`] keeps
//! them in *slabs* instead: the tid space is cut into pages of
//! [`SLAB_LEN`] consecutive ids, a page gets a zeroed slab of `f64` slots
//! the first time one of its tids is touched, and a posting is
//! `slab[tid mod SLAB_LEN] += delta` plus one presence bit. Which slab
//! serves a page is looked up in a small `page → slab` table — but only
//! when the page differs from the previous posting's: tids ascend inside
//! a block, so a run of postings usually stays on one page.
//!
//! A slab is 8 KiB to zero and to keep in cache, so it only beats the
//! hash map when enough postings land on it: measured (the ignored
//! `density_sweep` below), the two cross between 30 and 150 postings per
//! 1024 ids, and at one posting per page the slab is a hundred times
//! slower. So slabs are rationed at [`MIN_PER_SLAB`] postings each. A
//! scan whose postings could not fill the pages of a dense id space at
//! that rate (a rare category on a large shard) starts on the hash map
//! the slabs replaced; a scan that turns out to touch more pages than
//! its ration (ids scattered over the u32 range) *spills* — its sums
//! move to the hash map and it continues there. Either way a tuple's
//! terms are added in arrival order, so its sum is bit-identical in both
//! layouts.
//!
//! Memory is proportional to the scan's postings — at most
//! `8 KiB / MIN_PER_SLAB` = 64 bytes each — never to the largest tid.

use crate::tid::TidMap;

/// Tuple ids per slab (8 KiB of sums): large enough that the ~150-id
/// strides inside a block of a 20 000-tuple list mostly stay on a page.
const SLAB_BITS: u32 = 10;
const SLAB_LEN: usize = 1 << SLAB_BITS;
const SLOT_MASK: u64 = SLAB_LEN as u64 - 1;

/// Postings per slab, averaged over the scan, below which the hash map is
/// the faster layout (see the module documentation).
const MIN_PER_SLAB: u64 = 128;

struct Slab {
    /// `tid >> SLAB_BITS` of every id this slab holds.
    page: u64,
    /// One bit per slot: whether [`ScoreAcc::add`] ever named it. A sum
    /// can be zero (or cancel to zero) and still belong to a candidate.
    present: [u64; SLAB_LEN / 64],
    sums: Box<[f64; SLAB_LEN]>,
}

impl Slab {
    fn new(page: u64) -> Slab {
        let sums: Box<[f64]> = vec![0.0; SLAB_LEN].into_boxed_slice();
        Slab {
            page,
            present: [0; SLAB_LEN / 64],
            sums: sums.try_into().expect("allocated with SLAB_LEN slots"),
        }
    }

    /// Every `(tid, sum)` of the slab, ascending.
    fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.present.iter().enumerate().flat_map(move |(w, &bits)| {
            SetBits(bits).map(move |b| {
                let slot = w * 64 + b as usize;
                ((self.page << SLAB_BITS) | slot as u64, self.sums[slot])
            })
        })
    }
}

/// Sums keyed by tuple id; see the module documentation.
pub(crate) struct ScoreAcc {
    slabs: Vec<Slab>,
    /// `page → index into slabs`.
    by_page: TidMap<u32>,
    /// The page the last `add` named and the index of its slab.
    current_page: u64,
    current: usize,
    /// The slab ration; 0 once the sums live in `sparse`.
    max_slabs: usize,
    /// The hash-map layout: empty until the scan starts on it or spills.
    sparse: TidMap<f64>,
}

impl ScoreAcc {
    /// An accumulator for a scan of `postings` postings over an index of
    /// `tuples` tuples.
    pub(crate) fn for_scan(postings: u64, tuples: u64) -> ScoreAcc {
        let ration = postings / MIN_PER_SLAB;
        // Ids are handed out densely as a rule; where they are, the scan
        // has this many pages to touch, and usually touches them all.
        let dense_pages = tuples.div_ceil(SLAB_LEN as u64);
        let max_slabs = if dense_pages > ration { 0 } else { ration };
        ScoreAcc {
            slabs: Vec::new(),
            by_page: TidMap::default(),
            // No tid has this page number: they are below 2^54.
            current_page: u64::MAX,
            current: 0,
            max_slabs: max_slabs as usize,
            sparse: TidMap::default(),
        }
    }

    /// Add `delta` to `tid`'s sum (which starts at `0.0`).
    #[inline]
    pub(crate) fn add(&mut self, tid: u64, delta: f64) {
        let page = tid >> SLAB_BITS;
        if page != self.current_page && !self.turn_to(page) {
            *self.sparse.entry(tid).or_insert(0.0) += delta;
            return;
        }
        let slab = &mut self.slabs[self.current];
        let slot = (tid & SLOT_MASK) as usize;
        slab.sums[slot] += delta;
        slab.present[slot / 64] |= 1 << (slot % 64);
    }

    /// Make `page`'s slab the current one, allocating it if the ration
    /// allows. `false` when the sums are (now) in the hash map.
    fn turn_to(&mut self, page: u64) -> bool {
        if self.max_slabs == 0 {
            return false;
        }
        let at = match self.by_page.get(&page) {
            Some(&at) => at as usize,
            None if self.slabs.len() == self.max_slabs => {
                self.spill();
                return false;
            }
            None => {
                self.by_page.insert(page, self.slabs.len() as u32);
                self.slabs.push(Slab::new(page));
                self.slabs.len() - 1
            }
        };
        self.current = at;
        self.current_page = page;
        true
    }

    /// The scan touches more pages than its postings can fill: move every
    /// sum to the hash map and stay there.
    #[cold]
    fn spill(&mut self) {
        self.sparse.reserve(self.len());
        for slab in std::mem::take(&mut self.slabs) {
            self.sparse.extend(slab.iter());
        }
        self.by_page = TidMap::default();
        self.current_page = u64::MAX;
        self.max_slabs = 0;
    }

    /// Distinct tuple ids added so far.
    pub(crate) fn len(&self) -> usize {
        let in_slabs: usize = self
            .slabs
            .iter()
            .flat_map(|s| &s.present)
            .map(|w| w.count_ones() as usize)
            .sum();
        in_slabs + self.sparse.len()
    }

    /// Every `(tid, sum)`, in no promised order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        let sparse = self.sparse.iter().map(|(&tid, &sum)| (tid, sum));
        self.slabs.iter().flat_map(Slab::iter).chain(sparse)
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
        /// Slabs allocated right now.
        fn slabs(&self) -> usize {
            self.slabs.len()
        }
    }

    fn sorted(acc: &ScoreAcc) -> Vec<(u64, f64)> {
        let mut got: Vec<(u64, f64)> = acc.iter().collect();
        got.sort_by_key(|&(tid, _)| tid);
        got
    }

    #[test]
    fn dense_scans_get_slabs_and_sparse_ones_the_hash_map() {
        // 6 000 postings over 20 000 dense ids: 20 pages, 300 postings each.
        let mut dense = ScoreAcc::for_scan(6_000, 20_000);
        for tid in (0..20_000).step_by(5) {
            dense.add(tid, 1.0);
        }
        assert_eq!((dense.len(), dense.slabs()), (4_000, 20));
        assert!(dense.sparse.is_empty());

        // The same postings over 1 000 000 ids cannot fill 977 pages.
        let mut sparse = ScoreAcc::for_scan(6_000, 1_000_000);
        for tid in (0..1_000_000).step_by(250) {
            sparse.add(tid, 1.0);
        }
        assert_eq!((sparse.len(), sparse.slabs()), (4_000, 0));
    }

    #[test]
    fn a_scan_past_its_ration_spills_and_keeps_every_sum() {
        // Few tuples, so the scan starts on slabs — but their ids are far
        // apart, one page each, and 1 024 postings buy 8 slabs.
        let mut acc = ScoreAcc::for_scan(1_024, 100);
        let tid = |i: u64| i * (u32::MAX as u64 / 16) + i;
        for i in 0..8 {
            acc.add(tid(i), 0.5);
            acc.add(tid(i) + 1, 0.0);
        }
        assert_eq!((acc.len(), acc.slabs()), (16, 8));
        acc.add(tid(3), 0.25); // a page it already has
        assert_eq!(acc.slabs(), 8);
        acc.add(tid(8), 1.0); // the ninth
        assert_eq!((acc.len(), acc.slabs()), (17, 0));
        acc.add(tid(3), 0.25);
        acc.add(u64::MAX, 2.0);
        let mut want: Vec<(u64, f64)> = (0..8)
            .flat_map(|i| [(tid(i), if i == 3 { 1.0 } else { 0.5 }), (tid(i) + 1, 0.0)])
            .chain([(tid(8), 1.0), (u64::MAX, 2.0)])
            .collect();
        want.sort_by_key(|&(tid, _)| tid);
        assert_eq!(sorted(&acc), want);
    }

    #[test]
    fn a_zero_sum_is_still_a_member() {
        for tuples in [10, 1_000_000] {
            let mut acc = ScoreAcc::for_scan(200, tuples);
            acc.add(7, 0.0);
            acc.add(9, 0.25);
            acc.add(9, -0.25);
            assert_eq!(acc.len(), 2);
            assert_eq!(sorted(&acc), vec![(7, 0.0), (9, 0.0)]);
        }
        assert_eq!(ScoreAcc::for_scan(0, 0).iter().count(), 0);
    }

    /// Tids from a handful of dense neighbourhoods scattered over the
    /// whole 32-bit range (plus a few beyond it): many repeats, many page
    /// switches, pages far apart.
    fn tid_strategy() -> impl Strategy<Value = u64> {
        (0u64..8, 0u64..3000, 0u32..20).prop_map(|(hood, offset, far)| {
            let base = hood * (u32::MAX as u64 / 7);
            if far == 0 {
                u64::MAX - offset
            } else {
                base.saturating_sub(1500) + offset
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Against the hash map it replaces: same members, and — the adds
        // for one tid arrive in the same order — bit-identical sums, for
        // duplicates, negative and zero deltas alike, whether the scan
        // stays on slabs, starts on the hash map or spills half way (the
        // size hints decide, and need not be true); and the slabs never
        // outnumber the touched pages or the ration, whatever the largest
        // tid is.
        #[test]
        fn agrees_with_a_tid_map(
            adds in proptest::collection::vec((tid_strategy(), -4i32..5), 0..600),
            postings in 0u64..4_000,
            tuples in 0u64..20_000,
        ) {
            let mut acc = ScoreAcc::for_scan(postings, tuples);
            let mut model: TidMap<f64> = TidMap::default();
            for &(tid, d) in &adds {
                let delta = d as f64 * 0.1;
                acc.add(tid, delta);
                *model.entry(tid).or_insert(0.0) += delta;
                prop_assert!(acc.slabs() as u64 <= postings / MIN_PER_SLAB);
            }
            prop_assert_eq!(acc.len(), model.len());
            let mut got: Vec<(u64, u64)> = acc.iter().map(|(t, s)| (t, s.to_bits())).collect();
            let mut want: Vec<(u64, u64)> = model.iter().map(|(&t, s)| (t, s.to_bits())).collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert!(got.windows(2).all(|w| w[0].0 != w[1].0), "a tid came back twice");
            prop_assert_eq!(got, want);
            let pages: std::collections::HashSet<u64> =
                adds.iter().map(|&(tid, _)| tid >> SLAB_BITS).collect();
            prop_assert!(acc.slabs() <= pages.len());
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

    /// The measurement behind [`MIN_PER_SLAB`] and the two rules that
    /// apply it: ns per posting (allocation, adds and the final walk) of
    /// a hash map, of slabs with no ration, and of [`ScoreAcc`] as a scan
    /// builds it, from dense lists to one posting per page.
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
        println!("    tuples  per list  per slab | hash map  all slabs  ScoreAcc (slabs)");
        for (tuples, per_list) in [
            (20_000u64, 2_000usize),
            (20_000, 200),
            (100_000, 10_000),
            (100_000, 2_000),
            (1_000_000, 100_000),
            (1_000_000, 50_000),
            (1_000_000, 20_000),
            (1_000_000, 2_000),
            (10_000_000, 5_000),
            (u32::MAX as u64, 2_000),
        ] {
            let lists = block_ordered_lists(tuples, per_list, 42);
            let postings = 3 * per_list;
            let feed = |acc: &mut ScoreAcc| {
                for list in &lists {
                    for &tid in list {
                        acc.add(tid, 0.3);
                    }
                }
                acc.iter().map(|(_, sum)| sum).sum::<f64>()
            };
            let hash = ns_per_posting(postings, || {
                let mut map: TidMap<f64> = TidMap::default();
                for list in &lists {
                    for &tid in list {
                        *map.entry(tid).or_insert(0.0) += 0.3;
                    }
                }
                map.values().sum()
            });
            let slabs = ns_per_posting(postings, || {
                let mut acc = ScoreAcc::for_scan(postings as u64, 0);
                acc.max_slabs = usize::MAX;
                feed(&mut acc)
            });
            // A shard of dense ids, and the same ids on a shard that
            // holds few tuples: the second can only find out by spilling.
            let mut left = 0;
            let [known, spilt] = [tuples, 1].map(|hint| {
                ns_per_posting(postings, || {
                    let mut acc = ScoreAcc::for_scan(postings as u64, hint);
                    let sum = feed(&mut acc);
                    left = acc.slabs();
                    sum
                })
            });
            let per_slab = postings as f64 / tuples.div_ceil(SLAB_LEN as u64) as f64;
            println!(
                "{tuples:>10} {per_list:>9} {per_slab:>9.1} | {hash:>8.1} {slabs:>10.1} {known:>9.1} / {spilt:.1} unhinted ({left})"
            );
        }
    }
}
