//! Distributional similarity queries (DSTQ and DS-top-k) over the
//! inverted index.
//!
//! The paper notes that "it is straightforward to adapt our framework of
//! indexing to distributional similarity queries"; this module is that
//! adaptation. For the metric divergences a tuple's exact distance needs
//! nothing but its postings in the query's lists and two numbers of its
//! own, `mass(t)` and `‖t‖₂²`, which the norm column holds
//! (`crate::index::Norms`):
//!
//! ```text
//! L1(q,t)  = mass(q) + Σ_j (|q_j − t_j| − q_j)     + (mass(t) − Σ_j t_j)
//! L2²(q,t) = ‖q‖₂²   + Σ_j ((q_j − t_j)² − q_j²)  + (‖t‖₂²  − Σ_j t_j²)
//! ```
//!
//! with `j` over `t`'s postings in the query's lists. The last bracket is
//! what `t` holds off the query's support; it is 0, exactly, when those
//! postings are all `t` has. Each term is converted to fixed point exactly
//! as [`Divergence::eval`] converts it for its category
//! ([`ExactSum`]), so the brackets add up, as integers, to `eval`'s sum:
//! the distance is `eval`'s bit for bit, whatever order the terms arrive
//! in — and a tuple equal to the query is at exactly 0.
//!
//! A DSTQ and a DS-top-k are one search with a selection `(k, ceiling)`
//! into one [`BottomKHeap`]: a DSTQ is `(usize::MAX, τ_d)`, a DS-top-k
//! `(k, +∞)`. The heap's bound is the ceiling until `k` tuples are in
//! it, then the k-th smallest distance; every cut below is at that bound.
//!
//! * **Radius windows.** `|q_j − t_j|` is at most both distances, so the
//!   search reads list `j` only over the blocks that can hold a posting
//!   in `[q_j − τ − ε, q_j + τ + ε]` for a ceiling `τ`
//!   ([`crate::block::BlockList::blocks_between`]; with no ceiling, the
//!   whole list); the rest are `blocks_skipped`. A tuple with a posting
//!   in a skipped block is farther than `τ + ε`, and the sums above,
//!   which miss the posting, put it farther still: by `2·min(q_j, t_j)`
//!   in L1 and by `2·q_j·t_j` in L2². So every tuple computed within `τ`
//!   had no posting skipped, and its distance is exact.
//! * **Deciding.** A tuple beyond the bound on the first two terms alone
//!   is cut before its norms are looked up, since the last bracket only
//!   adds; any other is offered to the heap at its distance. Nothing is
//!   fetched. The answer is `candidates_settled`, every other tuple met
//!   `candidates_pruned`. A tuple sharing no category with the query is
//!   at `mass(q) + mass(t)` (L1) or `√(‖q‖₂² + ‖t‖₂²)` (L2): those are
//!   walked from the column, unless the column's floor puts every one of
//!   them beyond the bound.
//!
//! KL is not a metric and has no sound bound — which is why the paper
//! uses it only for clustering — so a KL query scans the tuple store
//! (`heap_tuples_scanned`). So does the first metric query an index
//! answers: it fills the norm column.

use uncat_core::distance::{self, ExactSum, Norm};
use uncat_core::equality::THRESHOLD_EPS;
use uncat_core::query::{DsTopKQuery, DstQuery, Match};
use uncat_core::topk::BottomKHeap;
use uncat_core::{Divergence, Uda};
use uncat_storage::{BufferPool, Phase, QueryMetrics, Result};

use crate::acc::{Partial, Slab};
use crate::index::InvertedIndex;
use crate::search::query_lists;

/// One metric query's distance kernel: what a posting adds to its
/// tuple's [`Partial`], and the distance a partial and the tuple's norms
/// make (see the module documentation).
struct Metric {
    /// L2 (sums of squares, rooted at the end) rather than L1.
    squared: bool,
    /// `mass(q)` for L1, `‖q‖₂²` for L2: every tuple's sum before its
    /// postings swap their lists' terms for their own.
    base: ExactSum,
}

impl Metric {
    /// `None` for KL: not a metric, the query scans.
    fn new(q: &Uda, divergence: Divergence) -> Option<Metric> {
        let squared = match divergence {
            Divergence::L1 => false,
            Divergence::L2 => true,
            Divergence::Kl => return None,
        };
        let norm = distance::norms(q.entries().iter().copied());
        let base = if squared { norm.sq } else { norm.mass };
        Some(Metric { squared, base })
    }

    /// A posting `p` in the list of a category with query probability
    /// `qp`: its tuple's term there is no longer `qp` (L1) or `qp²` (L2)
    /// but the real one.
    #[inline]
    fn add(&self, t: &mut Partial, qp: f64, p: f64) {
        if self.squared {
            let d = qp - p;
            t.on.add(d * d);
            t.on.add(-(qp * qp));
            t.own.add(p * p);
        } else {
            t.on.add((qp - p).abs());
            t.on.add(-qp);
            t.own.add(p);
        }
    }

    /// `mass(t)` for L1, `‖t‖₂²` for L2.
    fn own(&self, norm: &Norm) -> ExactSum {
        if self.squared {
            norm.sq
        } else {
            norm.mass
        }
    }

    /// The distance of a tuple whose postings read are `t` on the query's
    /// support alone. What it holds off the support only adds to it, so
    /// this is at most its distance.
    fn on_support(&self, t: &Partial) -> f64 {
        self.root(self.base + t.on)
    }

    /// The distance of a tuple whose postings read are `t`, given its
    /// norms: what it holds off the lists read is its own sum less what
    /// they showed of it.
    fn distance(&self, t: &Partial, norm: &Norm) -> f64 {
        self.root(self.base + t.on + (self.own(norm) - t.own))
    }

    /// The distance of a tuple with no posting in the lists read.
    fn disjoint(&self, norm: &Norm) -> f64 {
        self.root(self.base + self.own(norm))
    }

    fn root(&self, sum: ExactSum) -> f64 {
        if self.squared {
            sum.value().sqrt()
        } else {
            sum.value()
        }
    }

    /// Read each of the query's lists over the blocks that can hold a
    /// posting within `reach` of its query probability (every block when
    /// `reach` is ∞) into one [`Partial`] per tuple met. Ticks
    /// `lists_opened`, `blocks_skipped` for the blocks outside a window
    /// and what [`crate::block::BlockList::scan_blocks`] ticks.
    fn scan(
        &self,
        idx: &InvertedIndex,
        pool: &mut BufferPool,
        q: &Uda,
        reach: f64,
        metrics: &mut QueryMetrics,
    ) -> Result<Slab<Partial>> {
        let lists = query_lists(idx, q);
        let mut slab = Slab::for_index(idx);
        metrics.lists_opened += lists.len() as u64;
        let span = pool.trace_begin(Phase::PostingScan);
        let mut scanned = Ok(());
        for (_, qp, list) in lists {
            let window = list.blocks_between(qp - reach, qp + reach);
            metrics.blocks_skipped += (list.blocks().len() - window.len()) as u64;
            scanned = list.scan_blocks(idx.block_heap(), pool, window, metrics, |tid, p| {
                let i = slab.slot(tid, || Partial::new(tid));
                self.add(&mut slab.slots_mut()[i], qp, p as f64);
            });
            if scanned.is_err() {
                break;
            }
        }
        pool.trace_end(span);
        scanned.map(|()| slab)
    }
}

impl InvertedIndex {
    /// Evaluate a DSTQ: all tuples with `F(q, t) ≤ τ_d`, in ascending
    /// divergence order.
    ///
    /// L1 and L2 read the query's lists over their radius windows and
    /// settle every tuple from them and the norm column, fetching
    /// nothing; KL scans the tuple store (`heap_tuples_scanned`), as does
    /// the first metric query, to fill the column. A negative or NaN
    /// radius admits nothing and reads nothing.
    pub fn dstq(&self, pool: &mut BufferPool, query: &DstQuery) -> Result<Vec<Match>> {
        self.distance_search(pool, &query.q, query.divergence, usize::MAX, query.tau_d)
    }

    /// DSQ-top-k: the `k` distributionally closest tuples, ascending by
    /// divergence: [`InvertedIndex::dstq`]'s search with no radius,
    /// keeping the `k` best. L1 and L2 read the query's lists whole;
    /// the tuples sharing no category with the query are walked from the
    /// column unless the `k` found are all nearer than the column's floor
    /// lets any of them be.
    pub fn ds_top_k(&self, pool: &mut BufferPool, query: &DsTopKQuery) -> Result<Vec<Match>> {
        self.distance_search(pool, &query.q, query.divergence, query.k, f64::INFINITY)
    }

    /// The one distance search: the at most `k` tuples nearest `q` under
    /// `dv` within `ceiling`, ascending. A search for no results (`k` of
    /// 0, a negative or NaN ceiling) reads nothing. Every tuple met in
    /// the lists or walked from the column is `candidates_generated`; the
    /// answer is `candidates_settled`, the rest `candidates_pruned`.
    fn distance_search(
        &self,
        pool: &mut BufferPool,
        q: &Uda,
        dv: Divergence,
        k: usize,
        ceiling: f64,
    ) -> Result<Vec<Match>> {
        if k == 0 || ceiling.is_nan() || ceiling < 0.0 {
            return Ok(Vec::new());
        }
        pool.tally(|pool, metrics| {
            let mut heap = BottomKHeap::new(k, ceiling);
            let Some(metric) = Metric::new(q, dv) else {
                let scan = pool.trace_begin(Phase::HeapScan);
                let scanned = self.scan_tuples(pool, |tid, t| {
                    metrics.heap_tuples_scanned += 1;
                    heap.offer(tid, dv.eval(q.entries(), t.entries()));
                });
                pool.trace_end(scan);
                return scanned.map(|()| heap.into_sorted());
            };
            let norms = self.norms(pool, metrics)?;
            let slab = metric.scan(self, pool, q, ceiling + THRESHOLD_EPS, metrics)?;
            for t in slab.slots() {
                let tid = t.tid as u64;
                // Out of reach on the query's support alone: no norms needed.
                if metric.on_support(t) > heap.bound() {
                    continue;
                }
                heap.offer(tid, metric.distance(t, norms.get(tid)?));
            }
            let mut met = slab.slots().len() as u64;
            // The nearest a tuple sharing nothing can be (∞: none is held).
            let nearest = norms.floor.map_or(f64::INFINITY, |f| metric.disjoint(&f));
            if nearest <= heap.bound() {
                for (tid, norm) in norms.iter().filter(|&(tid, _)| !slab.contains(tid)) {
                    met += 1;
                    heap.offer(tid, metric.disjoint(norm));
                }
            }
            let out = heap.into_sorted();
            metrics.candidates_generated += met;
            metrics.candidates_settled += out.len() as u64;
            metrics.candidates_pruned += met - out.len() as u64;
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uncat_core::query::sort_matches_asc;
    use uncat_core::{CatId, Domain};
    use uncat_storage::InMemoryDisk;

    const CATS: u32 = 6;

    /// One to three categories with any mass in (0, 1]: sub-unit-mass
    /// tuples are what an incomplete distribution looks like, and the
    /// distance may not assume the missing mass away.
    fn uda_strategy() -> impl Strategy<Value = Uda> {
        proptest::collection::vec((0..CATS, 1u32..=33), 1..=3).prop_map(|pairs| {
            let mut seen = std::collections::BTreeMap::new();
            for (c, w) in pairs {
                seen.entry(c).or_insert(w as f32 / 100.0);
            }
            Uda::from_pairs(seen.into_iter().map(|(c, p)| (CatId(c), p))).unwrap()
        })
    }

    /// Every tuple's distance from the lists read whole and the norm
    /// column — met in the lists or walked from the column — is
    /// [`Divergence::eval`]'s bit for bit, so 0 for a tuple equal to `q`.
    fn check_distances(
        idx: &InvertedIndex,
        pool: &mut BufferPool,
        data: &std::collections::BTreeMap<u64, Uda>,
        q: &Uda,
        dv: Divergence,
    ) {
        let metric = Metric::new(q, dv).unwrap();
        let mut m = QueryMetrics::new();
        let norms = idx.norms(pool, &mut m).unwrap();
        let slab = metric.scan(idx, pool, q, f64::INFINITY, &mut m).unwrap();
        let overlapping = data
            .values()
            .filter(|t| t.iter().any(|(c, _)| q.prob_of(c) > 0.0))
            .count();
        prop_assert_eq!(slab.slots().len(), overlapping);
        for (&tid, t) in data {
            let norm = norms.get(tid).unwrap();
            let got = match slab.slots().iter().find(|p| p.tid as u64 == tid) {
                Some(partial) => metric.distance(partial, norm),
                None => metric.disjoint(norm),
            };
            let want = dv.eval(q.entries(), t.entries());
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{:?}: tuple {} at {}, eval {}",
                dv,
                tid,
                got,
                want
            );
            if t == q {
                prop_assert_eq!(got, 0.0, "{:?}: a tuple equal to q", dv);
            }
        }
    }

    /// DSTQs against the scan of `data`, at `radius` and at a tuple's own
    /// distance, a hair below and a hair above it: the same tuples in the
    /// same order, `eval`'s scores bit for bit, nothing fetched, and no
    /// tuple-store scan once the column is filled.
    fn check_dstq(
        idx: &InvertedIndex,
        pool: &mut BufferPool,
        data: &std::collections::BTreeMap<u64, Uda>,
        q: &Uda,
        dv: Divergence,
        radius: f64,
        pick: usize,
    ) {
        let dists: Vec<f64> = data
            .values()
            .map(|t| dv.eval(q.entries(), t.entries()))
            .collect();
        let at = dists[pick % dists.len()];
        for radius in [radius, at, at - 1e-12, at + 1e-12] {
            pool.reset_stats();
            let got = idx
                .dstq(pool, &DstQuery::new(q.clone(), radius, dv))
                .unwrap();
            let m = pool.metrics();
            let mut want: Vec<Match> = data
                .keys()
                .zip(&dists)
                .map(|(&tid, &d)| Match::new(tid, d))
                .filter(|m| m.score <= radius)
                .collect();
            sort_matches_asc(&mut want);
            let tids = |v: &[Match]| v.iter().map(|m| m.tid).collect::<Vec<_>>();
            prop_assert_eq!(tids(&got), tids(&want), "{:?} at {}", dv, radius);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.score.to_bits(), w.score.to_bits(), "{:?} vs {:?}", g, w);
            }
            prop_assert!(m.candidate_invariant_holds());
            prop_assert_eq!(m.candidates_verified, 0);
            prop_assert_eq!(m.heap_tuples_scanned, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Every tuple's distance from the lists and the norm column is
        // `eval`'s bit for bit — tuples of mass below 1, tuples equal to the
        // query (at exactly 0), tuples sharing nothing with it — and the
        // windowed DSTQ answers what the scan answers, at radii on and
        // beside a tuple's distance too, on the built index and again
        // after inserts, updates and deletes have kept the column.
        #[test]
        fn support_bound_is_sound_and_dstq_is_exact(
            tuples in proptest::collection::vec(uda_strategy(), 1..60),
            q in uda_strategy(),
            radius in 0.0f64..1.2,
            pick in 0usize..100,
            changes in proptest::collection::vec((0u64..70, uda_strategy(), 0u8..3), 0..20),
        ) {
            let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
            let mut data: std::collections::BTreeMap<u64, Uda> = (0u64..).zip(tuples).collect();
            data.insert(data.len() as u64, q.clone());
            let mut idx = InvertedIndex::build(
                Domain::anonymous(CATS),
                &mut pool,
                data.iter().map(|(t, u)| (*t, u)),
            )
            .unwrap();
            pool.reset_stats();
            for dv in [Divergence::L1, Divergence::L2] {
                check_distances(&idx, &mut pool, &data, &q, dv);
                check_dstq(&idx, &mut pool, &data, &q, dv, radius, pick);
            }
            for (tid, t, op) in changes {
                match op {
                    0 => {
                        idx.update(&mut pool, tid, &t).unwrap();
                        data.insert(tid, t);
                    }
                    1 => {
                        let removed = idx.delete(&mut pool, tid).unwrap();
                        prop_assert_eq!(removed, data.remove(&tid).is_some());
                    }
                    _ => {
                        idx.update(&mut pool, tid, &q).unwrap();
                        data.insert(tid, q.clone());
                    }
                }
            }
            idx.check_invariants(&mut pool).unwrap();
            for dv in [Divergence::L1, Divergence::L2] {
                check_distances(&idx, &mut pool, &data, &q, dv);
                check_dstq(&idx, &mut pool, &data, &q, dv, radius, pick);
            }
        }
    }

    #[test]
    fn kl_still_scans_the_tuple_store() {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
        let data: Vec<(u64, Uda)> = (0..40u64)
            .map(|i| (i, Uda::certain(CatId((i % CATS as u64) as u32))))
            .collect();
        let idx = InvertedIndex::build(
            Domain::anonymous(CATS),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        let q = Uda::certain(CatId(1));
        pool.reset_stats();
        idx.dstq(&mut pool, &DstQuery::new(q.clone(), 0.1, Divergence::Kl))
            .unwrap();
        let m = pool.metrics();
        assert_eq!((m.heap_tuples_scanned, m.candidates_generated), (40, 0));
        pool.reset_stats();
        idx.ds_top_k(&mut pool, &DsTopKQuery::new(q, 3, Divergence::Kl))
            .unwrap();
        let m = pool.metrics();
        assert_eq!((m.heap_tuples_scanned, m.candidates_generated), (40, 0));
    }

    #[test]
    fn ds_top_k_stops_at_the_kth_best_bound() {
        // 200 tuples sharing category 0 with the query at spread-out
        // probabilities and 50 sharing nothing with it: the three closest
        // are settled from the lists, and the 50, which the column's floor
        // puts past the third, are never walked. The first query pays one
        // tuple-store scan for the column; the second reads nothing else.
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
        let data: Vec<(u64, Uda)> = (0..250u64)
            .map(|i| {
                let (c, p) = if i < 200 {
                    (0, (i + 1) as f32 / 200.0)
                } else {
                    (2, 1.0)
                };
                (i, Uda::from_pairs([(CatId(c), p)]).unwrap())
            })
            .collect();
        let idx = InvertedIndex::build(
            Domain::anonymous(CATS),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        let q = Uda::from_pairs([(CatId(0), 0.5), (CatId(1), 0.5)]).unwrap();
        let query = DsTopKQuery::new(q, 3, Divergence::L1);
        for fill in [250, 0] {
            pool.reset_stats();
            let got = idx.ds_top_k(&mut pool, &query).unwrap();
            let m = pool.metrics();
            assert_eq!(
                got.iter().map(|m| m.tid).collect::<Vec<_>>(),
                vec![99, 98, 100]
            );
            assert_eq!(m.heap_tuples_scanned, fill);
            assert_eq!(m.candidates_generated, 200, "the disjoint 50 were walked");
            assert_eq!((m.candidates_settled, m.candidates_verified), (3, 0));
            assert!(m.candidate_invariant_holds());
        }
    }
}
