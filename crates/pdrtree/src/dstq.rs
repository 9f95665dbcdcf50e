//! Distributional similarity queries over the PDR-tree.
//!
//! A DSTQ and a DS-top-k are one best-first search into one
//! [`BottomKHeap`] with a selection `(k, ceiling)`: a DSTQ is
//! `(usize::MAX, τ_d)`, a DS-top-k `(k, +∞)`. A subtree is opened while
//! its lower bound is within the heap's bound — the ceiling until `k`
//! tuples are in it, then the k-th smallest distance — so a DSTQ, whose
//! bound never moves, opens and cuts exactly the children a depth-first
//! walk at `τ_d` would.
//!
//! For the metric divergences the boundary gives a sound *lower* bound on
//! the distance between the query and anything in the subtree. The
//! boundary alone gives `Σ max(0, q_i − v_i)` (in L1, or squared in
//! L2); with a floor `(m, s)` under every stored tuple's mass and
//! `‖u‖₂²`, the mass identities give `mass(q) + m − 2·Σ min(q_i, v_i)`
//! for L1 and `‖q‖² + s − 2·cap(q, v)` for L2² (`cap` the capped Lemma 2
//! bound). Each subtree takes the larger (`crate::boundary`'s module docs
//! have the derivation and the rounding slack).
//!
//! The floor is the tree's, not the page's: nothing on disk holds it. The
//! first L1/L2 DSTQ or DS-top-k a tree answers fills it with one walk of
//! every leaf, charged to that query (`nodes_visited` for every node,
//! `leaf_entries_examined` for every tuple); `insert` and `update` lower it
//! after that, `delete` leaves it (still a floor), and a reopened tree
//! starts without one. A search for no results fills nothing.
//!
//! KL admits no bound ("it is not directly usable for pruning search
//! paths", paper §2), so KL queries traverse every leaf — correct, just
//! unpruned — and never fill the floor.

use uncat_core::codec::Scan;
use uncat_core::query::{DsTopKQuery, DstQuery, Match};
use uncat_core::topk::BottomKHeap;
use uncat_core::uda::Entry;
use uncat_core::{Divergence, Uda};
use uncat_storage::{BufferPool, QueryMetrics, Result};

use crate::boundary::DistanceBound;
use crate::node::BoundaryRef;
use crate::traverse::{BestFirst, Ranking};
use crate::tree::PdrTree;

/// Slack on every lower-bound comparison, absorbing f32→f64 rounding.
const BOUND_EPS: f64 = 1e-9;

/// `dv(q, t)` for a record `t` read off its page. A divergence walks both
/// vectors more than once (KL needs the masses first), so the record is
/// copied into `record` — one buffer for the whole query — and scored by
/// [`Divergence::eval`] itself.
fn divergence(q: &Uda, t: &mut Scan<'_>, dv: Divergence, record: &mut Vec<Entry>) -> f64 {
    record.clear();
    record.extend(t);
    dv.eval(q.entries(), record)
}

/// The one distance search, best-first: subtrees ordered by *ascending*
/// divergence lower bound (the priority is its negation), cut once the
/// bound exceeds the heap's — the ceiling until `k` tuples are in it,
/// then the k-th smallest exact distance.
struct Nearest<'q> {
    q: &'q Uda,
    divergence: Divergence,
    bound: DistanceBound<'q>,
    record: Vec<Entry>,
}

impl Ranking for Nearest<'_> {
    type Heap = BottomKHeap;

    fn priority(&self, boundary: &BoundaryRef<'_>) -> f64 {
        -boundary.distance_lower_bound(&self.bound)
    }

    fn reachable(&self, priority: f64, heap: &BottomKHeap) -> bool {
        -priority <= heap.bound() + BOUND_EPS
    }

    fn offer(&mut self, heap: &mut BottomKHeap, tid: u64, uda: &mut Scan<'_>) {
        let d = divergence(self.q, uda, self.divergence, &mut self.record);
        heap.offer(tid, d);
    }
}

impl PdrTree {
    /// Evaluate a DSTQ: all tuples with `F(q, t) ≤ τ_d`, ascending by
    /// divergence — the distance search with `τ_d` as its ceiling and no
    /// `k`. The ceiling never moves, so the search opens exactly the
    /// children whose lower bound is within `τ_d` and reads each once.
    ///
    /// The pool's ledger gets node visits, children pruned by the
    /// divergence lower bound, and leaf entries scored. KL queries show
    /// `nodes_pruned == 0` — the visible signature of an unprunable
    /// divergence. A negative or NaN radius reads nothing.
    pub fn dstq(&self, pool: &mut BufferPool, query: &DstQuery) -> Result<Vec<Match>> {
        self.distance_search(pool, &query.q, query.divergence, usize::MAX, query.tau_d)
    }

    /// DSQ-top-k: the `k` tuples with the smallest divergence from the
    /// query, ascending — the distance search with no ceiling, so a
    /// branch is pruned once its bound exceeds the current k-th smallest
    /// exact distance (counted as `nodes_pruned`, like
    /// [`PdrTree::dstq`]'s cuts). KL admits no bound, so KL queries
    /// traverse every leaf.
    pub fn ds_top_k(&self, pool: &mut BufferPool, query: &DsTopKQuery) -> Result<Vec<Match>> {
        self.distance_search(pool, &query.q, query.divergence, query.k, f64::INFINITY)
    }

    /// The at most `k` tuples nearest `q` under `dv` within `ceiling`,
    /// ascending, by one [`BestFirst`] search into one [`BottomKHeap`].
    fn distance_search(
        &self,
        pool: &mut BufferPool,
        q: &Uda,
        dv: Divergence,
        k: usize,
        ceiling: f64,
    ) -> Result<Vec<Match>> {
        // A search for no results (`k` of 0, a negative or NaN ceiling)
        // reads nothing: it needs no bound (KL's is none), so it fills no
        // floor.
        let empty = k == 0 || ceiling.is_nan() || ceiling < 0.0;
        let bound_dv = if empty { Divergence::Kl } else { dv };
        let ranking = Nearest {
            q,
            divergence: dv,
            bound: pool.tally(|pool, metrics| self.distance_bound(pool, metrics, q, bound_dv))?,
            record: Vec::new(),
        };
        let mut heap = BottomKHeap::new(k, ceiling);
        BestFirst::new(self, ranking, empty).run(pool, &mut heap)?;
        Ok(heap.into_sorted())
    }

    /// `q`'s subtree bound under `dv`, filling the tree's mass floor
    /// (charged to `metrics`) if an L1/L2 bound needs it first.
    fn distance_bound<'q>(
        &self,
        pool: &mut BufferPool,
        metrics: &mut QueryMetrics,
        q: &'q Uda,
        dv: Divergence,
    ) -> Result<DistanceBound<'q>> {
        DistanceBound::new(q, dv, || self.mass_floor(pool, metrics))
    }
}

#[cfg(test)]
mod tests {
    use uncat_core::query::{DsTopKQuery, DstQuery};
    use uncat_core::{CatId, Divergence, Domain, Uda};
    use uncat_storage::{BufferPool, InMemoryDisk, QueryMetrics};

    use crate::boundary::MassFloor;
    use crate::{PdrConfig, PdrTree};

    fn uda(pairs: &[(u32, f32)]) -> Uda {
        Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
    }

    /// 600 tuples of mass 0.5–0.99 over 12 categories.
    fn tree(pool: &mut BufferPool) -> PdrTree {
        let data: Vec<(u64, Uda)> = (0..600u32)
            .map(|i| {
                let p = 0.5 + (i % 50) as f32 / 100.0;
                (
                    i as u64,
                    uda(&[(i % 12, p * 0.6), ((i / 12) % 12 + 12, p * 0.4)]),
                )
            })
            .collect();
        PdrTree::bulk_build(
            Domain::anonymous(24),
            PdrConfig::default(),
            pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap()
    }

    fn counters(pool: &mut BufferPool, run: impl FnOnce(&mut BufferPool)) -> QueryMetrics {
        let before = pool.metrics();
        run(pool);
        pool.metrics().since(&before)
    }

    #[test]
    fn the_first_metric_query_fills_the_floor_and_pays_for_the_walk() {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
        let t = tree(&mut pool);
        let stats = t.stats(&mut pool).unwrap();
        let q = uda(&[(3, 0.6), (15, 0.4)]);
        let kl = DstQuery::new(q.clone(), 0.5, Divergence::Kl);
        counters(&mut pool, |p| drop(t.dstq(p, &kl).unwrap()));
        assert!(t.floor.get().is_none(), "KL never fills the floor");

        let l1 = DstQuery::new(q.clone(), 0.3, Divergence::L1);
        let first = counters(&mut pool, |p| drop(t.dstq(p, &l1).unwrap()));
        let again = counters(&mut pool, |p| drop(t.dstq(p, &l1).unwrap()));
        assert_eq!(first.nodes_visited, again.nodes_visited + stats.nodes);
        assert_eq!(
            first.leaf_entries_examined,
            again.leaf_entries_examined + t.len()
        );
        assert_eq!(first.nodes_pruned, again.nodes_pruned);
        assert!(again.nodes_pruned > 0);
        let floor = *t.floor.get().unwrap();
        assert!((floor.mass - 0.5).abs() < 1e-6, "{floor:?}");

        // Filled, the floor costs DS-top-k nothing.
        let topk = DsTopKQuery::new(q, 5, Divergence::L2);
        let m = counters(&mut pool, |p| drop(t.ds_top_k(p, &topk).unwrap()));
        assert!(m.nodes_visited < stats.nodes, "{m:?}");
    }

    #[test]
    fn a_ds_top_k_for_no_results_reads_nothing() {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
        let t = tree(&mut pool);
        let q = uda(&[(3, 0.6), (15, 0.4)]);
        for dv in Divergence::ALL {
            let query = DsTopKQuery::new(q.clone(), 0, dv);
            let m = counters(&mut pool, |p| {
                assert!(t.ds_top_k(p, &query).unwrap().is_empty())
            });
            assert_eq!(m.nodes_visited, 0, "{dv:?}");
            assert_eq!(m.leaf_entries_examined, 0, "{dv:?}");
            assert!(t.floor.get().is_none(), "{dv:?} filled the floor");
        }
    }

    #[test]
    fn insert_lowers_the_floor_and_delete_and_reopen_leave_none_too_high() {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
        let mut t = tree(&mut pool);
        // Not filled: an insert has nothing to lower.
        t.insert(&mut pool, 1000, &uda(&[(1, 0.45)])).unwrap();
        assert!(t.floor.get().is_none());
        let floor = t.mass_floor(&mut pool, &mut QueryMetrics::new()).unwrap();
        assert!((floor.mass - 0.45).abs() < 1e-6, "{floor:?}");

        t.insert(&mut pool, 1001, &uda(&[(2, 0.2), (3, 0.1)]))
            .unwrap();
        let lowered = *t.floor.get().unwrap();
        assert!((lowered.mass - 0.3).abs() < 1e-6, "{lowered:?}");
        assert!((lowered.sq - 0.05).abs() < 1e-6, "{lowered:?}");
        t.update(&mut pool, 7, &uda(&[(4, 0.1)])).unwrap();
        assert!((t.floor.get().unwrap().mass - 0.1).abs() < 1e-6);
        // A delete keeps the floor: still under every remaining tuple.
        t.delete(&mut pool, 7).unwrap();
        assert!((t.floor.get().unwrap().mass - 0.1).abs() < 1e-6);

        let reopened = PdrTree::open(&t.snapshot()).unwrap();
        assert!(reopened.floor.get().is_none());
        let refilled = reopened
            .mass_floor(&mut pool, &mut QueryMetrics::new())
            .unwrap();
        assert_eq!(refilled.mass, lowered.mass);
        assert_ne!(refilled, MassFloor::EMPTY);
    }
}
