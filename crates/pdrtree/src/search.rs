//! PETQ and top-k search over the PDR-tree (paper §3.2, "PETQ(q, T)").
//!
//! Threshold search is a depth-first traversal pruned by Lemma 2: a branch
//! is entered only if its bound on `Pr(q = u)` reaches `τ`. Top-k search
//! upgrades the threshold dynamically and greedily visits the child with
//! the largest bound first, "finding better candidates at the beginning of
//! the search which in turn results in better pruning". The search is
//! resumable ([`BestFirstTopK`]: a bound and a one-node step against a
//! heap the caller owns), so a service top-k runs one search over many
//! trees sharing one heap; [`PdrTree::top_k`] is the one-tree loop.
//!
//! The bound is Lemma 2 capped at one unit of mass: the paper's
//! `⟨c.v, q⟩` lets the tuple below `c` take `v`'s every maximum at once,
//! though a stored tuple's mass is at most `1 + MASS_EPSILON`. Spending
//! that mass on q's categories from the most probable down (a fractional
//! knapsack, [`crate::Boundary::eq_upper_bound`]) gives a bound never
//! above `⟨c.v, q⟩` and still above every tuple's `Pr(q = u)`. The query's
//! order is computed once per query.

use uncat_core::codec::Scan;
use uncat_core::equality::{eq_prob_stream, meets_threshold, THRESHOLD_EPS};
use uncat_core::query::{effective_floor, sort_matches_desc, EqQuery, Match, TopKQuery};
use uncat_core::topk::TopKHeap;
use uncat_core::Uda;
use uncat_storage::{BufferPool, Result};

use crate::boundary::ByProb;
use crate::node::BoundaryRef;
use crate::traverse::{BestFirst, Ranking};
use crate::tree::PdrTree;

/// PEQ-top-k's ranking: subtrees ordered by the capped Lemma 2 bound,
/// cut at the heap's threshold — the floor until `k` matches exist, then
/// the k-th best probability.
struct EqTopK<'q> {
    q: &'q Uda,
    by_prob: ByProb,
}

impl Ranking for EqTopK<'_> {
    type Heap = TopKHeap;

    fn priority(&self, boundary: &BoundaryRef<'_>) -> f64 {
        boundary.eq_upper_bound(&self.by_prob)
    }

    fn reachable(&self, priority: f64, heap: &TopKHeap) -> bool {
        priority >= heap.threshold() - THRESHOLD_EPS
    }

    fn offer(&mut self, heap: &mut TopKHeap, tid: u64, uda: &mut Scan<'_>) {
        let pr = eq_prob_stream(self.q.entries(), uda);
        if pr > 0.0 {
            heap.offer(tid, pr);
        }
    }
}

/// One tree's share of a PEQ-top-k, resumable node by node
/// ([`PdrTree::top_k_search`]): several of these feeding one
/// [`TopKHeap`], always stepping the one with the best
/// [`bound`](Self::bound), read only nodes whose bound reaches the k-th
/// best of their union — what a single tree over all their tuples would.
pub struct BestFirstTopK<'a>(BestFirst<'a, EqTopK<'a>>);

impl BestFirstTopK<'_> {
    /// The best capped Lemma 2 bound not yet explored: `+∞` before the
    /// root is read, `−∞` once the search has stopped.
    pub fn bound(&self) -> f64 {
        self.0.bound()
    }

    /// Read one node into `heap` — or, when the best unexplored bound is
    /// below `heap`'s threshold (less [`THRESHOLD_EPS`]), stop and count
    /// the frontier as pruned. Counters and reads land in `pool`'s ledger,
    /// as for [`PdrTree::top_k`]. `heap` must be made for the search's
    /// query (its `k` and floor): the search offers every leaf entry it
    /// reads with a positive probability.
    pub fn step(&mut self, pool: &mut BufferPool, heap: &mut TopKHeap) -> Result<()> {
        self.0.step(pool, heap)
    }
}

impl PdrTree {
    /// Evaluate a PETQ, returning qualifying tuples with exact equality
    /// probabilities in canonical descending order.
    ///
    /// Counters land in the pool's ledger (`pool.metrics()`): each node
    /// read is a `nodes_visited`, each child skipped by the capped Lemma 2
    /// bound a `nodes_pruned`, and each leaf entry scored a
    /// `leaf_entries_examined`. Pruning effectiveness is
    /// `nodes_pruned / (nodes_visited + nodes_pruned)`.
    pub fn petq(&self, pool: &mut BufferPool, query: &EqQuery) -> Result<Vec<Match>> {
        let mut out = Vec::new();
        let by_prob = ByProb::of(&query.q);
        pool.tally(|pool, metrics| {
            self.walk(
                pool,
                metrics,
                |tid, uda| {
                    let pr = eq_prob_stream(query.q.entries(), uda);
                    if meets_threshold(pr, query.tau) {
                        out.push(Match::new(tid, pr));
                    }
                },
                // Lemma 2, capped: boundaries over-estimate every subtree
                // distribution and no tuple holds more than a unit of
                // mass, so this is an upper bound on Pr(q = u) below the
                // child.
                |boundary| boundary.eq_upper_bound(&by_prob) >= query.tau - THRESHOLD_EPS,
            )
        })?;
        sort_matches_desc(&mut out);
        Ok(out)
    }

    /// PEQ: all tuples with non-zero equality probability.
    pub fn peq(&self, pool: &mut BufferPool, q: &uncat_core::Uda) -> Result<Vec<Match>> {
        let mut out = self.petq(pool, &EqQuery::new(q.clone(), f64::MIN_POSITIVE))?;
        out.retain(|m| m.score > 0.0);
        Ok(out)
    }

    /// The `k` tuples with the highest equality probability, in canonical
    /// order. Best-first traversal: nodes are visited in decreasing
    /// upper-bound order, so the search stops as soon as the best
    /// unexplored bound cannot beat the current k-th best probability.
    /// Counters as for [`PdrTree::petq`]; children cut by the dynamic
    /// k-th-best threshold, and the frontier left when the search stops,
    /// also count as `nodes_pruned`.
    ///
    /// A query floor ([`TopKQuery::floor`]) is the heap's initial
    /// threshold, so subtrees whose capped Lemma-2 bound cannot reach it are
    /// pruned from the first node on — never more work than an unfloored
    /// top-k, and the best-first stop fires even before `k` matches exist
    /// once every unexplored bound is below the floor. This is the
    /// one-tree case of [`PdrTree::top_k_search`].
    pub fn top_k(&self, pool: &mut BufferPool, query: &TopKQuery) -> Result<Vec<Match>> {
        let mut heap = TopKHeap::new(query.k, effective_floor(query.floor));
        self.top_k_search(query).0.run(pool, &mut heap)?;
        Ok(heap.into_sorted())
    }

    /// `query` as a resumable best-first search that feeds a heap the
    /// caller owns — `TopKHeap::new(query.k, effective_floor(query.floor))`
    /// — so that searches over several trees can share it. A search for
    /// `k = 0` reads nothing.
    pub fn top_k_search<'a>(&'a self, query: &'a TopKQuery) -> BestFirstTopK<'a> {
        let ranking = EqTopK {
            q: &query.q,
            by_prob: ByProb::of(&query.q),
        };
        BestFirstTopK(BestFirst::new(self, ranking, query.k == 0))
    }
}

#[cfg(test)]
mod tests {
    use uncat_core::query::{EqQuery, TopKQuery};
    use uncat_core::{CatId, Domain, Uda};
    use uncat_storage::{BufferPool, InMemoryDisk};

    use crate::{PdrConfig, PdrTree};

    fn pool() -> BufferPool {
        BufferPool::with_capacity(InMemoryDisk::shared(), 32)
    }

    #[test]
    fn queries_on_empty_tree_return_nothing() {
        let mut p = pool();
        let t = PdrTree::new(Domain::anonymous(3), PdrConfig::default(), &mut p).unwrap();
        let q = Uda::certain(CatId(0));
        assert!(t
            .petq(&mut p, &EqQuery::new(q.clone(), 0.1))
            .unwrap()
            .is_empty());
        assert!(t
            .top_k(&mut p, &TopKQuery::new(q.clone(), 5))
            .unwrap()
            .is_empty());
        assert!(t.peq(&mut p, &q).unwrap().is_empty());
    }

    #[test]
    fn top_k_zero_returns_nothing() {
        let mut p = pool();
        let mut t = PdrTree::new(Domain::anonymous(3), PdrConfig::default(), &mut p).unwrap();
        t.insert(&mut p, 1, &Uda::certain(CatId(0))).unwrap();
        assert!(t
            .top_k(&mut p, &TopKQuery::new(Uda::certain(CatId(0)), 0))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn query_disjoint_from_data_is_empty_and_cheap() {
        let mut p = pool();
        let mut t = PdrTree::new(Domain::anonymous(10), PdrConfig::default(), &mut p).unwrap();
        for i in 0..50u64 {
            t.insert(&mut p, i, &Uda::certain(CatId((i % 3) as u32)))
                .unwrap();
        }
        p.clear().unwrap();
        p.reset_stats();
        let out = t
            .petq(&mut p, &EqQuery::new(Uda::certain(CatId(9)), 0.01))
            .unwrap();
        assert!(out.is_empty());
        // Root-only visit: boundary prunes immediately.
        assert!(p.stats().physical_reads <= 2, "{:?}", p.stats());
    }
}
