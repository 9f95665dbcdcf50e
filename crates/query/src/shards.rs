//! One relation split across indexes, answering as one index.

use uncat_core::query::{
    effective_floor, sort_matches_desc, DsTopKQuery, DstQuery, EqQuery, Match, TopKQuery,
};
use uncat_core::topk::{BottomKHeap, TopKHeap};
use uncat_storage::{BufferPool, Result};

use crate::index_trait::{TopKSearch, UncertainIndex};

/// Indexes whose tuple ids partition one relation, as one
/// [`UncertainIndex`] over all of it: the one scatter-gather, on the
/// caller's pool, so one query is one ledger and one trace.
///
/// A PETQ probes every shard in shard order, concatenates and puts the
/// matches into canonical order. A top-k is one best-first search over
/// every shard into one heap ([`Shards::top_k_search`]). A DSTQ and a
/// DS-top-k are one gather: every shard's answer is offered to one
/// `BottomKHeap`, at `(usize::MAX, τ_d)` and `(k, +∞)`. The answers are
/// exactly one index's over the whole relation.
pub struct Shards(Vec<Box<dyn UncertainIndex + Send + Sync>>);

impl Shards {
    /// The shards of one relation: no tuple id may be in two of them.
    pub fn new(shards: Vec<Box<dyn UncertainIndex + Send + Sync>>) -> Shards {
        Shards(shards)
    }

    /// The at most `k` nearest of every shard's answer within `ceiling`,
    /// ascending.
    fn gather(
        &self,
        pool: &mut BufferPool,
        k: usize,
        ceiling: f64,
        mut probe: impl FnMut(&dyn UncertainIndex, &mut BufferPool) -> Result<Vec<Match>>,
    ) -> Result<Vec<Match>> {
        let mut heap = BottomKHeap::new(k, ceiling);
        for shard in &self.0 {
            for m in probe(shard.as_ref(), pool)? {
                heap.offer(m.tid, m.score);
            }
        }
        Ok(heap.into_sorted())
    }

    /// Every shard's search, unboxed: `top_k` drives it in place.
    fn scatter<'a>(&'a self, query: &'a TopKQuery) -> Scatter<'a> {
        Scatter(self.0.iter().map(|s| s.top_k_search(query)).collect())
    }
}

impl UncertainIndex for Shards {
    fn petq(&self, pool: &mut BufferPool, query: &EqQuery) -> Result<Vec<Match>> {
        let mut all = Vec::new();
        for shard in &self.0 {
            all.extend(shard.petq(pool, query)?);
        }
        sort_matches_desc(&mut all);
        Ok(all)
    }

    fn top_k(&self, pool: &mut BufferPool, query: &TopKQuery) -> Result<Vec<Match>> {
        let mut heap = TopKHeap::new(query.k, effective_floor(query.floor));
        let mut search = self.scatter(query);
        while search.bound() > f64::NEG_INFINITY {
            search.step(pool, &mut heap)?;
        }
        Ok(heap.into_sorted())
    }

    fn dstq(&self, pool: &mut BufferPool, query: &DstQuery) -> Result<Vec<Match>> {
        self.gather(pool, usize::MAX, query.tau_d, |shard, pool| {
            shard.dstq(pool, query)
        })
    }

    fn ds_top_k(&self, pool: &mut BufferPool, query: &DsTopKQuery) -> Result<Vec<Match>> {
        self.gather(pool, query.k, f64::INFINITY, |shard, pool| {
            shard.ds_top_k(pool, query)
        })
    }

    fn tuple_count(&self) -> u64 {
        self.0.iter().map(|shard| shard.tuple_count()).sum()
    }

    fn backend_name(&self) -> &'static str {
        "shards"
    }

    /// Every shard's search as one: its bound is the best shard bound,
    /// and a step steps the first shard that has it. A PDR-tree shard
    /// so opens only nodes whose bound reaches the k-th best of every
    /// shard read so far; a one-shot shard runs first, in shard order,
    /// floored at the k-th best gathered before it. A `Shards` nested in
    /// a `Shards`, or probed by a join, shares the one heap too.
    fn top_k_search<'a>(&'a self, query: &'a TopKQuery) -> Box<dyn TopKSearch + 'a> {
        Box::new(self.scatter(query))
    }
}

/// The shards' searches, stepped best bound first.
struct Scatter<'a>(Vec<Box<dyn TopKSearch + 'a>>);

impl TopKSearch for Scatter<'_> {
    fn bound(&self) -> f64 {
        self.0
            .iter()
            .map(|s| s.bound())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    fn step(&mut self, pool: &mut BufferPool, heap: &mut TopKHeap) -> Result<()> {
        // The first of the best bounds: a tie goes to the lower shard.
        let best = self.bound();
        match self.0.iter_mut().find(|s| s.bound() == best) {
            Some(search) => search.step(pool, heap),
            None => Ok(()),
        }
    }
}
