//! One relation split across indexes, answering as one index.

use uncat_core::query::{
    effective_floor, sort_matches_desc, DsTopKQuery, DstQuery, EqQuery, Match, TopKQuery,
};
use uncat_core::topk::{BottomKHeap, TopKHeap};
use uncat_inverted::InvertedIndex;
use uncat_storage::{BufferPool, Result};

use crate::index_trait::{OneShot, TopKPart, TopKSearch, UncertainIndex};

/// Indexes whose tuple ids partition one relation, as one
/// [`UncertainIndex`] over all of it: the one scatter-gather, on the
/// caller's pool, so one query is one ledger and one trace.
///
/// A PETQ probes every shard in shard order, concatenates and puts the
/// matches into canonical order. A top-k is one search over every shard
/// into one heap: the shards of a nested `Shards` take part as shards of
/// this one, PDR-tree shards step node by node, and every inverted shard
/// under `Strategy::Auto` shares one threshold run
/// ([`InvertedIndex::top_k_joint`]). A DSTQ and a
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

    /// Every part's search, unboxed: `top_k` drives it in place. The
    /// shards of a nested `Shards` are parts too, and the threshold parts
    /// ([`TopKPart::Threshold`]) share one run, at the first one's place.
    fn scatter<'a>(&'a self, query: &'a TopKQuery) -> Scatter<'a> {
        let (mut searches, mut threshold) = (Vec::with_capacity(self.0.len()), None);
        parts(&self.0, query, &mut searches, &mut threshold);
        if let Some((at, indexes)) = threshold {
            let run = OneShot::new(move |pool: &mut BufferPool, floor| {
                let floored = TopKQuery {
                    floor,
                    ..query.clone()
                };
                InvertedIndex::top_k_joint(&indexes, pool, &floored)
            });
            searches.insert(at, Box::new(run));
        }
        Scatter(searches)
    }
}

/// Push every part of `shards`, in shard order, onto `searches`, and
/// every threshold part onto `threshold` with the place its run takes.
fn parts<'a>(
    shards: &'a [Box<dyn UncertainIndex + Send + Sync>],
    query: &'a TopKQuery,
    searches: &mut Vec<Box<dyn TopKSearch + 'a>>,
    threshold: &mut Option<(usize, Vec<&'a InvertedIndex>)>,
) {
    for shard in shards {
        match shard.top_k_part() {
            TopKPart::Search => searches.push(shard.top_k_search(query)),
            TopKPart::Threshold(index) => threshold
                .get_or_insert_with(|| (searches.len(), Vec::with_capacity(shards.len())))
                .1
                .push(index),
            TopKPart::Parts(inner) => parts(inner, query, searches, threshold),
        }
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

    /// A `Shards` nested in a `Shards` takes part as its shards.
    fn top_k_part(&self) -> TopKPart<'_> {
        TopKPart::Parts(&self.0)
    }
}

/// The parts' searches as one: its bound is the best part's bound, and a
/// step steps the first part that has it. A PDR-tree shard so opens only
/// nodes whose bound reaches the k-th best of every shard read so far;
/// the threshold run and any other one-shot search run whole, in part
/// order, floored at the k-th best gathered before.
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
