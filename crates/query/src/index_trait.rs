//! The common interface over index structures, and the top-k search
//! several indexes run against one heap.

use uncat_core::query::{DsTopKQuery, DstQuery, EqQuery, Match, TopKQuery};
use uncat_core::topk::TopKHeap;
use uncat_storage::{BufferPool, Phase, Result};

use uncat_inverted::{InvertedIndex, Strategy};
use uncat_pdrtree::{BestFirstTopK, PdrTree};

/// Anything that can answer the paper's query set. All three queries
/// return exact scores in canonical order (descending probability for
/// equality, ascending divergence for similarity).
///
/// Every method is fallible: an I/O error or corrupted page surfaces as
/// `Err(StorageError)` from the one query that hit it, leaving the index
/// and the process intact.
///
/// There is one method per query kind. The pool a query runs on is its
/// ledger: *how* the answer was computed (postings scanned, nodes pruned,
/// candidates verified — see `docs/METRICS.md`) is added to the pool's
/// counters on the way out, on the error path too, and read back with
/// [`BufferPool::metrics`].
pub trait UncertainIndex {
    /// Probabilistic equality threshold query (Definition 4).
    fn petq(&self, pool: &mut BufferPool, query: &EqQuery) -> Result<Vec<Match>>;
    /// PEQ-top-k: the `k` best matches scoring at least the query's floor
    /// ([`TopKQuery::floor`]). The PEJ-top-k join and a one-shot search
    /// ([`UncertainIndex::top_k_search`]) set the floor to a k-th best they
    /// already hold; every implementation seeds its dynamic threshold with
    /// it, so a floored probe never does more work than an unfloored one —
    /// the threshold only starts higher.
    fn top_k(&self, pool: &mut BufferPool, query: &TopKQuery) -> Result<Vec<Match>>;
    /// Distributional similarity threshold query (Definition 5).
    fn dstq(&self, pool: &mut BufferPool, query: &DstQuery) -> Result<Vec<Match>>;
    /// DSQ-top-k: the `k` distributionally closest tuples.
    fn ds_top_k(&self, pool: &mut BufferPool, query: &DsTopKQuery) -> Result<Vec<Match>>;
    /// Number of indexed tuples.
    fn tuple_count(&self) -> u64;
    /// Short name for reports ("inverted", "pdr-tree", "scan").
    fn backend_name(&self) -> &'static str;
    /// `query` as a [`TopKSearch`] feeding a heap the caller owns —
    /// `TopKHeap::new(query.k, effective_floor(query.floor))`, shared by
    /// every index the caller searches. The default runs
    /// [`top_k`](Self::top_k) once, floored at the heap's threshold; the
    /// PDR-tree steps its best-first search node by node.
    fn top_k_search<'a>(&'a self, query: &'a TopKQuery) -> Box<dyn TopKSearch + 'a> {
        Box::new(OneShot::new(move |pool: &mut BufferPool, floor| {
            let floored = TopKQuery {
                floor,
                ..query.clone()
            };
            self.top_k(pool, &floored)
        }))
    }
    /// How this index takes part in a top-k over several ([`TopKPart`]):
    /// by default, through its own [`top_k_search`](Self::top_k_search).
    fn top_k_part(&self) -> TopKPart<'_> {
        TopKPart::Search
    }
}

/// How one index takes part in a top-k that several answer into one
/// [`TopKHeap`] ([`crate::Shards`]).
pub enum TopKPart<'a> {
    /// Through its own [`UncertainIndex::top_k_search`].
    Search,
    /// As an inverted index under [`Strategy::Auto`]: every such part of
    /// the top-k shares one threshold run
    /// ([`InvertedIndex::top_k_joint`]), which prunes each at the k-th best
    /// of all of them.
    Threshold(&'a InvertedIndex),
    /// As the indexes it is made of, each taking part on its own: a
    /// nested [`crate::Shards`].
    Parts(&'a [Box<dyn UncertainIndex + Send + Sync>]),
}

/// One index's share of a top-k that several indexes answer into one
/// [`TopKHeap`]. The caller always steps the search with the best
/// [`bound`](TopKSearch::bound) and stops when every bound is `−∞`; a
/// search whose best unexplored bound is below the heap's threshold
/// (less `THRESHOLD_EPS`) stops on its next step, so the loop reads
/// nothing that cannot reach the k-th best of the union.
pub trait TopKSearch {
    /// An upper bound on the score of anything this search has not yet
    /// offered: `+∞` before it starts, `−∞` once it has stopped.
    fn bound(&self) -> f64;
    /// Do one unit of work, offering what it finds to `heap` and adding
    /// its counters to `pool`'s ledger, or stop (see the trait docs). A
    /// no-op on a stopped search.
    fn step(&mut self, pool: &mut BufferPool, heap: &mut TopKHeap) -> Result<()>;
}

/// A whole top-k as one step — the default [`TopKSearch`], and the
/// threshold run [`crate::Shards`] shares among its inverted parts: run
/// once, floored at the shared heap's threshold when it runs, which the
/// searches stepped before it raised, and merged into the heap as the
/// ranked answer it is.
pub(crate) struct OneShot<F>(Option<F>);

impl<F> OneShot<F>
where
    F: FnOnce(&mut BufferPool, f64) -> Result<Vec<Match>>,
{
    /// `run(pool, floor)` answers the top-k floored at `floor`.
    pub(crate) fn new(run: F) -> OneShot<F> {
        OneShot(Some(run))
    }
}

impl<F> TopKSearch for OneShot<F>
where
    F: FnOnce(&mut BufferPool, f64) -> Result<Vec<Match>>,
{
    fn bound(&self) -> f64 {
        if self.0.is_some() {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    }

    fn step(&mut self, pool: &mut BufferPool, heap: &mut TopKHeap) -> Result<()> {
        if let Some(run) = self.0.take() {
            heap.merge_sorted(run(pool, heap.threshold())?);
        }
        Ok(())
    }
}

/// Each step reads one node, under its own traversal span.
impl TopKSearch for BestFirstTopK<'_> {
    fn bound(&self) -> f64 {
        BestFirstTopK::bound(self)
    }

    fn step(&mut self, pool: &mut BufferPool, heap: &mut TopKHeap) -> Result<()> {
        let span = pool.trace_begin(Phase::TreeTraversal);
        BestFirstTopK::step(self, pool, heap)?;
        pool.trace_end(span);
        Ok(())
    }
}

/// Boxed indexes answer queries by delegation, so heterogeneous backend
/// collections (`Box<dyn UncertainIndex>`) work with the generic join
/// and batch executors.
impl<T: UncertainIndex + ?Sized> UncertainIndex for Box<T> {
    fn petq(&self, pool: &mut BufferPool, query: &EqQuery) -> Result<Vec<Match>> {
        (**self).petq(pool, query)
    }

    fn top_k(&self, pool: &mut BufferPool, query: &TopKQuery) -> Result<Vec<Match>> {
        (**self).top_k(pool, query)
    }

    fn dstq(&self, pool: &mut BufferPool, query: &DstQuery) -> Result<Vec<Match>> {
        (**self).dstq(pool, query)
    }

    fn ds_top_k(&self, pool: &mut BufferPool, query: &DsTopKQuery) -> Result<Vec<Match>> {
        (**self).ds_top_k(pool, query)
    }

    fn tuple_count(&self) -> u64 {
        (**self).tuple_count()
    }

    fn backend_name(&self) -> &'static str {
        (**self).backend_name()
    }

    fn top_k_search<'a>(&'a self, query: &'a TopKQuery) -> Box<dyn TopKSearch + 'a> {
        (**self).top_k_search(query)
    }

    fn top_k_part(&self) -> TopKPart<'_> {
        (**self).top_k_part()
    }
}

/// The inverted index paired with a search strategy.
pub struct InvertedBackend {
    /// The underlying index.
    pub index: InvertedIndex,
    /// Strategy used for threshold queries, and passed down to top-k
    /// (`InvertedIndex::top_k_planned`): under [`Strategy::Auto`] both run
    /// the block-granular threshold executor, under a fixed strategy the
    /// PETQ runs that strategy and top-k the paper's drain.
    pub strategy: Strategy,
}

impl InvertedBackend {
    /// Wrap an index with the default strategy, [`Strategy::Auto`] —
    /// also what a reopened `DurableIndex` answers under: the strategy
    /// is not part of the snapshot.
    pub fn new(index: InvertedIndex) -> InvertedBackend {
        InvertedBackend::with_strategy(index, Strategy::default())
    }

    /// Wrap an index with an explicit strategy.
    pub fn with_strategy(index: InvertedIndex, strategy: Strategy) -> InvertedBackend {
        InvertedBackend { index, strategy }
    }
}

impl UncertainIndex for InvertedBackend {
    fn petq(&self, pool: &mut BufferPool, query: &EqQuery) -> Result<Vec<Match>> {
        self.index.petq(pool, query, self.strategy)
    }

    fn top_k(&self, pool: &mut BufferPool, query: &TopKQuery) -> Result<Vec<Match>> {
        self.index.top_k_planned(pool, query, self.strategy)
    }

    fn dstq(&self, pool: &mut BufferPool, query: &DstQuery) -> Result<Vec<Match>> {
        self.index.dstq(pool, query)
    }

    fn ds_top_k(&self, pool: &mut BufferPool, query: &DsTopKQuery) -> Result<Vec<Match>> {
        self.index.ds_top_k(pool, query)
    }

    fn tuple_count(&self) -> u64 {
        self.index.len() as u64
    }

    fn backend_name(&self) -> &'static str {
        "inverted"
    }

    fn top_k_part(&self) -> TopKPart<'_> {
        match self.strategy {
            Strategy::Auto => TopKPart::Threshold(&self.index),
            _ => TopKPart::Search,
        }
    }
}

impl UncertainIndex for PdrTree {
    fn petq(&self, pool: &mut BufferPool, query: &EqQuery) -> Result<Vec<Match>> {
        PdrTree::petq(self, pool, query)
    }

    fn top_k(&self, pool: &mut BufferPool, query: &TopKQuery) -> Result<Vec<Match>> {
        PdrTree::top_k(self, pool, query)
    }

    fn dstq(&self, pool: &mut BufferPool, query: &DstQuery) -> Result<Vec<Match>> {
        PdrTree::dstq(self, pool, query)
    }

    fn ds_top_k(&self, pool: &mut BufferPool, query: &DsTopKQuery) -> Result<Vec<Match>> {
        PdrTree::ds_top_k(self, pool, query)
    }

    fn tuple_count(&self) -> u64 {
        self.len()
    }

    fn backend_name(&self) -> &'static str {
        "pdr-tree"
    }

    fn top_k_search<'a>(&'a self, query: &'a TopKQuery) -> Box<dyn TopKSearch + 'a> {
        Box::new(PdrTree::top_k_search(self, query))
    }
}
