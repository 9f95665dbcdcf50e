//! The common interface over index structures.

use uncat_core::query::{DsTopKQuery, DstQuery, EqQuery, Match, TopKQuery};
use uncat_storage::{BufferPool, QueryMetrics, Result};

use uncat_inverted::{InvertedIndex, Strategy};
use uncat_pdrtree::PdrTree;

/// Anything that can answer the paper's query set. All three queries
/// return exact scores in canonical order (descending probability for
/// equality, ascending divergence for similarity).
///
/// Every method is fallible: an I/O error or corrupted page surfaces as
/// `Err(StorageError)` from the one query that hit it, leaving the index
/// and the process intact.
///
/// The `*_metered` methods are the primitive operations: they thread a
/// [`QueryMetrics`] through the search so callers can observe *how* the
/// answer was computed (postings scanned, nodes pruned, candidates
/// verified — see `docs/METRICS.md`). The unmetered methods are provided
/// conveniences that run against scratch counters.
pub trait UncertainIndex {
    /// Probabilistic equality threshold query (Definition 4), with
    /// execution counters.
    fn petq_metered(
        &self,
        pool: &mut BufferPool,
        query: &EqQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>>;
    /// PEQ-top-k, with execution counters.
    fn top_k_metered(
        &self,
        pool: &mut BufferPool,
        query: &TopKQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>>;
    /// Distributional similarity threshold query (Definition 5), with
    /// execution counters.
    fn dstq_metered(
        &self,
        pool: &mut BufferPool,
        query: &DstQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>>;
    /// DSQ-top-k, with execution counters.
    fn ds_top_k_metered(
        &self,
        pool: &mut BufferPool,
        query: &DsTopKQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>>;
    /// Number of indexed tuples.
    fn tuple_count(&self) -> u64;
    /// Short name for reports ("inverted", "pdr-tree", "scan").
    fn backend_name(&self) -> &'static str;

    /// PEQ-top-k under an external score *floor*: the `k` best matches
    /// scoring at least `floor`, with execution counters. The PEJ-top-k
    /// join propagates its current k-th best pair score into every probe
    /// through this method; an implementation that seeds its dynamic
    /// threshold with the floor (both paper indexes do) prunes everything
    /// the caller would discard anyway, and never does *more* work than
    /// [`UncertainIndex::top_k_metered`] — the threshold only starts
    /// higher. Non-positive and non-finite floors mean "no floor". The
    /// provided default runs a plain top-k and filters, so backends
    /// without floor-aware search stay correct, just unaccelerated.
    fn top_k_floored_metered(
        &self,
        pool: &mut BufferPool,
        query: &TopKQuery,
        floor: f64,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        let mut out = self.top_k_metered(pool, query, metrics)?;
        if floor.is_finite() && floor > 0.0 {
            out.retain(|m| m.score >= floor);
        }
        Ok(out)
    }

    /// Probabilistic equality threshold query (Definition 4).
    fn petq(&self, pool: &mut BufferPool, query: &EqQuery) -> Result<Vec<Match>> {
        self.petq_metered(pool, query, &mut QueryMetrics::new())
    }
    /// PEQ-top-k.
    fn top_k(&self, pool: &mut BufferPool, query: &TopKQuery) -> Result<Vec<Match>> {
        self.top_k_metered(pool, query, &mut QueryMetrics::new())
    }
    /// Distributional similarity threshold query (Definition 5).
    fn dstq(&self, pool: &mut BufferPool, query: &DstQuery) -> Result<Vec<Match>> {
        self.dstq_metered(pool, query, &mut QueryMetrics::new())
    }
    /// DSQ-top-k: the `k` distributionally closest tuples.
    fn ds_top_k(&self, pool: &mut BufferPool, query: &DsTopKQuery) -> Result<Vec<Match>> {
        self.ds_top_k_metered(pool, query, &mut QueryMetrics::new())
    }
}

/// Boxed indexes answer queries by delegation, so heterogeneous backend
/// collections (`Box<dyn UncertainIndex>`) work with the generic join
/// and batch executors.
impl<T: UncertainIndex + ?Sized> UncertainIndex for Box<T> {
    fn petq_metered(
        &self,
        pool: &mut BufferPool,
        query: &EqQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        (**self).petq_metered(pool, query, metrics)
    }

    fn top_k_metered(
        &self,
        pool: &mut BufferPool,
        query: &TopKQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        (**self).top_k_metered(pool, query, metrics)
    }

    fn dstq_metered(
        &self,
        pool: &mut BufferPool,
        query: &DstQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        (**self).dstq_metered(pool, query, metrics)
    }

    fn ds_top_k_metered(
        &self,
        pool: &mut BufferPool,
        query: &DsTopKQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        (**self).ds_top_k_metered(pool, query, metrics)
    }

    fn tuple_count(&self) -> u64 {
        (**self).tuple_count()
    }

    fn backend_name(&self) -> &'static str {
        (**self).backend_name()
    }

    fn top_k_floored_metered(
        &self,
        pool: &mut BufferPool,
        query: &TopKQuery,
        floor: f64,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        (**self).top_k_floored_metered(pool, query, floor, metrics)
    }
}

/// The inverted index paired with a search strategy.
pub struct InvertedBackend {
    /// The underlying index.
    pub index: InvertedIndex,
    /// Strategy used for threshold queries, and passed down to top-k:
    /// under [`Strategy::Auto`] a top-k drain that is losing to the full
    /// scan is abandoned for it (`InvertedIndex::top_k_planned`).
    pub strategy: Strategy,
}

impl InvertedBackend {
    /// Wrap an index with the default (NRA) threshold strategy.
    pub fn new(index: InvertedIndex) -> InvertedBackend {
        InvertedBackend {
            index,
            strategy: Strategy::Nra,
        }
    }

    /// Wrap an index with an explicit strategy.
    pub fn with_strategy(index: InvertedIndex, strategy: Strategy) -> InvertedBackend {
        InvertedBackend { index, strategy }
    }
}

impl UncertainIndex for InvertedBackend {
    fn petq_metered(
        &self,
        pool: &mut BufferPool,
        query: &EqQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        self.index.petq_metered(pool, query, self.strategy, metrics)
    }

    fn top_k_metered(
        &self,
        pool: &mut BufferPool,
        query: &TopKQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        self.index
            .top_k_planned(pool, query, 0.0, self.strategy, metrics)
    }

    fn dstq_metered(
        &self,
        pool: &mut BufferPool,
        query: &DstQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        self.index.dstq_metered(pool, query, metrics)
    }

    fn ds_top_k_metered(
        &self,
        pool: &mut BufferPool,
        query: &DsTopKQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        self.index.ds_top_k_metered(pool, query, metrics)
    }

    fn tuple_count(&self) -> u64 {
        self.index.len() as u64
    }

    fn backend_name(&self) -> &'static str {
        "inverted"
    }

    fn top_k_floored_metered(
        &self,
        pool: &mut BufferPool,
        query: &TopKQuery,
        floor: f64,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        self.index
            .top_k_planned(pool, query, floor, self.strategy, metrics)
    }
}

impl UncertainIndex for PdrTree {
    fn petq_metered(
        &self,
        pool: &mut BufferPool,
        query: &EqQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        PdrTree::petq_metered(self, pool, query, metrics)
    }

    fn top_k_metered(
        &self,
        pool: &mut BufferPool,
        query: &TopKQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        PdrTree::top_k_metered(self, pool, query, metrics)
    }

    fn dstq_metered(
        &self,
        pool: &mut BufferPool,
        query: &DstQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        PdrTree::dstq_metered(self, pool, query, metrics)
    }

    fn ds_top_k_metered(
        &self,
        pool: &mut BufferPool,
        query: &DsTopKQuery,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        PdrTree::ds_top_k_metered(self, pool, query, metrics)
    }

    fn tuple_count(&self) -> u64 {
        self.len()
    }

    fn backend_name(&self) -> &'static str {
        "pdr-tree"
    }

    fn top_k_floored_metered(
        &self,
        pool: &mut BufferPool,
        query: &TopKQuery,
        floor: f64,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Match>> {
        PdrTree::top_k_floored_metered(self, pool, query, floor, metrics)
    }
}
