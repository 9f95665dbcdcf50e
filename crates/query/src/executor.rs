//! Per-query execution with the paper's buffer discipline.
//!
//! "All experiments are conducted with a buffer manager that allocates 100
//! blocks to each query": the executor gives every query a fresh pool over
//! the shared store and reports the I/O it incurred.
//!
//! Failure isolation: every entry point returns `Result`, so a checksum
//! mismatch or I/O error on one query degrades that query alone — the
//! executor, the index, and every other query remain usable.

use std::sync::Arc;

use uncat_core::query::{DstQuery, EqQuery, Match, TopKQuery};
use uncat_storage::buffer::DEFAULT_FRAMES;
use uncat_storage::trace::{Clock, Phase, QueryTrace, Tracer};
use uncat_storage::{BufferPool, QueryMetrics, Result, SharedStore};

use crate::index_trait::UncertainIndex;

/// Result of one query execution.
#[derive(Debug)]
pub struct QueryOutcome {
    /// Qualifying tuples, canonical order.
    pub matches: Vec<Match>,
    /// Execution counters for this query, `io` included: the ledger of
    /// the pool it ran on.
    pub metrics: QueryMetrics,
    /// Latency trace, present when the query ran with a clock (see
    /// [`run_query`]): its span tree (rooted at a `query` span) plus I/O
    /// latency histograms. `None` when tracing is off — the
    /// zero-overhead default.
    pub trace: Option<QueryTrace>,
}

impl QueryOutcome {
    /// The paper's y-axis: physical page reads.
    pub fn reads(&self) -> u64 {
        self.metrics.io.physical_reads
    }

    /// Result selectivity relative to `n` tuples.
    pub fn selectivity(&self, n: u64) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.matches.len() as f64 / n as f64
        }
    }
}

/// The one probe runner: run `query` on `pool` under a root
/// [`Phase::Query`] span and return its matches with the pool's ledger
/// and trace. `pool` is the query's context — hand it a fresh pool (or a
/// fresh handle onto a shared one) and the outcome describes exactly this
/// query. With a `clock` the query records a span tree and I/O
/// histograms against it (tests pass a [`uncat_storage::FakeClock`], the
/// CLI and the service a [`uncat_storage::MonotonicClock`]); workers may
/// share one clock, each query records into its own tracer.
pub fn run_query(
    pool: &mut BufferPool,
    clock: Option<&Arc<dyn Clock>>,
    query: impl FnOnce(&mut BufferPool) -> Result<Vec<Match>>,
) -> Result<QueryOutcome> {
    if let Some(clock) = clock {
        pool.set_tracer(Tracer::enabled(clock.clone()));
    }
    let root = pool.trace_begin(Phase::Query);
    let matches = query(pool)?;
    pool.trace_end(root);
    Ok(QueryOutcome {
        matches,
        metrics: pool.metrics(),
        trace: pool.take_trace(),
    })
}

/// Sum the execution counters of a batch of outcomes — the natural
/// aggregate for "average cost per query" reporting (divide by the batch
/// size). Counters are additive, so summing per-query metrics from any
/// execution order (including [`crate::parallel`] workers) equals the
/// metrics of running the batch sequentially.
pub fn aggregate_metrics<'a, I>(outcomes: I) -> QueryMetrics
where
    I: IntoIterator<Item = &'a QueryOutcome>,
{
    QueryMetrics::sum(outcomes.into_iter().map(|o| &o.metrics))
}

/// Runs queries against an index with a fresh buffer pool each time.
pub struct Executor<I> {
    index: I,
    store: SharedStore,
    frames: usize,
}

impl<I: UncertainIndex> Executor<I> {
    /// Executor with the paper's 100-frame per-query buffers.
    pub fn new(index: I, store: SharedStore) -> Executor<I> {
        Executor::with_frames(index, store, DEFAULT_FRAMES)
    }

    /// Executor with a custom per-query buffer size (for the buffer-size
    /// ablation).
    pub fn with_frames(index: I, store: SharedStore, frames: usize) -> Executor<I> {
        Executor {
            index,
            store,
            frames,
        }
    }

    /// The wrapped index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Per-query frame budget.
    pub fn frames(&self) -> usize {
        self.frames
    }

    fn run(
        &self,
        f: impl FnOnce(&I, &mut BufferPool) -> Result<Vec<Match>>,
    ) -> Result<QueryOutcome> {
        let mut pool = BufferPool::with_capacity(self.store.clone(), self.frames);
        run_query(&mut pool, None, |pool| f(&self.index, pool))
    }

    /// Run a PETQ with a cold, private buffer.
    pub fn petq(&self, query: &EqQuery) -> Result<QueryOutcome> {
        self.run(|i, p| i.petq(p, query))
    }

    /// Run a top-k query with a cold, private buffer.
    pub fn top_k(&self, query: &TopKQuery) -> Result<QueryOutcome> {
        self.run(|i, p| i.top_k(p, query))
    }

    /// Run a DSTQ with a cold, private buffer.
    pub fn dstq(&self, query: &DstQuery) -> Result<QueryOutcome> {
        self.run(|i, p| i.dstq(p, query))
    }

    /// Run a DSQ-top-k with a cold, private buffer.
    pub fn ds_top_k(&self, query: &uncat_core::query::DsTopKQuery) -> Result<QueryOutcome> {
        self.run(|i, p| i.ds_top_k(p, query))
    }
}
