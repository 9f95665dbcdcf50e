//! Per-query execution with the paper's buffer discipline.
//!
//! "All experiments are conducted with a buffer manager that allocates 100
//! blocks to each query": the caller hands [`run_query`] a fresh pool
//! over the shared store, and the outcome reports the I/O that one query
//! incurred.
//!
//! Failure isolation: [`run_query`] returns `Result`, so a checksum
//! mismatch or I/O error on one query degrades that query alone — the
//! index and every other query remain usable.

use std::sync::Arc;

use uncat_core::query::Match;
use uncat_storage::trace::{Clock, Phase, QueryTrace, Tracer};
use uncat_storage::{BufferPool, QueryMetrics, Result};

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
