//! Measurement plumbing: index builders and per-query I/O averaging under
//! the paper's buffer discipline (fresh 100-frame pool per query).

use uncat_core::query::{EqQuery, TopKQuery};
use uncat_core::Domain;
use uncat_datagen::workload::CalibratedQuery;
use uncat_datagen::Dataset;
use uncat_inverted::{InvertedIndex, Strategy};
use uncat_pdrtree::{PdrConfig, PdrTree};
use uncat_query::{InvertedBackend, UncertainIndex};
use uncat_storage::{BufferPool, InMemoryDisk, QueryMetrics, SharedStore};

use crate::error::{BenchError, BenchResult};

/// Experiment sizing. `full()` is the paper's scale; `quick()` keeps
/// tests and smoke runs fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Tuples in the CRM datasets (paper: 100 000).
    pub crm_n: usize,
    /// Tuples in the synthetic datasets (paper: 10 000).
    pub synth_n: usize,
    /// Queries averaged per plotted point.
    pub queries: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// The paper's dataset sizes.
    pub fn full() -> Scale {
        Scale {
            crm_n: 100_000,
            synth_n: 10_000,
            queries: 10,
            seed: 42,
        }
    }

    /// Reduced sizes for tests (same shapes, ~minutes → seconds).
    pub fn quick() -> Scale {
        Scale {
            crm_n: 10_000,
            synth_n: 2_000,
            queries: 4,
            seed: 42,
        }
    }
}

/// Frames used while *building* indexes (not charged to queries).
const BUILD_FRAMES: usize = 512;
/// Frames per query — the paper's setting.
pub const QUERY_FRAMES: usize = 100;

/// Build an inverted index over its own store.
pub fn build_inverted(
    domain: &Domain,
    data: &Dataset,
    strategy: Strategy,
) -> BenchResult<(InvertedBackend, SharedStore)> {
    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store.clone(), BUILD_FRAMES);
    let idx = InvertedIndex::build(domain.clone(), &mut pool, data.iter().map(|(t, u)| (*t, u)))
        .map_err(BenchError::storage("build inverted index"))?;
    pool.flush()
        .map_err(BenchError::storage("flush inverted index"))?;
    Ok((InvertedBackend::with_strategy(idx, strategy), store))
}

/// Build a PDR-tree over its own store.
pub fn build_pdr(
    domain: &Domain,
    data: &Dataset,
    cfg: PdrConfig,
) -> BenchResult<(PdrTree, SharedStore)> {
    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store.clone(), BUILD_FRAMES);
    let tree = PdrTree::build(
        domain.clone(),
        cfg,
        &mut pool,
        data.iter().map(|(t, u)| (*t, u)),
    )
    .map_err(BenchError::storage("build pdr-tree"))?;
    pool.flush()
        .map_err(BenchError::storage("flush pdr-tree"))?;
    Ok((tree, store))
}

/// Cost profile of one plotted point: average physical reads (the paper's
/// y-axis) plus the batch's summed [`QueryMetrics`] — the counters that
/// *explain* the reads (see `docs/METRICS.md`).
#[derive(Debug)]
pub struct QueryProfile {
    /// Average physical page reads per query.
    pub avg_reads: f64,
    /// Queries in the batch (divide a counter by this for a per-query
    /// average).
    pub queries: usize,
    /// Execution counters summed over the batch (`metrics.io` is the
    /// batch-summed pool I/O, so `avg_reads = io.physical_reads / queries`).
    pub metrics: QueryMetrics,
}

impl QueryProfile {
    /// Per-query average of an arbitrary counter value.
    pub fn per_query(&self, total: u64) -> f64 {
        if self.queries == 0 {
            f64::NAN
        } else {
            total as f64 / self.queries as f64
        }
    }
}

/// Average physical reads per PETQ over a calibrated query set.
pub fn avg_petq_io(
    index: &impl UncertainIndex,
    store: &SharedStore,
    frames: usize,
    queries: &[CalibratedQuery],
) -> BenchResult<f64> {
    Ok(profile_petq(index, store, frames, queries)?.avg_reads)
}

/// Full cost profile (reads + counters) per PETQ over a calibrated set.
pub fn profile_petq(
    index: &impl UncertainIndex,
    store: &SharedStore,
    frames: usize,
    queries: &[CalibratedQuery],
) -> BenchResult<QueryProfile> {
    profile(queries, |cq| {
        let mut pool = BufferPool::with_capacity(store.clone(), frames);
        index
            .petq(&mut pool, &EqQuery::new(cq.q.clone(), cq.tau))
            .map_err(BenchError::storage("petq probe"))?;
        Ok(pool.metrics())
    })
}

/// Average physical reads per top-k query over a calibrated query set.
pub fn avg_topk_io(
    index: &impl UncertainIndex,
    store: &SharedStore,
    frames: usize,
    queries: &[CalibratedQuery],
) -> BenchResult<f64> {
    let profile = profile(queries, |cq| {
        let mut pool = BufferPool::with_capacity(store.clone(), frames);
        index
            .top_k(&mut pool, &TopKQuery::new(cq.q.clone(), cq.k))
            .map_err(BenchError::storage("top-k probe"))?;
        Ok(pool.metrics())
    })?;
    Ok(profile.avg_reads)
}

fn profile(
    queries: &[CalibratedQuery],
    mut f: impl FnMut(&CalibratedQuery) -> BenchResult<QueryMetrics>,
) -> BenchResult<QueryProfile> {
    let mut metrics = QueryMetrics::new();
    for cq in queries {
        metrics.merge(&f(cq)?);
    }
    Ok(QueryProfile {
        avg_reads: if queries.is_empty() {
            f64::NAN
        } else {
            metrics.io.physical_reads as f64 / queries.len() as f64
        },
        queries: queries.len(),
        metrics,
    })
}
