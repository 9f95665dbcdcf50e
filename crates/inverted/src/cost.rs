//! The paper's I/O model: cost statistics and a per-strategy estimator.
//!
//! No execution path consults it. [`Strategy::Auto`] runs the
//! block-granular threshold executor for every PETQ and top-k, unpriced.
//! What is left is the paper's ranking of the five fixed strategies by
//! page reads ([`CostStats::plan_petq`], §3.1), which the benchmark's
//! `inverted.cost.plan_petq_ns` and `query.planner.plan_petq_ns` probes
//! time, and the statistics the `UIV2` snapshot carries
//! (docs/FORMAT.md §10).
//!
//! [`CostStats`] is the model's view of the index: per-category
//! posting-list lengths plus a small histogram of the block directory's
//! quantized-up maxima (`docs/METRICS.md`, "`explain` and the I/O
//! model"). Everything is extracted from in-memory metadata — the
//! posting directory and the heap page lists — so collecting stats
//! performs **zero I/O**. They are collected when first asked for and
//! dropped by every mutation, so [`InvertedIndex::cost_stats`] always
//! describes the live directory.
//!
//! The estimator maps the documented per-counter cost model onto those
//! statistics: for each fixed strategy it predicts `postings_scanned`,
//! `blocks_decoded`, `candidates_verified` and physical reads — the same
//! vocabulary [`QueryMetrics`] measures, so predictions and actuals are
//! directly comparable (see [`CostPrediction::as_metrics`]).

use std::collections::{BTreeMap, BinaryHeap};

use uncat_core::equality::THRESHOLD_EPS;
use uncat_core::query::EqQuery;
use uncat_core::{CatId, Uda};
use uncat_storage::snapshot::{Reader, Writer};
use uncat_storage::{QueryMetrics, Result, StorageError};

use crate::block::PROB_SCALE;
use crate::index::InvertedIndex;
use crate::search::Strategy;

/// Number of probability buckets in the per-category block-max
/// histograms. Bucket `b` covers maxima in `(b/16, (b+1)/16]`.
pub const COST_BUCKETS: usize = 16;

/// Sequentially scanned postings one page read is worth in a plan's
/// scalar cost ([`CostPrediction::cost`]; `docs/METRICS.md`).
pub const ENTRIES_PER_PAGE: u64 = 1000;

/// Cost statistics for one category's posting list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatCostStats {
    /// Posting entries in the list.
    pub len: u64,
    /// Blocks in the list's directory.
    pub blocks: u32,
    /// Largest quantized-up block maximum.
    pub max_q: u16,
    /// Blocks per block-max bucket, in stream order high→low.
    pub block_hist: [u32; COST_BUCKETS],
    /// Posting entries per block-max bucket.
    pub entry_hist: [u64; COST_BUCKETS],
}

impl CatCostStats {
    fn empty() -> CatCostStats {
        CatCostStats {
            len: 0,
            blocks: 0,
            max_q: 0,
            block_hist: [0; COST_BUCKETS],
            entry_hist: [0; COST_BUCKETS],
        }
    }
}

/// Index-wide cost statistics consumed by the I/O model. Kept for
/// [`CostStats::plan_petq`] and for the `UIV2` snapshot's statistics
/// section (docs/FORMAT.md §10), which carries them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CostStats {
    /// Indexed tuples.
    pub tuples: u64,
    /// Pages of the tuple store (verification's random-access target).
    pub heap_pages: u64,
    /// Pages of the block heap (sequential posting payloads).
    pub block_pages: u64,
    /// Per-category list statistics.
    pub cats: BTreeMap<CatId, CatCostStats>,
}

/// Which histogram bucket a quantized maximum falls in.
fn bucket_of(q: u16) -> usize {
    (q as usize * COST_BUCKETS) / (PROB_SCALE as usize + 1)
}

/// Upper probability edge of bucket `b`.
fn bucket_upper(b: usize) -> f64 {
    (b + 1) as f64 / COST_BUCKETS as f64
}

/// Extract cost statistics from the in-memory metadata (no I/O).
pub(crate) fn collect(idx: &InvertedIndex) -> CostStats {
    let (heap_pages, _) = idx.heap_parts();
    let (block_pages, _) = idx.block_heap_parts();
    let mut stats = CostStats {
        tuples: idx.len() as u64,
        heap_pages: heap_pages.len() as u64,
        block_pages: block_pages.len() as u64,
        cats: BTreeMap::new(),
    };
    for (&cat, list) in idx.posting_map() {
        let mut c = CatCostStats::empty();
        c.len = list.len();
        c.blocks = list.blocks().len() as u32;
        for meta in list.blocks() {
            let b = bucket_of(meta.max_q);
            c.max_q = c.max_q.max(meta.max_q);
            c.block_hist[b] += 1;
            c.entry_hist[b] += meta.count as u64;
        }
        stats.cats.insert(cat, c);
    }
    stats
}

/// Predicted execution counters for one strategy on one query, in the
/// same vocabulary [`QueryMetrics`] measures. What
/// [`CostStats::plan_petq`] ranks by and returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostPrediction {
    /// Predicted `postings_scanned`.
    pub postings_scanned: u64,
    /// Predicted `blocks_decoded`.
    pub blocks_decoded: u64,
    /// Predicted `candidates_verified` (random accesses).
    pub candidates_verified: u64,
    /// Predicted cold physical reads (`io.physical_reads`).
    pub physical_reads: u64,
}

impl CostPrediction {
    /// Express the prediction as a [`QueryMetrics`]: each predictor
    /// populates exactly the counter it predicts, and nothing else.
    /// This pins the estimator's vocabulary to the metrics contract —
    /// predictions are comparable to actuals field by field, with no
    /// hidden state (asserted in `tests/metrics.rs`).
    pub fn as_metrics(&self) -> QueryMetrics {
        let mut m = QueryMetrics::new();
        m.postings_scanned = self.postings_scanned;
        m.blocks_decoded = self.blocks_decoded;
        m.candidates_verified = self.candidates_verified;
        m.io.physical_reads = self.physical_reads;
        m
    }

    /// Scalar plan cost: postings scanned plus physical reads weighted
    /// by the sequential entries-per-page equivalence of the cost model
    /// (one read ≈ [`ENTRIES_PER_PAGE`] sequentially scanned postings).
    pub fn cost(&self) -> u64 {
        self.postings_scanned
            .saturating_add(ENTRIES_PER_PAGE.saturating_mul(self.physical_reads))
    }
}

/// Page reads for scanning `blocks` blocks of an index of `total_blocks`
/// blocks in `block_pages` pages.
fn block_reads(blocks: u64, total_blocks: u64, block_pages: u64) -> u64 {
    let bpp = total_blocks.checked_div(block_pages).unwrap_or(1).max(1);
    blocks.div_ceil(bpp)
}

impl CostStats {
    /// The query's support restricted to categories with statistics.
    fn query_lists<'a>(&'a self, q: &Uda) -> Vec<(f64, &'a CatCostStats)> {
        q.iter()
            .filter_map(|(cat, p)| self.cats.get(&cat).map(|c| (p as f64, c)))
            .collect()
    }

    /// Random accesses batched per heap page can never read more pages
    /// than the heap has, nor more than one per candidate.
    fn verify_reads(&self, candidates: u64) -> u64 {
        candidates.min(self.heap_pages)
    }

    /// Page reads for sequentially scanning `blocks` posting blocks.
    fn scan_reads(&self, blocks: u64) -> u64 {
        let total_blocks: u64 = self.cats.values().map(|c| c.blocks as u64).sum();
        block_reads(blocks, total_blocks, self.block_pages)
    }

    /// The fixed strategy the I/O model ranks first for a PETQ: the
    /// cheapest by predicted scalar cost, ties toward the frontier
    /// strategies (NRA first). A ranking by page reads, not by time —
    /// [`Strategy::Auto`] does not run it. Kept as the paper's ranking
    /// (§3.1) for the benchmark's `inverted.cost.plan_petq_ns` probe.
    pub fn plan_petq(&self, query: &EqQuery) -> (Strategy, CostPrediction) {
        let order = [
            Strategy::Nra,
            Strategy::ColumnPruning,
            Strategy::HighestProbFirst,
            Strategy::RowPruning,
            Strategy::Brute,
        ];
        let mut best = (order[0], self.predict_strategy(order[0], query));
        for s in &order[1..] {
            let p = self.predict_strategy(*s, query);
            if p.cost() < best.1.cost() {
                best = (*s, p);
            }
        }
        best
    }

    /// Predict counters for one strategy on a PETQ: the term
    /// [`CostStats::plan_petq`] ranks by. The model has no term for
    /// [`Strategy::Auto`]'s block frontier; it gets the scan's
    /// prediction, a ceiling on the postings and blocks it reads.
    pub fn predict_strategy(&self, strategy: Strategy, query: &EqQuery) -> CostPrediction {
        match strategy {
            Strategy::Brute => self.predict_full_scan(query, None),
            Strategy::Auto => self.predict_full_scan(query, None),
            Strategy::RowPruning => self.predict_full_scan(query, Some(query.tau - THRESHOLD_EPS)),
            Strategy::ColumnPruning => self.predict_col(query),
            Strategy::HighestProbFirst => self.predict_drain(query, false),
            Strategy::Nra => self.predict_drain(query, true),
        }
    }

    /// Brute force (qp_cut = None) and row pruning (qp_cut = Some):
    /// retained lists are scanned end to end; row pruning additionally
    /// verifies each retained entry's tuple.
    fn predict_full_scan(&self, query: &EqQuery, qp_cut: Option<f64>) -> CostPrediction {
        let mut p = CostPrediction::default();
        for (qp, c) in self.query_lists(&query.q) {
            if qp_cut.is_some_and(|cut| qp < cut) {
                continue; // row pruned
            }
            p.postings_scanned += c.len;
            p.blocks_decoded += c.blocks as u64;
            if qp_cut.is_some() {
                p.candidates_verified += c.len;
            }
        }
        p.physical_reads =
            self.scan_reads(p.blocks_decoded) + self.verify_reads(p.candidates_verified);
        p
    }

    /// Column pruning: each list is scanned down to τ. Buckets whose
    /// upper edge clears the cut are counted whole (conservative: the
    /// boundary bucket may hold entries below τ the scan never visits).
    fn predict_col(&self, query: &EqQuery) -> CostPrediction {
        let cut = query.tau - THRESHOLD_EPS;
        let b0 = if cut <= 0.0 {
            0
        } else {
            ((cut * COST_BUCKETS as f64) as usize).min(COST_BUCKETS - 1)
        };
        let mut p = CostPrediction::default();
        for (_qp, c) in self.query_lists(&query.q) {
            let entries: u64 = c.entry_hist[b0..].iter().sum();
            p.blocks_decoded += c.block_hist[b0..].iter().map(|&b| b as u64).sum::<u64>();
            p.postings_scanned += entries;
            p.candidates_verified += entries;
        }
        p.physical_reads =
            self.scan_reads(p.blocks_decoded) + self.verify_reads(p.candidates_verified);
        p
    }

    /// Frontier drains (highest-prob-first and NRA): simulate the
    /// most-promising-first drain at bucket granularity. Each list
    /// contributes chunks `(bound = qp · bucket upper edge, entries,
    /// blocks)` in stream (descending-bucket) order; the simulation pops
    /// the maximum-bound chunk until the Lemma 1 stop
    /// `Σ bounds < τ − ε`. Bucket upper edges dominate the real head
    /// contributions, so the simulated drain never stops before the
    /// real one — predictions over-, not under-estimate.
    fn predict_drain(&self, query: &EqQuery, nra: bool) -> CostPrediction {
        let lists = self.query_lists(&query.q);
        // chunks[j]: descending-bound chunk list for list j.
        let chunks: Vec<Vec<(f64, u64, u64)>> = lists
            .iter()
            .map(|(qp, c)| {
                let mut v = Vec::new();
                for b in (0..COST_BUCKETS).rev() {
                    if c.entry_hist[b] > 0 {
                        v.push((
                            qp * bucket_upper(b),
                            c.entry_hist[b],
                            c.block_hist[b] as u64,
                        ));
                    }
                }
                v
            })
            .collect();
        let mut cursor = vec![0usize; chunks.len()];
        let mut heap: BinaryHeap<(u64, usize)> = chunks
            .iter()
            .enumerate()
            .filter_map(|(j, v)| v.first().map(|&(bound, ..)| (bound.to_bits(), j)))
            .collect();
        let mut sum: f64 = chunks.iter().filter_map(|v| v.first()).map(|c| c.0).sum();

        let mut p = CostPrediction::default();
        let stop = query.tau - THRESHOLD_EPS;
        while sum >= stop {
            let Some((_, j)) = heap.pop() else {
                break;
            };
            let (bound, entries, blocks) = chunks[j][cursor[j]];
            p.postings_scanned += entries;
            p.blocks_decoded += blocks;
            cursor[j] += 1;
            sum -= bound;
            if let Some(&(next, ..)) = chunks[j].get(cursor[j]) {
                sum += next;
                heap.push((next.to_bits(), j));
            }
        }

        // Every drained entry is a potential candidate. NRA settles or
        // prunes all but a bounded remainder from converged bounds;
        // highest-prob-first random-accesses every candidate. A
        // single-list NRA query is special: each candidate's only
        // contribution is the posting that introduced it, so its bounds
        // converge on contact and *nothing* is ever random-accessed.
        let candidates = p.postings_scanned;
        p.candidates_verified = if nra && lists.len() == 1 {
            0
        } else if nra {
            candidates.min(crate::search::NRA_RA_FALLBACK as u64)
        } else {
            candidates
        };
        p.physical_reads =
            self.scan_reads(p.blocks_decoded) + self.verify_reads(p.candidates_verified);
        p
    }
}

/// Serialize the stats section appended to `UIV2` snapshots
/// (`docs/FORMAT.md` §10). Fixed-width little-endian throughout, so a
/// decoded section re-encodes byte-identically. Still written so that
/// the `UIV2` layout changes in one step, when a new trailing section
/// replaces this one (`docs/FORMAT.md` §11).
pub(crate) fn write_cost_stats(w: &mut Writer, s: &CostStats) {
    w.u64(s.tuples);
    w.u64(s.heap_pages);
    w.u64(s.block_pages);
    w.u32(s.cats.len() as u32);
    for (cat, c) in &s.cats {
        w.u32(cat.0);
        w.u64(c.len);
        w.u32(c.blocks);
        w.u16(c.max_q);
        for &b in &c.block_hist {
            w.u32(b);
        }
        for &e in &c.entry_hist {
            w.u64(e);
        }
    }
}

/// Bytes per serialized per-category stats entry; clamps pre-allocation
/// against ballooned counts.
const CAT_STATS_LEN: usize = 4 + 8 + 4 + 2 + COST_BUCKETS * 4 + COST_BUCKETS * 8;

pub(crate) fn read_cost_stats(r: &mut Reader<'_>) -> Result<CostStats> {
    let tuples = r.u64()?;
    let heap_pages = r.u64()?;
    let block_pages = r.u64()?;
    let n_cats = r.u32()? as usize;
    if n_cats > r.remaining() / CAT_STATS_LEN + 1 {
        return Err(StorageError::Corrupt("stats section count exceeds payload"));
    }
    let mut cats = BTreeMap::new();
    for _ in 0..n_cats {
        let cat = CatId(r.u32()?);
        let mut c = CatCostStats::empty();
        c.len = r.u64()?;
        c.blocks = r.u32()?;
        c.max_q = r.u16()?;
        for b in &mut c.block_hist {
            *b = r.u32()?;
        }
        for e in &mut c.entry_hist {
            *e = r.u64()?;
        }
        cats.insert(cat, c);
    }
    Ok(CostStats {
        tuples,
        heap_pages,
        block_pages,
        cats,
    })
}

impl InvertedIndex {
    /// The fixed strategy the I/O model ranks first for this PETQ, with
    /// its prediction ([`CostStats::plan_petq`]). No query runs it; the
    /// benchmark's `inverted.cost.plan_petq_ns` probe times it.
    pub fn plan_petq(&self, query: &EqQuery) -> (Strategy, CostPrediction) {
        self.cost_stats().plan_petq(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncat_core::Domain;
    use uncat_storage::{BufferPool, InMemoryDisk};

    fn uda(pairs: &[(u32, f32)]) -> Uda {
        Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
    }

    fn build(n: u64) -> (InvertedIndex, BufferPool) {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 400);
        let data: Vec<(u64, Uda)> = (0..n)
            .map(|i| {
                let c = (i % 4) as u32;
                let p = 0.2 + 0.6 * ((i % 10) as f32 / 10.0);
                (i, uda(&[(c, p), ((c + 1) % 4, 1.0 - p)]))
            })
            .collect();
        let idx = InvertedIndex::build(
            Domain::anonymous(4),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        (idx, pool)
    }

    #[test]
    fn stats_collection_is_io_free_and_consistent() {
        let (idx, mut pool) = build(1000);
        pool.clear().unwrap();
        pool.reset_stats();
        let s = idx.cost_stats();
        assert_eq!(pool.stats().physical_reads, 0, "collection reads no pages");
        assert_eq!(s.tuples, 1000);
        assert_eq!(s.cats.len(), 4);
        for c in s.cats.values() {
            assert_eq!(c.entry_hist.iter().sum::<u64>(), c.len);
            assert_eq!(
                c.block_hist.iter().map(|&b| b as u64).sum::<u64>(),
                c.blocks as u64
            );
        }
        let structural = idx.stats();
        assert_eq!(
            s.cats.values().map(|c| c.len).sum::<u64>(),
            structural.postings
        );
        assert_eq!(
            s.cats.values().map(|c| c.blocks as u64).sum::<u64>(),
            structural.posting_blocks
        );
    }

    #[test]
    fn predictions_dominate_actuals_on_fresh_stats() {
        // The estimator is conservative: on fresh statistics, every
        // strategy's predicted postings/blocks bound what the strategy
        // actually does.
        let (idx, mut pool) = build(2000);
        let query = EqQuery::new(uda(&[(1, 1.0)]), 0.3);
        for strategy in Strategy::ALL {
            let pred = idx.cost_stats().predict_strategy(strategy, &query);
            pool.clear().unwrap();
            pool.reset_stats();
            idx.petq(&mut pool, &query, strategy).unwrap();
            let m = pool.metrics();
            assert!(
                m.postings_scanned <= pred.postings_scanned,
                "{strategy:?}: scanned {} > predicted {}",
                m.postings_scanned,
                pred.postings_scanned
            );
            assert!(
                m.blocks_decoded <= pred.blocks_decoded,
                "{strategy:?}: decoded {} > predicted {}",
                m.blocks_decoded,
                pred.blocks_decoded
            );
            assert!(
                m.candidates_verified <= pred.candidates_verified,
                "{strategy:?}: verified {} > predicted {}",
                m.candidates_verified,
                pred.candidates_verified
            );
        }
    }

    #[test]
    fn planner_pick_tracks_selectivity() {
        let (idx, _pool) = build(2000);
        // A high threshold makes pruning strategies cheap; the planner
        // must not pick brute force there.
        let (pick, pred) = idx.plan_petq(&EqQuery::new(uda(&[(0, 1.0)]), 0.9));
        assert_ne!(pick, Strategy::Brute);
        let brute = idx
            .cost_stats()
            .predict_strategy(Strategy::Brute, &EqQuery::new(uda(&[(0, 1.0)]), 0.9));
        assert!(pred.cost() <= brute.cost());
    }

    #[test]
    fn stats_serialization_roundtrips() {
        let (idx, _pool) = build(500);
        let s = idx.cost_stats().clone();
        let mut w = Writer::new(b"TEST");
        write_cost_stats(&mut w, &s);
        let blob = w.finish();
        let mut r = Reader::new(&blob, b"TEST").unwrap();
        let back = read_cost_stats(&mut r).unwrap();
        assert!(r.is_done());
        assert_eq!(s, back);
        // Re-encoding the decoded stats is byte-identical.
        let mut w2 = Writer::new(b"TEST");
        write_cost_stats(&mut w2, &back);
        assert_eq!(blob, w2.finish());
    }

    #[test]
    fn ballooned_stats_count_is_rejected() {
        let mut w = Writer::new(b"TEST");
        w.u64(0);
        w.u64(0);
        w.u64(0);
        w.u32(u32::MAX);
        let blob = w.finish();
        let mut r = Reader::new(&blob, b"TEST").unwrap();
        assert!(read_cost_stats(&mut r).is_err());
    }
}
