//! Full-scan baseline: no index, just the tuple heap.
//!
//! Reads every heap page for every query. This is both the correctness
//! oracle for the index structures and the "what the paper's indexes are
//! an alternative to" comparison point.

use uncat_core::equality::{eq_prob, meets_threshold};
use uncat_core::query::{
    effective_floor, sort_matches_asc, sort_matches_desc, DsTopKQuery, DstQuery, EqQuery, Match,
    TopKQuery,
};
use uncat_core::topk::{BottomKHeap, TopKHeap};
use uncat_core::{codec, Uda};
use uncat_storage::{BufferPool, HeapFile, Result, StorageError};

use crate::index_trait::UncertainIndex;

/// An unindexed relation: a heap file of `(tid, UDA)` records.
pub struct ScanBaseline {
    heap: HeapFile,
    count: u64,
}

impl ScanBaseline {
    /// Load a relation into a fresh heap.
    pub fn build<'a, I>(pool: &mut BufferPool, tuples: I) -> Result<ScanBaseline>
    where
        I: IntoIterator<Item = (u64, &'a Uda)>,
    {
        let mut heap = HeapFile::new();
        let mut count = 0;
        let mut record = Vec::new();
        for (tid, uda) in tuples {
            record.clear();
            codec::encode_record(tid, uda, &mut record);
            heap.insert(pool, &record)?;
            count += 1;
        }
        Ok(ScanBaseline { heap, count })
    }

    /// Visit every tuple (one page read per heap page). A record that no
    /// longer decodes is a [`StorageError::Corrupt`].
    pub fn scan(&self, pool: &mut BufferPool, mut f: impl FnMut(u64, &Uda)) -> Result<()> {
        self.heap.scan(pool, |_, bytes| {
            let (tid, uda) = codec::scan_record(bytes)
                .and_then(|(tid, mut uda, _)| Ok((tid, uda.to_uda()?)))
                .map_err(|_| StorageError::Corrupt("stored UDA does not decode"))?;
            f(tid, &uda);
            Ok(())
        })
    }

    /// Pages occupied by the relation.
    pub fn num_pages(&self) -> usize {
        self.heap.num_pages()
    }

    /// Windowed-equality threshold query over a totally ordered domain:
    /// all tuples with `Pr(|q − t| ≤ c) ≥ tau` (the paper's §2 relaxation
    /// of probabilistic equality). Evaluated by scan; ordering follows the
    /// window probability, descending.
    pub fn window_petq(
        &self,
        pool: &mut BufferPool,
        q: &Uda,
        window: u32,
        tau: f64,
    ) -> Result<Vec<Match>> {
        let mut out = Vec::new();
        self.scan(pool, |tid, t| {
            let pr = uncat_core::ordered::pr_within(q, t, window);
            if meets_threshold(pr, tau) {
                out.push(Match::new(tid, pr));
            }
        })?;
        sort_matches_desc(&mut out);
        Ok(out)
    }
}

/// Every tuple read counts one `heap_tuples_scanned` in the pool's ledger.
impl UncertainIndex for ScanBaseline {
    fn petq(&self, pool: &mut BufferPool, query: &EqQuery) -> Result<Vec<Match>> {
        let mut out = Vec::new();
        pool.tally(|pool, metrics| {
            self.scan(pool, |tid, t| {
                metrics.heap_tuples_scanned += 1;
                let pr = eq_prob(&query.q, t);
                if meets_threshold(pr, query.tau) {
                    out.push(Match::new(tid, pr));
                }
            })
        })?;
        sort_matches_desc(&mut out);
        Ok(out)
    }

    fn top_k(&self, pool: &mut BufferPool, query: &TopKQuery) -> Result<Vec<Match>> {
        let mut heap = TopKHeap::new(query.k, effective_floor(query.floor));
        pool.tally(|pool, metrics| {
            self.scan(pool, |tid, t| {
                metrics.heap_tuples_scanned += 1;
                let pr = eq_prob(&query.q, t);
                if pr > 0.0 {
                    heap.offer(tid, pr);
                }
            })
        })?;
        Ok(heap.into_sorted())
    }

    fn dstq(&self, pool: &mut BufferPool, query: &DstQuery) -> Result<Vec<Match>> {
        let mut out = Vec::new();
        pool.tally(|pool, metrics| {
            self.scan(pool, |tid, t| {
                metrics.heap_tuples_scanned += 1;
                let d = query.divergence.eval(query.q.entries(), t.entries());
                if d <= query.tau_d {
                    out.push(Match::new(tid, d));
                }
            })
        })?;
        sort_matches_asc(&mut out);
        Ok(out)
    }

    fn ds_top_k(&self, pool: &mut BufferPool, query: &DsTopKQuery) -> Result<Vec<Match>> {
        let mut heap = BottomKHeap::new(query.k, f64::INFINITY);
        pool.tally(|pool, metrics| {
            self.scan(pool, |tid, t| {
                metrics.heap_tuples_scanned += 1;
                heap.offer(tid, query.divergence.eval(query.q.entries(), t.entries()));
            })
        })?;
        Ok(heap.into_sorted())
    }

    fn tuple_count(&self) -> u64 {
        self.count
    }

    fn backend_name(&self) -> &'static str {
        "scan"
    }
}
