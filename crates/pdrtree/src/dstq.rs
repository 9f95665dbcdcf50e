//! Distributional similarity queries over the PDR-tree.
//!
//! For the metric divergences the boundary gives a sound *lower* bound on
//! the distance between the query and anything in the subtree
//! ([`crate::Boundary::l1_lower_bound`] / `l2_lower_bound`): a branch whose
//! lower bound exceeds `τ_d` is pruned. KL admits no such bound ("it is not
//! directly usable for pruning search paths", paper §2), so KL queries
//! traverse every leaf — correct, just unpruned.

use uncat_core::codec::Scan;
use uncat_core::query::{sort_matches_asc, DsTopKQuery, DstQuery, Match};
use uncat_core::topk::BottomKHeap;
use uncat_core::uda::Entry;
use uncat_core::{Divergence, Uda};
use uncat_storage::{BufferPool, Result};

use crate::node::BoundaryRef;
use crate::traverse::BestFirst;
use crate::tree::PdrTree;

/// Slack on every lower-bound comparison, absorbing f32→f64 rounding.
const BOUND_EPS: f64 = 1e-9;

fn divergence_lower_bound(b: &BoundaryRef<'_>, q: &Uda, dv: Divergence) -> f64 {
    match dv {
        Divergence::L1 => b.l1_lower_bound(q),
        Divergence::L2 => b.l2_lower_bound(q),
        Divergence::Kl => 0.0, // not prunable
    }
}

/// `dv(q, t)` for a record `t` read off its page. A divergence walks both
/// vectors more than once (KL needs the masses first), so the record is
/// copied into `record` — one buffer for the whole query — and scored by
/// [`Divergence::eval`] itself.
fn divergence(q: &Uda, t: &mut Scan<'_>, dv: Divergence, record: &mut Vec<Entry>) -> f64 {
    record.clear();
    record.extend(t);
    dv.eval(q.entries(), record)
}

/// DSQ-top-k as a best-first search: subtrees ordered by *ascending*
/// divergence lower bound (the priority is its negation), cut once the
/// bound exceeds the k-th smallest exact distance.
struct DsTopK<'q> {
    query: &'q DsTopKQuery,
    heap: BottomKHeap,
    record: Vec<Entry>,
}

impl BestFirst for DsTopK<'_> {
    fn priority(&self, boundary: &BoundaryRef<'_>) -> f64 {
        -divergence_lower_bound(boundary, &self.query.q, self.query.divergence)
    }

    fn reachable(&self, priority: f64) -> bool {
        // `bound()` is ∞ until the heap fills.
        -priority <= self.heap.bound() + BOUND_EPS
    }

    fn offer(&mut self, tid: u64, uda: &mut Scan<'_>) {
        let d = divergence(&self.query.q, uda, self.query.divergence, &mut self.record);
        self.heap.offer(tid, d);
    }
}

impl PdrTree {
    /// Evaluate a DSTQ: all tuples with `F(q, t) ≤ τ_d`, ascending by
    /// divergence.
    ///
    /// The pool's ledger gets node visits, children pruned by the
    /// divergence lower bound, and leaf entries scored. KL queries show
    /// `nodes_pruned == 0` — the visible signature of an unprunable
    /// divergence.
    pub fn dstq(&self, pool: &mut BufferPool, query: &DstQuery) -> Result<Vec<Match>> {
        let mut out = Vec::new();
        let mut record = Vec::new();
        pool.tally(|pool, metrics| {
            self.walk(
                pool,
                metrics,
                |tid, uda| {
                    let d = divergence(&query.q, uda, query.divergence, &mut record);
                    if d <= query.tau_d {
                        out.push(Match::new(tid, d));
                    }
                },
                |boundary| {
                    divergence_lower_bound(boundary, &query.q, query.divergence)
                        <= query.tau_d + BOUND_EPS
                },
            )
        })?;
        sort_matches_asc(&mut out);
        Ok(out)
    }

    /// DSQ-top-k: the `k` tuples with the smallest divergence from the
    /// query, ascending. Best-first traversal ordered by the boundary's
    /// divergence lower bound; a branch is pruned once its bound exceeds
    /// the current k-th smallest exact distance (counted as
    /// `nodes_pruned`, like [`PdrTree::dstq`]'s cuts). KL admits no bound,
    /// so KL queries traverse every leaf.
    pub fn ds_top_k(&self, pool: &mut BufferPool, query: &DsTopKQuery) -> Result<Vec<Match>> {
        let mut search = DsTopK {
            query,
            heap: BottomKHeap::new(query.k),
            record: Vec::new(),
        };
        pool.tally(|pool, metrics| self.best_first(pool, metrics, &mut search))?;
        Ok(search.heap.into_sorted())
    }
}
