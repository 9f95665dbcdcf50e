//! The two traversal drivers every read-only query runs on, both over the
//! node kernel ([`visit_node`]): a pruned depth-first walk (threshold
//! queries, full scans) and a best-first search (both top-k forms). The
//! execution counters are kept here, so every query counts alike:
//! `nodes_visited` per node read, `nodes_pruned` per child reference not
//! followed, `leaf_entries_examined` per leaf entry scored.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use uncat_core::codec::Scan;
use uncat_storage::{BufferPool, PageId, Phase, QueryMetrics, Result};

use crate::node::{visit_node, BoundaryRef, Visit};
use crate::tree::PdrTree;

/// The query side of [`PdrTree::best_first`]: the result heap and the
/// bound that orders and cuts the frontier.
pub(crate) trait BestFirst {
    /// How promising the subtree under `boundary` is; the frontier pops
    /// the largest first.
    fn priority(&self, boundary: &BoundaryRef<'_>) -> f64;
    /// Whether a subtree of this priority can still change the answer.
    fn reachable(&self, priority: f64) -> bool;
    /// Score one leaf entry.
    fn offer(&mut self, tid: u64, uda: &mut Scan<'_>);
}

/// A subtree waiting on the frontier. `total_cmp` keeps the order total:
/// a bound can never panic the heap, whatever a page held.
struct Pending {
    priority: f64,
    pid: PageId,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Pending {}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority.total_cmp(&other.priority)
    }
}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PdrTree {
    /// Depth-first traversal: `entry` sees every leaf entry of every node
    /// reached; `descend` answers, per child boundary, whether the subtree
    /// can hold a match.
    pub(crate) fn walk(
        &self,
        pool: &mut BufferPool,
        metrics: &mut QueryMetrics,
        mut entry: impl FnMut(u64, &mut Scan<'_>),
        mut descend: impl FnMut(&BoundaryRef<'_>) -> bool,
    ) -> Result<()> {
        let span = pool.trace_begin(Phase::TreeTraversal);
        let mut stack = vec![self.root()];
        while let Some(pid) = stack.pop() {
            metrics.nodes_visited += 1;
            visit_node(pool, pid, self.config().compression, |v| match v {
                Visit::Entry { tid, uda } => {
                    metrics.leaf_entries_examined += 1;
                    entry(tid, uda);
                }
                Visit::Child { pid, boundary } => {
                    if descend(&boundary) {
                        stack.push(pid);
                    } else {
                        metrics.nodes_pruned += 1;
                    }
                }
            })?;
        }
        pool.trace_end(span);
        Ok(())
    }

    /// Best-first traversal: nodes are read in decreasing
    /// [`BestFirst::priority`] order and the search stops as soon as the
    /// best unexplored subtree is no longer [`BestFirst::reachable`] (the
    /// frontier it leaves unread counts as pruned).
    pub(crate) fn best_first(
        &self,
        pool: &mut BufferPool,
        metrics: &mut QueryMetrics,
        search: &mut impl BestFirst,
    ) -> Result<()> {
        let span = pool.trace_begin(Phase::TreeTraversal);
        let mut frontier = BinaryHeap::new();
        frontier.push(Pending {
            priority: f64::INFINITY,
            pid: self.root(),
        });
        while let Some(Pending { priority, pid }) = frontier.pop() {
            if !search.reachable(priority) {
                metrics.nodes_pruned += 1 + frontier.len() as u64;
                break;
            }
            metrics.nodes_visited += 1;
            visit_node(pool, pid, self.config().compression, |v| match v {
                Visit::Entry { tid, uda } => {
                    metrics.leaf_entries_examined += 1;
                    search.offer(tid, uda);
                }
                Visit::Child { pid, boundary } => {
                    let priority = search.priority(&boundary);
                    if search.reachable(priority) {
                        frontier.push(Pending { priority, pid });
                    } else {
                        metrics.nodes_pruned += 1;
                    }
                }
            })?;
        }
        pool.trace_end(span);
        Ok(())
    }
}
