//! The two traversal drivers every read-only query runs on, both over the
//! node kernel ([`visit_node`]): a pruned depth-first walk (PETQ, full
//! scans) and a resumable best-first search (top-k, and the one distance
//! search behind DSTQ and DS-top-k). The best-first search is a state,
//! [`BestFirst`], with two
//! operations — [`BestFirst::bound`], the best unexplored priority, and
//! [`BestFirst::step`], which reads one node into a heap the caller owns —
//! so one tree's top-k ([`BestFirst::run`]) and a service top-k over many
//! trees sharing one heap are the same loop. The execution counters are
//! kept here, so every query counts alike: `nodes_visited` per node read,
//! `nodes_pruned` per child reference not followed (cut when met, or left
//! on the frontier when the search stops), `leaf_entries_examined` per
//! leaf entry scored.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use uncat_core::codec::Scan;
use uncat_storage::{BufferPool, PageId, Phase, QueryMetrics, Result};

use crate::node::{visit_node, BoundaryRef, Visit};
use crate::tree::PdrTree;

/// The query side of a [`BestFirst`] search: the bound that orders and
/// cuts the frontier, and how a leaf entry reaches the result heap. The
/// heap is the caller's, so several searches can feed one.
pub(crate) trait Ranking {
    /// The result accumulator the search feeds and is cut by.
    type Heap;
    /// How promising the subtree under `boundary` is; the frontier pops
    /// the largest first.
    fn priority(&self, boundary: &BoundaryRef<'_>) -> f64;
    /// Whether a subtree of this priority can still change `heap`.
    fn reachable(&self, priority: f64, heap: &Self::Heap) -> bool;
    /// Score one leaf entry into `heap`.
    fn offer(&mut self, heap: &mut Self::Heap, tid: u64, uda: &mut Scan<'_>);
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
}

/// A best-first search over one tree, resumable node by node. Nodes are
/// read in decreasing [`Ranking::priority`] order; a child that cannot
/// reach the heap when it is met is cut, and once the best unexplored
/// subtree cannot either, the search stops and its whole frontier counts
/// as pruned.
pub(crate) struct BestFirst<'t, R> {
    tree: &'t PdrTree,
    ranking: R,
    frontier: BinaryHeap<Pending>,
}

impl<'t, R: Ranking> BestFirst<'t, R> {
    /// A search that starts at the root (priority `+∞`), or an exhausted
    /// one when `empty` (a top-k for no results reads nothing).
    pub(crate) fn new(tree: &'t PdrTree, ranking: R, empty: bool) -> BestFirst<'t, R> {
        let mut frontier = BinaryHeap::new();
        if !empty {
            frontier.push(Pending {
                priority: f64::INFINITY,
                pid: tree.root(),
            });
        }
        BestFirst {
            tree,
            ranking,
            frontier,
        }
    }

    /// The best unexplored priority: `+∞` before the root is read, `−∞`
    /// once the search has stopped or run out of nodes.
    pub(crate) fn bound(&self) -> f64 {
        self.frontier
            .peek()
            .map_or(f64::NEG_INFINITY, |p| p.priority)
    }

    /// Read the best unexplored node into `heap`, or — when even that
    /// node can no longer reach `heap` — stop: the frontier counts as
    /// pruned and [`bound`](Self::bound) is `−∞` from then on. A no-op on
    /// a stopped search.
    pub(crate) fn step(&mut self, pool: &mut BufferPool, heap: &mut R::Heap) -> Result<()> {
        pool.tally(|pool, metrics| self.advance(pool, metrics, heap))
    }

    /// The one-tree search: step until stopped, under one traversal span
    /// and one tally.
    pub(crate) fn run(mut self, pool: &mut BufferPool, heap: &mut R::Heap) -> Result<()> {
        let span = pool.trace_begin(Phase::TreeTraversal);
        pool.tally(|pool, metrics| {
            while self.bound() > f64::NEG_INFINITY {
                self.advance(pool, metrics, heap)?;
            }
            Ok(())
        })?;
        pool.trace_end(span);
        Ok(())
    }

    /// [`step`](Self::step) against counters the caller tallies.
    fn advance(
        &mut self,
        pool: &mut BufferPool,
        metrics: &mut QueryMetrics,
        heap: &mut R::Heap,
    ) -> Result<()> {
        let Some(Pending { priority, pid }) = self.frontier.pop() else {
            return Ok(());
        };
        let BestFirst {
            tree,
            ranking,
            frontier,
        } = self;
        if !ranking.reachable(priority, heap) {
            metrics.nodes_pruned += 1 + frontier.len() as u64;
            frontier.clear();
            return Ok(());
        }
        metrics.nodes_visited += 1;
        visit_node(pool, pid, tree.config().compression, |v| match v {
            Visit::Entry { tid, uda } => {
                metrics.leaf_entries_examined += 1;
                ranking.offer(heap, tid, uda);
            }
            Visit::Child { pid, boundary } => {
                let priority = ranking.priority(&boundary);
                if ranking.reachable(priority, heap) {
                    frontier.push(Pending { priority, pid });
                } else {
                    metrics.nodes_pruned += 1;
                }
            }
        })
    }
}
