//! The PDR-tree structure: creation, insertion, deletion.

use uncat_core::{Domain, Uda};
use uncat_storage::{BufferPool, PageId, QueryMetrics, Result, StorageError, PAGE_SIZE};

use crate::boundary::Boundary;
use crate::config::PdrConfig;
use crate::node::{
    boundary_size, leaf_entry_size, read_node, visit_node, write_node, ChildEntry, LeafEntry, Node,
    Visit, NODE_HDR,
};
use crate::split;

/// Nodes are also capped by entry count (besides the page-size budget) so
/// that the quadratic split algorithms stay cheap on very sparse data.
pub(crate) const MAX_NODE_ENTRIES: usize = 256;

/// `locate` read the removal path a moment ago; a page that no longer
/// matches it is a storage fault, not a state a delete can produce.
const STALE_PATH: StorageError =
    StorageError::Corrupt("PDR removal path no longer holds the tuple");

/// Byte budget for a node's entries.
pub(crate) const NODE_BUDGET: usize = PAGE_SIZE - NODE_HDR;

/// A Probabilistic Distribution R-tree over one uncertain attribute.
///
/// Every operation that touches pages is fallible: an I/O error or a
/// corrupted page surfaces as [`uncat_storage::StorageError`] from the one
/// call that hit it.
///
/// ```
/// use uncat_core::{CatId, Domain, EqQuery, Uda};
/// use uncat_pdrtree::{PdrConfig, PdrTree};
/// use uncat_storage::{BufferPool, InMemoryDisk};
///
/// let mut pool = BufferPool::new(InMemoryDisk::shared());
/// let t0 = Uda::from_pairs([(CatId(0), 0.8), (CatId(2), 0.2)])?;
/// let t1 = Uda::from_pairs([(CatId(1), 1.0)])?;
/// let tree = PdrTree::build(
///     Domain::anonymous(3),
///     PdrConfig::default(),
///     &mut pool,
///     [(0u64, &t0), (1u64, &t1)],
/// )
/// .expect("in-memory build");
///
/// let hits = tree
///     .petq(&mut pool, &EqQuery::new(Uda::certain(CatId(0)), 0.5))
///     .expect("in-memory query");
/// assert_eq!(hits.len(), 1);
/// assert!((hits[0].score - 0.8).abs() < 1e-6);
/// # Ok::<(), uncat_core::Error>(())
/// ```
pub struct PdrTree {
    root: PageId,
    config: PdrConfig,
    domain: Domain,
    len: u64,
    depth: u32,
}

impl PdrTree {
    /// Create an empty tree.
    ///
    /// Panics if `config` is invalid (see [`PdrConfig::validate`]).
    pub fn new(domain: Domain, config: PdrConfig, pool: &mut BufferPool) -> Result<PdrTree> {
        config.validate().expect("invalid PDR-tree configuration");
        let root = pool.allocate()?;
        write_node(pool, root, &Node::Leaf(Vec::new()), config.compression)?;
        Ok(PdrTree {
            root,
            config,
            domain,
            len: 0,
            depth: 1,
        })
    }

    /// Build a tree by inserting every tuple, one split at a time — the
    /// construction the paper's split-strategy and divergence figures
    /// measure, kept for them. A relation known up front loads two orders
    /// of magnitude faster, onto fewer pages, with [`PdrTree::bulk_build`].
    pub fn build<'a, I>(
        domain: Domain,
        config: PdrConfig,
        pool: &mut BufferPool,
        tuples: I,
    ) -> Result<PdrTree>
    where
        I: IntoIterator<Item = (u64, &'a Uda)>,
    {
        let mut t = PdrTree::new(domain, config, pool)?;
        for (tid, uda) in tuples {
            t.insert(pool, tid, uda)?;
        }
        Ok(t)
    }

    /// Number of stored distributions.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height in levels (1 = a single leaf).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The tree's configuration.
    pub fn config(&self) -> &PdrConfig {
        &self.config
    }

    /// The indexed domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    pub(crate) fn root(&self) -> PageId {
        self.root
    }

    /// Assemble a tree from parts (bulk loader, snapshot).
    pub(crate) fn from_raw(
        root: PageId,
        config: PdrConfig,
        domain: Domain,
        len: u64,
        depth: u32,
    ) -> PdrTree {
        PdrTree {
            root,
            config,
            domain,
            len,
            depth,
        }
    }

    /// Insert a distribution.
    ///
    /// A UDA too wide to share a node page with a sibling is rejected
    /// with [`StorageError::RecordTooLarge`] before anything is modified
    /// (the split algorithms need two entries per page).
    pub fn insert(&mut self, pool: &mut BufferPool, tid: u64, uda: &Uda) -> Result<()> {
        let size = leaf_entry_size(uda);
        if size > NODE_BUDGET / 2 {
            return Err(StorageError::RecordTooLarge {
                len: size,
                max: NODE_BUDGET / 2,
            });
        }
        if let Some((left, right)) = self.insert_rec(pool, self.root, tid, uda)? {
            // Root split: grow a new root above.
            let new_root = pool.allocate()?;
            write_node(
                pool,
                new_root,
                &Node::Internal(vec![left, right]),
                self.config.compression,
            )?;
            self.root = new_root;
            self.depth += 1;
        }
        self.len += 1;
        Ok(())
    }

    /// Recursive insert. `Some((l, r))` means the node at `pid` split: the
    /// caller must replace its reference to `pid` with `l` (same page id)
    /// and add `r`.
    fn insert_rec(
        &mut self,
        pool: &mut BufferPool,
        pid: PageId,
        tid: u64,
        uda: &Uda,
    ) -> Result<Option<(ChildEntry, ChildEntry)>> {
        let compression = self.config.compression;
        match read_node(pool, pid, compression)? {
            Node::Leaf(mut entries) => {
                entries.push(LeafEntry {
                    tid,
                    uda: clone_uda(uda),
                });
                let node = Node::Leaf(entries);
                if node.fits(compression) && node.count() <= MAX_NODE_ENTRIES {
                    write_node(pool, pid, &node, compression)?;
                    return Ok(None);
                }
                let Node::Leaf(entries) = node else {
                    unreachable!()
                };
                Ok(Some(self.split_leaf(pool, pid, entries)?))
            }
            Node::Internal(mut children) => {
                let best = self.choose_child(&children, uda);
                children[best].boundary.merge_uda(uda);
                let child_pid = children[best].pid;
                // Descend first; the widened boundary (and any child split)
                // is persisted in one write below. Note that widening alone
                // can overflow the page — sparse boundaries grow when the
                // UDA brings new categories — so even the no-child-split
                // path may need to split this node.
                if let Some((l, r)) = self.insert_rec(pool, child_pid, tid, uda)? {
                    children[best] = l;
                    children.push(r);
                }
                let node = Node::Internal(children);
                if node.fits(compression) && node.count() <= MAX_NODE_ENTRIES {
                    write_node(pool, pid, &node, compression)?;
                    return Ok(None);
                }
                let Node::Internal(children) = node else {
                    unreachable!()
                };
                Ok(Some(self.split_internal(pool, pid, children)?))
            }
        }
    }

    /// "The following criteria (or combination of these) are used to pick
    /// the best page: (1) minimum area increase; (2) most similar MBR."
    /// Area increase is primary; distributional similarity breaks ties.
    fn choose_child(&self, children: &[ChildEntry], uda: &Uda) -> usize {
        debug_assert!(!children.is_empty());
        let mut best = 0usize;
        let mut best_inc = f64::INFINITY;
        let mut best_div = f64::INFINITY;
        for (i, c) in children.iter().enumerate() {
            let inc = c.boundary.area_increase(uda);
            if inc < best_inc - 1e-12 {
                best = i;
                best_inc = inc;
                best_div = f64::NAN; // computed lazily below when tied
            } else if (inc - best_inc).abs() <= 1e-12 {
                if best_div.is_nan() {
                    best_div = children[best]
                        .boundary
                        .divergence_to(uda, self.config.divergence);
                }
                let div = c.boundary.divergence_to(uda, self.config.divergence);
                if div < best_div {
                    best = i;
                    best_div = div;
                }
            }
        }
        best
    }

    fn split_leaf(
        &mut self,
        pool: &mut BufferPool,
        pid: PageId,
        entries: Vec<LeafEntry>,
    ) -> Result<(ChildEntry, ChildEntry)> {
        let compression = self.config.compression;
        let reps: Vec<Boundary> = entries
            .iter()
            .map(|e| Boundary::of_uda(&e.uda, compression))
            .collect();
        let sizes: Vec<usize> = entries.iter().map(|e| leaf_entry_size(&e.uda)).collect();
        let part = split::split(&reps, &sizes, NODE_BUDGET, &self.config);

        let take = |idxs: &[usize]| -> (Vec<LeafEntry>, Boundary) {
            let mut out = Vec::with_capacity(idxs.len());
            let mut b = Boundary::empty(compression);
            for &i in idxs {
                b.merge_uda(&entries[i].uda);
                out.push(entries[i].clone());
            }
            (out, b)
        };
        let (left_entries, left_b) = take(&part.left);
        let (right_entries, right_b) = take(&part.right);

        let right_pid = pool.allocate()?;
        write_node(pool, pid, &Node::Leaf(left_entries), compression)?;
        write_node(pool, right_pid, &Node::Leaf(right_entries), compression)?;
        Ok((
            ChildEntry {
                pid,
                boundary: left_b,
            },
            ChildEntry {
                pid: right_pid,
                boundary: right_b,
            },
        ))
    }

    fn split_internal(
        &mut self,
        pool: &mut BufferPool,
        pid: PageId,
        children: Vec<ChildEntry>,
    ) -> Result<(ChildEntry, ChildEntry)> {
        let compression = self.config.compression;
        let reps: Vec<Boundary> = children.iter().map(|c| c.boundary.clone()).collect();
        let sizes: Vec<usize> = children
            .iter()
            .map(|c| 8 + boundary_size(&c.boundary, compression))
            .collect();
        let part = split::split(&reps, &sizes, NODE_BUDGET, &self.config);

        let take = |idxs: &[usize]| -> (Vec<ChildEntry>, Boundary) {
            let mut out = Vec::with_capacity(idxs.len());
            let mut b = Boundary::empty(compression);
            for &i in idxs {
                b.merge_boundary(&children[i].boundary);
                out.push(children[i].clone());
            }
            (out, b)
        };
        let (left_children, left_b) = take(&part.left);
        let (right_children, right_b) = take(&part.right);

        let right_pid = pool.allocate()?;
        write_node(pool, pid, &Node::Internal(left_children), compression)?;
        write_node(
            pool,
            right_pid,
            &Node::Internal(right_children),
            compression,
        )?;
        Ok((
            ChildEntry {
                pid,
                boundary: left_b,
            },
            ChildEntry {
                pid: right_pid,
                boundary: right_b,
            },
        ))
    }

    /// Delete tuple `tid`, whose stored distribution must equal `uda`.
    ///
    /// The distribution guides the descent: only subtrees whose boundary
    /// dominates it can hold the tuple. Boundaries along the removal path
    /// are recomputed from the surviving entries (repair), so they stay
    /// tight — a recomputed boundary is still a valid over-estimate for
    /// every remaining tuple, just no wider than needed. Returns whether
    /// the tuple was found.
    pub fn delete(&mut self, pool: &mut BufferPool, tid: u64, uda: &Uda) -> Result<bool> {
        Ok(self.delete_impl(pool, tid, Some(uda))?.is_some())
    }

    /// Delete tuple `tid` without knowing its distribution (unguided: the
    /// descent cannot prune, so the worst case is a full traversal).
    /// Returns the removed distribution, or `None` if the tuple was not
    /// stored. Boundaries along the removal path are repaired as in
    /// [`PdrTree::delete`].
    pub fn delete_by_tid(&mut self, pool: &mut BufferPool, tid: u64) -> Result<Option<Uda>> {
        self.delete_impl(pool, tid, None)
    }

    /// Upsert: replace `tid`'s distribution if present, insert it
    /// otherwise. Returns whether a previous distribution was replaced.
    pub fn update(&mut self, pool: &mut BufferPool, tid: u64, uda: &Uda) -> Result<bool> {
        let existed = self.delete_by_tid(pool, tid)?.is_some();
        self.insert(pool, tid, uda)?;
        Ok(existed)
    }

    /// Look up `tid`'s stored distribution (unguided full traversal in
    /// the worst case — the tree is keyed by distribution, not id).
    pub fn find_tuple(&self, pool: &mut BufferPool, tid: u64) -> Result<Option<Uda>> {
        Ok(self.locate(pool, tid, None)?.map(|(_, uda)| uda))
    }

    /// Find tuple `tid` through the node kernel: the pages from the root
    /// down to the leaf that stores it, and its distribution (the one
    /// entry of the search that is materialized). Children are tried in
    /// stored order; with a `guide`, only those whose boundary dominates
    /// it.
    fn locate(
        &self,
        pool: &mut BufferPool,
        tid: u64,
        guide: Option<&Uda>,
    ) -> Result<Option<(Vec<PageId>, Uda)>> {
        let mut stack = vec![(self.root, 0usize)];
        let mut path = Vec::new();
        while let Some((pid, level)) = stack.pop() {
            path.truncate(level);
            path.push(pid);
            let children = stack.len();
            let mut found = None;
            visit_node(pool, pid, self.config.compression, |v| match v {
                Visit::Entry { tid: t, uda } => {
                    // A record that does not validate fails the node below.
                    if t == tid && found.is_none() {
                        found = uda.to_uda().ok();
                    }
                }
                Visit::Child { pid, boundary } => {
                    if guide.is_none_or(|u| boundary.dominates(u)) {
                        stack.push((pid, level + 1));
                    }
                }
            })?;
            if let Some(uda) = found {
                return Ok(Some((path, uda)));
            }
            // The stack pops from the back: first child on top.
            stack[children..].reverse();
        }
        Ok(None)
    }

    /// Remove `tid` and repair the boundaries above it. Only the pages on
    /// the removal path are materialized and rewritten, leaf first: each
    /// parent takes its child's boundary recomputed from the surviving
    /// entries, or drops the reference when the child emptied out (the
    /// emptied page is orphaned, like pages freed by merges; a later
    /// checkpoint-compaction could reclaim them).
    fn delete_impl(
        &mut self,
        pool: &mut BufferPool,
        tid: u64,
        guide: Option<&Uda>,
    ) -> Result<Option<Uda>> {
        let Some((path, uda)) = self.locate(pool, tid, guide)? else {
            return Ok(None);
        };
        let compression = self.config.compression;
        // The node below the one being repaired: its page and its repaired
        // boundary (`None` = it is now empty).
        let mut below: Option<(PageId, Option<Boundary>)> = None;
        for &pid in path.iter().rev() {
            let mut node = read_node(pool, pid, compression)?;
            let boundary = match (&mut node, below.take()) {
                (Node::Leaf(entries), None) => {
                    let i = entries
                        .iter()
                        .position(|e| e.tid == tid)
                        .ok_or(STALE_PATH)?;
                    entries.remove(i);
                    (!entries.is_empty()).then(|| {
                        let mut b = Boundary::empty(compression);
                        entries.iter().for_each(|e| b.merge_uda(&e.uda));
                        b
                    })
                }
                (Node::Internal(children), Some((child, repaired))) => {
                    let i = children
                        .iter()
                        .position(|c| c.pid == child)
                        .ok_or(STALE_PATH)?;
                    match repaired {
                        Some(b) => children[i].boundary = b,
                        None => {
                            children.remove(i);
                        }
                    }
                    (!children.is_empty()).then(|| {
                        let mut b = Boundary::empty(compression);
                        children.iter().for_each(|c| b.merge_boundary(&c.boundary));
                        b
                    })
                }
                _ => return Err(STALE_PATH),
            };
            write_node(pool, pid, &node, compression)?;
            below = Some((pid, boundary));
        }
        self.len -= 1;
        if self.depth > 1 && matches!(below, Some((_, None))) {
            // The root emptied out: collapse it back to a single leaf.
            write_node(pool, self.root, &Node::Leaf(Vec::new()), compression)?;
            self.depth = 1;
        }
        Ok(Some(uda))
    }

    /// Visit every stored `(tid, uda)` (tree order). A full traversal —
    /// used by tests and the scan baseline.
    pub fn for_each(&self, pool: &mut BufferPool, mut f: impl FnMut(u64, &Uda)) -> Result<()> {
        self.walk(
            pool,
            &mut QueryMetrics::new(),
            // A record that does not validate fails the traversal instead.
            |tid, uda| {
                if let Ok(uda) = uda.to_uda() {
                    f(tid, &uda);
                }
            },
            |_| true,
        )
    }

    /// Structural statistics (full traversal).
    pub fn stats(&self, pool: &mut BufferPool) -> Result<TreeStats> {
        let mut s = TreeStats {
            depth: self.depth,
            ..TreeStats::default()
        };
        let compression = self.config.compression;
        let mut stack = vec![self.root];
        while let Some(pid) = stack.pop() {
            let node = read_node(pool, pid, compression)?;
            s.nodes += 1;
            s.used_bytes += node.serialized_size(compression) as u64;
            match node {
                Node::Leaf(entries) => {
                    s.leaves += 1;
                    s.entries += entries.len() as u64;
                }
                Node::Internal(children) => {
                    s.fanout_sum += children.len() as u64;
                    s.internals += 1;
                    stack.extend(children.iter().map(|c| c.pid));
                }
            }
        }
        Ok(s)
    }

    /// Check structural invariants (every boundary dominates its subtree,
    /// the entry count adds up). Test/debug aid; returns the number of
    /// leaf entries.
    pub fn check_invariants(&self, pool: &mut BufferPool) -> Result<u64> {
        let n = self.check_rec(pool, self.root, None)?;
        assert_eq!(n, self.len, "stored entries disagree with len()");
        Ok(n)
    }

    fn check_rec(
        &self,
        pool: &mut BufferPool,
        pid: PageId,
        bound: Option<&Boundary>,
    ) -> Result<u64> {
        match read_node(pool, pid, self.config.compression)? {
            Node::Leaf(entries) => {
                assert!(entries.len() <= MAX_NODE_ENTRIES);
                if let Some(b) = bound {
                    for e in &entries {
                        assert!(
                            b.dominates(&e.uda),
                            "boundary fails to dominate tuple {} in leaf {pid}",
                            e.tid
                        );
                    }
                }
                Ok(entries.len() as u64)
            }
            Node::Internal(children) => {
                assert!(!children.is_empty(), "internal node {pid} has no children");
                let mut n = 0;
                for c in &children {
                    if let Some(b) = bound {
                        // Child boundaries need not be nested component-wise
                        // after lossy compression of the parent — but the
                        // parent must still dominate every UDA, which the
                        // recursion checks directly.
                        let _ = b;
                    }
                    n += self.check_rec(pool, c.pid, Some(&c.boundary))?;
                }
                Ok(n)
            }
        }
    }
}

fn clone_uda(u: &Uda) -> Uda {
    u.clone()
}

/// Structural statistics returned by [`PdrTree::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeStats {
    /// Total nodes (pages).
    pub nodes: u64,
    /// Leaf nodes.
    pub leaves: u64,
    /// Internal nodes.
    pub internals: u64,
    /// Stored distributions.
    pub entries: u64,
    /// Sum of internal fan-outs (for the average).
    pub fanout_sum: u64,
    /// Serialized bytes actually used across all node pages.
    pub used_bytes: u64,
    /// Tree height.
    pub depth: u32,
}

impl TreeStats {
    /// Average internal fan-out.
    pub fn avg_fanout(&self) -> f64 {
        if self.internals == 0 {
            0.0
        } else {
            self.fanout_sum as f64 / self.internals as f64
        }
    }

    /// Average page-fill fraction across nodes.
    pub fn fill_factor(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.used_bytes as f64 / (self.nodes as f64 * PAGE_SIZE as f64)
        }
    }

    /// Average entries per leaf.
    pub fn avg_leaf_entries(&self) -> f64 {
        if self.leaves == 0 {
            0.0
        } else {
            self.entries as f64 / self.leaves as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Compression, SplitStrategy};
    use uncat_core::{CatId, Divergence};
    use uncat_storage::fault::{Fault, FaultStore};
    use uncat_storage::{InMemoryDisk, StorageError};

    fn pool() -> BufferPool {
        BufferPool::with_capacity(InMemoryDisk::shared(), 200)
    }

    /// Deterministic pseudo-random UDA stream.
    fn synth(n: usize, cats: u32, seed: u64) -> Vec<(u64, Uda)> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n as u64)
            .map(|tid| {
                let nz = 1 + (next() % 3) as usize;
                let mut b = uncat_core::UdaBuilder::new();
                let mut used = std::collections::HashSet::new();
                for _ in 0..nz {
                    let c = (next() % cats as u64) as u32;
                    if used.insert(c) {
                        b.push(CatId(c), 0.05 + (next() % 900) as f32 / 1000.0)
                            .unwrap();
                    }
                }
                (tid, b.finish_normalized().unwrap())
            })
            .collect()
    }

    #[test]
    fn empty_tree() {
        let mut p = pool();
        let t = PdrTree::new(Domain::anonymous(4), PdrConfig::default(), &mut p).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.depth(), 1);
        assert_eq!(t.check_invariants(&mut p).unwrap(), 0);
    }

    #[test]
    fn insert_until_splits_and_check_invariants() {
        for split in [SplitStrategy::TopDown, SplitStrategy::BottomUp] {
            let mut p = pool();
            let cfg = PdrConfig {
                split,
                ..PdrConfig::default()
            };
            let data = synth(3000, 10, 42);
            let t = PdrTree::build(
                Domain::anonymous(10),
                cfg,
                &mut p,
                data.iter().map(|(i, u)| (*i, u)),
            )
            .unwrap();
            assert_eq!(t.len(), 3000);
            assert!(t.depth() >= 2, "{split:?}: 3000 tuples must split");
            assert_eq!(t.check_invariants(&mut p).unwrap(), 3000);
            // Every tuple is findable by traversal.
            let mut seen = std::collections::HashSet::new();
            t.for_each(&mut p, |tid, _| {
                assert!(seen.insert(tid), "tuple {tid} stored twice");
            })
            .unwrap();
            assert_eq!(seen.len(), 3000);
        }
    }

    #[test]
    fn invariants_hold_for_every_divergence() {
        for dv in Divergence::ALL {
            let mut p = pool();
            let cfg = PdrConfig {
                divergence: dv,
                ..PdrConfig::default()
            };
            let data = synth(1500, 8, 7);
            let t = PdrTree::build(
                Domain::anonymous(8),
                cfg,
                &mut p,
                data.iter().map(|(i, u)| (*i, u)),
            )
            .unwrap();
            assert_eq!(t.check_invariants(&mut p).unwrap(), 1500);
        }
    }

    #[test]
    fn invariants_hold_under_compression() {
        for compression in [
            Compression::Discretized { bits: 2 },
            Compression::Discretized { bits: 4 },
            Compression::Signature { width: 4 },
        ] {
            let mut p = pool();
            let cfg = PdrConfig {
                compression,
                ..PdrConfig::default()
            };
            let data = synth(1500, 20, 3);
            let t = PdrTree::build(
                Domain::anonymous(20),
                cfg,
                &mut p,
                data.iter().map(|(i, u)| (*i, u)),
            )
            .unwrap();
            assert_eq!(t.check_invariants(&mut p).unwrap(), 1500, "{compression:?}");
        }
    }

    #[test]
    fn delete_removes_and_preserves_structure() {
        let mut p = pool();
        let data = synth(800, 6, 9);
        let mut t = PdrTree::build(
            Domain::anonymous(6),
            PdrConfig::default(),
            &mut p,
            data.iter().map(|(i, u)| (*i, u)),
        )
        .unwrap();
        for (tid, u) in data.iter().take(400) {
            assert!(
                t.delete(&mut p, *tid, u).unwrap(),
                "tuple {tid} must be found"
            );
        }
        assert_eq!(t.len(), 400);
        assert!(!t.delete(&mut p, 0, &data[0].1).unwrap(), "double delete");
        assert_eq!(t.check_invariants(&mut p).unwrap(), 400);
        let mut remaining = 0;
        t.for_each(&mut p, |tid, _| {
            assert!(tid >= 400);
            remaining += 1;
        })
        .unwrap();
        assert_eq!(remaining, 400);
    }

    #[test]
    fn stats_reflect_structure() {
        let mut p = pool();
        let data = synth(4000, 8, 17);
        let t = PdrTree::build(
            Domain::anonymous(8),
            PdrConfig::default(),
            &mut p,
            data.iter().map(|(i, u)| (*i, u)),
        )
        .unwrap();
        let s = t.stats(&mut p).unwrap();
        assert_eq!(s.entries, 4000);
        assert_eq!(s.depth, t.depth());
        assert_eq!(s.nodes, s.leaves + s.internals);
        assert!(s.leaves > 1);
        assert!(s.avg_fanout() > 1.0);
        assert!(s.fill_factor() > 0.1 && s.fill_factor() <= 1.0);
        assert!(s.avg_leaf_entries() > 1.0);
    }

    #[test]
    fn tree_persists_across_pools() {
        let store = InMemoryDisk::shared();
        let data = synth(1000, 8, 11);
        let t = {
            let mut p = BufferPool::with_capacity(store.clone(), 200);
            let t = PdrTree::build(
                Domain::anonymous(8),
                PdrConfig::default(),
                &mut p,
                data.iter().map(|(i, u)| (*i, u)),
            )
            .unwrap();
            p.flush().unwrap();
            t
        };
        let mut q = BufferPool::with_capacity(store, 200);
        assert_eq!(t.check_invariants(&mut q).unwrap(), 1000);
    }

    #[test]
    fn injected_read_failure_degrades_one_operation() {
        let faults = std::sync::Arc::new(FaultStore::new(InMemoryDisk::shared(), 7));
        let mut p = BufferPool::with_capacity(faults.clone(), 200);
        let data = synth(600, 8, 5);
        let t = PdrTree::build(
            Domain::anonymous(8),
            PdrConfig::default(),
            &mut p,
            data.iter().map(|(i, u)| (*i, u)),
        )
        .unwrap();
        p.clear().unwrap();
        faults.arm(Fault::FailRead {
            after: faults.reads_so_far() + 1,
        });
        let err = t.for_each(&mut p, |_, _| {}).unwrap_err();
        assert!(matches!(err, StorageError::Io { op: "read", .. }), "{err}");
        // The fault is spent; the same traversal now succeeds.
        let mut n = 0u64;
        t.for_each(&mut p, |_, _| n += 1).unwrap();
        assert_eq!(n, 600);
    }

    #[test]
    fn oversized_uda_is_a_typed_error() {
        let mut p = pool();
        let mut t = PdrTree::new(Domain::anonymous(2000), PdrConfig::default(), &mut p).unwrap();
        let wide = Uda::from_pairs((0..1000).map(|i| (CatId(i), 0.001f32))).unwrap();
        assert!(matches!(
            t.insert(&mut p, 0, &wide),
            Err(StorageError::RecordTooLarge { .. })
        ));
        assert!(t.is_empty(), "rejected insert modifies nothing");
        assert_eq!(t.check_invariants(&mut p).unwrap(), 0);
    }

    #[test]
    fn delete_repairs_boundaries_tightly() {
        // After deleting every tuple that touches a category, repaired
        // boundaries must no longer dominate that category — a query UDA
        // concentrated there prunes at the root instead of descending.
        let mut p = pool();
        let data = synth(1200, 6, 13);
        let mut t = PdrTree::build(
            Domain::anonymous(6),
            PdrConfig::default(),
            &mut p,
            data.iter().map(|(i, u)| (*i, u)),
        )
        .unwrap();
        let touches_cat0 = |u: &Uda| u.iter().any(|(c, _)| c == CatId(0));
        let mut survivors = 0u64;
        for (tid, u) in &data {
            if touches_cat0(u) {
                assert!(t.delete(&mut p, *tid, u).unwrap());
            } else {
                survivors += 1;
            }
        }
        assert_eq!(t.len(), survivors);
        assert_eq!(t.check_invariants(&mut p).unwrap(), survivors);
        // Every surviving boundary was recomputed without cat 0, so the
        // root's children must not report any support there.
        let root = read_node(&mut p, t.root(), t.config().compression).unwrap();
        let certain0 = Uda::certain(CatId(0));
        if let Node::Internal(children) = root {
            for c in &children {
                assert!(
                    !c.boundary.dominates(&certain0),
                    "repaired boundary still spans the emptied category"
                );
            }
        }
    }

    #[test]
    fn delete_by_tid_returns_the_stored_distribution() {
        let mut p = pool();
        let data = synth(500, 6, 21);
        let mut t = PdrTree::build(
            Domain::anonymous(6),
            PdrConfig::default(),
            &mut p,
            data.iter().map(|(i, u)| (*i, u)),
        )
        .unwrap();
        assert_eq!(
            t.find_tuple(&mut p, 123).unwrap().as_ref(),
            Some(&data[123].1)
        );
        assert_eq!(
            t.delete_by_tid(&mut p, 123).unwrap(),
            Some(data[123].1.clone())
        );
        assert_eq!(t.delete_by_tid(&mut p, 123).unwrap(), None, "double delete");
        assert_eq!(t.find_tuple(&mut p, 123).unwrap(), None);
        assert_eq!(t.len(), 499);
        assert_eq!(t.check_invariants(&mut p).unwrap(), 499);
    }

    #[test]
    fn update_is_an_upsert() {
        let mut p = pool();
        let data = synth(300, 6, 31);
        let mut t = PdrTree::build(
            Domain::anonymous(6),
            PdrConfig::default(),
            &mut p,
            data.iter().map(|(i, u)| (*i, u)),
        )
        .unwrap();
        let fresh = Uda::from_pairs([(CatId(5), 1.0f32)]).unwrap();
        assert!(t.update(&mut p, 7, &fresh).unwrap(), "7 existed");
        assert!(!t.update(&mut p, 900, &fresh).unwrap(), "900 is new");
        assert_eq!(t.len(), 301);
        assert_eq!(t.find_tuple(&mut p, 7).unwrap(), Some(fresh.clone()));
        assert_eq!(t.find_tuple(&mut p, 900).unwrap(), Some(fresh));
        assert_eq!(t.check_invariants(&mut p).unwrap(), 301);
    }

    #[test]
    fn deleting_everything_collapses_to_an_empty_leaf() {
        let mut p = pool();
        let data = synth(900, 6, 37);
        let mut t = PdrTree::build(
            Domain::anonymous(6),
            PdrConfig::default(),
            &mut p,
            data.iter().map(|(i, u)| (*i, u)),
        )
        .unwrap();
        assert!(t.depth() >= 2);
        for (tid, _) in &data {
            assert!(t.delete_by_tid(&mut p, *tid).unwrap().is_some());
        }
        assert!(t.is_empty());
        assert_eq!(t.depth(), 1, "empty tree is a single leaf again");
        assert_eq!(t.check_invariants(&mut p).unwrap(), 0);
        // And it is insertable again.
        t.insert(&mut p, 1, &data[0].1).unwrap();
        assert_eq!(t.check_invariants(&mut p).unwrap(), 1);
    }
}
