//! Bulk loading.
//!
//! Incremental insertion splits nodes at the paper's ≤ 3/4 balance, which
//! leaves pages 50–70 % full. When the relation is known up front, a
//! sort-and-pack loader (in the spirit of STR bulk loading for R-trees)
//! produces near-full pages and tighter clusters:
//!
//! 1. sort distributions by their *mode* category (distributionally
//!    similar UDAs concentrate their mass on the same categories), ties by
//!    descending mode probability;
//! 2. pack leaves greedily to the page budget;
//! 3. build each internal level by packing the children's boundaries the
//!    same way.
//!
//! The result answers queries identically (tests enforce it); only the
//! page layout differs. The `bulkload` ablation in `uncat-bench` measures
//! the I/O difference.

use uncat_core::{codec, Domain, Uda};
use uncat_storage::{BufferPool, Result};

use crate::boundary::Boundary;
use crate::config::PdrConfig;
use crate::node::{boundary_size, write_node, ChildEntry, LeafEntry, Node, NODE_HDR};
use crate::tree::{PdrTree, MAX_NODE_ENTRIES, NODE_BUDGET};

/// Target fill fraction for bulk-built nodes: slightly under 100 % so the
/// first few subsequent inserts don't immediately split every leaf.
const FILL: f64 = 0.92;

impl PdrTree {
    /// Build a tree from a complete relation by sort-and-pack bulk
    /// loading. Equivalent to [`PdrTree::build`] for queries; much better
    /// page fill (≈ [`crate::Boundary`]-tight, ~92 % of the byte budget).
    pub fn bulk_build<'a, I>(
        domain: Domain,
        config: PdrConfig,
        pool: &mut BufferPool,
        tuples: I,
    ) -> Result<PdrTree>
    where
        I: IntoIterator<Item = (u64, &'a Uda)>,
    {
        config.validate().expect("invalid PDR-tree configuration");
        let mut entries: Vec<LeafEntry> = tuples
            .into_iter()
            .map(|(tid, uda)| LeafEntry {
                tid,
                uda: uda.clone(),
            })
            .collect();
        if entries.is_empty() {
            return PdrTree::new(domain, config, pool);
        }
        // 1. Sort by (mode category, descending mode probability, tid).
        entries.sort_by(|a, b| {
            let ma = a.uda.mode().expect("non-empty");
            let mb = b.uda.mode().expect("non-empty");
            ma.cat
                .cmp(&mb.cat)
                .then_with(|| mb.prob.partial_cmp(&ma.prob).expect("finite"))
                .then_with(|| a.tid.cmp(&b.tid))
        });
        let n = entries.len() as u64;

        // 2. Pack leaves.
        let budget = ((NODE_BUDGET - NODE_HDR) as f64 * FILL) as usize;
        let compression = config.compression;
        let mut level: Vec<ChildEntry> = Vec::new();
        let mut current: Vec<LeafEntry> = Vec::new();
        let mut current_bytes = 0usize;
        let flush_leaf = |pool: &mut BufferPool,
                          batch: &mut Vec<LeafEntry>,
                          level: &mut Vec<ChildEntry>|
         -> Result<()> {
            if batch.is_empty() {
                return Ok(());
            }
            let mut b = Boundary::empty(compression);
            for e in batch.iter() {
                b.merge_uda(&e.uda);
            }
            let pid = pool.allocate()?;
            write_node(pool, pid, &Node::Leaf(std::mem::take(batch)), compression)?;
            level.push(ChildEntry { pid, boundary: b });
            Ok(())
        };
        for e in entries {
            let sz = codec::record_len(&e.uda);
            if !current.is_empty()
                && (current_bytes + sz > budget || current.len() >= MAX_NODE_ENTRIES)
            {
                flush_leaf(pool, &mut current, &mut level)?;
                current_bytes = 0;
            }
            current_bytes += sz;
            current.push(e);
        }
        flush_leaf(pool, &mut current, &mut level)?;

        // 3. Pack internal levels until a single root remains.
        let mut depth = 1u32;
        while level.len() > 1 {
            depth += 1;
            let mut next: Vec<ChildEntry> = Vec::new();
            let mut batch: Vec<ChildEntry> = Vec::new();
            let mut bytes = 0usize;
            let flush_internal = |pool: &mut BufferPool,
                                  batch: &mut Vec<ChildEntry>,
                                  next: &mut Vec<ChildEntry>|
             -> Result<()> {
                if batch.is_empty() {
                    return Ok(());
                }
                let mut b = Boundary::empty(compression);
                for c in batch.iter() {
                    b.merge_boundary(&c.boundary);
                }
                let pid = pool.allocate()?;
                write_node(
                    pool,
                    pid,
                    &Node::Internal(std::mem::take(batch)),
                    compression,
                )?;
                next.push(ChildEntry { pid, boundary: b });
                Ok(())
            };
            for c in level {
                let sz = 8 + boundary_size(&c.boundary, compression);
                if !batch.is_empty() && (bytes + sz > budget || batch.len() >= MAX_NODE_ENTRIES) {
                    flush_internal(pool, &mut batch, &mut next)?;
                    bytes = 0;
                }
                bytes += sz;
                batch.push(c);
            }
            flush_internal(pool, &mut batch, &mut next)?;
            level = next;
        }
        let root = level.pop().expect("at least one node").pid;
        Ok(PdrTree::from_raw(root, config, domain, n, depth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Compression;
    use uncat_core::{CatId, UdaBuilder};
    use uncat_storage::InMemoryDisk;

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
                let mut b = UdaBuilder::new();
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
    fn bulk_build_preserves_every_tuple_and_invariants() {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 256);
        let data = synth(5000, 12, 3);
        let tree = PdrTree::bulk_build(
            Domain::anonymous(12),
            PdrConfig::default(),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        assert_eq!(tree.len(), 5000);
        assert_eq!(tree.check_invariants(&mut pool).unwrap(), 5000);
        let mut seen = std::collections::HashSet::new();
        tree.for_each(&mut pool, |tid, _| {
            assert!(seen.insert(tid));
        })
        .unwrap();
        assert_eq!(seen.len(), 5000);
    }

    #[test]
    fn bulk_build_is_denser_than_incremental() {
        let data = synth(8000, 10, 7);
        let pages_of = |bulk: bool| {
            let store = InMemoryDisk::shared();
            let mut pool = BufferPool::with_capacity(store.clone(), 256);
            let _tree = if bulk {
                PdrTree::bulk_build(
                    Domain::anonymous(10),
                    PdrConfig::default(),
                    &mut pool,
                    data.iter().map(|(t, u)| (*t, u)),
                )
                .unwrap()
            } else {
                PdrTree::build(
                    Domain::anonymous(10),
                    PdrConfig::default(),
                    &mut pool,
                    data.iter().map(|(t, u)| (*t, u)),
                )
                .unwrap()
            };
            pool.flush().unwrap();
            store.num_pages()
        };
        let incremental = pages_of(false);
        let bulk = pages_of(true);
        assert!(
            (bulk as f64) < 0.8 * incremental as f64,
            "bulk ({bulk} pages) should be much denser than incremental ({incremental} pages)"
        );
    }

    #[test]
    fn bulk_and_incremental_answer_identically() {
        let data = synth(2000, 8, 11);
        let store = InMemoryDisk::shared();
        let mut pool = BufferPool::with_capacity(store, 256);
        let a = PdrTree::build(
            Domain::anonymous(8),
            PdrConfig::default(),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        let b = PdrTree::bulk_build(
            Domain::anonymous(8),
            PdrConfig::default(),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        for (i, (_tid, q)) in data.iter().take(8).enumerate() {
            for tau in [0.1, 0.5] {
                let qa = a
                    .petq(&mut pool, &uncat_core::EqQuery::new(q.clone(), tau))
                    .unwrap();
                let qb = b
                    .petq(&mut pool, &uncat_core::EqQuery::new(q.clone(), tau))
                    .unwrap();
                assert_eq!(
                    qa.iter().map(|m| m.tid).collect::<Vec<_>>(),
                    qb.iter().map(|m| m.tid).collect::<Vec<_>>(),
                    "query {i} tau {tau}"
                );
            }
        }
    }

    #[test]
    fn bulk_build_supports_compression_and_later_inserts() {
        let data = synth(1500, 16, 13);
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 256);
        let cfg = PdrConfig {
            compression: Compression::Discretized { bits: 4 },
            ..PdrConfig::default()
        };
        let mut tree = PdrTree::bulk_build(
            Domain::anonymous(16),
            cfg,
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        // Incremental inserts continue to work on a bulk-built tree.
        let extra = synth(500, 16, 14);
        for (tid, u) in &extra {
            tree.insert(&mut pool, tid + 10_000, u).unwrap();
        }
        assert_eq!(tree.len(), 2000);
        assert_eq!(tree.check_invariants(&mut pool).unwrap(), 2000);
    }

    #[test]
    fn bulk_build_of_empty_input_is_empty_tree() {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 16);
        let tree =
            PdrTree::bulk_build(Domain::anonymous(4), PdrConfig::default(), &mut pool, []).unwrap();
        assert!(tree.is_empty());
        assert_eq!(tree.check_invariants(&mut pool).unwrap(), 0);
    }
}
