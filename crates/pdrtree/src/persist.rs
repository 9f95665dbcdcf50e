//! Metadata snapshots: close a PDR-tree and reopen it over the same
//! (durable) page store.
//!
//! Unlike the inverted index, the PDR-tree keeps almost nothing in memory
//! — just the root page, the configuration, and counters — so its
//! snapshot is a few dozen bytes. [`PdrTree::save`] wraps the blob in the
//! crash-atomic snapshot file protocol (`uncat_storage::snapshot::commit`):
//! a torn or corrupted save is detected on [`PdrTree::load`] and the
//! previous file survives untouched.

use std::path::Path;

use uncat_core::{Divergence, Domain};
use uncat_storage::snapshot::{
    self, read_domain_parts, write_domain_parts, Reader, SnapshotError, Writer,
};
use uncat_storage::SnapshotFileError;

use crate::config::{Compression, PdrConfig, SplitStrategy};
use crate::tree::PdrTree;

const MAGIC: &[u8; 4] = b"UPD1";

/// Bytes of the page-count tail older writers put after `depth`.
const COUNT_TAIL: usize = 16;

/// Serialize a domain (labels or anonymous cardinality) — shared encoding
/// with the inverted index via `uncat_storage::snapshot`.
fn write_domain(w: &mut Writer, d: &Domain) {
    let labels = d.is_labeled().then(|| d.labels());
    write_domain_parts(w, d.size(), labels);
}

fn read_domain(r: &mut Reader<'_>) -> Result<Domain, SnapshotError> {
    let (size, labels) = read_domain_parts(r)?;
    Ok(match labels {
        Some(l) => Domain::from_labels(l),
        None => Domain::anonymous(size),
    })
}

fn write_config(w: &mut Writer, c: &PdrConfig) {
    w.u8(match c.divergence {
        Divergence::L1 => 0,
        Divergence::L2 => 1,
        Divergence::Kl => 2,
    });
    w.u8(match c.split {
        SplitStrategy::TopDown => 0,
        SplitStrategy::BottomUp => 1,
    });
    match c.compression {
        Compression::None => {
            w.u8(0);
            w.u16(0);
        }
        Compression::Discretized { bits } => {
            w.u8(1);
            w.u16(bits as u16);
        }
        Compression::Signature { width } => {
            w.u8(2);
            w.u16(width);
        }
    }
    w.u32(c.balance_num as u32);
    w.u32(c.balance_den as u32);
}

fn read_config(r: &mut Reader<'_>) -> Result<PdrConfig, SnapshotError> {
    let divergence = match r.u8()? {
        0 => Divergence::L1,
        1 => Divergence::L2,
        2 => Divergence::Kl,
        _ => return Err(SnapshotError("unknown divergence")),
    };
    let split = match r.u8()? {
        0 => SplitStrategy::TopDown,
        1 => SplitStrategy::BottomUp,
        _ => return Err(SnapshotError("unknown split strategy")),
    };
    let ckind = r.u8()?;
    let carg = r.u16()?;
    let compression = match ckind {
        0 => Compression::None,
        1 => Compression::Discretized { bits: carg as u8 },
        2 => Compression::Signature { width: carg },
        _ => return Err(SnapshotError("unknown compression")),
    };
    let balance_num = r.u32()? as usize;
    let balance_den = r.u32()? as usize;
    let cfg = PdrConfig {
        divergence,
        split,
        compression,
        balance_num,
        balance_den,
    };
    cfg.validate()
        .map_err(|_| SnapshotError("invalid configuration"))?;
    Ok(cfg)
}

impl PdrTree {
    /// Serialize the tree's metadata. Flush the building pool first so the
    /// referenced pages are durable.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new(MAGIC);
        write_domain(&mut w, self.domain());
        write_config(&mut w, self.config());
        w.pid(self.root());
        w.u64(self.len());
        w.u32(self.depth());
        w.finish()
    }

    /// Reattach a tree from a snapshot over the same store.
    pub fn open(blob: &[u8]) -> Result<PdrTree, SnapshotError> {
        let mut r = Reader::new(blob, MAGIC)?;
        let domain = read_domain(&mut r)?;
        let config = read_config(&mut r)?;
        let root = r.pid()?;
        let len = r.u64()?;
        let depth = r.u32()?;
        // Older writers appended the (leaf, internal) page counts, two
        // u64s nothing reads any more (docs/FORMAT.md §12).
        if r.remaining() == COUNT_TAIL {
            r.u64()?;
            r.u64()?;
        }
        if !r.is_done() {
            return Err(SnapshotError("trailing bytes after the tree header"));
        }
        Ok(PdrTree::from_raw(root, config, domain, len, depth))
    }

    /// Commit the metadata snapshot to `path` atomically (temp file,
    /// fsync, rename): a crash mid-save leaves the previous snapshot
    /// loadable. Flush the page store first.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotFileError> {
        snapshot::commit(path, &self.snapshot())
    }

    /// Load a tree saved by [`PdrTree::save`]. Truncated, corrupt, or
    /// wrong-version files are rejected with a typed error.
    pub fn load(path: &Path) -> Result<PdrTree, SnapshotFileError> {
        let payload = snapshot::load(path)?;
        Ok(PdrTree::open(&payload)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncat_core::query::EqQuery;
    use uncat_core::{CatId, Uda};
    use uncat_storage::{BufferPool, FileDisk, InMemoryDisk};

    fn uda(pairs: &[(u32, f32)]) -> Uda {
        Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
    }

    #[test]
    fn snapshot_roundtrip_preserves_queries_and_config() {
        let store = InMemoryDisk::shared();
        let cfg = PdrConfig {
            divergence: Divergence::L1,
            split: SplitStrategy::TopDown,
            compression: Compression::Discretized { bits: 4 },
            ..PdrConfig::default()
        };
        let data: Vec<(u64, Uda)> = (0..500u64)
            .map(|i| {
                let c = (i % 9) as u32;
                (i, uda(&[(c, 0.7), ((c + 2) % 9, 0.3)]))
            })
            .collect();
        let blob = {
            let mut pool = BufferPool::with_capacity(store.clone(), 128);
            let tree = PdrTree::build(
                Domain::anonymous(9),
                cfg,
                &mut pool,
                data.iter().map(|(t, u)| (*t, u)),
            )
            .unwrap();
            pool.flush().unwrap();
            tree.snapshot()
        };

        let tree = PdrTree::open(&blob).expect("snapshot decodes");
        assert_eq!(tree.len(), 500);
        assert_eq!(*tree.config(), cfg, "configuration survives");
        assert_eq!(tree.snapshot(), blob, "re-encoding is byte-identical");
        let mut pool = BufferPool::with_capacity(store, 128);
        assert_eq!(tree.check_invariants(&mut pool).unwrap(), 500);
        let out = tree
            .petq(&mut pool, &EqQuery::new(uda(&[(0, 1.0)]), 0.5))
            .unwrap();
        assert!(!out.is_empty());
    }

    #[test]
    fn save_load_roundtrip_over_a_real_file() {
        let dir = std::env::temp_dir();
        let pages = dir.join(format!("uncat-pdr-persist-{}.pages", std::process::id()));
        let snap = dir.join(format!("uncat-pdr-persist-{}.snap", std::process::id()));
        struct Cleanup(Vec<std::path::PathBuf>);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                for p in &self.0 {
                    let _ = std::fs::remove_file(p);
                }
            }
        }
        let _guard = Cleanup(vec![pages.clone(), snap.clone()]);

        let data: Vec<(u64, Uda)> = (0..200u64)
            .map(|i| (i, uda(&[((i % 5) as u32, 1.0)])))
            .collect();
        {
            let store: uncat_storage::SharedStore =
                std::sync::Arc::new(FileDisk::create(&pages).expect("create"));
            let mut pool = BufferPool::with_capacity(store, 64);
            let tree = PdrTree::build(
                Domain::anonymous(5),
                PdrConfig::default(),
                &mut pool,
                data.iter().map(|(t, u)| (*t, u)),
            )
            .unwrap();
            pool.flush().unwrap();
            tree.save(&snap).expect("atomic snapshot commit");
        }
        // Process "restart": reopen the page file and the snapshot file.
        let store: uncat_storage::SharedStore =
            std::sync::Arc::new(FileDisk::open(&pages).expect("open"));
        let tree = PdrTree::load(&snap).expect("snapshot loads");
        let mut pool = BufferPool::with_capacity(store, 64);
        let out = tree
            .petq(&mut pool, &EqQuery::new(uda(&[(2, 1.0)]), 0.9))
            .unwrap();
        assert_eq!(out.len(), 40);
    }

    /// The writer ends after the depth (`tests/format.rs` walks the
    /// bytes). A snapshot an older writer left with its 16-byte
    /// page-count tail opens to the same tree, and any other tail is
    /// refused with a typed error.
    #[test]
    fn snapshot_without_page_counts_still_opens() {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 128);
        let data: Vec<(u64, Uda)> = (0..3000u64)
            .map(|i| (i, uda(&[((i % 7) as u32, 0.6), (7, 0.4)])))
            .collect();
        let tree = PdrTree::build(
            Domain::anonymous(8),
            PdrConfig::default(),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        let current = tree.snapshot();
        let s = tree.stats(&mut pool).unwrap();
        let mut counted = current.clone();
        counted.extend_from_slice(&s.leaves.to_le_bytes());
        counted.extend_from_slice(&s.internals.to_le_bytes());
        let old = PdrTree::open(&counted).expect("a counted snapshot opens");
        assert_eq!(old.snapshot(), current, "and re-encodes without the counts");
        assert_eq!(old.check_invariants(&mut pool).unwrap(), 3000);
        for (cat, tau) in [(2, 0.5), (7, 0.3), (0, 0.9)] {
            let q = EqQuery::new(uda(&[(cat, 1.0)]), tau);
            assert_eq!(
                old.petq(&mut pool, &q).unwrap(),
                tree.petq(&mut pool, &q).unwrap()
            );
        }

        for tail in [8, 17, 24] {
            let mut blob = current.clone();
            blob.resize(current.len() + tail, 0);
            assert_eq!(
                PdrTree::open(&blob).err(),
                Some(SnapshotError("trailing bytes after the tree header")),
                "{tail} trailing bytes"
            );
        }
    }

    #[test]
    fn corrupt_snapshots_rejected() {
        assert!(PdrTree::open(b"junk").is_err());
        // Valid magic + invalid divergence byte.
        let mut w = Writer::new(MAGIC);
        w.u8(0);
        w.u32(3);
        w.u8(9); // bogus divergence
        let blob = w.finish();
        assert!(PdrTree::open(&blob).is_err());
    }
}
