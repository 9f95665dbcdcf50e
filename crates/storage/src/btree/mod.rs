//! A paged B+tree with fixed-width keys and values: what is left of the
//! layout the inverted index's posting lists had before block lists
//! replaced it (`docs/FORMAT.md` §9).
//!
//! Two callers remain, and the module goes once both have:
//!
//! * `uncat_inverted::upgrade` reattaches the raw lists of an old `UIV1`
//!   snapshot ([`BTree::from_raw_parts`]) and walks their leaves read-only
//!   ([`BTree::scan_all`]) to rebuild them as block lists;
//! * the benchmark's `storage.btree.get_ns` probe times [`BTree::create`],
//!   [`BTree::insert`] and [`BTree::get`] (ROADMAP item 2(a) retires it).
//!
//! [`keys`] holds the order-preserving encodings the posting key is built
//! from; it outlives the tree.
//!
//! Keys are `K`-byte strings compared lexicographically, values `V`-byte
//! strings (possibly zero-width), and leaves are chained for ordered
//! scans. All page access goes through a [`BufferPool`] and is fallible.
//! The read paths take page bytes as untrusted — an old file is input
//! from outside the program: a node count past its page's capacity, a
//! descent deeper than the recorded depth or a leaf chain that loops is
//! [`StorageError::Corrupt`], never a panic or a hang.

pub mod keys;
mod node;

use std::collections::HashSet;
use std::ops::ControlFlow;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{PageBuf, PageId};

use node::{
    init_internal, init_leaf, int_child, int_insert_at, int_key, int_route, internal_cap, is_leaf,
    leaf_cap, leaf_insert_at, leaf_key, leaf_search, leaf_val, next_leaf, set_count,
    set_int_child0, set_next_leaf,
};

/// A B+tree with `K`-byte keys and `V`-byte values.
pub struct BTree<const K: usize, const V: usize> {
    root: PageId,
    len: u64,
    depth: u32,
}

enum Ins<const K: usize> {
    Done,
    Replaced,
    Split { sep: [u8; K], right: PageId },
}

impl<const K: usize, const V: usize> BTree<K, V> {
    /// Max entries per leaf page.
    pub const LEAF_CAP: usize = leaf_cap(K, V);
    /// Max separators per internal page.
    pub const INT_CAP: usize = internal_cap(K);

    /// Create an empty tree (allocates the root leaf).
    pub fn create(pool: &mut BufferPool) -> Result<Self> {
        let root = pool.allocate()?;
        pool.write(root, |b| init_leaf(b))?;
        Ok(BTree {
            root,
            len: 0,
            depth: 1,
        })
    }

    /// Reattach a tree from the `(root, len, depth)` an old snapshot
    /// recorded for it. Nothing is read here; the read paths check what
    /// they find against `len`'s and `depth`'s claims.
    pub fn from_raw_parts(root: PageId, len: u64, depth: u32) -> Self {
        BTree { root, len, depth }
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Descend from the root to the leaf that would hold `key`, in at most
    /// `depth` page reads.
    fn descend_to_leaf(&self, pool: &mut BufferPool, key: &[u8; K]) -> Result<PageId> {
        let mut pid = self.root;
        for _ in 0..self.depth {
            let step = pool.read(pid, |b| {
                if is_leaf(b) {
                    Ok(None)
                } else if node::count(b) > Self::INT_CAP {
                    Err(StorageError::Corrupt("B+tree internal node overfull"))
                } else {
                    Ok(Some(int_route(b, K, key).1))
                }
            })??;
            match step {
                Some(child) => pid = child,
                None => return Ok(pid),
            }
        }
        Err(StorageError::Corrupt(
            "B+tree deeper than its recorded depth",
        ))
    }

    /// The entry count of a page reached as a leaf.
    fn leaf_count(b: &[u8]) -> Result<usize> {
        let n = node::count(b);
        if !is_leaf(b) || n > Self::LEAF_CAP {
            return Err(StorageError::Corrupt("B+tree leaf malformed"));
        }
        Ok(n)
    }

    /// Point lookup.
    pub fn get(&self, pool: &mut BufferPool, key: &[u8; K]) -> Result<Option<[u8; V]>> {
        let pid = self.descend_to_leaf(pool, key)?;
        pool.read(pid, |b| {
            Self::leaf_count(b)?;
            Ok(match leaf_search(b, K, V, key) {
                Ok(i) => {
                    let mut out = [0u8; V];
                    out.copy_from_slice(leaf_val(b, K, V, i));
                    Some(out)
                }
                Err(_) => None,
            })
        })?
    }

    /// Upsert. Returns the previous value if the key was present.
    pub fn insert(
        &mut self,
        pool: &mut BufferPool,
        key: &[u8; K],
        val: &[u8; V],
    ) -> Result<Option<[u8; V]>> {
        // Fast path: find and replace without structural changes is folded
        // into the recursive path below (it reports Replaced).
        let prev = self.get(pool, key)?;
        match self.insert_rec(pool, self.root, key, val)? {
            Ins::Done => {
                self.len += 1;
                Ok(None)
            }
            Ins::Replaced => Ok(prev),
            Ins::Split { sep, right } => {
                let new_root = pool.allocate()?;
                let old_root = self.root;
                pool.write(new_root, |b| {
                    init_internal(b);
                    set_int_child0(b, old_root);
                    int_insert_at(b, K, 0, &sep, right);
                })?;
                self.root = new_root;
                self.depth += 1;
                self.len += 1;
                Ok(None)
            }
        }
    }

    fn insert_rec(
        &mut self,
        pool: &mut BufferPool,
        pid: PageId,
        key: &[u8; K],
        val: &[u8; V],
    ) -> Result<Ins<K>> {
        let leaf = pool.read(pid, |b| is_leaf(b))?;
        if leaf {
            return self.leaf_insert(pool, pid, key, val);
        }
        let (_, child) = pool.read(pid, |b| int_route(b, K, key))?;
        match self.insert_rec(pool, child, key, val)? {
            Ins::Done => Ok(Ins::Done),
            Ins::Replaced => Ok(Ins::Replaced),
            Ins::Split { sep, right } => self.int_insert(pool, pid, sep, right),
        }
    }

    fn leaf_insert(
        &mut self,
        pool: &mut BufferPool,
        pid: PageId,
        key: &[u8; K],
        val: &[u8; V],
    ) -> Result<Ins<K>> {
        enum Local {
            InPlace,
            Replaced,
            NeedSplit,
        }
        let outcome = pool.write(pid, |b| match leaf_search(b, K, V, key) {
            Ok(i) => {
                let off = node::leaf_entry_off(K, V, i) + K;
                b[off..off + V].copy_from_slice(val);
                Local::Replaced
            }
            Err(i) => {
                if node::count(b) < Self::LEAF_CAP {
                    leaf_insert_at(b, K, V, i, key, val);
                    Local::InPlace
                } else {
                    let _ = i;
                    Local::NeedSplit
                }
            }
        })?;
        match outcome {
            Local::InPlace => Ok(Ins::Done),
            Local::Replaced => Ok(Ins::Replaced),
            Local::NeedSplit => {
                // Split, then insert into the proper half.
                let mut left: PageBuf = pool.read(pid, |b| Box::new(*b))?;
                let right_pid = pool.allocate()?;
                let mut right: PageBuf = crate::page::zeroed_page();
                init_leaf(&mut right[..]);

                let n = node::count(&left[..]);
                // Append-friendly split: bulk loads insert in key order, and
                // an even split would leave every leaf half full. When the
                // new key goes past the last entry, keep the left leaf full
                // and start a fresh right leaf.
                let appending = key.as_slice() > leaf_key(&left[..], K, V, n - 1);
                let mid = if appending { n } else { n / 2 };
                if appending {
                    set_next_leaf(&mut right[..], next_leaf(&left[..]));
                    set_next_leaf(&mut left[..], right_pid);
                    leaf_insert_at(&mut right[..], K, V, 0, key, val);
                    let mut sep = [0u8; K];
                    sep.copy_from_slice(key);
                    pool.write(pid, |b| *b = *left)?;
                    pool.write(right_pid, |b| *b = *right)?;
                    return Ok(Ins::Split {
                        sep,
                        right: right_pid,
                    });
                }
                let w = K + V;
                let src = node::leaf_entry_off(K, V, mid);
                let cnt_right = n - mid;
                let dst = node::HDR;
                right[dst..dst + cnt_right * w].copy_from_slice(&left[src..src + cnt_right * w]);
                set_count(&mut right[..], cnt_right);
                set_count(&mut left[..], mid);
                set_next_leaf(&mut right[..], next_leaf(&left[..]));
                set_next_leaf(&mut left[..], right_pid);

                let mut sep = [0u8; K];
                sep.copy_from_slice(leaf_key(&right[..], K, V, 0));

                if key.as_slice() < sep.as_slice() {
                    let i = leaf_search(&left[..], K, V, key).unwrap_err();
                    leaf_insert_at(&mut left[..], K, V, i, key, val);
                } else {
                    let i = leaf_search(&right[..], K, V, key).unwrap_err();
                    leaf_insert_at(&mut right[..], K, V, i, key, val);
                }
                pool.write(pid, |b| *b = *left)?;
                pool.write(right_pid, |b| *b = *right)?;
                Ok(Ins::Split {
                    sep,
                    right: right_pid,
                })
            }
        }
    }

    fn int_insert(
        &mut self,
        pool: &mut BufferPool,
        pid: PageId,
        sep: [u8; K],
        right_child: PageId,
    ) -> Result<Ins<K>> {
        let full = pool.read(pid, |b| node::count(b) >= Self::INT_CAP)?;
        if !full {
            pool.write(pid, |b| {
                let n = node::count(b);
                let mut lo = 0;
                let mut hi = n;
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if int_key(b, K, mid) < sep.as_slice() {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                int_insert_at(b, K, lo, &sep, right_child);
            })?;
            return Ok(Ins::Done);
        }
        // Split the internal node.
        let mut left: PageBuf = pool.read(pid, |b| Box::new(*b))?;
        let right_pid = pool.allocate()?;
        let mut right: PageBuf = crate::page::zeroed_page();
        init_internal(&mut right[..]);

        let n = node::count(&left[..]);
        let mid = n / 2;
        let mut promoted = [0u8; K];
        promoted.copy_from_slice(int_key(&left[..], K, mid));

        // Right node: child0 = child(mid); separators mid+1..n.
        set_int_child0(&mut right[..], int_child(&left[..], K, mid));
        let w = K + 8;
        let src = node::int_entry_off(K, mid + 1);
        let cnt_right = n - mid - 1;
        let dst = node::int_entry_off(K, 0);
        right[dst..dst + cnt_right * w].copy_from_slice(&left[src..src + cnt_right * w]);
        set_count(&mut right[..], cnt_right);
        set_count(&mut left[..], mid);

        // Insert the pending separator into the proper half.
        let target = if sep.as_slice() < promoted.as_slice() {
            &mut left
        } else {
            &mut right
        };
        {
            let b = &mut target[..];
            let n = node::count(b);
            let mut lo = 0;
            let mut hi = n;
            while lo < hi {
                let m = (lo + hi) / 2;
                if int_key(b, K, m) < sep.as_slice() {
                    lo = m + 1;
                } else {
                    hi = m;
                }
            }
            int_insert_at(b, K, lo, &sep, right_child);
        }
        pool.write(pid, |b| *b = *left)?;
        pool.write(right_pid, |b| *b = *right)?;
        Ok(Ins::Split {
            sep: promoted,
            right: right_pid,
        })
    }

    /// Ordered scan from `start` (inclusive). `f` returns
    /// [`ControlFlow::Break`] to stop early. A leaf chain that revisits a
    /// page is [`StorageError::Corrupt`].
    fn scan_from(
        &self,
        pool: &mut BufferPool,
        start: &[u8; K],
        mut f: impl FnMut(&[u8; K], &[u8; V]) -> ControlFlow<()>,
    ) -> Result<()> {
        let mut pid = self.descend_to_leaf(pool, start)?;
        let mut first = true;
        let mut visited = HashSet::new();
        while pid.is_valid() {
            if !visited.insert(pid) {
                return Err(StorageError::Corrupt("B+tree leaf chain loops"));
            }
            // Copy out entries ≥ start, then release the page before calling f.
            let (entries, next) = pool.read(pid, |b| {
                let n = Self::leaf_count(b)?;
                let from = if first {
                    match leaf_search(b, K, V, start) {
                        Ok(i) => i,
                        Err(i) => i,
                    }
                } else {
                    0
                };
                let mut out: Vec<([u8; K], [u8; V])> = Vec::with_capacity(n.saturating_sub(from));
                for i in from..n {
                    let mut kk = [0u8; K];
                    kk.copy_from_slice(leaf_key(b, K, V, i));
                    let mut vv = [0u8; V];
                    vv.copy_from_slice(leaf_val(b, K, V, i));
                    out.push((kk, vv));
                }
                Ok((out, next_leaf(b)))
            })??;
            first = false;
            for (k, v) in &entries {
                if let ControlFlow::Break(()) = f(k, v) {
                    return Ok(());
                }
            }
            pid = next;
        }
        Ok(())
    }

    /// Ordered scan of the whole tree.
    pub fn scan_all(
        &self,
        pool: &mut BufferPool,
        f: impl FnMut(&[u8; K], &[u8; V]) -> ControlFlow<()>,
    ) -> Result<()> {
        self.scan_from(pool, &[0u8; K], f)
    }
}

#[cfg(test)]
mod tests {
    use super::keys::{u32_be, u32_from_be, u64_be, u64_from_be};
    use super::*;
    use crate::disk::InMemoryDisk;

    fn pool() -> BufferPool {
        BufferPool::with_capacity(InMemoryDisk::shared(), 64)
    }

    type T = BTree<4, 8>;

    #[test]
    fn insert_get_small() {
        let mut p = pool();
        let mut t = T::create(&mut p).unwrap();
        for i in 0..100u32 {
            assert!(t
                .insert(&mut p, &u32_be(i * 7 % 100), &u64_be(i as u64))
                .unwrap()
                .is_none());
        }
        assert_eq!(t.len(), 100);
        for i in 0..100u32 {
            let v = t.get(&mut p, &u32_be(i * 7 % 100)).unwrap().unwrap();
            assert_eq!(u64_from_be(&v), i as u64);
        }
        assert!(t.get(&mut p, &u32_be(100)).unwrap().is_none());
    }

    #[test]
    fn upsert_replaces() {
        let mut p = pool();
        let mut t = T::create(&mut p).unwrap();
        assert!(t.insert(&mut p, &u32_be(5), &u64_be(1)).unwrap().is_none());
        let old = t.insert(&mut p, &u32_be(5), &u64_be(2)).unwrap().unwrap();
        assert_eq!(u64_from_be(&old), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(u64_from_be(&t.get(&mut p, &u32_be(5)).unwrap().unwrap()), 2);
    }

    #[test]
    fn many_inserts_split_leaves_and_internals() {
        let mut p = pool();
        let mut t = T::create(&mut p).unwrap();
        let n = 20_000u32;
        // Insert in a scrambled order to exercise both split paths.
        // gcd(7919, 20000) = 1, so i ↦ 7919·i mod n is a permutation.
        for i in 0..n {
            let k = (i * 7919) % n;
            t.insert(&mut p, &u32_be(k), &u64_be(k as u64 * 3)).unwrap();
        }
        assert_eq!(
            t.len() as u32,
            n,
            "duplicates collapse: permutation covers 0..n"
        );
        assert!(t.depth >= 2, "20k entries must overflow a single leaf");
        for i in (0..n).step_by(997) {
            assert_eq!(
                u64_from_be(&t.get(&mut p, &u32_be(i)).unwrap().unwrap()),
                i as u64 * 3
            );
        }
    }

    #[test]
    fn scan_is_sorted_and_complete() {
        let mut p = pool();
        let mut t = T::create(&mut p).unwrap();
        let n = 5000u32;
        for i in 0..n {
            let k = i.wrapping_mul(48271) % n;
            t.insert(&mut p, &u32_be(k), &u64_be(0)).unwrap();
        }
        let mut seen = Vec::new();
        t.scan_all(&mut p, |k, _| {
            seen.push(u32_from_be(k));
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(seen.len(), n as usize);
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "scan must be strictly sorted"
        );
    }

    #[test]
    fn scan_from_midpoint_and_early_stop() {
        let mut p = pool();
        let mut t = T::create(&mut p).unwrap();
        for i in 0..1000u32 {
            t.insert(&mut p, &u32_be(i), &u64_be(i as u64)).unwrap();
        }
        let mut got = Vec::new();
        t.scan_from(&mut p, &u32_be(990), |k, _| {
            got.push(u32_from_be(k));
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(got, (990..1000).collect::<Vec<_>>());

        let mut cnt = 0;
        t.scan_from(&mut p, &u32_be(10), |_, _| {
            cnt += 1;
            if cnt == 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap();
        assert_eq!(cnt, 5);
    }

    #[test]
    fn zero_width_values_work() {
        let mut p = pool();
        let mut t: BTree<8, 0> = BTree::create(&mut p).unwrap();
        for i in 0..1000u64 {
            t.insert(&mut p, &u64_be(i), &[]).unwrap();
        }
        assert_eq!(t.len(), 1000);
        assert!(t.get(&mut p, &u64_be(999)).unwrap().is_some());
        assert!(t.get(&mut p, &u64_be(1000)).unwrap().is_none());
    }

    #[test]
    fn persists_across_pools() {
        let store = InMemoryDisk::shared();
        let (t, root_len) = {
            let mut p = BufferPool::with_capacity(store.clone(), 64);
            let mut t = T::create(&mut p).unwrap();
            for i in 0..3000u32 {
                t.insert(&mut p, &u32_be(i), &u64_be(i as u64 + 1)).unwrap();
            }
            p.flush().unwrap();
            let l = t.len();
            (t, l)
        };
        let mut q = BufferPool::with_capacity(store, 64);
        assert_eq!(t.len(), root_len);
        assert_eq!(
            u64_from_be(&t.get(&mut q, &u32_be(1234)).unwrap().unwrap()),
            1235
        );
    }

    #[test]
    fn append_load_packs_leaves_densely() {
        let store = InMemoryDisk::shared();
        let mut p = BufferPool::with_capacity(store.clone(), 200);
        let mut t = T::create(&mut p).unwrap();
        let n = 10 * T::LEAF_CAP as u32;
        for i in 0..n {
            t.insert(&mut p, &u32_be(i), &u64_be(0)).unwrap();
        }
        p.flush().unwrap();
        // With the append-friendly split, ~n/LEAF_CAP leaves (plus internal
        // pages), not the ~2× an even split would produce.
        let pages = store.num_pages();
        assert!(
            pages <= (n as u64 / T::LEAF_CAP as u64) + 4,
            "expected dense packing, got {pages} pages for {n} appended keys"
        );
    }

    #[test]
    fn sequential_inserts_reach_expected_depth() {
        let mut p = pool();
        let mut t = T::create(&mut p).unwrap();
        // Leaf cap for K=4,V=8 is (8192-12)/12 = 681.
        assert_eq!(T::LEAF_CAP, (8192 - 12) / 12);
        for i in 0..(T::LEAF_CAP as u32 + 1) {
            t.insert(&mut p, &u32_be(i), &u64_be(0)).unwrap();
        }
        assert_eq!(t.depth, 2, "one overflow ⇒ root becomes internal");
    }

    #[test]
    fn injected_read_failure_surfaces_from_lookup() {
        use crate::fault::{Fault, FaultStore};
        use std::sync::Arc;

        let faults = Arc::new(FaultStore::new(InMemoryDisk::shared(), 3));
        let mut p = BufferPool::with_capacity(faults.clone(), 4);
        let mut t = T::create(&mut p).unwrap();
        for i in 0..5000u32 {
            t.insert(&mut p, &u32_be(i), &u64_be(i as u64)).unwrap();
        }
        p.clear().unwrap(); // force physical reads on the next lookup
        faults.arm(Fault::FailRead {
            after: faults.reads_so_far() + 1,
        });
        let err = t.get(&mut p, &u32_be(4321)).unwrap_err();
        assert!(matches!(err, StorageError::Io { op: "read", .. }));
        // The pool survives: the same lookup succeeds once the fault is spent.
        assert_eq!(
            u64_from_be(&t.get(&mut p, &u32_be(4321)).unwrap().unwrap()),
            4321
        );
    }

    /// Old trees are read from files this build did not write: every
    /// structural lie a page or the recorded parts can tell is a typed
    /// error, never a panic or an endless walk.
    #[test]
    fn malformed_trees_are_typed_errors() {
        let corrupt = |r: Result<()>| assert!(matches!(r, Err(StorageError::Corrupt(_))), "{r:?}");
        let walk = |t: &T, p: &mut BufferPool| t.scan_all(p, |_, _| ControlFlow::Continue(()));
        let mut p = pool();
        let mut t = T::create(&mut p).unwrap();
        for i in 0..(T::LEAF_CAP as u32 + 1) {
            t.insert(&mut p, &u32_be(i), &u64_be(0)).unwrap();
        }
        walk(&t, &mut p).unwrap();

        // A depth recorded lower than the tree's.
        let shallow = T::from_raw_parts(t.root, t.len, 1);
        corrupt(walk(&shallow, &mut p));
        corrupt(shallow.get(&mut p, &u32_be(3)).map(drop));
        corrupt(walk(&T::from_raw_parts(t.root, t.len, 0), &mut p));

        // A leaf whose count overruns its page, and an internal node's.
        let leaf = p.read(t.root, |b| node::int_child0(b)).unwrap();
        let overfull = (T::LEAF_CAP + 1) as u16;
        p.write(leaf, |b| {
            crate::page::field::put_u16(b, node::OFF_COUNT, overfull)
        })
        .unwrap();
        corrupt(walk(&t, &mut p));
        p.write(t.root, |b| {
            crate::page::field::put_u16(b, node::OFF_COUNT, u16::MAX)
        })
        .unwrap();
        corrupt(t.get(&mut p, &u32_be(3)).map(drop));

        // A leaf chain that comes back to where it started.
        let mut t = T::create(&mut p).unwrap();
        t.insert(&mut p, &u32_be(1), &u64_be(0)).unwrap();
        let root = t.root;
        p.write(root, |b| set_next_leaf(b, root)).unwrap();
        corrupt(walk(&t, &mut p));
    }
}
