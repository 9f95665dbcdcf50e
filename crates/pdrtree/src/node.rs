//! On-page PDR-tree node serialization.
//!
//! Nodes hold variable-length entries (sparse UDAs / boundary vectors), so
//! unlike the B+tree there is no fixed fan-out: a node is full when its
//! serialization no longer fits an 8 KB page. Boundary compression directly
//! increases fan-out — the effect the paper's compression section is after.
//!
//! Page layout:
//!
//! ```text
//! 0  u8  node type (0 = leaf, 1 = internal)
//! 1  u8  (reserved)
//! 2  u16 entry count
//! 4  entries…
//!
//! leaf entry:      a tuple record, u64 tid ‖ UDA (`codec::encode_record`)
//! internal entry:  u64 child page ‖ boundary encoding
//!
//! boundary encodings (shape fixed per tree by the compression config):
//!   none:          u16 n ‖ n × (u32 cat, f32 prob)
//!   discretized b: u16 n ‖ n × u32 cat ‖ ⌈n·b/8⌉ code bytes (rounded UP)
//!   signature w:   w × f32
//! ```
//!
//! Deserialization never trusts the page: a node image that does not parse
//! (bad type byte, counts pointing past the page, malformed UDA, boundary
//! value outside `[0, 1]` or categories out of order) is a typed
//! [`StorageError::Corrupt`], not a panic — a corrupted page fails the
//! query that touched it and nothing else.
//!
//! One reader makes those checks. [`visit_node`] is the kernel under
//! every read-only traversal: it validates the image where it lies on the
//! pinned page and hands each entry to a visitor as a borrowed view
//! ([`Scan`], [`BoundaryRef`]) that is scored in place — nothing is
//! allocated. [`read_node`] is the same kernel collected into an owned
//! [`Node`], for the paths that rewrite one (insert, split, delete
//! repair). The decoder the kernel replaced is kept in the test-only
//! `reference` module as the oracle both are held to.

use uncat_core::codec::{self, Scan};
use uncat_core::uda::Entry;
use uncat_core::{CatId, Prob, Uda};
use uncat_storage::page::field;
use uncat_storage::{BufferPool, PageId, Result, StorageError, PAGE_SIZE};

use crate::boundary::{self, Boundary, ByProb, DistanceBound};
use crate::config::Compression;

pub(crate) const NODE_HDR: usize = 4;
pub(crate) const TYPE_LEAF: u8 = 0;
pub(crate) const TYPE_INTERNAL: u8 = 1;

/// One stored distribution in a leaf.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LeafEntry {
    pub tid: u64,
    pub uda: Uda,
}

/// One child reference in an internal node.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChildEntry {
    pub pid: PageId,
    pub boundary: Boundary,
}

/// A deserialized node.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    Leaf(Vec<LeafEntry>),
    Internal(Vec<ChildEntry>),
}

impl Node {
    pub(crate) fn count(&self) -> usize {
        match self {
            Node::Leaf(v) => v.len(),
            Node::Internal(v) => v.len(),
        }
    }

    /// Serialized size in bytes under `compression`.
    pub(crate) fn serialized_size(&self, compression: Compression) -> usize {
        NODE_HDR
            + match self {
                Node::Leaf(v) => v.iter().map(|e| codec::record_len(&e.uda)).sum::<usize>(),
                Node::Internal(v) => v
                    .iter()
                    .map(|e| 8 + boundary_size(&e.boundary, compression))
                    .sum::<usize>(),
            }
    }

    /// Whether the node still fits a page.
    pub(crate) fn fits(&self, compression: Compression) -> bool {
        self.serialized_size(compression) <= PAGE_SIZE
    }
}

/// Serialized bytes of one boundary.
pub(crate) fn boundary_size(b: &Boundary, compression: Compression) -> usize {
    match (b, compression) {
        (Boundary::Sparse(v), Compression::None) => 2 + v.len() * 8,
        (Boundary::Sparse(v), Compression::Discretized { bits }) => {
            2 + v.len() * 4 + (v.len() * bits as usize).div_ceil(8)
        }
        (Boundary::Signature(vals), Compression::Signature { .. }) => vals.len() * 4,
        _ => panic!("boundary shape does not match compression config"),
    }
}

/// Round `p` *up* to the next representable `bits`-wide code. The code `c`
/// (stored as `c − 1`) decodes to `c / 2^bits ≥ p`, preserving domination.
fn quantize_up(p: Prob, bits: u8) -> u8 {
    let slabs = (1u32 << bits) as f64;
    let c = ((p as f64) * slabs).ceil().max(1.0) as u32;
    debug_assert!(c <= 1 << bits);
    (c - 1) as u8
}

pub(crate) fn dequantize(code: u8, bits: u8) -> Prob {
    let slabs = (1u32 << bits) as f64;
    ((code as f64 + 1.0) / slabs) as Prob
}

fn encode_boundary(b: &Boundary, compression: Compression, out: &mut Vec<u8>) {
    match (b, compression) {
        (Boundary::Sparse(v), Compression::None) => {
            out.extend_from_slice(&(v.len() as u16).to_le_bytes());
            for e in v {
                out.extend_from_slice(&e.cat.0.to_le_bytes());
                out.extend_from_slice(&e.prob.to_le_bytes());
            }
        }
        (Boundary::Sparse(v), Compression::Discretized { bits }) => {
            out.extend_from_slice(&(v.len() as u16).to_le_bytes());
            for e in v {
                out.extend_from_slice(&e.cat.0.to_le_bytes());
            }
            // Bit-packed codes.
            let mut acc: u32 = 0;
            let mut nbits = 0u32;
            for e in v {
                acc |= (quantize_up(e.prob, bits) as u32) << nbits;
                nbits += bits as u32;
                while nbits >= 8 {
                    out.push((acc & 0xFF) as u8);
                    acc >>= 8;
                    nbits -= 8;
                }
            }
            if nbits > 0 {
                out.push((acc & 0xFF) as u8);
            }
        }
        (Boundary::Signature(vals), Compression::Signature { width }) => {
            debug_assert_eq!(vals.len(), width as usize);
            for p in vals {
                out.extend_from_slice(&p.to_le_bytes());
            }
        }
        _ => panic!("boundary shape does not match compression config"),
    }
}

pub(crate) const BAD_BOUNDARY: StorageError =
    StorageError::Corrupt("PDR boundary encoding points past its page");
const BAD_BOUND: StorageError =
    StorageError::Corrupt("PDR boundary value is not a probability in [0, 1]");
const BAD_BOUNDARY_ORDER: StorageError =
    StorageError::Corrupt("PDR boundary categories not strictly increasing");
pub(crate) const BAD_LEAF_ENTRY: StorageError =
    StorageError::Corrupt("PDR leaf entry past its page");
pub(crate) const BAD_CHILD_ENTRY: StorageError =
    StorageError::Corrupt("PDR child entry past its page");
pub(crate) const BAD_UDA: StorageError = StorageError::Corrupt("stored UDA does not decode");
pub(crate) const BAD_NODE_TYPE: StorageError = StorageError::Corrupt("unknown PDR node type byte");

/// A boundary value must be a probability. NaN fails the range test too:
/// left in, it would prune silently (every comparison with it is false).
pub(crate) fn check_bound(p: Prob) -> Result<Prob> {
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(BAD_BOUND)
    }
}

/// Sparse boundaries are searched by category, so the order is checked.
pub(crate) fn check_order(prev: &mut Option<u32>, cat: u32) -> Result<()> {
    if prev.is_some_and(|p| cat <= p) {
        return Err(BAD_BOUNDARY_ORDER);
    }
    *prev = Some(cat);
    Ok(())
}

/// Write a node image onto its page. Panics if the node does not fit —
/// callers split before writing. I/O failures surface as `Err`.
pub(crate) fn write_node(
    pool: &mut BufferPool,
    pid: PageId,
    node: &Node,
    compression: Compression,
) -> Result<()> {
    let mut bytes = Vec::with_capacity(node.serialized_size(compression));
    match node {
        Node::Leaf(entries) => {
            bytes.push(TYPE_LEAF);
            bytes.push(0);
            bytes.extend_from_slice(&(entries.len() as u16).to_le_bytes());
            for e in entries {
                codec::encode_record(e.tid, &e.uda, &mut bytes);
            }
        }
        Node::Internal(children) => {
            bytes.push(TYPE_INTERNAL);
            bytes.push(0);
            bytes.extend_from_slice(&(children.len() as u16).to_le_bytes());
            for c in children {
                bytes.extend_from_slice(&c.pid.0.to_le_bytes());
                encode_boundary(&c.boundary, compression, &mut bytes);
            }
        }
    }
    assert!(
        bytes.len() <= PAGE_SIZE,
        "node of {} bytes overflows its page",
        bytes.len()
    );
    pool.write(pid, |b| {
        b[..bytes.len()].copy_from_slice(&bytes);
    })
}

/// Read a node image from its page: the kernel ([`visit_node`]) with
/// its entries collected into an owned [`Node`] — the same checks, the
/// same errors, the page pinned once. A malformed image is
/// [`StorageError::Corrupt`].
pub(crate) fn read_node(
    pool: &mut BufferPool,
    pid: PageId,
    compression: Compression,
) -> Result<Node> {
    pool.read(pid, |b| {
        let (mut entries, mut children) = (Vec::new(), Vec::new());
        visit_page(b, compression, |v| match v {
            Visit::Entry { tid, uda } => {
                // A record that breaks an invariant fails the node as soon
                // as the kernel finishes it.
                if let Ok(uda) = uda.to_uda() {
                    entries.push(LeafEntry { tid, uda });
                }
            }
            Visit::Child { pid, boundary } => children.push(ChildEntry {
                pid,
                boundary: boundary.to_boundary(),
            }),
        })?;
        Ok(match b[0] {
            TYPE_LEAF => Node::Leaf(entries),
            _ => Node::Internal(children),
        })
    })?
}

/// What [`visit_node`] hands its visitor, borrowed from the pinned page.
pub(crate) enum Visit<'v, 'a> {
    /// One stored distribution of a leaf: its entries, checked as the
    /// visitor reads them. The kernel reads whatever the visitor leaves
    /// and fails the node if the record breaks a UDA invariant.
    Entry { tid: u64, uda: &'v mut Scan<'a> },
    /// One child reference of an internal node.
    Child {
        pid: PageId,
        boundary: BoundaryRef<'a>,
    },
}

/// A boundary as it lies encoded on a page, validated by
/// [`BoundaryRef::parse`] and scored in place: the bounds are the owned
/// [`Boundary`]'s formulas (the capped Lemma 2 bound and the floored
/// distance bounds of [`crate::boundary`]) over a lookup that reads the
/// page bytes.
#[derive(Clone, Copy)]
pub(crate) enum BoundaryRef<'a> {
    /// `n × (u32 cat, f32 prob)`, categories strictly increasing.
    Sparse(&'a [[u8; 8]]),
    /// `n × u32 cat` (strictly increasing) and the bit-packed codes,
    /// dequantized one at a time as a bound is asked for.
    Discretized {
        cats: &'a [[u8; 4]],
        codes: &'a [u8],
        bits: u8,
    },
    /// `width × f32` over the compressed domain.
    Signature(&'a [[u8; 4]]),
}

impl<'a> BoundaryRef<'a> {
    /// Validate the boundary encoded at the front of `buf` — its length,
    /// every value a probability, sparse categories strictly increasing —
    /// and borrow it, with the bytes consumed.
    fn parse(buf: &'a [u8], compression: Compression) -> Result<(BoundaryRef<'a>, usize)> {
        let counted = |entry_bytes: usize, bits: usize| {
            let (n, rest) = buf.split_first_chunk::<2>().ok_or(BAD_BOUNDARY)?;
            let n = u16::from_le_bytes(*n) as usize;
            let code_bytes = (n * bits).div_ceil(8);
            let body = rest
                .get(..n * entry_bytes + code_bytes)
                .ok_or(BAD_BOUNDARY)?;
            Ok(body.split_at(n * entry_bytes))
        };
        match compression {
            Compression::None => {
                let (pairs, _) = counted(8, 0)?;
                let pairs = pairs.as_chunks::<8>().0;
                let mut prev = None;
                for e in pairs {
                    check_order(&mut prev, u64::from_le_bytes(*e) as u32)?;
                    check_bound(pair_prob(e))?;
                }
                Ok((BoundaryRef::Sparse(pairs), 2 + pairs.len() * 8))
            }
            Compression::Discretized { bits } => {
                let (cats, codes) = counted(4, bits as usize)?;
                let cats = cats.as_chunks::<4>().0;
                let mut prev = None;
                for c in cats {
                    check_order(&mut prev, u32::from_le_bytes(*c))?;
                }
                let used = 2 + cats.len() * 4 + codes.len();
                Ok((BoundaryRef::Discretized { cats, codes, bits }, used))
            }
            Compression::Signature { width } => {
                let vals = buf.get(..width as usize * 4).ok_or(BAD_BOUNDARY)?;
                let vals = vals.as_chunks::<4>().0;
                for v in vals {
                    check_bound(Prob::from_le_bytes(*v))?;
                }
                Ok((BoundaryRef::Signature(vals), vals.len() * 4))
            }
        }
    }

    /// The owned boundary this view decodes to.
    pub(crate) fn to_boundary(self) -> Boundary {
        match self {
            BoundaryRef::Sparse(pairs) => Boundary::Sparse(
                pairs
                    .iter()
                    .map(|e| Entry {
                        cat: CatId(u64::from_le_bytes(*e) as u32),
                        prob: pair_prob(e),
                    })
                    .collect(),
            ),
            BoundaryRef::Discretized { cats, codes, bits } => Boundary::Sparse(
                cats.iter()
                    .enumerate()
                    .map(|(i, c)| Entry {
                        cat: CatId(u32::from_le_bytes(*c)),
                        prob: packed_prob(codes, bits, i),
                    })
                    .collect(),
            ),
            BoundaryRef::Signature(vals) => {
                Boundary::Signature(vals.iter().map(|v| Prob::from_le_bytes(*v)).collect())
            }
        }
    }

    /// The boundary's upper bound for category `cat`
    /// ([`Boundary::bound_of`] on the page).
    pub(crate) fn bound_of(&self, cat: CatId) -> Prob {
        match *self {
            BoundaryRef::Sparse(pairs) => pairs
                .binary_search_by_key(&cat.0, |e| u64::from_le_bytes(*e) as u32)
                .map_or(0.0, |i| pair_prob(&pairs[i])),
            BoundaryRef::Discretized { cats, codes, bits } => cats
                .binary_search_by_key(&cat.0, |c| u32::from_le_bytes(*c))
                .map_or(0.0, |i| packed_prob(codes, bits, i)),
            BoundaryRef::Signature(vals) => Prob::from_le_bytes(vals[cat.index() % vals.len()]),
        }
    }

    /// [`Boundary::eq_upper_bound`] on the page, for a query ordered once.
    pub(crate) fn eq_upper_bound(&self, q: &ByProb) -> f64 {
        boundary::eq_upper_bound(q, |cat| self.bound_of(cat))
    }

    /// A DSTQ's subtree bound ([`DistanceBound::at`]) on the page.
    pub(crate) fn distance_lower_bound(&self, bound: &DistanceBound<'_>) -> f64 {
        bound.at(|cat| self.bound_of(cat))
    }
}

/// The probability half of one `(u32 cat, f32 prob)` pair.
fn pair_prob(pair: &[u8; 8]) -> Prob {
    Prob::from_bits((u64::from_le_bytes(*pair) >> 32) as u32)
}

/// Dequantize the `i`-th of the `bits`-wide codes packed into `codes`
/// (low bits first, as `encode_boundary` packs them). A code may straddle
/// a byte; `bits ≤ 8` keeps it within two.
fn packed_prob(codes: &[u8], bits: u8, i: usize) -> Prob {
    let bit = i * bits as usize;
    let lo = codes[bit / 8] as u32;
    let hi = codes.get(bit / 8 + 1).map_or(0, |&b| b as u32);
    let code = ((lo | (hi << 8)) >> (bit % 8)) & ((1 << bits) - 1);
    dequantize(code as u8, bits)
}

/// The node kernel: validate the image of node `pid` where it lies on its
/// pinned page and hand each entry to `visitor` as a borrowed view.
/// Allocates nothing, whatever the page claims. A leaf record is
/// validated in the pass that scores it, so the visitor has seen a
/// malformed record (and everything ahead of it) when the error is
/// returned; callers fail the whole operation on `Err`.
pub(crate) fn visit_node(
    pool: &mut BufferPool,
    pid: PageId,
    compression: Compression,
    visitor: impl FnMut(Visit<'_, '_>),
) -> Result<()> {
    pool.read(pid, |b| visit_page(b, compression, visitor))?
}

/// [`visit_node`] over a page already pinned.
#[inline]
fn visit_page(
    b: &[u8; PAGE_SIZE],
    compression: Compression,
    mut visitor: impl FnMut(Visit<'_, '_>),
) -> Result<()> {
    let count = field::get_u16(&b[..], 2);
    let mut rest = &b[NODE_HDR..];
    match b[0] {
        TYPE_LEAF => {
            for _ in 0..count {
                let (tid, mut uda, used) = codec::scan_record(rest).map_err(|e| {
                    if e == codec::SHORT_RECORD {
                        BAD_LEAF_ENTRY
                    } else {
                        BAD_UDA
                    }
                })?;
                visitor(Visit::Entry { tid, uda: &mut uda });
                uda.finish().map_err(|_| BAD_UDA)?;
                rest = &rest[used..];
            }
            Ok(())
        }
        TYPE_INTERNAL => {
            for _ in 0..count {
                let (child, tail) = rest.split_first_chunk::<8>().ok_or(BAD_CHILD_ENTRY)?;
                let (boundary, used) = BoundaryRef::parse(tail, compression)?;
                visitor(Visit::Child {
                    pid: PageId(u64::from_le_bytes(*child)),
                    boundary,
                });
                rest = &tail[used..];
            }
            Ok(())
        }
        _ => Err(BAD_NODE_TYPE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncat_storage::InMemoryDisk;

    fn uda(pairs: &[(u32, f32)]) -> Uda {
        Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
    }

    fn pool() -> BufferPool {
        BufferPool::with_capacity(InMemoryDisk::shared(), 16)
    }

    #[test]
    fn leaf_roundtrip() {
        let mut p = pool();
        let pid = p.allocate().unwrap();
        let node = Node::Leaf(vec![
            LeafEntry {
                tid: 1,
                uda: uda(&[(0, 0.5), (7, 0.5)]),
            },
            LeafEntry {
                tid: 99,
                uda: uda(&[(3, 1.0)]),
            },
        ]);
        write_node(&mut p, pid, &node, Compression::None).unwrap();
        assert_eq!(read_node(&mut p, pid, Compression::None).unwrap(), node);
    }

    #[test]
    fn internal_roundtrip_uncompressed() {
        let mut p = pool();
        let pid = p.allocate().unwrap();
        let node = Node::Internal(vec![
            ChildEntry {
                pid: PageId(5),
                boundary: Boundary::of_uda(&uda(&[(0, 0.1), (2, 0.9)]), Compression::None),
            },
            ChildEntry {
                pid: PageId(9),
                boundary: Boundary::of_uda(&uda(&[(1, 1.0)]), Compression::None),
            },
        ]);
        write_node(&mut p, pid, &node, Compression::None).unwrap();
        assert_eq!(read_node(&mut p, pid, Compression::None).unwrap(), node);
    }

    #[test]
    fn discretized_roundtrip_only_rounds_up() {
        let mut p = pool();
        let pid = p.allocate().unwrap();
        let cfg = Compression::Discretized { bits: 2 };
        let orig = Boundary::Sparse(vec![
            Entry {
                cat: CatId(0),
                prob: 0.62,
            },
            Entry {
                cat: CatId(5),
                prob: 0.10,
            },
            Entry {
                cat: CatId(6),
                prob: 1.0,
            },
        ]);
        let node = Node::Internal(vec![ChildEntry {
            pid: PageId(1),
            boundary: orig.clone(),
        }]);
        write_node(&mut p, pid, &node, cfg).unwrap();
        let back = read_node(&mut p, pid, cfg).unwrap();
        let Node::Internal(children) = back else {
            panic!("internal expected")
        };
        let Boundary::Sparse(v) = &children[0].boundary else {
            panic!("sparse expected")
        };
        // Paper's example: 0.62 → 0.75 in 2 bits.
        assert_eq!(v[0].prob, 0.75);
        assert_eq!(v[1].prob, 0.25);
        assert_eq!(v[2].prob, 1.0);
        for (a, b) in v.iter().zip(orig.entries()) {
            assert_eq!(a.cat, b.cat);
            assert!(a.prob >= b.prob, "lossy boundary must over-estimate");
        }
    }

    #[test]
    fn discretized_is_smaller_than_exact() {
        let v: Vec<Entry> = (0..100)
            .map(|i| Entry {
                cat: CatId(i),
                prob: 0.5,
            })
            .collect();
        let b = Boundary::Sparse(v);
        let exact = boundary_size(&b, Compression::None);
        let disc = boundary_size(&b, Compression::Discretized { bits: 2 });
        assert!(disc < exact, "{disc} !< {exact}");
        // 2 + 400 cat bytes + 25 code bytes vs 2 + 800.
        assert_eq!(disc, 2 + 400 + 25);
        assert_eq!(exact, 2 + 800);
    }

    #[test]
    fn signature_roundtrip() {
        let mut p = pool();
        let pid = p.allocate().unwrap();
        let cfg = Compression::Signature { width: 8 };
        let b = Boundary::of_uda(&uda(&[(1, 0.2), (9, 0.5), (17, 0.3)]), cfg);
        let node = Node::Internal(vec![ChildEntry {
            pid: PageId(2),
            boundary: b.clone(),
        }]);
        write_node(&mut p, pid, &node, cfg).unwrap();
        let back = read_node(&mut p, pid, cfg).unwrap();
        let Node::Internal(children) = back else {
            panic!("internal expected")
        };
        assert_eq!(children[0].boundary, b);
    }

    #[test]
    fn quantize_bounds() {
        for bits in 1..=8u8 {
            for p in [1e-6f32, 0.1, 0.25, 0.5, 0.62, 0.99, 1.0] {
                let q = dequantize(quantize_up(p, bits), bits);
                assert!(q >= p, "{q} < {p} at {bits} bits");
                assert!(q <= 1.0 + 1e-6);
            }
        }
    }

    #[test]
    fn eight_bit_codes_fit_a_byte() {
        assert_eq!(quantize_up(1.0, 8), 255);
        assert_eq!(dequantize(255, 8), 1.0);
        assert_eq!(quantize_up(1.0 / 256.0, 8), 0);
    }

    #[test]
    fn corrupt_node_images_are_typed_errors() {
        let mut p = pool();
        let pid = p.allocate().unwrap();
        // Unknown type byte.
        p.write(pid, |b| b[0] = 0xEE).unwrap();
        assert_eq!(
            read_node(&mut p, pid, Compression::None),
            Err(StorageError::Corrupt("unknown PDR node type byte"))
        );
        // Internal node whose child count walks past the page.
        p.write(pid, |b| {
            b[0] = 1; // internal
            b[1] = 0;
            b[2..4].copy_from_slice(&u16::MAX.to_le_bytes());
        })
        .unwrap();
        assert!(read_node(&mut p, pid, Compression::None).is_err());
        // Leaf whose entries claim a UDA that never decodes.
        p.write(pid, |b| {
            b[0] = 0; // leaf
            b[2..4].copy_from_slice(&400u16.to_le_bytes());
            for x in b[4..].iter_mut() {
                *x = 0xFF;
            }
        })
        .unwrap();
        assert!(read_node(&mut p, pid, Compression::None).is_err());
    }

    #[test]
    #[should_panic(expected = "overflows its page")]
    fn oversized_node_panics() {
        let mut p = pool();
        let pid = p.allocate().unwrap();
        let entries: Vec<LeafEntry> = (0..2000)
            .map(|i| LeafEntry {
                tid: i,
                uda: uda(&[(0, 0.5), (1, 0.25), (2, 0.25)]),
            })
            .collect();
        let _ = write_node(&mut p, pid, &Node::Leaf(entries), Compression::None);
    }
}
