//! Test reference for the node kernel: the node decoder as it ran before
//! it (`ref_read_node`, entry by entry into owned nodes), the four
//! searches as they ran over those nodes with the same shared bounds (the
//! capped Lemma 2 bound, the floored L1/L2 bounds over a mass floor the
//! reference computes itself), and the differential and byte-mutation
//! tests that hold [`visit_node`] and [`read_node`] — the kernel
//! collected — to them: the same nodes bit for bit, the same tids,
//! bit-equal scores and bounds, the same counters, the same verdict on
//! every damaged page. The soundness of the bounds themselves is checked
//! here too, at every child entry of trees holding partial-mass tuples.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use uncat_core::codec;
use uncat_core::equality::{eq_prob, eq_prob_stream, meets_threshold, THRESHOLD_EPS};
use uncat_core::query::{
    sort_matches_asc, sort_matches_desc, DsTopKQuery, DstQuery, EqQuery, Match, TopKQuery,
};
use uncat_core::topk::{BottomKHeap, TopKHeap};
use uncat_core::uda::Entry;
use uncat_core::{CatId, Divergence, Domain, Uda, UdaBuilder};
use uncat_storage::page::field;
use uncat_storage::{
    BufferPool, InMemoryDisk, PageId, QueryMetrics, Result, StorageError, PAGE_SIZE,
};

use crate::boundary::{Boundary, ByProb, DistanceBound, MassFloor};
use crate::config::{Compression, PdrConfig};
use crate::node::{
    check_bound, check_order, dequantize, read_node, visit_node, ChildEntry, LeafEntry, Node,
    Visit, BAD_BOUNDARY, BAD_CHILD_ENTRY, BAD_LEAF_ENTRY, BAD_NODE_TYPE, BAD_UDA, NODE_HDR,
    TYPE_INTERNAL, TYPE_LEAF,
};
use crate::tree::PdrTree;

const COMPRESSIONS: [Compression; 5] = [
    Compression::None,
    Compression::Discretized { bits: 2 },
    Compression::Discretized { bits: 4 },
    Compression::Discretized { bits: 8 },
    Compression::Signature { width: 8 },
];

// --- The node decoder before the kernel ------------------------------

/// The boundary decoder the kernel replaced.
fn decode_boundary(buf: &[u8], compression: Compression) -> Result<(Boundary, usize)> {
    match compression {
        Compression::None => {
            let n = u16::from_le_bytes(
                buf.get(..2)
                    .and_then(|b| b.try_into().ok())
                    .ok_or(BAD_BOUNDARY)?,
            ) as usize;
            if buf.len() < 2 + n * 8 {
                return Err(BAD_BOUNDARY);
            }
            let mut v = Vec::with_capacity(n);
            let mut off = 2;
            let mut prev = None;
            for _ in 0..n {
                let cat = field::get_u32(buf, off);
                check_order(&mut prev, cat)?;
                let prob = check_bound(field::get_f32(buf, off + 4))?;
                v.push(Entry {
                    cat: CatId(cat),
                    prob,
                });
                off += 8;
            }
            Ok((Boundary::Sparse(v), off))
        }
        Compression::Discretized { bits } => {
            let n = u16::from_le_bytes(
                buf.get(..2)
                    .and_then(|b| b.try_into().ok())
                    .ok_or(BAD_BOUNDARY)?,
            ) as usize;
            let code_bytes = (n * bits as usize).div_ceil(8);
            if buf.len() < 2 + n * 4 + code_bytes {
                return Err(BAD_BOUNDARY);
            }
            let mut cats = Vec::with_capacity(n);
            let mut off = 2;
            let mut prev = None;
            for _ in 0..n {
                let cat = field::get_u32(buf, off);
                check_order(&mut prev, cat)?;
                cats.push(CatId(cat));
                off += 4;
            }
            let codes = &buf[off..off + code_bytes];
            off += code_bytes;
            let mut v = Vec::with_capacity(n);
            let mask = (1u32 << bits) - 1;
            let mut acc: u32 = 0;
            let mut nbits = 0u32;
            let mut byte_i = 0usize;
            for cat in cats {
                while nbits < bits as u32 {
                    acc |= (codes[byte_i] as u32) << nbits;
                    byte_i += 1;
                    nbits += 8;
                }
                let code = (acc & mask) as u8;
                acc >>= bits;
                nbits -= bits as u32;
                v.push(Entry {
                    cat,
                    prob: dequantize(code, bits),
                });
            }
            Ok((Boundary::Sparse(v), off))
        }
        Compression::Signature { width } => {
            if buf.len() < width as usize * 4 {
                return Err(BAD_BOUNDARY);
            }
            let mut vals = Vec::with_capacity(width as usize);
            let mut off = 0;
            for _ in 0..width {
                vals.push(check_bound(field::get_f32(buf, off))?);
                off += 4;
            }
            Ok((Boundary::Signature(vals), off))
        }
    }
}

/// The decoder the kernel replaced: a node image read into an owned
/// [`Node`], entry by entry. A malformed image is
/// [`StorageError::Corrupt`].
fn ref_read_node(pool: &mut BufferPool, pid: PageId, compression: Compression) -> Result<Node> {
    pool.read(pid, |b| {
        let ty = b[0];
        let count = field::get_u16(&b[..], 2) as usize;
        let mut off = NODE_HDR;
        match ty {
            TYPE_LEAF => {
                let mut entries = Vec::with_capacity(count.min(PAGE_SIZE / 16));
                for _ in 0..count {
                    if off + 8 > PAGE_SIZE {
                        return Err(BAD_LEAF_ENTRY);
                    }
                    let tid = field::get_u64(&b[..], off);
                    off += 8;
                    let (uda, used) = codec::decode(&b[off..]).map_err(|_| BAD_UDA)?;
                    off += used;
                    entries.push(LeafEntry { tid, uda });
                }
                Ok(Node::Leaf(entries))
            }
            TYPE_INTERNAL => {
                let mut children = Vec::with_capacity(count.min(PAGE_SIZE / 16));
                for _ in 0..count {
                    if off + 8 > PAGE_SIZE {
                        return Err(BAD_CHILD_ENTRY);
                    }
                    let pid = PageId(field::get_u64(&b[..], off));
                    off += 8;
                    let (boundary, used) = decode_boundary(&b[off..], compression)?;
                    off += used;
                    children.push(ChildEntry { pid, boundary });
                }
                Ok(Node::Internal(children))
            }
            _ => Err(BAD_NODE_TYPE),
        }
    })?
}

// --- The searches before the kernel ---------------------------------

fn ref_petq(
    tree: &PdrTree,
    pool: &mut BufferPool,
    query: &EqQuery,
    metrics: &mut QueryMetrics,
) -> Result<Vec<Match>> {
    let mut out = Vec::new();
    let mut stack = vec![tree.root()];
    while let Some(pid) = stack.pop() {
        metrics.nodes_visited += 1;
        match ref_read_node(pool, pid, tree.config().compression)? {
            Node::Leaf(entries) => {
                metrics.leaf_entries_examined += entries.len() as u64;
                for e in &entries {
                    let pr = eq_prob(&query.q, &e.uda);
                    if meets_threshold(pr, query.tau) {
                        out.push(Match::new(e.tid, pr));
                    }
                }
            }
            Node::Internal(children) => {
                for c in &children {
                    if c.boundary.eq_upper_bound(&query.q) >= query.tau - THRESHOLD_EPS {
                        stack.push(c.pid);
                    } else {
                        metrics.nodes_pruned += 1;
                    }
                }
            }
        }
    }
    sort_matches_desc(&mut out);
    Ok(out)
}

/// The floor under every stored tuple's mass and `‖u‖₂²`, from every leaf
/// `ref_read_node` returns.
fn ref_mass_floor(tree: &PdrTree, pool: &mut BufferPool) -> MassFloor {
    let mut floor = MassFloor::EMPTY;
    let mut stack = vec![tree.root()];
    while let Some(pid) = stack.pop() {
        match ref_read_node(pool, pid, tree.config().compression).unwrap() {
            Node::Leaf(entries) => entries
                .iter()
                .for_each(|e| floor.lower(e.uda.entries().iter().copied())),
            Node::Internal(children) => stack.extend(children.iter().map(|c| c.pid)),
        }
    }
    floor
}

fn distance_bound(q: &Uda, dv: Divergence, floor: MassFloor) -> DistanceBound<'_> {
    DistanceBound::new(q, dv, || Ok::<_, ()>(floor)).unwrap()
}

fn ref_dstq(
    tree: &PdrTree,
    pool: &mut BufferPool,
    query: &DstQuery,
    floor: MassFloor,
    metrics: &mut QueryMetrics,
) -> Result<Vec<Match>> {
    let bound = distance_bound(&query.q, query.divergence, floor);
    let mut out = Vec::new();
    let mut stack = vec![tree.root()];
    while let Some(pid) = stack.pop() {
        metrics.nodes_visited += 1;
        match ref_read_node(pool, pid, tree.config().compression)? {
            Node::Leaf(entries) => {
                metrics.leaf_entries_examined += entries.len() as u64;
                for e in &entries {
                    let d = query.divergence.eval(query.q.entries(), e.uda.entries());
                    if d <= query.tau_d {
                        out.push(Match::new(e.tid, d));
                    }
                }
            }
            Node::Internal(children) => {
                for c in &children {
                    let lower = bound.at(|cat| c.boundary.bound_of(cat));
                    if lower <= query.tau_d + 1e-9 {
                        stack.push(c.pid);
                    } else {
                        metrics.nodes_pruned += 1;
                    }
                }
            }
        }
    }
    sort_matches_asc(&mut out);
    Ok(out)
}

/// The old frontier entry, ordered by `partial_cmp`: a max-heap on the
/// bound for top-k, the comparison reversed (`min`) for DSQ-top-k.
struct Pending {
    bound: f64,
    pid: PageId,
    min: bool,
}
impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Pending {}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        let ord = self
            .bound
            .partial_cmp(&other.bound)
            .expect("bounds are finite");
        if self.min {
            ord.reverse()
        } else {
            ord
        }
    }
}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn ref_top_k(
    tree: &PdrTree,
    pool: &mut BufferPool,
    query: &TopKQuery,
    metrics: &mut QueryMetrics,
) -> Result<Vec<Match>> {
    let mut heap = TopKHeap::new(query.k, query.floor);
    let mut frontier = BinaryHeap::new();
    frontier.push(Pending {
        bound: f64::INFINITY,
        pid: tree.root(),
        min: false,
    });
    while let Some(Pending { bound, pid, .. }) = frontier.pop() {
        if bound < heap.threshold() - THRESHOLD_EPS {
            metrics.nodes_pruned += 1 + frontier.len() as u64;
            break;
        }
        metrics.nodes_visited += 1;
        match ref_read_node(pool, pid, tree.config().compression)? {
            Node::Leaf(entries) => {
                metrics.leaf_entries_examined += entries.len() as u64;
                for e in &entries {
                    let pr = eq_prob(&query.q, &e.uda);
                    if pr > 0.0 {
                        heap.offer(e.tid, pr);
                    }
                }
            }
            Node::Internal(children) => {
                for c in &children {
                    let b = c.boundary.eq_upper_bound(&query.q);
                    if b >= heap.threshold() - THRESHOLD_EPS {
                        frontier.push(Pending {
                            bound: b,
                            pid: c.pid,
                            min: false,
                        });
                    } else {
                        metrics.nodes_pruned += 1;
                    }
                }
            }
        }
    }
    Ok(heap.into_sorted())
}

fn ref_ds_top_k(
    tree: &PdrTree,
    pool: &mut BufferPool,
    query: &DsTopKQuery,
    floor: MassFloor,
    metrics: &mut QueryMetrics,
) -> Result<Vec<Match>> {
    let reach = distance_bound(&query.q, query.divergence, floor);
    let mut heap = BottomKHeap::new(query.k, f64::INFINITY);
    let mut frontier = BinaryHeap::new();
    frontier.push(Pending {
        bound: 0.0,
        pid: tree.root(),
        min: true,
    });
    while let Some(Pending { bound, pid, .. }) = frontier.pop() {
        if heap.is_full() && bound > heap.bound() + 1e-9 {
            metrics.nodes_pruned += 1 + frontier.len() as u64;
            break;
        }
        metrics.nodes_visited += 1;
        match ref_read_node(pool, pid, tree.config().compression)? {
            Node::Leaf(entries) => {
                metrics.leaf_entries_examined += entries.len() as u64;
                for e in &entries {
                    let d = query.divergence.eval(query.q.entries(), e.uda.entries());
                    heap.offer(e.tid, d);
                }
            }
            Node::Internal(children) => {
                for c in &children {
                    let b = reach.at(|cat| c.boundary.bound_of(cat));
                    if !heap.is_full() || b <= heap.bound() + 1e-9 {
                        frontier.push(Pending {
                            bound: b,
                            pid: c.pid,
                            min: true,
                        });
                    } else {
                        metrics.nodes_pruned += 1;
                    }
                }
            }
        }
    }
    Ok(heap.into_sorted())
}

// --- Fixtures -------------------------------------------------------

const CATS: u32 = 24;

/// Deterministic pseudo-random UDA stream, one to five categories each.
fn synth(n: usize, seed: u64) -> Vec<(u64, Uda)> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n as u64)
        .map(|tid| {
            let nz = 1 + (next() % 5) as usize;
            let mut b = UdaBuilder::new();
            let mut used = std::collections::HashSet::new();
            for _ in 0..nz {
                let c = (next() % CATS as u64) as u32;
                if used.insert(c) {
                    b.push(CatId(c), 0.05 + (next() % 900) as f32 / 1000.0)
                        .unwrap();
                }
            }
            (tid, b.finish_normalized().unwrap())
        })
        .collect()
}

/// [`synth`] with partial mass: every fifth tuple holds `1 + 9e-5` (just
/// under the `1 + MASS_EPSILON` a record may hold), the others 0.3–1.0.
fn synth_partial(n: usize, seed: u64) -> Vec<(u64, Uda)> {
    synth(n, seed)
        .into_iter()
        .map(|(tid, u)| {
            let mass = if tid % 5 == 0 {
                1.0 + 9e-5
            } else {
                0.3 + (tid.wrapping_mul(0x9E3779B97F4A7C15) >> 40) as f64 / (1u64 << 24) as f64
                    * 0.7
            };
            let scaled = u.iter().map(|(c, p)| (c, (p as f64 * mass) as f32));
            (tid, Uda::from_pairs(scaled).unwrap())
        })
        .collect()
}

fn build(compression: Compression, bulk: bool, data: &[(u64, Uda)]) -> (PdrTree, BufferPool) {
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
    let cfg = PdrConfig {
        compression,
        ..PdrConfig::default()
    };
    let tuples = data.iter().map(|(t, u)| (*t, u));
    let tree = if bulk {
        PdrTree::bulk_build(Domain::anonymous(CATS), cfg, &mut pool, tuples)
    } else {
        PdrTree::build(Domain::anonymous(CATS), cfg, &mut pool, tuples)
    }
    .unwrap();
    (tree, pool)
}

/// Every page of the tree, root first.
fn pages(tree: &PdrTree, pool: &mut BufferPool) -> Vec<PageId> {
    let mut all = vec![tree.root()];
    let mut i = 0;
    while i < all.len() {
        if let Node::Internal(children) =
            ref_read_node(pool, all[i], tree.config().compression).unwrap()
        {
            all.extend(children.iter().map(|c| c.pid));
        }
        i += 1;
    }
    all
}

fn bits(matches: &[Match]) -> Vec<(u64, u64)> {
    matches.iter().map(|m| (m.tid, m.score.to_bits())).collect()
}

/// Run `kernel` and `reference` from the same cold pool and hold them to
/// the same answer, counters and page requests.
fn same_run(
    pool: &mut BufferPool,
    what: &str,
    kernel: impl FnOnce(&mut BufferPool) -> Result<Vec<Match>>,
    reference: impl FnOnce(&mut BufferPool, &mut QueryMetrics) -> Result<Vec<Match>>,
) {
    let mut run = |f: &mut dyn FnMut(&mut BufferPool) -> Result<Vec<Match>>| {
        pool.clear().unwrap();
        let before = pool.metrics();
        let out = f(pool).unwrap();
        let m = pool.metrics().since(&before);
        (
            bits(&out),
            (m.nodes_visited, m.nodes_pruned, m.leaf_entries_examined),
            (m.io.logical_reads, m.io.physical_reads),
        )
    };
    let (mut kernel, mut reference) = (Some(kernel), Some(reference));
    let got = run(&mut |p| kernel.take().unwrap()(p));
    let want = run(&mut |p| p.tally(reference.take().unwrap()));
    assert_eq!(got, want, "{what}");
}

// --- (a) differential -------------------------------------------------

#[test]
fn kernel_searches_match_the_reference_searches() {
    let data = synth(3000, 42);
    let queries: Vec<&Uda> = data.iter().step_by(271).map(|(_, u)| u).collect();
    for compression in COMPRESSIONS {
        for bulk in [false, true] {
            let (tree, mut pool) = build(compression, bulk, &data);
            assert!(tree.depth() >= 2, "internal pages exist");
            // The kernel fills its floor before the first metric query;
            // filled here, neither side's counters carry the fill.
            let floor = ref_mass_floor(&tree, &mut pool);
            let filled = tree.mass_floor(&mut pool, &mut QueryMetrics::new());
            assert_eq!(filled.unwrap(), floor);
            let tag = |q: usize, kind: &str| format!("{compression:?} bulk={bulk} q{q} {kind}");
            for (i, q) in queries.iter().enumerate() {
                for tau in [0.05, 0.3, 0.7] {
                    let query = EqQuery::new((*q).clone(), tau);
                    same_run(
                        &mut pool,
                        &tag(i, &format!("petq {tau}")),
                        |p| tree.petq(p, &query),
                        |p, m| ref_petq(&tree, p, &query, m),
                    );
                }
                for (k, floor) in [(1, 0.0), (10, 0.0), (10, 0.2)] {
                    let query = TopKQuery {
                        floor,
                        ..TopKQuery::new((*q).clone(), k)
                    };
                    same_run(
                        &mut pool,
                        &tag(i, &format!("top-{k} floor {floor}")),
                        |p| tree.top_k(p, &query),
                        |p, m| ref_top_k(&tree, p, &query, m),
                    );
                }
                for (dv, tau_d) in [
                    (Divergence::L1, 0.6),
                    (Divergence::L2, 0.3),
                    (Divergence::Kl, 0.8),
                ] {
                    let query = DstQuery::new((*q).clone(), tau_d, dv);
                    same_run(
                        &mut pool,
                        &tag(i, &format!("dstq {dv:?}")),
                        |p| tree.dstq(p, &query),
                        |p, m| ref_dstq(&tree, p, &query, floor, m),
                    );
                    let query = DsTopKQuery::new((*q).clone(), 7, dv);
                    same_run(
                        &mut pool,
                        &tag(i, &format!("ds-top-k {dv:?}")),
                        |p| tree.ds_top_k(p, &query),
                        |p, m| ref_ds_top_k(&tree, p, &query, floor, m),
                    );
                }
            }
        }
    }
}

#[test]
fn kernel_nodes_match_read_node_bit_for_bit() {
    let data = synth(3000, 7);
    let queries: Vec<&Uda> = data.iter().step_by(333).map(|(_, u)| u).collect();
    for compression in COMPRESSIONS {
        for bulk in [false, true] {
            let (tree, mut pool) = build(compression, bulk, &data);
            let floor = ref_mass_floor(&tree, &mut pool);
            for pid in pages(&tree, &mut pool) {
                let node = ref_read_node(&mut pool, pid, compression).unwrap();
                assert_eq!(
                    read_node(&mut pool, pid, compression).unwrap(),
                    node,
                    "{compression:?} bulk={bulk} {pid}"
                );
                let (mut leaf, mut child) = (0, 0);
                visit_node(&mut pool, pid, compression, |v| match (v, &node) {
                    (Visit::Entry { tid, uda }, Node::Leaf(entries)) => {
                        let e = &entries[leaf];
                        leaf += 1;
                        assert_eq!(tid, e.tid);
                        for q in &queries {
                            assert_eq!(
                                eq_prob_stream(q.entries(), uda.clone()).to_bits(),
                                eq_prob(q, &e.uda).to_bits()
                            );
                        }
                        assert_eq!(uda.to_uda().as_ref(), Ok(&e.uda));
                    }
                    (Visit::Child { pid, boundary }, Node::Internal(children)) => {
                        let c = &children[child];
                        child += 1;
                        assert_eq!(pid, c.pid);
                        for q in &queries {
                            assert_eq!(
                                boundary.eq_upper_bound(&ByProb::of(q)).to_bits(),
                                c.boundary.eq_upper_bound(q).to_bits()
                            );
                            for dv in Divergence::ALL {
                                let bound = distance_bound(q, dv, floor);
                                assert_eq!(
                                    boundary.distance_lower_bound(&bound).to_bits(),
                                    bound.at(|cat| c.boundary.bound_of(cat)).to_bits()
                                );
                            }
                        }
                    }
                    _ => panic!("kernel and the old decoder disagree on the node kind"),
                })
                .unwrap();
                assert_eq!(leaf + child, node.count());
            }
        }
    }
}

// --- the bounds are sound --------------------------------------------

/// Every tuple stored below `pid`, from `ref_read_node`.
fn tuples_below(tree: &PdrTree, pool: &mut BufferPool, pid: PageId) -> Vec<Uda> {
    match ref_read_node(pool, pid, tree.config().compression).unwrap() {
        Node::Leaf(entries) => entries.into_iter().map(|e| e.uda).collect(),
        Node::Internal(children) => children
            .iter()
            .flat_map(|c| tuples_below(tree, pool, c.pid))
            .collect(),
    }
}

/// At every child entry of trees holding partial-mass tuples (and tuples
/// of mass `1 + 9e-5`), in every compression, insertion- and bulk-built:
/// the capped Lemma 2 bound is at least every `Pr(q = u)` below and at
/// most the paper's `Σ q_i·v(f(i))`; the floored L1/L2 bounds are at most
/// every distance below and at least the boundary-only bounds.
#[test]
fn capped_and_floored_bounds_hold_at_every_child_entry() {
    let data = synth_partial(4000, 3);
    let mut queries: Vec<Uda> = data.iter().step_by(61).map(|(_, u)| u.clone()).collect();
    queries.extend(synth(8, 11).into_iter().map(|(_, u)| u));
    queries.push(Uda::certain(CatId(3)));
    for compression in COMPRESSIONS {
        for bulk in [false, true] {
            let (tree, mut pool) = build(compression, bulk, &data);
            let floor = ref_mass_floor(&tree, &mut pool);
            assert!(floor.mass < 0.35, "{floor:?}");
            let mut children = 0;
            for pid in pages(&tree, &mut pool) {
                let Node::Internal(entries) = ref_read_node(&mut pool, pid, compression).unwrap()
                else {
                    continue;
                };
                for c in entries {
                    children += 1;
                    let below = tuples_below(&tree, &mut pool, c.pid);
                    for q in &queries {
                        let tag = format!("{compression:?} bulk={bulk} {} q={q:?}", c.pid);
                        let capped = c.boundary.eq_upper_bound(q);
                        let paper: f64 = q
                            .iter()
                            .map(|(cat, p)| p as f64 * c.boundary.bound_of(cat) as f64)
                            .sum();
                        // The two sum their terms in different orders.
                        assert!(capped <= paper + 1e-12, "{tag}: {capped} > {paper}");
                        for u in &below {
                            let pr = eq_prob(q, u);
                            assert!(pr <= capped + 1e-12, "{tag}: Pr {pr} > bound {capped}");
                        }
                        for (dv, old) in [
                            (Divergence::L1, c.boundary.l1_lower_bound(q)),
                            (Divergence::L2, c.boundary.l2_lower_bound(q)),
                        ] {
                            let bound =
                                distance_bound(q, dv, floor).at(|cat| c.boundary.bound_of(cat));
                            assert!(bound >= old, "{tag} {dv:?}: {bound} < {old}");
                            for u in &below {
                                let d = dv.eval(q.entries(), u.entries());
                                assert!(bound <= d, "{tag} {dv:?}: bound {bound} > {d}");
                            }
                        }
                    }
                }
            }
            assert!(
                children > 10,
                "{compression:?} bulk={bulk}: {children} children"
            );
        }
    }
}

// --- (b) byte mutation ------------------------------------------------

/// Every single-byte mutation of the used part of one leaf page and one
/// internal page per compression (and a little of the dead space behind
/// it, which a mutated count walks into): the old decoder and `read_node`
/// return the same node or the same error, and neither panics. Neither
/// can allocate from a hostile count: the kernel allocates nothing,
/// `read_node` grows its node by the entries it has read, and the old
/// decoder caps its reservation by what a page can hold.
#[test]
fn every_byte_mutation_gets_the_same_verdict_from_kernel_and_read_node() {
    let data = synth(1200, 99);
    for compression in COMPRESSIONS {
        let (tree, mut pool) = build(compression, true, &data);
        let all = pages(&tree, &mut pool);
        let leaf = *all.last().expect("a leaf");
        for pid in [tree.root(), leaf] {
            let node = ref_read_node(&mut pool, pid, compression).unwrap();
            let used = (node.serialized_size(compression) + 32).min(PAGE_SIZE);
            let image = pool.read(pid, |b| *b).unwrap();
            let scratch = pool.allocate().unwrap();
            for i in 0..used {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut bad = image;
                    bad[i] ^= flip;
                    pool.write(scratch, |b| *b = bad).unwrap();
                    let want = ref_read_node(&mut pool, scratch, compression);
                    let got = read_node(&mut pool, scratch, compression);
                    assert_eq!(got, want, "{compression:?} {pid} byte {i} ^ {flip:#x}");
                }
            }
        }
    }
}

/// A leaf whose count claims one entry more than its page holds, with
/// fewer bytes left than a tuple id takes — a case single-byte mutation
/// of a real page does not reach: the old decoder and `read_node` both
/// call it an entry past the page.
#[test]
fn a_leaf_entry_cut_by_the_page_end_gets_the_same_verdict() {
    let mut image = vec![0u8, 0];
    image.extend_from_slice(&5u16.to_le_bytes());
    // Four records of 10 + 8·n bytes, 8 184 in all: 4 bytes are left.
    for (tid, n) in [(1, 255), (2, 255), (3, 254), (4, 254)] {
        let u = Uda::from_pairs((0..n).map(|c| (CatId(c), 1.0 / 1024.0))).unwrap();
        codec::encode_record(tid, &u, &mut image);
    }
    assert_eq!(image.len(), PAGE_SIZE - 4);
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 4);
    let pid = pool.allocate().unwrap();
    pool.write(pid, |b| b[..image.len()].copy_from_slice(&image))
        .unwrap();
    let want = Err(BAD_LEAF_ENTRY);
    assert_eq!(ref_read_node(&mut pool, pid, Compression::None), want);
    assert_eq!(read_node(&mut pool, pid, Compression::None), want);
}

// --- boundary values are range-checked --------------------------------

/// A NaN (or any non-probability) in a stored boundary fails the one
/// query that reads the page, with a typed error, in every query kind —
/// unchecked, it prunes silently in `petq` (every comparison is false)
/// and has no place in the top-k frontier's order.
#[test]
fn a_nan_boundary_fails_each_query_kind_with_a_typed_error() {
    let data = synth(1200, 5);
    let q = data[17].1.clone();
    for compression in [Compression::None, Compression::Signature { width: 8 }] {
        for poison in [f32::NAN, f32::INFINITY, -0.5, 1.5] {
            let (tree, mut pool) = build(compression, true, &data);
            // The first boundary value of the root's first child: past the
            // node header, the child pid and (sparse) the pair count and
            // first category.
            let at = match compression {
                Compression::None => 4 + 8 + 2 + 4,
                _ => 4 + 8,
            };
            pool.write(tree.root(), |b| {
                b[at..at + 4].copy_from_slice(&poison.to_le_bytes())
            })
            .unwrap();
            let corrupt = |r: Result<Vec<Match>>| {
                assert!(
                    matches!(r, Err(StorageError::Corrupt(_))),
                    "{compression:?} {poison}: {r:?}"
                )
            };
            corrupt(tree.petq(&mut pool, &EqQuery::new(q.clone(), 0.1)));
            corrupt(tree.top_k(&mut pool, &TopKQuery::new(q.clone(), 5)));
            corrupt(tree.dstq(&mut pool, &DstQuery::new(q.clone(), 0.5, Divergence::L1)));
            corrupt(tree.ds_top_k(&mut pool, &DsTopKQuery::new(q.clone(), 5, Divergence::L2)));
            assert!(read_node(&mut pool, tree.root(), compression).is_err());
        }
    }
}
