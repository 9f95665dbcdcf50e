//! The block-granular threshold executor: `Strategy::Auto`'s PETQ and
//! top-k.
//!
//! A PETQ stops by Lemma 1 (paper §2): once `Σ_j q_j · p'_j < τ`, no
//! tuple not yet met can qualify. Top-k is "threshold queries …
//! dynamically adjusting the threshold τ" (§2). The frontier drain runs
//! that one posting at a time and verifies what it cannot decide by
//! random access; this executor runs it one *block* at a time on the
//! per-block maxima the directory already holds (block-max pruning: Ding
//! & Suel, SIGIR 2011) and never fetches a tuple. The two queries are one
//! run with two selections; they differ only in where the threshold θ
//! comes from — τ, fixed before the first block, for a PETQ
//! ([`threshold_petq`]); the larger of the floor and the k-th best
//! partial sum for a top-k ([`threshold_top_k`]):
//!
//! 1. **A frontier over blocks** ([`Run::frontier`]). Read next the unread
//!    block of the list whose `q_j · bound_j` is largest (`bound_j`: the
//!    quantized-up maximum of list `j`'s next block), adding each posting
//!    into its tuple's record — the partial sum, the probability mass
//!    seen, the lists seen. The k-th best partial sum is kept by [`Best`]
//!    (O(1) amortised per posting; a PETQ ranks nothing, k = 0, and
//!    offers it nothing). Lemma 1 stops the frontier once
//!    `Σ_j q_j · bound_j < θ − ε`: no tuple not yet met can reach θ.
//!    A tuple is *ruled out* at its first posting, as the paper's NRA
//!    discards one that "can never qualify": met first in list `j` with
//!    probability `p`, it has every other posting still unread, so it can
//!    reach at most `q_j · p` plus the smaller of the other lists' bounds
//!    and its remaining mass (the `left` of the bounds below) times their
//!    largest `q`. Below θ − ε, θ as it stood when the block was opened
//!    (it only rises), the tuple gets a tombstone in the id index and no
//!    record: its later postings, in either phase, are passed over.
//! 2. **Two bounds prune** ([`Run::prune`]). What a met tuple's unseen
//!    lists can still add is at most the smaller of `Σ q_j · bound_j` over
//!    them and `(1 + MASS_EPSILON − mass seen) · max q_j` over them (a
//!    stored `Uda` holds at most `1 + MASS_EPSILON`). A tuple whose upper
//!    bound is below θ − ε is pruned; the others survive. Both sums
//!    depend only on which unread lists the tuple was seen in, so they
//!    are taken once per seen-set ([`prune_by_seen_set`]), and each set's
//!    survivors' largest remaining mass sets the completion caps.
//! 3. **Survivors complete from list suffixes** ([`Run::complete`]). A
//!    survivor's posting in an unseen list has `p` at most its remaining
//!    mass, so each list is read from the first unread block that can
//!    hold one ([`BlockList::first_block_at_or_below`]) to its end, and
//!    postings of other tuples are ignored. Every survivor's score is then
//!    exact: a PETQ keeps those that meet τ, a top-k the k best.
//!
//! A top-k runs over one index or over several whose tuple ids are
//! disjoint, a tenant's shards, as one query: one frontier over every
//! index's query lists, one slab, one [`Best`], so every index prunes at
//! the union's k-th best from its first block on. A tuple lives in one
//! index, so the bounds that speak of a tuple take only its own index's
//! lists. Lemma 1 leaves an index's lists unread once their
//! `Σ_j q_j · bound_j` falls below θ − ε, even while another index's
//! lists still lead the frontier; the rule-out at a first posting and
//! the seen-set bound sum over the tuple's index's lists; and a seen-set
//! is keyed by the index and its bits there.
//!
//! A tuple's terms arrive in block order, not category order; its sum is
//! an [`ExactSum`], so its score is the scan's to the last bit, whichever
//! blocks brought its terms.
//!
//! What it trusts: the directory — a block's quantized maximum bounds it
//! and every later block, its separator is its largest entry — and the
//! `Uda` mass invariant. Every block it decodes is checked against the
//! directory ([`BlockList::scan_blocks`]); a disagreement is
//! `StorageError::Corrupt`, not a wrong skip.
//!
//! Metrics profile: one `lists_opened` per query list of each index;
//! `blocks_decoded` and `postings_scanned` for every block read in either
//! phase and the rest of every opened list `blocks_skipped`; one
//! `lemma1_stops` when the frontier stopped with blocks unread, however
//! many indexes it ran over; every met tuple is one candidate,
//! `candidates_pruned` (at its first posting or after the frontier) or
//! `candidates_settled`; nothing is verified, and there are no
//! `frontier_pops`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;

use uncat_core::distance::ExactSum;
use uncat_core::equality::THRESHOLD_EPS;
use uncat_core::query::{sort_matches_desc, Match};
use uncat_core::uda::MASS_EPSILON;
use uncat_core::Uda;
use uncat_storage::{BufferPool, HeapFile, Phase, QueryMetrics, Result};

use crate::acc::Slab;
use crate::block::{dequantize, BlockList};
use crate::index::InvertedIndex;
use crate::tid::TidHasher;

/// Lists of one index a tuple's seen-set covers, one bit each. An index
/// with more query lists counts every unread one as unseen: a looser
/// bound, still sound.
const MASK_LISTS: usize = u64::BITS as usize;

/// Slack on a tuple's remaining mass: its seen probabilities are summed
/// here in block order, the stored `Uda`'s in category order.
const MASS_SLACK: f64 = 1e-9;

/// Every tuple whose `Pr(q = t)` may meet `tau`, handed to `offer` with
/// its exact probability, in no order; the caller keeps those that
/// [`uncat_core::equality::meets_threshold`]. θ is `tau` itself (a NaN τ
/// bounds nothing: every list is read, and nothing meets it).
pub(crate) fn threshold_petq(
    idx: &InvertedIndex,
    pool: &mut BufferPool,
    q: &Uda,
    tau: f64,
    metrics: &mut QueryMetrics,
    mut offer: impl FnMut(u64, f64),
) -> Result<()> {
    let run = Run::execute(std::slice::from_ref(&idx), pool, q, 0, tau, metrics)?;
    run.survivors().for_each(|t| offer(t.tid as u64, t.score()));
    Ok(())
}

/// The `k ≥ 1` tuples of `indexes`, whose tuple ids are disjoint, with
/// the highest non-zero `Pr(q = t)` of at least `floor ≥ 0`, in canonical
/// order: one run over every index's query lists (see the module
/// documentation).
pub(crate) fn threshold_top_k(
    indexes: &[&InvertedIndex],
    pool: &mut BufferPool,
    q: &Uda,
    k: usize,
    floor: f64,
    metrics: &mut QueryMetrics,
) -> Result<Vec<Match>> {
    let run = Run::execute(indexes, pool, q, k, floor, metrics)?;
    let mut out: Vec<Match> = run
        .survivors()
        .map(|t| Match::new(t.tid as u64, t.score()))
        .filter(|m| m.score > 0.0 && m.score >= floor)
        .collect();
    if out.len() > k {
        out.select_nth_unstable_by(k - 1, |a, b| {
            b.score.total_cmp(&a.score).then(a.tid.cmp(&b.tid))
        });
        out.truncate(k);
    }
    sort_matches_desc(&mut out);
    Ok(out)
}

/// A tuple met in some block.
struct Met {
    /// `Σ q_j · p_j` over its postings read.
    sum: ExactSum,
    /// `Σ p_j` over its postings read.
    mass: f64,
    /// The lists they came from, by [`Lane::bit`] (none past
    /// [`MASK_LISTS`]).
    lists: u64,
    tid: u32,
    /// Its index's tag ([`Lane::shard`]): its postings are in that
    /// index's lists alone.
    shard: u16,
    /// Whether it holds an entry in [`Best`].
    ranked: bool,
    /// Whether it survived the pruning: completion adds only to these.
    survivor: bool,
}

impl Met {
    fn new(tid: u64, shard: u16) -> Met {
        Met {
            sum: ExactSum::default(),
            mass: 0.0,
            lists: 0,
            // Posting tids are 32-bit (`visit_block` checks).
            tid: tid as u32,
            shard,
            ranked: false,
            survivor: false,
        }
    }

    /// Add one posting: its term `c = q_j · p`, its `p`, its list's bit.
    #[inline]
    fn add(&mut self, c: f64, p: f64, bit: u64) {
        self.sum.add(c);
        self.mass += p;
        self.lists |= bit;
    }

    fn score(&self) -> f64 {
        self.sum.value()
    }

    /// The most any one of its unseen postings can hold.
    fn left(&self) -> f64 {
        left(self.mass)
    }
}

/// The most a tuple whose postings read hold `mass` can hold in its
/// others: a stored `Uda` holds at most `1 + MASS_EPSILON`.
#[inline]
fn left(mass: f64) -> f64 {
    (1.0 + MASS_EPSILON + MASS_SLACK - mass).max(0.0)
}

/// The k best partial sums: a min-heap of `(sum, slot)`, at most k
/// entries, one per tuple. A sum only grows, so a key may lag its slot's
/// sum; a lagging key is fixed when it reaches the top, so the top is the
/// k-th best sum whenever the heap is full.
struct Best {
    k: usize,
    heap: BinaryHeap<Reverse<(ExactSum, u32)>>,
}

impl Best {
    /// Offer slot `i`, whose sum just grew.
    #[inline]
    fn offer(&mut self, slots: &mut [Met], i: usize) {
        if slots[i].ranked {
            return;
        }
        let key = slots[i].sum;
        if self.heap.len() < self.k {
            slots[i].ranked = true;
            self.heap.push(Reverse((key, i as u32)));
        } else if self.heap.peek().is_some_and(|top| key > top.0 .0) && key > self.kth_sum(slots) {
            let mut top = self.heap.peek_mut().expect("a full heap");
            slots[top.0 .1 as usize].ranked = false;
            *top = Reverse((key, i as u32));
            slots[i].ranked = true;
        }
    }

    /// The top's key, once no lagging key sits there (0 when empty).
    fn kth_sum(&mut self, slots: &[Met]) -> ExactSum {
        while let Some(mut top) = self.heap.peek_mut() {
            let Reverse((key, i)) = *top;
            let now = slots[i as usize].sum;
            if now == key {
                return key;
            }
            *top = Reverse((now, i));
        }
        ExactSum::default()
    }

    /// The k-th best partial sum, 0 while fewer than k tuples are met.
    fn kth(&mut self, slots: &[Met]) -> f64 {
        if self.heap.len() < self.k {
            0.0
        } else {
            self.kth_sum(slots).value()
        }
    }
}

/// One query list of one index and how far the frontier has read it.
struct Lane<'a> {
    qp: f64,
    list: &'a BlockList,
    /// Its index's block store.
    payloads: &'a HeapFile,
    /// The first unread block.
    next: usize,
    /// `q_j ·` the quantized-up maximum of block `next`; 0 past the end.
    bound: f64,
    /// This list's bit in [`Met::lists`], among its index's lists.
    bit: u64,
    /// Its index's place among the run's, modulo 2¹⁶: past 65 536
    /// indexes, two share a tag, which only loosens their tuples' bounds
    /// (a tuple has no posting in the other's lists).
    shard: u16,
}

impl Lane<'_> {
    fn unread(&self) -> bool {
        self.next < self.list.blocks().len()
    }

    fn seek(&mut self, next: usize) {
        self.next = next;
        self.bound = self
            .list
            .blocks()
            .get(next)
            .map_or(0.0, |b| self.qp * dequantize(b.max_q));
    }
}

/// One query between its phases, over one index or several whose tuple
/// ids are disjoint. A tuple lives in exactly one of them, so every
/// index prunes at one θ, the union's; a tuple's bounds — Lemma 1's sum,
/// its rule-out at its first posting, its seen-set's — take only its own
/// index's lists.
struct Run<'a> {
    /// Every index's query lists, index by index.
    lanes: Vec<Lane<'a>>,
    slab: Slab<Met>,
    /// Tuples ruled out at their first posting, with no record.
    ruled_out: u64,
    best: Best,
    floor: f64,
    /// The survivors' slots, once pruned.
    survivors: Vec<u32>,
}

impl<'a> Run<'a> {
    /// A query with θ the larger of `floor` and the k-th best partial sum
    /// (k = 0 ranks nothing), run through its three phases.
    fn execute(
        indexes: &[&'a InvertedIndex],
        pool: &mut BufferPool,
        q: &Uda,
        k: usize,
        floor: f64,
        metrics: &mut QueryMetrics,
    ) -> Result<Run<'a>> {
        let mut run = Run::open(indexes, q, k, floor, metrics);
        let blocks: u64 = run.lanes.iter().map(|l| l.list.blocks().len() as u64).sum();
        let decoded = metrics.blocks_decoded;
        run.frontier(pool, metrics)?;
        let caps = run.prune(metrics);
        run.complete(pool, &caps, metrics)?;
        metrics.blocks_skipped += blocks - (metrics.blocks_decoded - decoded);
        Ok(run)
    }

    /// Every index's query lists, nothing read yet.
    fn open(
        indexes: &[&'a InvertedIndex],
        q: &Uda,
        k: usize,
        floor: f64,
        metrics: &mut QueryMetrics,
    ) -> Run<'a> {
        let mut lanes: Vec<Lane<'a>> = Vec::with_capacity(q.len() * indexes.len());
        for (shard, idx) in indexes.iter().enumerate() {
            let from = lanes.len();
            lanes.extend(q.iter().filter_map(|(cat, qp)| {
                Some(Lane {
                    qp: qp as f64,
                    list: idx.posting_list(cat)?,
                    payloads: idx.block_heap(),
                    next: 0,
                    bound: 0.0,
                    bit: 0,
                    shard: shard as u16,
                })
            }));
            let masked = lanes.len() - from <= MASK_LISTS;
            for (j, lane) in lanes[from..].iter_mut().enumerate() {
                if masked {
                    lane.bit = 1 << j;
                }
                lane.seek(0);
            }
        }
        metrics.lists_opened += lanes.len() as u64;
        Run {
            slab: Slab::for_indexes(indexes),
            ruled_out: 0,
            lanes,
            best: Best {
                k,
                heap: BinaryHeap::new(),
            },
            floor,
            survivors: Vec::new(),
        }
    }

    /// θ − ε: nothing below it can enter the answer. (`f64::max` passes
    /// over a NaN floor.)
    fn cut(&mut self) -> f64 {
        self.best.kth(self.slab.slots()).max(self.floor) - THRESHOLD_EPS
    }

    /// Read blocks, the most promising first, until Lemma 1 stops every
    /// index: a lane is read only while its index's `Σ_j q_j · bound_j`
    /// reaches θ − ε, and once it does not, no tuple of that index not
    /// yet met can reach θ, and the lane is left unread.
    fn frontier(&mut self, pool: &mut BufferPool, metrics: &mut QueryMetrics) -> Result<()> {
        let span = pool.trace_begin(Phase::FrontierMaintenance);
        let mut order: BinaryHeap<(u64, usize)> = self
            .lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.unread())
            .map(|(j, l)| (l.bound.to_bits(), j))
            .collect();
        while let Some((_, j)) = order.pop() {
            let cut = self.cut();
            // Over this lane's index: `Σ bound`, summed afresh in lane
            // order, and what a tuple first met in this block can still
            // add from the other lists — its postings there are all
            // unread, each list's below its bound, and together hold at
            // most its mass left.
            let shard = self.lanes[j].shard;
            let (own, rest, top_q) = (self.lanes.iter().enumerate())
                .filter(|(_, lane)| lane.shard == shard)
                .fold((0.0, 0.0, 0.0f64), |(own, rest, top), (l, lane)| {
                    if l != j && lane.unread() {
                        (own + lane.bound, rest + lane.bound, top.max(lane.qp))
                    } else {
                        (own + lane.bound, rest, top)
                    }
                });
            if own < cut {
                continue;
            }
            let ranking = self.best.k > 0;
            let (slab, best, ruled_out) = (&mut self.slab, &mut self.best, &mut self.ruled_out);
            let lane = &mut self.lanes[j];
            let (qp, bit) = (lane.qp, lane.bit);
            lane.list.scan_blocks(
                lane.payloads,
                pool,
                lane.next..lane.next + 1,
                metrics,
                |tid, p| {
                    let (c, p) = (qp * p as f64, p as f64);
                    let met = slab.slot_unless_ruled_out(tid, || {
                        if c + rest.min(left(p) * top_q) < cut {
                            *ruled_out += 1;
                            None
                        } else {
                            Some(Met::new(tid, shard))
                        }
                    });
                    if let Some(i) = met {
                        slab.slots_mut()[i].add(c, p, bit);
                        if ranking {
                            best.offer(slab.slots_mut(), i);
                        }
                    }
                },
            )?;
            lane.seek(lane.next + 1);
            if lane.unread() {
                order.push((lane.bound.to_bits(), j));
            }
        }
        if self.lanes.iter().any(Lane::unread) {
            metrics.lemma1_stops += 1;
        }
        pool.trace_end(span);
        Ok(())
    }

    /// Prune every met tuple whose upper bound is below θ − ε; the rest
    /// survive. Returns, per lane, the largest remaining mass of a
    /// survivor unseen in it (`None`: no survivor lacks it).
    fn prune(&mut self, metrics: &mut QueryMetrics) -> Vec<Option<f64>> {
        let cut = self.cut();
        let unread: Vec<Unread> = (self.lanes.iter().enumerate())
            .filter(|(_, lane)| lane.unread())
            .map(|(j, lane)| Unread {
                j,
                qp: lane.qp,
                bound: lane.bound,
                bit: lane.bit,
                shard: lane.shard,
            })
            .collect();
        let (slots, survivors) = (self.slab.slots_mut(), &mut self.survivors);
        let caps = prune_by_seen_set(&unread, self.lanes.len(), slots, cut, survivors);
        let met = self.slab.slots().len() as u64 + self.ruled_out;
        let kept = self.survivors.len() as u64;
        metrics.candidates_generated += met;
        metrics.candidates_settled += kept;
        metrics.candidates_pruned += met - kept;
        caps
    }

    /// Add every survivor's unseen postings, read from the suffix of each
    /// list that can hold one: after this every survivor's score is exact.
    fn complete(
        &mut self,
        pool: &mut BufferPool,
        caps: &[Option<f64>],
        metrics: &mut QueryMetrics,
    ) -> Result<()> {
        let span = pool.trace_begin(Phase::PostingScan);
        let slab = &mut self.slab;
        for (lane, cap) in self.lanes.iter().zip(caps) {
            let Some(cap) = *cap else {
                continue;
            };
            let (qp, bit) = (lane.qp, lane.bit);
            let from = lane.list.first_block_at_or_below(lane.next, cap);
            // A tuple id is in one index only: a record found here is of
            // this lane's index.
            lane.list.scan_blocks(
                lane.payloads,
                pool,
                from..lane.list.blocks().len(),
                metrics,
                |tid, p| {
                    if let Some(t) = slab.get_mut(tid).filter(|t| t.survivor) {
                        t.add(qp * p as f64, p as f64, bit);
                    }
                },
            )?;
        }
        pool.trace_end(span);
        Ok(())
    }

    /// Every survivor, its score exact.
    fn survivors(&self) -> impl Iterator<Item = &Met> {
        let slots = self.slab.slots();
        self.survivors.iter().map(|&i| &slots[i as usize])
    }
}

/// A query list with blocks left unread, as the pruning sees it.
#[derive(Clone, Copy, Debug)]
struct Unread {
    /// Its place among the lanes.
    j: usize,
    qp: f64,
    bound: f64,
    bit: u64,
    shard: u16,
}

/// Mark survivor, and push onto `survivors`, every tuple in `slots` whose
/// upper bound meets `cut`: its partial sum plus the smaller of
/// `Σ bound` over the `unread` lists of its index it is unseen in and its
/// remaining mass times their largest `q`. Returns, per lane of `lanes`,
/// the largest remaining mass of a survivor unseen in it.
///
/// Both sums over the unseen lists depend only on a tuple's index and
/// which unread lists of it the tuple was seen in, so they are taken once
/// per seen-set (keyed by the index and its bits), and each set keeps its
/// survivors' largest remaining mass for the caps. A list without a bit
/// (past [`MASK_LISTS`]) is unseen by every tuple.
fn prune_by_seen_set(
    unread: &[Unread],
    lanes: usize,
    slots: &mut [Met],
    cut: f64,
    survivors: &mut Vec<u32>,
) -> Vec<Option<f64>> {
    /// One seen-set: `Σ bound` and the largest `q` over the unread lists
    /// of its index it lacks, and its survivors' largest remaining mass.
    struct Set {
        key: (u16, u64),
        bounds: f64,
        top_q: f64,
        widest: Option<f64>,
    }
    let unseen = |(shard, seen): (u16, u64)| {
        unread
            .iter()
            .filter(move |u| u.shard == shard && seen & u.bit == 0)
    };
    let bits = unread.iter().fold(0, |all, u| all | u.bit);
    let mut index: HashMap<(u16, u64), usize, BuildHasherDefault<TidHasher>> = HashMap::default();
    let mut sets: Vec<Set> = Vec::new();
    // Tuples met in one block tend to share a seen-set: the last one is
    // looked up without a hash.
    let mut last: Option<((u16, u64), usize)> = None;
    for (i, t) in slots.iter_mut().enumerate() {
        let key = (t.shard, t.lists & bits);
        let at = match last {
            Some((held, at)) if held == key => at,
            _ => *index.entry(key).or_insert_with(|| {
                let (bounds, top_q) = unseen(key).fold((0.0, 0.0f64), |(sum, top), u| {
                    (sum + u.bound, top.max(u.qp))
                });
                sets.push(Set {
                    key,
                    bounds,
                    top_q,
                    widest: None,
                });
                sets.len() - 1
            }),
        };
        last = Some((key, at));
        let set = &mut sets[at];
        let left = t.left();
        if t.score() + set.bounds.min(left * set.top_q) < cut {
            continue;
        }
        set.widest = Some(set.widest.map_or(left, |w| w.max(left)));
        t.survivor = true;
        survivors.push(i as u32);
    }
    let mut caps = vec![None; lanes];
    for set in &sets {
        let Some(left) = set.widest else {
            continue;
        };
        for u in unseen(set.key) {
            caps[u.j] = Some(caps[u.j].map_or(left, |cap: f64| cap.max(left)));
        }
    }
    caps
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::Strategy as _;
    use uncat_core::equality::THRESHOLD_EPS;
    use uncat_core::query::{DstQuery, EqQuery, Match, TopKQuery};
    use uncat_core::{CatId, Divergence, Domain, Uda};
    use uncat_storage::{BufferPool, InMemoryDisk, QueryMetrics, StorageError};

    use super::{prune_by_seen_set, Met, Run, Unread, MASK_LISTS};
    use crate::block::{decode_block, encode_block};
    use crate::search::query_lists;
    use crate::{InvertedIndex, Strategy};

    /// One list whose first block is rewritten through the heap — every
    /// page checksum valid — with each probability halved, so its largest
    /// is no longer its separator's: the executor, which passes blocks
    /// over on trust of the directory, refuses the block with a typed
    /// error, for top-k and PETQ alike. The scan passes nothing over and
    /// is not checked.
    #[test]
    fn a_block_whose_maximum_is_not_its_separator_is_corrupt() {
        let (mut pool, mut idx) = two_list_fixture();
        let query = TopKQuery::new(Uda::certain(CatId(0)), 3);
        let top = idx
            .top_k_planned(&mut pool, &query, Strategy::Auto)
            .unwrap();
        assert_eq!(
            top.iter().map(|m| m.tid).collect::<Vec<_>>(),
            [599, 598, 597]
        );
        // One block of five read, its best three kept, nothing fetched.
        let m = pool.metrics();
        assert_eq!(
            (m.blocks_decoded, m.blocks_skipped, m.lemma1_stops),
            (1, 4, 1)
        );
        assert_eq!((m.candidates_generated, m.candidates_settled), (128, 3));
        assert_eq!((m.candidates_verified, m.frontier_pops), (0, 0));

        halve_first_block(&mut pool, &mut idx);
        assert!(matches!(
            idx.top_k_planned(&mut pool, &query, Strategy::Auto),
            Err(StorageError::Corrupt(_))
        ));
        let petq = EqQuery::new(Uda::certain(CatId(0)), 0.45);
        assert!(matches!(
            idx.petq(&mut pool, &petq, Strategy::Auto),
            Err(StorageError::Corrupt(_))
        ));
        assert!(!idx
            .petq(&mut pool, &petq, Strategy::Brute)
            .unwrap()
            .is_empty());
    }

    /// 600 tuples over two categories, `p` and `1 − p` of them.
    fn two_list_fixture() -> (BufferPool, InvertedIndex) {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
        let idx = two_list_index(&mut pool, |_| true);
        (pool, idx)
    }

    /// The tuples of [`two_list_fixture`] that `keep` takes, indexed.
    fn two_list_index(pool: &mut BufferPool, keep: impl Fn(u64) -> bool) -> InvertedIndex {
        let data: Vec<(u64, Uda)> = (0..600u64)
            .filter(|&t| keep(t))
            .map(|t| {
                let p = (t + 1) as f32 / 601.0;
                let uda = Uda::from_pairs([(CatId(0), p), (CatId(1), 1.0 - p)]).unwrap();
                (t, uda)
            })
            .collect();
        InvertedIndex::build(
            Domain::anonymous(2),
            pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap()
    }

    /// Rewrite the first block of category 0's list in place, every
    /// probability halved; returns its bytes as they were.
    fn halve_first_block(pool: &mut BufferPool, idx: &mut InvertedIndex) -> Vec<u8> {
        let (lists, heap) = idx.lists_mut();
        let meta = lists[&CatId(0)].blocks()[0];
        let bytes = heap.get(pool, meta.rid).unwrap().unwrap();
        let halved: Vec<(u64, f32)> = decode_block(&bytes)
            .unwrap()
            .into_iter()
            .map(|(tid, p)| (tid, p / 2.0))
            .collect();
        let rid = heap.update(pool, meta.rid, &encode_block(&halved)).unwrap();
        assert_eq!(rid, meta.rid, "rewritten in place");
        bytes
    }

    fn bits(matches: &[Match]) -> Vec<(u64, u64)> {
        matches.iter().map(|m| (m.tid, m.score.to_bits())).collect()
    }

    /// The refused queries of
    /// [`a_block_whose_maximum_is_not_its_separator_is_corrupt`] made
    /// records in this thread's scratch index before the error; their
    /// slabs zeroed it on the way out. With the block restored, the same
    /// thread answers `Auto` PETQs and a top-k tid for tid and bit for
    /// bit as the scan does (two terms per tuple: one rounding either
    /// way), and an L1 DSTQ as it did before the error.
    #[test]
    fn the_scratch_index_is_clean_after_a_refused_block() {
        let (mut pool, mut idx) = two_list_fixture();
        let skewed = Uda::from_pairs([(CatId(0), 0.3), (CatId(1), 0.7)]).unwrap();
        let petqs = [
            EqQuery::new(Uda::certain(CatId(0)), 0.45),
            EqQuery::new(skewed.clone(), 0.5),
            EqQuery::new(skewed.clone(), 0.62),
        ];
        let dstq = DstQuery::new(skewed.clone(), 0.3, Divergence::L1);
        let answers = |pool: &mut BufferPool, idx: &InvertedIndex| {
            let mut scan_top = idx
                .petq(pool, &EqQuery::new(skewed.clone(), 0.0), Strategy::Brute)
                .unwrap();
            scan_top.truncate(5);
            let top = idx
                .top_k_planned(pool, &TopKQuery::new(skewed.clone(), 5), Strategy::Auto)
                .unwrap();
            assert_eq!(bits(&top), bits(&scan_top));
            for q in &petqs {
                let auto = idx.petq(pool, q, Strategy::Auto).unwrap();
                let scan = idx.petq(pool, q, Strategy::Brute).unwrap();
                assert!(!auto.is_empty());
                assert_eq!(bits(&auto), bits(&scan), "τ = {}", q.tau);
            }
            bits(&idx.dstq(pool, &dstq).unwrap())
        };
        let near = answers(&mut pool, &idx);
        assert!(!near.is_empty());
        assert!(crate::acc::tests::clean_scratch_len() >= 600);

        let bytes = halve_first_block(&mut pool, &mut idx);
        let top = TopKQuery::new(Uda::certain(CatId(0)), 3);
        assert!(idx.top_k_planned(&mut pool, &top, Strategy::Auto).is_err());
        assert!(idx.petq(&mut pool, &petqs[0], Strategy::Auto).is_err());
        assert!(crate::acc::tests::clean_scratch_len() >= 600);

        let (lists, heap) = idx.lists_mut();
        let rid = lists[&CatId(0)].blocks()[0].rid;
        assert_eq!(heap.update(&mut pool, rid, &bytes).unwrap(), rid);
        assert_eq!(answers(&mut pool, &idx), near);
        assert!(crate::acc::tests::clean_scratch_len() >= 600);
    }

    /// [`the_scratch_index_is_clean_after_a_refused_block`] for one run
    /// over two indexes, the tuples of [`two_list_fixture`] split by tid
    /// parity: 599, the best of category 0, is in the second, so a top-k
    /// over category 0 reads that index's first block of it first. With
    /// that block halved the run is refused with a typed error, its slab
    /// — one over both indexes, flat — zeroed the thread's scratch index
    /// on the way out, and with the block restored the next run answers
    /// as the scan of both does, tid for tid and bit for bit.
    #[test]
    fn a_run_over_two_indexes_refuses_a_block_of_the_second_and_stays_clean() {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
        let even = two_list_index(&mut pool, |t| t % 2 == 0);
        let mut odd = two_list_index(&mut pool, |t| t % 2 == 1);
        let skewed = Uda::from_pairs([(CatId(0), 0.3), (CatId(1), 0.7)]).unwrap();
        let queries = [
            TopKQuery::new(Uda::certain(CatId(0)), 3),
            TopKQuery::new(skewed, 5),
        ];
        let exact = |pool: &mut BufferPool, even: &InvertedIndex, odd: &InvertedIndex| {
            for query in &queries {
                let mut scan = even.peq(pool, &query.q).unwrap();
                scan.extend(odd.peq(pool, &query.q).unwrap());
                uncat_core::query::sort_matches_desc(&mut scan);
                scan.truncate(query.k);
                let top = InvertedIndex::top_k_joint(&[even, odd], pool, query).unwrap();
                assert_eq!(bits(&top), bits(&scan), "k = {}", query.k);
            }
        };
        exact(&mut pool, &even, &odd);
        assert!(crate::acc::tests::clean_scratch_len() >= 600);

        let bytes = halve_first_block(&mut pool, &mut odd);
        assert!(matches!(
            InvertedIndex::top_k_joint(&[&even, &odd], &mut pool, &queries[0]),
            Err(StorageError::Corrupt(_))
        ));
        assert!(crate::acc::tests::clean_scratch_len() >= 600);

        let (lists, heap) = odd.lists_mut();
        let rid = lists[&CatId(0)].blocks()[0].rid;
        assert_eq!(heap.update(&mut pool, rid, &bytes).unwrap(), rid);
        exact(&mut pool, &even, &odd);
        assert!(crate::acc::tests::clean_scratch_len() >= 600);
    }

    /// A tuple met first in list A, whose bound there — its term plus
    /// its remaining mass times list B's `q` — is below τ, gets no
    /// record. B's suffix, read to complete the survivor, holds it again:
    /// it is passed over, and counted once, generated and pruned. (A
    /// bound of `1 · q_B` in place of its remaining mass would have made
    /// it a record.)
    #[test]
    fn a_tuple_ruled_out_at_its_first_posting_stays_out() {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
        let uda = |pairs: &[(u32, f32)]| {
            Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
        };
        // S qualifies; X (0.7 · 0.5 + 0.3 · 0.5 = 0.5) does not; Y lies
        // in B alone.
        let (s, x, y) = (10, 20, 30);
        let data = [
            (s, uda(&[(0, 0.95), (1, 0.05)])),
            (x, uda(&[(0, 0.5), (1, 0.5)])),
            (y, uda(&[(1, 0.9)])),
        ];
        let idx = InvertedIndex::build(
            Domain::anonymous(2),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        let q = uda(&[(0, 0.7), (1, 0.3)]);
        let tau = 0.55;

        let mut m = QueryMetrics::new();
        let mut run = Run::execute(&[&idx], &mut pool, &q, 0, tau, &mut m).unwrap();
        assert_eq!(run.slab.slots().len(), 1, "S alone has a record");
        assert!(!run.slab.contains(x) && run.slab.get_mut(x).is_none());
        assert_eq!(run.ruled_out, 1);
        let survivors: Vec<u64> = run.survivors().map(|t| t.tid as u64).collect();
        assert_eq!(survivors, [s]);
        // A read in the frontier, B whole in completion.
        assert_eq!(
            (m.blocks_decoded, m.postings_scanned, m.lemma1_stops),
            (2, 5, 1)
        );
        let counts = (
            m.candidates_generated,
            m.candidates_pruned,
            m.candidates_settled,
        );
        assert_eq!(counts, (2, 1, 1));
        drop(run);

        let petq = EqQuery::new(q, tau);
        let auto = idx.petq(&mut pool, &petq, Strategy::Auto).unwrap();
        let scan = idx.petq(&mut pool, &petq, Strategy::Brute).unwrap();
        assert_eq!(bits(&auto), bits(&scan));
        assert_eq!(auto.iter().map(|m| m.tid).collect::<Vec<_>>(), [s]);
    }

    /// Today's per-tuple pruning, the reference [`prune_by_seen_set`] is
    /// held to: each tuple's unseen unread lists, folded afresh.
    fn prune_per_tuple(
        unread: &[Unread],
        lanes: usize,
        slots: &mut [Met],
        cut: f64,
        survivors: &mut Vec<u32>,
    ) -> Vec<Option<f64>> {
        let mut caps = vec![None; lanes];
        for (i, t) in slots.iter_mut().enumerate() {
            let unseen = || {
                unread
                    .iter()
                    .filter(|u| u.shard == t.shard && t.lists & u.bit == 0)
            };
            let (bounds, top_q) = unseen().fold((0.0, 0.0f64), |(sum, top), u| {
                (sum + u.bound, top.max(u.qp))
            });
            let left = t.left();
            if t.score() + bounds.min(left * top_q) < cut {
                continue;
            }
            for u in unseen() {
                caps[u.j] = Some(caps[u.j].map_or(left, |cap: f64| cap.max(left)));
            }
            t.survivor = true;
            survivors.push(i as u32);
        }
        caps
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::proptest_cases(64)))]

        // Pruning per seen-set against the per-tuple reference on random
        // lanes of one to three indexes — up to 80 of them, so one index
        // may have more than the mask width, where no list has a bit — and
        // random tuples, most of them sharing a few seen-sets: the same
        // survivors in the same order and the same caps, bit for bit, at θ
        // of NaN, 0, +∞ and in between.
        #[test]
        fn pruning_per_seen_set_matches_the_per_tuple_bound(
            shards in 1u16..=3,
            lanes in proptest::collection::vec(
                (0.0f64..1.0, 0.0f64..1.0, any::<bool>(), any::<u16>()),
                1..80,
            ),
            tuples in proptest::collection::vec(
                (0.0f64..2.0, 0.0f64..1.0002, (0u8..4, 0u64..16, any::<u64>()), any::<u16>()),
                0..300,
            ),
            theta in (0usize..4, 0.0f64..2.5)
                .prop_map(|(pick, theta)| [f64::NAN, 0.0, f64::INFINITY, theta][pick]),
        ) {
            // A lane's bit is its place among its index's lanes.
            let mut width = vec![0usize; shards as usize];
            let mut unread = Vec::new();
            for (j, &(qp, bound, open, shard)) in lanes.iter().enumerate() {
                let shard = shard % shards;
                let place = width[shard as usize];
                width[shard as usize] += 1;
                if open {
                    let bit = place as u64;
                    unread.push(Unread { j, qp, bound: qp * bound, bit, shard });
                }
            }
            for u in &mut unread {
                u.bit = if width[u.shard as usize] <= MASK_LISTS { 1 << u.bit } else { 0 };
            }
            let mets = || -> Vec<Met> {
                tuples
                    .iter()
                    .enumerate()
                    .map(|(tid, &(sum, mass, (pick, few, any), shard))| {
                        // Mostly one of 16 seen-sets; now and then any.
                        let lists = if pick == 0 { any } else { few };
                        let shard = shard % shards;
                        let mut t = Met::new(tid as u64, shard);
                        let masked = width[shard as usize] <= MASK_LISTS;
                        t.add(sum, mass, if masked { lists } else { 0 });
                        t
                    })
                    .collect()
            };
            let cut = theta - THRESHOLD_EPS;
            let (mut got, mut want) = (mets(), mets());
            let (mut kept, mut kept_ref) = (Vec::new(), Vec::new());
            let caps = prune_by_seen_set(&unread, lanes.len(), &mut got, cut, &mut kept);
            let caps_ref = prune_per_tuple(&unread, lanes.len(), &mut want, cut, &mut kept_ref);
            prop_assert_eq!(&kept, &kept_ref);
            let cap_bits = |caps: &[Option<f64>]| -> Vec<Option<u64>> {
                caps.iter().map(|c| c.map(f64::to_bits)).collect()
            };
            prop_assert_eq!(cap_bits(&caps), cap_bits(&caps_ref));
            let marked = |mets: &[Met]| -> Vec<bool> { mets.iter().map(|t| t.survivor).collect() };
            prop_assert_eq!(marked(&got), marked(&want));
        }
    }

    /// A tuple's score is its terms' exact sum rounded once, whatever order
    /// its blocks arrive in; summed left to right, the same terms differ
    /// in the last bit (0.1 + 0.2 + 0.3 against 0.3 + 0.2 + 0.1).
    #[test]
    fn a_score_does_not_depend_on_the_order_of_its_terms() {
        let orders = [[0.1, 0.2, 0.3], [0.1, 0.3, 0.2], [0.3, 0.2, 0.1]];
        let plain: Vec<f64> = orders.iter().map(|o| o.iter().sum()).collect();
        assert_ne!(plain[0], plain[2]);
        let scores: Vec<u64> = orders
            .iter()
            .map(|o| {
                let mut t = Met::new(0, 0);
                for &c in o {
                    t.add(c, 0.0, 0);
                }
                t.score().to_bits()
            })
            .collect();
        assert!(scores.iter().all(|&s| s == scores[0]), "{scores:?}");
    }

    /// The remaining-mass bound counts to `1 + MASS_EPSILON`, the most a
    /// `Uda` may hold. Tuple 0 holds 0.99991 + 0.00018: after the frontier
    /// reads list 0 it may still have 0.00018 — not the 0.00009 a bound
    /// of 1 leaves — in list 1, whose second block holds it; a cap of
    /// 0.00009 would pass that block over and answer tuple 1 to a top-k,
    /// and prune tuple 0 (0.499955 read, at most 0.000045 to come under
    /// that cap) from a PETQ at τ = 0.50003 that it meets at 0.500045.
    #[test]
    fn the_mass_bound_allows_a_uda_its_epsilon() {
        let (mut pool, idx) = mass_fixture();
        let q = mass_query();
        let top = idx
            .top_k_planned(&mut pool, &TopKQuery::new(q, 1), Strategy::Auto)
            .unwrap();
        assert_eq!(top.iter().map(|m| m.tid).collect::<Vec<_>>(), [0]);
    }

    /// [`the_mass_bound_allows_a_uda_its_epsilon`] with θ = τ: the PETQ
    /// answers tuple 0, read to the end of list 1's second block, and
    /// nothing else.
    #[test]
    fn the_mass_bound_allows_a_uda_its_epsilon_in_a_petq() {
        let (mut pool, idx) = mass_fixture();
        let petq = EqQuery::new(mass_query(), 0.50003);
        let got = idx.petq(&mut pool, &petq, Strategy::Auto).unwrap();
        assert_eq!(got.iter().map(|m| m.tid).collect::<Vec<_>>(), [0]);
        assert!((got[0].score - 0.500045).abs() < 1e-6, "{got:?}");
        assert_eq!(got, idx.petq(&mut pool, &petq, Strategy::Brute).unwrap());
    }

    fn mass_query() -> Uda {
        Uda::from_pairs([(CatId(0), 0.5), (CatId(1), 0.5)]).unwrap()
    }

    fn mass_fixture() -> (BufferPool, InvertedIndex) {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
        let uda = |pairs: &[(u32, f32)]| {
            Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
        };
        let mut data = vec![
            (0, uda(&[(0, 0.99991), (1, 0.00018)])),
            (1, uda(&[(0, 0.99995)])),
        ];
        data.extend((0..128).map(|i| (2 + i, uda(&[(1, 0.9)]))));
        data.extend((0..127).map(|i| (200 + i, uda(&[(1, 0.0003 - i as f32 * 8e-7)]))));
        data.extend((0..50).map(|i| (400 + i, uda(&[(1, 0.0001 - i as f32 * 1e-6)]))));
        let idx = InvertedIndex::build(
            Domain::anonymous(2),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap();
        (pool, idx)
    }

    /// Wall time per run, phase by phase, on a two-shard tenant of the
    /// 40 000-tuple CRM1 relation (≈ 20 000 tuples a shard, ids from all
    /// 40 000), run two ways: shard by shard, each top-k floored at the
    /// k-th best of the shards before it (the plan the service ran before
    /// one run spanned its shards), and one run over both. 300 of its
    /// uncertain tuples as queries, each a PETQ at the 0.01 %, 0.1 % and
    /// 1 % selectivities (τ the tenant's 2nd, 20th and 200th best score)
    /// and a top-k at those k, on one thread, the pool warm. Also per
    /// query: the blocks each phase decoded, the records the slab made,
    /// the survivors, the postings read, and the candidate counts.
    ///
    /// `cargo test --release -p uncat-inverted threshold_phases -- --ignored --nocapture`
    #[test]
    #[ignore = "a measurement, not a check"]
    fn threshold_phases() {
        use std::time::{Duration, Instant};
        use uncat_core::topk::TopKHeap;

        fn shard_of(tid: u64) -> u64 {
            let mut z = tid.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % 2
        }
        let (domain, data) = uncat_datagen::crm::crm1(40_000, 42);
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 4096);
        let shards: Vec<InvertedIndex> = (0..2)
            .map(|s| {
                let part = data.iter().filter(|(t, _)| shard_of(*t) == s);
                InvertedIndex::build(domain.clone(), &mut pool, part.map(|(t, u)| (*t, u))).unwrap()
            })
            .collect();
        let queries: Vec<&Uda> = data
            .iter()
            .map(|(_, u)| u)
            .filter(|u| u.len() > 1)
            .step_by(11)
            .take(300)
            .collect();
        let mut runs: Vec<(&Uda, usize, f64)> = Vec::new();
        for q in &queries {
            let mut scores: Vec<f64> = Vec::new();
            for idx in &shards {
                scores.extend(idx.peq(&mut pool, q).unwrap().iter().map(|m| m.score));
            }
            scores.sort_by(|a, b| b.total_cmp(a));
            for k in [2, 20, 200] {
                runs.push((q, 0, scores[(k - 1).min(scores.len() - 1)]));
                runs.push((q, k, 0.0));
            }
        }
        let both: Vec<&InvertedIndex> = shards.iter().collect();
        let ways: [(&str, Vec<&[&InvertedIndex]>); 2] = [
            ("shard by shard", both.chunks(1).collect()),
            ("one run", vec![&both[..]]),
        ];
        let n = runs.len() as f64;
        println!(
            "{} queries on {} tuples in two shards, best of 5 passes",
            runs.len(),
            shards.iter().map(|idx| idx.len()).sum::<usize>()
        );
        for (way, groups) in &ways {
            let mut best = [Duration::MAX; 5];
            let (mut records, mut survivors, mut blocks) = (0, 0, [0u64; 2]);
            let mut counts = QueryMetrics::new();
            for rep in 0..5 {
                let mut phases = [Duration::ZERO; 5];
                let mut m = QueryMetrics::new();
                for &(q, k, tau) in &runs {
                    let mut heap = TopKHeap::new(k, 0.0);
                    for group in groups {
                        let floor = if k == 0 { tau } else { heap.threshold() };
                        let t0 = Instant::now();
                        let mut run = Run::open(group, q, k, floor, &mut m);
                        let t1 = Instant::now();
                        let decoded = m.blocks_decoded;
                        run.frontier(&mut pool, &mut m).unwrap();
                        let t2 = Instant::now();
                        let caps = run.prune(&mut m);
                        let t3 = Instant::now();
                        let frontier = m.blocks_decoded - decoded;
                        run.complete(&mut pool, &caps, &mut m).unwrap();
                        let t4 = Instant::now();
                        for t in run.survivors().filter(|t| t.score() > 0.0) {
                            heap.offer(t.tid as u64, t.score());
                        }
                        if rep == 0 {
                            records += run.slab.slots().len();
                            survivors += run.survivors.len();
                            blocks[0] += frontier;
                            blocks[1] += m.blocks_decoded - decoded - frontier;
                        }
                        drop(run);
                        let t5 = Instant::now();
                        for (phase, d) in
                            phases
                                .iter_mut()
                                .zip([t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t0])
                        {
                            *phase += d;
                        }
                    }
                }
                if rep == 0 {
                    counts = m;
                }
                for (b, p) in best.iter_mut().zip(phases) {
                    *b = (*b).min(p);
                }
            }
            let us = |d: Duration| d.as_nanos() as f64 / 1e3 / n;
            let per = |x: u64| x as f64 / n;
            println!("{way}:");
            println!(
                "  µs per query: open {:.1}, frontier {:.1}, prune {:.1}, complete {:.1}; all with drop {:.1}",
                us(best[0]),
                us(best[1]),
                us(best[2]),
                us(best[3]),
                us(best[4])
            );
            println!(
                "  blocks decoded per query: frontier {:.2}, complete {:.2}; {:.1} postings, {} lemma1_stops",
                per(blocks[0]),
                per(blocks[1]),
                per(counts.postings_scanned),
                counts.lemma1_stops
            );
            println!(
                "  per query: {:.1} records, {:.1} survivors; candidates generated / pruned / settled {:.2} / {:.2} / {:.2}",
                per(records as u64),
                per(survivors as u64),
                per(counts.candidates_generated),
                per(counts.candidates_pruned),
                per(counts.candidates_settled)
            );
        }
    }

    /// The executor phase by phase on a 20 000-tuple CRM1 relation and
    /// 400 of its uncertain tuples as queries: per probe, the postings and
    /// blocks read, the survivors and the blocks their completion read,
    /// beside what reading every query list to the end reads. Top-k at
    /// k = 4, 40 and 400; PETQ at selectivities of 0.01 %, 0.1 % and 1 %
    /// (τ the 2nd, 20th and 200th best score of each query's own PEQ).
    ///
    /// `cargo test --release -p uncat-inverted threshold_profile -- --ignored --nocapture`
    #[test]
    #[ignore = "a measurement, not a check"]
    fn threshold_profile() {
        let (domain, data) = uncat_datagen::crm::crm1(20_000, 42);
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 4096);
        let idx =
            InvertedIndex::build(domain, &mut pool, data.iter().map(|(t, u)| (*t, u))).unwrap();
        let queries: Vec<&Uda> = data
            .iter()
            .map(|(_, u)| u)
            .filter(|u| u.len() > 1)
            .step_by(7)
            .take(400)
            .collect();
        let scores: Vec<Vec<f64>> = queries
            .iter()
            .map(|q| {
                let peq = idx.peq(&mut pool, q).unwrap();
                peq.iter().map(|m| m.score).collect()
            })
            .collect();
        let n = queries.len() as f64;
        println!("{n} queries");
        println!("        | postings  (scan) | decoded skipped  (scan) | survivors suffix blocks");
        let runs = [4, 40, 400]
            .map(|k| (format!("k {k:>5}"), k, None))
            .into_iter()
            .chain([2, 20, 200].map(|m| (format!("{:>6.2}%", m as f64 / 200.0), 0, Some(m))));
        for (label, k, matches) in runs {
            let (mut all, mut suffix) = (QueryMetrics::new(), QueryMetrics::new());
            let (mut scan_postings, mut scan_blocks) = (0u64, 0u64);
            for (q, scores) in queries.iter().zip(&scores) {
                let floor = matches.map_or(0.0, |m| scores[(m - 1).min(scores.len() - 1)]);
                let mut run = Run::open(&[&idx], q, k, floor, &mut all);
                run.frontier(&mut pool, &mut all).unwrap();
                let caps = run.prune(&mut all);
                run.complete(&mut pool, &caps, &mut suffix).unwrap();
                for (_, _, list) in query_lists(&idx, q) {
                    scan_postings += list.len();
                    scan_blocks += list.blocks().len() as u64;
                }
            }
            all.merge(&suffix);
            let per = |x: u64| x as f64 / n;
            println!(
                "{label} | {:>8.1} {:>7.1} | {:>7.1} {:>7.1} {:>7.1} | {:>9.1} {:>13.1}",
                per(all.postings_scanned),
                per(scan_postings),
                per(all.blocks_decoded),
                per(scan_blocks - all.blocks_decoded),
                per(scan_blocks),
                per(all.candidates_settled),
                per(suffix.blocks_decoded),
            );
        }
    }
}
