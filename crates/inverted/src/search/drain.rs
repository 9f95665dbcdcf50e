//! The frontier drain: highest-prob-first, NRA and top-k as one loop.
//!
//! Keep a cursor in every query list and repeatedly advance the one whose
//! head maximizes `q.p_j · p'_j`, the most promising next tuple (paper
//! §3.1, Figure 2). Every tuple met is a candidate carrying a lower bound
//! (the contributions seen) and the set of lists it was seen in; its upper
//! bound adds each unseen list's current head. The drain ends by Lemma 1:
//! once `Σ_j q.p_j · p'_j < θ`, no tuple not yet met can reach θ. Each
//! candidate is then *pruned* (upper bound below θ, no random access),
//! *settled* (bounds converged, the lower bound is exact) or *verified*
//! by one batched random access.
//!
//! What differs between the three algorithms is a [`Policy`] value:
//!
//! | policy | θ | Lemma 1 may stop once | refreshed | candidates |
//! |---|---|---|---|---|
//! | highest-prob-first | τ | always | never | all verified |
//! | NRA | τ | ≤ [`RA_FALLBACK`] undecided | every 128 pops | pruned / settled / verified |
//! | top-k | k-th best lower bound, ≥ floor | k candidates, or floor > 0 | every 64 pops | pruned / settled / verified, best k kept |
//!
//! Refresh intervals grow with the candidate map (a refresh is a pass
//! over it): at least the listed pops, and at least a quarter of the
//! candidates.

use uncat_core::distance::ExactSum;
use uncat_core::equality::{eq_prob_entries, THRESHOLD_EPS};
use uncat_core::Uda;
use uncat_storage::{BufferPool, Phase, QueryMetrics, Result};

use crate::block::BlockCursor;
use crate::index::InvertedIndex;
use crate::postings::CursorHead;
use crate::tid::TidMap;
use crate::topk::kth_largest;

use super::query_lists;

/// Random-access fallback size: with at most this many undecided
/// candidates (and no new ones possible), NRA stops draining and verifies
/// them.
pub(crate) const RA_FALLBACK: usize = 32;

/// Pops between NRA's candidate sweeps.
const SWEEP_EVERY: usize = 128;

/// Pops between top-k's θ refreshes.
const THETA_EVERY: usize = 64;

/// What a drain is for: how θ is set, when Lemma 1 may end the loop, how
/// often both are refreshed and what becomes of the candidates.
pub(crate) enum Policy {
    /// Highest-prob-first: θ = τ, Lemma 1 alone ends the drain, and every
    /// tuple met is verified by random access.
    ///
    /// Metrics profile: `frontier_pops` is the drain depth (the paper's
    /// "posting-list depth reached"); a `lemma1_stops` tick records that
    /// the drain ended by Lemma 1 rather than by exhausting the lists.
    /// Every encountered tuple is a candidate and every candidate is
    /// verified by random access.
    HighestProbFirst { tau: f64 },
    /// No-random-access rank join: "for each tuple so far encountered …
    /// we maintain its *lack* parameter … As soon as the probability
    /// values of required lists drop below a boundary such that a tuple
    /// can never qualify, we discard the tuple. … Finally, once the size
    /// of this candidate set falls below some number we perform random
    /// accesses for these tuples" (paper §3.1). θ = τ; the drain may stop
    /// only once a sweep finds at most [`RA_FALLBACK`] undecided
    /// candidates (neither surely in nor surely out).
    ///
    /// Metrics profile: like highest-prob-first on the frontier side
    /// (`frontier_pops`, `lemma1_stops`), but the candidate accounting is
    /// the strategy's whole point — `candidates_pruned` are discarded by
    /// upper bound, `candidates_settled` are decided from converged
    /// bounds, and only `candidates_verified` cost a random access. The
    /// deferred random accesses the paper describes are
    /// `pruned + settled`.
    Nra { tau: f64 },
    /// Top-k: "threshold queries … dynamically adjusting the threshold τ
    /// to the k-th highest probability in the current result set" (paper
    /// §2). θ is the k-th best lower bound so far, never below `floor`;
    /// the drain may stop once it holds k candidates, or at once under a
    /// positive floor (nothing the frontier can still produce reaches
    /// it). `InvertedIndex::top_k` and the fixed strategies run it, for the
    /// paper's figures, `uncat explain` and the `inverted.topk.topk_us`
    /// probe; `Strategy::Auto`'s top-k is the block-granular threshold
    /// executor (`search::threshold`).
    ///
    /// Metrics profile: the dynamic-threshold stop is tallied as a
    /// `lemma1_stops` (it is Lemma 1 with θ in place of τ); candidates
    /// split into pruned, settled and verified as under NRA.
    TopK { k: usize, floor: f64 },
}

impl Policy {
    /// θ over the candidates drained so far.
    fn theta<M>(&self, cand: &TidMap<Cand<M>>) -> f64 {
        match *self {
            Policy::HighestProbFirst { tau } | Policy::Nra { tau } => tau,
            Policy::TopK { k, floor } if cand.len() >= k => {
                kth_largest(cand.values().map(|c| c.lb.value()), k).max(floor)
            }
            Policy::TopK { floor, .. } => floor,
        }
    }

    /// Pops between refreshes of θ and of NRA's undecided count.
    fn every(&self) -> usize {
        match self {
            Policy::HighestProbFirst { .. } => usize::MAX,
            Policy::Nra { .. } => SWEEP_EVERY,
            Policy::TopK { .. } => THETA_EVERY,
        }
    }
}

/// The set of lists a candidate was seen in, one bit per list.
trait Mask {
    fn none(lists: usize) -> Self;
    fn set(&mut self, j: usize);
    fn has(&self, j: usize) -> bool;
}

impl Mask for u128 {
    fn none(_: usize) -> u128 {
        0
    }
    fn set(&mut self, j: usize) {
        *self |= 1 << j;
    }
    fn has(&self, j: usize) -> bool {
        self & (1 << j) != 0
    }
}

/// Queries over more than 128 lists.
impl Mask for Box<[u64]> {
    fn none(lists: usize) -> Self {
        vec![0; lists.div_ceil(64)].into_boxed_slice()
    }
    fn set(&mut self, j: usize) {
        self[j / 64] |= 1 << (j % 64);
    }
    fn has(&self, j: usize) -> bool {
        self[j / 64] & (1 << (j % 64)) != 0
    }
}

/// A tuple met by the drain: the sum of its contributions seen, and the
/// lists they came from.
struct Cand<M> {
    lb: ExactSum,
    seen: M,
}

impl<M: Mask> Cand<M> {
    /// What the lists this candidate was not seen in may still add.
    fn unseen(&self, heads: &[f64]) -> f64 {
        heads
            .iter()
            .enumerate()
            .filter(|&(j, _)| !self.seen.has(j))
            .map(|(_, &h)| h)
            .sum()
    }
}

/// Drain `q`'s lists under `policy`, handing every surviving candidate to
/// `offer` with its exact probability (settled from its bounds or fetched
/// by random access).
pub(crate) fn drain(
    idx: &InvertedIndex,
    pool: &mut BufferPool,
    q: &Uda,
    policy: &Policy,
    metrics: &mut QueryMetrics,
    offer: impl FnMut(u64, f64),
) -> Result<()> {
    let plan = pool.trace_begin(Phase::Plan);
    let frontier = Frontier::open(idx, q, metrics);
    pool.trace_end(plan);
    if frontier.cursors.len() <= u128::BITS as usize {
        run::<u128>(idx, pool, q, frontier, policy, metrics, offer)
    } else {
        run::<Box<[u64]>>(idx, pool, q, frontier, policy, metrics, offer)
    }
}

fn run<M: Mask>(
    idx: &InvertedIndex,
    pool: &mut BufferPool,
    q: &Uda,
    mut frontier: Frontier<'_>,
    policy: &Policy,
    metrics: &mut QueryMetrics,
    mut offer: impl FnMut(u64, f64),
) -> Result<()> {
    let lists = frontier.cursors.len();
    let mut cand: TidMap<Cand<M>> = TidMap::default();
    let mut theta = policy.theta(&cand);
    let mut few_undecided = false;
    let every = policy.every();
    let (mut pops, mut next_refresh) = (0usize, every);

    let span = pool.trace_begin(match policy {
        Policy::Nra { .. } => Phase::NraDrain,
        _ => Phase::FrontierMaintenance,
    });
    loop {
        // Lemma 1 with the live θ: an unseen tuple is bounded by the
        // frontier sum (an over-estimate while bound heads are live, so
        // the stop is conservative; the epsilon keeps pruning consistent
        // with `meets_threshold`). Checked before `best()` — which
        // force-decodes bound heads — so a stop leaves the pending blocks
        // undecoded (skipped).
        let may_stop = match *policy {
            Policy::HighestProbFirst { .. } => true,
            Policy::Nra { .. } => few_undecided,
            Policy::TopK { k, floor, .. } => cand.len() >= k || floor > 0.0,
        };
        if may_stop && frontier.sum < theta - THRESHOLD_EPS {
            if !frontier.all_exhausted() {
                metrics.lemma1_stops += 1;
            }
            break;
        }
        let Some((j, tid, c)) = frontier.best(pool, metrics)? else {
            break;
        };
        let e = cand.entry(tid).or_insert_with(|| Cand {
            lb: ExactSum::default(),
            seen: M::none(lists),
        });
        e.lb.add(c);
        e.seen.set(j);
        frontier.advance(j, metrics);

        pops += 1;
        if pops >= next_refresh {
            next_refresh = pops + every.max(cand.len() / 4);
            theta = policy.theta(&cand);
            if let Policy::Nra { tau } = *policy {
                let heads = frontier.residual();
                let undecided = cand
                    .values()
                    .filter(|c| {
                        let lb = c.lb.value();
                        lb < tau - THRESHOLD_EPS && lb + c.unseen(&heads) >= tau - THRESHOLD_EPS
                    })
                    .count();
                few_undecided = undecided <= RA_FALLBACK;
            }
        }
    }
    pool.trace_end(span);

    // Final bounds with the residual heads (zero where exhausted). Bound
    // heads report their block's quantized-up maximum: upper bounds built
    // from them are conservative, and `remaining == 0.0` still certifies
    // convergence (a live bound head is strictly positive).
    let heads = frontier.residual();
    let all_exhausted = frontier.all_exhausted();
    frontier.account_skips(metrics);
    let theta = policy.theta(&cand);
    metrics.candidates_generated += cand.len() as u64;
    let mut unsettled: Vec<u64> = Vec::new();
    for (&tid, c) in &cand {
        if let Policy::HighestProbFirst { .. } = policy {
            // The paper's highest-prob-first decides nothing by bounds.
            unsettled.push(tid);
            continue;
        }
        let (lb, remaining) = (c.lb.value(), c.unseen(&heads));
        if lb + remaining < theta - THRESHOLD_EPS {
            metrics.candidates_pruned += 1;
        } else if all_exhausted || remaining == 0.0 {
            metrics.candidates_settled += 1;
            offer(tid, lb);
        } else {
            unsettled.push(tid);
        }
    }
    idx.verify_each(pool, unsettled, metrics, |tid, t| {
        offer(tid, eq_prob_entries(q.entries(), t));
    })?;
    Ok(())
}

/// A cached frontier head: the contribution `c_j = q.p_j · p'_j` of list
/// `j`'s head, either exact or an upper bound (the head sits in an
/// undecoded block, whose quantized-up maximum bounds `p'_j`).
#[derive(Clone, Copy)]
enum Head {
    /// The head entry is materialized.
    Exact { tid: u64, c: f64 },
    /// Only an upper bound on the head's contribution is known.
    Bound { c: f64 },
}

impl Head {
    fn c(&self) -> f64 {
        match *self {
            Head::Exact { c, .. } | Head::Bound { c } => c,
        }
    }

    fn from_cursor(qp: f64, h: CursorHead) -> Head {
        match h {
            CursorHead::Exact { tid, p } => Head::Exact {
                tid,
                c: qp * p as f64,
            },
            CursorHead::Bound { p } => Head::Bound { c: qp * p },
        }
    }
}

/// A frontier over the query's posting-list cursors with *cached* heads:
/// per pop, only the advanced cursor touches the buffer pool; inspecting
/// the frontier is pure in-memory work. Contributions are pre-scaled by
/// the query probability (`c_j = q.p_j · p'_j`).
///
/// Lists participate through [`Head::Bound`]: an undecoded block
/// contributes its quantized-up maximum, so `Frontier::sum` only
/// ever *over*-estimates the true head sum — every Lemma 1 / θ stop made
/// against it is conservative, while blocks whose bound never tops the
/// heap are skipped without decoding (WAND-style block-max pruning).
/// [`Frontier::best`] force-decodes a bound only when it is the maximum.
///
/// `best()` is served by a lazily-invalidated max-heap and `sum()` is
/// maintained incrementally (with periodic recomputation to cancel float
/// drift), so a full drain of `E` postings over `l` lists costs
/// `O(E log l)` instead of `O(E · l)` — material at the paper's scale
/// (CRM2: 5 M postings over 50 lists per query).
struct Frontier<'a> {
    cursors: Vec<(f64, BlockCursor<'a>)>,
    /// Cached head under each cursor.
    heads: Vec<Option<Head>>,
    /// Max-heap of `(contribution bits, list)`; entries may be stale and
    /// are skipped when they disagree with `heads`.
    order: std::collections::BinaryHeap<(u64, usize)>,
    /// `Σ_j q.p_j · p'_j` over the live heads, maintained incrementally:
    /// bound heads included, it bounds Lemma 1's sum from above, so
    /// `sum < τ` soundly implies the true sum is below τ.
    sum: f64,
    /// Advances since the last exact recomputation of `sum`.
    since_resum: u32,
}

/// Recompute the incremental sum after this many advances (bounds float
/// drift without measurable cost).
const RESUM_EVERY: u32 = 1 << 16;

impl<'a> Frontier<'a> {
    /// Open a cursor per query list and cache the initial heads — free
    /// bounds, nothing decoded. Counts one `lists_opened` per cursor.
    fn open(idx: &'a InvertedIndex, q: &Uda, metrics: &mut QueryMetrics) -> Frontier<'a> {
        let mut cursors: Vec<(f64, BlockCursor<'a>)> = Vec::new();
        let mut heads: Vec<Option<Head>> = Vec::new();
        for (_cat, qp, list) in query_lists(idx, q) {
            let cur = BlockCursor::open(list, idx.block_heap());
            heads.push(cur.peek().map(|h| Head::from_cursor(qp, h)));
            cursors.push((qp, cur));
        }
        metrics.lists_opened += cursors.len() as u64;
        let order = heads
            .iter()
            .enumerate()
            .filter_map(|(j, h)| h.map(|h| (h.c().to_bits(), j)))
            .collect();
        let sum = heads.iter().flatten().map(Head::c).sum();
        Frontier {
            cursors,
            heads,
            order,
            sum,
            since_resum: 0,
        }
    }

    /// The most promising head: `(list, tid, contribution)`. When a
    /// *bound* head tops the heap its block is force-decoded (ticking
    /// `blocks_decoded`/`postings_scanned`), the head turns exact — its
    /// contribution can only shrink, preserving the heap property — and
    /// the scan resumes; blocks whose bound never reaches the top are
    /// never decoded.
    fn best(
        &mut self,
        pool: &mut BufferPool,
        metrics: &mut QueryMetrics,
    ) -> Result<Option<(usize, u64, f64)>> {
        loop {
            let Some(&(bits, j)) = self.order.peek() else {
                return Ok(None);
            };
            match self.heads[j] {
                Some(Head::Exact { tid, c }) if c.to_bits() == bits => {
                    return Ok(Some((j, tid, c)));
                }
                Some(Head::Bound { c }) if c.to_bits() == bits => {
                    self.order.pop();
                    let (qp, cur) = &mut self.cursors[j];
                    let ((tid, p), decoded_new) =
                        cur.head(pool)?.expect("a bound head implies a live entry");
                    if decoded_new {
                        metrics.blocks_decoded += 1;
                        metrics.postings_scanned += 1;
                    }
                    let exact = *qp * p as f64;
                    self.sum += exact - c;
                    self.heads[j] = Some(Head::Exact { tid, c: exact });
                    self.order.push((exact.to_bits(), j));
                }
                _ => {
                    self.order.pop(); // stale entry
                }
            }
        }
    }

    /// Pop list `j`'s head and refresh its cache. Counts one
    /// `frontier_pops`, plus one `postings_scanned` when the next entry
    /// is materialized (a block-boundary crossing caches a free bound
    /// instead).
    fn advance(&mut self, j: usize, metrics: &mut QueryMetrics) {
        let (qp, cur) = &mut self.cursors[j];
        metrics.frontier_pops += 1;
        if let Some(h) = self.heads[j] {
            self.sum -= h.c();
        }
        let qp = *qp;
        cur.advance();
        let next = cur.peek().map(|h| {
            if let CursorHead::Exact { .. } = h {
                metrics.postings_scanned += 1;
            }
            Head::from_cursor(qp, h)
        });
        if let Some(h) = next {
            self.sum += h.c();
            self.order.push((h.c().to_bits(), j));
        }
        self.heads[j] = next;

        self.since_resum += 1;
        if self.since_resum >= RESUM_EVERY {
            self.since_resum = 0;
            self.sum = self.heads.iter().flatten().map(Head::c).sum();
        }
    }

    /// Residual head contribution per list (0 where exhausted). Bound
    /// heads report their upper bound, so per-candidate upper bounds
    /// built from these stay conservative; a candidate whose bound rests
    /// on an undecoded block is never *settled* by it, only pruned or
    /// sent to verification.
    fn residual(&self) -> Vec<f64> {
        self.heads
            .iter()
            .map(|h| h.map_or(0.0, |h| h.c()))
            .collect()
    }

    /// Whether every list is drained.
    fn all_exhausted(&self) -> bool {
        self.heads.iter().all(Option::is_none)
    }

    /// Charge every cursor's never-decoded blocks as `blocks_skipped`.
    /// Call exactly once, when the search stops consuming the frontier.
    fn account_skips(&self, metrics: &mut QueryMetrics) {
        for (_, cur) in &self.cursors {
            metrics.blocks_skipped += cur.undecoded_blocks();
        }
    }
}
