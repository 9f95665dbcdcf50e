//! PETQ search strategies over the inverted index.

mod brute;
mod col_prune;
mod highest_prob;
mod nra;
mod row_prune;

pub(crate) use brute::exact_scores;
pub(crate) use nra::RA_FALLBACK as NRA_RA_FALLBACK;

use uncat_core::equality::{eq_prob_entries, meets_threshold};
use uncat_core::query::{sort_matches_desc, EqQuery, Match};
use uncat_storage::{BufferPool, Phase, QueryMetrics, Result};

use crate::acc::ScoreAcc;
use crate::index::InvertedIndex;

/// Which search algorithm evaluates a PETQ (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// `inv-index-search`: read every query list fully and aggregate.
    Brute,
    /// Advance the most promising list head; stop by Lemma 1.
    HighestProbFirst,
    /// Read (fully) only the lists with `q.p ≥ τ`.
    RowPruning,
    /// Read each query list only down to probability `τ`.
    ColumnPruning,
    /// Rank-join with upper/lower bounds and deferred random access.
    Nra,
    /// What a caller with no figure to draw should run, and the default.
    /// For a PETQ that is [`Strategy::Brute`]'s scan, always: since the
    /// scan became a packed-block pass into a flat sum, every plan that
    /// verifies candidates loses to it in wall-clock at any selectivity
    /// measured, hot or cold (EXPERIMENTS.md, "The null planner"), so
    /// nothing is planned. For top-k it is the paper's drain, abandoned
    /// for the scan once it costs more
    /// ([`InvertedIndex::top_k_planned`]). The five fixed strategies are
    /// kept for the paper's figures and for `uncat explain`.
    #[default]
    Auto,
}

impl Strategy {
    /// All *fixed* strategies, for the ablation sweep.
    /// [`Strategy::Auto`] is deliberately excluded: it is a policy over
    /// these five (for a PETQ, [`Strategy::Brute`]), not a sixth
    /// algorithm, and including it would make every ablation figure
    /// compare a strategy against itself.
    pub const ALL: [Strategy; 5] = [
        Strategy::Brute,
        Strategy::HighestProbFirst,
        Strategy::RowPruning,
        Strategy::ColumnPruning,
        Strategy::Nra,
    ];

    /// Short display name used in figure output.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Brute => "inv-index-search",
            Strategy::HighestProbFirst => "highest-prob-first",
            Strategy::RowPruning => "row-pruning",
            Strategy::ColumnPruning => "column-pruning",
            Strategy::Nra => "nra",
            Strategy::Auto => "auto",
        }
    }
}

impl InvertedIndex {
    /// Evaluate a PETQ with the chosen strategy, returning qualifying
    /// tuples with their exact equality probabilities, in canonical
    /// (descending-probability) order.
    ///
    /// Every list, posting, frontier and candidate event is tallied into
    /// the pool's ledger — read `pool.metrics()` afterwards; the counters
    /// are added to, never reset, so one pool can span several calls.
    ///
    /// A page the store cannot produce fails *this query* with
    /// `Err(StorageError)`; the index and pool remain usable, and the
    /// ledger shows what the query ticked before it died.
    pub fn petq(
        &self,
        pool: &mut BufferPool,
        query: &EqQuery,
        strategy: Strategy,
    ) -> Result<Vec<Match>> {
        pool.tally(|pool, metrics| {
            let mut out = match strategy {
                Strategy::Brute | Strategy::Auto => brute::search(self, pool, query, metrics)?,
                Strategy::HighestProbFirst => highest_prob::search(self, pool, query, metrics)?,
                Strategy::RowPruning => row_prune::search(self, pool, query, metrics)?,
                Strategy::ColumnPruning => col_prune::search(self, pool, query, metrics)?,
                Strategy::Nra => nra::search(self, pool, query, metrics)?,
            };
            sort_matches_desc(&mut out);
            Ok(out)
        })
    }

    /// PEQ: every tuple with non-zero equality probability (Definition 3),
    /// in canonical order. Evaluated by full aggregation over the query's
    /// posting lists.
    pub fn peq(&self, pool: &mut BufferPool, q: &uncat_core::Uda) -> Result<Vec<Match>> {
        let query = EqQuery::new(q.clone(), 0.0);
        let mut out = pool.tally(|pool, metrics| brute::search(self, pool, &query, metrics))?;
        out.retain(|m| m.score > 0.0);
        sort_matches_desc(&mut out);
        Ok(out)
    }
}

/// Random-access verification: fetch each candidate's distribution and keep
/// those meeting the threshold, with exact scores. Each candidate counts as
/// one `candidates_verified`.
///
/// The fetches go through [`InvertedIndex::verify_each`]: sorted by heap
/// address, one page read per page per batch — the standard
/// batched-random-access discipline.
pub(crate) fn verify_candidates(
    idx: &InvertedIndex,
    pool: &mut BufferPool,
    query: &EqQuery,
    candidates: impl IntoIterator<Item = u64>,
    metrics: &mut QueryMetrics,
) -> Result<Vec<Match>> {
    let mut out = Vec::new();
    idx.verify_each(pool, candidates, metrics, |tid, t| {
        let pr = eq_prob_entries(query.q.entries(), t);
        if meets_threshold(pr, query.tau) {
            out.push(Match::new(tid, pr));
        }
    })?;
    Ok(out)
}

/// The query's support restricted to lists that exist in the index:
/// `(cat, q_prob, list)` triples.
pub(crate) fn query_lists<'a>(
    idx: &'a InvertedIndex,
    q: &uncat_core::Uda,
) -> Vec<(uncat_core::CatId, f64, &'a crate::postings::PostingList)> {
    q.iter()
        .filter_map(|(cat, p)| idx.posting_list(cat).map(|l| (cat, p as f64, l)))
        .collect()
}

/// The full-list scan under every accumulating plan (brute-force PETQ,
/// which is also `Auto`'s, the top-k scan, DSTQ's partial distances): read
/// each of the query's lists end to end and add `term(q.p_j, p)` to the
/// posting's tuple, lists in ascending category order. Ticks
/// `lists_opened` and what [`crate::postings::PostingList::scan_all`]
/// ticks; the candidate counters are the caller's.
pub(crate) fn accumulate(
    idx: &InvertedIndex,
    pool: &mut BufferPool,
    q: &uncat_core::Uda,
    metrics: &mut QueryMetrics,
    term: impl Fn(f64, f64) -> f64,
) -> Result<ScoreAcc> {
    let lists = query_lists(idx, q);
    let postings = lists.iter().map(|(_, _, list)| list.len()).sum();
    let mut acc = ScoreAcc::for_scan(postings, idx.tid_span());
    let span = pool.trace_begin(Phase::PostingScan);
    for (_cat, qp, list) in lists {
        metrics.lists_opened += 1;
        list.scan_all(idx.block_heap(), pool, metrics, |tid, p| {
            acc.add(tid, term(qp, p as f64));
        })?;
    }
    pool.trace_end(span);
    Ok(acc)
}

/// A cached frontier head: the contribution `c_j = q.p_j · p'_j` of list
/// `j`'s head, either exact or an upper bound (the head sits in an
/// undecoded block, whose quantized-up maximum bounds `p'_j`).
#[derive(Clone, Copy)]
pub(crate) enum Head {
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

    fn from_cursor(qp: f64, h: crate::postings::CursorHead) -> Head {
        match h {
            crate::postings::CursorHead::Exact { tid, p } => Head::Exact {
                tid,
                c: qp * p as f64,
            },
            crate::postings::CursorHead::Bound { p } => Head::Bound { c: qp * p },
        }
    }
}

/// A frontier over the query's posting-list cursors with *cached* heads:
/// per pop, only the advanced cursor touches the buffer pool; inspecting
/// the frontier is pure in-memory work. Contributions are pre-scaled by
/// the query probability (`c_j = q.p_j · p'_j`).
///
/// Block-format lists participate through [`Head::Bound`]: an undecoded
/// block contributes its quantized-up maximum, so [`Frontier::sum`] only
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
pub(crate) struct Frontier<'a> {
    cursors: Vec<(f64, crate::postings::ListCursor<'a>)>,
    /// Cached head under each cursor.
    heads: Vec<Option<Head>>,
    /// Max-heap of `(contribution bits, list)`; entries may be stale and
    /// are skipped when they disagree with `heads`.
    order: std::collections::BinaryHeap<(u64, usize)>,
    /// Incremental Σ of live head contributions (bounds included).
    sum: f64,
    /// Advances since the last exact recomputation of `sum`.
    since_resum: u32,
}

/// Recompute the incremental sum after this many advances (bounds float
/// drift without measurable cost).
const RESUM_EVERY: u32 = 1 << 16;

impl<'a> Frontier<'a> {
    /// Open a cursor per query list and cache the initial heads. Counts
    /// one `lists_opened` per cursor and one `postings_scanned` per
    /// non-empty *exact* initial head (block lists start as free bounds).
    pub(crate) fn open(
        idx: &'a InvertedIndex,
        pool: &mut BufferPool,
        q: &uncat_core::Uda,
        metrics: &mut QueryMetrics,
    ) -> Result<Frontier<'a>> {
        let mut cursors: Vec<(f64, crate::postings::ListCursor<'a>)> = Vec::new();
        let mut heads: Vec<Option<Head>> = Vec::new();
        for (_cat, qp, list) in query_lists(idx, q) {
            let (cur, head) =
                crate::postings::ListCursor::open(list, idx.block_heap(), pool, metrics)?;
            cursors.push((qp, cur));
            heads.push(head.map(|h| Head::from_cursor(qp, h)));
        }
        metrics.lists_opened += cursors.len() as u64;
        let order = heads
            .iter()
            .enumerate()
            .filter_map(|(j, h)| h.map(|h| (h.c().to_bits(), j)))
            .collect();
        let sum = heads.iter().flatten().map(Head::c).sum();
        Ok(Frontier {
            cursors,
            heads,
            order,
            sum,
            since_resum: 0,
        })
    }

    /// Number of lists.
    pub(crate) fn len(&self) -> usize {
        self.cursors.len()
    }

    /// `Σ_j q.p_j · p'_j` over the live heads, bound heads included —
    /// an upper bound on Lemma 1's sum, so `sum() < τ` soundly implies
    /// the true sum is below τ.
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// The most promising head: `(list, tid, contribution)`. When a
    /// *bound* head tops the heap its block is force-decoded (ticking
    /// `blocks_decoded`/`postings_scanned`), the head turns exact — its
    /// contribution can only shrink, preserving the heap property — and
    /// the scan resumes; blocks whose bound never reaches the top are
    /// never decoded.
    pub(crate) fn best(
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
                    let (tid, p) = cur
                        .force(pool, metrics)?
                        .expect("a bound head implies a live entry");
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
    pub(crate) fn advance(
        &mut self,
        pool: &mut BufferPool,
        j: usize,
        metrics: &mut QueryMetrics,
    ) -> Result<()> {
        let (qp, cur) = &mut self.cursors[j];
        metrics.frontier_pops += 1;
        if let Some(h) = self.heads[j] {
            self.sum -= h.c();
        }
        let qp = *qp;
        let next = cur
            .advance(pool, metrics)?
            .map(|h| Head::from_cursor(qp, h));
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
        Ok(())
    }

    /// Residual head contribution per list (0 where exhausted). Bound
    /// heads report their upper bound, so per-candidate upper bounds
    /// built from these stay conservative; a candidate whose bound rests
    /// on an undecoded block is never *settled* by it (see NRA), only
    /// pruned or sent to verification.
    pub(crate) fn residual(&self) -> Vec<f64> {
        self.heads
            .iter()
            .map(|h| h.map_or(0.0, |h| h.c()))
            .collect()
    }

    /// Whether every list is drained.
    pub(crate) fn all_exhausted(&self) -> bool {
        self.heads.iter().all(Option::is_none)
    }

    /// Charge every cursor's never-decoded blocks as `blocks_skipped`.
    /// Call exactly once, when the search stops consuming the frontier.
    pub(crate) fn account_skips(&self, metrics: &mut QueryMetrics) {
        for (_, cur) in &self.cursors {
            cur.account_skips(metrics);
        }
    }
}
