//! Inputs and expected outputs, both made from `--seed` before any
//! timing starts: the query pool with its ground truth computed from the
//! raw dataset, and each client's operation sequence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adapter::{eq_prob, Dataset, Divergence, DstQuery, EqQuery, Match, TopKQuery, Uda};

/// Scores may differ from the ground truth by accumulation order only.
pub const SCORE_EPS: f64 = 1e-9;
/// Two scores closer than this are one value when a threshold is placed
/// between "distinct" scores.
const DISTINCT_GAP: f64 = 1e-6;
/// No tuple may sit this close to a calibrated threshold, so membership
/// never depends on rounding inside the system.
const THRESHOLD_MARGIN: f64 = 1e-7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Petq,
    TopK,
    Dstq,
    Insert,
    Update,
    Delete,
}

impl Kind {
    pub const READS: [Kind; 3] = [Kind::Petq, Kind::TopK, Kind::Dstq];
    pub const WRITES: [Kind; 3] = [Kind::Insert, Kind::Update, Kind::Delete];
    pub const COUNT: usize = 6;

    pub fn index(self) -> usize {
        self as usize
    }

    /// Span name of the operation's root.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Petq => "petq",
            Kind::TopK => "topk",
            Kind::Dstq => "dstq",
            Kind::Insert => "insert",
            Kind::Update => "update",
            Kind::Delete => "delete",
        }
    }
}

/// What a correct answer looks like, small enough to keep per query.
#[derive(Debug, Clone)]
pub struct Expect {
    pub count: usize,
    /// Order-free fingerprint of the tid set (PETQ, DSTQ).
    pub tid_hash: u64,
    /// The k best scores, descending (top-k only: ties make the tid set
    /// ambiguous, the score sequence is not).
    pub scores: Vec<f64>,
}

/// A query object built once, so a timed call allocates nothing of the
/// benchmark's own.
pub enum Prepared {
    Petq(EqQuery),
    TopK(TopKQuery),
    Dstq(DstQuery),
}

/// One calibrated query with its expected answer.
#[derive(Debug, Clone)]
pub struct Spec {
    pub kind: Kind,
    pub q: Uda,
    /// PETQ probability threshold or DSTQ divergence radius.
    pub tau: f64,
    pub k: usize,
    pub expect: Expect,
}

impl Spec {
    pub fn eq_query(&self) -> EqQuery {
        EqQuery::new(self.q.clone(), self.tau)
    }

    pub fn top_k_query(&self) -> TopKQuery {
        TopKQuery::new(self.q.clone(), self.k)
    }

    pub fn dst_query(&self) -> DstQuery {
        DstQuery::new(self.q.clone(), self.tau, Divergence::L1)
    }

    pub fn prepared(&self) -> Prepared {
        match self.kind {
            Kind::Petq => Prepared::Petq(self.eq_query()),
            Kind::TopK => Prepared::TopK(self.top_k_query()),
            Kind::Dstq => Prepared::Dstq(self.dst_query()),
            _ => unreachable!("writes are not queries"),
        }
    }
}

fn mix(tid: u64) -> u64 {
    let mut z = tid.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Commutative, so a result needs no sorting before it is compared.
pub fn tid_fingerprint(tids: impl Iterator<Item = u64>) -> (usize, u64) {
    tids.fold((0, 0u64), |(n, h), tid| (n + 1, h.wrapping_add(mix(tid))))
}

pub fn l1(q: &Uda, t: &Uda) -> f64 {
    Divergence::L1.eval(q.entries(), t.entries())
}

/// Threshold halfway between the k-th best score and the next distinct
/// one, or `None` when the data cannot give that selectivity cleanly.
fn threshold_between(scores: &[f64], kth: f64, descending: bool) -> Option<f64> {
    let next = if descending {
        scores
            .iter()
            .copied()
            .filter(|&s| s < kth - DISTINCT_GAP)
            .fold(0.0, f64::max)
    } else {
        scores
            .iter()
            .copied()
            .filter(|&s| s > kth + DISTINCT_GAP)
            .fold(f64::INFINITY, f64::min)
    };
    if !next.is_finite() {
        return None;
    }
    let tau = (kth + next) / 2.0;
    if scores.iter().any(|&s| (s - tau).abs() < THRESHOLD_MARGIN) {
        return None;
    }
    Some(tau)
}

fn kth_best(scores: &[f64], k: usize, descending: bool) -> f64 {
    let mut v = scores.to_vec();
    let (_, kth, _) = v.select_nth_unstable_by(k - 1, |a, b| {
        if descending {
            b.total_cmp(a)
        } else {
            a.total_cmp(b)
        }
    });
    *kth
}

/// The expected answer of a `kind` query with threshold `tau` or size
/// `k`, given every tuple's score against it (equality probability, or
/// L1 divergence for DSTQ).
fn expect_from(kind: Kind, tau: f64, k: usize, tuples: &[(u64, &Uda)], scores: &[f64]) -> Expect {
    if kind == Kind::TopK {
        let mut best: Vec<f64> = scores.iter().copied().filter(|&p| p > 0.0).collect();
        if best.len() > k {
            best.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
            best.truncate(k);
            // Every spec keeps its scores: do not keep the room for all of them.
            best.shrink_to_fit();
        }
        best.sort_by(|a, b| b.total_cmp(a));
        return Expect {
            count: best.len(),
            tid_hash: 0,
            scores: best,
        };
    }
    let inside = |score: f64| match kind {
        Kind::Petq => score >= tau,
        _ => score <= tau,
    };
    let (count, tid_hash) = tid_fingerprint(
        tuples
            .iter()
            .zip(scores)
            .filter(|(_, &score)| inside(score))
            .map(|((tid, _), _)| *tid),
    );
    Expect {
        count,
        tid_hash,
        scores: Vec::new(),
    }
}

fn scores_of(kind: Kind, q: &Uda, tuples: &[(u64, &Uda)]) -> Vec<f64> {
    match kind {
        Kind::Dstq => tuples.iter().map(|(_, t)| l1(q, t)).collect(),
        _ => tuples.iter().map(|(_, t)| eq_prob(q, t)).collect(),
    }
}

/// Ground truth for one base query at every selectivity and kind, from
/// the raw tuples. Uncalibratable combinations are left out.
fn specs_for(q: &Uda, tuples: &[(u64, &Uda)], sels: &[f64], kinds: &[Kind]) -> Vec<(usize, Spec)> {
    let n = tuples.len();
    let probs = scores_of(Kind::Petq, q, tuples);
    let dists = if kinds.contains(&Kind::Dstq) {
        scores_of(Kind::Dstq, q, tuples)
    } else {
        Vec::new()
    };
    let mut out = Vec::new();
    for (si, &sel) in sels.iter().enumerate() {
        let k = ((sel * n as f64).round() as usize).clamp(1, n);
        for &kind in kinds {
            let (scores, descending) = match kind {
                Kind::Dstq => (&dists, false),
                _ => (&probs, true),
            };
            let kth = kth_best(scores, k, descending);
            let tau = match kind {
                Kind::TopK if kth > 0.0 => Some(0.0),
                Kind::Petq if kth > 0.0 => threshold_between(scores, kth, true),
                // A radius at the no-overlap distance would match the whole relation.
                Kind::Dstq if kth < 1.9 => threshold_between(scores, kth, false),
                _ => None,
            };
            if let Some(tau) = tau {
                let expect = expect_from(kind, tau, k, tuples, scores);
                out.push((
                    si,
                    Spec {
                        kind,
                        q: q.clone(),
                        tau,
                        k,
                        expect,
                    },
                ));
            }
        }
    }
    out
}

/// The calibrated query pool: `by_slot[kind][sel][base]` indexes `specs`.
pub struct QueryPool {
    pub specs: Vec<Spec>,
    by_slot: Vec<Option<u32>>,
    bases: usize,
    sels: usize,
}

impl QueryPool {
    /// `bases` queries drawn from the data (the paper's query generator:
    /// a query is a tuple of the relation), each calibrated by brute
    /// force to every selectivity in `sels` for every kind in `kinds`.
    ///
    /// Only uncertain tuples (two or more categories) become queries. A
    /// certain query is one list scan, ~65 us on the 40 000-tuple inverted
    /// tenant against ~800 us for an uncertain one, and CRM1 makes 40 % of
    /// its tuples certain: with both in the mix a median sits on the gap
    /// between the two modes and jumps with the seed.
    ///
    /// The draw is stratified: tuples are ranked by number of categories,
    /// then by the total length of the posting lists those categories
    /// select, the ranking is cut into `bases` equal strata, and the seed
    /// picks one tuple in each. Every seed gets different queries with the
    /// same spread from cheap to dear.
    pub fn build(
        tuples: &[(u64, &Uda)],
        bases: usize,
        sels: &[f64],
        kinds: &[Kind],
        seed: u64,
        threads: usize,
    ) -> QueryPool {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4C_7A11);
        let mut list_len = std::collections::BTreeMap::new();
        for (_, t) in tuples {
            for (cat, _) in t.iter() {
                *list_len.entry(cat).or_insert(0u64) += 1;
            }
        }
        let mut ranked: Vec<(usize, u64, usize)> = tuples
            .iter()
            .enumerate()
            .map(|(at, (_, t))| (t.len(), t.iter().map(|(cat, _)| list_len[&cat]).sum(), at))
            .filter(|&(support, _, _)| support >= 2)
            .collect();
        ranked.sort_unstable();
        let bases = bases.min(ranked.len());
        let queries: Vec<Uda> = (0..bases)
            .map(|stratum| {
                let (lo, hi) = (
                    stratum * ranked.len() / bases,
                    (stratum + 1) * ranked.len() / bases,
                );
                tuples[ranked[rng.random_range(lo..hi)].2].1.clone()
            })
            .collect();
        let chunk = queries.len().div_ceil(threads.max(1));
        let per_base: Vec<Vec<(usize, Spec)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|q| specs_for(q, tuples, sels, kinds))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("ground-truth worker panicked"))
                .collect()
        });
        let mut pool = QueryPool {
            specs: Vec::new(),
            by_slot: vec![None; Kind::READS.len() * sels.len() * bases],
            bases,
            sels: sels.len(),
        };
        for (base, specs) in per_base.into_iter().enumerate() {
            for (si, spec) in specs {
                let slot = pool.slot(spec.kind, si, base);
                pool.by_slot[slot] = Some(pool.specs.len() as u32);
                pool.specs.push(spec);
            }
        }
        pool
    }

    fn slot(&self, kind: Kind, sel: usize, base: usize) -> usize {
        (kind.index() * self.sels + sel) * self.bases + base
    }

    fn lookup(&self, kind: Kind, sel: usize, base: usize) -> Option<u32> {
        self.by_slot[self.slot(kind, sel, base)]
    }
}

/// Percent shares of the three read kinds; they sum to 100.
#[derive(Clone, Copy)]
pub struct ReadMix {
    pub petq: u32,
    pub topk: u32,
    pub dstq: u32,
}

impl ReadMix {
    pub fn draw(&self, rng: &mut StdRng) -> Kind {
        debug_assert_eq!(self.petq + self.topk + self.dstq, 100);
        let r = rng.random_range(0..100u32);
        if r < self.petq {
            Kind::Petq
        } else if r < self.petq + self.topk {
            Kind::TopK
        } else {
            Kind::Dstq
        }
    }
}

/// One client's read sequence as indexes into `pool.specs`.
pub fn read_ops(pool: &QueryPool, mix: ReadMix, len: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| draw_read(pool, mix, &mut rng)).collect()
}

/// A kind by the mix, then a selectivity and a base query uniformly;
/// drawn again when the data could not calibrate that combination.
pub fn draw_read(pool: &QueryPool, mix: ReadMix, rng: &mut StdRng) -> u32 {
    for _ in 0..10_000 {
        let kind = mix.draw(rng);
        let sel = rng.random_range(0..pool.sels);
        let base = rng.random_range(0..pool.bases);
        if let Some(spec) = pool.lookup(kind, sel, base) {
            return spec;
        }
    }
    panic!("the query pool has no calibrated query for this mix");
}

/// Compare a read's result with what is expected of its spec (the
/// spec's own expectation, or `expect_now`'s). `uda_of` resolves a
/// returned tid to its true distribution so a top-k score can be
/// confirmed.
pub fn check_read<'a>(
    spec: &Spec,
    expect: &Expect,
    matches: &[Match],
    uda_of: impl Fn(u64) -> Option<&'a Uda>,
) -> bool {
    match spec.kind {
        Kind::Petq | Kind::Dstq => {
            tid_fingerprint(matches.iter().map(|m| m.tid)) == (expect.count, expect.tid_hash)
        }
        Kind::TopK => {
            if matches.len() != expect.scores.len() {
                return false;
            }
            let mut tids: Vec<u64> = matches.iter().map(|m| m.tid).collect();
            tids.sort_unstable();
            tids.dedup();
            tids.len() == matches.len()
                && matches.iter().zip(&expect.scores).all(|(m, &want)| {
                    (m.score - want).abs() <= SCORE_EPS
                        && uda_of(m.tid)
                            .is_some_and(|t| (eq_prob(&spec.q, t) - m.score).abs() <= SCORE_EPS)
                })
        }
        _ => unreachable!("writes have no result set"),
    }
}

/// A spec's expectation against the tuples live right now (ingest_mix:
/// the relation changes under the queries).
pub fn expect_now(spec: &Spec, live: &[(u64, &Uda)]) -> Expect {
    let scores = scores_of(spec.kind, &spec.q, live);
    expect_from(spec.kind, spec.tau, spec.k, live, &scores)
}

/// Borrowed view of a dataset in the shape the ground-truth code takes.
pub fn tuple_refs(data: &Dataset) -> Vec<(u64, &Uda)> {
    data.iter().map(|(tid, u)| (*tid, u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::crm1;

    #[test]
    fn ground_truth_is_self_consistent() {
        let (_, data) = crm1(3000, 5);
        let tuples = tuple_refs(&data);
        let pool = QueryPool::build(&tuples, 24, &[0.001, 0.01], &Kind::READS, 5, 2);
        assert!(pool.specs.len() > 24, "most combinations calibrate");
        for spec in &pool.specs {
            let now = expect_now(spec, &tuples);
            assert_eq!(now.count, spec.expect.count, "{:?}", spec.kind);
            assert_eq!(now.tid_hash, spec.expect.tid_hash);
            assert_eq!(now.scores, spec.expect.scores);
            match spec.kind {
                Kind::TopK => assert_eq!(spec.expect.scores.len(), spec.k),
                _ => assert!(spec.expect.count >= spec.k),
            }
        }
    }

    #[test]
    fn the_checker_rejects_a_wrong_answer() {
        let (_, data) = crm1(2000, 9);
        let tuples = tuple_refs(&data);
        let pool = QueryPool::build(&tuples, 8, &[0.01], &[Kind::Petq, Kind::TopK], 9, 1);
        let uda_of = |tid: u64| data.get(tid as usize).map(|(_, u)| u);
        for spec in &pool.specs {
            let mut right: Vec<Match> = data
                .iter()
                .map(|(tid, t)| Match::new(*tid, eq_prob(&spec.q, t)))
                .filter(|m| m.score > 0.0)
                .collect();
            right.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.tid.cmp(&b.tid)));
            match spec.kind {
                Kind::Petq => right.retain(|m| m.score >= spec.tau),
                _ => right.truncate(spec.k),
            }
            assert!(check_read(spec, &spec.expect, &right, uda_of));
            let mut short = right.clone();
            short.pop();
            assert!(!check_read(spec, &spec.expect, &short, uda_of));
            let mut wrong = right.clone();
            wrong[0].tid = u64::MAX;
            assert!(!check_read(spec, &spec.expect, &wrong, uda_of));
        }
    }

    #[test]
    fn op_sequences_repeat_per_seed() {
        let (_, data) = crm1(2000, 3);
        let tuples = tuple_refs(&data);
        let pool = QueryPool::build(&tuples, 16, &[0.01], &Kind::READS, 3, 2);
        let mix = ReadMix {
            petq: 60,
            topk: 30,
            dstq: 10,
        };
        assert_eq!(read_ops(&pool, mix, 500, 11), read_ops(&pool, mix, 500, 11));
        assert_ne!(read_ops(&pool, mix, 500, 11), read_ops(&pool, mix, 500, 12));
    }
}
