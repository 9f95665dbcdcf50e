//! Query definitions shared by every index implementation.
//!
//! The paper defines (Definitions 3–6):
//!
//! * **PEQ** — probabilistic equality query: all tuples with
//!   `Pr(q = t.a) > 0`, together with the probability.
//! * **PETQ** — equality *threshold* query `(q, τ)`: tuples with
//!   `Pr(q = t.a) ≥ τ`.
//! * **PEQ-top-k** — the `k` tuples with the highest equality probability.
//! * **DSTQ** — distributional similarity threshold query `(q, τ_d, F)`:
//!   tuples whose divergence `F(q, t.a)` is at most `τ_d`.
//! * **DSQ-top-k** — the `k` distributionally closest tuples.
//!
//! Join forms (PETJ etc.) are built on these in `uncat-query`.

use crate::distance::Divergence;
use crate::uda::Uda;
use crate::TupleId;

/// A probabilistic equality threshold query (PETQ): `Pr(q = t) ≥ tau`.
#[derive(Debug, Clone)]
pub struct EqQuery {
    /// The query distribution.
    pub q: Uda,
    /// Probability threshold `τ ∈ (0, 1]`.
    pub tau: f64,
}

impl EqQuery {
    /// Build a PETQ.
    pub fn new(q: Uda, tau: f64) -> EqQuery {
        EqQuery { q, tau }
    }
}

/// A top-k equality query (PEQ-top-k).
#[derive(Debug, Clone)]
pub struct TopKQuery {
    /// The query distribution.
    pub q: Uda,
    /// How many of the most probable matches to return.
    pub k: usize,
    /// A score floor: the answer is the `k` best matches scoring at least
    /// this. A caller that already holds `k` results at the floor or better
    /// (the PEJ-top-k join, the service's later shard probes) sets it, and
    /// every search seeds its dynamic threshold with it, so it only ever
    /// prunes sooner. See [`effective_floor`] for which values count.
    pub floor: f64,
}

impl TopKQuery {
    /// Build a top-k query with no floor.
    pub fn new(q: Uda, k: usize) -> TopKQuery {
        TopKQuery { q, k, floor: 0.0 }
    }
}

/// The floor a top-k search seeds its threshold with, and a shared floor
/// may be raised to: `floor` when it is positive and finite, else 0 — a
/// non-positive or non-finite floor (a NaN from a corrupt page) means "no
/// floor".
pub fn effective_floor(floor: f64) -> f64 {
    if floor.is_finite() && floor > 0.0 {
        floor
    } else {
        0.0
    }
}

/// A distributional similarity threshold query (DSTQ): `F(q, t) ≤ tau_d`.
#[derive(Debug, Clone)]
pub struct DstQuery {
    /// The query distribution.
    pub q: Uda,
    /// Divergence threshold.
    pub tau_d: f64,
    /// Which divergence `F` to use. Only metric divergences (L1/L2) admit
    /// index pruning; KL falls back to verification against candidates.
    pub divergence: Divergence,
}

impl DstQuery {
    /// Build a DSTQ.
    pub fn new(q: Uda, tau_d: f64, divergence: Divergence) -> DstQuery {
        DstQuery {
            q,
            tau_d,
            divergence,
        }
    }
}

/// A distributional-similarity top-k query (DSQ-top-k): the `k` tuples
/// with the smallest divergence from `q`.
#[derive(Debug, Clone)]
pub struct DsTopKQuery {
    /// The query distribution.
    pub q: Uda,
    /// How many closest tuples to return.
    pub k: usize,
    /// Which divergence to minimize.
    pub divergence: Divergence,
}

impl DsTopKQuery {
    /// Build a DSQ-top-k query.
    pub fn new(q: Uda, k: usize, divergence: Divergence) -> DsTopKQuery {
        DsTopKQuery { q, k, divergence }
    }
}

/// One qualifying tuple: id plus its score (equality probability for
/// PETQ/top-k, divergence for DSTQ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    /// The qualifying tuple.
    pub tid: TupleId,
    /// `Pr(q = t)` for equality queries; `F(q, t)` for similarity queries.
    pub score: f64,
}

impl Match {
    /// Construct a match.
    pub fn new(tid: TupleId, score: f64) -> Match {
        Match { tid, score }
    }
}

/// Canonical result ordering for equality queries: descending probability,
/// ties broken by ascending tuple id so comparisons are deterministic.
/// The order is total (`f64::total_cmp`): a NaN score from a corrupt page
/// sorts somewhere instead of panicking the process.
pub fn sort_matches_desc(matches: &mut [Match]) {
    matches.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.tid.cmp(&b.tid)));
}

/// Canonical result ordering for similarity queries: ascending divergence,
/// ties broken by ascending tuple id.
pub fn sort_matches_asc(matches: &mut [Match]) {
    matches.sort_by(|a, b| a.score.total_cmp(&b.score).then_with(|| a.tid.cmp(&b.tid)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::CatId;

    #[test]
    fn sort_desc_breaks_ties_by_tid() {
        let mut m = vec![Match::new(5, 0.3), Match::new(2, 0.3), Match::new(1, 0.9)];
        sort_matches_desc(&mut m);
        assert_eq!(m.iter().map(|x| x.tid).collect::<Vec<_>>(), vec![1, 2, 5]);
    }

    #[test]
    fn sort_asc_orders_by_distance() {
        let mut m = vec![Match::new(5, 0.3), Match::new(2, 0.1), Match::new(1, 0.9)];
        sort_matches_asc(&mut m);
        assert_eq!(m.iter().map(|x| x.tid).collect::<Vec<_>>(), vec![2, 5, 1]);
    }

    #[test]
    fn query_constructors() {
        let q = Uda::certain(CatId(0));
        let petq = EqQuery::new(q.clone(), 0.5);
        assert_eq!(petq.tau, 0.5);
        let topk = TopKQuery::new(q.clone(), 10);
        assert_eq!((topk.k, topk.floor), (10, 0.0));
        for (floor, effective) in [
            (0.25, 0.25),
            (-1.0, 0.0),
            (f64::INFINITY, 0.0),
            (f64::NAN, 0.0),
        ] {
            assert_eq!(effective_floor(floor), effective, "floor {floor}");
        }
        let dstq = DstQuery::new(q, 0.2, Divergence::L1);
        assert_eq!(dstq.divergence, Divergence::L1);
    }
}
