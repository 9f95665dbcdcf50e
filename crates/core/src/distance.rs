//! Distribution divergences (Section 2 of the paper).
//!
//! Three distances between probability vectors drive distributional
//! similarity queries (DSTQ) and — more importantly for indexing — the
//! clustering decisions inside the PDR-tree:
//!
//! * **L1** — Manhattan distance, a metric.
//! * **L2** — Euclidean distance, a metric.
//! * **KL** — Kullback–Leibler divergence. Not a metric (asymmetric, no
//!   triangle inequality) so it cannot prune search paths, but the paper
//!   finds it the best *clustering* measure (Figure 4).
//!
//! KL is computed with additive smoothing so that zero entries in `v` do not
//! produce infinities; the PDR-tree also applies it to MBR boundary vectors,
//! which are not normalized distributions — the functions here only assume
//! non-negative sparse vectors.
//!
//! L1 and L2 add their per-category terms with compensation ([`TwoSum`]),
//! rounding once: a distance does not depend on the order of the
//! categories its terms come from. Two tuples whose terms are the same up
//! to a permutation — two certain tuples of categories the query lacks —
//! are at the same distance to the last bit, so every index ranks them
//! by tuple id alone, and an index that assembles a distance from other
//! parts (the inverted index: its lists and a norm column) meets the same
//! value.

use crate::uda::Entry;

/// Which divergence to use — a runtime knob for the PDR-tree ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Divergence {
    /// Manhattan distance `Σ |u_i - v_i|`.
    L1,
    /// Euclidean distance `sqrt(Σ (u_i - v_i)^2)`.
    L2,
    /// Symmetrized, smoothed Kullback–Leibler divergence
    /// `KL(û‖v̂) + KL(v̂‖û)` over the mass-normalized shapes (see [`kl`]).
    /// The paper's preferred clustering measure.
    #[default]
    Kl,
}

impl Divergence {
    /// Evaluate this divergence on two sparse non-negative vectors.
    pub fn eval(self, u: &[Entry], v: &[Entry]) -> f64 {
        match self {
            Divergence::L1 => l1(u, v),
            Divergence::L2 => l2(u, v),
            Divergence::Kl => kl_symmetric(u, v),
        }
    }

    /// All divergences, for sweeps.
    pub const ALL: [Divergence; 3] = [Divergence::L1, Divergence::L2, Divergence::Kl];

    /// Short display name used in figure output.
    pub fn name(self) -> &'static str {
        match self {
            Divergence::L1 => "L1",
            Divergence::L2 => "L2",
            Divergence::Kl => "KL",
        }
    }
}

/// Merge-walk two sorted sparse vectors, calling `f(u_i, v_i)` for every
/// category where either side is non-zero.
#[inline]
fn merge_fold<F: FnMut(f64, f64)>(u: &[Entry], v: &[Entry], mut f: F) {
    let mut i = 0;
    let mut j = 0;
    while i < u.len() && j < v.len() {
        match u[i].cat.cmp(&v[j].cat) {
            std::cmp::Ordering::Less => {
                f(u[i].prob as f64, 0.0);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                f(0.0, v[j].prob as f64);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                f(u[i].prob as f64, v[j].prob as f64);
                i += 1;
                j += 1;
            }
        }
    }
    for e in &u[i..] {
        f(e.prob as f64, 0.0);
    }
    for e in &v[j..] {
        f(0.0, e.prob as f64);
    }
}

/// A sum kept unevaluated as `hi + lo` (Knuth's two-sum): `hi` the
/// rounded running sum, `lo` what rounding lost. Rounded once, by
/// [`TwoSum::value`], so the same terms sum to the same value whatever
/// order they are added in. Adding another sum is adding its two parts.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoSum {
    /// The rounded running sum.
    pub hi: f64,
    /// What rounding `hi` lost.
    pub lo: f64,
}

impl TwoSum {
    /// Add one term.
    #[inline]
    pub fn add(&mut self, c: f64) {
        let sum = self.hi + c;
        let from_c = sum - self.hi;
        self.lo += (self.hi - (sum - from_c)) + (c - from_c);
        self.hi = sum;
    }

    /// The sum, rounded once.
    #[inline]
    pub fn value(&self) -> f64 {
        self.hi + self.lo
    }
}

/// Manhattan (L1) distance between sparse vectors.
pub fn l1(u: &[Entry], v: &[Entry]) -> f64 {
    let mut acc = TwoSum::default();
    merge_fold(u, v, |a, b| acc.add((a - b).abs()));
    acc.value()
}

/// Euclidean (L2) distance between sparse vectors.
pub fn l2(u: &[Entry], v: &[Entry]) -> f64 {
    let mut acc = TwoSum::default();
    merge_fold(u, v, |a, b| acc.add((a - b) * (a - b)));
    acc.value().sqrt()
}

/// Smoothing constant for KL on sparse vectors: pretend every absent
/// category carries this much mass. Keeps `log` finite while preserving the
/// ratio-comparing behaviour the paper wants from KL.
pub const KL_SMOOTHING: f64 = 1e-3;

/// One-directional smoothed KL divergence `KL(u ‖ v)` between the
/// *shapes* of the two vectors: each side is normalized to unit mass
/// first. For probability distributions this is ordinary KL; for MBR
/// boundary vectors (mass > 1) it compares ratios without rewarding sheer
/// boundary size — an unnormalized boundary would otherwise attract every
/// insertion to the largest cluster.
pub fn kl(u: &[Entry], v: &[Entry]) -> f64 {
    let mu: f64 = u.iter().map(|e| e.prob as f64).sum();
    let mv: f64 = v.iter().map(|e| e.prob as f64).sum();
    if mu <= 0.0 || mv <= 0.0 {
        return 0.0;
    }
    let mut acc = 0.0;
    merge_fold(u, v, |a, b| {
        let a = a / mu;
        let b = b / mv;
        if a > 0.0 {
            acc += a * (a / (b + KL_SMOOTHING)).ln();
        }
    });
    acc.max(0.0)
}

/// Symmetrized smoothed KL: `KL(u‖v) + KL(v‖u)`. Symmetric, so usable as a
/// clustering affinity (still not a metric).
pub fn kl_symmetric(u: &[Entry], v: &[Entry]) -> f64 {
    kl(u, v) + kl(v, u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::CatId;
    use crate::uda::Uda;

    fn uda(pairs: &[(u32, f32)]) -> Uda {
        Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
    }

    /// A distance is its terms' sum rounded once: a certain tuple whose
    /// one category sits before the query's or after them is at the same
    /// distance to the last bit, so a DSTQ ranks the two by tuple id.
    /// Summed left to right, their L2 terms round apart.
    #[test]
    fn a_distance_does_not_depend_on_where_its_categories_sit() {
        let q = uda(&[(1, 0.05), (4, 0.7)]);
        let (first, last) = (uda(&[(0, 1.0)]), uda(&[(5, 1.0)]));
        for dv in [Divergence::L1, Divergence::L2] {
            let a = dv.eval(q.entries(), first.entries());
            let b = dv.eval(q.entries(), last.entries());
            assert_eq!(a.to_bits(), b.to_bits(), "{dv:?}: {a} vs {b}");
        }
        let (a, b) = (0.05f32 as f64, 0.7f32 as f64);
        assert_ne!((1.0 + a * a) + b * b, (a * a + b * b) + 1.0);
    }

    #[test]
    fn l1_of_disjoint_unit_masses_is_two() {
        let u = uda(&[(0, 1.0)]);
        let v = uda(&[(1, 1.0)]);
        assert!((l1(u.entries(), v.entries()) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn l2_matches_hand_computation() {
        let u = uda(&[(0, 0.6), (1, 0.4)]);
        let v = uda(&[(0, 0.4), (1, 0.6)]);
        // sqrt(0.2^2 + 0.2^2)
        assert!((l2(u.entries(), v.entries()) - (0.08f64).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn identical_distributions_have_zero_distance() {
        let u = uda(&[(0, 0.5), (3, 0.5)]);
        assert_eq!(l1(u.entries(), u.entries()), 0.0);
        assert_eq!(l2(u.entries(), u.entries()), 0.0);
        assert!(kl(u.entries(), u.entries()).abs() < 1e-4);
    }

    #[test]
    fn kl_is_asymmetric_but_symmetrized_is_symmetric() {
        let u = uda(&[(0, 0.9), (1, 0.1)]);
        let v = uda(&[(0, 0.5), (1, 0.5)]);
        let (uv, vu) = (kl(u.entries(), v.entries()), kl(v.entries(), u.entries()));
        assert!(
            (uv - vu).abs() > 1e-3,
            "KL should be asymmetric: {uv} vs {vu}"
        );
        let s1 = kl_symmetric(u.entries(), v.entries());
        let s2 = kl_symmetric(v.entries(), u.entries());
        assert!((s1 - s2).abs() < 1e-12);
    }

    #[test]
    fn kl_finite_on_disjoint_supports() {
        let u = uda(&[(0, 1.0)]);
        let v = uda(&[(1, 1.0)]);
        let d = kl(u.entries(), v.entries());
        assert!(d.is_finite() && d > 0.0);
    }

    #[test]
    fn divergence_enum_dispatch() {
        let u = uda(&[(0, 0.7), (1, 0.3)]);
        let v = uda(&[(0, 0.3), (1, 0.7)]);
        assert_eq!(
            Divergence::L1.eval(u.entries(), v.entries()),
            l1(u.entries(), v.entries())
        );
        assert_eq!(
            Divergence::L2.eval(u.entries(), v.entries()),
            l2(u.entries(), v.entries())
        );
        assert_eq!(
            Divergence::Kl.eval(u.entries(), v.entries()),
            kl_symmetric(u.entries(), v.entries())
        );
    }

    #[test]
    fn l1_l2_triangle_inequality_spot_check() {
        let a = uda(&[(0, 0.5), (1, 0.5)]);
        let b = uda(&[(0, 0.2), (2, 0.8)]);
        let c = uda(&[(1, 0.4), (2, 0.6)]);
        for d in [Divergence::L1, Divergence::L2] {
            let ab = d.eval(a.entries(), b.entries());
            let bc = d.eval(b.entries(), c.entries());
            let ac = d.eval(a.entries(), c.entries());
            assert!(ac <= ab + bc + 1e-9, "{d:?} violated triangle inequality");
        }
    }
}
