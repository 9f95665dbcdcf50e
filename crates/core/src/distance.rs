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
//! L1 and L2 add their per-category terms as one [`ExactSum`], an integer
//! sum rounded once: a distance does not depend on the order of the
//! categories its terms come from, and an index that assembles it from
//! other parts (the inverted index: its lists and a norm column) adds the
//! same integers. Two tuples whose terms are the same up to a permutation
//! are at the same distance to the last bit, so every index ranks them by
//! tuple id alone.

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
    /// Evaluate this divergence on two sparse non-negative vectors whose
    /// L1 or L2² fits [`ExactSum`]'s range, as any two tuples' do.
    pub fn eval(self, u: &[Entry], v: &[Entry]) -> f64 {
        match self {
            Divergence::L1 => l1(u, v),
            Divergence::L2 => l2(u, v),
            Divergence::Kl => kl_symmetric(u, v),
        }
    }

    /// [`Divergence::eval`] summed in plain `f64`, for vectors past
    /// [`ExactSum`]'s range: the PDR-tree's MBR boundaries, whose mass
    /// may exceed 1 many times over, when it clusters.
    pub fn eval_wide(self, u: &[Entry], v: &[Entry]) -> f64 {
        let mut acc = 0.0;
        match self {
            Divergence::L1 => merge_fold(u, v, |a, b| acc += (a - b).abs()),
            Divergence::L2 => {
                merge_fold(u, v, |a, b| acc += (a - b) * (a - b));
                acc = acc.sqrt();
            }
            Divergence::Kl => acc = kl_symmetric(u, v),
        }
        acc
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

/// 2⁶⁰: [`ExactSum`]'s units per 1.
const UNIT: f64 = (1u64 << 60) as f64;

/// A sum in fixed point: an `i64` counting units of 2⁻⁶⁰. Each term is
/// converted once, `(x · 2⁶⁰) as i64`, truncating toward zero — so adding
/// `−x` takes away exactly what adding `x` put in, and a term under 2⁻⁶⁰
/// adds 0 — and the terms are added as integers, so the sum does not
/// depend on their order. It is rounded to `f64` once, by
/// [`ExactSum::value`].
///
/// The range is ±8 (2⁶³ units), which covers every sum over one tuple: a
/// score is at most `1 + MASS_EPSILON`, and L1, L2², a mass and `‖t‖₂²`
/// at most about 2. A term loses less than 2⁻⁶⁰, far below
/// `THRESHOLD_EPS`, and only ever toward zero, so an upper bound on a
/// score stays one. Sums past the range — the PDR-tree's boundary bounds
/// and its clustering distances — stay in `f64`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct ExactSum(i64);

impl ExactSum {
    /// Add one term.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.0 += (x * UNIT) as i64;
    }

    /// The sum, rounded once.
    #[inline]
    pub fn value(self) -> f64 {
        self.0 as f64 / UNIT
    }
}

impl std::ops::Add for ExactSum {
    type Output = ExactSum;
    fn add(self, other: ExactSum) -> ExactSum {
        ExactSum(self.0 + other.0)
    }
}

impl std::ops::Sub for ExactSum {
    type Output = ExactSum;
    fn sub(self, other: ExactSum) -> ExactSum {
        ExactSum(self.0 - other.0)
    }
}

/// What an L1 or L2 distance needs of a tuple beyond the categories it
/// shares with the query: `mass(t) = Σ p` and `‖t‖₂² = Σ p²`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Norm {
    /// `Σ p`.
    pub mass: ExactSum,
    /// `Σ p²`.
    pub sq: ExactSum,
}

/// A tuple's [`Norm`], each term converted as [`Divergence::eval`]
/// converts it when the other vector lacks the category.
pub fn norms(entries: impl IntoIterator<Item = Entry>) -> Norm {
    let (mut mass, mut sq) = (ExactSum::default(), ExactSum::default());
    for e in entries {
        let p = e.prob as f64;
        mass.add(p);
        sq.add(p * p);
    }
    Norm { mass, sq }
}

/// Manhattan (L1) distance between sparse vectors.
fn l1(u: &[Entry], v: &[Entry]) -> f64 {
    let mut acc = ExactSum::default();
    merge_fold(u, v, |a, b| acc.add((a - b).abs()));
    acc.value()
}

/// Euclidean (L2) distance between sparse vectors.
fn l2(u: &[Entry], v: &[Entry]) -> f64 {
    let mut acc = ExactSum::default();
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
    use proptest::prelude::*;

    fn uda(pairs: &[(u32, f32)]) -> Uda {
        Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
    }

    /// A distance is its terms' exact sum rounded once: a certain tuple whose
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

    /// `items` and the same items ordered by their keys: a permutation.
    fn permuted<T: Clone>(items: &[(T, u64)]) -> (Vec<T>, Vec<T>) {
        let mut by_key = items.to_vec();
        by_key.sort_by_key(|&(_, key)| key);
        let plain = |v: &[(T, u64)]| v.iter().map(|(x, _)| x.clone()).collect();
        (plain(items), plain(&by_key))
    }

    fn sum(terms: &[f64]) -> ExactSum {
        let mut acc = ExactSum::default();
        terms.iter().for_each(|&x| acc.add(x));
        acc
    }

    proptest! {
        // Up to 64 terms of the kinds a sum takes — `f32 × f32`
        // products, `|a − b|` and `(a − b)²` of two `f32`, either sign —
        // in any permutation, and reversed: the same bits. Each is at
        // most 0.1, so every partial sum stays in the range.
        #[test]
        fn a_sum_does_not_depend_on_the_order_of_its_terms(
            pairs in proptest::collection::vec(
                (0.0f32..=0.1, 0.0f32..=0.1, 0u8..6, any::<u64>()),
                1..=64,
            ),
        ) {
            let items: Vec<(f64, u64)> = pairs
                .iter()
                .map(|&(a, b, kind, key)| {
                    let (a, b) = (a as f64, b as f64);
                    let term = [a * b, (a - b).abs(), (a - b) * (a - b)][kind as usize % 3];
                    (if kind < 3 { term } else { -term }, key)
                })
                .collect();
            let (mut terms, shuffled) = permuted(&items);
            let bits = sum(&terms).value().to_bits();
            prop_assert_eq!(bits, sum(&shuffled).value().to_bits());
            terms.reverse();
            prop_assert_eq!(bits, sum(&terms).value().to_bits());
        }

        // A tuple's norms in any category order: the same bits.
        #[test]
        fn norms_do_not_depend_on_the_order_of_the_categories(
            probs in proptest::collection::vec((0.0f32..=0.06, any::<u64>()), 1..=16),
        ) {
            let items: Vec<(Entry, u64)> = (0u32..)
                .zip(&probs)
                .map(|(c, &(prob, key))| (Entry { cat: CatId(c), prob }, key))
                .collect();
            let (entries, shuffled) = permuted(&items);
            let norm = norms(entries.iter().copied());
            prop_assert_eq!(norm, norms(shuffled));
            let plain: f64 = entries.iter().map(|e| e.prob as f64).sum();
            prop_assert!((norm.mass.value() - plain).abs() < 1e-12);
        }
    }

    /// A term under 2⁻⁶⁰ adds exactly 0, and adding `−x` undoes `x`: a
    /// tuple whose only overlap with the query is a product of two such
    /// probabilities scores 0, which no backend returns.
    #[test]
    fn a_term_below_the_unit_adds_nothing() {
        let tiny = (2.0f64).powi(-31) as f32;
        let mut acc = ExactSum::default();
        acc.add(tiny as f64 * tiny as f64);
        assert_eq!(acc, ExactSum::default());
        let q = uda(&[(0, tiny), (1, 1.0 - tiny)]);
        let t = uda(&[(0, tiny), (2, 1.0 - tiny)]);
        assert_eq!(crate::equality::eq_prob(&q, &t), 0.0);
        acc.add(0.3);
        acc.add(-0.3);
        assert_eq!(acc, ExactSum::default());
    }

    /// Boundary vectors — mass far past one tuple's — are summed in
    /// `f64` by [`Divergence::eval_wide`], which agrees with `eval` where
    /// both apply.
    #[test]
    fn wide_sums_cover_vectors_past_the_range() {
        let wide: Vec<Entry> = (0..40)
            .map(|c| Entry {
                cat: CatId(c),
                prob: 1.0,
            })
            .collect();
        let q = uda(&[(0, 0.5), (50, 0.5)]);
        assert_eq!(Divergence::L1.eval_wide(q.entries(), &wide), 40.0);
        let (u, v) = (uda(&[(0, 0.6), (1, 0.4)]), uda(&[(0, 0.4), (1, 0.6)]));
        for dv in Divergence::ALL {
            let (a, b) = (
                dv.eval(u.entries(), v.entries()),
                dv.eval_wide(u.entries(), v.entries()),
            );
            assert!((a - b).abs() < 1e-15, "{dv:?}: {a} vs {b}");
        }
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
