//! Probabilistic equality semantics (Definitions 1–2 of the paper).
//!
//! For UDAs `u`, `v` over the same domain, under the independence
//! assumption the probability that they are equal is the inner product of
//! their probability vectors:
//!
//! ```text
//! Pr(u = v) = Σ_i  u.p_i · v.p_i
//! ```
//!
//! Both operands are sparse and sorted by category, so the product is a
//! linear merge over the shorter supports. Its products are added as one
//! [`ExactSum`], as every index adds them: the sum does not depend on the
//! order they are met in, so every backend scores a tuple to the same bits.

use crate::distance::ExactSum;
use crate::uda::{Entry, Uda};

/// `Pr(u = v)` for two UDAs (Definition 2): the inner product of the two
/// sparse probability vectors, summed exactly ([`ExactSum`]).
///
/// ```
/// use uncat_core::{equality::eq_prob, CatId, Uda};
///
/// // The paper's §2 example: distributional similarity is not equality.
/// let u = Uda::from_pairs([(CatId(0), 0.6), (CatId(1), 0.4)])?;
/// let v = Uda::from_pairs([(CatId(0), 0.4), (CatId(1), 0.6)])?;
/// assert!((eq_prob(&u, &v) - 0.48).abs() < 1e-6);
/// # Ok::<(), uncat_core::Error>(())
/// ```
#[inline]
pub fn eq_prob(u: &Uda, v: &Uda) -> f64 {
    eq_prob_entries(u.entries(), v.entries())
}

/// [`eq_prob`] on bare entry slices (each sorted by strictly increasing
/// category, as [`Uda::entries`] and [`crate::codec::Scan::collect_into`] give
/// them), for callers that score records without materializing a [`Uda`].
#[inline]
pub fn eq_prob_entries(a: &[Entry], b: &[Entry]) -> f64 {
    eq_prob_stream(a, b.iter().copied())
}

/// [`eq_prob_entries`] with the second operand streamed in category order
/// (a record read off a page by [`crate::codec::scan`]) instead of held in
/// a slice: a linear merge.
#[inline]
pub fn eq_prob_stream(a: &[Entry], b: impl IntoIterator<Item = Entry>) -> f64 {
    let mut i = 0;
    let mut acc = ExactSum::default();
    for e in b {
        while i < a.len() && a[i].cat < e.cat {
            i += 1;
        }
        if i == a.len() {
            break;
        }
        if a[i].cat == e.cat {
            acc.add(a[i].prob as f64 * e.prob as f64);
            i += 1;
        }
    }
    acc.value()
}

/// Slack used by every threshold comparison. Every backend computes a
/// score to the same bits, but the bounds an index prunes by — quantized
/// block maxima, the PDR-tree's `f64` boundary sums — may sit a few ulps
/// off the scores they bound; the slack keeps them from cutting a tuple
/// at `τ`.
pub const THRESHOLD_EPS: f64 = 1e-9;

/// The canonical "qualifies for threshold `tau`" test used by every
/// implementation (Definition 4's `Pr(q = t.a) ≥ τ`).
#[inline]
pub fn meets_threshold(pr: f64, tau: f64) -> bool {
    pr >= tau - THRESHOLD_EPS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::CatId;

    fn uda(pairs: &[(u32, f32)]) -> Uda {
        Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
    }

    #[test]
    fn paper_example_distribution_vs_equality() {
        // Section 2: flat-vs-flat has lower equality probability than two
        // close-but-unequal concentrated distributions.
        let flat = uda(&[(0, 0.2), (1, 0.2), (2, 0.2), (3, 0.2), (4, 0.2)]);
        assert!((eq_prob(&flat, &flat) - 0.2).abs() < 1e-6);

        let u = uda(&[(0, 0.6), (1, 0.4)]);
        let v = uda(&[(0, 0.4), (1, 0.6)]);
        assert!((eq_prob(&u, &v) - 0.48).abs() < 1e-6);
    }

    #[test]
    fn disjoint_supports_never_equal() {
        let u = uda(&[(0, 1.0)]);
        let v = uda(&[(1, 1.0)]);
        assert_eq!(eq_prob(&u, &v), 0.0);
    }

    #[test]
    fn certain_equal_values() {
        let u = uda(&[(3, 1.0)]);
        assert!((eq_prob(&u, &u) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_the_matching_products_exactly() {
        let us = [
            uda(&[(0, 0.5), (2, 0.3), (7, 0.2)]),
            uda(&[(2, 0.9), (7, 0.1)]),
            uda(&[(1, 0.3), (3, 0.3), (9, 0.4)]),
            uda(&[(0, 0.1), (1, 0.1), (2, 0.1), (3, 0.1), (7, 0.3), (9, 0.3)]),
            uda(&[(5, 1.0)]),
        ];
        for u in &us {
            for v in &us {
                let mut want = ExactSum::default();
                for &Entry { cat, prob: p } in v.entries().iter().rev() {
                    if u.prob_of(cat) > 0.0 {
                        want.add(u.prob_of(cat) as f64 * p as f64);
                    }
                }
                let want = want.value();
                let streamed = eq_prob_stream(u.entries(), v.entries().iter().copied());
                assert_eq!(streamed.to_bits(), want.to_bits());
                assert_eq!(eq_prob(u, v).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn symmetry() {
        let u = uda(&[(0, 0.5), (2, 0.3), (7, 0.2)]);
        let v = uda(&[(2, 0.9), (7, 0.1)]);
        assert_eq!(eq_prob(&u, &v), eq_prob(&v, &u));
    }
}
