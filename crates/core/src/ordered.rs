//! Probabilistic operators for *totally ordered* categorical domains.
//!
//! The paper (§2, last paragraph): "for the special case of totally
//! ordered categorical domains, e.g. `D = {1, …, N}`, additional
//! inequality probabilistic relations and operators can be defined between
//! two UDAs. For example, we can define `Pr(u > v)`, and
//! `Pr(|u − v| ≤ c)`. The notion of probabilistic equality can be
//! slightly relaxed to allow a window within which the values are
//! considered equal."
//!
//! Categories are ordered by their [`CatId`]. Under independence:
//!
//! ```text
//! Pr(u < v)        = Σ_{i<j} u.p_i · v.p_j
//! Pr(|u − v| ≤ c)  = Σ_{|i−j|≤c} u.p_i · v.p_j  =  ⟨boxᶜ(u), v⟩
//! ```
//!
//! where `boxᶜ(u)` is the box-filtered (window-smoothed) vector
//! `boxᶜ(u)_j = Σ_{|i−j|≤c} u.p_i`. The smoothed vector is how windowed
//! equality plugs into the equality indexes: it is a plain inner-product
//! query, just with mass possibly exceeding one.

use crate::domain::CatId;
use crate::uda::Entry;
use crate::uda::Uda;

/// `Pr(u < v)` for UDAs over a totally ordered domain.
pub fn pr_less(u: &Uda, v: &Uda) -> f64 {
    // Walk v in category order, accumulating u's mass strictly below.
    let ue = u.entries();
    let mut i = 0;
    let mut below = 0.0f64;
    let mut acc = 0.0f64;
    for e in v.entries() {
        while i < ue.len() && ue[i].cat < e.cat {
            below += ue[i].prob as f64;
            i += 1;
        }
        acc += e.prob as f64 * below;
    }
    acc
}

/// `Pr(u > v)`.
pub fn pr_greater(u: &Uda, v: &Uda) -> f64 {
    pr_less(v, u)
}

/// `Pr(|u − v| ≤ c)`: windowed equality between two UDAs.
pub fn pr_within(u: &Uda, v: &Uda, c: u32) -> f64 {
    let ue = u.entries();
    let mut lo = 0usize; // first u entry with cat ≥ e.cat − c
    let mut hi = 0usize; // first u entry with cat > e.cat + c
    let mut window = 0.0f64;
    let mut acc = 0.0f64;
    for e in v.entries() {
        let low_cat = e.cat.0.saturating_sub(c);
        let high_cat = e.cat.0.saturating_add(c);
        while hi < ue.len() && ue[hi].cat.0 <= high_cat {
            window += ue[hi].prob as f64;
            hi += 1;
        }
        while lo < hi && ue[lo].cat.0 < low_cat {
            window -= ue[lo].prob as f64;
            lo += 1;
        }
        acc += e.prob as f64 * window;
    }
    acc
}

/// The box-filtered vector `boxᶜ(u)` with `boxᶜ(u)_j = Σ_{|i−j|≤c} u.p_i`,
/// clamped to the domain `[0, n)`.
///
/// `Pr(|u − v| ≤ c) = Σ_j boxᶜ(u)_j · v.p_j`, so a windowed-equality query
/// is an ordinary inner-product query with the smoothed vector. Note the
/// result is *not* a distribution (components may exceed individual
/// probabilities and total mass may exceed 1); consumers treat it as a raw
/// query vector.
pub fn window_smooth(u: &Uda, c: u32, domain_size: u32) -> Vec<Entry> {
    let mut out: Vec<Entry> = Vec::new();
    for (cat, p) in u.iter() {
        let low = cat.0.saturating_sub(c);
        let high = cat.0.saturating_add(c).min(domain_size.saturating_sub(1));
        for j in low..=high {
            match out.binary_search_by_key(&CatId(j), |e| e.cat) {
                Ok(k) => out[k].prob += p,
                Err(k) => out.insert(
                    k,
                    Entry {
                        cat: CatId(j),
                        prob: p,
                    },
                ),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equality::eq_prob;

    fn uda(pairs: &[(u32, f32)]) -> Uda {
        Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
    }

    #[test]
    fn less_greater_equal_partition_unit_mass() {
        let u = uda(&[(0, 0.3), (2, 0.4), (5, 0.3)]);
        let v = uda(&[(1, 0.5), (2, 0.2), (9, 0.3)]);
        let total = pr_less(&u, &v) + pr_greater(&u, &v) + eq_prob(&u, &v);
        assert!(
            (total - 1.0).abs() < 1e-6,
            "trichotomy must partition: {total}"
        );
    }

    #[test]
    fn pr_less_hand_computed() {
        let u = uda(&[(0, 0.5), (2, 0.5)]);
        let v = uda(&[(1, 0.4), (3, 0.6)]);
        // u<v: (0<1):0.5·0.4 + (0<3):0.5·0.6 + (2<3):0.5·0.6 = 0.2+0.3+0.3
        assert!((pr_less(&u, &v) - 0.8).abs() < 1e-6);
        assert!((pr_greater(&u, &v) - 0.2).abs() < 1e-6);
        assert_eq!(eq_prob(&u, &v), 0.0);
    }

    #[test]
    fn window_zero_is_equality() {
        let u = uda(&[(0, 0.6), (3, 0.4)]);
        let v = uda(&[(0, 0.2), (3, 0.8)]);
        assert!((pr_within(&u, &v, 0) - eq_prob(&u, &v)).abs() < 1e-9);
    }

    #[test]
    fn window_widens_monotonically_to_one() {
        let u = uda(&[(0, 0.5), (4, 0.5)]);
        let v = uda(&[(2, 1.0)]);
        let p0 = pr_within(&u, &v, 0);
        let p1 = pr_within(&u, &v, 1);
        let p2 = pr_within(&u, &v, 2);
        assert_eq!(p0, 0.0);
        assert_eq!(p1, 0.0);
        assert!(
            (p2 - 1.0).abs() < 1e-6,
            "both mass points are within |Δ| ≤ 2 of category 2"
        );
        assert!(p0 <= p1 && p1 <= p2);
    }

    #[test]
    fn window_smooth_reproduces_pr_within() {
        let u = uda(&[(1, 0.3), (4, 0.7)]);
        let v = uda(&[(0, 0.2), (2, 0.3), (5, 0.5)]);
        for c in 0..4u32 {
            let smooth = window_smooth(&u, c, 10);
            let ip: f64 = v
                .iter()
                .map(|(cat, p)| {
                    let s = smooth
                        .binary_search_by_key(&cat, |e| e.cat)
                        .map(|k| smooth[k].prob as f64)
                        .unwrap_or(0.0);
                    s * p as f64
                })
                .sum();
            let direct = pr_within(&u, &v, c);
            assert!((ip - direct).abs() < 1e-6, "c={c}: {ip} vs {direct}");
        }
    }

    #[test]
    fn window_smooth_clamps_to_domain() {
        let u = uda(&[(0, 1.0)]);
        let s = window_smooth(&u, 3, 2);
        assert_eq!(s.len(), 2, "window cannot leave the domain");
        assert!(s.iter().all(|e| e.cat.0 < 2));
    }

    #[test]
    fn identical_certain_values_compare_equal() {
        let u = uda(&[(7, 1.0)]);
        assert_eq!(pr_less(&u, &u), 0.0);
        assert_eq!(pr_greater(&u, &u), 0.0);
        assert!((eq_prob(&u, &u) - 1.0).abs() < 1e-9);
    }
}
