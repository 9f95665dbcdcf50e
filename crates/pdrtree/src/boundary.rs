//! MBR boundary vectors.
//!
//! "The MBR boundary for a page is a vector `v = (v1, …, vN)` such that
//! `v_i` is the maximum probability of item `d_i` in any of the UDAs
//! indexed in the subtree of the current page" (paper §3.2). Boundaries
//! are *not* probability distributions (their mass may exceed 1); they are
//! point-wise upper envelopes.
//!
//! A boundary lives in one of two shapes, fixed per tree by the
//! compression configuration:
//!
//! * **Sparse** — `(cat, prob)` pairs over the original domain (used by
//!   [`Compression::None`] and [`Compression::Discretized`], the latter
//!   rounding probabilities up at serialization time);
//! * **Signature** — a dense `|C|`-vector over the compressed domain with
//!   the fixed mapping `f(d) = d mod |C|` (paper's set-signature scheme).
//!
//! Every operation preserves the *domination invariant*: for each UDA `u`
//! merged into a boundary `v`, `v(f(i)) ≥ u.p_i` for all `i` — including
//! after lossy serialization, which may only round up.
//!
//! # Pruning bounds
//!
//! A boundary alone caps each `u_i` of a tuple below it; every stored
//! tuple also has mass `Σ u_i ≤ 1 + MASS_EPSILON` (the [`Uda`] invariant,
//! checked on every record read). The bounds use both:
//!
//! * **Capped Lemma 2** (`eq_upper_bound`): `Pr(q = u) ≤ max Σ q_i·x_i`
//!   over `0 ≤ x_i ≤ v(f(i))`, `Σ x_i ≤ 1 + MASS_EPSILON` — a fractional
//!   knapsack, filled greedily from q's most probable category down
//!   (`ByProb`, computed once per query). It never exceeds the paper's
//!   `Σ_i q_i·v(f(i))`, which is the special case of an uncapped mass.
//! * **Floored L1/L2** (`DistanceBound`): with `(m, s)` a floor under
//!   every tuple's mass and `‖u‖₂²` (`MassFloor`, kept by the tree),
//!   `L1(q, u) = mass(q) + mass(u) − 2·Σ min(q_i, u_i)
//!   ≥ mass(q) + m − 2·Σ min(q_i, v(f(i)))` and
//!   `L2(q, u)² = ‖q‖² + ‖u‖² − 2⟨q, u⟩ ≥ ‖q‖² + s − 2·cap(q, v)`, each
//!   taken with the boundary-only bound (`Σ max(0, q_i − v(f(i)))`, in
//!   L1 or squared L2), whichever is larger.
//!
//! Rounding: the record's mass check sums in f64, so a tuple's exact mass
//! may pass `1 + MASS_EPSILON` by a few ulps; the searches compare a bound
//! with 1e-9 to spare (`THRESHOLD_EPS`, and the DSTQ's `BOUND_EPS`), which
//! absorbs it. Every term is taken in f64 from the f32 values, where
//! products, differences and minima of two f32 are exact (an f32
//! difference rounds by up to 3e-8, more than the searches spare). The
//! floored distance bounds give up `FLOOR_SLACK` (1e-12) on top for their
//! f64 sums (at most a few hundred terms in `[0, 1]`, each sum off by well
//! under 1e-13).

use uncat_core::distance;
use uncat_core::uda::{Entry, MASS_EPSILON};
use uncat_core::{CatId, Divergence, Prob, Uda};

use crate::config::Compression;

/// A point-wise maximum envelope over a set of distributions.
#[derive(Debug, Clone, PartialEq)]
pub enum Boundary {
    /// Sparse per-category maxima, sorted by category id.
    Sparse(Vec<Entry>),
    /// Dense maxima over the compressed domain `C`; `f(d) = d mod |C|`.
    Signature(Vec<Prob>),
}

impl Boundary {
    /// An empty boundary in the shape demanded by `compression`.
    pub fn empty(compression: Compression) -> Boundary {
        match compression {
            Compression::Signature { width } => Boundary::Signature(vec![0.0; width as usize]),
            _ => Boundary::Sparse(Vec::new()),
        }
    }

    /// Boundary of a single UDA.
    pub fn of_uda(u: &Uda, compression: Compression) -> Boundary {
        let mut b = Boundary::empty(compression);
        b.merge_uda(u);
        b
    }

    /// The boundary's upper bound for category `cat`.
    pub fn bound_of(&self, cat: CatId) -> Prob {
        match self {
            Boundary::Sparse(v) => match v.binary_search_by_key(&cat, |e| e.cat) {
                Ok(i) => v[i].prob,
                Err(_) => 0.0,
            },
            Boundary::Signature(vals) => vals[cat.index() % vals.len()],
        }
    }

    /// Whether the boundary dominates `u`: `bound_of(cat) ≥ p` for every
    /// entry of `u`.
    pub fn dominates(&self, u: &Uda) -> bool {
        u.iter().all(|(cat, p)| self.bound_of(cat) >= p)
    }

    /// Grow to dominate `u` (point-wise max).
    pub fn merge_uda(&mut self, u: &Uda) {
        match self {
            Boundary::Sparse(v) => merge_max(v, u.entries()),
            Boundary::Signature(vals) => {
                for (cat, p) in u.iter() {
                    let slot = cat.index() % vals.len();
                    vals[slot] = vals[slot].max(p);
                }
            }
        }
    }

    /// Grow to dominate everything `other` dominates.
    pub fn merge_boundary(&mut self, other: &Boundary) {
        match (self, other) {
            (Boundary::Sparse(v), Boundary::Sparse(o)) => merge_max(v, o),
            (Boundary::Signature(vals), Boundary::Signature(o)) => {
                assert_eq!(vals.len(), o.len(), "mismatched signature widths");
                for (a, b) in vals.iter_mut().zip(o) {
                    *a = a.max(*b);
                }
            }
            _ => panic!("mixed boundary shapes within one tree"),
        }
    }

    /// The L1 "area" of the boundary (paper: "the simplest one being the
    /// L1 measure of the boundaries, Σ v_i"). Insertion minimizes the area
    /// increase.
    pub fn area(&self) -> f64 {
        match self {
            Boundary::Sparse(v) => v.iter().map(|e| e.prob as f64).sum(),
            Boundary::Signature(vals) => vals.iter().map(|&p| p as f64).sum(),
        }
    }

    /// How much [`area`](Boundary::area) would grow if `u` were merged.
    pub fn area_increase(&self, u: &Uda) -> f64 {
        match self {
            Boundary::Sparse(_) => u
                .iter()
                .map(|(cat, p)| ((p - self.bound_of(cat)) as f64).max(0.0))
                .sum(),
            Boundary::Signature(vals) => {
                // Several query categories may share a slot; the slot grows
                // to the max of them, once.
                let mut grow = vec![0.0f64; vals.len()];
                for (cat, p) in u.iter() {
                    let slot = cat.index() % vals.len();
                    let inc = ((p - vals[slot]) as f64).max(0.0);
                    grow[slot] = grow[slot].max(inc);
                }
                grow.iter().sum()
            }
        }
    }

    /// Lemma 2's pruning score, capped at one unit of mass: an upper bound
    /// on `Pr(q = u)` for every `u` of mass at most `1 + MASS_EPSILON`
    /// dominated by this boundary, never above `Σ_i q.p_i · v(f(i))` (see
    /// the [module docs](self)). Orders `q` on each call; the searches
    /// order it once per query and share the formula, bit for bit.
    pub fn eq_upper_bound(&self, q: &Uda) -> f64 {
        eq_upper_bound(&ByProb::of(q), |cat| self.bound_of(cat))
    }

    /// A lower bound on `L1(q, u)` for every dominated `u`:
    /// `Σ_i max(0, q.p_i − v(f(i)))` (each `u_i ≤ v(f(i))`).
    pub fn l1_lower_bound(&self, q: &Uda) -> f64 {
        l1_lower_bound(q, |cat| self.bound_of(cat))
    }

    /// A lower bound on `L2(q, u)` for every dominated `u`.
    pub fn l2_lower_bound(&self, q: &Uda) -> f64 {
        l2_lower_bound(q, |cat| self.bound_of(cat))
    }

    /// Distributional divergence between a UDA and this boundary, used for
    /// clustering decisions ("even though an MBR boundary is not a
    /// probability distribution in the strict sense, we can still apply
    /// most divergence measures").
    pub fn divergence_to(&self, u: &Uda, dv: Divergence) -> f64 {
        match self {
            Boundary::Sparse(v) => dv.eval_wide(u.entries(), v),
            Boundary::Signature(vals) => {
                let compressed = compress_entries(u.entries(), vals.len());
                let dense: Vec<Entry> = vals
                    .iter()
                    .enumerate()
                    .filter(|&(_, &p)| p > 0.0)
                    .map(|(c, &p)| Entry {
                        cat: CatId(c as u32),
                        prob: p,
                    })
                    .collect();
                dv.eval_wide(&compressed, &dense)
            }
        }
    }

    /// Divergence between two boundaries (cluster-to-cluster distance in
    /// the bottom-up split).
    pub fn divergence_between(&self, other: &Boundary, dv: Divergence) -> f64 {
        match (self, other) {
            (Boundary::Sparse(a), Boundary::Sparse(b)) => dv.eval_wide(a, b),
            (Boundary::Signature(a), Boundary::Signature(b)) => {
                let da = dense_entries(a);
                let db = dense_entries(b);
                dv.eval_wide(&da, &db)
            }
            _ => panic!("mixed boundary shapes within one tree"),
        }
    }

    /// Number of stored components (drives serialized size / fan-out).
    pub fn width(&self) -> usize {
        match self {
            Boundary::Sparse(v) => v.len(),
            Boundary::Signature(vals) => vals.len(),
        }
    }

    /// The sparse entries (panics for signature boundaries).
    pub fn entries(&self) -> &[Entry] {
        match self {
            Boundary::Sparse(v) => v,
            Boundary::Signature(_) => panic!("signature boundary has no sparse entries"),
        }
    }
}

// The pruning bounds over any per-category bound lookup: the owned
// `Boundary` and the on-page `BoundaryRef` share them, so a bound scored
// on the page is the bound scored on the decoded node, bit for bit.

/// Most mass a stored tuple may hold: the cap the capped Lemma 2 bound
/// spends.
const MASS_CAP: f64 = 1.0 + MASS_EPSILON;

/// What the floored distance bounds give up for the rounding of their
/// f64 sums (see the [module docs](self)).
const FLOOR_SLACK: f64 = 1e-12;

/// A query's entries in the order the capped bound fills its unit of mass:
/// descending probability, ties by category.
pub(crate) struct ByProb(Vec<Entry>);

impl ByProb {
    pub(crate) fn of(q: &Uda) -> ByProb {
        let mut entries = q.entries().to_vec();
        entries.sort_unstable_by(|a, b| b.prob.total_cmp(&a.prob).then(a.cat.cmp(&b.cat)));
        ByProb(entries)
    }
}

/// Capped Lemma 2: `max Σ q_i·x_i` over `0 ≤ x_i ≤ v(f(i))` and
/// `Σ x_i ≤ MASS_CAP`, each category taking `min(v, mass left)` in
/// [`ByProb`] order. Stops looking bounds up once the mass is spent.
pub(crate) fn eq_upper_bound(q: &ByProb, bound_of: impl Fn(CatId) -> Prob) -> f64 {
    let mut left = MASS_CAP;
    let mut sum = 0.0;
    for e in &q.0 {
        let take = (bound_of(e.cat) as f64).min(left);
        sum += e.prob as f64 * take;
        left -= take;
        if left <= 0.0 {
            break;
        }
    }
    sum
}

/// One pass over q's categories: the boundary-only L1 bound
/// `Σ max(0, q_i − v(f(i)))` and the overlap `Σ min(q_i, v(f(i)))`.
fn l1_terms(q: &Uda, bound_of: impl Fn(CatId) -> Prob) -> (f64, f64) {
    q.iter().fold((0.0, 0.0), |(below, overlap), (cat, p)| {
        let v = bound_of(cat);
        (
            below + (p as f64 - v as f64).max(0.0),
            overlap + p.min(v) as f64,
        )
    })
}

fn l1_lower_bound(q: &Uda, bound_of: impl Fn(CatId) -> Prob) -> f64 {
    l1_terms(q, bound_of).0
}

fn l2_lower_bound(q: &Uda, bound_of: impl Fn(CatId) -> Prob) -> f64 {
    q.iter()
        .map(|(cat, p)| {
            let d = (p as f64 - bound_of(cat) as f64).max(0.0);
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// A floor under the mass and `‖u‖₂²` of every tuple in a tree: the least
/// of each, ∞ while no tuple has been seen. Lowering it by a tuple keeps
/// it a floor; a tuple leaving leaves it one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MassFloor {
    pub(crate) mass: f64,
    pub(crate) sq: f64,
}

impl MassFloor {
    pub(crate) const EMPTY: MassFloor = MassFloor {
        mass: f64::INFINITY,
        sq: f64::INFINITY,
    };

    /// Lower the floor to cover one more tuple, by its exact norms
    /// ([`distance::norms`], the sums the inverted norm column holds).
    pub(crate) fn lower(&mut self, entries: impl IntoIterator<Item = Entry>) {
        let norm = distance::norms(entries);
        self.mass = self.mass.min(norm.mass.value());
        self.sq = self.sq.min(norm.sq.value());
    }
}

/// A DSTQ's or DS-top-k's subtree bound, prepared once per query: a lower
/// bound on the divergence from the query to every tuple below a boundary.
pub(crate) enum DistanceBound<'q> {
    /// `max(Σ max(0, q_i − v_i), mass(q) + m − 2·Σ min(q_i, v_i))`.
    L1 {
        q: &'q Uda,
        /// `mass(q) + m`, the floor's mass `m` added once.
        masses: f64,
    },
    /// `√max(Σ max(0, q_i − v_i)², ‖q‖² + s − 2·cap(q, v))`.
    L2 {
        q: &'q Uda,
        by_prob: ByProb,
        /// `‖q‖² + s`, the floor's `‖u‖₂²` bound `s` added once.
        squares: f64,
    },
    /// KL admits no bound ("it is not directly usable for pruning search
    /// paths", paper §2): 0 everywhere.
    Kl,
}

impl<'q> DistanceBound<'q> {
    /// The bound for `dv`; `floor` is asked for only by L1 and L2.
    pub(crate) fn new<E>(
        q: &'q Uda,
        dv: Divergence,
        floor: impl FnOnce() -> Result<MassFloor, E>,
    ) -> Result<DistanceBound<'q>, E> {
        let norm = distance::norms(q.entries().iter().copied());
        Ok(match dv {
            Divergence::L1 => DistanceBound::L1 {
                q,
                masses: norm.mass.value() + floor()?.mass,
            },
            Divergence::L2 => DistanceBound::L2 {
                q,
                by_prob: ByProb::of(q),
                squares: norm.sq.value() + floor()?.sq,
            },
            Divergence::Kl => DistanceBound::Kl,
        })
    }

    /// The lower bound under a boundary given by its lookup.
    pub(crate) fn at(&self, bound_of: impl Fn(CatId) -> Prob) -> f64 {
        match self {
            DistanceBound::L1 { q, masses } => {
                let (below, overlap) = l1_terms(q, bound_of);
                below.max(masses - 2.0 * overlap - FLOOR_SLACK)
            }
            DistanceBound::L2 {
                q,
                by_prob,
                squares,
            } => {
                let floored = squares - 2.0 * eq_upper_bound(by_prob, &bound_of);
                l2_lower_bound(q, &bound_of).max((floored - FLOOR_SLACK).max(0.0).sqrt())
            }
            DistanceBound::Kl => 0.0,
        }
    }
}

/// Point-wise max merge of sorted sparse entry vectors, in place.
fn merge_max(dst: &mut Vec<Entry>, src: &[Entry]) {
    let mut out = Vec::with_capacity(dst.len() + src.len());
    let mut i = 0;
    let mut j = 0;
    while i < dst.len() && j < src.len() {
        match dst[i].cat.cmp(&src[j].cat) {
            std::cmp::Ordering::Less => {
                out.push(dst[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(src[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(Entry {
                    cat: dst[i].cat,
                    prob: dst[i].prob.max(src[j].prob),
                });
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&dst[i..]);
    out.extend_from_slice(&src[j..]);
    *dst = out;
}

/// Max-aggregate sparse entries into the compressed domain.
pub(crate) fn compress_entries(entries: &[Entry], width: usize) -> Vec<Entry> {
    let mut vals = vec![0.0f32; width];
    for e in entries {
        let slot = e.cat.index() % width;
        vals[slot] = vals[slot].max(e.prob);
    }
    dense_entries(&vals)
}

fn dense_entries(vals: &[Prob]) -> Vec<Entry> {
    vals.iter()
        .enumerate()
        .filter(|&(_, &p)| p > 0.0)
        .map(|(c, &p)| Entry {
            cat: CatId(c as u32),
            prob: p,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uda(pairs: &[(u32, f32)]) -> Uda {
        Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
    }

    #[test]
    fn sparse_merge_dominates_inputs() {
        let mut b = Boundary::empty(Compression::None);
        let u = uda(&[(0, 0.3), (2, 0.7)]);
        let v = uda(&[(0, 0.5), (1, 0.2), (2, 0.3)]);
        b.merge_uda(&u);
        b.merge_uda(&v);
        assert!(b.dominates(&u));
        assert!(b.dominates(&v));
        assert_eq!(b.bound_of(CatId(0)), 0.5);
        assert_eq!(b.bound_of(CatId(1)), 0.2);
        assert_eq!(b.bound_of(CatId(2)), 0.7);
        assert_eq!(b.bound_of(CatId(3)), 0.0);
        assert!((b.area() - 1.4).abs() < 1e-6);
    }

    #[test]
    fn eq_upper_bound_is_sound() {
        let u = uda(&[(0, 0.6), (1, 0.4)]);
        let v = uda(&[(0, 0.2), (2, 0.8)]);
        let mut b = Boundary::empty(Compression::None);
        b.merge_uda(&u);
        b.merge_uda(&v);
        let q = uda(&[(0, 0.5), (2, 0.5)]);
        let ub = b.eq_upper_bound(&q);
        for t in [&u, &v] {
            let pr = uncat_core::equality::eq_prob(&q, t);
            assert!(pr <= ub + 1e-9, "Pr {pr} exceeded bound {ub}");
        }
    }

    #[test]
    fn capped_bound_spends_one_unit_of_mass() {
        // v = (0.9, 0.9): the paper's bound lets one tuple take both.
        let b = Boundary::of_uda(&uda(&[(0, 0.9), (1, 0.1)]), Compression::None);
        let mut b2 = b.clone();
        b2.merge_uda(&uda(&[(0, 0.1), (1, 0.9)]));
        let q = uda(&[(0, 0.6), (1, 0.4)]);
        // 0.6·0.9 + 0.4·(1 + MASS_EPSILON − 0.9), not 0.6·0.9 + 0.4·0.9.
        let want = 0.6f32 as f64 * 0.9f32 as f64 + 0.4f32 as f64 * (MASS_CAP - 0.9f32 as f64);
        assert!((b2.eq_upper_bound(&q) - want).abs() < 1e-12);
        let best = uncat_core::equality::eq_prob(&q, &uda(&[(0, 0.9), (1, 0.1)]));
        assert!(best <= b2.eq_upper_bound(&q) && b2.eq_upper_bound(&q) < best + 1e-4);
        // A boundary of mass under one is not capped at all.
        assert_eq!(
            b.eq_upper_bound(&q),
            0.6f32 as f64 * 0.9f32 as f64 + 0.4f32 as f64 * 0.1f32 as f64
        );
    }

    #[test]
    fn floored_distance_bounds_use_the_least_mass() {
        // Every tuple below has mass 0.3 on category 1; q sits on 0.
        let b = Boundary::of_uda(&uda(&[(1, 0.3)]), Compression::None);
        let q = uda(&[(0, 1.0)]);
        let mut floor = MassFloor::EMPTY;
        floor.lower(uda(&[(1, 0.3)]).entries().iter().copied());
        let at = |dv| {
            DistanceBound::new(&q, dv, || Ok::<_, ()>(floor))
                .unwrap()
                .at(|cat| b.bound_of(cat))
        };
        let u = uda(&[(1, 0.3)]);
        // L1: the boundary alone sees only q's 1.0; the floor adds 0.3.
        assert_eq!(b.l1_lower_bound(&q), 1.0);
        let l1 = Divergence::L1.eval(q.entries(), u.entries());
        assert!(at(Divergence::L1) > 1.29 && at(Divergence::L1) <= l1);
        let l2 = Divergence::L2.eval(q.entries(), u.entries());
        assert!(at(Divergence::L2) > 1.04 && at(Divergence::L2) <= l2);
        assert_eq!(at(Divergence::Kl), 0.0);
        // KL never asks for the floor.
        assert!(DistanceBound::new(&q, Divergence::Kl, || Err(())).is_ok());
    }

    #[test]
    fn area_increase_matches_actual_growth() {
        let mut b = Boundary::of_uda(&uda(&[(0, 0.5), (1, 0.5)]), Compression::None);
        let u = uda(&[(0, 0.7), (3, 0.3)]);
        let predicted = b.area_increase(&u);
        let before = b.area();
        b.merge_uda(&u);
        assert!((b.area() - before - predicted).abs() < 1e-9);
        // Already-dominated UDA grows nothing.
        assert_eq!(b.area_increase(&uda(&[(0, 0.1), (1, 0.2)])), 0.0);
    }

    #[test]
    fn signature_boundary_dominates_via_mapping() {
        let mut b = Boundary::empty(Compression::Signature { width: 4 });
        let u = uda(&[(1, 0.4), (5, 0.6)]); // cats 1 and 5 share slot 1
        b.merge_uda(&u);
        assert!(b.dominates(&u));
        assert_eq!(
            b.bound_of(CatId(1)),
            0.6,
            "slot takes the max over the preimage"
        );
        assert_eq!(b.bound_of(CatId(5)), 0.6);
        assert_eq!(b.bound_of(CatId(0)), 0.0);
    }

    #[test]
    fn signature_eq_upper_bound_still_sound() {
        let mut b = Boundary::empty(Compression::Signature { width: 2 });
        let u = uda(&[(0, 0.5), (3, 0.5)]);
        let v = uda(&[(2, 0.9), (5, 0.1)]);
        b.merge_uda(&u);
        b.merge_uda(&v);
        let q = uda(&[(0, 0.3), (2, 0.3), (3, 0.4)]);
        let ub = b.eq_upper_bound(&q);
        for t in [&u, &v] {
            let pr = uncat_core::equality::eq_prob(&q, t);
            assert!(pr <= ub + 1e-9);
        }
    }

    #[test]
    fn signature_area_increase_counts_slots_once() {
        let b = Boundary::empty(Compression::Signature { width: 2 });
        // Cats 0 and 2 share slot 0; the slot grows to max(0.3, 0.8) once.
        let u = uda(&[(0, 0.3), (2, 0.7)]);
        assert!((b.area_increase(&u) - 0.7).abs() < 1e-6);
    }

    #[test]
    fn l1_lower_bound_is_sound() {
        let u = uda(&[(0, 0.6), (1, 0.4)]);
        let v = uda(&[(2, 1.0)]);
        let b = {
            let mut b = Boundary::of_uda(&u, Compression::None);
            b.merge_uda(&v);
            b
        };
        let q = uda(&[(0, 0.2), (3, 0.8)]);
        let lb = b.l1_lower_bound(&q);
        for t in [&u, &v] {
            let d = Divergence::L1.eval(q.entries(), t.entries());
            assert!(d >= lb - 1e-9, "L1 {d} below bound {lb}");
        }
        let lb2 = b.l2_lower_bound(&q);
        for t in [&u, &v] {
            let d = Divergence::L2.eval(q.entries(), t.entries());
            assert!(d >= lb2 - 1e-9);
        }
    }

    #[test]
    fn merge_boundaries_both_shapes() {
        let mut a = Boundary::of_uda(&uda(&[(0, 0.5)]), Compression::None);
        let b = Boundary::of_uda(&uda(&[(0, 0.1), (1, 0.9)]), Compression::None);
        a.merge_boundary(&b);
        assert_eq!(a.bound_of(CatId(0)), 0.5);
        assert_eq!(a.bound_of(CatId(1)), 0.9);

        let cfg = Compression::Signature { width: 3 };
        let mut s = Boundary::of_uda(&uda(&[(0, 0.5)]), cfg);
        let t = Boundary::of_uda(&uda(&[(3, 0.8)]), cfg); // slot 0 again
        s.merge_boundary(&t);
        assert_eq!(s.bound_of(CatId(0)), 0.8);
    }

    #[test]
    fn divergence_to_boundary_is_finite_and_zeroish_for_member() {
        let u = uda(&[(0, 0.5), (1, 0.5)]);
        let b = Boundary::of_uda(&u, Compression::None);
        for dv in Divergence::ALL {
            let d = b.divergence_to(&u, dv);
            assert!(d.is_finite());
            assert!(
                d.abs() < 1e-3,
                "{dv:?} distance of a member to its own envelope"
            );
        }
    }
}
