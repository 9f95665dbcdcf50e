//! Uncertain discrete attributes (UDAs).
//!
//! A [`Uda`] is a sparse probability vector over a categorical domain: the
//! pairs-set representation `{(d, p) | Pr(u = d) = p ∧ p ≠ 0}` from the
//! paper (Section 2). Entries are stored sorted by category id, which makes
//! the inner-product and divergence computations linear merges.
//!
//! Following the paper, the total mass may be *less* than one (missing
//! values); it may never exceed one.

use std::fmt;

use crate::domain::CatId;
use crate::error::{Error, Result};
use crate::Prob;

/// Tolerance for "sums to at most 1" checks, absorbing f32 rounding.
pub const MASS_EPSILON: f64 = 1e-4;

/// A single `(category, probability)` entry of a UDA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// The category.
    pub cat: CatId,
    /// `Pr(u = cat)`, in `(0, 1]`.
    pub prob: Prob,
}

/// An uncertain discrete attribute: a sparse distribution over categories.
///
/// Invariants (enforced by [`UdaBuilder`] and the decoders):
/// * entries are sorted by strictly increasing category id;
/// * every probability is finite and in `(0, 1]`;
/// * the probabilities sum to at most `1 + MASS_EPSILON`.
///
/// ```
/// use uncat_core::{CatId, Uda};
///
/// // "Problem = {Brake: 0.5, Tires: 0.5}" from the paper's Table 1.
/// let problem = Uda::from_pairs([(CatId(0), 0.5), (CatId(1), 0.5)])?;
/// assert_eq!(problem.prob_of(CatId(0)), 0.5);
/// assert_eq!(problem.prob_of(CatId(7)), 0.0);
/// assert!((problem.mass() - 1.0).abs() < 1e-6);
///
/// // More mass than 1 is rejected.
/// assert!(Uda::from_pairs([(CatId(0), 0.8), (CatId(1), 0.8)]).is_err());
/// # Ok::<(), uncat_core::Error>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct Uda {
    entries: Box<[Entry]>,
}

impl Uda {
    /// Build a UDA from pairs, validating all invariants.
    ///
    /// Pairs may arrive in any order; zero-probability pairs are dropped.
    pub fn from_pairs<I>(pairs: I) -> Result<Uda>
    where
        I: IntoIterator<Item = (CatId, Prob)>,
    {
        let mut b = UdaBuilder::new();
        for (cat, prob) in pairs {
            b.push(cat, prob)?;
        }
        b.finish()
    }

    /// A certain value: all mass on a single category.
    pub fn certain(cat: CatId) -> Uda {
        Uda {
            entries: vec![Entry { cat, prob: 1.0 }].into_boxed_slice(),
        }
    }

    /// Construct from entries already known to satisfy the invariants.
    ///
    /// Used by the page decoders on trusted bytes; debug builds re-check.
    pub(crate) fn from_sorted_unchecked(entries: Vec<Entry>) -> Uda {
        debug_assert!(entries.windows(2).all(|w| w[0].cat < w[1].cat));
        debug_assert!(entries.iter().all(|e| e.prob > 0.0 && e.prob <= 1.0));
        Uda {
            entries: entries.into_boxed_slice(),
        }
    }

    /// The entries, sorted by category id.
    #[inline]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of non-zero categories.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the UDA has no entries. Builders refuse to produce this, but
    /// intermediate code may want the check.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `Pr(u = cat)`; zero when the category carries no mass.
    pub fn prob_of(&self, cat: CatId) -> Prob {
        match self.entries.binary_search_by_key(&cat, |e| e.cat) {
            Ok(i) => self.entries[i].prob,
            Err(_) => 0.0,
        }
    }

    /// Total probability mass (≤ 1; < 1 indicates missing values).
    pub fn mass(&self) -> f64 {
        self.entries.iter().map(|e| e.prob as f64).sum()
    }

    /// The entry with the highest probability (`None` only for empty UDAs).
    pub fn mode(&self) -> Option<Entry> {
        self.entries
            .iter()
            .copied()
            .max_by(|a, b| a.prob.partial_cmp(&b.prob).expect("probs are finite"))
    }

    /// The highest probability in the distribution, 0.0 if empty.
    pub fn max_prob(&self) -> Prob {
        self.mode().map_or(0.0, |e| e.prob)
    }

    /// Iterate `(CatId, Prob)` pairs in category order.
    pub fn iter(&self) -> impl Iterator<Item = (CatId, Prob)> + '_ {
        self.entries.iter().map(|e| (e.cat, e.prob))
    }

    /// Largest category id present (drives minimum domain cardinality).
    pub fn max_cat(&self) -> Option<CatId> {
        self.entries.last().map(|e| e.cat)
    }

    /// Shannon entropy of the distribution, in bits. Zero for a certain
    /// value; `log2(n)` for a uniform spread over `n` categories. The
    /// quantitative form of the paper's "CRM1 exhibits less uncertainty
    /// than CRM2".
    pub fn entropy(&self) -> f64 {
        -self
            .entries
            .iter()
            .map(|e| {
                let p = e.prob as f64;
                p * p.log2()
            })
            .sum::<f64>()
    }
}

impl fmt::Debug for Uda {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({}, {:.3})", e.cat, e.prob)?;
        }
        write!(f, "}}")
    }
}

/// Incremental builder for [`Uda`] values with validation.
#[derive(Default)]
pub struct UdaBuilder {
    entries: Vec<Entry>,
}

impl UdaBuilder {
    /// New empty builder.
    pub fn new() -> UdaBuilder {
        UdaBuilder {
            entries: Vec::new(),
        }
    }

    /// New builder with capacity for `n` entries.
    pub fn with_capacity(n: usize) -> UdaBuilder {
        UdaBuilder {
            entries: Vec::with_capacity(n),
        }
    }

    /// Add a `(category, probability)` pair.
    ///
    /// Zero probabilities are accepted and dropped (sparse representation);
    /// negative, non-finite, or > 1 probabilities are rejected here, and
    /// duplicate categories / excess mass are rejected by [`finish`].
    ///
    /// [`finish`]: UdaBuilder::finish
    pub fn push(&mut self, cat: CatId, prob: Prob) -> Result<&mut Self> {
        let p = prob as f64;
        if !p.is_finite() || !(0.0..=1.0 + MASS_EPSILON).contains(&p) {
            return Err(Error::InvalidProbability { value: p });
        }
        if prob > 0.0 {
            self.entries.push(Entry {
                cat,
                prob: prob.min(1.0),
            });
        }
        Ok(self)
    }

    /// Number of (non-zero) entries pushed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Validate and produce the UDA.
    pub fn finish(mut self) -> Result<Uda> {
        if self.entries.is_empty() {
            return Err(Error::EmptyUda);
        }
        self.entries.sort_by_key(|e| e.cat);
        for w in self.entries.windows(2) {
            if w[0].cat == w[1].cat {
                return Err(Error::DuplicateCategory { cat: w[0].cat.0 });
            }
        }
        let total: f64 = self.entries.iter().map(|e| e.prob as f64).sum();
        if total > 1.0 + MASS_EPSILON {
            return Err(Error::MassExceedsOne { total });
        }
        Ok(Uda {
            entries: self.entries.into_boxed_slice(),
        })
    }

    /// Validate, then normalize the mass to exactly 1 and produce the UDA.
    ///
    /// Useful for generator output where rounding leaves the sum slightly
    /// off. Errors if the builder is empty or holds invalid entries.
    pub fn finish_normalized(mut self) -> Result<Uda> {
        if self.entries.is_empty() {
            return Err(Error::EmptyUda);
        }
        self.entries.sort_by_key(|e| e.cat);
        for w in self.entries.windows(2) {
            if w[0].cat == w[1].cat {
                return Err(Error::DuplicateCategory { cat: w[0].cat.0 });
            }
        }
        let total: f64 = self.entries.iter().map(|e| e.prob as f64).sum();
        debug_assert!(total > 0.0);
        for e in &mut self.entries {
            e.prob = ((e.prob as f64) / total) as Prob;
        }
        Ok(Uda {
            entries: self.entries.into_boxed_slice(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> CatId {
        CatId(i)
    }

    #[test]
    fn from_pairs_sorts_and_validates() {
        let u = Uda::from_pairs([(c(3), 0.5), (c(1), 0.25), (c(2), 0.25)]).unwrap();
        let cats: Vec<u32> = u.iter().map(|(cat, _)| cat.0).collect();
        assert_eq!(cats, vec![1, 2, 3]);
        assert!((u.mass() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_probabilities_are_dropped() {
        let u = Uda::from_pairs([(c(0), 0.0), (c(1), 1.0)]).unwrap();
        assert_eq!(u.len(), 1);
        assert_eq!(u.prob_of(c(0)), 0.0);
        assert_eq!(u.prob_of(c(1)), 1.0);
    }

    #[test]
    fn mass_may_be_less_than_one() {
        let u = Uda::from_pairs([(c(0), 0.3), (c(4), 0.2)]).unwrap();
        assert!((u.mass() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn mass_above_one_rejected() {
        let err = Uda::from_pairs([(c(0), 0.7), (c(1), 0.7)]).unwrap_err();
        assert!(matches!(err, Error::MassExceedsOne { .. }));
    }

    #[test]
    fn duplicate_category_rejected() {
        let err = Uda::from_pairs([(c(0), 0.2), (c(0), 0.3)]).unwrap_err();
        assert!(matches!(err, Error::DuplicateCategory { cat: 0 }));
    }

    #[test]
    fn invalid_probability_rejected() {
        assert!(Uda::from_pairs([(c(0), -0.1)]).is_err());
        assert!(Uda::from_pairs([(c(0), f32::NAN)]).is_err());
        assert!(Uda::from_pairs([(c(0), 1.5)]).is_err());
    }

    #[test]
    fn empty_uda_rejected() {
        assert!(matches!(Uda::from_pairs([]), Err(Error::EmptyUda)));
        assert!(matches!(
            Uda::from_pairs([(c(0), 0.0)]),
            Err(Error::EmptyUda)
        ));
    }

    #[test]
    fn certain_value() {
        let u = Uda::certain(c(7));
        assert_eq!(u.prob_of(c(7)), 1.0);
        assert_eq!(u.mode().unwrap().cat, c(7));
        assert_eq!(u.max_prob(), 1.0);
    }

    #[test]
    fn mode_picks_heaviest() {
        let u = Uda::from_pairs([(c(0), 0.2), (c(5), 0.5), (c(9), 0.3)]).unwrap();
        assert_eq!(u.mode().unwrap().cat, c(5));
    }

    #[test]
    fn entropy_endpoints() {
        let certain = Uda::certain(c(3));
        assert_eq!(certain.entropy(), 0.0);

        let uniform4 = Uda::from_pairs((0..4).map(|i| (c(i), 0.25f32))).unwrap();
        assert!((uniform4.entropy() - 2.0).abs() < 1e-6, "log2(4) = 2 bits");

        let skewed = Uda::from_pairs([(c(0), 0.9f32), (c(1), 0.1)]).unwrap();
        assert!(skewed.entropy() > 0.0 && skewed.entropy() < 1.0);
    }

    #[test]
    fn normalized_finish_scales_to_unit_mass() {
        let mut b = UdaBuilder::new();
        b.push(c(0), 0.2).unwrap();
        b.push(c(1), 0.2).unwrap();
        let u = b.finish_normalized().unwrap();
        assert!((u.mass() - 1.0).abs() < 1e-6);
        assert!((u.prob_of(c(0)) - 0.5).abs() < 1e-6);
    }
}
