//! Categorical domains.
//!
//! A [`Domain`] is the finite set `D = {d1, ..., dN}` a UDA distributes
//! probability over. Categories are interned: the domain maps human-readable
//! labels to dense [`CatId`]s, and indexes only ever deal in ids.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};

/// A category identifier: a dense index into a [`Domain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CatId(pub u32);

impl CatId {
    /// The id as a `usize`, for indexing dense vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u32> for CatId {
    fn from(v: u32) -> Self {
        CatId(v)
    }
}

/// An interned categorical domain.
///
/// Domains are cheap to clone (`Arc` internally) and immutable once built;
/// every UDA in a relation shares one domain. An *anonymous* domain
/// (`Domain::anonymous(n)`) has no labels and is used by synthetic data
/// generators where only the cardinality matters.
#[derive(Clone)]
pub struct Domain {
    inner: Arc<DomainInner>,
}

struct DomainInner {
    labels: Vec<String>,
    by_label: HashMap<String, CatId>,
    /// Cardinality; equals `labels.len()` for labeled domains but may exceed
    /// it for anonymous domains.
    size: u32,
}

impl Domain {
    /// Build a labeled domain from a list of distinct category labels.
    ///
    /// Labels are assigned ids in order: the first label becomes `CatId(0)`.
    pub fn from_labels<I, S>(labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        let by_label = labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.clone(), CatId(i as u32)))
            .collect();
        let size = labels.len() as u32;
        Domain {
            inner: Arc::new(DomainInner {
                labels,
                by_label,
                size,
            }),
        }
    }

    /// Build an anonymous domain of the given cardinality.
    pub fn anonymous(size: u32) -> Self {
        Domain {
            inner: Arc::new(DomainInner {
                labels: Vec::new(),
                by_label: HashMap::new(),
                size,
            }),
        }
    }

    /// Domain cardinality `N = |D|`.
    #[inline]
    pub fn size(&self) -> u32 {
        self.inner.size
    }

    /// Whether `cat` is a valid id for this domain.
    #[inline]
    pub fn contains(&self, cat: CatId) -> bool {
        cat.0 < self.inner.size
    }

    /// Resolve a label to its id.
    pub fn id_of(&self, label: &str) -> Result<CatId> {
        self.inner
            .by_label
            .get(label)
            .copied()
            .ok_or_else(|| Error::UnknownLabel(label.to_owned()))
    }

    /// The label of a category, if this domain is labeled.
    pub fn label_of(&self, cat: CatId) -> Option<&str> {
        self.inner.labels.get(cat.index()).map(String::as_str)
    }

    /// Iterate over all category ids of the domain.
    pub fn ids(&self) -> impl Iterator<Item = CatId> {
        (0..self.inner.size).map(CatId)
    }

    /// The labels in id order (empty for anonymous domains).
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.inner.labels.iter().map(String::as_str)
    }

    /// Whether the domain carries labels.
    pub fn is_labeled(&self) -> bool {
        !self.inner.labels.is_empty()
    }
}

impl fmt::Debug for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.inner.labels.is_empty() {
            write!(f, "Domain(anonymous, N={})", self.inner.size)
        } else {
            write!(
                f,
                "Domain({:?}...)",
                &self.inner.labels[..self.inner.labels.len().min(4)]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_domain_roundtrip() {
        let d = Domain::from_labels(["Brake", "Tires", "Trans"]);
        assert_eq!(d.size(), 3);
        assert_eq!(d.id_of("Tires").unwrap(), CatId(1));
        assert_eq!(d.label_of(CatId(2)), Some("Trans"));
        assert!(d.contains(CatId(2)));
        assert!(!d.contains(CatId(3)));
    }

    #[test]
    fn unknown_label_errors() {
        let d = Domain::from_labels(["a"]);
        assert!(matches!(d.id_of("b"), Err(Error::UnknownLabel(_))));
    }

    #[test]
    fn anonymous_domain_has_ids_but_no_labels() {
        let d = Domain::anonymous(10);
        assert_eq!(d.size(), 10);
        assert!(d.contains(CatId(9)));
        assert!(!d.contains(CatId(10)));
        assert_eq!(d.label_of(CatId(0)), None);
        assert_eq!(d.ids().count(), 10);
    }
}
