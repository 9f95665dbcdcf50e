//! Data model for *uncertain categorical data*.
//!
//! This crate implements the data model of Singh et al., *Indexing Uncertain
//! Categorical Data* (ICDE 2007): an **uncertain discrete attribute** (UDA)
//! is a probability distribution over a categorical domain
//! `D = {d1, ..., dN}`. A tuple's attribute value is not a single category
//! but a (typically sparse) probability vector.
//!
//! The crate provides:
//!
//! * [`Domain`] — an interned categorical domain with stable [`CatId`]s.
//! * [`Uda`] — a sparse probability vector over a domain, plus
//!   [`UdaBuilder`] for incremental construction and validation.
//! * Equality semantics ([`equality`]): `Pr(u = d)` and
//!   `Pr(u = v) = Σ u.p_i · v.p_i` under independence.
//! * Distribution divergences ([`distance`]): L1, L2, KL and the
//!   symmetrized variants used for clustering inside the PDR-tree.
//! * Query definitions ([`query`]): PEQ, PETQ, top-k, DSTQ and friends,
//!   shared by every index implementation.
//! * A compact binary codec ([`codec`]) used by the storage layer to put
//!   UDAs on 8 KB pages.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod distance;
pub mod domain;
pub mod equality;
pub mod error;
pub mod ordered;
pub mod query;
pub mod topk;
pub mod uda;

pub use distance::Divergence;
pub use domain::{CatId, Domain};
pub use error::{Error, Result};
pub use query::{DsTopKQuery, DstQuery, EqQuery, TopKQuery};
pub use uda::{Uda, UdaBuilder};

/// A tuple identifier. Tuples live in a heap file; the id is assigned by the
/// store and is stable for the lifetime of the tuple.
pub type TupleId = u64;

/// Probability type used on disk pages. Computation accumulates in `f64`.
pub type Prob = f32;
