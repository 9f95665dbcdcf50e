//! Probabilistic Distribution R-tree (paper §3.2).
//!
//! Each UDA is a point in `R^N`; the PDR-tree clusters distributionally
//! similar UDAs into pages. A node's **MBR boundary** is the point-wise
//! maximum probability vector over its subtree. Pruning relies on Lemma 2:
//! if `⟨c.v, q⟩ < τ` then no UDA below `c` can satisfy `PETQ(q, τ)`.
//!
//! Knobs reproduced from the paper's evaluation:
//!
//! * [`config::PdrConfig::divergence`] — the clustering measure (L1, L2, or
//!   KL; Figure 4's ablation) used by insertion tie-breaking and splits.
//! * [`config::SplitStrategy`] — top-down (two farthest seeds) versus
//!   bottom-up (agglomerative merge), both with the ≤ 3/4 balance
//!   constraint (Figure 10's ablation).
//! * [`config::Compression`] — lossy boundary compression: *discretized
//!   over-estimation* (round each probability up to a multiple of `1/2^b`)
//!   and the *set-signature* domain reduction (`f : D → C`, boundary entry
//!   is the max over the preimage). Both over-estimate, so pruning remains
//!   sound.
//!
//! Every query method takes `(pool, query…)` and adds its execution
//! counters (nodes visited, children pruned by Lemma 2, leaf entries
//! examined) to the pool's ledger: run it, then read
//! [`uncat_storage::BufferPool::metrics`] — see `docs/METRICS.md` for
//! the counting conventions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boundary;
mod bulk;
pub mod config;
mod dstq;
mod node;
mod persist;
#[cfg(test)]
mod reference;
mod search;
mod split;
mod traverse;
mod tree;

pub use boundary::Boundary;
pub use config::{Compression, PdrConfig, SplitStrategy};
pub use tree::{PdrTree, TreeStats};
