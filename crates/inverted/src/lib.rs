//! Probabilistic inverted index (paper §3.1).
//!
//! The structure keeps, for every category `d ∈ D`, a posting list
//! `d.list = {(tid, p) | Pr(tid = d) = p > 0}` sorted by **descending**
//! probability. The paper organizes each list as a B-tree; here a list
//! is compressed blocks (bit-packed tids + lossless probabilities) under
//! an in-memory directory, whose quantized-up per-block maxima let every
//! strategy skip whole blocks that cannot meet the live bound
//! (WAND-style block-max pruning). A heap-file tuple store supports the
//! random accesses that candidate verification performs. Files in the
//! layouts this replaced — raw B+tree lists (`UIV1`) and varint blocks —
//! are refused by the readers and converted by [`upgrade`].
//!
//! Four search strategies answer PETQ (plus a no-random-access variant):
//!
//! * [`Strategy::Brute`] — `inv-index-search`: read every query list fully
//!   and aggregate; exact, no random access, but reads entire lists.
//! * [`Strategy::HighestProbFirst`] — frontier of cursors, always advancing
//!   the list with the most promising head; stops by Lemma 1 when
//!   `Σ_j q.p_j · p'_j < τ`; encountered candidates are verified by random
//!   access.
//! * [`Strategy::RowPruning`] — only read lists whose query probability
//!   reaches τ (a qualifying tuple must share one such item).
//! * [`Strategy::ColumnPruning`] — read each query list only down to
//!   probability τ (a qualifying tuple must have one such entry).
//! * [`Strategy::Nra`] — rank-join with per-candidate upper/lower bounds
//!   ("lack"), deferring random access to a small undecided remainder.
//!
//! Highest-prob-first, NRA and the top-k drain are one frontier loop under
//! three policies, and row and column pruning one pruned scan (DESIGN.md
//! §6j).
//!
//! [`Strategy::Auto`], the default, runs neither the scan nor a verifying
//! plan: PETQ and top-k under `Auto` run one block-granular threshold
//! executor — Lemma 1 over the directory's block maxima (θ = τ for a
//! PETQ, the k-th best partial sum for a top-k), then every tuple it met
//! pruned by an upper bound or completed from list suffixes, with no
//! random access. The five fixed strategies are kept for the paper's
//! figures. The I/O model that ranks them by page reads ([`CostStats`],
//! zero-I/O statistics over the block directories) is kept for the
//! benchmark's two planning probes and the `UIV2` statistics section;
//! nothing prints it and no query consults it. Every plan that sums per
//! tuple (the scan and PEQ, the threshold executor, DSTQ's distances)
//! keeps its sums in one tid-keyed accumulator (the `acc` module): a
//! per-thread flat array over the index's id span where the index's ids
//! are dense, a hash map where they are not.
//!
//! Every query method takes `(pool, query…)` and adds its execution
//! counters (lists/postings scanned, Lemma 1 stops, the candidate
//! pipeline) to the pool's ledger: run it, then read
//! [`uncat_storage::BufferPool::metrics`] — see `docs/METRICS.md` for
//! the counting conventions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acc;
mod block;
mod cost;
mod dstq;
mod index;
mod legacy;
mod persist;
mod postings;
mod search;
mod tid;
mod topk;

pub use block::{
    decode_block, dequantize, encode_block, quantize_up, visit_block, BLOCK_SPLIT, BLOCK_TARGET,
    PROB_SCALE,
};
pub use cost::{CatCostStats, CostPrediction, CostStats, COST_BUCKETS, ENTRIES_PER_PAGE};
pub use index::{IndexStats, InvertedIndex};
pub use legacy::upgrade;
pub use search::Strategy;

/// Cases per property in this crate's unit tests: `default`, or
/// `PROPTEST_CASES` when set (the nightly job runs them at 256).
#[cfg(test)]
pub(crate) fn proptest_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
