//! The paper's PETQ ranking behind a planner handle (DESIGN.md §6h).
//!
//! A [`Planner`] holds one inverted index's [`CostStats`], sampled when
//! it is made, and ranks the five fixed strategies by predicted page
//! reads, as the paper does (§3.1). It routes nothing:
//! [`Strategy::Auto`] runs the block-granular threshold executor
//! whatever it says. It exists for the benchmark's frozen
//! `query.planner.plan_petq_ns` probe.
//!
//! Everything here is zero-I/O. [`Planner::for_inverted`] clones
//! [`InvertedIndex::cost_stats`], which every mutation drops and the
//! next reader recollects, so a planner describes the index as of that
//! call.

use uncat_core::query::EqQuery;
use uncat_inverted::{CostPrediction, CostStats, InvertedIndex, Strategy};

/// The inverted index's I/O model, sampled once.
pub struct Planner {
    stats: CostStats,
}

impl Planner {
    /// Rank over an inverted index, sampling its cost statistics as of
    /// this call.
    pub fn for_inverted(idx: &InvertedIndex) -> Planner {
        Planner {
            stats: idx.cost_stats().clone(),
        }
    }

    /// The fixed strategy the I/O model ranks first for this PETQ, with
    /// its prediction ([`CostStats::plan_petq`]). Kept for the
    /// benchmark's `query.planner.plan_petq_ns` probe; no query runs it.
    pub fn plan_petq(&self, query: &EqQuery) -> (Strategy, CostPrediction) {
        self.stats.plan_petq(query)
    }
}
