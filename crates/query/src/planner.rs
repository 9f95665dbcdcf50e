//! Cost-based backend-and-strategy ranking (DESIGN.md §6h).
//!
//! The paper's I/O model one level up, *across* execution backends:
//! given whatever statistics are available (inverted cost statistics,
//! PDR-tree header statistics, a buffer-residency sample), a
//! [`Planner`] predicts counters for each candidate backend and ranks a
//! [`Plan`] first per query kind. Like the inverted index's own
//! [`CostStats`] it is diagnostic — `uncat explain` and the figures read
//! it, no query is routed by it, and [`Strategy::Auto`] runs the
//! block-granular threshold executor whatever it says.
//!
//! Everything here is zero-I/O. A planner samples its statistics when
//! it is made ([`Planner::for_inverted`] clones
//! [`InvertedIndex::cost_stats`], which every mutation drops and the
//! next reader recollects), so it describes the index as of that call.
//!
//! The non-PETQ predictors are deliberately crude: monotone in the
//! obvious query parameter (`k`, `τ_d`), pinned to the same
//! [`CostPrediction`] vocabulary, and documented as order-of-magnitude.
//! The planner-vs-oracle harness (`tests/planner.rs`) holds the PETQ
//! path to a pinned factor of the per-query best; the others only have
//! to rank backends sensibly.

use uncat_core::query::{DstQuery, EqQuery, TopKQuery};
use uncat_inverted::{CostPrediction, CostStats, InvertedIndex, Strategy, ENTRIES_PER_PAGE};
use uncat_pdrtree::{PdrCostStats, PdrTree};
use uncat_storage::{PageId, SharedBufferPool};

/// The statistics a [`Planner`] consults. All fields are point-in-time
/// samples; none require I/O to collect.
#[derive(Debug, Clone, Default)]
pub struct IndexStats {
    /// Indexed tuples (from whichever backend was sampled).
    pub tuples: u64,
    /// Pages a full scan of the tuple store would read.
    pub heap_pages: u64,
    /// Inverted-index cost statistics, when that backend is available.
    pub inverted: Option<CostStats>,
    /// PDR-tree header statistics, when that backend is available.
    pub pdr: Option<PdrCostStats>,
    /// Sampled fraction of the index's pages resident in the shared
    /// buffer pool, in `[0, 1]`. Scales down predicted physical reads:
    /// a warm pool makes every plan cheaper, so the discount is applied
    /// uniformly rather than per backend.
    pub residency: f64,
}

/// Which backend a [`Plan`] executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedBackend {
    /// The inverted index, with the fixed strategy its I/O model ranks
    /// first (never [`Strategy::Auto`] itself).
    Inverted(Strategy),
    /// The PDR-tree.
    PdrTree,
    /// The full-scan baseline.
    Scan,
}

impl PlannedBackend {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PlannedBackend::Inverted(_) => "inverted",
            PlannedBackend::PdrTree => "pdr-tree",
            PlannedBackend::Scan => "scan",
        }
    }
}

/// A planning decision: the chosen backend plus the counter prediction
/// that justified it.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Where to execute.
    pub backend: PlannedBackend,
    /// The predicted counters for that choice.
    pub prediction: CostPrediction,
}

/// A cost-based planner over one or more execution backends.
pub struct Planner {
    stats: IndexStats,
}

impl Planner {
    /// Plan from explicit statistics (deserialized, synthetic, or
    /// assembled by hand in tests).
    pub fn from_stats(stats: IndexStats) -> Planner {
        Planner { stats }
    }

    /// Plan over an inverted index, sampling its cost statistics as of
    /// this call.
    pub fn for_inverted(idx: &InvertedIndex) -> Planner {
        let cost = idx.cost_stats().clone();
        Planner {
            stats: IndexStats {
                tuples: cost.tuples,
                heap_pages: cost.heap_pages,
                inverted: Some(cost),
                pdr: None,
                residency: 0.0,
            },
        }
    }

    /// Plan over a PDR-tree, sampling its header statistics. The tree
    /// stores tuples in its leaves, so the "heap" a scan would read is
    /// the tree's own page estimate.
    pub fn for_pdr(tree: &PdrTree) -> Planner {
        let cost = tree.cost_stats();
        Planner {
            stats: IndexStats {
                tuples: cost.entries,
                heap_pages: cost.nodes_est,
                inverted: None,
                pdr: Some(cost),
                residency: 0.0,
            },
        }
    }

    /// Plan over both paper indexes at once.
    pub fn for_both(idx: &InvertedIndex, tree: &PdrTree) -> Planner {
        let mut p = Planner::for_inverted(idx);
        p.stats.pdr = Some(tree.cost_stats());
        p
    }

    /// Sample how much of the index is already resident in a shared
    /// pool, probing every `stride`-th of `pages` (see
    /// [`SharedBufferPool::residency_fraction`]). Callers typically pass
    /// [`InvertedIndex::page_ids`].
    pub fn observe_residency(&mut self, pool: &SharedBufferPool, pages: &[PageId], stride: usize) {
        self.stats.residency = pool.residency_fraction(pages, stride);
    }

    /// The statistics backing this planner.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Discount a prediction's physical reads by the sampled residency:
    /// resident pages cost a hit, not a read.
    fn discount(&self, mut p: CostPrediction) -> CostPrediction {
        let keep = (1.0 - self.stats.residency.clamp(0.0, 1.0)).max(0.0);
        p.physical_reads = (p.physical_reads as f64 * keep).ceil() as u64;
        p
    }

    /// Full-scan baseline prediction: every heap page read, every tuple
    /// scored in place (no random verification accesses, so the whole
    /// cost is the sequential read).
    fn predict_scan(&self) -> CostPrediction {
        CostPrediction {
            postings_scanned: 0,
            blocks_decoded: 0,
            candidates_verified: 0,
            physical_reads: self.stats.heap_pages,
        }
    }

    /// PDR-tree prediction from a touched-leaf fraction: one descent
    /// (`depth` reads) plus the visited share of the leaves. The tree
    /// answers from its leaves, so no verification reads are added.
    fn predict_pdr(&self, pdr: &PdrCostStats, leaf_frac: f64) -> CostPrediction {
        let leaves = (pdr.leaves_est as f64 * leaf_frac.clamp(0.0, 1.0)).ceil() as u64;
        CostPrediction {
            postings_scanned: 0,
            blocks_decoded: 0,
            candidates_verified: 0,
            physical_reads: u64::from(pdr.depth) + leaves.max(1),
        }
    }

    /// Fold a candidate into the running best (strict `<`, so earlier
    /// candidates win ties — the caller lists backends in preference
    /// order).
    fn better(best: &mut Plan, backend: PlannedBackend, prediction: CostPrediction) {
        if prediction.cost() < best.prediction.cost() {
            *best = Plan {
                backend,
                prediction,
            };
        }
    }

    /// Plan a PETQ: the inverted index's own strategy pick, the
    /// PDR-tree (touched leaves shrink as τ grows — a higher threshold
    /// prunes more subtrees), and the scan baseline.
    pub fn plan_petq(&self, query: &EqQuery) -> Plan {
        let mut best = Plan {
            backend: PlannedBackend::Scan,
            prediction: self.discount(self.predict_scan()),
        };
        if let Some(pdr) = &self.stats.pdr {
            let frac = (1.0 - query.tau).clamp(0.05, 1.0);
            Self::better(
                &mut best,
                PlannedBackend::PdrTree,
                self.discount(self.predict_pdr(pdr, frac)),
            );
        }
        if let Some(inv) = &self.stats.inverted {
            let (strategy, pred) = inv.plan_petq(query);
            Self::better(
                &mut best,
                PlannedBackend::Inverted(strategy),
                self.discount(pred),
            );
        }
        best
    }

    /// Plan a PEQ-top-k. Crude inverted model: the dynamic threshold
    /// settles after a drain proportional to `k`, so each query list
    /// contributes at most `8k` postings; at most `8k` candidates are
    /// verified, batched per heap page.
    pub fn plan_top_k(&self, query: &TopKQuery) -> Plan {
        let mut best = Plan {
            backend: PlannedBackend::Scan,
            prediction: self.discount(self.predict_scan()),
        };
        let k = query.k as u64;
        if let Some(pdr) = &self.stats.pdr {
            // Roughly the leaves holding the k winners, with a 4×
            // expansion for the frontier the search keeps open.
            let frac = (4.0 * k as f64 / pdr.entries.max(1) as f64).clamp(0.05, 1.0);
            Self::better(
                &mut best,
                PlannedBackend::PdrTree,
                self.discount(self.predict_pdr(pdr, frac)),
            );
        }
        if let Some(inv) = &self.stats.inverted {
            let drain_cap = 8 * k.max(1);
            let postings: u64 = query
                .q
                .iter()
                .filter_map(|(cat, _)| inv.cats.get(&cat))
                .map(|c| c.len.min(drain_cap))
                .sum();
            let verified = drain_cap.min(inv.tuples);
            let pred = CostPrediction {
                postings_scanned: postings,
                blocks_decoded: 0,
                candidates_verified: verified,
                physical_reads: postings.div_ceil(ENTRIES_PER_PAGE) + verified.min(inv.heap_pages),
            };
            Self::better(
                &mut best,
                PlannedBackend::Inverted(Strategy::Auto),
                self.discount(pred),
            );
        }
        best
    }

    /// Plan a DSTQ. The PDR-tree is this query's home turf: touched
    /// leaves grow with the divergence threshold (`τ_d / (τ_d + 1)`, a
    /// monotone map of `[0, ∞)` onto `[0, 1)`). The inverted model is
    /// brute-like: the query's support lists are scanned end to end and
    /// the collected candidates verified.
    pub fn plan_dstq(&self, query: &DstQuery) -> Plan {
        let mut best = Plan {
            backend: PlannedBackend::Scan,
            prediction: self.discount(self.predict_scan()),
        };
        if let Some(pdr) = &self.stats.pdr {
            let t = query.tau_d.max(0.0);
            let frac = (t / (t + 1.0)).clamp(0.05, 1.0);
            Self::better(
                &mut best,
                PlannedBackend::PdrTree,
                self.discount(self.predict_pdr(pdr, frac)),
            );
        }
        if let Some(inv) = &self.stats.inverted {
            let postings: u64 = query
                .q
                .iter()
                .filter_map(|(cat, _)| inv.cats.get(&cat))
                .map(|c| c.len)
                .sum();
            let verified = postings.min(inv.tuples);
            let pred = CostPrediction {
                postings_scanned: postings,
                blocks_decoded: 0,
                candidates_verified: verified,
                physical_reads: postings.div_ceil(ENTRIES_PER_PAGE) + verified.min(inv.heap_pages),
            };
            Self::better(
                &mut best,
                PlannedBackend::Inverted(Strategy::Auto),
                self.discount(pred),
            );
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncat_core::{CatId, Uda};

    fn synthetic_inverted(tuples: u64, heap_pages: u64) -> CostStats {
        let mut s = CostStats {
            tuples,
            heap_pages,
            block_pages: heap_pages,
            ..CostStats::default()
        };
        for cat in 0..4u32 {
            let mut c = uncat_inverted::CatCostStats {
                len: tuples / 4,
                blocks: (tuples / 64).max(1) as u32,
                max_q: uncat_inverted::PROB_SCALE as u16,
                block_hist: [0; uncat_inverted::COST_BUCKETS],
                entry_hist: [0; uncat_inverted::COST_BUCKETS],
            };
            let per = c.len / uncat_inverted::COST_BUCKETS as u64;
            c.entry_hist = [per; uncat_inverted::COST_BUCKETS];
            c.block_hist = [(c.blocks / 16).max(1); uncat_inverted::COST_BUCKETS];
            s.cats.insert(CatId(cat), c);
        }
        s
    }

    fn q(tau: f64) -> EqQuery {
        EqQuery::new(Uda::certain(CatId(0)), tau)
    }

    #[test]
    fn petq_prefers_an_index_over_the_scan() {
        let planner = Planner::from_stats(IndexStats {
            tuples: 100_000,
            heap_pages: 5_000,
            inverted: Some(synthetic_inverted(100_000, 5_000)),
            pdr: None,
            residency: 0.0,
        });
        let plan = planner.plan_petq(&q(0.5));
        assert!(matches!(plan.backend, PlannedBackend::Inverted(_)));
        assert!(plan.prediction.cost() < planner.discount(planner.predict_scan()).cost());
    }

    #[test]
    fn scan_wins_when_it_is_genuinely_cheaper() {
        // A tiny heap under a huge index: one page of tuples, but the
        // (synthetic) statistics claim enormous lists.
        let mut inv = synthetic_inverted(1_000_000, 1);
        inv.heap_pages = 1;
        let planner = Planner::from_stats(IndexStats {
            tuples: 1_000_000,
            heap_pages: 1,
            inverted: Some(inv),
            pdr: None,
            residency: 0.0,
        });
        let plan = planner.plan_petq(&q(0.01));
        assert_eq!(plan.backend, PlannedBackend::Scan);
    }

    #[test]
    fn residency_discounts_reads_monotonically() {
        let stats = IndexStats {
            tuples: 10_000,
            heap_pages: 500,
            inverted: Some(synthetic_inverted(10_000, 500)),
            pdr: None,
            residency: 0.0,
        };
        let cold = Planner::from_stats(stats.clone()).plan_petq(&q(0.3));
        let warm = Planner::from_stats(IndexStats {
            residency: 0.9,
            ..stats
        })
        .plan_petq(&q(0.3));
        assert!(warm.prediction.physical_reads <= cold.prediction.physical_reads);
        assert!(warm.prediction.cost() <= cold.prediction.cost());
    }

    #[test]
    fn dstq_leaf_fraction_is_monotone_in_the_threshold() {
        let pdr = PdrCostStats {
            entries: 50_000,
            depth: 3,
            leaves_est: 1_600,
            nodes_est: 1_830,
        };
        let planner = Planner::from_stats(IndexStats {
            tuples: 50_000,
            heap_pages: 1_830,
            inverted: None,
            pdr: Some(pdr),
            residency: 0.0,
        });
        let mk = |t| DstQuery::new(Uda::certain(CatId(0)), t, Default::default());
        let tight = planner.plan_dstq(&mk(0.1));
        let loose = planner.plan_dstq(&mk(5.0));
        assert_eq!(tight.backend, PlannedBackend::PdrTree);
        assert!(tight.prediction.physical_reads <= loose.prediction.physical_reads);
    }
}
