//! Query-level execution counters.
//!
//! [`QueryMetrics`] is the observability contract shared by every search
//! path in the workspace: the inverted-index strategies, the PDR-tree
//! traversals, the scan baseline, and the join operators all populate the
//! same struct, so two executions are directly comparable no matter which
//! algorithm answered them. The counters mirror the quantities the paper's
//! evaluation is framed in — disk I/O, candidates examined, posting-list
//! depth reached before early termination — and are documented field by
//! field (with the lemma and figure each one corresponds to) in
//! `docs/METRICS.md`.
//!
//! Counting is pure in-memory arithmetic on `u64`s; populating metrics
//! adds no I/O and no allocation to a query, which is why every execution
//! collects them unconditionally.

use std::fmt;

use crate::stats::IoStats;

/// Counters collected while executing one query (or, after
/// [`QueryMetrics::merge`], a batch of queries).
///
/// # Candidate bookkeeping invariant
///
/// Every candidate a strategy generates is accounted for exactly once:
///
/// ```text
/// candidates_generated =
///     candidates_pruned + candidates_verified + candidates_settled
/// ```
///
/// [`candidate_invariant_holds`](QueryMetrics::candidate_invariant_holds)
/// checks it; the unit tests of every search path assert it.
///
/// # Which fields a path populates
///
/// | path                         | fields                                        |
/// |------------------------------|-----------------------------------------------|
/// | inverted, list scans         | `lists_*`, `postings_scanned`, `candidates_*` |
/// | inverted, frontier searches  | + `frontier_pops`, `lemma1_stops`             |
/// | PDR-tree traversals          | `nodes_*`, `leaf_entries_examined`            |
/// | scan baseline / heap scans   | `heap_tuples_scanned`                         |
/// | everything                   | `io`                                          |
///
/// Fields a path does not touch stay zero, so merged batches remain
/// interpretable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryMetrics {
    /// Posting lists the strategy opened (started reading).
    pub lists_opened: u64,
    /// Posting lists skipped entirely — row pruning's `q.p < τ` test.
    pub lists_pruned: u64,
    /// Posting entries read from lists, sequentially. The paper's
    /// "entries examined" axis; column pruning's saving shows up here.
    /// Only entries *materialized* from decoded blocks count, so the
    /// block-max savings show up here too.
    pub postings_scanned: u64,
    /// Posting blocks decoded into entries. Each decode materializes the
    /// whole block, so `blocks_decoded × block size` bounds the decode
    /// work.
    pub blocks_decoded: u64,
    /// Posting blocks skipped without decoding because the quantized
    /// block maximum could not meet the live bound (τ, θ, or the Lemma 1
    /// frontier sum) — WAND-style block-max pruning. For every opened
    /// block list, `blocks_decoded + blocks_skipped` equals the list's
    /// block count.
    pub blocks_skipped: u64,
    /// Most-promising-head-first cursor advances (highest-prob-first,
    /// NRA, and top-k drains).
    pub frontier_pops: u64,
    /// Times Lemma 1 (or its dynamic-threshold top-k variant) terminated
    /// a drain before the lists were exhausted. When this is non-zero,
    /// `frontier_pops` is the early-termination depth the paper plots.
    pub lemma1_stops: u64,
    /// Distinct tuples that entered the candidate pipeline.
    pub candidates_generated: u64,
    /// Candidates discarded by an upper bound — no random access spent.
    pub candidates_pruned: u64,
    /// Candidates resolved by a random access to the tuple store.
    pub candidates_verified: u64,
    /// Candidates decided exactly from accumulated list contributions,
    /// with no random access (brute aggregation; NRA's converged bounds —
    /// the "deferred random accesses" the strategy exists to avoid).
    pub candidates_settled: u64,
    /// PDR-tree nodes read during traversal (internal + leaf).
    pub nodes_visited: u64,
    /// PDR-tree children not descended into because the boundary bound
    /// (Lemma 2 for PETQ, the divergence lower bound for DSTQ) ruled the
    /// subtree out.
    pub nodes_pruned: u64,
    /// Leaf entries whose exact score was computed during a PDR
    /// traversal.
    pub leaf_entries_examined: u64,
    /// Tuples read by a full heap scan (the scan baseline, an inverted
    /// index's KL DSTQ, or the one scan that fills its norm column).
    pub heap_tuples_scanned: u64,
    /// Write-ahead-log records appended by the durable index serving this
    /// session (insert/update/delete plus epoch markers).
    pub wal_appends: u64,
    /// Device fsyncs the write-ahead log issued (group commit batches
    /// plus record-free syncs such as log resets).
    pub wal_fsyncs: u64,
    /// WAL records re-applied during the recovery that opened this
    /// durable index (0 after a clean shutdown or checkpoint).
    pub replayed_records: u64,
    /// Pinned 0: it counted the times `Strategy::Auto` abandoned a
    /// planned PETQ strategy mid-query, and `Auto` now runs the
    /// block-granular threshold executor, which plans nothing and has
    /// nothing to abandon. The field stays because the frozen benchmark
    /// adapter reads it (`inverted.plan_fallbacks_per_kop`); it goes
    /// when that adapter is re-pointed.
    pub plan_fallbacks: u64,
    /// Times this query (or a query in this batch) was held in the
    /// admission queue because its tenant was at its frame quota, then
    /// admitted once capacity freed up (multi-tenant service only;
    /// standalone executions leave this zero).
    pub admission_waits: u64,
    /// Queries turned away outright by admission control — the tenant
    /// was at quota *and* its wait queue was full. A rejected query has
    /// no outcome of its own, so this counter only appears in tenant- or
    /// service-level aggregates.
    pub admission_rejects: u64,
    /// Buffer-pool I/O charged to this query.
    pub io: IoStats,
}

impl QueryMetrics {
    /// A zeroed scratch value for callers that do not keep metrics.
    pub fn new() -> QueryMetrics {
        QueryMetrics::default()
    }

    /// Whether the candidate bookkeeping invariant holds (see the type
    /// docs). Trivially true for paths that generate no candidates.
    pub fn candidate_invariant_holds(&self) -> bool {
        self.candidates_generated
            == self.candidates_pruned + self.candidates_verified + self.candidates_settled
    }

    /// Accumulate another query's counters into `self` (field-wise sum).
    /// This is the batch-aggregation operation: summing per-query metrics
    /// is exact because every counter is additive.
    pub fn merge(&mut self, other: &QueryMetrics) {
        *self = self.zip(other, |a, b| a + b);
    }

    /// Difference `self - earlier`, field by field, for interval
    /// measurements on one counter stream (a pool's
    /// [`metrics`](crate::BufferPool::metrics) before and after a join).
    /// Saturates at zero like [`IoStats::since`], under the same
    /// ordering expectations.
    pub fn since(&self, earlier: &QueryMetrics) -> QueryMetrics {
        self.zip(earlier, u64::saturating_sub)
    }

    /// `f` applied to every pair of corresponding counters — the one
    /// place [`merge`](QueryMetrics::merge) and
    /// [`since`](QueryMetrics::since) name the fields.
    fn zip(&self, other: &QueryMetrics, f: impl Fn(u64, u64) -> u64) -> QueryMetrics {
        QueryMetrics {
            lists_opened: f(self.lists_opened, other.lists_opened),
            lists_pruned: f(self.lists_pruned, other.lists_pruned),
            postings_scanned: f(self.postings_scanned, other.postings_scanned),
            blocks_decoded: f(self.blocks_decoded, other.blocks_decoded),
            blocks_skipped: f(self.blocks_skipped, other.blocks_skipped),
            frontier_pops: f(self.frontier_pops, other.frontier_pops),
            lemma1_stops: f(self.lemma1_stops, other.lemma1_stops),
            candidates_generated: f(self.candidates_generated, other.candidates_generated),
            candidates_pruned: f(self.candidates_pruned, other.candidates_pruned),
            candidates_verified: f(self.candidates_verified, other.candidates_verified),
            candidates_settled: f(self.candidates_settled, other.candidates_settled),
            nodes_visited: f(self.nodes_visited, other.nodes_visited),
            nodes_pruned: f(self.nodes_pruned, other.nodes_pruned),
            leaf_entries_examined: f(self.leaf_entries_examined, other.leaf_entries_examined),
            heap_tuples_scanned: f(self.heap_tuples_scanned, other.heap_tuples_scanned),
            wal_appends: f(self.wal_appends, other.wal_appends),
            wal_fsyncs: f(self.wal_fsyncs, other.wal_fsyncs),
            replayed_records: f(self.replayed_records, other.replayed_records),
            plan_fallbacks: f(self.plan_fallbacks, other.plan_fallbacks),
            admission_waits: f(self.admission_waits, other.admission_waits),
            admission_rejects: f(self.admission_rejects, other.admission_rejects),
            io: IoStats {
                hits: f(self.io.hits, other.io.hits),
                physical_reads: f(self.io.physical_reads, other.io.physical_reads),
                physical_writes: f(self.io.physical_writes, other.io.physical_writes),
                logical_reads: f(self.io.logical_reads, other.io.logical_reads),
            },
        }
    }

    /// Field-wise sum of an iterator of metrics.
    pub fn sum<'a>(metrics: impl IntoIterator<Item = &'a QueryMetrics>) -> QueryMetrics {
        let mut total = QueryMetrics::default();
        for m in metrics {
            total.merge(m);
        }
        total
    }

    /// The `(name, value)` pairs of every counter, in display order —
    /// the single source of truth for the CLI explain output and for
    /// documentation checks.
    pub fn fields(&self) -> [(&'static str, u64); 25] {
        [
            ("lists_opened", self.lists_opened),
            ("lists_pruned", self.lists_pruned),
            ("postings_scanned", self.postings_scanned),
            ("blocks_decoded", self.blocks_decoded),
            ("blocks_skipped", self.blocks_skipped),
            ("frontier_pops", self.frontier_pops),
            ("lemma1_stops", self.lemma1_stops),
            ("candidates_generated", self.candidates_generated),
            ("candidates_pruned", self.candidates_pruned),
            ("candidates_verified", self.candidates_verified),
            ("candidates_settled", self.candidates_settled),
            ("nodes_visited", self.nodes_visited),
            ("nodes_pruned", self.nodes_pruned),
            ("leaf_entries_examined", self.leaf_entries_examined),
            ("heap_tuples_scanned", self.heap_tuples_scanned),
            ("wal_appends", self.wal_appends),
            ("wal_fsyncs", self.wal_fsyncs),
            ("replayed_records", self.replayed_records),
            ("plan_fallbacks", self.plan_fallbacks),
            ("admission_waits", self.admission_waits),
            ("admission_rejects", self.admission_rejects),
            ("io.hits", self.io.hits),
            ("io.physical_reads", self.io.physical_reads),
            ("io.physical_writes", self.io.physical_writes),
            ("io.logical_reads", self.io.logical_reads),
        ]
    }
}

impl fmt::Display for QueryMetrics {
    /// One `name  value` line per counter, zero-valued counters included,
    /// so output is diffable across runs and strategies.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.fields() {
            writeln!(f, "  {name:<22} {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_fieldwise_sum() {
        let mut a = QueryMetrics {
            postings_scanned: 5,
            blocks_decoded: 2,
            frontier_pops: 2,
            candidates_generated: 3,
            candidates_verified: 3,
            ..QueryMetrics::default()
        };
        a.io.physical_reads = 7;
        let mut b = QueryMetrics {
            postings_scanned: 10,
            blocks_decoded: 1,
            blocks_skipped: 6,
            lemma1_stops: 1,
            candidates_generated: 4,
            candidates_pruned: 4,
            ..QueryMetrics::default()
        };
        b.io.physical_reads = 1;
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.postings_scanned, 15);
        assert_eq!(m.blocks_decoded, 3);
        assert_eq!(m.blocks_skipped, 6);
        assert_eq!(m.frontier_pops, 2);
        assert_eq!(m.lemma1_stops, 1);
        assert_eq!(m.candidates_generated, 7);
        assert_eq!(m.io.physical_reads, 8);
        assert!(m.candidate_invariant_holds());
        assert_eq!(QueryMetrics::sum([&a, &b]), m);
        assert_eq!(m.since(&b), a, "since undoes merge");
        assert_eq!(a.since(&m), QueryMetrics::default(), "saturates at zero");
    }

    #[test]
    fn invariant_detects_unaccounted_candidates() {
        let mut m = QueryMetrics::default();
        assert!(m.candidate_invariant_holds());
        m.candidates_generated = 2;
        m.candidates_verified = 1;
        assert!(!m.candidate_invariant_holds());
        m.candidates_settled = 1;
        assert!(m.candidate_invariant_holds());
    }

    #[test]
    fn display_lists_every_field() {
        let m = QueryMetrics::default();
        let text = format!("{m}");
        for (name, _) in m.fields() {
            assert!(text.contains(name), "display output missing {name}");
        }
    }
}
