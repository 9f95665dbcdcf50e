//! Cross-crate invariants of the query execution counters
//! (`uncat_storage::QueryMetrics`, documented in docs/METRICS.md).

use std::sync::Arc;

use uncat::core::query::{DstQuery, EqQuery, Match, TopKQuery};
use uncat::core::{CatId, Divergence, Domain, Uda};
use uncat::inverted::{InvertedIndex, Strategy};
use uncat::pdrtree::{PdrConfig, PdrTree};
use uncat::query::join::{index_join, JoinSpec};
use uncat::query::parallel::{batch_metrics, petq_batch_with};
use uncat::query::{run_query, BatchPools, InvertedBackend, ScanBaseline, UncertainIndex};
use uncat::service::{shard_of, QueryService, ServiceConfig, TenantConfig};
use uncat::storage::{
    BufferPool, Fault, FaultStore, InMemoryDisk, IoStats, QueryMetrics, SharedBufferPool,
    SharedStore, StorageError,
};

fn uda(pairs: &[(u32, f32)]) -> Uda {
    Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
}

/// A seeded dataset whose posting lists mix probabilities above and below
/// the query threshold, so column pruning has something to skip.
fn seeded_dataset(n: u64) -> (Domain, Vec<(u64, Uda)>) {
    let domain = Domain::anonymous(13);
    let data = (0..n)
        .map(|i| {
            let c = (i % 13) as u32;
            // Alternate dominant and faint memberships of category `c`.
            let p = if i % 3 == 0 { 0.8 } else { 0.2 };
            (i, uda(&[(c, p), ((c + 5) % 13, 1.0 - p)]))
        })
        .collect();
    (domain, data)
}

fn build_inverted(domain: &Domain, data: &[(u64, Uda)]) -> (InvertedIndex, SharedStore) {
    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store.clone(), 256);
    let idx =
        InvertedIndex::build(domain.clone(), &mut pool, data.iter().map(|(t, u)| (*t, u))).unwrap();
    pool.flush().unwrap();
    (idx, store)
}

#[test]
fn pruning_strategies_scan_fewer_postings_than_brute() {
    let (domain, data) = seeded_dataset(3000);
    let (idx, store) = build_inverted(&domain, &data);
    let query = EqQuery::new(uda(&[(4, 1.0)]), 0.5);

    let mut per_strategy = Vec::new();
    for strategy in Strategy::ALL {
        let mut pool = BufferPool::with_capacity(store.clone(), 100);
        let matches = idx.petq(&mut pool, &query, strategy).unwrap();
        let m = pool.metrics();
        assert!(!matches.is_empty(), "{strategy:?} found nothing");
        assert!(
            m.candidate_invariant_holds(),
            "{strategy:?}: generated {} != pruned {} + verified {} + settled {}",
            m.candidates_generated,
            m.candidates_pruned,
            m.candidates_verified,
            m.candidates_settled,
        );
        per_strategy.push((strategy, m, matches));
    }

    // All strategies agree on the answer (exactness oracle).
    for (strategy, _, matches) in &per_strategy[1..] {
        assert_eq!(
            matches.iter().map(|m| m.tid).collect::<Vec<_>>(),
            per_strategy[0].2.iter().map(|m| m.tid).collect::<Vec<_>>(),
            "{strategy:?} disagrees with brute force"
        );
    }

    let brute = &per_strategy[0].1;
    assert_eq!(per_strategy[0].0, Strategy::Brute);
    for (strategy, m, _) in &per_strategy {
        assert!(
            m.postings_scanned <= brute.postings_scanned,
            "{strategy:?} scanned {} > brute's {}",
            m.postings_scanned,
            brute.postings_scanned,
        );
    }
    // The dataset mixes 0.8 and 0.2 entries in every list, so scanning
    // down to τ = 0.5 must stop strictly before the list end.
    let col = per_strategy
        .iter()
        .find(|(s, _, _)| *s == Strategy::ColumnPruning)
        .map(|(_, m, _)| m)
        .unwrap();
    assert!(
        col.postings_scanned < brute.postings_scanned,
        "column pruning ({}) should scan strictly fewer postings than brute ({})",
        col.postings_scanned,
        brute.postings_scanned,
    );
}

#[test]
fn candidate_invariant_holds_for_topk_and_dstq() {
    let (domain, data) = seeded_dataset(2000);
    let (idx, store) = build_inverted(&domain, &data);

    let mut pool = BufferPool::with_capacity(store.clone(), 100);
    idx.top_k(&mut pool, &TopKQuery::new(uda(&[(2, 1.0)]), 8))
        .unwrap();
    let m = pool.metrics();
    assert!(m.candidate_invariant_holds());
    assert!(m.frontier_pops > 0, "top-k drains the frontier");

    pool.reset_stats();
    idx.dstq(
        &mut pool,
        &DstQuery::new(uda(&[(2, 0.9), (7, 0.1)]), 0.3, Divergence::L1),
    )
    .unwrap();
    let m = pool.metrics();
    assert!(m.candidate_invariant_holds());
    assert!(
        m.candidates_generated > 0 || m.heap_tuples_scanned > 0,
        "DSTQ used either the candidate path or the scan fallback"
    );
}

#[test]
fn pdr_tree_counts_visits_and_lemma2_pruning() {
    let (domain, data) = seeded_dataset(2000);
    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store.clone(), 256);
    let tree = PdrTree::build(
        domain,
        PdrConfig::default(),
        &mut pool,
        data.iter().map(|(t, u)| (*t, u)),
    )
    .unwrap();
    pool.flush().unwrap();
    drop(pool);

    // Selective query: Lemma 2 must cut some subtrees.
    let mut pool = BufferPool::with_capacity(store.clone(), 100);
    let matches = tree
        .petq(&mut pool, &EqQuery::new(uda(&[(4, 1.0)]), 0.5))
        .unwrap();
    let m = pool.metrics();
    assert!(!matches.is_empty());
    assert!(m.nodes_visited > 0);
    assert!(m.nodes_pruned > 0, "selective PETQ should prune subtrees");
    // Cold pool: every visited node is one physical page read.
    assert_eq!(m.nodes_visited, pool.stats().physical_reads, "{:?}", m);
}

#[test]
fn executor_outcome_carries_matching_io() {
    let (domain, data) = seeded_dataset(1500);
    let (idx, store) = build_inverted(&domain, &data);
    let backend = InvertedBackend::with_strategy(idx, Strategy::Nra);
    let outcomes: Vec<_> = (0..4u32)
        .map(|c| {
            let mut pool = BufferPool::with_capacity(store.clone(), 100);
            let query = EqQuery::new(uda(&[(c, 1.0)]), 0.4);
            run_query(&mut pool, None, |pool| backend.petq(pool, &query)).unwrap()
        })
        .collect();
    for o in &outcomes {
        assert_eq!(
            o.metrics.io.physical_reads,
            o.reads(),
            "metrics embed the outcome's own I/O"
        );
        assert!(o.metrics.candidate_invariant_holds());
    }
    let total = QueryMetrics::sum(outcomes.iter().map(|o| &o.metrics));
    assert_eq!(
        total.postings_scanned,
        outcomes
            .iter()
            .map(|o| o.metrics.postings_scanned)
            .sum::<u64>()
    );
}

#[test]
fn parallel_batch_metrics_equal_sequential_sum() {
    let (domain, data) = seeded_dataset(2000);
    let (idx, store) = build_inverted(&domain, &data);
    let backend = InvertedBackend::with_strategy(idx, Strategy::Nra);
    let queries: Vec<EqQuery> = (0..12)
        .map(|i| EqQuery::new(uda(&[((i % 13) as u32, 1.0)]), 0.35))
        .collect();

    let par = petq_batch_with(&backend, &store, &BatchPools::private(100), &queries, 4);
    let par_total = batch_metrics(&par);

    let mut seq_total = QueryMetrics::new();
    for q in &queries {
        let mut pool = BufferPool::with_capacity(store.clone(), 100);
        backend.petq(&mut pool, q).unwrap();
        seq_total.merge(&pool.metrics());
    }
    assert_eq!(
        par_total, seq_total,
        "parallel sum must equal sequential sum"
    );
}

/// Tiny xorshift generator for seeded query mixes — keeps the stress
/// tests free of an RNG dependency while staying fully reproducible.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A reproducible mix of thresholds and categories: repeated hot
/// categories (so the shared pool has something to cache) interleaved
/// with colder ones.
fn seeded_queries(seed: u64, n: usize) -> Vec<EqQuery> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            let cat = (xorshift(&mut s) % 13) as u32;
            let tau = 0.15 + (xorshift(&mut s) % 5) as f64 * 0.15;
            EqQuery::new(uda(&[(cat, 1.0)]), tau)
        })
        .collect()
}

/// Eight threads hammering one shared pool must be invisible in every
/// counter except physical reads (which the pool may only *save*): for
/// several seeds, matches, execution counters, and logical reads all
/// equal a sequential private-pool run, and `batch_metrics` sums exactly.
#[test]
fn shared_pool_stress_matches_sequential_across_seeds() {
    let (domain, data) = seeded_dataset(3000);
    let (idx, store) = build_inverted(&domain, &data);
    let backend = InvertedBackend::with_strategy(idx, Strategy::Nra);

    for seed in [3u64, 17, 99] {
        let queries = seeded_queries(seed, 32);
        let pools = BatchPools::shared(&store, 256, 8);
        let results = petq_batch_with(&backend, &store, &pools, &queries, 8);

        // `batch_metrics` is exactly the sum of the per-outcome metrics.
        let total = batch_metrics(&results);
        let manual = QueryMetrics::sum(results.iter().map(|r| &r.as_ref().unwrap().metrics));
        assert_eq!(total, manual, "seed {seed}: batch_metrics must sum exactly");

        let mut seq_total = QueryMetrics::new();
        for (q, r) in queries.iter().zip(&results) {
            let r = r.as_ref().expect("in-memory query");
            let mut pool = BufferPool::with_capacity(store.clone(), 100);
            let seq = backend.petq(&mut pool, q).unwrap();
            assert_eq!(
                r.matches.iter().map(|m| m.tid).collect::<Vec<_>>(),
                seq.iter().map(|m| m.tid).collect::<Vec<_>>(),
                "seed {seed}: pool flavor must not change results"
            );
            seq_total.merge(&pool.metrics());
        }

        // Identical work, identical counters — except the I/O block.
        let mut shared_counters = total;
        let mut seq_counters = seq_total;
        shared_counters.io = IoStats::default();
        seq_counters.io = IoStats::default();
        assert_eq!(
            shared_counters, seq_counters,
            "seed {seed}: sharing frames must not change execution"
        );
        assert_eq!(
            total.io.logical_reads, seq_total.io.logical_reads,
            "seed {seed}: same access pattern either way"
        );
        assert!(
            total.io.physical_reads <= seq_total.io.physical_reads,
            "seed {seed}: the shared pool may only save reads ({} vs {})",
            total.io.physical_reads,
            seq_total.io.physical_reads,
        );
    }
}

/// PR 1's failure-isolation contract survives sharing: an injected read
/// failure fails only the query that pinned the bad page. Every other
/// query in the 8-thread batch matches the clean run, and the same pool
/// answers the full batch correctly once the schedule is disarmed.
#[test]
fn shared_pool_fault_schedule_fails_only_pinning_queries() {
    let (domain, data) = seeded_dataset(3000);
    let faults = Arc::new(FaultStore::new(InMemoryDisk::shared(), 99));
    let store: SharedStore = faults.clone();
    let mut pool = BufferPool::with_capacity(store.clone(), 256);
    let idx = InvertedIndex::build(domain, &mut pool, data.iter().map(|(t, u)| (*t, u))).unwrap();
    pool.flush().unwrap();
    drop(pool);
    let backend = InvertedBackend::with_strategy(idx, Strategy::Nra);

    for seed in [5u64, 21, 77] {
        let queries = seeded_queries(seed, 24);
        let clean: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| {
                let mut pool = BufferPool::with_capacity(store.clone(), 100);
                let matches = backend.petq(&mut pool, q).unwrap();
                matches.iter().map(|m| m.tid).collect()
            })
            .collect();

        // One shared pool serves both the faulty batch and the retry.
        let pools = BatchPools::shared(&store, 256, 8);

        // Schedule three read failures among the batch's first cold
        // misses; which queries pin those reads depends on scheduling,
        // and must not matter.
        let base = faults.reads_so_far();
        for n in [1, 4, 9] {
            faults.arm(Fault::FailRead {
                after: base + n + seed % 3,
            });
        }
        let fired_before = faults.fired();
        let results = petq_batch_with(&backend, &store, &pools, &queries, 8);
        assert!(
            faults.fired() > fired_before,
            "seed {seed}: the fault schedule never fired"
        );
        let failed = results.iter().filter(|r| r.is_err()).count();
        assert!(
            (1..=3).contains(&failed),
            "seed {seed}: each injected read failure fails at most the one \
             pinning query, got {failed} failures"
        );
        for (r, want) in results.iter().zip(&clean) {
            if let Ok(o) = r {
                assert_eq!(
                    &o.matches.iter().map(|m| m.tid).collect::<Vec<_>>(),
                    want,
                    "seed {seed}: surviving queries must match the clean run"
                );
            }
        }

        // The failed page was never installed, so the same pool recovers
        // completely once the faults are gone.
        faults.disarm_all();
        let retry = petq_batch_with(&backend, &store, &pools, &queries, 8);
        for (r, want) in retry.iter().zip(&clean) {
            let o = r.as_ref().expect("pool must stay usable after faults");
            assert_eq!(
                &o.matches.iter().map(|m| m.tid).collect::<Vec<_>>(),
                want,
                "seed {seed}: retry must fully match the clean run"
            );
        }
    }
}

#[test]
fn scan_baseline_counts_every_tuple() {
    let (_, data) = seeded_dataset(500);
    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store.clone(), 64);
    let scan = ScanBaseline::build(&mut pool, data.iter().map(|(t, u)| (*t, u))).unwrap();
    scan.petq(&mut pool, &EqQuery::new(uda(&[(0, 1.0)]), 0.5))
        .unwrap();
    assert_eq!(pool.metrics().heap_tuples_scanned, 500);
    pool.reset_stats();
    scan.ds_top_k(
        &mut pool,
        &uncat::core::query::DsTopKQuery::new(uda(&[(0, 1.0)]), 3, Divergence::L2),
    )
    .unwrap();
    assert_eq!(pool.metrics().heap_tuples_scanned, 500);
}

/// The cost estimator speaks the metrics vocabulary and nothing else:
/// a prediction expressed as a `QueryMetrics` populates exactly the
/// four counters it predicts, so predicted-vs-actual comparisons (the
/// `explain` table and its `misprediction:` lines) are always
/// field-for-field over this one struct — no hidden side channel.
#[test]
fn cost_predictions_map_onto_exactly_four_metrics_fields() {
    let p = uncat::inverted::CostPrediction {
        postings_scanned: 11,
        blocks_decoded: 22,
        candidates_verified: 33,
        physical_reads: 44,
    };
    let m = p.as_metrics();
    for (name, value) in m.fields() {
        let want = match name {
            "postings_scanned" => 11,
            "blocks_decoded" => 22,
            "candidates_verified" => 33,
            "io.physical_reads" => 44,
            _ => 0,
        };
        assert_eq!(value, want, "unexpected value in predicted field {name}");
    }
    // Round trip: the scalar cost is computable from the metrics form
    // alone, so a measured `QueryMetrics` can be costed identically.
    assert_eq!(
        p.cost(),
        m.postings_scanned + uncat::inverted::ENTRIES_PER_PAGE * m.io.physical_reads
    );
}

/// 20 000 three-category tuples with xorshift-drawn probabilities: lists
/// of ~4 600 entries (three dozen blocks, several payload pages each)
/// over a 90-page tuple heap — big enough that every strategy stops
/// somewhere different.
fn counter_dataset() -> (Domain, Vec<(u64, Uda)>) {
    let mut s = 0x9E37_79B9u64;
    let data = (0..20_000u64)
        .map(|i| {
            let c1 = (xorshift(&mut s) % 13) as u32;
            let c2 = (c1 + 1 + (xorshift(&mut s) % 4) as u32) % 13;
            let c3 = (c2 + 1 + (xorshift(&mut s) % 4) as u32) % 13;
            let w: Vec<f64> = (0..3)
                .map(|_| (1 + xorshift(&mut s) % 100) as f64)
                .collect();
            let sum: f64 = w.iter().sum();
            let p = |k: usize| (w[k] / sum) as f32;
            (i, uda(&[(c1, p(0)), (c2, p(1)), (c3, p(2))]))
        })
        .collect();
    (Domain::anonymous(13), data)
}

/// Everything `QueryMetrics` counts for a probe of the inverted index,
/// `io.*` excluded, then `io.logical_reads` last.
fn counter_row(m: &QueryMetrics) -> [u64; 14] {
    [
        m.lists_opened,
        m.lists_pruned,
        m.postings_scanned,
        m.blocks_decoded,
        m.blocks_skipped,
        m.frontier_pops,
        m.lemma1_stops,
        m.candidates_generated,
        m.candidates_pruned,
        m.candidates_verified,
        m.candidates_settled,
        m.heap_tuples_scanned,
        m.plan_fallbacks,
        m.io.logical_reads,
    ]
}

/// The rows of [`probe_kernels_change_no_counter_but_logical_reads`] as
/// measured at the commit before the batched probe kernels (one pin and
/// one copy per candidate and per block). Columns as in [`counter_row`].
const PARENT_COUNTERS: &[(&str, [u64; 14])] = &[
    (
        "petq0/inv-index-search",
        [1, 0, 4557, 36, 0, 0, 0, 4557, 0, 0, 4557, 0, 0, 36],
    ),
    (
        "petq0/highest-prob-first",
        [1, 0, 782, 7, 29, 781, 1, 781, 0, 781, 0, 0, 0, 788],
    ),
    (
        "petq0/row-pruning",
        [1, 0, 4557, 36, 0, 0, 0, 4557, 0, 4557, 0, 0, 0, 4593],
    ),
    (
        "petq0/column-pruning",
        [1, 0, 781, 7, 29, 0, 0, 781, 0, 781, 0, 0, 0, 788],
    ),
    (
        "petq0/nra",
        [1, 0, 782, 7, 29, 781, 1, 781, 0, 0, 781, 0, 0, 7],
    ),
    ("topk0", [1, 0, 65, 1, 35, 64, 1, 64, 54, 0, 10, 0, 0, 1]),
    (
        "petq1/inv-index-search",
        [2, 0, 9260, 73, 0, 0, 0, 8803, 0, 0, 8803, 0, 0, 73],
    ),
    (
        "petq1/highest-prob-first",
        [2, 0, 4961, 40, 33, 4959, 1, 4882, 0, 4882, 0, 0, 0, 4922],
    ),
    (
        "petq1/row-pruning",
        [2, 0, 9260, 73, 0, 0, 0, 8803, 0, 8803, 0, 0, 0, 8876],
    ),
    (
        "petq1/column-pruning",
        [2, 0, 5281, 42, 31, 0, 0, 5172, 0, 5172, 0, 0, 0, 5214],
    ),
    (
        "petq1/nra",
        [2, 0, 9260, 73, 0, 9260, 0, 8803, 7746, 0, 1057, 0, 0, 73],
    ),
    (
        "topk1",
        [2, 0, 1877, 16, 57, 1875, 1, 1875, 0, 1875, 0, 0, 0, 1891],
    ),
    (
        "petq2/inv-index-search",
        [3, 0, 14025, 111, 0, 0, 0, 12011, 0, 0, 12011, 0, 0, 111],
    ),
    (
        "petq2/highest-prob-first",
        [3, 0, 11038, 87, 24, 11035, 1, 9845, 0, 9845, 0, 0, 0, 9932],
    ),
    (
        "petq2/row-pruning",
        [3, 0, 14025, 111, 0, 0, 0, 12011, 0, 12011, 0, 0, 0, 12122],
    ),
    (
        "petq2/column-pruning",
        [3, 0, 11606, 92, 19, 0, 0, 10271, 0, 10271, 0, 0, 0, 10363],
    ),
    (
        "petq2/nra",
        [
            3, 0, 14025, 111, 0, 14025, 0, 12011, 7938, 0, 4073, 0, 0, 111,
        ],
    ),
    (
        "topk2",
        [3, 0, 4269, 35, 76, 4266, 1, 4222, 1, 4221, 0, 0, 0, 4256],
    ),
    (
        "petq3/inv-index-search",
        [2, 0, 9190, 73, 0, 0, 0, 8737, 0, 0, 8737, 0, 0, 73],
    ),
    (
        "petq3/highest-prob-first",
        [2, 0, 169, 2, 71, 168, 1, 168, 0, 168, 0, 0, 0, 170],
    ),
    (
        "petq3/row-pruning",
        [1, 1, 4528, 36, 0, 0, 0, 4528, 0, 4528, 0, 0, 0, 4564],
    ),
    (
        "petq3/column-pruning",
        [2, 0, 255, 3, 70, 0, 0, 255, 0, 255, 0, 0, 0, 258],
    ),
    (
        "petq3/nra",
        [2, 0, 7396, 59, 14, 7394, 1, 7120, 7047, 73, 0, 0, 0, 132],
    ),
    (
        "topk3",
        [2, 0, 211, 2, 71, 210, 1, 210, 0, 210, 0, 0, 0, 212],
    ),
    (
        "petq4/inv-index-search",
        [4, 0, 18324, 145, 0, 0, 0, 13807, 0, 0, 13807, 0, 0, 145],
    ),
    (
        "petq4/highest-prob-first",
        [
            4, 0, 17443, 138, 7, 17439, 1, 13343, 0, 13343, 0, 0, 0, 13481,
        ],
    ),
    (
        "petq4/row-pruning",
        [4, 0, 18324, 145, 0, 0, 0, 13807, 0, 13807, 0, 0, 0, 13952],
    ),
    (
        "petq4/column-pruning",
        [4, 0, 17447, 138, 7, 0, 0, 13348, 0, 13348, 0, 0, 0, 13486],
    ),
    (
        "petq4/nra",
        [
            4, 0, 18324, 145, 0, 18324, 0, 13807, 2349, 0, 11458, 0, 0, 145,
        ],
    ),
    (
        "topk4",
        [
            4, 0, 12530, 100, 45, 12526, 1, 10580, 215, 10365, 0, 0, 0, 10465,
        ],
    ),
];

/// What this commit's plans do to the rows above, on purpose: the full
/// [`counter_row`] of the PETQ and top-k `Strategy::Auto` plans (`petq`,
/// `top_k_planned`), the block-granular threshold executor, and of the
/// L1 DSTQ at radius 0.4, which reads its lists over radius windows and
/// settles every tuple from them and the norm column.
const PLANNED_DSTQ: [[u64; 14]; 5] = [
    // Every row: each list opened once, only the blocks of its window
    // [q_j − 0.4, q_j + 0.4] read, no pop, nothing verified and no
    // tuple-store scan: every tuple met is pruned or settled from the
    // lists and the norm column. No tuple sharing nothing with the query
    // is walked: the column's floor puts them all at mass(q) + mass(t) > 0.4.
    // One certain list: only its 3 blocks at p ≥ 0.6, of 36.
    [1, 0, 384, 3, 33, 0, 0, 384, 349, 0, 35, 0, 0, 1],
    // Two and three lists: the windows drop the blocks beyond q_j ± 0.4.
    [2, 0, 8159, 64, 9, 0, 0, 7810, 7764, 0, 46, 0, 0, 8],
    [3, 0, 13154, 104, 7, 0, 0, 11389, 11379, 0, 10, 0, 0, 12],
    // A skewed query (0.9 / 0.1): list 2 at p ≥ 0.5, list 7 at p ≤ 0.5.
    [2, 0, 4790, 38, 35, 0, 0, 4713, 4656, 0, 57, 0, 0, 5],
    // Four lists at a quarter each: the windows reach 0.65, nearly every
    // block, and no tuple is within 0.4.
    [4, 0, 17812, 141, 4, 0, 0, 13542, 13542, 0, 0, 0, 0, 16],
];
/// The full [`counter_row`] of the PETQ `Strategy::Auto` plans: the same
/// executor with θ = τ. Every row: each list opened once, nothing
/// verified, no pop; Lemma 1 stops the frontier with blocks unread, and
/// what the survivors' suffixes do not need stays unread.
const PLANNED_PETQ: [[u64; 14]; 5] = [
    // One list at τ = 0.5: 7 of its 36 blocks, against the scan's 36.
    [1, 0, 896, 7, 29, 0, 1, 896, 115, 0, 781, 0, 0, 7],
    // Two and three lists at τ = 0.3 and 0.15: the survivors' suffixes are
    // the lists' ends, so every block is read, as the scan reads them —
    // on fewer page reads, one per run of blocks on a page.
    [2, 0, 9260, 73, 0, 0, 1, 4913, 53, 0, 4860, 0, 0, 44],
    [3, 0, 14025, 111, 0, 0, 1, 9917, 159, 0, 9758, 0, 0, 92],
    // A skewed query (0.9 / 0.1) at τ = 0.7: 16 blocks of 73.
    [2, 0, 1974, 16, 57, 0, 1, 256, 183, 0, 73, 0, 0, 4],
    // Four lists at a quarter each, τ = 0.05: every block.
    [4, 0, 18324, 145, 0, 0, 1, 13387, 196, 0, 13191, 0, 0, 141],
];
const PLANNED_TOPK: [[u64; 14]; 5] = [
    // Every row: each list opened once, one page read per block the
    // frontier takes, no pop, nothing verified — every candidate pruned
    // by its upper bound or settled from the lists. One list: Lemma 1
    // stops after the first block, whose best ten are the answer.
    [1, 0, 128, 1, 35, 0, 1, 128, 118, 0, 10, 0, 0, 1],
    // Two and three lists, k = 30 and 50: the frontier and the survivors'
    // suffixes leave 24 and 2 blocks unread.
    [2, 0, 6239, 49, 24, 0, 1, 1920, 579, 0, 1341, 0, 0, 19],
    [3, 0, 13769, 109, 2, 0, 1, 4176, 3191, 0, 985, 0, 0, 43],
    // A skewed query (0.9 / 0.1): 17 blocks of 73.
    [2, 0, 2102, 17, 56, 0, 1, 256, 161, 0, 95, 0, 0, 4],
    // Four lists at a quarter each, k = 90: the survivors' suffixes are
    // the lists' ends, and every block is read, as the scan reads them.
    [4, 0, 18324, 145, 0, 0, 1, 10608, 352, 0, 10256, 0, 0, 106],
];

/// The probe kernels are pinned against the counters recorded before
/// them: on a fixed dataset, for every fixed strategy and the public
/// top-k drain, every execution counter equals [`PARENT_COUNTERS`] and
/// `io.logical_reads` never exceeds its old value. Two things moved
/// since, all on purpose and all pinned here: a backend configured with
/// `Strategy::Auto` answers PETQ and top-k with the block-granular
/// threshold executor, not the scan and the drain (same tuples, no more
/// blocks, nothing verified; the PETQ rows are [`PLANNED_PETQ`], the
/// top-k rows [`PLANNED_TOPK`]), and an L1/L2 DSTQ reads its lists over
/// radius windows and settles its answer from them and the norm column,
/// fetching only tuples within ε of the radius ([`PLANNED_DSTQ`]).
/// `generated = pruned + verified + settled` holds on every row.
#[test]
fn probe_kernels_change_no_counter_but_logical_reads() {
    let (domain, data) = counter_dataset();
    let (idx, store) = build_inverted(&domain, &data);
    let queries = [
        (uda(&[(4, 1.0)]), 0.5),
        (uda(&[(4, 0.6), (9, 0.4)]), 0.3),
        (uda(&[(1, 0.5), (6, 0.3), (11, 0.2)]), 0.15),
        (uda(&[(2, 0.9), (7, 0.1)]), 0.7),
        (uda(&[(0, 0.25), (3, 0.25), (8, 0.25), (12, 0.25)]), 0.05),
    ];
    let mut rows: Vec<(String, [u64; 14])> = Vec::new();
    let mut planned_petq: Vec<[u64; 14]> = Vec::new();
    let mut planned_topk: Vec<[u64; 14]> = Vec::new();
    let mut planned_dstq: Vec<[u64; 14]> = Vec::new();
    let run = |name: &str, probe: &mut dyn FnMut(&mut BufferPool)| {
        let mut pool = BufferPool::with_capacity(store.clone(), 512);
        probe(&mut pool);
        let m = pool.metrics();
        assert!(m.candidate_invariant_holds(), "{name}: {m:?}");
        m
    };
    // The first metric DSTQ fills the norm column with one tuple-store
    // scan; every DSTQ row below runs after it.
    let m = run("fill", &mut |pool| {
        let q = &queries[0].0;
        idx.dstq(pool, &DstQuery::new(q.clone(), 0.4, Divergence::L1))
            .unwrap();
    });
    assert_eq!(m.heap_tuples_scanned, data.len() as u64);
    for (qi, (q, tau)) in queries.iter().enumerate() {
        let query = EqQuery::new(q.clone(), *tau);
        let mut scanned = Vec::new();
        for strategy in Strategy::ALL {
            let name = format!("petq{qi}/{}", strategy.name());
            let m = run(&name, &mut |pool| {
                let matches = idx.petq(pool, &query, strategy).unwrap();
                if strategy == Strategy::Brute {
                    scanned = matches;
                }
            });
            rows.push((name, counter_row(&m)));
        }
        let m = run(&format!("petq{qi}/auto"), &mut |pool| {
            let planned = idx.petq(pool, &query, Strategy::Auto).unwrap();
            assert_same_answer(&format!("petq{qi}"), &planned, &scanned);
        });
        planned_petq.push(counter_row(&m));
        let topk = TopKQuery::new(q.clone(), 10 + 20 * qi);
        let mut drained = Vec::new();
        let m = run(&format!("topk{qi}"), &mut |pool| {
            drained = idx.top_k(pool, &topk).unwrap();
        });
        rows.push((format!("topk{qi}"), counter_row(&m)));
        let m = run(&format!("topk{qi}/auto"), &mut |pool| {
            let planned = idx.top_k_planned(pool, &topk, Strategy::Auto).unwrap();
            assert_same_answer(&format!("topk{qi}"), &planned, &drained);
        });
        planned_topk.push(counter_row(&m));
        let dstq = DstQuery::new(q.clone(), 0.4, Divergence::L1);
        let m = run(&format!("dstq{qi}"), &mut |pool| {
            let got = idx.dstq(pool, &dstq).unwrap();
            assert_eq!(got.len(), dstq_answer(&data, &dstq), "dstq{qi}");
        });
        planned_dstq.push(counter_row(&m));
        // Nothing is fetched, and the tuple store is not scanned again.
        // One list's window is a run of neighbouring blocks: one logical
        // read per page.
        assert_eq!(m.candidates_verified, 0, "dstq{qi} fetched tuples");
        assert_eq!(m.heap_tuples_scanned, 0, "dstq{qi} scanned the tuple store");
        if q.len() == 1 {
            assert_eq!(
                m.io.logical_reads, m.io.physical_reads,
                "dstq{qi}: one logical read per distinct page"
            );
        }
    }

    if rows.len() != PARENT_COUNTERS.len() {
        for (name, row) in &rows {
            println!("    (\"{name}\", {row:?}),");
        }
        panic!("PARENT_COUNTERS has {} rows", PARENT_COUNTERS.len());
    }
    for ((name, row), (want_name, want)) in rows.iter().zip(PARENT_COUNTERS) {
        assert_eq!(name, want_name, "probe order changed");
        assert_eq!(row[..13], want[..13], "{name}: execution counters moved");
        assert!(
            row[13] <= want[13],
            "{name}: logical reads rose from {} to {}",
            want[13],
            row[13]
        );
    }
    assert_eq!(planned_petq, PLANNED_PETQ, "the planned PETQ moved");
    assert_eq!(planned_topk, PLANNED_TOPK, "the planned top-k moved");
    if planned_dstq != PLANNED_DSTQ {
        for row in &planned_dstq {
            println!("    {row:?},");
        }
    }
    assert_eq!(planned_dstq, PLANNED_DSTQ, "the planned DSTQ moved");
}

/// How many tuples of `data` lie within `query`'s radius.
fn dstq_answer(data: &[(u64, Uda)], query: &DstQuery) -> usize {
    data.iter()
        .filter(|(_, t)| query.divergence.eval(query.q.entries(), t.entries()) <= query.tau_d)
        .count()
}

/// Same tuples, same scores bit for bit: every plan sums a tuple's terms
/// exactly.
fn assert_same_answer(what: &str, planned: &[Match], reference: &[Match]) {
    let tids = |m: &[Match]| m.iter().map(|m| m.tid).collect::<Vec<_>>();
    assert_eq!(tids(planned), tids(reference), "{what}: the plans disagree");
    for (p, r) in planned.iter().zip(reference) {
        assert_eq!(
            p.score.to_bits(),
            r.score.to_bits(),
            "{what}: {p:?} vs {r:?}"
        );
    }
}

// --- The pool a query runs on is its ledger ---

/// Two queries through one pool tick the field-wise sum of the same two
/// on a fresh pool each, whether the pool is private or a handle onto a
/// shared one. Only the hit/miss split may differ: the second query finds
/// pages the first one left.
#[test]
fn two_queries_through_one_pool_sum_like_two_fresh_pools() {
    let (domain, data) = seeded_dataset(2000);
    let (idx, store) = build_inverted(&domain, &data);
    let petq = EqQuery::new(uda(&[(4, 1.0)]), 0.5);
    let topk = TopKQuery::new(uda(&[(4, 0.6), (9, 0.4)]), 8);
    let shared = SharedBufferPool::new(store.clone(), 256, 4);
    let fresh = |handle: bool| {
        if handle {
            BufferPool::from_handle(shared.handle())
        } else {
            BufferPool::with_capacity(store.clone(), 100)
        }
    };
    for handle in [false, true] {
        let mut both = fresh(handle);
        idx.petq(&mut both, &petq, Strategy::Nra).unwrap();
        idx.top_k(&mut both, &topk).unwrap();
        let (mut a, mut b) = (fresh(handle), fresh(handle));
        idx.petq(&mut a, &petq, Strategy::Nra).unwrap();
        idx.top_k(&mut b, &topk).unwrap();

        let got = both.metrics();
        let mut sum = QueryMetrics::sum([&a.metrics(), &b.metrics()]);
        assert!(sum.postings_scanned > 0 && sum.frontier_pops > 0);
        assert_eq!(got.io, both.stats(), "io comes from the pool's own stats");
        assert_eq!(got.io.logical_reads, sum.io.logical_reads);
        sum.io = got.io;
        assert_eq!(got, sum, "handle-backed: {handle}");

        both.reset_stats();
        assert_eq!(both.metrics(), QueryMetrics::default());
        assert_eq!(both.stats(), IoStats::default());
    }
}

/// A PETQ killed by a read error leaves what it ticked so far in the
/// ledger — on the `Err` path too — and the pool stays usable.
#[test]
fn a_petq_killed_by_a_read_error_leaves_its_counters_in_the_ledger() {
    let (domain, data) = seeded_dataset(30_000);
    let faults = Arc::new(FaultStore::new(InMemoryDisk::shared(), 7));
    let store: SharedStore = faults.clone();
    let mut pool = BufferPool::with_capacity(store.clone(), 256);
    let idx = InvertedIndex::build(domain, &mut pool, data.iter().map(|(t, u)| (*t, u))).unwrap();
    pool.flush().unwrap();
    drop(pool);
    let query = EqQuery::new(uda(&[(4, 1.0)]), 0.1);

    let mut clean_pool = BufferPool::with_capacity(store.clone(), 100);
    let clean = idx.petq(&mut clean_pool, &query, Strategy::Brute).unwrap();
    let full = clean_pool.metrics();
    assert!(
        full.io.physical_reads >= 2,
        "the list spans pages: {full:?}"
    );

    // Same cold start, but the scan's last page read fails.
    let mut pool = BufferPool::with_capacity(store.clone(), 100);
    faults.arm(Fault::FailRead {
        after: faults.reads_so_far() + full.io.physical_reads,
    });
    let err = idx.petq(&mut pool, &query, Strategy::Brute).unwrap_err();
    assert!(matches!(err, StorageError::Io { .. }), "{err}");
    let died = pool.metrics();
    assert_eq!(died.lists_opened, 1);
    assert!(
        0 < died.postings_scanned && died.postings_scanned < full.postings_scanned,
        "ticked so far: {} of {}",
        died.postings_scanned,
        full.postings_scanned
    );
    assert_eq!(died.io.physical_reads, full.io.physical_reads);

    // The fault fired once; the same pool answers, on the same ledger.
    let again = idx.petq(&mut pool, &query, Strategy::Brute).unwrap();
    assert_eq!(again, clean);
    let total = pool.metrics();
    assert_eq!(total.lists_opened, 2);
    assert_eq!(
        total.postings_scanned,
        died.postings_scanned + full.postings_scanned
    );
}

/// `index_join`'s outcome is an interval measurement: on a warm, reused
/// pool its metrics are the sum of its probes run one by one, not the
/// pool's lifetime totals.
#[test]
fn index_join_outcome_on_a_warm_pool_is_the_sum_of_its_probes() {
    let (domain, data) = seeded_dataset(2000);
    let (idx, store) = build_inverted(&domain, &data);
    let inner = InvertedBackend::with_strategy(idx, Strategy::Nra);
    let outer: Vec<(u64, Uda)> = (0..12)
        .map(|i| (1_000_000 + i, uda(&[((i % 13) as u32, 1.0)])))
        .collect();
    let tau = 0.4;
    // Everything fits: after one pass the pool's contents stop changing.
    let mut pool = BufferPool::with_capacity(store, 1024);
    index_join(&outer, &inner, &mut pool, JoinSpec::Petj { tau }).unwrap();

    let out = index_join(&outer, &inner, &mut pool, JoinSpec::Petj { tau }).unwrap();
    let mut probes = QueryMetrics::new();
    let mut pairs = 0;
    for (_, luda) in &outer {
        let before = pool.metrics();
        pairs += inner
            .petq(&mut pool, &EqQuery::new(luda.clone(), tau))
            .unwrap()
            .len();
        probes.merge(&pool.metrics().since(&before));
    }
    assert_eq!(out.pairs.len(), pairs);
    assert_eq!(out.metrics, probes);
    assert_eq!(out.metrics.io.physical_reads, 0, "the pool was warm");
    assert!(out.metrics.io.hits > 0);
    assert!(pool.metrics().postings_scanned >= 3 * out.metrics.postings_scanned);
}

/// A service outcome's metrics are the sum of probing the tenant's
/// shards directly, plus the admission stamp — I/O included when both
/// sides start cold with room for everything.
#[test]
fn service_outcome_metrics_are_the_sum_of_the_direct_shard_probes() {
    let (domain, data) = seeded_dataset(3000);
    let shards = 3;
    let build_shards = |store: &SharedStore| -> Vec<InvertedBackend> {
        (0..shards)
            .map(|s| {
                let part = data.iter().filter(|(t, _)| shard_of(*t, shards) == s);
                let mut pool = BufferPool::with_capacity(store.clone(), 128);
                let idx =
                    InvertedIndex::build(domain.clone(), &mut pool, part.map(|(t, u)| (*t, u)))
                        .unwrap();
                pool.flush().unwrap();
                InvertedBackend::with_strategy(idx, Strategy::Auto)
            })
            .collect()
    };
    let service = QueryService::new(InMemoryDisk::shared(), ServiceConfig::default());
    let boxed = build_shards(service.store())
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn UncertainIndex + Send + Sync>)
        .collect();
    service.register_tenant(TenantConfig::new("t"), boxed);
    // The same three shards, laid out identically on a store of their own.
    let direct_store = InMemoryDisk::shared();
    let direct = build_shards(&direct_store);

    let query = EqQuery::new(uda(&[(4, 0.7), (9, 0.3)]), 0.3);
    let got = service.petq("t", &query).expect("query");
    let mut want = QueryMetrics::new();
    let mut matches = 0;
    for shard in &direct {
        let mut pool = BufferPool::with_capacity(direct_store.clone(), 1024);
        matches += shard.petq(&mut pool, &query).unwrap().len();
        want.merge(&pool.metrics());
    }
    assert_eq!(got.matches.len(), matches);
    assert_eq!(got.metrics.admission_waits, 0, "nobody was ahead of it");
    assert_eq!(got.metrics, want);
    assert!(want.io.physical_reads > 0 && want.postings_scanned > 0);
}

/// docs/METRICS.md's counter reference names every counter there is.
#[test]
fn metrics_doc_names_every_counter() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/METRICS.md"))
        .expect("docs/METRICS.md");
    for (name, _) in QueryMetrics::new().fields() {
        assert!(
            doc.contains(&format!("`{name}`")),
            "docs/METRICS.md does not document `{name}`"
        );
    }
}
