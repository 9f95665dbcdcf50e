//! Join-plan regression and acceptance tests.
//!
//! Pins the PEJ-top-k floor fix (the floor is maintained from the moment
//! `k` pairs exist and is propagated into every probe as its starting
//! threshold) and the parallel plan's contract: identical pairs to the
//! sequential plan on every backend, with strictly less probe work than
//! the pre-fix full-top-k-probe plan on a skewed workload.

use uncat::core::query::{DstQuery, TopKQuery};
use uncat::core::{CatId, Divergence, Domain, Uda};
use uncat::datagen::crm::crm1;
use uncat::datagen::zipf::zipf_ranks;
use uncat::prelude::*;
use uncat::query::join::{index_join, parallel_join, JoinPair, JoinSpec};
use uncat::query::{BatchPools, InvertedBackend, UncertainIndex};
use uncat::storage::SharedStore;
use uncat_inverted::{InvertedIndex, Strategy};
use uncat_pdrtree::{PdrConfig, PdrTree};

const K: usize = 10;
const FRAMES: usize = 100;

/// A domain plus inner and outer relations.
type Workload = (Domain, Vec<(u64, Uda)>, Vec<(u64, Uda)>);

/// CRM1 inner relation plus a Zipf-skewed certain-probe outer relation —
/// the workload shape the floor fix targets: skew means early probes
/// establish a high floor that prunes the long tail of later probes.
fn zipf_workload(n: usize, outer_n: usize, seed: u64) -> Workload {
    let (domain, data) = crm1(n, seed);
    let outer = zipf_ranks(domain.size() as usize, 1.2, outer_n, seed ^ 0xA5A5)
        .into_iter()
        .enumerate()
        .map(|(i, rank)| (1_000_000 + i as u64, Uda::certain(CatId(rank as u32))))
        .collect();
    (domain, data, outer)
}

fn build_inverted(domain: &Domain, data: &[(u64, Uda)]) -> (InvertedBackend, SharedStore) {
    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store.clone(), 512);
    let idx = InvertedIndex::build(domain.clone(), &mut pool, data.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory build");
    pool.flush().expect("in-memory flush");
    (InvertedBackend::with_strategy(idx, Strategy::Nra), store)
}

fn build_pdr(domain: &Domain, data: &[(u64, Uda)]) -> (PdrTree, SharedStore) {
    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store.clone(), 512);
    let tree = PdrTree::build(
        domain.clone(),
        PdrConfig::default(),
        &mut pool,
        data.iter().map(|(t, u)| (*t, u)),
    )
    .expect("in-memory build");
    pool.flush().expect("in-memory flush");
    (tree, store)
}

/// The pre-fix probe cost: a full top-k probe per outer tuple, no floor.
fn full_probe_baseline(
    outer: &[(u64, Uda)],
    inner: &impl UncertainIndex,
    pool: &mut BufferPool,
) -> (Vec<JoinPair>, QueryMetrics) {
    let mut pairs = Vec::new();
    for (ltid, luda) in outer {
        for m in inner
            .top_k(pool, &TopKQuery::new(luda.clone(), K))
            .expect("in-memory probe")
        {
            pairs.push(JoinPair {
                left: *ltid,
                right: m.tid,
                score: m.score,
            });
        }
    }
    JoinSpec::PejTopK { k: K }.canonicalize(&mut pairs);
    (pairs, pool.metrics())
}

fn assert_pairs_agree(what: &str, reference: &[JoinPair], got: &[JoinPair]) {
    assert_eq!(
        got.iter().map(|p| (p.left, p.right)).collect::<Vec<_>>(),
        reference
            .iter()
            .map(|p| (p.left, p.right))
            .collect::<Vec<_>>(),
        "{what}: pair sets differ"
    );
    for (r, g) in reference.iter().zip(got) {
        assert!(
            (r.score - g.score).abs() <= 1e-9,
            "{what}: pair ({}, {}) scored {} vs {}",
            g.left,
            g.right,
            g.score,
            r.score
        );
    }
}

/// Regression for the floor bug: the floor must be maintained from the
/// moment `k` pairs exist (the buggy code required *more than* `k`), and
/// propagating it into the probes must make warm probes strictly cheaper
/// than the pre-fix full-top-k probes — without changing the answer.
#[test]
fn sequential_pej_topk_floor_prunes_probes_after_heap_fills() {
    let (domain, data, outer) = zipf_workload(3000, 96, 7);
    let (inv, store) = build_inverted(&domain, &data);
    let mut pool = BufferPool::with_capacity(store.clone(), FRAMES);
    let (expected, baseline) = full_probe_baseline(&outer, &inv, &mut pool);

    let mut pool = BufferPool::with_capacity(store.clone(), FRAMES);
    let outcome =
        index_join(&outer, &inv, &mut pool, JoinSpec::PejTopK { k: K }).expect("in-memory join");
    let metrics = pool.metrics();

    assert_pairs_agree("sequential pej-topk", &expected, &outcome.pairs);
    assert!(
        metrics.postings_scanned < baseline.postings_scanned,
        "floor propagation must prune probe work: {} postings vs baseline {}",
        metrics.postings_scanned,
        baseline.postings_scanned
    );
}

/// Acceptance: the parallel PEJ-top-k plan with the shared floor issues
/// strictly fewer inner-probe postings reads than the pre-fix sequential
/// plan on a Zipf-skewed workload, and returns the exact same pairs.
#[test]
fn parallel_pej_topk_beats_prefix_probe_cost_on_zipf_workload() {
    let (domain, data, outer) = zipf_workload(3000, 96, 7);
    let (inv, store) = build_inverted(&domain, &data);
    let mut pool = BufferPool::with_capacity(store.clone(), FRAMES);
    let (expected, baseline) = full_probe_baseline(&outer, &inv, &mut pool);

    let outcome = parallel_join(
        &outer,
        &inv,
        &store,
        &BatchPools::private(FRAMES),
        JoinSpec::PejTopK { k: K },
        4,
    )
    .expect("in-memory join");

    assert_pairs_agree("parallel pej-topk", &expected, &outcome.pairs);
    assert!(
        outcome.metrics.postings_scanned < baseline.postings_scanned,
        "shared floor must prune probe work: {} postings vs pre-fix baseline {}",
        outcome.metrics.postings_scanned,
        baseline.postings_scanned
    );
}

/// The parallel plan returns tid-exact pairs against the sequential
/// index plan, for every join form, on both paper indexes.
#[test]
fn parallel_plans_match_sequential_on_both_backends() {
    let (domain, data, outer) = zipf_workload(800, 48, 11);
    let specs = [
        JoinSpec::Petj { tau: 0.4 },
        JoinSpec::PejTopK { k: 7 },
        JoinSpec::Dstj {
            tau_d: 0.6,
            divergence: Divergence::L1,
        },
    ];

    let (inv, inv_store) = build_inverted(&domain, &data);
    let (pdr, pdr_store) = build_pdr(&domain, &data);

    for spec in specs {
        let mut pool = BufferPool::with_capacity(inv_store.clone(), FRAMES);
        let seq = index_join(&outer, &inv, &mut pool, spec).expect("in-memory join");
        let par = parallel_join(
            &outer,
            &inv,
            &inv_store,
            &BatchPools::shared(&inv_store, FRAMES * 3, 4),
            spec,
            3,
        )
        .expect("in-memory join");
        assert_pairs_agree(&format!("{} inverted", spec.name()), &seq.pairs, &par.pairs);

        let mut pool = BufferPool::with_capacity(pdr_store.clone(), FRAMES);
        let seq = index_join(&outer, &pdr, &mut pool, spec).expect("in-memory join");
        let par = parallel_join(
            &outer,
            &pdr,
            &pdr_store,
            &BatchPools::private(FRAMES),
            spec,
            3,
        )
        .expect("in-memory join");
        assert_pairs_agree(&format!("{} pdr", spec.name()), &seq.pairs, &par.pairs);
    }
}

/// For threshold joins the probes are independent of the partitioning, so
/// the parallel plan's summed counters must equal the sequential plan's
/// exactly — including logical page accesses; only physical I/O may
/// differ (each worker faults its own working set).
#[test]
fn parallel_threshold_join_metrics_sum_to_sequential() {
    let (domain, data, outer) = zipf_workload(800, 48, 13);
    let (inv, store) = build_inverted(&domain, &data);
    // The first metric DSTQ the index answers fills its norm column with
    // one tuple-store scan: fill it before either plan probes.
    let mut pool = BufferPool::with_capacity(store.clone(), FRAMES);
    inv.dstq(
        &mut pool,
        &DstQuery::new(outer[0].1.clone(), 0.0, Divergence::L2),
    )
    .expect("in-memory query");
    for spec in [
        JoinSpec::Petj { tau: 0.3 },
        JoinSpec::Dstj {
            tau_d: 0.5,
            divergence: Divergence::L2,
        },
    ] {
        let mut pool = BufferPool::with_capacity(store.clone(), FRAMES);
        let seq = index_join(&outer, &inv, &mut pool, spec).expect("in-memory join");
        let pools = BatchPools::private(FRAMES);
        let par = parallel_join(&outer, &inv, &store, &pools, spec, 4).expect("in-memory join");

        let mut seq_counters = seq.metrics;
        let mut par_counters = par.metrics;
        assert_eq!(
            par_counters.io.logical_reads,
            seq_counters.io.logical_reads,
            "{}: logical accesses are partition-independent",
            spec.name()
        );
        seq_counters.io = IoStats::default();
        par_counters.io = IoStats::default();
        assert_eq!(
            par_counters,
            seq_counters,
            "{}: non-I/O counters must sum exactly",
            spec.name()
        );
    }
}
