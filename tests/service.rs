//! Integration tests for the multi-tenant sharded query service
//! (`uncat::service`, DESIGN.md §6i): exact scatter-gather against the
//! unsharded plan, cross-shard floor pruning, admission control, and
//! per-tenant statistics.

use std::sync::{Arc, Barrier, Condvar, Mutex};

use uncat::core::query::DsTopKQuery;
use uncat::core::query::{effective_floor, sort_matches_desc, DstQuery, EqQuery, Match, TopKQuery};
use uncat::core::topk::TopKHeap;
use uncat::core::{CatId, Divergence, Domain, Uda};
use uncat::inverted::{InvertedIndex, Strategy};
use uncat::pdrtree::{PdrConfig, PdrTree};
use uncat::query::join::{index_join, JoinSpec};
use uncat::query::{InvertedBackend, ScanBaseline, UncertainIndex};
use uncat::service::{shard_of, QueryService, ServiceConfig, ServiceError, TenantConfig};
use uncat::storage::{
    BufferPool, Fault, FaultStore, InMemoryDisk, IoStats, Phase, QueryMetrics, StorageError,
};

fn uda(pairs: &[(u32, f32)]) -> Uda {
    Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
}

/// The metrics-test dataset: every posting list mixes probabilities
/// above and below typical thresholds, so pruning and floors both have
/// something to skip.
fn seeded_dataset(n: u64) -> (Domain, Vec<(u64, Uda)>) {
    let domain = Domain::anonymous(13);
    let data = (0..n)
        .map(|i| {
            let c = (i % 13) as u32;
            let p = if i % 3 == 0 { 0.8 } else { 0.2 };
            (i, uda(&[(c, p), ((c + 5) % 13, 1.0 - p)]))
        })
        .collect();
    (domain, data)
}

/// An unsharded reference backend over its own store — the oracle every
/// service plan is diffed against.
fn reference_backend(domain: &Domain, data: &[(u64, Uda)]) -> (InvertedBackend, BufferPool) {
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 256);
    let idx = InvertedIndex::build(domain.clone(), &mut pool, data.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory build");
    (InvertedBackend::new(idx), pool)
}

fn assert_matches_agree(what: &str, reference: &[Match], got: &[Match]) {
    assert_eq!(
        got.iter().map(|m| m.tid).collect::<Vec<_>>(),
        reference.iter().map(|m| m.tid).collect::<Vec<_>>(),
        "{what}: sharded plan returned different tuples than the unsharded plan"
    );
    for (r, g) in reference.iter().zip(got) {
        assert!(
            (r.score - g.score).abs() <= 1e-9,
            "{what}: tuple {} scored {} vs unsharded {}",
            g.tid,
            g.score,
            r.score
        );
    }
}

#[test]
fn unknown_tenant_is_a_typed_error() {
    let service = QueryService::new(InMemoryDisk::shared(), ServiceConfig::default());
    let err = service
        .petq("nobody", &EqQuery::new(uda(&[(0, 1.0)]), 0.5))
        .unwrap_err();
    assert!(matches!(err, ServiceError::UnknownTenant(_)), "{err}");
    let err = service.tenant_stats("nobody").unwrap_err();
    assert!(matches!(err, ServiceError::UnknownTenant(_)), "{err}");
}

/// Every select form and the join scatter across shards and gather into
/// exactly the unsharded answer, whatever the shard count.
#[test]
fn sharded_scatter_gather_matches_the_unsharded_plan() {
    let (domain, data) = seeded_dataset(3000);
    let (reference, mut ref_pool) = reference_backend(&domain, &data);

    let service = QueryService::new(InMemoryDisk::shared(), ServiceConfig::default());
    for shards in [1usize, 4] {
        service
            .register_tenant_inverted(
                TenantConfig::new(format!("s{shards}")),
                &domain,
                &data,
                shards,
                Strategy::ColumnPruning,
            )
            .expect("in-memory build");
    }

    let petq = EqQuery::new(uda(&[(4, 1.0)]), 0.5);
    let topk = TopKQuery::new(uda(&[(2, 1.0)]), 10);
    let dstq = DstQuery::new(uda(&[(2, 0.9), (7, 0.1)]), 0.4, Divergence::L1);
    let want_petq = reference.petq(&mut ref_pool, &petq).expect("query");
    let want_topk = reference.top_k(&mut ref_pool, &topk).expect("query");
    let want_dstq = reference.dstq(&mut ref_pool, &dstq).expect("query");
    assert!(!want_petq.is_empty() && want_topk.len() == 10 && !want_dstq.is_empty());
    // A caller's floor survives the scatter's own floor.
    let floored = TopKQuery {
        floor: (want_topk[4].score + want_topk[5].score) / 2.0,
        ..topk.clone()
    };
    let mut want_floored = want_topk.clone();
    want_floored.retain(|m| m.score >= floored.floor);

    for name in ["s1", "s4"] {
        let got = service.petq(name, &petq).expect("query");
        assert_matches_agree(&format!("{name}/petq"), &want_petq, &got.matches);
        let got = service.top_k(name, &topk).expect("query");
        assert_matches_agree(&format!("{name}/top_k"), &want_topk, &got.matches);
        let got = service.top_k(name, &floored).expect("query");
        assert_matches_agree(
            &format!("{name}/top_k floored"),
            &want_floored,
            &got.matches,
        );
        let got = service.dstq(name, &dstq).expect("query");
        assert_matches_agree(&format!("{name}/dstq"), &want_dstq, &got.matches);
    }

    // Joins: gathered pairs equal the unsharded index join, pair for pair.
    let outer: Vec<(u64, Uda)> = (0..20)
        .map(|i| (1_000_000 + i, uda(&[((i % 13) as u32, 1.0)])))
        .collect();
    for spec in [JoinSpec::Petj { tau: 0.4 }, JoinSpec::PejTopK { k: 8 }] {
        let want = index_join(&outer, &reference, &mut ref_pool, spec).expect("join");
        for name in ["s1", "s4"] {
            let got = service.join(name, &outer, spec, 2).expect("join");
            assert_eq!(
                got.pairs
                    .iter()
                    .map(|p| (p.left, p.right))
                    .collect::<Vec<_>>(),
                want.pairs
                    .iter()
                    .map(|p| (p.left, p.right))
                    .collect::<Vec<_>>(),
                "{name}/{}: sharded join differs from the unsharded join",
                spec.name()
            );
        }
    }

    // Per-tenant aggregates saw every completed request.
    let stats = service.tenant_stats("s4").expect("registered tenant");
    assert_eq!(stats.completed, 6, "4 selects + 2 joins");
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.latency.count(), 6);
}

/// A PDR tenant is bulk-loaded at registration and answers tid-exact
/// against the scan baseline; trees loaded the way the service loads its
/// shards are structurally sound and keep taking inserts.
#[test]
fn pdr_tenant_is_bulk_loaded_exact_and_still_insertable() {
    let (domain, data) = seeded_dataset(20_000);
    let mut scan_pool = BufferPool::with_capacity(InMemoryDisk::shared(), 256);
    let scan = ScanBaseline::build(&mut scan_pool, data.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory build");

    let service = QueryService::new(InMemoryDisk::shared(), ServiceConfig::default());
    let started = std::time::Instant::now();
    service
        .register_tenant_pdr(TenantConfig::new("pdr"), &domain, &data, 2)
        .expect("in-memory build");
    let took = started.elapsed();
    // Insertion-building these 20 000 tuples takes seconds (debug builds
    // are too slow for a wall-clock bound to mean anything).
    if !cfg!(debug_assertions) {
        assert!(
            took < std::time::Duration::from_secs(1),
            "registration took {took:?}: is the tenant bulk-loaded?"
        );
    }

    let petq = EqQuery::new(uda(&[(4, 0.7), (9, 0.3)]), 0.4);
    let topk = TopKQuery::new(uda(&[(2, 1.0)]), 10);
    let dstq = DstQuery::new(uda(&[(2, 0.8), (7, 0.2)]), 0.3, Divergence::L1);
    let want = scan.petq(&mut scan_pool, &petq).expect("scan");
    assert!(!want.is_empty());
    let got = service.petq("pdr", &petq).expect("query");
    assert_matches_agree("pdr/petq", &want, &got.matches);
    let want = scan.top_k(&mut scan_pool, &topk).expect("scan");
    let got = service.top_k("pdr", &topk).expect("query");
    assert_matches_agree("pdr/top_k", &want, &got.matches);
    let want = scan.dstq(&mut scan_pool, &dstq).expect("scan");
    assert!(!want.is_empty());
    let got = service.dstq("pdr", &dstq).expect("query");
    assert_matches_agree("pdr/dstq", &want, &got.matches);

    // The service's shards, rebuilt by its own recipe (`shard_of` split,
    // one bulk load per part) where the test can reach into them.
    let shards = 2;
    let store = InMemoryDisk::shared();
    let mut boxed: Vec<Box<dyn UncertainIndex + Send + Sync>> = Vec::new();
    for shard in 0..shards {
        let part = data.iter().filter(|(t, _)| shard_of(*t, shards) == shard);
        let mut pool = BufferPool::with_capacity(store.clone(), 256);
        let mut tree = PdrTree::bulk_build(
            domain.clone(),
            PdrConfig::default(),
            &mut pool,
            part.clone().map(|(t, u)| (*t, u)),
        )
        .expect("in-memory build");
        let n = part.count() as u64;
        assert_eq!(tree.check_invariants(&mut pool).expect("walk"), n);
        let fresh = (0..100u64)
            .map(|i| 1_000_000 + i)
            .filter(|t| shard_of(*t, shards) == shard);
        let mut added = 0;
        for tid in fresh {
            tree.insert(&mut pool, tid, &uda(&[(4, 0.7), (9, 0.3)]))
                .expect("insert");
            added += 1;
        }
        assert_eq!(tree.check_invariants(&mut pool).expect("walk"), n + added);
        pool.flush().expect("in-memory flush");
        boxed.push(Box::new(tree));
    }
    let grown = QueryService::new(store, ServiceConfig::default());
    grown.register_tenant(TenantConfig::new("grown"), boxed);
    let got = grown.petq("grown", &petq).expect("query");
    let before = service.petq("pdr", &petq).expect("query").matches.len();
    assert_eq!(
        got.matches.len(),
        before + 100,
        "every later insert answers"
    );
}

/// `k` bounds an answer; it does not size one. A top-k with k far beyond
/// the relation — 2^40, 2^60, `usize::MAX` — returns every match, on a
/// PDR-tree and an inverted tenant alike, and so do the scan baseline's
/// and both backends' DS-top-k. (The top-k heaps once reserved `k + 1`
/// slots up front: 2^40 aborted the process on the allocation, 2^60
/// panicked on capacity overflow.)
#[test]
fn a_huge_k_returns_every_match() {
    let (domain, data) = seeded_dataset(2000);
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 256);
    let tuples = || data.iter().map(|(t, u)| (*t, u));
    let scan = ScanBaseline::build(&mut pool, tuples()).expect("in-memory build");
    let inverted = InvertedBackend::new(
        InvertedIndex::build(domain.clone(), &mut pool, tuples()).expect("in-memory build"),
    );
    let pdr = PdrTree::build(domain.clone(), PdrConfig::default(), &mut pool, tuples())
        .expect("in-memory build");
    let service = QueryService::new(InMemoryDisk::shared(), ServiceConfig::default());
    service
        .register_tenant_pdr(TenantConfig::new("pdr"), &domain, &data, 2)
        .expect("in-memory build");
    service
        .register_tenant_inverted(TenantConfig::new("inv"), &domain, &data, 2, Strategy::Auto)
        .expect("in-memory build");

    let q = uda(&[(2, 0.6), (7, 0.4)]);
    let n = data.len();
    let every_match = scan
        .top_k(&mut pool, &TopKQuery::new(q.clone(), n))
        .expect("scan");
    assert!(!every_match.is_empty() && every_match.len() < n);
    let every_tuple = scan
        .ds_top_k(&mut pool, &DsTopKQuery::new(q.clone(), n, Divergence::L2))
        .expect("scan");
    assert_eq!(every_tuple.len(), n);
    for k in [1usize << 40, 1 << 60, usize::MAX] {
        let topk = TopKQuery::new(q.clone(), k);
        let got = scan.top_k(&mut pool, &topk).expect("scan");
        assert_matches_agree(&format!("scan/top_k/{k}"), &every_match, &got);
        for tenant in ["pdr", "inv"] {
            let got = service.top_k(tenant, &topk).expect("query");
            assert_matches_agree(&format!("{tenant}/top_k/{k}"), &every_match, &got.matches);
        }
        let ds = DsTopKQuery::new(q.clone(), k, Divergence::L2);
        let backends: [(&str, &dyn UncertainIndex); 3] =
            [("scan", &scan), ("inverted", &inverted), ("pdr", &pdr)];
        for (name, backend) in backends {
            let got = backend.ds_top_k(&mut pool, &ds).expect("query");
            assert_matches_agree(&format!("{name}/ds_top_k/{k}"), &every_tuple, &got);
        }
    }
}

/// The scatter is sequential in shard order, so a repeated query is
/// invisible in results and execution counters: only the I/O block (the
/// frames the first run warmed) may differ.
#[test]
fn repeated_scatter_matches_the_first_in_everything_but_io() {
    let (domain, data) = seeded_dataset(3000);
    let service = QueryService::new(InMemoryDisk::shared(), ServiceConfig::default());
    service
        .register_tenant_inverted(
            TenantConfig::new("t"),
            &domain,
            &data,
            4,
            Strategy::ColumnPruning,
        )
        .expect("in-memory build");

    let petq = EqQuery::new(uda(&[(4, 1.0)]), 0.3);
    let cold = service.petq("t", &petq).expect("query");
    let warm = service.petq("t", &petq).expect("query");

    assert_matches_agree("repeated-scatter", &cold.matches, &warm.matches);
    let (mut a, mut b) = (cold.metrics, warm.metrics);
    assert_eq!(
        a.io.logical_reads, b.io.logical_reads,
        "the access pattern does not depend on what is resident"
    );
    assert!(a.io.physical_reads > 0 && b.io.physical_reads == 0);
    a.io = IoStats::default();
    b.io = IoStats::default();
    assert_eq!(a, b, "execution counters must not depend on the pool");
}

/// The cross-shard threshold: one run over every shard's lists prunes
/// each shard at the tenant's k-th best, so it scans strictly fewer
/// postings than the shards' own top-k, without changing the answer. The
/// floorless reference is plain `top_k` on a second set of shards built
/// the same way. `Auto` shards stop at block granularity, so the list
/// spans several blocks per shard, k is a few blocks deep, and shard 0
/// holds the high scores: once the run has read them, θ is above all the
/// other shards hold, and they stop before their first block where alone
/// they read three.
#[test]
fn cross_shard_floor_prunes_postings_without_changing_answers() {
    const SHARDS: usize = 4;
    let domain = Domain::anonymous(13);
    let data: Vec<(u64, Uda)> = (0..4000u64)
        .map(|i| {
            let high = if shard_of(i, SHARDS) == 0 { 0.5 } else { 0.0 };
            let p = ((i * 7919) % 4000 + 1) as f32 / 8002.0 + high;
            (i, uda(&[(4, p), (9, 1.0 - p)]))
        })
        .collect();
    let service = QueryService::new(InMemoryDisk::shared(), ServiceConfig::default());
    let build_shards = || -> Vec<InvertedBackend> {
        (0..SHARDS)
            .map(|s| {
                let part = data.iter().filter(|(t, _)| shard_of(*t, SHARDS) == s);
                let mut pool = BufferPool::with_capacity(service.store().clone(), 128);
                let idx =
                    InvertedIndex::build(domain.clone(), &mut pool, part.map(|(t, u)| (*t, u)))
                        .expect("in-memory build");
                pool.flush().expect("in-memory flush");
                InvertedBackend::with_strategy(idx, Strategy::Auto)
            })
            .collect()
    };
    let boxed = build_shards()
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn UncertainIndex + Send + Sync>)
        .collect();
    service.register_tenant(TenantConfig::new("t"), boxed);

    let query = TopKQuery::new(uda(&[(4, 1.0)]), 300);
    let floored = service.top_k("t", &query).expect("query");

    let mut floorless = Vec::new();
    let mut floorless_postings = 0;
    for shard in build_shards() {
        let mut pool = BufferPool::with_capacity(service.store().clone(), 100);
        floorless.extend(shard.top_k(&mut pool, &query).expect("query"));
        floorless_postings += pool.metrics().postings_scanned;
    }
    sort_matches_desc(&mut floorless);
    floorless.truncate(query.k);

    assert_matches_agree("floor", &floorless, &floored.matches);
    assert!(
        floored.metrics.postings_scanned < floorless_postings,
        "the shared floor must prune strictly ({} floored vs {floorless_postings} floorless)",
        floored.metrics.postings_scanned,
    );
}

/// An inverted tenant's top-k is one threshold run over every shard's
/// lists under one θ, the tenant's k-th best partial sum. On this fixture
/// — shard 0 holds the high scores, as in
/// `cross_shard_floor_prunes_postings_without_changing_answers` — it
/// reads what the shard-by-shard plan it replaced reads, replayed by hand
/// on shards built alike: each shard's `top_k` once, in shard order,
/// floored at the k-th best gathered before it. The same answers, and the
/// same blocks, postings and candidates (pinned), but at most one Lemma 1
/// stop per query where the replay stops once per shard.
#[test]
fn an_inverted_tenant_runs_one_threshold_top_k_over_its_shards() {
    const SHARDS: usize = 3;
    let domain = Domain::anonymous(13);
    let data: Vec<(u64, Uda)> = (0..6000u64)
        .map(|i| {
            let high = if shard_of(i, SHARDS) == 0 { 0.5 } else { 0.0 };
            let p = ((i * 7919) % 6000 + 1) as f32 / 12002.0 + high;
            (i, uda(&[(4, p), (9, 1.0 - p)]))
        })
        .collect();
    let service = QueryService::new(InMemoryDisk::shared(), ServiceConfig::default());
    let build_shards = || -> Vec<InvertedBackend> {
        (0..SHARDS)
            .map(|s| {
                let part = data.iter().filter(|(t, _)| shard_of(*t, SHARDS) == s);
                let mut pool = BufferPool::with_capacity(service.store().clone(), 128);
                let idx =
                    InvertedIndex::build(domain.clone(), &mut pool, part.map(|(t, u)| (*t, u)))
                        .expect("in-memory build");
                pool.flush().expect("in-memory flush");
                InvertedBackend::with_strategy(idx, Strategy::Auto)
            })
            .collect()
    };
    let boxed = build_shards()
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn UncertainIndex + Send + Sync>)
        .collect();
    service.register_tenant(TenantConfig::new("t"), boxed);
    let replay = build_shards();

    // (k, floor, blocks decoded, postings scanned)
    let pinned = [
        (1, 0.0, 1, 128),
        (300, 0.0, 3, 384),
        (300, 0.2, 3, 384),
        (9000, 0.0, 49, 6000),
    ];
    for (k, floor, blocks, postings) in pinned {
        let query = TopKQuery {
            floor,
            ..TopKQuery::new(uda(&[(4, 1.0)]), k)
        };
        let got = service.top_k("t", &query).expect("query");

        let mut heap = TopKHeap::new(k, effective_floor(floor));
        let mut counted = QueryMetrics::new();
        let mut unfloored = 0;
        for shard in &replay {
            let floored = TopKQuery {
                floor: heap.threshold(),
                ..query.clone()
            };
            let mut pool = BufferPool::with_capacity(service.store().clone(), 100);
            for m in shard.top_k(&mut pool, &floored).expect("query") {
                heap.offer(m.tid, m.score);
            }
            counted.merge(&pool.metrics());
            let mut pool = BufferPool::with_capacity(service.store().clone(), 100);
            shard.top_k(&mut pool, &query).expect("query");
            unfloored += pool.metrics().postings_scanned;
        }
        assert_matches_agree("one run", &heap.into_sorted(), &got.matches);
        if k == 300 {
            assert!(
                counted.postings_scanned < unfloored,
                "the floor saves blocks"
            );
        }
        let what = format!("k = {k}, floor {floor}");
        let got = got.metrics;
        assert_eq!(
            (got.blocks_decoded, got.postings_scanned),
            (blocks, postings),
            "{what}"
        );
        assert!(got.lemma1_stops <= 1, "{what}: {got:?}");
        let mut got = QueryMetrics {
            lemma1_stops: counted.lemma1_stops,
            ..got
        };
        for m in [&mut got, &mut counted] {
            m.io = IoStats {
                logical_reads: m.io.logical_reads,
                ..IoStats::default()
            };
        }
        assert_eq!(got, counted, "{what}");
    }
}

/// A traced PDR-tree top-k is one query: one `query` root span, and under
/// it the shards' `tree_traversal` spans — one per step of the shared
/// search, so at least one per shard (each shard's root is read).
#[test]
fn a_traced_pdr_top_k_is_one_query_over_every_shards_traversal() {
    const SHARDS: usize = 3;
    let (domain, data) = seeded_dataset(5000);
    let service = QueryService::new(InMemoryDisk::shared(), ServiceConfig::default());
    service
        .register_tenant_pdr(TenantConfig::new("pdr"), &domain, &data, SHARDS)
        .expect("in-memory build");
    service.set_tracing(true);
    let out = service
        .top_k("pdr", &TopKQuery::new(uda(&[(4, 0.6), (9, 0.4)]), 30))
        .expect("query");
    let trace = out.trace.expect("tracing attaches a trace");
    let roots: Vec<_> = trace.spans.iter().filter(|s| s.is_root()).collect();
    assert_eq!(roots.len(), 1, "{trace:?}");
    assert_eq!(roots[0].phase, Phase::Query);
    let steps = trace
        .spans
        .iter()
        .filter(|s| s.phase == Phase::TreeTraversal)
        .inspect(|s| assert_eq!(s.parent, 0, "a step runs right under the root"))
        .count() as u64;
    assert!(steps >= SHARDS as u64, "{steps} traversal spans");
    assert!(steps >= out.metrics.nodes_visited, "one span per node read");
    assert_eq!(out.matches.len(), 30);
}

/// Several clients over several tenants at once: four threads each run
/// a fixed PETQ / top-k / DSTQ mix against an inverted and a PDR tenant.
/// Every answer is tid-exact against the scan baseline, and each
/// tenant's statistics account for exactly the requests issued (four
/// clients fit the default quota, so none waits its way to a reject).
#[test]
fn concurrent_clients_over_two_tenants_get_exact_answers_and_counts() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 6;
    let (domain, data) = seeded_dataset(2000);
    let service = QueryService::new(InMemoryDisk::shared(), ServiceConfig::default());
    service
        .register_tenant_inverted(TenantConfig::new("inv"), &domain, &data, 3, Strategy::Auto)
        .expect("in-memory build");
    service
        .register_tenant_pdr(TenantConfig::new("pdr"), &domain, &data, 2)
        .expect("in-memory build");

    // One query triple per (client, round), answered by the scan first.
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 256);
    let scan =
        ScanBaseline::build(&mut pool, data.iter().map(|(t, u)| (*t, u))).expect("in-memory build");
    let mix: Vec<_> = (0..CLIENTS * ROUNDS)
        .map(|i| {
            let c = (i % 13) as u32;
            let q = uda(&[(c, 0.7), ((c + 5) % 13, 0.3)]);
            let petq = EqQuery::new(q.clone(), 0.3);
            let topk = TopKQuery::new(q.clone(), 1 + i % 7);
            let dstq = DstQuery::new(q, 0.5, Divergence::L1);
            let want = (
                scan.petq(&mut pool, &petq).expect("query"),
                scan.top_k(&mut pool, &topk).expect("query"),
                scan.dstq(&mut pool, &dstq).expect("query"),
            );
            assert!(!want.0.is_empty() && !want.1.is_empty() && !want.2.is_empty());
            ((petq, topk, dstq), want)
        })
        .collect();

    let start = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (service, start) = (&service, &start);
            let rounds = &mix[client * ROUNDS..][..ROUNDS];
            s.spawn(move || {
                start.wait();
                for ((petq, topk, dstq), (want_petq, want_topk, want_dstq)) in rounds {
                    for tenant in ["inv", "pdr"] {
                        let got = service.petq(tenant, petq).expect("query");
                        assert_matches_agree(&format!("{tenant}/petq"), want_petq, &got.matches);
                        let got = service.top_k(tenant, topk).expect("query");
                        assert_matches_agree(&format!("{tenant}/top_k"), want_topk, &got.matches);
                        let got = service.dstq(tenant, dstq).expect("query");
                        assert_matches_agree(&format!("{tenant}/dstq"), want_dstq, &got.matches);
                    }
                }
            });
        }
    });

    for tenant in ["inv", "pdr"] {
        let stats = service.tenant_stats(tenant).expect("registered");
        assert_eq!(
            (stats.completed, stats.rejected, stats.failed),
            ((3 * CLIENTS * ROUNDS) as u64, 0, 0),
            "{tenant}: every issued request completes exactly once"
        );
    }
}

/// Tracing attaches one trace to every outcome: a PETQ or DSTQ over
/// three shards is one query under one `query` root, every shard's probe
/// inside it, as a top-k is.
#[test]
fn a_traced_select_is_one_trace_under_one_root() {
    let (domain, data) = seeded_dataset(500);
    let service = QueryService::new(InMemoryDisk::shared(), ServiceConfig::default());
    service
        .register_tenant_inverted(
            TenantConfig::new("t"),
            &domain,
            &data,
            3,
            Strategy::ColumnPruning,
        )
        .expect("in-memory build");
    let petq = EqQuery::new(uda(&[(1, 1.0)]), 0.3);
    let out = service.petq("t", &petq).expect("query");
    assert!(out.trace.is_none(), "tracing is off by default");

    service.set_tracing(true);
    let dstq = DstQuery::new(uda(&[(1, 0.8), (6, 0.2)]), 0.5, Divergence::L1);
    let outs = [
        ("petq", service.petq("t", &petq).expect("query")),
        ("dstq", service.dstq("t", &dstq).expect("query")),
    ];
    for (what, out) in outs {
        assert!(!out.matches.is_empty(), "{what}");
        let trace = out.trace.expect("tracing attaches a trace");
        let roots: Vec<_> = trace.spans.iter().filter(|s| s.is_root()).collect();
        assert_eq!(roots.len(), 1, "{what}: {trace:?}");
        assert_eq!(roots[0].phase, Phase::Query);
        // The root, and at least one span per shard's probe under it.
        assert!(trace.spans.len() > 3, "{what}: {trace:?}");
    }
}

/// A bad `threads` argument is clamped, not a panic in the caller: zero
/// workers means one, and `usize::MAX` workers — priced at a saturated
/// frame cost, admitted alone — means one per outer tuple.
#[test]
fn a_join_with_zero_threads_runs_on_one_worker() {
    let (domain, data) = seeded_dataset(1500);
    let service = QueryService::new(InMemoryDisk::shared(), ServiceConfig::default());
    service
        .register_tenant_inverted(TenantConfig::new("t"), &domain, &data, 2, Strategy::Auto)
        .expect("in-memory build");
    let outer: Vec<(u64, Uda)> = (0..10)
        .map(|i| (1_000_000 + i, uda(&[((i % 13) as u32, 1.0)])))
        .collect();
    let spec = JoinSpec::PejTopK { k: 6 };
    let one = service.join("t", &outer, spec, 1).expect("join");
    let zero = service.join("t", &outer, spec, 0).expect("join");
    assert_eq!(zero.pairs, one.pairs);
    assert!(!zero.pairs.is_empty());
    let max = service.join("t", &outer, spec, usize::MAX).expect("join");
    assert_eq!(max.pairs, one.pairs);
    // The quota it was priced at came back.
    assert_eq!(service.tenant_admission("t").expect("tenant"), (0, 0));
    service
        .petq("t", &EqQuery::new(uda(&[(4, 1.0)]), 0.5))
        .expect("the tenant still admits");
    assert_eq!(service.tenant_stats("t").expect("tenant").completed, 4);
}

/// A query that dies inside a shard is counted (`failed`), fails alone
/// with a typed error, and leaves the service, the pool and the other
/// tenant as they were.
#[test]
fn a_read_failure_fails_one_query_of_one_tenant_and_is_counted() {
    let (domain, data) = seeded_dataset(3000);
    let faults = Arc::new(FaultStore::new(InMemoryDisk::shared(), 11));
    let service = QueryService::new(faults.clone(), ServiceConfig::default());
    for name in ["a", "b"] {
        service
            .register_tenant_inverted(TenantConfig::new(name), &domain, &data, 2, Strategy::Auto)
            .expect("in-memory build");
    }
    let (reference, mut ref_pool) = reference_backend(&domain, &data);
    let query = EqQuery::new(uda(&[(4, 1.0)]), 0.5);
    let want = reference.petq(&mut ref_pool, &query).expect("query");

    let before = service.petq("b", &query).expect("query");
    assert_matches_agree("b/before", &want, &before.matches);

    // Tenant a's shards were never read: its first page read is physical.
    faults.arm(Fault::FailRead {
        after: faults.reads_so_far() + 1,
    });
    let err = service.petq("a", &query).unwrap_err();
    assert!(
        matches!(err, ServiceError::Storage(StorageError::Io { .. })),
        "{err}"
    );
    let stats = service.tenant_stats("a").expect("tenant");
    assert_eq!((stats.failed, stats.completed, stats.rejected), (1, 0, 0));
    assert_eq!(service.tenant_admission("a").expect("tenant"), (0, 0));

    let retry = service.petq("a", &query).expect("the fault fired once");
    assert_matches_agree("a/retry", &want, &retry.matches);
    let stats = service.tenant_stats("a").expect("tenant");
    assert_eq!((stats.failed, stats.completed), (1, 1));

    let after = service.petq("b", &query).expect("query");
    assert_matches_agree("b/after", &want, &after.matches);
    let stats = service.tenant_stats("b").expect("tenant");
    assert_eq!((stats.failed, stats.completed), (0, 2));
}

// --- Admission control ---

/// A gate the test controls: probes block inside the index until the
/// test releases them, so admission states are observable at leisure.
struct Gate {
    state: Mutex<(usize, usize)>, // (probes entered, releases granted)
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
        })
    }

    /// Called by the index: announce entry, then hold until released.
    fn enter(&self) {
        let mut st = self.state.lock().unwrap();
        st.0 += 1;
        self.cv.notify_all();
        while st.1 == 0 {
            st = self.cv.wait(st).unwrap();
        }
        st.1 -= 1;
    }

    /// Let one held probe finish.
    fn release(&self) {
        let mut st = self.state.lock().unwrap();
        st.1 += 1;
        self.cv.notify_all();
    }

    /// Block until `n` probes have entered the index.
    fn await_entered(&self, n: usize) {
        let mut st = self.state.lock().unwrap();
        while st.0 < n {
            st = self.cv.wait(st).unwrap();
        }
    }
}

/// A one-tuple index whose PETQ blocks on the gate — the knob that
/// keeps a tenant's quota pinned for as long as a test needs.
struct BlockingIndex {
    gate: Arc<Gate>,
}

impl UncertainIndex for BlockingIndex {
    fn petq(&self, pool: &mut BufferPool, _query: &EqQuery) -> Result<Vec<Match>, StorageError> {
        self.gate.enter();
        pool.tally(|_, metrics| metrics.postings_scanned += 1);
        Ok(vec![Match::new(7, 0.9)])
    }

    fn top_k(&self, _: &mut BufferPool, _: &TopKQuery) -> Result<Vec<Match>, StorageError> {
        Ok(Vec::new())
    }

    fn dstq(&self, _: &mut BufferPool, _: &DstQuery) -> Result<Vec<Match>, StorageError> {
        Ok(Vec::new())
    }

    fn ds_top_k(&self, _: &mut BufferPool, _: &DsTopKQuery) -> Result<Vec<Match>, StorageError> {
        Ok(Vec::new())
    }

    fn tuple_count(&self) -> u64 {
        1
    }

    fn backend_name(&self) -> &'static str {
        "blocking"
    }
}

/// The admission contract, end to end: with the quota pinned by a
/// running query, the next request queues (and stamps its wait into its
/// metrics), the one after that is rejected and counted — and nothing
/// deadlocks once the quota frees up.
#[test]
fn admission_queues_within_depth_and_rejects_beyond_it() {
    let gate = Gate::new();
    let service = QueryService::new(InMemoryDisk::shared(), ServiceConfig::default());
    service.register_tenant(
        TenantConfig::new("tight")
            .frame_quota(100)
            .queue_depth(1)
            .frames_per_query(100),
        vec![Box::new(BlockingIndex { gate: gate.clone() })],
    );
    let q = EqQuery::new(uda(&[(0, 1.0)]), 0.5);

    let (a_out, b_out) = std::thread::scope(|scope| {
        let a = scope.spawn(|| service.petq("tight", &q).expect("query A"));
        gate.await_entered(1); // A runs, holding the tenant's whole quota

        let b = scope.spawn(|| service.petq("tight", &q).expect("query B"));
        // B does not fit and parks in the (depth-1) admission queue.
        while service.tenant_admission("tight").unwrap().1 == 0 {
            std::thread::yield_now();
        }
        assert_eq!(service.tenant_admission("tight").unwrap(), (100, 1));

        // C finds the quota spent and the queue full: rejected outright.
        let err = service.petq("tight", &q).unwrap_err();
        assert!(matches!(err, ServiceError::Rejected { .. }), "{err}");

        gate.release(); // A finishes; B is admitted off the queue
        gate.await_entered(2);
        gate.release(); // B finishes
        (a.join().unwrap(), b.join().unwrap())
    });

    assert_eq!(a_out.metrics.admission_waits, 0, "A was admitted at once");
    assert_eq!(b_out.metrics.admission_waits, 1, "B waited for capacity");
    assert_eq!(a_out.matches, b_out.matches);

    let stats = service.tenant_stats("tight").expect("registered tenant");
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.metrics.admission_rejects, 1);
    assert_eq!(stats.metrics.admission_waits, 1);
    assert_eq!(stats.latency.count(), 2);
    assert_eq!(
        service.tenant_admission("tight").unwrap(),
        (0, 0),
        "the gate drains completely"
    );
}
