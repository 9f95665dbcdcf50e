//! Cross-index differential property tests.
//!
//! Three implementations answer every query in this workspace: the
//! probabilistic inverted index (under five search strategies plus
//! `Auto`, the default), the PDR-tree, and the full-scan baseline. They
//! share nothing but the data model, which makes them ideal
//! differential-testing oracles for each other: on proptest-generated
//! datasets and queries, all of them must return the same tuples in the
//! same order with the same scores, bit for bit. A pruning bug, a bound that is not actually an upper bound, or
//! a posting-list truncation shows up here as a divergence long before
//! it would be caught by a hand-written example.

use std::collections::BTreeMap;

use proptest::prelude::*;

use uncat::core::query::{effective_floor, DsTopKQuery, DstQuery, EqQuery, Match, TopKQuery};
use uncat::core::{CatId, Divergence, Domain, Uda};
use uncat::prelude::*;
use uncat::query::join::{block_join, index_join, parallel_join, JoinPair, JoinSpec};
use uncat::query::{
    BatchPools, DurableConfig, DurableIndex, DurableStorage, InvertedBackend, MutableBackend,
    ScanBaseline, Shards, UncertainIndex,
};
use uncat::service::shard_of;
use uncat_inverted::{InvertedIndex, Strategy as SearchStrategy};
use uncat_pdrtree::{PdrConfig, PdrTree};

const CATS: u32 = 8;

/// Cases per property: `default`, or the `PROPTEST_CASES` environment
/// variable when set (the nightly CI job raises it to 256; the vendored
/// proptest does not read the variable itself).
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Strategy: a valid sparse UDA over `cats` categories.
fn uda_strategy(cats: u32) -> impl Strategy<Value = Uda> {
    prop::collection::btree_map(0..cats, 0.01f32..1.0f32, 1..=(cats.min(6) as usize)).prop_map(
        |m| {
            let mut b = uncat::core::UdaBuilder::new();
            for (c, p) in m {
                b.push(CatId(c), p)
                    .expect("strategy emits valid probabilities");
            }
            b.finish_normalized().expect("at least one entry")
        },
    )
}

fn dataset_strategy(cats: u32, max_n: usize) -> impl Strategy<Value = Vec<(u64, Uda)>> {
    prop::collection::vec(uda_strategy(cats), 1..=max_n).prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, u)| (i as u64, u))
            .collect()
    })
}

/// Every backend under test, each with its own name for failure output.
/// The scan baseline is positionally first: it is the semantic reference
/// the others are diffed against. The last is one relation over three
/// shards ([`three_shards`]).
fn all_backends(
    pool: &mut BufferPool,
    tuples: &[(u64, Uda)],
) -> Vec<(String, Box<dyn UncertainIndex>)> {
    let mut backends: Vec<(String, Box<dyn UncertainIndex>)> = vec![(
        "scan".into(),
        Box::new(
            ScanBaseline::build(pool, tuples.iter().map(|(t, u)| (*t, u)))
                .expect("in-memory build"),
        ),
    )];
    // The five fixed strategies plus the default: Auto must be
    // indistinguishable from the others on results (its top-k runs the
    // block-granular threshold executor, theirs the drain).
    for strategy in SearchStrategy::ALL
        .into_iter()
        .chain([SearchStrategy::Auto])
    {
        let idx = InvertedIndex::build(
            Domain::anonymous(CATS),
            pool,
            tuples.iter().map(|(t, u)| (*t, u)),
        )
        .expect("in-memory build");
        backends.push((
            format!("inverted/{}", strategy.name()),
            Box::new(InvertedBackend::with_strategy(idx, strategy)),
        ));
    }
    backends.push((
        "pdr-tree".into(),
        Box::new(
            PdrTree::build(
                Domain::anonymous(CATS),
                PdrConfig::default(),
                pool,
                tuples.iter().map(|(t, u)| (*t, u)),
            )
            .expect("in-memory build"),
        ),
    ));
    backends.push(("shards".into(), Box::new(three_shards(pool, tuples))));
    backends
}

/// `tuples` split `shard_of`-wise three ways, as the service splits a
/// tenant, into an inverted index under `Auto`, a PDR-tree and a scan.
fn three_shards(pool: &mut BufferPool, tuples: &[(u64, Uda)]) -> Shards {
    let part = |s| {
        tuples
            .iter()
            .filter(move |(tid, _)| shard_of(*tid, 3) == s)
            .map(|(tid, u)| (*tid, u))
    };
    let inverted =
        InvertedIndex::build(Domain::anonymous(CATS), pool, part(0)).expect("in-memory build");
    let pdr = PdrTree::build(Domain::anonymous(CATS), PdrConfig::default(), pool, part(1))
        .expect("in-memory build");
    let scan = ScanBaseline::build(pool, part(2)).expect("in-memory build");
    Shards::new(vec![
        Box::new(InvertedBackend::with_strategy(
            inverted,
            SearchStrategy::Auto,
        )),
        Box::new(pdr),
        Box::new(scan),
    ])
}

/// Outer relation for join tests: tids are offset so they never collide
/// with inner tids and a swapped left/right shows up immediately.
fn outer_strategy(cats: u32, max_n: usize) -> impl Strategy<Value = Vec<(u64, Uda)>> {
    prop::collection::vec(uda_strategy(cats), 1..=max_n).prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, u)| (1_000_000 + i as u64, u))
            .collect()
    })
}

/// One of the paper's three join forms, with generated parameters
/// (selector-and-map in place of `prop_oneof`, which the vendored
/// proptest does not provide).
fn spec_strategy() -> impl Strategy<Value = JoinSpec> {
    (0u32..6, 0.01f64..0.9, 1usize..12).prop_map(|(sel, t, k)| match sel {
        0 | 1 => JoinSpec::Petj { tau: t },
        2 | 3 => JoinSpec::PejTopK { k },
        4 => JoinSpec::Dstj {
            tau_d: t * 1.6,
            divergence: Divergence::L1,
        },
        _ => JoinSpec::Dstj {
            tau_d: t * 1.6,
            divergence: Divergence::L2,
        },
    })
}

/// Same pairs, same order, the reference's scores bit for bit.
fn assert_pairs_agree(what: &str, name: &str, reference: &[JoinPair], got: &[JoinPair]) {
    assert_eq!(
        got.iter().map(|p| (p.left, p.right)).collect::<Vec<_>>(),
        reference
            .iter()
            .map(|p| (p.left, p.right))
            .collect::<Vec<_>>(),
        "{what}: {name} returned different pairs than the block plan"
    );
    for (r, g) in reference.iter().zip(got) {
        assert!(
            r.score.to_bits() == g.score.to_bits(),
            "{what}: {name} scored pair ({}, {}) as {} vs {}",
            g.left,
            g.right,
            g.score,
            r.score
        );
    }
}

/// Same tuples, same order, the reference's scores bit for bit.
fn assert_matches_agree(what: &str, name: &str, reference: &[Match], got: &[Match]) {
    assert_eq!(
        got.iter().map(|m| m.tid).collect::<Vec<_>>(),
        reference.iter().map(|m| m.tid).collect::<Vec<_>>(),
        "{what}: {name} returned different tuples than scan"
    );
    for (r, g) in reference.iter().zip(got) {
        assert!(
            r.score.to_bits() == g.score.to_bits(),
            "{what}: {name} scored tuple {} as {} vs scan's {}",
            g.tid,
            g.score,
            r.score
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    #[test]
    fn petq_agrees_across_every_index_and_strategy(
        tuples in dataset_strategy(CATS, 60),
        q in uda_strategy(CATS),
        tau in 0.01f64..0.9,
    ) {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 100);
        let backends = all_backends(&mut pool, &tuples);
        let query = EqQuery::new(q, tau);
        let reference = backends[0].1.petq(&mut pool, &query).expect("in-memory query");
        for (name, backend) in &backends[1..] {
            let got = backend.petq(&mut pool, &query).expect("in-memory query");
            assert_matches_agree("petq", name, &reference, &got);
        }
    }

    // Every backend under a query floor of 0, exactly at a score of the
    // answer, just under the midpoint of two of its scores, NaN or +∞ (the
    // last two mean "no floor"): the scan's unfloored answer cut to the
    // scores at or above a finite floor. Every backend scores a tuple to
    // the scan's bits, so a floor at a score keeps exactly its ties.
    #[test]
    fn top_k_agrees_across_every_index_and_strategy(
        tuples in dataset_strategy(CATS, 60),
        q in uda_strategy(CATS),
        k in 1usize..15,
        (floor_kind, floor_at) in (0u8..5, 0usize..15),
    ) {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 100);
        let backends = all_backends(&mut pool, &tuples);
        let mut reference = backends[0]
            .1
            .top_k(&mut pool, &TopKQuery::new(q.clone(), k))
            .expect("in-memory query");
        // Zero-probability tuples are never returned, so the result may
        // be shorter than k; the property is agreement, not length.
        prop_assert!(reference.len() <= k);
        let score = |i: usize| reference.get(i % reference.len().max(1)).map_or(0.5, |m| m.score);
        let floor = match floor_kind {
            0 => 0.0,
            1 => score(floor_at),
            2 => (score(floor_at) + score(floor_at + 1)) / 2.0 - 1e-12,
            3 => f64::NAN,
            _ => f64::INFINITY,
        };
        if floor.is_finite() {
            reference.retain(|m| m.score >= floor);
        }
        let query = TopKQuery { floor, ..TopKQuery::new(q, k) };
        for (name, backend) in &backends {
            let got = backend.top_k(&mut pool, &query).expect("in-memory query");
            assert_matches_agree(&format!("top_k floor {floor}"), name, &reference, &got);
        }
    }

    // The two top-k executors of the inverted index — the paper's drain,
    // which a fixed strategy runs, and the block-granular threshold
    // executor `Strategy::Auto` runs — against the scan baseline: same
    // tuples, same scores, for k from 1 to past the candidate count, with
    // no floor and with a floor that cuts the answer short. Every
    // generated tuple is stored twenty times over, so the k-th score sits
    // on a tie plateau; the counters must show the threshold executor's
    // profile.
    #[test]
    fn top_k_drain_and_scan_plans_agree_with_and_without_a_floor(
        tuples in dataset_strategy(CATS, 60),
        q in uda_strategy(CATS),
        k in 1usize..80,
        floored in 0u8..2,
        floor in 0.01f64..0.6,
    ) {
        let copies: Vec<(u64, &Uda)> = (0..20u64)
            .flat_map(|r| tuples.iter().map(move |(t, u)| (t + 100 * r, u)))
            .collect();
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 100);
        let scan = ScanBaseline::build(&mut pool, copies.iter().copied()).expect("in-memory build");
        let idx = InvertedIndex::build(Domain::anonymous(CATS), &mut pool, copies.iter().copied())
            .expect("in-memory build");
        let query = TopKQuery {
            floor: if floored == 1 { floor } else { 0.0 },
            ..TopKQuery::new(q.clone(), k)
        };
        let reference = scan.top_k(&mut pool, &query).expect("in-memory query");
        // A fixed strategy runs the drain, whatever it costs.
        let drained = idx
            .top_k_planned(&mut pool, &query, SearchStrategy::Nra)
            .expect("in-memory query");
        assert_matches_agree("top_k/drain", "inverted", &reference, &drained);
        pool.reset_stats();
        let planned = idx
            .top_k_planned(&mut pool, &query, SearchStrategy::Auto)
            .expect("in-memory query");
        let m = pool.metrics();
        assert_matches_agree("top_k/planned", "inverted", &reference, &planned);

        // The threshold executor's profile: each query list opened once,
        // every block of it decoded or skipped, every tuple met pruned or
        // settled from the lists, none fetched, no per-posting pops.
        let stats = idx.cost_stats();
        let lists: Vec<_> = q.iter().filter_map(|(c, _)| stats.cats.get(&c)).collect();
        let blocks: u64 = lists.iter().map(|s| s.blocks as u64).sum();
        prop_assert!(m.candidate_invariant_holds());
        prop_assert_eq!(m.lists_opened, lists.len() as u64);
        prop_assert_eq!(m.blocks_decoded + m.blocks_skipped, blocks);
        prop_assert_eq!((m.candidates_verified, m.frontier_pops), (0, 0));
    }

    #[test]
    fn dstq_agrees_across_every_index_and_divergence(
        tuples in dataset_strategy(CATS, 60),
        q in uda_strategy(CATS),
        radius in 0.05f64..1.5,
    ) {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 100);
        let backends = all_backends(&mut pool, &tuples);
        for dv in [Divergence::L1, Divergence::L2] {
            let query = DstQuery::new(q.clone(), radius, dv);
            let reference = backends[0].1.dstq(&mut pool, &query).expect("in-memory query");
            for (name, backend) in &backends[1..] {
                let got = backend.dstq(&mut pool, &query).expect("in-memory query");
                assert_matches_agree("dstq", name, &reference, &got);
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    // Radii that bound nothing the usual way, under every divergence: a
    // negative one admits nothing, ±0 only the tuples at distance 0 (the
    // query itself is a tuple in half the cases), NaN nothing and +∞
    // everything. DS-top-k at k = 0 returns nothing and past the
    // relation's size everything. Every index answers as the scan does,
    // and for a radius that admits nothing no index reads a node or a
    // posting.
    #[test]
    fn degenerate_radii_and_k_agree_across_every_index(
        tuples in dataset_strategy(CATS, 40),
        q in uda_strategy(CATS),
        with_q in 0u8..2,
    ) {
        let mut tuples = tuples;
        if with_q == 1 {
            tuples.push((tuples.len() as u64, q.clone()));
        }
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 100);
        let backends = all_backends(&mut pool, &tuples);
        let n = tuples.len();
        for dv in Divergence::ALL {
            for radius in [-0.5, -0.0, 0.0, f64::NAN, f64::INFINITY] {
                let query = DstQuery::new(q.clone(), radius, dv);
                let reference = backends[0].1.dstq(&mut pool, &query).expect("in-memory query");
                match radius {
                    r if r.is_nan() || r < 0.0 => prop_assert!(reference.is_empty()),
                    r if r.is_infinite() => prop_assert_eq!(reference.len(), n),
                    _ => {}
                }
                for (name, backend) in &backends[1..] {
                    let before = pool.metrics();
                    let got = backend.dstq(&mut pool, &query).expect("in-memory query");
                    assert_matches_agree(&format!("dstq/{dv:?}/{radius}"), name, &reference, &got);
                    if radius.is_nan() || radius < 0.0 {
                        let m = pool.metrics().since(&before);
                        let read = (m.nodes_visited, m.postings_scanned);
                        prop_assert_eq!(read, (0, 0), "{} {:?} {}", name, dv, radius);
                    }
                }
            }
            for k in [0, n + 1, usize::MAX] {
                let query = DsTopKQuery::new(q.clone(), k, dv);
                let reference = backends[0].1.ds_top_k(&mut pool, &query).expect("in-memory query");
                prop_assert_eq!(reference.len(), k.min(n));
                for (name, backend) in &backends[1..] {
                    let got = backend.ds_top_k(&mut pool, &query).expect("in-memory query");
                    assert_matches_agree(&format!("ds_top_k/{dv:?}/{k}"), name, &reference, &got);
                }
            }
        }
    }

    // Block lists, with the block-max skips every strategy takes, must
    // return the scan baseline's tuples with its scores, bit for bit,
    // under every strategy, and their block accounting must balance (every
    // block of every opened list is either decoded or charged as
    // skipped).
    #[test]
    fn block_lists_agree_with_the_scan_and_account_blocks(
        tuples in dataset_strategy(CATS, 60),
        q in uda_strategy(CATS),
        tau in 0.01f64..0.9,
        k in 1usize..15,
    ) {
        check_block_lists(&tuples, &q, tau, k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    // See `check_join_plans_agree` for the property; the body lives in a
    // plain function because `proptest!`'s recursive expansion is
    // token-hungry.
    #[test]
    fn join_plans_agree_across_backends(
        tuples in dataset_strategy(CATS, 40),
        outer in outer_strategy(CATS, 10),
        spec in spec_strategy(),
        threads in 1usize..4,
    ) {
        check_join_plans_agree(&tuples, &outer, spec, threads);
    }
}

// --- Sharded service scatter-gather differential ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    // The multi-tenant service's sharding is pure routing: for 1–4
    // shards and 1–3 tenants (alternating inverted and PDR-tree
    // backends), PETQ, top-k, DSTQ, and the PEJ-top-k join must gather
    // into exactly the unsharded (scan-baseline) answer, and a PETQ's
    // merged counters must equal the sum of probing each shard's index
    // directly — the partition, the merge, and nothing else.
    #[test]
    fn sharded_service_agrees_with_single_shard_plan(
        tuples in dataset_strategy(CATS, 60),
        outer in outer_strategy(CATS, 8),
        q in uda_strategy(CATS),
        tau in 0.01f64..0.9,
        k in 1usize..12,
        shards in 1usize..=4,
        tenants in 1usize..=3,
        threads in 1usize..3,
    ) {
        check_sharded_service(&tuples, &outer, &q, (tau, k), (shards, tenants, threads));
    }
}

fn check_sharded_service(
    tuples: &[(u64, Uda)],
    outer: &[(u64, Uda)],
    q: &Uda,
    (tau, k): (f64, usize),
    (shards, tenants, threads): (usize, usize, usize),
) {
    use uncat::service::{QueryService, ServiceConfig, TenantConfig};

    let domain = Domain::anonymous(CATS);
    let service = QueryService::new(InMemoryDisk::shared(), ServiceConfig::default());
    for t in 0..tenants {
        let config = TenantConfig::new(format!("t{t}"));
        if t % 2 == 0 {
            service
                .register_tenant_inverted(config, &domain, tuples, shards, SearchStrategy::Auto)
                .expect("in-memory build");
        } else {
            service
                .register_tenant_pdr(config, &domain, tuples, shards)
                .expect("in-memory build");
        }
    }

    // Unsharded reference answers from the scan baseline.
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 100);
    let scan = ScanBaseline::build(&mut pool, tuples.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory build");
    let petq = EqQuery::new(q.clone(), tau);
    let topk = TopKQuery::new(q.clone(), k);
    let dstq = DstQuery::new(q.clone(), 1.0, Divergence::L1);
    let want_petq = scan.petq(&mut pool, &petq).expect("in-memory query");
    let want_topk = scan.top_k(&mut pool, &topk).expect("in-memory query");
    let want_dstq = scan.dstq(&mut pool, &dstq).expect("in-memory query");
    let spec = JoinSpec::PejTopK { k };
    let want_join = block_join(outer, &scan, &mut pool, spec)
        .expect("in-memory join")
        .pairs;

    for t in 0..tenants {
        let name = format!("t{t}");
        let got = service.petq(&name, &petq).expect("in-memory query");
        assert_matches_agree("service/petq", &name, &want_petq, &got.matches);
        let got_topk = service.top_k(&name, &topk).expect("in-memory query");
        assert_matches_agree("service/top_k", &name, &want_topk, &got_topk.matches);
        let got_dstq = service.dstq(&name, &dstq).expect("in-memory query");
        assert_matches_agree("service/dstq", &name, &want_dstq, &got_dstq.matches);
        let got_join = service
            .join(&name, outer, spec, threads)
            .expect("in-memory join");
        assert_pairs_agree("service/join", &name, &want_join, &got_join.pairs);

        // Merged PETQ counters are exactly the sum of probing the same
        // partition's shard indexes directly (inverted tenants only;
        // the I/O block rides the service's shared pool and is compared
        // by the service tests instead).
        if t % 2 == 0 {
            let mut manual = QueryMetrics::new();
            let mut mpool = BufferPool::with_capacity(InMemoryDisk::shared(), 100);
            for s in 0..shards {
                let part: Vec<(u64, &Uda)> = tuples
                    .iter()
                    .filter(|(tid, _)| shard_of(*tid, shards) == s)
                    .map(|(tid, u)| (*tid, u))
                    .collect();
                let idx = InvertedIndex::build(domain.clone(), &mut mpool, part.iter().copied())
                    .expect("in-memory build");
                let shard = InvertedBackend::with_strategy(idx, SearchStrategy::Auto);
                let before = mpool.metrics();
                shard.petq(&mut mpool, &petq).expect("in-memory query");
                manual.merge(&mpool.metrics().since(&before));
            }
            let mut got_counters = got.metrics;
            got_counters.io = IoStats::default();
            manual.io = IoStats::default();
            assert_eq!(
                got_counters, manual,
                "{name}: the service merge must equal the per-shard sum"
            );
        }
    }
}

// --- Service top-k: one search over every shard ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(8)))]

    // A service top-k steps every shard's search against one heap. On
    // PDR-tree tenants, inverted ones, and mixed ones (inverted on even
    // shards, PDR-tree on odd) of 1–9 shards, for k = 0, a few, n, past n
    // and `usize::MAX`, with and without a caller floor: the answer is
    // the scan's, tid for tid and bit for bit; the PDR-tree counters are
    // never above the plan that probed the shards one by one, each
    // floored at the k-th best an earlier shard proved; an inverted
    // tenant stops by Lemma 1 at most once; and one shard counts exactly
    // what its own `top_k` does. Every tuple is stored a few times, so
    // scores tie across shards, and there are enough of them for every
    // shard to be a tree of several leaves. At nine shards each inverted
    // shard alone would find its records through a map, and their one
    // run over all of them through the flat index.
    #[test]
    fn service_top_k_is_one_search_over_every_shard(
        distinct in prop::collection::vec(uda_strategy(CATS), 100..=400),
        copies in 2u64..8,
        q in uda_strategy(CATS),
        small_k in 1usize..400,
        floor in (any::<bool>(), 0.01f64..0.6).prop_map(|(on, f)| if on { f } else { 0.0 }),
        shards in 1usize..=9,
        backends in (0usize..3)
            .prop_map(|b| [Backends::PdrTree, Backends::Inverted, Backends::Mixed][b]),
    ) {
        let tuples: Vec<(u64, Uda)> = (0..copies)
            .flat_map(|r| {
                distinct
                    .iter()
                    .enumerate()
                    .map(move |(i, u)| (r * 1000 + i as u64, u.clone()))
            })
            .collect();
        check_service_top_k(&tuples, &q, small_k, floor, shards, backends, CATS);
    }
}

/// Which index each shard of a tenant is.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Backends {
    PdrTree,
    Inverted,
    /// Inverted on even shards, PDR-tree on odd.
    Mixed,
}

/// A query over more than 32 categories on a two-shard inverted tenant:
/// more than 64 query lists in one threshold run, each shard's within
/// the seen-set mask — and, over 70 categories, past it. The answer is
/// the scan's, tid for tid and bit for bit.
#[test]
fn an_inverted_top_k_over_more_than_64_lists_is_the_scans() {
    const WIDE: u32 = 70;
    let tuples: Vec<(u64, Uda)> = (0..1200u64)
        .map(|i| {
            let mut b = uncat::core::UdaBuilder::new();
            for j in 0..5u64 {
                let cat = ((i % 400) * 7 + j * 11) % WIDE as u64;
                let p = 1.0 + ((i % 400 + j) % 9) as f32;
                b.push(CatId(cat as u32), p / 50.0)
                    .expect("a valid probability");
            }
            (i, b.finish_normalized().expect("five entries"))
        })
        .collect();
    for cats in [40, WIDE] {
        let mut b = uncat::core::UdaBuilder::new();
        for c in 0..cats {
            b.push(CatId(c), (1 + c % 5) as f32 / 400.0)
                .expect("a valid probability");
        }
        let q = b.finish_normalized().expect("a wide query");
        check_service_top_k(&tuples, &q, 25, 0.0, 2, Backends::Inverted, WIDE);
    }
}

/// Copies of CRM1 tuples that share at least three categories with the
/// query, on a mixed tenant of three shards (inverted, PDR-tree,
/// inverted): each copy is scored to the scan's bits on either backend,
/// so the copies tie as the scan ties them and the service's top-k is the
/// scan's, tid for tid and bit for bit. Three terms or more are where
/// summing in another order moves the last bit.
#[test]
fn mixed_tenant_top_k_is_the_scans_bit_for_bit_on_crm1() {
    use uncat::datagen::crm::{crm1, DOMAIN_SIZE};

    for seed in 0..6 {
        let (_, data) = crm1(3000, seed);
        // The widest tuple over the most popular (lowest) categories.
        let q = data
            .iter()
            .map(|(_, u)| u)
            .filter(|u| u.len() >= 4)
            .min_by_key(|u| u.iter().map(|(c, _)| c.0).sum::<u32>())
            .expect("a wide tuple")
            .clone();
        let shared: Vec<&Uda> = data
            .iter()
            .map(|(_, u)| u)
            .filter(|u| u.iter().filter(|&(c, _)| q.prob_of(c) > 0.0).count() >= 3)
            .take(150)
            .collect();
        assert!(shared.len() >= 20, "seed {seed}: {} tuples", shared.len());
        let tuples: Vec<(u64, Uda)> = (0..4u64)
            .flat_map(|r| {
                (0u64..)
                    .zip(&shared)
                    .map(move |(i, u)| (r * 1000 + i, (*u).clone()))
            })
            .collect();
        check_service_top_k(&tuples, &q, 37, 0.0, 3, Backends::Mixed, DOMAIN_SIZE);
    }
}

fn check_service_top_k(
    tuples: &[(u64, Uda)],
    q: &Uda,
    small_k: usize,
    floor: f64,
    shards: usize,
    backends: Backends,
    cats: u32,
) {
    use uncat::service::{QueryService, ServiceConfig, TenantConfig};

    let domain = Domain::anonymous(cats);
    let service = QueryService::new(InMemoryDisk::shared(), ServiceConfig::default());
    // Each call builds the tenant's shards alike on the service's store:
    // one set for the service, one to replay the sequential plan on.
    let build = || -> Vec<Box<dyn UncertainIndex + Send + Sync>> {
        (0..shards)
            .map(|s| {
                let part = tuples
                    .iter()
                    .filter(|(tid, _)| shard_of(*tid, shards) == s)
                    .map(|(tid, u)| (*tid, u));
                let mut pool = BufferPool::with_capacity(service.store().clone(), 128);
                let inverted = match backends {
                    Backends::PdrTree => false,
                    Backends::Inverted => true,
                    Backends::Mixed => s % 2 == 0,
                };
                let shard: Box<dyn UncertainIndex + Send + Sync> = if inverted {
                    let idx = InvertedIndex::build(domain.clone(), &mut pool, part)
                        .expect("in-memory build");
                    Box::new(InvertedBackend::with_strategy(idx, SearchStrategy::Auto))
                } else {
                    Box::new(
                        PdrTree::bulk_build(domain.clone(), PdrConfig::default(), &mut pool, part)
                            .expect("in-memory build"),
                    )
                };
                pool.flush().expect("in-memory flush");
                shard
            })
            .collect()
    };
    service.register_tenant(TenantConfig::new("t"), build());
    // The same shards with the upper half behind one nested `Shards`: its
    // search is one child of the tenant's and must step as the flat one.
    let mut nested = build();
    let upper = nested.split_off(shards / 2);
    nested.push(Box::new(Shards::new(upper)));
    service.register_tenant(TenantConfig::new("nested"), nested);
    let replay = build();
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 100);
    let scan = ScanBaseline::build(&mut pool, tuples.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory build");
    let mut rpool = BufferPool::with_capacity(service.store().clone(), 100);

    let n = tuples.len();
    for k in [0, small_k, n, n + 7, usize::MAX] {
        let query = TopKQuery {
            floor,
            ..TopKQuery::new(q.clone(), k)
        };
        let what = format!("service top-k, k = {k}, floor {floor}, {shards} shards, {backends:?}");
        let got = service.top_k("t", &query).expect("in-memory query");
        let want = scan.top_k(&mut pool, &query).expect("in-memory query");
        let bits = |ms: &[Match]| -> Vec<(u64, u64)> {
            ms.iter().map(|m| (m.tid, m.score.to_bits())).collect()
        };
        assert_eq!(
            bits(&got.matches),
            bits(&want),
            "{what}: not the scan's answer"
        );
        let logical = |m: &QueryMetrics| QueryMetrics {
            io: IoStats {
                logical_reads: m.io.logical_reads,
                ..IoStats::default()
            },
            ..*m
        };
        let inner = service.top_k("nested", &query).expect("in-memory query");
        assert_eq!(
            bits(&inner.matches),
            bits(&want),
            "{what}: nested, not the scan's answer"
        );
        assert_eq!(
            logical(&inner.metrics),
            logical(&got.metrics),
            "{what}: a nested search must step as the flat one"
        );

        // The sequential plan: shard by shard, each probe floored at the
        // best k-th best an earlier shard proved.
        let mut shared = effective_floor(query.floor);
        let before = rpool.metrics();
        for shard in &replay {
            let floored = TopKQuery {
                floor: shared,
                ..query.clone()
            };
            let matches = shard.top_k(&mut rpool, &floored).expect("in-memory query");
            if matches.len() >= k {
                if let Some(kth) = matches.last() {
                    shared = shared.max(kth.score);
                }
            }
        }
        let sequential = rpool.metrics().since(&before);
        assert!(
            got.metrics.nodes_visited <= sequential.nodes_visited
                && got.metrics.leaf_entries_examined <= sequential.leaf_entries_examined,
            "{what}: one search read more than the sequential plan: {:?} vs {:?}",
            got.metrics,
            sequential
        );
        if backends == Backends::Inverted {
            assert!(got.metrics.lemma1_stops <= 1, "{what}: {:?}", got.metrics);
        }
        if shards == 1 && backends != Backends::Mixed {
            let (mut one, mut own) = (got.metrics, sequential);
            for m in [&mut one, &mut own] {
                m.io = IoStats {
                    logical_reads: m.io.logical_reads,
                    ..IoStats::default()
                };
            }
            assert_eq!(one, own, "{what}: one shard must count as its own `top_k`");
        }
    }
}

// --- Interleaved mutation / query differential ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    // A mutated index must be indistinguishable from one rebuilt from
    // scratch. Both durable backends apply the same interleaved schedule
    // of inserts, updates, and deletes (with group commit batching and
    // auto-checkpoints firing mid-schedule); at every query point and
    // after a final crash-free reopen they must answer PETQ, top-k, and
    // DSTQ identically to a scan baseline and freshly built indexes over
    // the evolved model.
    #[test]
    fn interleaved_mutations_agree_with_rebuilt_indexes(
        initial in dataset_strategy(CATS, 30),
        ops in prop::collection::vec(
            (0u8..4, uda_strategy(CATS), 0u64..1 << 32),
            1..=24,
        ),
        queries in prop::collection::vec(
            (uda_strategy(CATS), 0.01f64..0.5, 1usize..12),
            1..=3,
        ),
    ) {
        check_interleaved_mutations(&initial, &ops, &queries);
    }
}

/// A concrete mutation, already validated against the model it was
/// derived from.
enum MutOp {
    Insert(u64, Uda),
    Update(u64, Uda),
    Delete(u64),
}

/// Interpret an abstract `(selector, uda, pick)` step against the
/// current model: inserts get fresh tids, updates and deletes target
/// existing tuples (falling back to insert when the model is empty).
fn concretize(
    (sel, uda, pick): &(u8, Uda, u64),
    model: &BTreeMap<u64, Uda>,
    next_tid: &mut u64,
) -> MutOp {
    let existing = |pick: u64| -> Option<u64> {
        if model.is_empty() {
            None
        } else {
            model
                .keys()
                .nth((pick % model.len() as u64) as usize)
                .copied()
        }
    };
    match sel {
        3 => match existing(*pick) {
            Some(tid) => MutOp::Delete(tid),
            None => {
                *next_tid += 1;
                MutOp::Insert(*next_tid - 1, uda.clone())
            }
        },
        2 => match existing(*pick) {
            Some(tid) => MutOp::Update(tid, uda.clone()),
            None => {
                *next_tid += 1;
                MutOp::Insert(*next_tid - 1, uda.clone())
            }
        },
        _ => {
            *next_tid += 1;
            MutOp::Insert(*next_tid - 1, uda.clone())
        }
    }
}

fn apply_mut<B: MutableBackend>(idx: &mut DurableIndex<B>, op: &MutOp) {
    match op {
        MutOp::Insert(tid, u) => idx.insert(*tid, u).expect("in-memory insert"),
        MutOp::Update(tid, u) => {
            idx.update(*tid, u).expect("in-memory update");
        }
        MutOp::Delete(tid) => {
            idx.delete(*tid).expect("in-memory delete");
        }
    }
}

/// PETQ, top-k and the [`DSTQ_PROBES`] DSTQs of one probe.
type Answers = (Vec<Match>, Vec<Match>, Vec<Vec<Match>>);

/// The DSTQs every post-mutation check runs: L1 and L2 at three radii,
/// wide enough apart that the windows, the walk of the tuples sharing
/// nothing with the query and the norm column all decide some answers.
const DSTQ_PROBES: [(Divergence, f64); 6] = [
    (Divergence::L1, 0.2),
    (Divergence::L1, 0.6),
    (Divergence::L1, 1.5),
    (Divergence::L2, 0.2),
    (Divergence::L2, 0.6),
    (Divergence::L2, 1.5),
];

/// Assert `got` matches the reference answers for one probe.
fn assert_query_point(what: &str, reference: &Answers, got: &Answers) {
    assert_matches_agree("interleaved/petq", what, &reference.0, &got.0);
    assert_matches_agree("interleaved/top_k", what, &reference.1, &got.1);
    for ((dv, radius), (r, g)) in DSTQ_PROBES.iter().zip(reference.2.iter().zip(&got.2)) {
        assert_matches_agree(&format!("interleaved/dstq/{dv:?}/{radius}"), what, r, g);
    }
}

/// PETQ + top-k + DSTQ answers for one `(uda, tau, k)` probe against an
/// arbitrary backend.
fn answers(
    backend: &dyn UncertainIndex,
    pool: &mut BufferPool,
    (q, tau, k): &(Uda, f64, usize),
) -> Answers {
    (
        backend
            .petq(pool, &EqQuery::new(q.clone(), *tau))
            .expect("in-memory query"),
        backend
            .top_k(pool, &TopKQuery::new(q.clone(), *k))
            .expect("in-memory query"),
        DSTQ_PROBES
            .iter()
            .map(|&(dv, radius)| {
                backend
                    .dstq(pool, &DstQuery::new(q.clone(), radius, dv))
                    .expect("in-memory query")
            })
            .collect(),
    )
}

/// Same answers from a durable index (which queries through its own
/// buffer pool).
fn durable_answers<B: MutableBackend>(
    idx: &mut DurableIndex<B>,
    (q, tau, k): &(Uda, f64, usize),
) -> Answers {
    (
        idx.petq(&EqQuery::new(q.clone(), *tau))
            .expect("in-memory query"),
        idx.top_k(&TopKQuery::new(q.clone(), *k))
            .expect("in-memory query"),
        DSTQ_PROBES
            .iter()
            .map(|&(dv, radius)| {
                idx.dstq(&DstQuery::new(q.clone(), radius, dv))
                    .expect("in-memory query")
            })
            .collect(),
    )
}

/// Compare both durable indexes against a scan baseline and freshly
/// rebuilt indexes over the model, across every probe and (for the
/// inverted index) every search strategy.
fn compare_against_model(
    what: &str,
    inv: &mut DurableIndex<InvertedBackend>,
    pdr: &mut DurableIndex<PdrTree>,
    model: &BTreeMap<u64, Uda>,
    queries: &[(Uda, f64, usize)],
) {
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 100);
    let scan = ScanBaseline::build(&mut pool, model.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory build");
    let rebuilt_inv = InvertedBackend::with_strategy(
        InvertedIndex::build(
            Domain::anonymous(CATS),
            &mut pool,
            model.iter().map(|(t, u)| (*t, u)),
        )
        .expect("in-memory build"),
        SearchStrategy::Nra,
    );
    let rebuilt_pdr = PdrTree::build(
        Domain::anonymous(CATS),
        PdrConfig::default(),
        &mut pool,
        model.iter().map(|(t, u)| (*t, u)),
    )
    .expect("in-memory build");

    for (qi, probe) in queries.iter().enumerate() {
        let reference = answers(&scan, &mut pool, probe);
        assert_query_point(
            &format!("{what}/q{qi}/rebuilt-inverted"),
            &reference,
            &answers(&rebuilt_inv, &mut pool, probe),
        );
        assert_query_point(
            &format!("{what}/q{qi}/rebuilt-pdr"),
            &reference,
            &answers(&rebuilt_pdr, &mut pool, probe),
        );
        // Every strategy, `Auto` included, on the mutated lists.
        for strategy in SearchStrategy::ALL
            .into_iter()
            .chain([SearchStrategy::Auto])
        {
            inv.parts_mut().0.strategy = strategy;
            assert_query_point(
                &format!("{what}/q{qi}/mutated-inverted/{}", strategy.name()),
                &reference,
                &durable_answers(inv, probe),
            );
        }
        assert_query_point(
            &format!("{what}/q{qi}/mutated-pdr"),
            &reference,
            &durable_answers(pdr, probe),
        );
    }
}

fn check_interleaved_mutations(
    initial: &[(u64, Uda)],
    ops: &[(u8, Uda, u64)],
    queries: &[(Uda, f64, usize)],
) {
    // Group commit and a short auto-checkpoint interval so batching and
    // log folding both fire inside the schedule.
    let config = DurableConfig {
        group_commit: 2,
        pool_frames: 256,
        checkpoint_every: 5,
        ..DurableConfig::default()
    };
    let mut model: BTreeMap<u64, Uda> = initial.iter().cloned().collect();
    let mut next_tid = initial.len() as u64;

    let inv_storage = DurableStorage::in_memory();
    let mut inv = DurableIndex::create(inv_storage.clone(), config, |pool| {
        Ok(InvertedBackend::with_strategy(
            InvertedIndex::build(
                Domain::anonymous(CATS),
                pool,
                initial.iter().map(|(t, u)| (*t, u)),
            )?,
            SearchStrategy::Nra,
        ))
    })
    .expect("create durable inverted index");
    let pdr_storage = DurableStorage::in_memory();
    let mut pdr = DurableIndex::create(pdr_storage.clone(), config, |pool| {
        PdrTree::build(
            Domain::anonymous(CATS),
            PdrConfig::default(),
            pool,
            initial.iter().map(|(t, u)| (*t, u)),
        )
    })
    .expect("create durable pdr-tree");

    for (i, step) in ops.iter().enumerate() {
        let op = concretize(step, &model, &mut next_tid);
        apply_mut(&mut inv, &op);
        apply_mut(&mut pdr, &op);
        match op {
            MutOp::Insert(tid, u) | MutOp::Update(tid, u) => {
                model.insert(tid, u);
            }
            MutOp::Delete(tid) => {
                model.remove(&tid);
            }
        }
        if i % 4 == 3 {
            compare_against_model(&format!("step_{i}"), &mut inv, &mut pdr, &model, queries);
        }
    }
    compare_against_model("final", &mut inv, &mut pdr, &model, queries);

    // Structural invariants still hold on the mutated indexes.
    let (backend, pool) = inv.parts_mut();
    backend
        .index
        .check_invariants(pool)
        .expect("inverted invariants");
    let (backend, pool) = pdr.parts_mut();
    backend.check_invariants(pool).expect("pdr-tree invariants");

    // A crash-free reopen (snapshot + WAL replay) reproduces the same
    // state on both backends.
    drop(inv);
    drop(pdr);
    let (mut inv, _) =
        DurableIndex::<InvertedBackend>::open(inv_storage, config).expect("clean reopen");
    let (mut pdr, _) = DurableIndex::<PdrTree>::open(pdr_storage, config).expect("clean reopen");
    compare_against_model("reopened", &mut inv, &mut pdr, &model, queries);
}

// --- The PDR-tree on partial-mass data ---

/// Strategy: a UDA of mass 0.3–1.0, or — one case in four — `1 + 9e-5`,
/// just under the `1 + MASS_EPSILON` a stored tuple may hold.
fn partial_uda_strategy(cats: u32) -> impl Strategy<Value = Uda> {
    (uda_strategy(cats), 0u8..4, 0.3f64..1.0)
        .prop_map(|(u, full, mass)| scaled(&u, if full == 0 { 1.0 + 9e-5 } else { mass }))
}

/// `u` with every probability times `mass` (of a normalized `u`, at most
/// `1 + 9e-5`).
fn scaled(u: &Uda, mass: f64) -> Uda {
    Uda::from_pairs(u.iter().map(|(c, p)| (c, (p as f64 * mass) as f32)))
        .expect("scaled within the mass bound")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    // Both PDR-tree builds against the scan baseline on tuples of partial
    // mass and of mass just over one — each stored thirty times, so leaves
    // of copies hold boundaries tight enough for the unit-mass cap to
    // decide a subtree — through a schedule that moves the mass floor:
    // filled by the first metric query, lowered by an insert of less mass
    // than any tuple and by an update, left by a delete, and dropped by a
    // reopen. PETQ thresholds and DSTQ radii sit exactly on answers.
    #[test]
    fn pdr_tree_agrees_with_the_scan_on_partial_mass_data(
        distinct in prop::collection::vec(partial_uda_strategy(CATS), 10..=20),
        q in partial_uda_strategy(CATS),
        low in uda_strategy(CATS),
        low_mass in 0.05f64..0.29,
        pick in 0usize..1000,
    ) {
        let (low, lower) = (scaled(&low, low_mass), scaled(&low, low_mass / 2.0));
        check_pdr_partial_mass(&distinct, &q, &low, &lower, pick);
    }
}

/// One query of [`check_pdr_partial_mass`], run alike on every backend.
#[derive(Debug)]
enum PdrProbe {
    Petq(EqQuery),
    TopK(TopKQuery),
    Dstq(DstQuery),
    DsTopK(DsTopKQuery),
}

impl PdrProbe {
    fn run(&self, backend: &dyn UncertainIndex, pool: &mut BufferPool) -> Vec<Match> {
        match self {
            PdrProbe::Petq(query) => backend.petq(pool, query),
            PdrProbe::TopK(query) => backend.top_k(pool, query),
            PdrProbe::Dstq(query) => backend.dstq(pool, query),
            PdrProbe::DsTopK(query) => backend.ds_top_k(pool, query),
        }
        .expect("in-memory query")
    }
}

fn check_pdr_partial_mass(distinct: &[Uda], q: &Uda, low: &Uda, lower: &Uda, pick: usize) {
    let mut model: BTreeMap<u64, Uda> = (0..30u64)
        .flat_map(|r| {
            distinct
                .iter()
                .enumerate()
                .map(move |(i, u)| (r * 100 + i as u64, u.clone()))
        })
        .collect();
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 256);
    let build = |pool: &mut BufferPool, model: &BTreeMap<u64, Uda>, bulk: bool| {
        let tuples = model.iter().map(|(t, u)| (*t, u));
        let domain = Domain::anonymous(CATS);
        if bulk {
            PdrTree::bulk_build(domain, PdrConfig::default(), pool, tuples)
        } else {
            PdrTree::build(domain, PdrConfig::default(), pool, tuples)
        }
        .expect("in-memory build")
    };
    let mut trees = [
        ("insertion-built", build(&mut pool, &model, false)),
        ("bulk-built", build(&mut pool, &model, true)),
    ];
    for (name, tree) in &trees {
        assert!(tree.depth() >= 2, "{name}: one leaf prunes nothing");
    }
    let stored = distinct[pick % distinct.len()].clone();
    let check = |step: &str,
                 pool: &mut BufferPool,
                 trees: &[(&str, PdrTree)],
                 model: &BTreeMap<u64, Uda>| {
        let scan =
            ScanBaseline::build(pool, model.iter().map(|(t, u)| (*t, u))).expect("in-memory build");
        for probe in [q, &stored, low] {
            let all = scan
                .petq(pool, &EqQuery::new(probe.clone(), f64::MIN_POSITIVE))
                .expect("in-memory query");
            let mut kinds: Vec<PdrProbe> = [all.first(), all.get(pick % all.len().max(1))]
                .into_iter()
                .flatten()
                .map(|m| PdrProbe::Petq(EqQuery::new(probe.clone(), m.score)))
                .collect();
            for k in [1, 1 + pick % 40] {
                kinds.push(PdrProbe::TopK(TopKQuery::new(probe.clone(), k)));
            }
            for dv in [Divergence::L1, Divergence::L2] {
                let nearest = scan
                    .ds_top_k(pool, &DsTopKQuery::new(probe.clone(), 1 + pick % 60, dv))
                    .expect("in-memory query");
                for radius in [0.0, nearest.last().map_or(0.0, |m| m.score)] {
                    kinds.push(PdrProbe::Dstq(DstQuery::new(probe.clone(), radius, dv)));
                }
                for k in [1, 1 + pick % 60] {
                    kinds.push(PdrProbe::DsTopK(DsTopKQuery::new(probe.clone(), k, dv)));
                }
            }
            for kind in &kinds {
                let reference = kind.run(&scan, pool);
                for (name, tree) in trees {
                    let what = format!("{step}/{kind:?}");
                    assert_matches_agree(&what, name, &reference, &kind.run(tree, pool));
                }
            }
        }
    };

    // The DSTQs of the first check fill each tree's floor.
    check("built", &mut pool, &trees, &model);
    for (_, tree) in &mut trees {
        tree.insert(&mut pool, 90_000, low)
            .expect("in-memory insert");
    }
    model.insert(90_000, low.clone());
    check("inserted-low", &mut pool, &trees, &model);

    let gone = *model.keys().nth(pick % model.len()).expect("non-empty");
    for (_, tree) in &mut trees {
        tree.delete(&mut pool, gone).expect("in-memory delete");
    }
    model.remove(&gone);
    check("deleted", &mut pool, &trees, &model);

    let changed = *model.keys().nth(pick / 3 % model.len()).expect("non-empty");
    for (_, tree) in &mut trees {
        tree.update(&mut pool, changed, lower)
            .expect("in-memory update");
    }
    model.insert(changed, lower.clone());
    check("updated", &mut pool, &trees, &model);

    // A reopened tree starts without a floor and fills it again.
    let reopened =
        trees.map(|(name, tree)| (name, PdrTree::open(&tree.snapshot()).expect("reopen")));
    check("reopened", &mut pool, &reopened, &model);
    for (_, tree) in &reopened {
        tree.check_invariants(&mut pool)
            .expect("pdr-tree invariants");
    }
}

// --- The threshold top-k on data built against its bounds ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    // `Strategy::Auto`'s top-k, the block-granular threshold executor,
    // against the scan baseline on data built to break its bounds (see
    // `adversarial_tuples`), over queries of 8, more than 64 and more
    // than 128 lists, on lists split and merged by inserts and deletes
    // or freshly built, under floors of 0, just under a match's score, +∞
    // and NaN, for k of 0, 1–399 and past the number of matches: the
    // same tuples with the same scores bit for bit, and the executor's
    // counter profile.
    #[test]
    fn threshold_top_k_is_tid_exact_on_data_built_against_its_bounds(
        (seed, width, copies) in (0u64..1 << 32, 0usize..3, 129usize..=300),
        (mutate, k_kind, k) in (0u8..2, 0u8..4, 1usize..400),
        (floor_kind, floor_at) in (0u8..4, 0usize..400),
    ) {
        let k = match k_kind {
            0 => 0,
            1 => 100_000,
            _ => k,
        };
        check_threshold_top_k(seed, [8, 80, 140][width], copies, mutate == 1, k, (floor_kind, floor_at));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    // `Strategy::Auto`'s PETQ — the same executor with θ = τ — against
    // the scan on the same data, queries and mutations as the top-k
    // property above, at τ of 0, below 0, NaN, above 1, within 1e-12 of
    // a match's score and across (0, 1): the same tuples in the same
    // order, the same scores bit for bit, and the executor's counter
    // profile.
    #[test]
    fn threshold_petq_is_tid_exact_on_data_built_against_its_bounds(
        (seed, width, copies) in (0u64..1 << 32, 0usize..3, 129usize..=300),
        (mutate, tau_kind, tau_at) in (0u8..2, 0u8..10, 0usize..400),
    ) {
        check_threshold_petq(seed, [8, 80, 140][width], copies, mutate == 1, (tau_kind, tau_at));
    }

    // The same on CRM1 as `uncat_datagen::crm` generates it, where
    // 40 % of the tuples are certain: each category's list opens on a
    // plateau of `p = 1` ties. The query is one of its tuples.
    #[test]
    fn threshold_petq_is_tid_exact_on_crm1_plateaus(
        (n, seed, probe) in (500usize..3000, 0u64..1000, 0usize..1 << 16),
        (tau_kind, tau_at) in (0u8..10, 0usize..400),
    ) {
        let (domain, data) = uncat::datagen::crm::crm1(n, seed);
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 256);
        let idx = InvertedIndex::build(domain, &mut pool, data.iter().map(|(t, u)| (*t, u)))
            .expect("in-memory build");
        let q = data[probe % data.len()].1.clone();
        let scores = idx.peq(&mut pool, &q).expect("in-memory query");
        let query = EqQuery::new(q, threshold_at(&scores, tau_kind, tau_at));
        assert_threshold_petq(&format!("crm1 n {n} seed {seed}"), &mut pool, &idx, &query);
    }
}

/// Tuples over `cats` categories that attack the executor's bounds: a
/// third keep all but 2e-6 of their mass on one category, the rest in two
/// 1e-6 specks in other lists (what an unseen list can still add is
/// tiny, and must not be rounded away); a third hold `1 + 9e-5` in all,
/// next to the `1 + MASS_EPSILON` a `Uda` admits (the remaining-mass bound
/// must not undercount); the rest spread; then `copies` tuples equal to
/// one three-list tuple, a tie plateau that straddles block boundaries in
/// each of its lists. Every other tuple's dominant probability is its
/// own, so no two differ by category order alone.
fn adversarial_tuples(seed: u64, cats: u32, copies: usize) -> Vec<(u64, Uda)> {
    let mut state = seed | 1;
    let mut rnd = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    let uda = |pairs: &[(u32, f32)]| {
        Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).expect("valid uda")
    };
    let mut tuples = Vec::new();
    for i in 0..240u64 {
        let a = rnd(cats as u64) as u32;
        let b = (a + 1 + rnd(3) as u32) % cats;
        let c = (a + 4 + rnd(3) as u32) % cats;
        let d = 0.3 + 0.6 * i as f32 / 240.0;
        let t = match i % 3 {
            0 => uda(&[(a, d), (b, 1e-6), (c, 1e-6)]),
            1 => uda(&[(a, d), (b, 1.00009 - d - 0.05), (c, 0.05)]),
            _ => uda(&[(a, d * 0.5), (b, d * 0.3), (c, 0.2)]),
        };
        tuples.push((3 * i + rnd(3), t));
    }
    let plateau = uda(&[(0, 0.45), (1, 0.35), (2, 0.2)]);
    tuples.extend((0..copies as u64).map(|j| (720 + 2 * j, plateau.clone())));
    tuples
}

/// The executor's fixture: [`adversarial_tuples`] indexed — then, if
/// `mutate`, split and thinned by inserts and deletes — the scan baseline
/// over the tuples left, and a query with weights of its own over lists
/// 0–2 and a random fourth (8 categories) or over every category.
fn threshold_fixture(
    seed: u64,
    cats: u32,
    copies: usize,
    mutate: bool,
) -> (BufferPool, InvertedIndex, ScanBaseline, Uda) {
    let domain = Domain::anonymous(cats);
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 256);
    let mut live = adversarial_tuples(seed, cats, copies);
    let mut idx = InvertedIndex::build(domain, &mut pool, live.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory build");
    if mutate {
        // 300 inserts into one block of lists 1 and 3 split it; deleting
        // every third tuple and half the plateau shrinks and empties others.
        let twin = Uda::from_pairs([(CatId(1), 0.5), (CatId(3), 0.5)]).expect("valid uda");
        for j in 0..300u64 {
            idx.insert(&mut pool, 5_000 + j, &twin)
                .expect("in-memory insert");
            live.push((5_000 + j, twin.clone()));
        }
        let mut n = 0;
        live.retain(|(tid, _)| {
            n += 1;
            let gone = n % 3 == 0 || (720..720 + copies as u64).contains(tid) && tid % 4 == 0;
            if gone {
                idx.delete(&mut pool, *tid).expect("in-memory delete");
            }
            !gone
        });
    }
    let scan =
        ScanBaseline::build(&mut pool, live.iter().map(|(t, u)| (*t, u))).expect("in-memory build");

    // Query weights of their own, over lists 0–2 and a random fourth, or
    // over every category.
    let mut state = seed.rotate_left(17) | 1;
    let mut weight = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        1 + state % 1000
    };
    let support: Vec<u32> = if cats == 8 {
        vec![0, 1, 2, 3 + (weight() % 5) as u32]
    } else {
        (0..cats).collect()
    };
    let weights: Vec<u64> = support.iter().map(|_| weight()).collect();
    let total: u64 = weights.iter().sum();
    let q = Uda::from_pairs(
        support
            .iter()
            .zip(&weights)
            .map(|(&c, &w)| (CatId(c), w as f32 / total as f32)),
    )
    .expect("valid uda");
    (pool, idx, scan, q)
}

fn check_threshold_top_k(
    seed: u64,
    cats: u32,
    copies: usize,
    mutate: bool,
    k: usize,
    (floor_kind, floor_at): (u8, usize),
) {
    let (mut pool, idx, scan, q) = threshold_fixture(seed, cats, copies, mutate);
    let all = scan
        .top_k(&mut pool, &TopKQuery::new(q.clone(), 100_000))
        .expect("in-memory query");
    let floor = match floor_kind {
        0 => 0.0,
        1 => all
            .get(floor_at % all.len().max(1))
            .map_or(0.5, |m| m.score - 1e-12),
        2 => f64::INFINITY,
        _ => f64::NAN,
    };
    let query = TopKQuery {
        floor,
        ..TopKQuery::new(q.clone(), k)
    };
    let reference = scan.top_k(&mut pool, &query).expect("in-memory query");
    pool.reset_stats();
    let got = idx
        .top_k_planned(&mut pool, &query, SearchStrategy::Auto)
        .expect("in-memory query");
    let m = pool.metrics();
    let what = format!("{cats} cats, k {k}, floor {floor}, mutated {mutate}");
    assert_matches_agree("threshold top_k", &what, &reference, &got);
    if k == 0 {
        assert_eq!(m, QueryMetrics::new(), "{what}: k = 0 reads nothing");
        return;
    }
    assert_threshold_profile(&what, &idx, &q, &m);
}

/// The executor's counter profile: every query list opened once, each of
/// its blocks decoded or skipped, every met tuple pruned or settled,
/// nothing verified and no frontier pop.
fn assert_threshold_profile(what: &str, idx: &InvertedIndex, q: &Uda, m: &QueryMetrics) {
    let stats = idx.cost_stats();
    let lists: Vec<_> = q.iter().filter_map(|(c, _)| stats.cats.get(&c)).collect();
    let blocks: u64 = lists.iter().map(|s| s.blocks as u64).sum();
    assert!(m.candidate_invariant_holds(), "{what}: {m:?}");
    assert_eq!(m.lists_opened, lists.len() as u64, "{what}");
    assert_eq!(m.blocks_decoded + m.blocks_skipped, blocks, "{what}");
    assert_eq!((m.candidates_verified, m.frontier_pops), (0, 0), "{what}");
}

/// `Auto`'s PETQ against the scan of the same index (`Strategy::Brute`,
/// which sums every list to the end): the same tuples in the same order,
/// the same scores bit for bit, and the executor's counter profile.
fn assert_threshold_petq(what: &str, pool: &mut BufferPool, idx: &InvertedIndex, query: &EqQuery) {
    let reference = idx
        .petq(pool, query, SearchStrategy::Brute)
        .expect("in-memory query");
    pool.reset_stats();
    let got = idx
        .petq(pool, query, SearchStrategy::Auto)
        .expect("in-memory query");
    let m = pool.metrics();
    let what = format!("{what}, tau {}", query.tau);
    assert_eq!(
        got.iter().map(|m| m.tid).collect::<Vec<_>>(),
        reference.iter().map(|m| m.tid).collect::<Vec<_>>(),
        "{what}: auto returned different tuples than the scan"
    );
    for (r, g) in reference.iter().zip(&got) {
        assert_eq!(
            r.score.to_bits(),
            g.score.to_bits(),
            "{what}: {g:?} vs {r:?}"
        );
    }
    assert_threshold_profile(&what, idx, &query.q, &m);
}

/// The thresholds a PETQ is checked at: `tau_kind` picks 0, a negative
/// τ, NaN, just above 1, 1.5, a match's score less or plus 1e-12 (the
/// `tau_at`-th of `scores`, descending), or a τ spread over `(0, 1)`.
fn threshold_at(scores: &[Match], tau_kind: u8, tau_at: usize) -> f64 {
    let score = scores
        .get(tau_at % scores.len().max(1))
        .map_or(0.5, |m| m.score);
    match tau_kind {
        0 => 0.0,
        1 => -0.5,
        2 => f64::NAN,
        3 => 1.0 + 1e-6,
        4 => 1.5,
        5 => score - 1e-12,
        6 => score + 1e-12,
        _ => (tau_at as f64 + 0.5) / 400.0,
    }
}

fn check_threshold_petq(
    seed: u64,
    cats: u32,
    copies: usize,
    mutate: bool,
    (tau_kind, tau_at): (u8, usize),
) {
    let (mut pool, idx, _, q) = threshold_fixture(seed, cats, copies, mutate);
    let scores = idx.peq(&mut pool, &q).expect("in-memory query");
    let query = EqQuery::new(q, threshold_at(&scores, tau_kind, tau_at));
    let what = format!("{cats} cats, mutated {mutate}");
    assert_threshold_petq(&what, &mut pool, &idx, &query);
}

fn check_block_lists(tuples: &[(u64, Uda)], q: &Uda, tau: f64, k: usize) {
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 100);
    let scan = ScanBaseline::build(&mut pool, tuples.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory build");
    let blocks = InvertedIndex::build(
        Domain::anonymous(CATS),
        &mut pool,
        tuples.iter().map(|(t, u)| (*t, u)),
    )
    .expect("in-memory build");

    let query = EqQuery::new(q.clone(), tau);
    let reference = scan.petq(&mut pool, &query).expect("in-memory query");
    for strategy in SearchStrategy::ALL
        .into_iter()
        .chain([SearchStrategy::Auto])
    {
        let got = blocks
            .petq(&mut pool, &query, strategy)
            .expect("in-memory query");
        assert_matches_agree(
            "blocks/petq",
            &format!("blocks/{}", strategy.name()),
            &reference,
            &got,
        );
    }
    let topk = TopKQuery::new(q.clone(), k);
    let reference = scan.top_k(&mut pool, &topk).expect("in-memory query");
    let got = blocks.top_k(&mut pool, &topk).expect("in-memory query");
    assert_matches_agree("blocks/top_k", "blocks", &reference, &got);

    // Block accounting: a full-support query opens every posting list,
    // so across any strategy the decoded + skipped blocks must add up to
    // exactly the index's block count — no block is both, none vanishes.
    let mut full = uncat::core::UdaBuilder::new();
    for c in 0..CATS {
        full.push(CatId(c), 0.01).expect("valid probability");
    }
    let full = full.finish_normalized().expect("non-empty");
    let total_blocks = blocks.stats().posting_blocks;
    for strategy in SearchStrategy::ALL
        .into_iter()
        .chain([SearchStrategy::Auto])
    {
        pool.reset_stats();
        blocks
            .petq(&mut pool, &EqQuery::new(full.clone(), tau), strategy)
            .expect("in-memory query");
        let metrics = pool.metrics();
        let covered = metrics.blocks_decoded + metrics.blocks_skipped;
        if strategy == SearchStrategy::RowPruning {
            // Row pruning legitimately skips whole *lists* (those with
            // `q.p < τ`); their blocks are neither decoded nor skipped.
            assert!(covered <= total_blocks, "row-pruning overcounts blocks");
        } else {
            // `Auto` included: what its frontier and the survivors'
            // suffixes do not decode, it skips.
            assert_eq!(
                covered,
                total_blocks,
                "{}: blocks decoded + skipped must cover every opened list",
                strategy.name()
            );
        }
    }
    pool.reset_stats();
    blocks
        .top_k(&mut pool, &TopKQuery::new(full, k))
        .expect("in-memory query");
    let metrics = pool.metrics();
    assert_eq!(
        metrics.blocks_decoded + metrics.blocks_skipped,
        total_blocks,
        "top_k: blocks decoded + skipped must cover every opened list"
    );
}

fn check_join_plans_agree(
    tuples: &[(u64, Uda)],
    outer: &[(u64, Uda)],
    spec: JoinSpec,
    threads: usize,
) {
    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store.clone(), 100);
    let scan = ScanBaseline::build(&mut pool, tuples.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory build");
    let inv = InvertedBackend::with_strategy(
        InvertedIndex::build(
            Domain::anonymous(CATS),
            &mut pool,
            tuples.iter().map(|(t, u)| (*t, u)),
        )
        .expect("in-memory build"),
        SearchStrategy::Nra,
    );
    // The first metric DSTQ an inverted index answers fills its norm
    // column with one tuple-store scan. Fill it here, so that the
    // sequential and parallel joins below count the same probes.
    inv.dstq(
        &mut pool,
        &DstQuery::new(tuples[0].1.clone(), 0.0, Divergence::L1),
    )
    .expect("in-memory query");
    let pdr = PdrTree::build(
        Domain::anonymous(CATS),
        PdrConfig::default(),
        &mut pool,
        tuples.iter().map(|(t, u)| (*t, u)),
    )
    .expect("in-memory build");
    let shards = three_shards(&mut pool, tuples);
    pool.flush().expect("in-memory flush");

    let reference = block_join(outer, &scan, &mut pool, spec)
        .expect("in-memory join")
        .pairs;

    let seq = index_join(outer, &inv, &mut pool, spec).expect("in-memory join");
    assert_pairs_agree("join", "index/inverted", &reference, &seq.pairs);
    let got = index_join(outer, &pdr, &mut pool, spec).expect("in-memory join");
    assert_pairs_agree("join", "index/pdr-tree", &reference, &got.pairs);
    let got = index_join(outer, &shards, &mut pool, spec).expect("in-memory join");
    assert_pairs_agree("join", "index/shards", &reference, &got.pairs);
    let got = parallel_join(
        outer,
        &shards,
        &store,
        &BatchPools::private(100),
        spec,
        threads,
    )
    .expect("in-memory join");
    assert_pairs_agree("join", "parallel/shards", &reference, &got.pairs);

    let par = parallel_join(
        outer,
        &inv,
        &store,
        &BatchPools::private(100),
        spec,
        threads,
    )
    .expect("in-memory join");
    assert_pairs_agree("join", "parallel/inverted", &reference, &par.pairs);

    if !matches!(spec, JoinSpec::PejTopK { .. }) {
        // PEJ-top-k probe work depends on floor timing; threshold joins
        // must match counter for counter.
        let mut par_counters = par.metrics;
        let mut seq_counters = seq.metrics;
        assert_eq!(
            par_counters.io.logical_reads,
            seq_counters.io.logical_reads,
            "{}: logical accesses are partition-independent",
            spec.name()
        );
        par_counters.io = IoStats::default();
        seq_counters.io = IoStats::default();
        assert_eq!(
            par_counters,
            seq_counters,
            "{}: counters must sum exactly",
            spec.name()
        );
    }
}
