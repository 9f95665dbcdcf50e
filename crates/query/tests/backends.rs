//! Backend equivalence: inverted index, PDR-tree, and scan baseline must
//! return identical results for every query family, and the joins must
//! agree with pairwise reference evaluation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use uncat_core::equality::eq_prob;
use uncat_core::query::{DstQuery, EqQuery, TopKQuery};
use uncat_core::{CatId, Divergence, Domain, Uda};
use uncat_inverted::{InvertedIndex, Strategy};
use uncat_pdrtree::{PdrConfig, PdrTree};
use uncat_query::join::{block_join, index_join, JoinPair, JoinSpec};
use uncat_query::{run_query, InvertedBackend, ScanBaseline, UncertainIndex};
use uncat_storage::{BufferPool, InMemoryDisk, SharedStore};

fn random_uda(rng: &mut StdRng, n_cats: u32, max_nz: usize) -> Uda {
    let nz = rng.random_range(1..=max_nz);
    let mut cats: Vec<u32> = (0..n_cats).collect();
    for i in 0..nz.min(cats.len()) {
        let j = rng.random_range(i..cats.len());
        cats.swap(i, j);
    }
    let mut b = uncat_core::UdaBuilder::new();
    for &c in cats.iter().take(nz) {
        b.push(CatId(c), rng.random_range(0.05..1.0f32)).unwrap();
    }
    b.finish_normalized().unwrap()
}

struct World {
    data: Vec<(u64, Uda)>,
    store: SharedStore,
    inverted: InvertedBackend,
    pdr: PdrTree,
    scan: ScanBaseline,
}

fn world(seed: u64, n: usize, cats: u32, max_nz: usize) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<(u64, Uda)> = (0..n as u64)
        .map(|tid| (tid, random_uda(&mut rng, cats, max_nz)))
        .collect();
    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store.clone(), 150);
    let inverted = InvertedBackend::with_strategy(
        InvertedIndex::build(
            Domain::anonymous(cats),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .unwrap(),
        Strategy::Nra,
    );
    let pdr = PdrTree::build(
        Domain::anonymous(cats),
        PdrConfig::default(),
        &mut pool,
        data.iter().map(|(t, u)| (*t, u)),
    )
    .unwrap();
    let scan = ScanBaseline::build(&mut pool, data.iter().map(|(t, u)| (*t, u))).unwrap();
    pool.flush().unwrap();
    World {
        data,
        store,
        inverted,
        pdr,
        scan,
    }
}

#[test]
fn all_backends_agree_on_every_query_family() {
    let w = world(1, 700, 10, 4);
    let mut rng = StdRng::seed_from_u64(2);
    let mut pool = BufferPool::with_capacity(w.store.clone(), 150);
    for _ in 0..10 {
        let q = random_uda(&mut rng, 10, 4);
        for &tau in &[0.05, 0.2, 0.5] {
            let query = EqQuery::new(q.clone(), tau);
            let a = w.scan.petq(&mut pool, &query).unwrap();
            let b = w.inverted.petq(&mut pool, &query).unwrap();
            let c = w.pdr.petq(&mut pool, &query).unwrap();
            assert_eq!(
                a.iter().map(|m| m.tid).collect::<Vec<_>>(),
                b.iter().map(|m| m.tid).collect::<Vec<_>>(),
                "inverted disagrees with scan at tau {tau}"
            );
            assert_eq!(
                a.iter().map(|m| m.tid).collect::<Vec<_>>(),
                c.iter().map(|m| m.tid).collect::<Vec<_>>(),
                "pdr-tree disagrees with scan at tau {tau}"
            );
        }
        for &k in &[3usize, 25] {
            let query = TopKQuery::new(q.clone(), k);
            let a = w.scan.top_k(&mut pool, &query).unwrap();
            let b = w.inverted.top_k(&mut pool, &query).unwrap();
            let c = w.pdr.top_k(&mut pool, &query).unwrap();
            assert_eq!(
                a.iter().map(|m| m.tid).collect::<Vec<_>>(),
                b.iter().map(|m| m.tid).collect::<Vec<_>>()
            );
            assert_eq!(
                a.iter().map(|m| m.tid).collect::<Vec<_>>(),
                c.iter().map(|m| m.tid).collect::<Vec<_>>()
            );
        }
        for dv in Divergence::ALL {
            let query = DstQuery::new(q.clone(), 0.35, dv);
            let a = w.scan.dstq(&mut pool, &query).unwrap();
            let b = w.inverted.dstq(&mut pool, &query).unwrap();
            let c = w.pdr.dstq(&mut pool, &query).unwrap();
            assert_eq!(
                a.iter().map(|m| m.tid).collect::<Vec<_>>(),
                b.iter().map(|m| m.tid).collect::<Vec<_>>()
            );
            assert_eq!(
                a.iter().map(|m| m.tid).collect::<Vec<_>>(),
                c.iter().map(|m| m.tid).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn ds_top_k_agrees_across_backends() {
    let w = world(13, 500, 10, 4);
    let mut rng = StdRng::seed_from_u64(14);
    let mut pool = BufferPool::with_capacity(w.store.clone(), 150);
    for _ in 0..6 {
        let q = random_uda(&mut rng, 10, 4);
        for dv in Divergence::ALL {
            for &k in &[1usize, 10, 60] {
                let query = uncat_core::query::DsTopKQuery::new(q.clone(), k, dv);
                let a = w.scan.ds_top_k(&mut pool, &query).unwrap();
                let b = w.inverted.ds_top_k(&mut pool, &query).unwrap();
                let c = w.pdr.ds_top_k(&mut pool, &query).unwrap();
                let ids =
                    |v: &[uncat_core::query::Match]| v.iter().map(|m| m.tid).collect::<Vec<_>>();
                assert_eq!(ids(&a), ids(&b), "inverted ds-top-{k} {dv:?}");
                assert_eq!(ids(&a), ids(&c), "pdr ds-top-{k} {dv:?}");
                assert_eq!(a.len(), k.min(w.data.len()));
                // Ascending divergence order.
                assert!(a.windows(2).all(|w| w[0].score <= w[1].score + 1e-12));
            }
        }
    }
}

#[test]
fn executor_charges_io_to_fresh_pools() {
    let w = world(3, 2000, 12, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let query = EqQuery::new(random_uda(&mut rng, 12, 3), 0.3);
    let cold = || {
        let mut pool = BufferPool::with_capacity(w.store.clone(), 100);
        run_query(&mut pool, None, |pool| w.pdr.petq(pool, &query)).unwrap()
    };
    let (out1, out2) = (cold(), cold());
    assert_eq!(
        out1.matches.len(),
        out2.matches.len(),
        "same query, same results"
    );
    assert_eq!(
        out1.reads(),
        out2.reads(),
        "fresh pool each time ⇒ identical cold I/O"
    );
    assert!(out1.reads() > 0);
    assert!(out1.selectivity(2000) <= 1.0);
}

fn reference_petj(r: &[(u64, Uda)], s: &[(u64, Uda)], tau: f64) -> Vec<JoinPair> {
    let mut out = Vec::new();
    for (lt, lu) in r {
        for (rt, ru) in s {
            let pr = eq_prob(lu, ru);
            if uncat_core::equality::meets_threshold(pr, tau) {
                out.push(JoinPair {
                    left: *lt,
                    right: *rt,
                    score: pr,
                });
            }
        }
    }
    JoinSpec::Petj { tau }.canonicalize(&mut out);
    out
}

#[test]
fn petj_plans_match_reference() {
    let w = world(5, 300, 8, 3);
    let mut rng = StdRng::seed_from_u64(6);
    let outer: Vec<(u64, Uda)> = (0..20u64)
        .map(|i| (1000 + i, random_uda(&mut rng, 8, 3)))
        .collect();
    let mut pool = BufferPool::with_capacity(w.store.clone(), 150);
    for &tau in &[0.15, 0.4] {
        let expect = reference_petj(&outer, &w.data, tau);
        let spec = JoinSpec::Petj { tau };
        let inl_inv = index_join(&outer, &w.inverted, &mut pool, spec).unwrap();
        let inl_pdr = index_join(&outer, &w.pdr, &mut pool, spec).unwrap();
        let bnl = block_join(&outer, &w.scan, &mut pool, spec).unwrap();
        for (name, got) in [
            ("inl-inverted", &inl_inv.pairs),
            ("inl-pdr", &inl_pdr.pairs),
            ("bnl", &bnl.pairs),
        ] {
            assert_eq!(
                got.iter().map(|p| (p.left, p.right)).collect::<Vec<_>>(),
                expect.iter().map(|p| (p.left, p.right)).collect::<Vec<_>>(),
                "{name} at tau {tau}"
            );
        }
    }
}

#[test]
fn pej_top_k_matches_reference() {
    let w = world(7, 300, 8, 3);
    let mut rng = StdRng::seed_from_u64(8);
    let outer: Vec<(u64, Uda)> = (0..15u64)
        .map(|i| (2000 + i, random_uda(&mut rng, 8, 3)))
        .collect();
    let mut pool = BufferPool::with_capacity(w.store.clone(), 150);
    for &k in &[1usize, 10, 40] {
        let mut expect = reference_petj(&outer, &w.data, 0.0);
        expect.retain(|p| p.score > 0.0);
        expect.truncate(k);
        let spec = JoinSpec::PejTopK { k };
        let inl_pdr = index_join(&outer, &w.pdr, &mut pool, spec).unwrap();
        let bnl = block_join(&outer, &w.scan, &mut pool, spec).unwrap();
        for (name, got) in [("inl-pdr", &inl_pdr.pairs), ("bnl", &bnl.pairs)] {
            assert_eq!(
                got.iter().map(|p| (p.left, p.right)).collect::<Vec<_>>(),
                expect.iter().map(|p| (p.left, p.right)).collect::<Vec<_>>(),
                "{name} top-{k} join"
            );
        }
    }
}

#[test]
fn window_petq_on_scan_matches_direct_computation() {
    let w = world(43, 300, 12, 3);
    let mut pool = BufferPool::with_capacity(w.store.clone(), 150);
    let q = w.data[0].1.clone();
    for window in [0u32, 1, 3] {
        let got = w.scan.window_petq(&mut pool, &q, window, 0.3).unwrap();
        let expect: Vec<u64> = {
            let mut v: Vec<(f64, u64)> = w
                .data
                .iter()
                .map(|(tid, t)| (uncat_core::ordered::pr_within(&q, t, window), *tid))
                .filter(|&(p, _)| uncat_core::equality::meets_threshold(p, 0.3))
                .collect();
            v.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then_with(|| a.1.cmp(&b.1)));
            v.into_iter().map(|(_, tid)| tid).collect()
        };
        assert_eq!(
            got.iter().map(|m| m.tid).collect::<Vec<_>>(),
            expect,
            "window {window}"
        );
        if window == 0 {
            // c = 0 is plain PETQ.
            let plain = w
                .scan
                .petq(&mut pool, &EqQuery::new(q.clone(), 0.3))
                .unwrap();
            assert_eq!(
                got.iter().map(|m| m.tid).collect::<Vec<_>>(),
                plain.iter().map(|m| m.tid).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn dstj_matches_reference() {
    let w = world(9, 250, 8, 3);
    let mut rng = StdRng::seed_from_u64(10);
    let outer: Vec<(u64, Uda)> = (0..10u64)
        .map(|i| (3000 + i, random_uda(&mut rng, 8, 3)))
        .collect();
    let mut pool = BufferPool::with_capacity(w.store.clone(), 150);
    for dv in [Divergence::L1, Divergence::L2] {
        let spec = JoinSpec::Dstj {
            tau_d: 0.3,
            divergence: dv,
        };
        let got = index_join(&outer, &w.pdr, &mut pool, spec).unwrap().pairs;
        let block = block_join(&outer, &w.scan, &mut pool, spec).unwrap().pairs;
        let ids = |pairs: &[JoinPair]| pairs.iter().map(|p| (p.left, p.right)).collect::<Vec<_>>();
        assert_eq!(ids(&got), ids(&block), "dstj {dv:?}: index and block plans");
        let mut expect = Vec::new();
        for (lt, lu) in &outer {
            for (rt, ru) in &w.data {
                let d = dv.eval(lu.entries(), ru.entries());
                if d <= 0.3 {
                    expect.push((d, *lt, *rt));
                }
            }
        }
        expect.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert_eq!(
            got.iter()
                .map(|p| (p.left, p.right))
                .collect::<std::collections::HashSet<_>>(),
            expect
                .iter()
                .map(|&(_, l, r)| (l, r))
                .collect::<std::collections::HashSet<_>>(),
            "dstj {dv:?}"
        );
    }
}
