//! Query correctness: PETQ / top-k / DSTQ over the PDR-tree must agree
//! with in-memory reference evaluation under every configuration —
//! divergence measure, split strategy, and (lossy!) boundary compression.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use uncat_core::equality::{eq_prob, meets_threshold};
use uncat_core::query::{sort_matches_asc, sort_matches_desc, DstQuery, EqQuery, Match, TopKQuery};
use uncat_core::{CatId, Divergence, Domain, Uda};
use uncat_pdrtree::{Compression, PdrConfig, PdrTree, SplitStrategy};
use uncat_storage::{BufferPool, InMemoryDisk};

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

fn dataset(seed: u64, n: usize, n_cats: u32, max_nz: usize) -> Vec<(u64, Uda)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|tid| (tid, random_uda(&mut rng, n_cats, max_nz)))
        .collect()
}

fn build(data: &[(u64, Uda)], n_cats: u32, cfg: PdrConfig) -> (PdrTree, BufferPool) {
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 150);
    let tree = PdrTree::build(
        Domain::anonymous(n_cats),
        cfg,
        &mut pool,
        data.iter().map(|(t, u)| (*t, u)),
    )
    .unwrap();
    (tree, pool)
}

fn assert_same(a: &[Match], b: &[Match], ctx: &str) {
    assert_eq!(
        a.iter().map(|m| m.tid).collect::<Vec<_>>(),
        b.iter().map(|m| m.tid).collect::<Vec<_>>(),
        "tuple sets differ: {ctx}"
    );
    for (x, y) in a.iter().zip(b) {
        assert!(
            (x.score - y.score).abs() < 1e-9,
            "score differs for tid {}: {ctx}",
            x.tid
        );
    }
}

fn reference_petq(data: &[(u64, Uda)], q: &Uda, tau: f64) -> Vec<Match> {
    let mut out: Vec<Match> = data
        .iter()
        .filter_map(|(tid, t)| {
            let pr = eq_prob(q, t);
            meets_threshold(pr, tau).then_some(Match::new(*tid, pr))
        })
        .collect();
    sort_matches_desc(&mut out);
    out
}

/// Every interesting configuration, exercised by the equivalence tests.
fn configs() -> Vec<PdrConfig> {
    let mut v = Vec::new();
    for dv in Divergence::ALL {
        v.push(PdrConfig {
            divergence: dv,
            ..PdrConfig::default()
        });
    }
    v.push(PdrConfig {
        split: SplitStrategy::TopDown,
        ..PdrConfig::default()
    });
    v.push(PdrConfig {
        compression: Compression::Discretized { bits: 2 },
        ..PdrConfig::default()
    });
    v.push(PdrConfig {
        compression: Compression::Discretized { bits: 4 },
        ..PdrConfig::default()
    });
    v.push(PdrConfig {
        compression: Compression::Signature { width: 4 },
        ..PdrConfig::default()
    });
    v
}

#[test]
fn petq_matches_reference_under_every_config() {
    let data = dataset(101, 800, 10, 4);
    let mut rng = StdRng::seed_from_u64(5);
    let queries: Vec<Uda> = (0..8).map(|_| random_uda(&mut rng, 10, 4)).collect();
    for cfg in configs() {
        let (tree, mut pool) = build(&data, 10, cfg);
        for (qi, q) in queries.iter().enumerate() {
            for &tau in &[0.02, 0.1, 0.3, 0.7] {
                let got = tree.petq(&mut pool, &EqQuery::new(q.clone(), tau)).unwrap();
                let expect = reference_petq(&data, q, tau);
                assert_same(&got, &expect, &format!("{cfg:?}, query {qi}, tau {tau}"));
            }
        }
    }
}

#[test]
fn petq_boundary_threshold_inclusive() {
    let data = dataset(55, 400, 8, 3);
    let mut rng = StdRng::seed_from_u64(2);
    let q = random_uda(&mut rng, 8, 3);
    let probs: Vec<f64> = data
        .iter()
        .map(|(_, t)| eq_prob(&q, t))
        .filter(|&p| p > 0.0)
        .collect();
    let tau = probs[probs.len() / 3];
    let (tree, mut pool) = build(&data, 8, PdrConfig::default());
    let got = tree.petq(&mut pool, &EqQuery::new(q.clone(), tau)).unwrap();
    let expect = reference_petq(&data, &q, tau);
    assert!(!expect.is_empty());
    assert_same(&got, &expect, "threshold equal to an actual probability");
}

#[test]
fn top_k_matches_reference_under_every_config() {
    let data = dataset(77, 600, 10, 4);
    let mut rng = StdRng::seed_from_u64(9);
    let queries: Vec<Uda> = (0..6).map(|_| random_uda(&mut rng, 10, 4)).collect();
    for cfg in configs() {
        let (tree, mut pool) = build(&data, 10, cfg);
        for q in &queries {
            for &k in &[1usize, 7, 50] {
                let mut expect: Vec<Match> = data
                    .iter()
                    .filter_map(|(tid, t)| {
                        let pr = eq_prob(q, t);
                        (pr > 0.0).then_some(Match::new(*tid, pr))
                    })
                    .collect();
                sort_matches_desc(&mut expect);
                expect.truncate(k);
                let got = tree
                    .top_k(&mut pool, &TopKQuery::new(q.clone(), k))
                    .unwrap();
                assert_same(&got, &expect, &format!("{cfg:?}, top-{k}"));
            }
        }
    }
}

#[test]
fn dstq_matches_reference_for_all_divergences() {
    let data = dataset(31, 500, 8, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let (tree, mut pool) = build(&data, 8, PdrConfig::default());
    for _ in 0..6 {
        let q = random_uda(&mut rng, 8, 3);
        for dv in Divergence::ALL {
            for &tau_d in &[0.05, 0.3, 0.9, 1.6] {
                let got = tree
                    .dstq(&mut pool, &DstQuery::new(q.clone(), tau_d, dv))
                    .unwrap();
                let mut expect: Vec<Match> = data
                    .iter()
                    .filter_map(|(tid, t)| {
                        let d = dv.eval(q.entries(), t.entries());
                        (d <= tau_d).then_some(Match::new(*tid, d))
                    })
                    .collect();
                sort_matches_asc(&mut expect);
                assert_same(&got, &expect, &format!("dstq {dv:?} tau_d {tau_d}"));
            }
        }
    }
}

#[test]
fn dstq_respects_compressed_boundaries() {
    // Lossy boundaries widen, so L1/L2 lower bounds shrink — pruning must
    // stay sound. Verify result equivalence under signature compression.
    let data = dataset(13, 400, 12, 3);
    let cfg = PdrConfig {
        compression: Compression::Signature { width: 4 },
        ..PdrConfig::default()
    };
    let (tree, mut pool) = build(&data, 12, cfg);
    let mut rng = StdRng::seed_from_u64(21);
    let q = random_uda(&mut rng, 12, 3);
    for dv in [Divergence::L1, Divergence::L2] {
        let got = tree
            .dstq(&mut pool, &DstQuery::new(q.clone(), 0.4, dv))
            .unwrap();
        let mut expect: Vec<Match> = data
            .iter()
            .filter_map(|(tid, t)| {
                let d = dv.eval(q.entries(), t.entries());
                (d <= 0.4).then_some(Match::new(*tid, d))
            })
            .collect();
        sort_matches_asc(&mut expect);
        assert_same(&got, &expect, &format!("compressed dstq {dv:?}"));
    }
}

#[test]
fn queries_survive_deletes() {
    let data = dataset(99, 500, 8, 3);
    let (mut tree, mut pool) = build(&data, 8, PdrConfig::default());
    for (tid, u) in data.iter().take(250) {
        assert_eq!(tree.delete(&mut pool, *tid).unwrap().as_ref(), Some(u));
    }
    let remaining: Vec<(u64, Uda)> = data.iter().skip(250).cloned().collect();
    let mut rng = StdRng::seed_from_u64(8);
    let q = random_uda(&mut rng, 8, 3);
    for &tau in &[0.05, 0.4] {
        let got = tree.petq(&mut pool, &EqQuery::new(q.clone(), tau)).unwrap();
        let expect = reference_petq(&remaining, &q, tau);
        assert_same(&got, &expect, &format!("after deletes, tau {tau}"));
    }
}

#[test]
fn pruning_reads_fewer_pages_than_full_traversal() {
    // Lemma 2 must actually pay off: a selective query should touch far
    // fewer pages than the whole tree.
    let data = dataset(3, 6000, 20, 3);
    let (tree, mut pool) = build(&data, 20, PdrConfig::default());
    pool.flush().unwrap();

    let mut rng = StdRng::seed_from_u64(1);
    let q = random_uda(&mut rng, 20, 2);

    pool.clear().unwrap();
    pool.reset_stats();
    let mut total_pages = 0u64;
    tree.for_each(&mut pool, |_, _| {}).unwrap();
    total_pages += pool.stats().physical_reads;

    pool.clear().unwrap();
    pool.reset_stats();
    let _ = tree.petq(&mut pool, &EqQuery::new(q, 0.7)).unwrap();
    let query_pages = pool.stats().physical_reads;

    assert!(
        query_pages * 2 < total_pages,
        "selective PETQ read {query_pages} of {total_pages} pages — pruning ineffective"
    );
}
