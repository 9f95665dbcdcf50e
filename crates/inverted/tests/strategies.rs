//! Cross-strategy correctness: every search strategy must return exactly
//! the tuples (and probabilities) of an in-memory reference evaluation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use uncat_core::equality::{eq_prob, meets_threshold};
use uncat_core::query::{sort_matches_asc, sort_matches_desc, DstQuery, EqQuery, Match, TopKQuery};
use uncat_core::{CatId, Divergence, Domain, Uda};
use uncat_inverted::{InvertedIndex, Strategy};
use uncat_storage::{BufferPool, InMemoryDisk};

/// Random sparse UDA over `n_cats` categories with up to `max_nz` non-zeros.
fn random_uda(rng: &mut StdRng, n_cats: u32, max_nz: usize) -> Uda {
    let nz = rng.random_range(1..=max_nz);
    let mut cats: Vec<u32> = (0..n_cats).collect();
    // Partial Fisher–Yates for a random support.
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

struct Fixture {
    data: Vec<(u64, Uda)>,
    idx: InvertedIndex,
    pool: BufferPool,
}

fn fixture(seed: u64, n: usize, n_cats: u32, max_nz: usize) -> Fixture {
    spread_fixture(seed, n, n_cats, max_nz, 1)
}

/// [`fixture`] with tuple ids `stride` apart instead of consecutive.
fn spread_fixture(seed: u64, n: usize, n_cats: u32, max_nz: usize, stride: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<(u64, Uda)> = (0..n as u64)
        .map(|i| (i * stride, random_uda(&mut rng, n_cats, max_nz)))
        .collect();
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 100);
    let idx = InvertedIndex::build(
        Domain::anonymous(n_cats),
        &mut pool,
        data.iter().map(|(t, u)| (*t, u)),
    )
    .unwrap();
    Fixture { data, idx, pool }
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

fn assert_same(a: &[Match], b: &[Match], ctx: &str) {
    assert_eq!(
        a.iter().map(|m| m.tid).collect::<Vec<_>>(),
        b.iter().map(|m| m.tid).collect::<Vec<_>>(),
        "tuple sets differ: {ctx}"
    );
    for (x, y) in a.iter().zip(b) {
        assert!(
            (x.score - y.score).abs() < 1e-9,
            "scores differ for tid {}: {ctx}",
            x.tid
        );
    }
}

/// Same tuples in the same order, and every score bit for bit.
fn assert_bits(a: &[Match], b: &[Match], ctx: &str) {
    let bits =
        |m: &[Match]| -> Vec<(u64, u64)> { m.iter().map(|m| (m.tid, m.score.to_bits())).collect() };
    assert_eq!(bits(a), bits(b), "{ctx}");
}

/// Every executor finds its records through `Slab`'s flat id index on a
/// fixture with consecutive ids, and through its map once the ids are
/// spread this far apart.
const SPREAD: u64 = 1_000;

/// The dense fixture and its spread twin. An index takes the flat layout
/// when its 4 bytes per id of span come to at most 32 bytes per tuple:
/// the first does, the second is far past it.
fn dense_and_spread(seed: u64, n: usize, n_cats: u32, max_nz: usize) -> [Fixture; 2] {
    let fixtures = [
        fixture(seed, n, n_cats, max_nz),
        spread_fixture(seed, n, n_cats, max_nz, SPREAD),
    ];
    for (f, flat) in fixtures.iter().zip([true, false]) {
        let span = f.data.last().map_or(0, |(tid, _)| tid + 1);
        let tuples = f.idx.len() as u64;
        assert_eq!(
            4 * span <= 32 * tuples,
            flat,
            "{tuples} tuples over {span} ids"
        );
    }
    fixtures
}

#[test]
fn all_strategies_match_reference_on_random_data() {
    for mut f in dense_and_spread(42, 600, 12, 4) {
        let mut rng = StdRng::seed_from_u64(999);
        for qi in 0..25 {
            let q = random_uda(&mut rng, 12, 4);
            for &tau in &[0.02, 0.1, 0.3, 0.6, 0.9] {
                let query = EqQuery::new(q.clone(), tau);
                let expect = reference_petq(&f.data, &q, tau);
                for strat in Strategy::ALL {
                    let got = f.idx.petq(&mut f.pool, &query, strat).unwrap();
                    let ctx = format!("query {qi}, tau {tau}, {strat:?}");
                    if strat == Strategy::Brute {
                        // The full scan adds each tuple's terms in the
                        // order `eq_prob` does.
                        assert_bits(&got, &expect, &ctx);
                    } else {
                        assert_same(&got, &expect, &ctx);
                    }
                }
            }
        }
    }
}

#[test]
fn threshold_exactly_at_a_tuples_probability_includes_it() {
    let mut f = fixture(7, 300, 8, 3);
    let mut rng = StdRng::seed_from_u64(1);
    let q = random_uda(&mut rng, 8, 3);
    // Pick an actual probability value as the threshold: the boundary case
    // that epsilon handling must keep consistent across strategies.
    let probs: Vec<f64> = f
        .data
        .iter()
        .map(|(_, t)| eq_prob(&q, t))
        .filter(|&p| p > 0.0)
        .collect();
    let tau = probs[probs.len() / 2];
    let expect = reference_petq(&f.data, &q, tau);
    assert!(!expect.is_empty());
    for strat in Strategy::ALL {
        let got = f
            .idx
            .petq(&mut f.pool, &EqQuery::new(q.clone(), tau), strat)
            .unwrap();
        assert_same(&got, &expect, &format!("boundary tau, {strat:?}"));
    }
}

#[test]
fn top_k_matches_reference() {
    let mut f = fixture(11, 500, 10, 4);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..20 {
        let q = random_uda(&mut rng, 10, 4);
        for &k in &[1usize, 5, 20, 100] {
            let mut expect: Vec<Match> = f
                .data
                .iter()
                .filter_map(|(tid, t)| {
                    let pr = eq_prob(&q, t);
                    (pr > 0.0).then_some(Match::new(*tid, pr))
                })
                .collect();
            sort_matches_desc(&mut expect);
            expect.truncate(k);
            let got = f
                .idx
                .top_k(&mut f.pool, &TopKQuery::new(q.clone(), k))
                .unwrap();
            assert_same(&got, &expect, &format!("top-{k}"));
        }
    }
}

#[test]
fn top_k_larger_than_matching_set_returns_all() {
    let mut f = fixture(3, 50, 6, 2);
    let q = Uda::certain(CatId(0));
    let got = f
        .idx
        .top_k(&mut f.pool, &TopKQuery::new(q.clone(), 1000))
        .unwrap();
    let matching = f.data.iter().filter(|(_, t)| eq_prob(&q, t) > 0.0).count();
    assert_eq!(got.len(), matching);
}

#[test]
fn peq_returns_every_overlapping_tuple() {
    for mut f in dense_and_spread(17, 200, 6, 3) {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let q = random_uda(&mut rng, 6, 3);
            let got = f.idx.peq(&mut f.pool, &q).unwrap();
            let mut expect: Vec<Match> = f
                .data
                .iter()
                .filter_map(|(tid, t)| {
                    let pr = eq_prob(&q, t);
                    (pr > 0.0).then_some(Match::new(*tid, pr))
                })
                .collect();
            sort_matches_desc(&mut expect);
            assert_bits(&got, &expect, &format!("peq {q:?}"));
        }
    }
}

#[test]
fn dstq_matches_reference_for_all_divergences() {
    let mut f = fixture(23, 300, 8, 3);
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..10 {
        let q = random_uda(&mut rng, 8, 3);
        for dv in Divergence::ALL {
            for &tau_d in &[0.05, 0.3, 0.8, 1.5] {
                let query = DstQuery::new(q.clone(), tau_d, dv);
                let got = f.idx.dstq(&mut f.pool, &query).unwrap();
                let mut expect: Vec<Match> = f
                    .data
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
fn results_survive_incremental_inserts_and_deletes() {
    let mut f = fixture(31, 200, 8, 3);
    let mut rng = StdRng::seed_from_u64(13);
    // Delete a third, insert some new ones.
    for tid in (0..200u64).step_by(3) {
        assert!(f.idx.delete(&mut f.pool, tid).unwrap());
    }
    f.data.retain(|(tid, _)| tid % 3 != 0);
    for tid in 1000..1050u64 {
        let u = random_uda(&mut rng, 8, 3);
        f.idx.insert(&mut f.pool, tid, &u).unwrap();
        f.data.push((tid, u));
    }
    let q = random_uda(&mut rng, 8, 3);
    for &tau in &[0.05, 0.4] {
        let expect = reference_petq(&f.data, &q, tau);
        for strat in Strategy::ALL {
            let got = f
                .idx
                .petq(&mut f.pool, &EqQuery::new(q.clone(), tau), strat)
                .unwrap();
            assert_same(&got, &expect, &format!("after updates, {strat:?}"));
        }
    }
}

#[test]
fn early_stopping_beats_brute_on_high_thresholds() {
    // The paper's claim for the optimized strategies: "especially useful
    // when the data or query is likely to contain many insignificantly low
    // probability values" and the threshold is high. With long lists and a
    // threshold close to the maximum attainable probability, Lemma 1 stops
    // highest-prob-first/NRA after a short prefix, while inv-index-search
    // reads every query list end to end.
    let mut f = fixture(51, 20_000, 5, 2);
    let mut rng = StdRng::seed_from_u64(8);
    // A concentrated query: one dominant category.
    let q = Uda::from_pairs([
        (CatId(rng.random_range(0..5)), 0.9f32),
        (CatId(5 % 5), 0.0), // no-op entry, dropped
    ])
    .unwrap();
    // 0.95 is above any attainable probability for this query (≤ 0.9):
    // Lemma 1 stops the optimized strategies after one frontier peek,
    // while inv-index-search still reads the whole list.
    let query = EqQuery::new(q, 0.95);

    let io_for = |strat: Strategy, f: &mut Fixture| {
        f.pool.clear().unwrap();
        f.pool.reset_stats();
        let n = f.idx.petq(&mut f.pool, &query, strat).unwrap().len();
        (f.pool.stats().physical_reads, n)
    };

    let (brute_io, brute_n) = io_for(Strategy::Brute, &mut f);
    let (nra_io, nra_n) = io_for(Strategy::Nra, &mut f);
    let (hpf_io, hpf_n) = io_for(Strategy::HighestProbFirst, &mut f);
    assert_eq!(brute_n, nra_n);
    assert_eq!(brute_n, hpf_n);
    assert!(
        nra_io < brute_io,
        "NRA ({nra_io} I/Os) should beat brute force ({brute_io} I/Os) at high thresholds"
    );
    assert!(
        hpf_io <= brute_io,
        "highest-prob-first ({hpf_io} I/Os) should not exceed brute ({brute_io} I/Os) here"
    );
}

#[test]
fn planned_top_k_agrees_with_the_drain_on_queries_wider_than_the_bound_mask() {
    // More than 128 query lists: the drain keeps each candidate's
    // per-list mask in a bitset wider than `u128`, and is otherwise the
    // loop a narrow query runs. Under `Strategy::Auto` the threshold
    // executor answers instead: wider than its 64-bit mask, it bounds a
    // tuple's unseen lists by every unread list, and fetches nothing.
    let mut f = fixture(61, 1500, 150, 3);
    let q = Uda::from_pairs((0..140).map(|c| (CatId(c), 1.0 / 140.0))).unwrap();
    let mut expect: Vec<Match> = f
        .data
        .iter()
        .filter_map(|(tid, t)| {
            let pr = eq_prob(&q, t);
            (pr > 0.0).then_some(Match::new(*tid, pr))
        })
        .collect();
    sort_matches_desc(&mut expect);
    for k in [1usize, 25, 5000] {
        let want = &expect[..k.min(expect.len())];
        let query = TopKQuery::new(q.clone(), k);
        f.pool.reset_stats();
        let got = f.idx.top_k(&mut f.pool, &query).unwrap();
        let drained = f.pool.metrics();
        assert_same(&got, want, &format!("wide drain, top-{k}"));
        f.pool.reset_stats();
        let got = f
            .idx
            .top_k_planned(&mut f.pool, &query, Strategy::Auto)
            .unwrap();
        let planned = f.pool.metrics();
        assert_same(&got, want, &format!("wide planned, top-{k}"));
        assert!(planned.candidate_invariant_holds());
        assert_eq!((planned.candidates_verified, planned.frontier_pops), (0, 0));
        if k >= expect.len() {
            // More than the matching set: the drain empties every list,
            // the bounds converge and settle every candidate, and it
            // fetches no tuple either.
            assert_eq!(drained.candidates_settled, drained.candidates_generated);
            continue;
        }
        assert!(drained.candidates_verified > 0);
    }
    // Every PETQ strategy on the same wide query. The 140 lists carry
    // the same query probability, so a strategy opens all of them or
    // none; every opening accounts for each of its list's blocks once,
    // decoded or skipped, as brute force's full read does.
    for tau in [0.002, 0.01, 0.05] {
        let query = EqQuery::new(q.clone(), tau);
        let expect = reference_petq(&f.data, &q, tau);
        let mut brute_blocks = None;
        for strat in Strategy::ALL.into_iter().chain([Strategy::Auto]) {
            f.pool.reset_stats();
            let got = f.idx.petq(&mut f.pool, &query, strat).unwrap();
            let m = f.pool.metrics();
            let ctx = format!("wide petq, tau {tau}, {strat:?}");
            assert_same(&got, &expect, &ctx);
            assert!(m.candidate_invariant_holds(), "{ctx}: {m:?}");
            let blocks = *brute_blocks.get_or_insert(m.blocks_decoded);
            assert_eq!(
                (m.blocks_decoded + m.blocks_skipped) * 140,
                blocks * m.lists_opened,
                "{ctx}: {m:?}"
            );
        }
    }
}
