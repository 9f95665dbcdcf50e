//! What `Strategy::Auto` runs, and the harness of the I/O model it no
//! longer consults.
//!
//! 1. **Exactness** — `Strategy::Auto`'s PETQ and top-k answer tid-exact
//!    against the scan baseline.
//! 2. **`Auto` answers as the scan, reading no more** — the threshold
//!    executor's answer is `Strategy::Brute`'s, tid for tid; it verifies
//!    nothing, every block of every list it opens is decoded or skipped,
//!    and it scans no more postings than the scan, whatever the
//!    statistics said before the lists grew. There is no plan to
//!    abandon, so `plan_fallbacks` stays 0.
//! 3. **The model's competitiveness** — the fixed strategy the I/O model
//!    ranks first (`plan_petq`, what `uncat explain` prints), run as
//!    that fixed strategy, costs at most twice what the per-query best
//!    fixed strategy costs under the scalar cost model, measured on real
//!    counters with a cold buffer pool per run.

use proptest::prelude::*;

use uncat::core::query::{EqQuery, Match, TopKQuery};
use uncat::core::{CatId, Domain, Uda};
use uncat::datagen::crm;
use uncat::prelude::*;
use uncat::query::{ScanBaseline, UncertainIndex};
use uncat_inverted::{InvertedIndex, Strategy, ENTRIES_PER_PAGE};
use uncat_storage::SharedStore;

/// Cases per property: `default`, or `PROPTEST_CASES` when set (the
/// vendored proptest does not read the variable itself).
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The scalar cost the I/O model ranks by, applied to *measured*
/// counters: postings scanned plus physical reads at the sequential
/// entries-per-page equivalence (docs/METRICS.md).
fn scalar_cost(m: &QueryMetrics) -> u64 {
    m.postings_scanned + ENTRIES_PER_PAGE * m.io.physical_reads
}

/// Same tuples, same order, scores within 1e-9 of the reference.
fn assert_matches_agree(what: &str, reference: &[Match], got: &[Match]) {
    assert_eq!(
        got.iter().map(|m| m.tid).collect::<Vec<_>>(),
        reference.iter().map(|m| m.tid).collect::<Vec<_>>(),
        "{what}: returned different tuples than scan"
    );
    for (r, g) in reference.iter().zip(got) {
        assert!(
            (r.score - g.score).abs() <= 1e-9,
            "{what}: tuple {} scored {} vs scan's {}",
            g.tid,
            g.score,
            r.score
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    // Property 1: exactness. Auto answers every query identically to
    // the scan baseline on CRM corpora; size, seed, threshold, and probe
    // tuple are all generated.
    #[test]
    fn planned_queries_are_tid_exact_against_scan(
        n in 200usize..1200,
        seed in 0u64..1000,
        tau in 0.05f64..0.6,
        probe in 0usize..1 << 16,
        k in 1usize..20,
    ) {
        check_planned_exactness(n, seed, tau, probe, k);
    }
}

fn check_planned_exactness(n: usize, seed: u64, tau: f64, probe: usize, k: usize) {
    let (domain, data) = crm::crm1(n, seed);
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 512);
    let scan =
        ScanBaseline::build(&mut pool, data.iter().map(|(t, u)| (*t, u))).expect("in-memory build");
    let idx = InvertedIndex::build(domain, &mut pool, data.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory build");

    let q = data[probe % data.len()].1.clone();
    let eq = EqQuery::new(q.clone(), tau);
    let reference = scan.petq(&mut pool, &eq).expect("in-memory query");

    // What a caller gets by default: Auto against the scan baseline.
    let auto = idx
        .petq(&mut pool, &eq, Strategy::Auto)
        .expect("in-memory query");
    assert_matches_agree("petq/auto", &reference, &auto);

    // Top-k rides along: the plan `Auto` runs is the block-granular
    // threshold executor.
    let tk = TopKQuery::new(q, k);
    let reference = scan.top_k(&mut pool, &tk).expect("in-memory query");
    let auto = idx
        .top_k_planned(&mut pool, &tk, Strategy::Auto)
        .expect("in-memory query");
    assert_matches_agree("top_k/auto", &reference, &auto);
}

/// A built index on its flushed store, with no pool left warm: every
/// measured run below starts cold.
fn cold_crm1(n: usize, seed: u64) -> (InvertedIndex, SharedStore, Vec<(u64, Uda)>) {
    let (domain, data) = crm::crm1(n, seed);
    let store = InMemoryDisk::shared();
    let mut build_pool = BufferPool::with_capacity(store.clone(), 512);
    let idx = InvertedIndex::build(domain, &mut build_pool, data.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory build");
    build_pool.flush().expect("in-memory flush");
    (idx, store, data)
}

/// One PETQ on a fresh, cold pool: the answer and the pool's ledger.
fn run_cold(
    idx: &InvertedIndex,
    store: &SharedStore,
    q: &EqQuery,
    strategy: Strategy,
) -> (Vec<Match>, QueryMetrics) {
    let mut pool = BufferPool::with_capacity(store.clone(), 1024);
    let out = idx.petq(&mut pool, q, strategy).expect("in-memory query");
    (out, pool.metrics())
}

/// `Auto`'s answer is `Brute`'s — the same tuples in the same order;
/// the two add a tuple's terms in different orders, so scores agree to
/// [`assert_matches_agree`]'s tolerance — and it reads by blocks what
/// the scan reads, or less. Returns `Auto`'s ledger.
fn assert_auto_answers_as_the_scan(
    idx: &InvertedIndex,
    store: &SharedStore,
    q: &EqQuery,
) -> QueryMetrics {
    let (reference, brute) = run_cold(idx, store, q, Strategy::Brute);
    let (got, auto) = run_cold(idx, store, q, Strategy::Auto);
    assert_matches_agree("petq/auto vs brute", &reference, &got);
    assert_eq!(auto.plan_fallbacks, 0);
    assert_eq!(auto.candidates_verified, 0, "auto fetches no tuple");
    assert_eq!(auto.lists_opened, brute.lists_opened);
    assert_eq!(
        auto.blocks_decoded + auto.blocks_skipped,
        brute.blocks_decoded,
        "every block of every opened list is decoded or skipped"
    );
    assert!(auto.postings_scanned <= brute.postings_scanned);
    auto
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(8)))]

    // Property 2 on random corpora.
    #[test]
    fn auto_answers_as_the_scan_reading_no_more(
        n in 500usize..2000,
        seed in 0u64..1000,
        tau in 0.05f64..0.6,
        probe in 0usize..1 << 16,
    ) {
        let (idx, store, data) = cold_crm1(n, seed);
        let q = EqQuery::new(data[probe % data.len()].1.clone(), tau);
        assert_auto_answers_as_the_scan(&idx, &store, &q);
    }

    // Property 3: the cost of the model's first-ranked strategy is
    // within 2x of the per-query oracle (the cheapest fixed strategy *for
    // this very query*, measured, cold pool each run). One page of
    // additive slack absorbs the discreteness of page-granular reads on
    // small corpora.
    #[test]
    fn auto_cost_is_within_twice_the_per_query_oracle(
        n in 500usize..2000,
        seed in 0u64..1000,
        tau in 0.05f64..0.6,
        probe in 0usize..1 << 16,
    ) {
        check_cost_vs_oracle(n, seed, tau, probe);
    }
}

fn check_cost_vs_oracle(n: usize, seed: u64, tau: f64, probe: usize) {
    let (idx, store, data) = cold_crm1(n, seed);
    let q = EqQuery::new(data[probe % data.len()].1.clone(), tau);
    let mut oracle = u64::MAX;
    let mut oracle_name = "";
    for strategy in Strategy::ALL {
        let (_, m) = run_cold(&idx, &store, &q, strategy);
        if scalar_cost(&m) < oracle {
            oracle = scalar_cost(&m);
            oracle_name = strategy.name();
        }
    }

    let (pick, _) = idx.plan_petq(&q);
    let (_, m) = run_cold(&idx, &store, &q, pick);
    let picked = scalar_cost(&m);
    assert!(
        picked <= 2 * oracle + ENTRIES_PER_PAGE,
        "{} costs {picked}, over twice the oracle ({oracle_name}: {oracle}) plus one page",
        pick.name()
    );
}

/// Property 2 where the old adaptive executor regretted most: statistics
/// read on a small corpus, then one posting list grown to twenty times
/// anything they describe. There is no stale pick to overrun and no
/// fallback to fire — `Auto` reads the grown list's blocks as the
/// directory describes them when it runs, every grown posting (each
/// meets τ) among them — and the statistics, dropped by the first
/// insert, describe the grown list when next asked.
#[test]
fn auto_answers_as_the_scan_on_a_list_grown_after_priming() {
    let (mut idx, store, _) = cold_crm1(300, 5);
    let primed_len = idx.cost_stats().cats.get(&CatId(0)).map_or(0, |c| c.len);

    let heavy = Uda::certain(CatId(0));
    let grown = 20 * (3 * primed_len + 512);
    let mut pool = BufferPool::with_capacity(store.clone(), 1024);
    for i in 0..grown {
        idx.insert(&mut pool, 100_000 + i, &heavy)
            .expect("in-memory insert");
    }
    pool.flush().expect("in-memory flush");
    drop(pool);

    let q = EqQuery::new(heavy, 0.1);
    let m = assert_auto_answers_as_the_scan(&idx, &store, &q);
    assert!((grown..=primed_len + grown).contains(&m.postings_scanned));
    assert_eq!(idx.cost_stats().cats[&CatId(0)].len, primed_len + grown);
}

/// No statistics enter `Auto`'s top-k: the threshold executor reads the
/// block directory as it is when the query runs. Here the statistics were
/// first read on an empty index (a plan priced from that reading would
/// take a scan of nothing for free); the list then grows to 5 000
/// postings with distinct probabilities, and a top-1 must still stop
/// where Lemma 1 stops it — a block or two in — instead of paying for the
/// whole list.
#[test]
fn stale_statistics_do_not_turn_a_cheap_top_k_drain_into_a_scan() {
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 1024);
    let mut idx = InvertedIndex::new(Domain::anonymous(4));
    assert_eq!(idx.cost_stats().tuples, 0, "read while empty");
    let n = 5_000u64;
    for t in 0..n {
        let p = (t + 1) as f32 / (n + 1) as f32;
        let uda = Uda::from_pairs([(CatId(0), p), (CatId(1), 1.0 - p)]).expect("valid uda");
        idx.insert(&mut pool, t, &uda).expect("in-memory insert");
    }

    let tk = TopKQuery::new(Uda::certain(CatId(0)), 1);
    pool.reset_stats();
    let got = idx
        .top_k_planned(&mut pool, &tk, Strategy::Auto)
        .expect("in-memory query");
    let m = pool.metrics();
    assert_eq!(got.iter().map(|m| m.tid).collect::<Vec<_>>(), vec![n - 1]);
    assert_eq!(
        (m.lists_opened, m.lemma1_stops),
        (1, 1),
        "the frontier ran to its own stop"
    );
    assert!(
        m.postings_scanned <= 2 * uncat_inverted::BLOCK_SPLIT as u64,
        "{} of {n} postings read",
        m.postings_scanned
    );
}

/// Sanity anchor for the estimator on a dataset where every prediction
/// is exactly computable by hand: one list, uniform probabilities. The
/// strategy the model ranks first must not *measure* dearer than the
/// oracle at all here — there is nothing to be uncertain about.
#[test]
fn planner_is_exactly_optimal_on_a_single_uniform_list() {
    let store = InMemoryDisk::shared();
    let mut build_pool = BufferPool::with_capacity(store.clone(), 256);
    let u = Uda::certain(CatId(2));
    let tuples: Vec<(u64, Uda)> = (0..4000).map(|t| (t, u.clone())).collect();
    let idx = InvertedIndex::build(
        Domain::anonymous(8),
        &mut build_pool,
        tuples.iter().map(|(t, v)| (*t, v)),
    )
    .expect("in-memory build");
    build_pool.flush().expect("in-memory flush");
    drop(build_pool);

    let q = EqQuery::new(u, 0.4);
    let oracle = Strategy::ALL
        .iter()
        .map(|&strategy| scalar_cost(&run_cold(&idx, &store, &q, strategy).1))
        .min()
        .expect("five strategies");
    let (pick, _) = idx.plan_petq(&q);
    let picked = scalar_cost(&run_cold(&idx, &store, &q, pick).1);
    assert!(
        picked <= oracle,
        "{} pays {picked} where the oracle pays {oracle}",
        pick.name()
    );
}
