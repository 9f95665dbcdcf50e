//! Planner-vs-oracle harness.
//!
//! Three properties pin the cost-based planner to the ground truth of
//! actually running every plan:
//!
//! 1. **Exactness** — whatever plan `Strategy::Auto` (and the
//!    cross-backend [`Planner`]) picks, the results are tid-exact
//!    against the scan baseline. Planning is allowed to be wrong about
//!    cost, never about answers.
//! 2. **Competitiveness** — on statistics that are fresh (collected at
//!    build time, no mutations since), the plan the planner executes
//!    costs at most twice what the per-query best fixed strategy costs
//!    under the scalar cost model, measured on real counters with a
//!    cold buffer pool per run.
//! 3. **Bounded regret** — when statistics are stale enough that the
//!    picked plan overruns its prediction, the adaptive executor
//!    abandons it for the full scan; the total work (postings scanned,
//!    physical reads) is the abandoned prefix of the losing plan *plus*
//!    a brute-force run, and never exceeds running the losing plan to
//!    completion plus running brute force cold.

use proptest::prelude::*;

use uncat::core::query::{EqQuery, Match, TopKQuery};
use uncat::core::{CatId, Domain, Uda, UdaBuilder};
use uncat::datagen::crm;
use uncat::prelude::*;
use uncat::query::{Plan, PlannedBackend, Planner, ScanBaseline, UncertainIndex};
use uncat_inverted::{
    InvertedIndex, Strategy, ENTRIES_PER_PAGE, FALLBACK_BUDGET_FLOOR, OVERRUN_FACTOR,
};
use uncat_pdrtree::{PdrConfig, PdrTree};

/// Cases per property: `default`, or `PROPTEST_CASES` when set (the
/// vendored proptest does not read the variable itself).
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The scalar cost the planner optimizes, applied to *measured*
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
        "{what}: planned run returned different tuples than scan"
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

    // Property 1: exactness. Auto and the cross-backend planner's pick
    // answer every query identically to the scan baseline on CRM
    // corpora — the datasets the planner was tuned against are not
    // allowed to be the datasets it is correct on by accident, so size,
    // seed, threshold, and probe tuple are all generated.
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
    let idx = InvertedIndex::build(domain.clone(), &mut pool, data.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory build");
    let pdr = PdrTree::build(
        domain,
        PdrConfig::default(),
        &mut pool,
        data.iter().map(|(t, u)| (*t, u)),
    )
    .expect("in-memory build");

    let q = data[probe % data.len()].1.clone();
    let eq = EqQuery::new(q.clone(), tau);
    let reference = scan.petq(&mut pool, &eq).expect("in-memory query");

    // The in-index planner: Auto against the scan baseline.
    let auto = idx
        .petq(&mut pool, &eq, Strategy::Auto)
        .expect("in-memory query");
    assert_matches_agree("petq/auto", &reference, &auto);

    // The cross-backend planner: execute exactly the backend it picked.
    let planner = Planner::for_both(&idx, &pdr);
    let run = |plan: &Plan, pool: &mut BufferPool| match plan.backend {
        PlannedBackend::Inverted(s) => idx.petq(pool, &eq, s).expect("in-memory query"),
        PlannedBackend::PdrTree => UncertainIndex::petq(&pdr, pool, &eq).expect("in-memory query"),
        PlannedBackend::Scan => scan.petq(pool, &eq).expect("in-memory query"),
    };
    let plan = planner.plan_petq(&eq);
    assert_matches_agree(
        &format!("petq/planned/{}", plan.backend.name()),
        &reference,
        &run(&plan, &mut pool),
    );

    // Top-k rides along: the planner may route it to either index; both
    // must agree with scan.
    let tk = TopKQuery::new(q, k);
    let reference = scan.top_k(&mut pool, &tk).expect("in-memory query");
    let got = match planner.plan_top_k(&tk).backend {
        PlannedBackend::PdrTree => {
            UncertainIndex::top_k(&pdr, &mut pool, &tk).expect("in-memory query")
        }
        _ => idx.top_k(&mut pool, &tk).expect("in-memory query"),
    };
    assert_matches_agree("top_k/planned", &reference, &got);
    // And the in-index plan: the drain `Auto` may leave for the scan.
    let auto = idx
        .top_k_planned(&mut pool, &tk, 0.0, Strategy::Auto)
        .expect("in-memory query");
    assert_matches_agree("top_k/auto", &reference, &auto);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(8)))]

    // Property 2: competitiveness. With fresh statistics, the cost Auto
    // actually pays is within 2x of the per-query oracle (the cheapest
    // fixed strategy *for this very query*, measured, cold pool each
    // run). One page of additive slack absorbs the discreteness of
    // page-granular reads on small corpora.
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
    let (domain, data) = crm::crm1(n, seed);
    let store = InMemoryDisk::shared();
    let mut build_pool = BufferPool::with_capacity(store.clone(), 512);
    let idx = InvertedIndex::build(domain, &mut build_pool, data.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory build");
    build_pool.flush().expect("in-memory flush");
    drop(build_pool); // every measured run below starts cold

    let q = EqQuery::new(data[probe % data.len()].1.clone(), tau);
    let mut oracle = u64::MAX;
    let mut oracle_name = "";
    for strategy in Strategy::ALL {
        let mut pool = BufferPool::with_capacity(store.clone(), 512);
        idx.petq(&mut pool, &q, strategy).expect("in-memory query");
        let m = pool.metrics();
        if scalar_cost(&m) < oracle {
            oracle = scalar_cost(&m);
            oracle_name = strategy.name();
        }
    }

    let mut pool = BufferPool::with_capacity(store, 512);
    idx.petq(&mut pool, &q, Strategy::Auto)
        .expect("in-memory query");
    let m = pool.metrics();
    let auto = scalar_cost(&m);
    assert!(
        auto <= 2 * oracle + ENTRIES_PER_PAGE,
        "auto cost {auto} exceeds twice the oracle ({oracle_name}: {oracle}) plus one page"
    );
}

/// Property 3: bounded regret under stale statistics. Statistics are
/// primed on a small corpus, then one posting list is grown far past
/// the overrun budget without a checkpoint — the staleness-by-design
/// case. Auto's pick must overrun, the fallback must fire, and the work
/// must be exactly (abandoned prefix of the losing plan) + (brute force):
/// the prefix is at most the budget plus the block in flight, the scan
/// reads each list once and fetches no tuple, so the total stays under
/// (losing plan run to completion) + (brute force cold) — abandoning a
/// plan is never worse than stubbornly finishing it and then some.
#[test]
fn adaptive_fallback_work_is_bounded() {
    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store.clone(), 1024);
    let (domain, data) = crm::crm1(300, 5);
    let mut idx = InvertedIndex::build(domain, &mut pool, data.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory build");
    // Prime the statistics: this is what build/checkpoint time does.
    let stale_len = idx.cost_stats().cats.get(&CatId(0)).map_or(0, |c| c.len);

    // Grow category 0 far past any budget the stale statistics allow.
    let mut b = UdaBuilder::new();
    b.push(CatId(0), 1.0).expect("valid probability");
    let heavy = b.finish_normalized().expect("non-empty");
    let grown = 20 * (OVERRUN_FACTOR * stale_len + FALLBACK_BUDGET_FLOOR);
    for i in 0..grown {
        idx.insert(&mut pool, 100_000 + i, &heavy)
            .expect("in-memory insert");
    }
    pool.flush().expect("in-memory flush");
    drop(pool);

    let mut probe = UdaBuilder::new();
    probe.push(CatId(0), 1.0).expect("valid probability");
    let q = EqQuery::new(probe.finish_normalized().expect("non-empty"), 0.1);

    // The (stale) pick, run to completion, and a cold brute-force run.
    let (pick, prediction) = idx.plan_petq(&q);
    let budget = OVERRUN_FACTOR * prediction.postings_scanned + FALLBACK_BUDGET_FLOOR;
    let mut pool = BufferPool::with_capacity(store.clone(), 1024);
    let reference = idx.petq(&mut pool, &q, pick).expect("in-memory query");
    let lose = pool.metrics();
    assert!(
        lose.postings_scanned > budget,
        "the scenario must actually overrun: {} postings vs budget {budget}",
        lose.postings_scanned
    );
    let mut pool = BufferPool::with_capacity(store.clone(), 1024);
    idx.petq(&mut pool, &q, Strategy::Brute)
        .expect("in-memory query");
    let brute = pool.metrics();

    let mut pool = BufferPool::with_capacity(store, 1024);
    let got = idx
        .petq(&mut pool, &q, Strategy::Auto)
        .expect("in-memory query");
    let auto = pool.metrics();

    assert_eq!(
        auto.plan_fallbacks, 1,
        "stale statistics past the overrun budget must trigger the fallback, once"
    );
    assert_matches_agree("petq/auto-after-fallback", &reference, &got);
    // The fallback is exact from the lists alone: every candidate is
    // settled, none is fetched.
    assert_eq!(auto.candidates_verified, 0);
    assert_eq!(auto.candidates_settled, brute.candidates_settled);
    assert_eq!(auto.candidates_generated, brute.candidates_generated);
    // Abandoned prefix + brute force.
    let prefix = auto.postings_scanned - brute.postings_scanned;
    assert!(
        prefix > budget && prefix <= budget + uncat_inverted::BLOCK_SPLIT as u64,
        "the drain was abandoned {prefix} postings in, budget {budget}"
    );
    assert!(
        auto.postings_scanned <= lose.postings_scanned + brute.postings_scanned,
        "fallback did more postings work ({}) than losing-to-completion ({}) + brute cold ({})",
        auto.postings_scanned,
        lose.postings_scanned,
        brute.postings_scanned
    );
    // The scan runs on the pool the drain warmed: the prefix's pages are
    // not read again.
    assert!(
        auto.io.physical_reads <= brute.io.physical_reads + 1,
        "abandoned prefix + warm scan read {} pages, a cold scan {}",
        auto.io.physical_reads,
        brute.io.physical_reads
    );
    assert!(auto.io.physical_reads <= lose.io.physical_reads + brute.io.physical_reads);
}

/// Stale statistics and the top-k plan: the drain is priced against the
/// scan from the live lists, not from the cached statistics. Here those
/// were collected on an empty index (a scan of nothing costs nothing, so
/// a rule reading them would abandon every drain at its first pop); the
/// list then grows to 5 000 postings with distinct probabilities, and a
/// top-1 drain must still stop where the paper stops it — a block or
/// two in — instead of paying for the whole list.
#[test]
fn stale_statistics_do_not_turn_a_cheap_top_k_drain_into_a_scan() {
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 1024);
    let mut idx = InvertedIndex::new(Domain::anonymous(4));
    assert_eq!(idx.cost_stats().tuples, 0, "primed while empty");
    let n = 5_000u64;
    for t in 0..n {
        let p = (t + 1) as f32 / (n + 1) as f32;
        let uda = Uda::from_pairs([(CatId(0), p), (CatId(1), 1.0 - p)]).expect("valid uda");
        idx.insert(&mut pool, t, &uda).expect("in-memory insert");
    }
    assert_eq!(idx.cost_stats().tuples, 0, "and never refreshed");

    let tk = TopKQuery::new(Uda::certain(CatId(0)), 1);
    pool.reset_stats();
    let got = idx
        .top_k_planned(&mut pool, &tk, 0.0, Strategy::Auto)
        .expect("in-memory query");
    let m = pool.metrics();
    assert_eq!(got.iter().map(|m| m.tid).collect::<Vec<_>>(), vec![n - 1]);
    assert_eq!(
        (m.lists_opened, m.lemma1_stops),
        (1, 1),
        "the drain ran to its own stop"
    );
    assert!(
        m.postings_scanned <= 2 * uncat_inverted::BLOCK_SPLIT as u64,
        "{} of {n} postings read",
        m.postings_scanned
    );
}

/// Sanity anchor for the estimator on a dataset where every prediction
/// is exactly computable by hand: one list, uniform probabilities. The
/// planner must not pick a plan whose *measured* cost exceeds the
/// oracle at all here — there is nothing to be uncertain about.
#[test]
fn planner_is_exactly_optimal_on_a_single_uniform_list() {
    let store = InMemoryDisk::shared();
    let mut build_pool = BufferPool::with_capacity(store.clone(), 256);
    let mut b = UdaBuilder::new();
    b.push(CatId(2), 1.0).expect("valid probability");
    let u: Uda = b.finish_normalized().expect("non-empty");
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
    let mut oracle = u64::MAX;
    for strategy in Strategy::ALL {
        let mut pool = BufferPool::with_capacity(store.clone(), 256);
        idx.petq(&mut pool, &q, strategy).expect("in-memory query");
        let m = pool.metrics();
        oracle = oracle.min(scalar_cost(&m));
    }
    let mut pool = BufferPool::with_capacity(store, 256);
    idx.petq(&mut pool, &q, Strategy::Auto)
        .expect("in-memory query");
    let m = pool.metrics();
    assert_eq!(
        m.plan_fallbacks, 0,
        "fresh statistics must not trigger a fallback"
    );
    assert!(
        scalar_cost(&m) <= oracle,
        "auto paid {} where the oracle pays {oracle}",
        scalar_cost(&m)
    );
}
