//! Cross-crate structural invariants of the latency tracing layer
//! (`uncat_storage::trace`, DESIGN.md §6g).
//!
//! Everything here is pinned to [`FakeClock`] or to pure histogram
//! arithmetic: tier-1 asserts span-tree *structure* and histogram
//! *algebra*, never real wall-clock magnitudes.

#![recursion_limit = "1024"]

use std::sync::Arc;

use proptest::prelude::*;
use uncat::core::query::EqQuery;
use uncat::core::{CatId, Domain, Uda};
use uncat::inverted::{InvertedIndex, Strategy};
use uncat::query::parallel::petq_batch_with;
use uncat::query::{batch_trace, run_query, BatchPools, InvertedBackend, UncertainIndex};
use uncat::storage::trace::{Clock, FakeClock, LatencyHistogram, Phase};
use uncat::storage::{BufferPool, InMemoryDisk, SharedStore};

fn uda(pairs: &[(u32, f32)]) -> Uda {
    Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
}

fn seeded_dataset(n: u64) -> (Domain, Vec<(u64, Uda)>) {
    let domain = Domain::anonymous(11);
    let data = (0..n)
        .map(|i| {
            let c = (i % 11) as u32;
            let p = if i % 3 == 0 { 0.8 } else { 0.3 };
            (i, uda(&[(c, p), ((c + 4) % 11, 1.0 - p)]))
        })
        .collect();
    (domain, data)
}

fn build(n: u64) -> (Domain, InvertedIndex, SharedStore) {
    let (domain, data) = seeded_dataset(n);
    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store.clone(), 256);
    let idx =
        InvertedIndex::build(domain.clone(), &mut pool, data.iter().map(|(t, u)| (*t, u))).unwrap();
    pool.flush().unwrap();
    (domain, idx, store)
}

/// Run one traced PETQ on a fresh pool with an auto-advancing fake
/// clock; returns (matches, trace).
fn traced_petq(
    backend: &InvertedBackend,
    store: &SharedStore,
    query: &EqQuery,
) -> (
    Vec<uncat::core::query::Match>,
    uncat::storage::trace::QueryTrace,
) {
    let mut pool = BufferPool::with_capacity(store.clone(), 100);
    let clock: Arc<dyn Clock> = Arc::new(FakeClock::auto(7));
    let out = run_query(&mut pool, Some(&clock), |pool| backend.petq(pool, query)).unwrap();
    (out.matches, out.trace.expect("tracer was installed"))
}

#[test]
fn fake_clock_span_tree_is_nested_and_deterministic() {
    let query = EqQuery::new(uda(&[(3, 1.0)]), 0.5);
    for strategy in Strategy::ALL {
        let (_, idx, store) = build(600);
        let backend = InvertedBackend::with_strategy(idx, strategy);
        let (matches, trace) = traced_petq(&backend, &store, &query);
        assert!(!matches.is_empty(), "{strategy:?} found nothing");

        // Exactly one root, and it is the `query` phase.
        let roots: Vec<_> = trace.spans.iter().filter(|s| s.is_root()).collect();
        assert_eq!(roots.len(), 1, "{strategy:?}: one root span");
        assert_eq!(roots[0].phase, Phase::Query);
        assert!(
            trace.spans.len() >= 2,
            "{strategy:?}: search phases recorded under the root"
        );

        // Every child nests strictly inside its parent (the auto clock
        // ticks on each reading, so closed intervals nest strictly).
        for (i, s) in trace.spans.iter().enumerate() {
            if s.is_root() {
                continue;
            }
            let p = &trace.spans[s.parent as usize];
            assert!(
                s.start_ns >= p.start_ns && s.start_ns + s.dur_ns <= p.start_ns + p.dur_ns,
                "{strategy:?}: span {i} ({:?}) escapes its parent ({:?})",
                s.phase,
                p.phase,
            );
        }

        // Self times partition the root total exactly: with one root and
        // properly nested children, Σ self(i) == total.
        let self_sum: u64 = (0..trace.spans.len()).map(|i| trace.self_ns(i)).sum();
        assert_eq!(
            self_sum,
            trace.total_ns(),
            "{strategy:?}: child self-times must partition the root total"
        );

        // Determinism: the same query under the same fake clock yields
        // the identical phase sequence and durations.
        let (_, again) = traced_petq(&backend, &store, &query);
        let shape = |t: &uncat::storage::trace::QueryTrace| -> Vec<(Phase, u32, u64, u64)> {
            t.spans
                .iter()
                .map(|s| (s.phase, s.parent, s.start_ns, s.dur_ns))
                .collect()
        };
        assert_eq!(
            shape(&trace),
            shape(&again),
            "{strategy:?}: not deterministic"
        );
    }
}

#[test]
fn disabled_tracer_yields_no_trace_and_identical_results() {
    let (_, idx, store) = build(400);
    let backend = InvertedBackend::with_strategy(idx, Strategy::Nra);
    let query = EqQuery::new(uda(&[(2, 1.0)]), 0.4);

    let mut plain_pool = BufferPool::with_capacity(store.clone(), 100);
    let plain = backend.petq(&mut plain_pool, &query).unwrap();
    assert!(
        plain_pool.take_trace().is_none(),
        "no tracer installed → no trace"
    );
    assert!(!plain_pool.trace_enabled());

    let (traced, trace) = traced_petq(&backend, &store, &query);
    assert_eq!(plain, traced, "tracing must not change results");
    assert!(trace.total_ns() > 0);
}

#[test]
fn trace_accounts_for_buffer_pool_io() {
    let (_, idx, store) = build(1200);
    let backend = InvertedBackend::with_strategy(idx, Strategy::Brute);
    // Cold fresh pool → the brute scan must fault posting pages in.
    let (_, trace) = traced_petq(&backend, &store, &EqQuery::new(uda(&[(1, 1.0)]), 0.25));
    assert!(
        trace.hist.buffer_read.count() > 0,
        "cold brute scan must record physical reads"
    );
    assert!(
        trace.total_ns() >= trace.hist.io_total_ns(),
        "span tree total ({}) must cover summed buffer-pool I/O time ({})",
        trace.total_ns(),
        trace.hist.io_total_ns(),
    );
}

#[test]
fn batch_trace_merges_worker_traces_exactly() {
    let (_, idx, store) = build(800);
    let backend = InvertedBackend::with_strategy(idx, Strategy::Nra);
    let eqs: Vec<EqQuery> = (0..8)
        .map(|i| EqQuery::new(uda(&[(i % 11, 1.0)]), 0.3))
        .collect();
    let pools = BatchPools::private(100).traced(Arc::new(FakeClock::auto(3)));

    let batch = petq_batch_with(&backend, &store, &pools, &eqs, 3);
    let merged = batch_trace(&batch);
    let ok: Vec<_> = batch.iter().filter_map(|r| r.as_ref().ok()).collect();
    assert_eq!(ok.len(), 8, "all queries succeed");
    // Merging is exact, field-wise addition: counts, sums, and the span
    // population all add up across workers however the batch was
    // scheduled.
    let traces: Vec<_> = ok.iter().map(|o| o.trace.as_ref().unwrap()).collect();
    assert_eq!(
        merged.spans.len(),
        traces.iter().map(|t| t.spans.len()).sum::<usize>()
    );
    assert_eq!(
        merged.total_ns(),
        traces.iter().map(|t| t.total_ns()).sum::<u64>()
    );
    for field in 0..4 {
        let name = merged.hist.named()[field].0;
        assert_eq!(
            merged.hist.named()[field].1.count(),
            traces
                .iter()
                .map(|t| t.hist.named()[field].1.count())
                .sum::<u64>(),
            "histogram {name} count must be additive"
        );
        assert_eq!(
            merged.hist.named()[field].1.sum_ns(),
            traces
                .iter()
                .map(|t| t.hist.named()[field].1.sum_ns())
                .sum::<u64>(),
            "histogram {name} sum must be additive"
        );
    }
}

/// Exact quantile of a sample set under the histogram's rank rule
/// (`rank = ceil(q·n)`, 1-based).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

fn hist_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

fn hist_eq(x: &LatencyHistogram, y: &LatencyHistogram) -> bool {
    x.buckets() == y.buckets()
        && x.count() == y.count()
        && x.sum_ns() == y.sum_ns()
        && x.max_ns() == y.max_ns()
}

/// Upper-edge quantile estimates: never below the exact sample
/// quantile, and less than 2× it (one log₂ bucket of slack); the
/// estimate is also capped by the exact max.
fn check_quantile_bounds(mut samples: Vec<u64>, q: f64) {
    let h = hist_of(&samples);
    samples.sort_unstable();
    let exact = exact_quantile(&samples, q);
    let est = h.quantile_ns(q);
    prop_assert!(est >= exact, "estimate {est} below exact {exact}");
    prop_assert!(
        est <= (2 * exact.max(1)).min(*samples.last().unwrap()).max(exact),
        "estimate {est} overshoots exact {exact} by ≥ 2×"
    );
    prop_assert_eq!(h.max_ns(), *samples.last().unwrap());
    prop_assert_eq!(h.count(), samples.len() as u64);
}

/// Merge is associative and commutative: any grouping/order of
/// per-worker histograms produces the identical batch histogram.
fn check_merge_algebra(a: &[u64], b: &[u64], c: &[u64]) {
    // (a ∪ b) ∪ c == a ∪ (b ∪ c)
    let mut left = hist_of(a);
    left.merge(&hist_of(b));
    left.merge(&hist_of(c));
    let mut right_inner = hist_of(b);
    right_inner.merge(&hist_of(c));
    let mut right = hist_of(a);
    right.merge(&right_inner);
    prop_assert!(hist_eq(&left, &right), "merge is not associative");

    // a ∪ b == b ∪ a
    let mut ab = hist_of(a);
    ab.merge(&hist_of(b));
    let mut ba = hist_of(b);
    ba.merge(&hist_of(a));
    prop_assert!(hist_eq(&ab, &ba), "merge is not commutative");

    // And both equal the histogram of the concatenated samples.
    let mut all = a.to_vec();
    all.extend_from_slice(b);
    let direct = hist_of(&all);
    prop_assert!(hist_eq(&ab, &direct), "merge differs from direct recording");
}

proptest! {
    #[test]
    fn histogram_quantiles_bound_the_exact_value(
        samples in proptest::collection::vec(0u64..=1_000_000_000, 1..200),
        q in 0.01f64..=1.0,
    ) {
        check_quantile_bounds(samples, q);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative(
        a in proptest::collection::vec(0u64..=1_000_000_000, 0..50),
        b in proptest::collection::vec(0u64..=1_000_000_000, 0..50),
        c in proptest::collection::vec(0u64..=1_000_000_000, 0..50),
    ) {
        check_merge_algebra(&a, &b, &c);
    }
}
