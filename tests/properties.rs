//! Property-based tests (proptest) over the core invariants listed in
//! DESIGN.md §7.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use proptest::prelude::*;

use uncat::core::equality::eq_prob;
use uncat::core::query::{sort_matches_desc, EqQuery, Match};
use uncat::core::topk::TopKHeap;
use uncat::core::{codec, CatId, Divergence, Domain, Uda};
use uncat::prelude::*;
use uncat::query::{InvertedBackend, ScanBaseline, UncertainIndex};
use uncat_inverted::InvertedIndex;
use uncat_pdrtree::{PdrConfig, PdrTree};
use uncat_storage::btree::keys::u64_be;
use uncat_storage::btree::BTree;

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

fn dataset_strategy(cats: u32, max_n: usize) -> impl Strategy<Value = Vec<Uda>> {
    prop::collection::vec(uda_strategy(cats), 1..=max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn codec_roundtrips_any_valid_uda(u in uda_strategy(2000)) {
        let bytes = codec::encode_to_vec(&u);
        let (v, used) = codec::decode(&bytes).expect("roundtrip");
        prop_assert_eq!(&u, &v);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn eq_prob_is_symmetric_bounded_probability(u in uda_strategy(12), v in uda_strategy(12)) {
        let puv = eq_prob(&u, &v);
        let pvu = eq_prob(&v, &u);
        prop_assert!((puv - pvu).abs() < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&puv));
        // Tighter bounds from §3's pruning arguments.
        prop_assert!(puv <= u.max_prob() as f64 + 1e-9);
        prop_assert!(puv <= v.max_prob() as f64 + 1e-9);
    }

    #[test]
    fn metric_divergences_satisfy_axioms(
        a in uda_strategy(10),
        b in uda_strategy(10),
        c in uda_strategy(10),
    ) {
        for dv in [Divergence::L1, Divergence::L2] {
            let ab = dv.eval(a.entries(), b.entries());
            let ba = dv.eval(b.entries(), a.entries());
            prop_assert!((ab - ba).abs() < 1e-9, "symmetry");
            prop_assert!(ab >= 0.0, "non-negativity");
            let ac = dv.eval(a.entries(), c.entries());
            let cb = dv.eval(c.entries(), b.entries());
            prop_assert!(ab <= ac + cb + 1e-9, "triangle inequality for {:?}", dv);
        }
        for dv in [Divergence::L1, Divergence::L2] {
            prop_assert!(dv.eval(a.entries(), a.entries()) == 0.0);
        }
    }

    #[test]
    fn kl_is_nonnegative_and_finite(a in uda_strategy(10), b in uda_strategy(10)) {
        let d = Divergence::Kl.eval(a.entries(), b.entries());
        prop_assert!(d.is_finite());
        prop_assert!(d >= -1e-9);
    }

    // Matches reach the heap one by one or as ranked runs
    // (`merge_sorted`): the tids are cut into up to four runs at `cuts`,
    // and bit i of `whole` says whether run i arrives whole (sorted
    // first) or match by match. Either way the heap keeps the k best at
    // or above the floor, tied scores (`coarse`) included.
    #[test]
    fn topk_heap_equals_sort_and_truncate(
        scores in prop::collection::vec(0.0f64..1.0, 0..60),
        k in 0usize..20,
        floor in 0.0f64..0.5,
        coarse in any::<bool>(),
        cuts in prop::collection::vec(0usize..60, 0..4),
        whole in any::<u8>(),
    ) {
        let scores: Vec<f64> = scores
            .iter()
            .map(|&s| if coarse { (s * 4.0).floor() / 4.0 } else { s })
            .collect();
        // Tids out of arrival order, so ties between runs break both ways.
        let tid = |t: usize| (t * 37 % 61) as u64;
        let mut h = TopKHeap::new(k, floor);
        let mut cuts = cuts;
        cuts.push(scores.len());
        cuts.sort_unstable();
        let mut from = 0;
        for (i, &to) in cuts.iter().enumerate() {
            let to = to.min(scores.len()).max(from);
            let mut run: Vec<Match> = (from..to).map(|t| Match::new(tid(t), scores[t])).collect();
            if whole >> i & 1 == 1 {
                sort_matches_desc(&mut run);
                h.merge_sorted(run);
            } else {
                for m in run {
                    h.offer(m.tid, m.score);
                }
            }
            from = to;
        }
        let threshold = h.threshold();
        let got: Vec<(u64, f64)> = h.into_sorted().into_iter().map(|m| (m.tid, m.score)).collect();
        let mut expect: Vec<(u64, f64)> = scores
            .iter()
            .enumerate()
            .map(|(t, &s)| (tid(t), s))
            .filter(|&(_, s)| s >= floor)
            .collect();
        expect.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        expect.truncate(k);
        let kth = if expect.len() == k && k > 0 { expect[k - 1].1 } else { floor };
        prop_assert_eq!(threshold, kth);
        prop_assert_eq!(got, expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn btree_behaves_like_btreemap(ops in prop::collection::vec((0u8..2, 0u64..500), 1..400)) {
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
        let mut tree: BTree<8, 8> = BTree::create(&mut pool).expect("in-memory create");
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, key) in ops {
            if op == 0 {
                let val = key.wrapping_mul(31);
                let a = tree.insert(&mut pool, &u64_be(key), &u64_be(val)).expect("in-memory insert");
                let b = model.insert(key, val);
                prop_assert_eq!(a.map(u64::from_be_bytes), b);
            } else {
                let a = tree.get(&mut pool, &u64_be(key)).expect("in-memory get");
                let b = model.get(&key).copied();
                prop_assert_eq!(a.map(u64::from_be_bytes), b);
            }
        }
        prop_assert_eq!(tree.len() as usize, model.len());
        let mut scanned = Vec::new();
        tree.scan_all(&mut pool, |k, v| {
            scanned.push((u64::from_be_bytes(*k), u64::from_be_bytes(*v)));
            ControlFlow::Continue(())
        })
        .expect("in-memory scan");
        let expect: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(scanned, expect);
    }

    #[test]
    fn inverted_index_agrees_with_scan_on_arbitrary_data(
        data in dataset_strategy(8, 60),
        q in uda_strategy(8),
        tau in 0.01f64..0.9,
    ) {
        let tuples: Vec<(u64, Uda)> =
            data.into_iter().enumerate().map(|(i, u)| (i as u64, u)).collect();
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 100);
        let idx = InvertedBackend::with_strategy(
            InvertedIndex::build(Domain::anonymous(8), &mut pool, tuples.iter().map(|(t, u)| (*t, u)))
                .expect("in-memory build"),
            uncat_inverted::Strategy::Nra,
        );
        let scan = ScanBaseline::build(&mut pool, tuples.iter().map(|(t, u)| (*t, u)))
            .expect("in-memory build");
        let query = EqQuery::new(q, tau);
        let a = idx.petq(&mut pool, &query).expect("in-memory query");
        let b = scan.petq(&mut pool, &query).expect("in-memory query");
        prop_assert_eq!(
            a.iter().map(|m| m.tid).collect::<Vec<_>>(),
            b.iter().map(|m| m.tid).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pdr_tree_agrees_with_scan_on_arbitrary_data(
        data in dataset_strategy(8, 60),
        q in uda_strategy(8),
        tau in 0.01f64..0.9,
    ) {
        let tuples: Vec<(u64, Uda)> =
            data.into_iter().enumerate().map(|(i, u)| (i as u64, u)).collect();
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 100);
        let tree = PdrTree::build(
            Domain::anonymous(8),
            PdrConfig::default(),
            &mut pool,
            tuples.iter().map(|(t, u)| (*t, u)),
        )
        .expect("in-memory build");
        let scan = ScanBaseline::build(&mut pool, tuples.iter().map(|(t, u)| (*t, u)))
            .expect("in-memory build");
        let query = EqQuery::new(q, tau);
        let a = UncertainIndex::petq(&tree, &mut pool, &query).expect("in-memory query");
        let b = scan.petq(&mut pool, &query).expect("in-memory query");
        prop_assert_eq!(
            a.iter().map(|m| m.tid).collect::<Vec<_>>(),
            b.iter().map(|m| m.tid).collect::<Vec<_>>()
        );
        tree.check_invariants(&mut pool).expect("in-memory read");
    }

    #[test]
    fn uda_mass_never_exceeds_one(u in uda_strategy(30)) {
        prop_assert!(u.mass() <= 1.0 + 1e-4);
        prop_assert!(!u.is_empty());
        let mode = u.mode().expect("non-empty");
        prop_assert!(u.iter().all(|(_, p)| p <= mode.prob));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ordered_trichotomy_partitions_unit_mass(u in uda_strategy(12), v in uda_strategy(12)) {
        use uncat::core::ordered::{pr_greater, pr_less};
        let total = pr_less(&u, &v) + pr_greater(&u, &v) + eq_prob(&u, &v);
        prop_assert!((total - 1.0).abs() < 1e-4, "trichotomy sum {total}");
        prop_assert!(pr_less(&u, &v) >= 0.0 && pr_greater(&u, &v) >= 0.0);
    }

    #[test]
    fn window_probability_is_monotone_in_c(u in uda_strategy(12), v in uda_strategy(12)) {
        use uncat::core::ordered::pr_within;
        let mut prev = -1.0f64;
        for c in 0..6u32 {
            let p = pr_within(&u, &v, c);
            prop_assert!(p >= prev - 1e-12, "window must widen monotonically");
            prop_assert!(p <= 1.0 + 1e-4);
            prev = p;
        }
        prop_assert!((pr_within(&u, &v, 0) - eq_prob(&u, &v)).abs() < 1e-9);
        prop_assert!((pr_within(&u, &v, 64) - 1.0).abs() < 1e-4, "window covers the domain");
    }

    #[test]
    fn window_smooth_agrees_with_direct_window(u in uda_strategy(10), v in uda_strategy(10), c in 0u32..5) {
        use uncat::core::ordered::{pr_within, window_smooth};
        let smooth = window_smooth(&u, c, 10);
        let ip: f64 = v
            .iter()
            .map(|(cat, p)| {
                smooth
                    .binary_search_by_key(&cat, |e| e.cat)
                    .map(|k| smooth[k].prob as f64)
                    .unwrap_or(0.0)
                    * p as f64
            })
            .sum();
        prop_assert!((ip - pr_within(&u, &v, c)).abs() < 1e-5);
    }

    #[test]
    fn codec_decode_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Decoding untrusted bytes must fail gracefully, never panic.
        let _ = codec::decode(&bytes);
    }

    #[test]
    fn posting_key_encoding_orders_by_descending_probability(
        mut probs in prop::collection::vec(0.001f32..1.0, 2..20),
    ) {
        use uncat_storage::btree::keys::{concat, f32_desc, u32_be};
        probs.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let keys: Vec<[u8; 8]> =
            probs.iter().enumerate().map(|(i, &p)| concat(f32_desc(p), u32_be(i as u32))).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        prop_assert_eq!(keys, sorted, "descending probability = ascending key order");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pr_less_matches_quadratic_reference(u in uda_strategy(10), v in uda_strategy(10)) {
        // O(n²) reference for the merge-based implementation.
        let mut expect = 0.0f64;
        for (cu, pu) in u.iter() {
            for (cv, pv) in v.iter() {
                if cu < cv {
                    expect += pu as f64 * pv as f64;
                }
            }
        }
        let got = uncat::core::ordered::pr_less(&u, &v);
        prop_assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
    }

    #[test]
    fn pr_within_matches_quadratic_reference(
        u in uda_strategy(10),
        v in uda_strategy(10),
        c in 0u32..6,
    ) {
        let mut expect = 0.0f64;
        for (cu, pu) in u.iter() {
            for (cv, pv) in v.iter() {
                if cu.0.abs_diff(cv.0) <= c {
                    expect += pu as f64 * pv as f64;
                }
            }
        }
        let got = uncat::core::ordered::pr_within(&u, &v, c);
        prop_assert!((got - expect).abs() < 1e-9, "c={c}: {got} vs {expect}");
    }

    // Scores and ceilings on a grid of quarters, so that ties occur, and
    // arbitrary scores beside them; `+∞` is the DS-top-k ceiling. After
    // every offer the bound is the ceiling until k scores are in, then
    // the k-th smallest.
    #[test]
    fn bottom_k_heap_equals_sort_and_truncate(
        draws in prop::collection::vec((0u8..8, 0.0f64..2.0, 0u8..2), 0..60),
        k in 1usize..20,
        ceiling in 0u8..9,
    ) {
        use uncat::core::topk::BottomKHeap;
        let grid = |i: u8| i as f64 / 4.0;
        let scores: Vec<f64> = draws
            .into_iter()
            .map(|(i, s, on_grid)| if on_grid == 1 { grid(i) } else { s })
            .collect();
        let ceiling = if ceiling == 8 { f64::INFINITY } else { grid(ceiling) };
        let by_score = |a: &(u64, f64), b: &(u64, f64)| {
            a.1.partial_cmp(&b.1).unwrap().then_with(|| a.0.cmp(&b.0))
        };
        let mut h = BottomKHeap::new(k, ceiling);
        let mut seen: Vec<(u64, f64)> = Vec::new();
        for (tid, &s) in scores.iter().enumerate() {
            h.offer(tid as u64, s);
            if s <= ceiling {
                seen.push((tid as u64, s));
                seen.sort_by(by_score);
            }
            let bound = if seen.len() < k { ceiling } else { seen[k - 1].1 };
            prop_assert_eq!(h.bound(), bound);
        }
        let got: Vec<(u64, f64)> = h.into_sorted().into_iter().map(|m| (m.tid, m.score)).collect();
        let mut expect: Vec<(u64, f64)> =
            scores.iter().enumerate().map(|(t, &s)| (t as u64, s)).collect();
        expect.sort_by(by_score);
        expect.retain(|&(_, s)| s <= ceiling);
        expect.truncate(k);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn heap_file_behaves_like_a_vec_of_records(
        ops in prop::collection::vec((0u8..2, prop::collection::vec(any::<u8>(), 1..64)), 1..120),
    ) {
        use uncat_storage::HeapFile;
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 32);
        let mut heap = HeapFile::new();
        let mut model: Vec<(uncat_storage::RecordId, Option<Vec<u8>>)> = Vec::new();
        for (op, bytes) in ops {
            if op == 0 || model.is_empty() {
                let rid = heap.insert(&mut pool, &bytes).expect("in-memory insert");
                model.push((rid, Some(bytes)));
            } else {
                // Delete a pseudo-random live record.
                let i = bytes.len() % model.len();
                let (rid, live) = &mut model[i];
                let deleted = heap.delete(&mut pool, *rid).expect("in-memory delete");
                prop_assert_eq!(deleted, live.is_some());
                *live = None;
            }
        }
        let live_count = model.iter().filter(|(_, l)| l.is_some()).count();
        prop_assert_eq!(heap.len() as usize, live_count);
        for (rid, expect) in &model {
            prop_assert_eq!(&heap.get(&mut pool, *rid).expect("in-memory get"), expect);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn boundary_always_dominates_merged_udas(data in dataset_strategy(10, 30)) {
        use uncat_pdrtree::{Boundary, Compression};
        for compression in [
            Compression::None,
            Compression::Signature { width: 3 },
        ] {
            let mut b = Boundary::empty(compression);
            for u in &data {
                b.merge_uda(u);
            }
            for u in &data {
                prop_assert!(b.dominates(u), "{compression:?} lost domination");
                // Lemma 2 soundness against every member as the query.
                for t in &data {
                    let pr = eq_prob(u, t);
                    prop_assert!(pr <= b.eq_upper_bound(u) + 1e-9);
                }
            }
        }
    }

    #[test]
    fn ds_top_k_matches_sorted_reference(
        data in dataset_strategy(8, 50),
        q in uda_strategy(8),
        k in 1usize..15,
    ) {
        use uncat::core::query::DsTopKQuery;
        let tuples: Vec<(u64, Uda)> =
            data.into_iter().enumerate().map(|(i, u)| (i as u64, u)).collect();
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 100);
        let tree = PdrTree::build(
            Domain::anonymous(8),
            PdrConfig::default(),
            &mut pool,
            tuples.iter().map(|(t, u)| (*t, u)),
        )
        .expect("in-memory build");
        for dv in [Divergence::L1, Divergence::L2] {
            let got = UncertainIndex::ds_top_k(&tree, &mut pool, &DsTopKQuery::new(q.clone(), k, dv))
                .expect("in-memory query");
            let mut expect: Vec<(f64, u64)> = tuples
                .iter()
                .map(|(tid, t)| (dv.eval(q.entries(), t.entries()), *tid))
                .collect();
            expect.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            expect.truncate(k);
            prop_assert_eq!(
                got.iter().map(|m| m.tid).collect::<Vec<_>>(),
                expect.iter().map(|&(_, tid)| tid).collect::<Vec<_>>()
            );
        }
    }
}

/// Body of `mutated_snapshot_blob_is_detected_or_decodes_equal`, kept out
/// of the `proptest!` macro. Returns the byte index, loaded payload, and
/// original blob if a mutation went undetected.
fn check_mutated_snapshot(
    data: Vec<Uda>,
    pos: usize,
    xor: u8,
) -> Option<(usize, Vec<u8>, Vec<u8>)> {
    use uncat_storage::snapshot;

    let tuples: Vec<(u64, Uda)> = data
        .into_iter()
        .enumerate()
        .map(|(i, u)| (i as u64, u))
        .collect();
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 100);
    let idx = InvertedIndex::build(
        Domain::anonymous(6),
        &mut pool,
        tuples.iter().map(|(t, u)| (*t, u)),
    )
    .expect("in-memory build");
    let blob = idx.snapshot();

    // Blob level: decoding after a flip must not panic.
    let mut bad = blob.clone();
    let i = pos % bad.len();
    bad[i] ^= xor;
    let _ = InvertedIndex::open(&bad);
    let _ = PdrTree::open(&bad);

    // File level: the snapshot file protocol detects the flip.
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "uncat-prop-snap-{}-{}.meta",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
    ));
    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
    let _guard = Cleanup(path.clone());
    snapshot::commit(&path, &blob).expect("commit");
    let good = std::fs::read(&path).expect("read committed file");
    let mut torn = good.clone();
    let j = pos % torn.len();
    torn[j] ^= xor;
    std::fs::write(&path, &torn).expect("plant corruption");
    match snapshot::load(&path) {
        Err(_) => None,
        Ok(p) if p == blob => None,
        Ok(p) => Some((j, p, blob)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Satellite of the durability work: a committed snapshot with any
    // single byte flipped must either be rejected on load or read back
    // byte-identical — and decoding a mutated metadata blob directly must
    // never panic, only return a typed error (or a successfully decoded
    // index, when the flip lands in a don't-care position).
    #[test]
    fn mutated_snapshot_blob_is_detected_or_decodes_equal(
        data in dataset_strategy(6, 40),
        pos in 0usize..4096,
        xor in 1u8..=255,
    ) {
        let undetected = check_mutated_snapshot(data, pos, xor);
        prop_assert!(undetected.is_none(), "undetected mutation: {:?}", undetected);
    }
}

/// The checked-in `tests/properties.proptest-regressions` file is found
/// by the replay machinery: every `proptest!` test in this file runs its
/// recorded seed before the generated cases (vendor/proptest replays
/// `cc <hex>` lines from the sibling regression file).
#[test]
fn regression_file_is_discovered_for_replay() {
    let seeds = proptest::regression_seeds(file!());
    assert_eq!(
        seeds.len(),
        1,
        "tests/properties.proptest-regressions holds one recorded failure"
    );
}
