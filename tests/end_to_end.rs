//! Cross-crate end-to-end tests: datasets from `uncat-datagen`, both paper
//! indexes plus the scan baseline, calibrated workloads, shared disk.

use uncat::core::equality::eq_prob;
use uncat::core::query::Match;
use uncat::core::{Divergence, DstQuery, EqQuery, TopKQuery};
use uncat::datagen::workload::{calibrate, queries_from_data, SELECTIVITIES};
use uncat::datagen::{crm, gen3, pairwise, uniform, Dataset};
use uncat::prelude::*;
use uncat::query::{InvertedBackend, ScanBaseline, UncertainIndex};
use uncat_inverted::{InvertedIndex, Strategy};
use uncat_pdrtree::{PdrConfig, PdrTree};

struct World {
    data: Dataset,
    store: uncat::storage::SharedStore,
    inverted: InvertedBackend,
    pdr: PdrTree,
    scan: ScanBaseline,
}

fn world(domain: Domain, data: Dataset) -> World {
    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store.clone(), 256);
    let inverted = InvertedBackend::with_strategy(
        InvertedIndex::build(domain.clone(), &mut pool, data.iter().map(|(t, u)| (*t, u)))
            .expect("in-memory build"),
        Strategy::Nra,
    );
    let pdr = PdrTree::build(
        domain,
        PdrConfig::default(),
        &mut pool,
        data.iter().map(|(t, u)| (*t, u)),
    )
    .expect("in-memory build");
    let scan =
        ScanBaseline::build(&mut pool, data.iter().map(|(t, u)| (*t, u))).expect("in-memory build");
    pool.flush().expect("in-memory flush");
    World {
        data,
        store,
        inverted,
        pdr,
        scan,
    }
}

fn check_agreement(w: &World, label: &str) {
    let mut pool = BufferPool::with_capacity(w.store.clone(), 150);
    let queries = queries_from_data(&w.data, 4, 99);
    for q in &queries {
        for &s in &SELECTIVITIES {
            let Some(cq) = calibrate(&w.data, q, s) else {
                continue;
            };
            let eq = EqQuery::new(cq.q.clone(), cq.tau);
            let a = w.scan.petq(&mut pool, &eq).expect("in-memory query");
            let b = w.inverted.petq(&mut pool, &eq).expect("in-memory query");
            let c = w.pdr.petq(&mut pool, &eq).expect("in-memory query");
            let ids = |v: &[uncat::core::query::Match]| v.iter().map(|m| m.tid).collect::<Vec<_>>();
            assert_eq!(
                ids(&a),
                ids(&b),
                "{label}: inverted PETQ at selectivity {s}"
            );
            assert_eq!(ids(&a), ids(&c), "{label}: pdr PETQ at selectivity {s}");
            assert!(
                a.len() as f64 >= s * w.data.len() as f64 * 0.5,
                "{label}: calibration produced too few results"
            );

            let tk = TopKQuery::new(cq.q.clone(), cq.k);
            let a = w.scan.top_k(&mut pool, &tk).expect("in-memory query");
            let b = w.inverted.top_k(&mut pool, &tk).expect("in-memory query");
            let c = w.pdr.top_k(&mut pool, &tk).expect("in-memory query");
            assert_eq!(
                ids(&a),
                ids(&b),
                "{label}: inverted top-k at selectivity {s}"
            );
            assert_eq!(ids(&a), ids(&c), "{label}: pdr top-k at selectivity {s}");
        }
    }
}

#[test]
fn uniform_dataset_end_to_end() {
    let (domain, data) = uniform::generate(1500, 21);
    check_agreement(&world(domain, data), "uniform");
}

#[test]
fn pairwise_dataset_end_to_end() {
    let (domain, data) = pairwise::generate(1500, 22);
    check_agreement(&world(domain, data), "pairwise");
}

#[test]
fn crm1_dataset_end_to_end() {
    let (domain, data) = crm::crm1(1500, 23);
    check_agreement(&world(domain, data), "crm1");
}

#[test]
fn crm2_dataset_end_to_end() {
    let (domain, data) = crm::crm2(600, 24);
    check_agreement(&world(domain, data), "crm2");
}

#[test]
fn gen3_small_and_large_domains_end_to_end() {
    for d in [5u32, 120] {
        let (domain, data) = gen3::generate(1000, d, 25);
        check_agreement(&world(domain, data), &format!("gen3-{d}"));
    }
}

#[test]
fn textsim_classifier_output_end_to_end() {
    // The deeper CRM1 substitution: index real classifier posteriors
    // produced by the naive-Bayes pipeline and check backend agreement.
    let (domain, data, accuracy) = uncat::datagen::textsim::generate(1200, 19);
    assert!(accuracy > 0.5);
    check_agreement(&world(domain, data), "textsim");
}

#[test]
fn executor_with_custom_frames_runs_all_query_families() {
    let (domain, data) = crm::crm1(1500, 61);
    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store.clone(), 256);
    let pdr = PdrTree::build(
        domain,
        PdrConfig::default(),
        &mut pool,
        data.iter().map(|(t, u)| (*t, u)),
    )
    .expect("in-memory build");
    pool.flush().expect("in-memory flush");
    drop(pool);

    // The paper's buffer discipline with a 25-frame budget: a fresh
    // pool per query.
    fn cold(
        store: &uncat::storage::SharedStore,
        probe: impl FnOnce(&mut BufferPool) -> uncat::storage::Result<Vec<Match>>,
    ) -> uncat::query::QueryOutcome {
        let mut pool = BufferPool::with_capacity(store.clone(), 25);
        uncat::query::run_query(&mut pool, None, probe).expect("in-memory query")
    }
    let q = data[10].1.clone();
    let eq = cold(&store, |p| pdr.petq(p, &EqQuery::new(q.clone(), 0.3)));
    assert!(eq.reads() > 0);
    let tk = cold(&store, |p| pdr.top_k(p, &TopKQuery::new(q.clone(), 5)));
    assert_eq!(tk.matches.len(), 5);
    let ds_query = uncat::core::DsTopKQuery::new(q.clone(), 5, Divergence::L1);
    let ds = cold(&store, |p| pdr.ds_top_k(p, &ds_query));
    assert_eq!(ds.matches.len(), 5);
    let dq = cold(&store, |p| {
        pdr.dstq(p, &DstQuery::new(q, 0.2, Divergence::L1))
    });
    assert!(
        !dq.matches.is_empty(),
        "the query tuple itself is within distance 0"
    );
}

#[test]
fn dstq_agreement_on_crm_data() {
    let (domain, data) = crm::crm1(800, 31);
    let w = world(domain, data);
    let mut pool = BufferPool::with_capacity(w.store.clone(), 150);
    let q = w.data[17].1.clone();
    for dv in Divergence::ALL {
        for &tau_d in &[0.1, 0.5, 1.2] {
            let query = DstQuery::new(q.clone(), tau_d, dv);
            let a = w.scan.dstq(&mut pool, &query).expect("in-memory query");
            let b = w.inverted.dstq(&mut pool, &query).expect("in-memory query");
            let c = w.pdr.dstq(&mut pool, &query).expect("in-memory query");
            let ids = |v: &[uncat::core::query::Match]| v.iter().map(|m| m.tid).collect::<Vec<_>>();
            assert_eq!(ids(&a), ids(&b), "inverted DSTQ {dv:?} τd={tau_d}");
            assert_eq!(ids(&a), ids(&c), "pdr DSTQ {dv:?} τd={tau_d}");
        }
    }
}

#[test]
fn indexes_survive_a_shared_disk_and_reopened_pools() {
    let (domain, data) = crm::crm1(1200, 41);
    let w = world(domain, data);
    // Query through several short-lived pools (fresh caches), as the
    // benchmark harness does.
    let q = w.data[3].1.clone();
    let mut reference = None;
    for _ in 0..3 {
        let mut pool = BufferPool::new(w.store.clone());
        let out = w
            .pdr
            .petq(&mut pool, &EqQuery::new(q.clone(), 0.3))
            .expect("in-memory query");
        let ids: Vec<u64> = out.iter().map(|m| m.tid).collect();
        if let Some(prev) = &reference {
            assert_eq!(*prev, ids, "results must be stable across pools");
        }
        reference = Some(ids);
    }
}

#[test]
fn index_io_beats_scan_on_selective_queries() {
    // The reason indexes exist: at high thresholds both index structures
    // should read fewer pages than the full scan.
    let (domain, data) = crm::crm1(20_000, 55);
    let w = world(domain, data);
    let q = Uda::certain(CatId(1));
    let eq = EqQuery::new(q, 0.9);

    let io = |idx: &dyn UncertainIndex| {
        let mut pool = BufferPool::new(w.store.clone());
        let n = idx.petq(&mut pool, &eq).expect("in-memory query").len();
        (n, pool.stats().physical_reads)
    };
    let (n_scan, io_scan) = io(&w.scan);
    let (n_inv, io_inv) = io(&w.inverted);
    let (n_pdr, io_pdr) = io(&w.pdr);
    assert_eq!(n_scan, n_inv);
    assert_eq!(n_scan, n_pdr);
    assert!(io_inv < io_scan, "inverted {io_inv} !< scan {io_scan}");
    assert!(io_pdr < io_scan, "pdr {io_pdr} !< scan {io_scan}");
}

#[test]
fn consistent_probabilities_with_reference_computation() {
    let (domain, data) = pairwise::generate(500, 77);
    let w = world(domain, data);
    let mut pool = BufferPool::new(w.store.clone());
    let q = w.data[0].1.clone();
    let out = w
        .inverted
        .petq(&mut pool, &EqQuery::new(q.clone(), 0.1))
        .expect("in-memory query");
    for m in out {
        let t = &w.data[m.tid as usize].1;
        assert!((m.score - eq_prob(&q, t)).abs() < 1e-9);
    }
}
