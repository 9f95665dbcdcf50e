//! One function per figure of the paper's evaluation (Section 4), plus
//! the ablations DESIGN.md promises.

use uncat_core::Divergence;
use uncat_datagen::workload::{make_workload, queries_from_data, CalibratedQuery, SELECTIVITIES};
use uncat_datagen::{crm, gen3, pairwise, uniform, Dataset};
use uncat_inverted::Strategy;
use uncat_pdrtree::{Compression, PdrConfig, SplitStrategy};
use uncat_query::UncertainIndex;
use uncat_storage::SharedStore;

use crate::error::{BenchError, BenchResult};
use crate::measure::{
    avg_petq_io, avg_topk_io, build_inverted, build_pdr, profile_petq, Scale, QUERY_FRAMES,
};
use crate::table::{FigureTable, Series};

type Workload = Vec<(f64, Vec<CalibratedQuery>)>;

fn workload_for(data: &Dataset, scale: &Scale) -> Workload {
    let queries = queries_from_data(data, scale.queries, scale.seed ^ 0xBEEF);
    make_workload(data, &queries, &SELECTIVITIES)
}

/// Threshold + top-k I/O series over a selectivity workload.
fn petq_topk_series(
    prefix: &str,
    index: &impl UncertainIndex,
    store: &SharedStore,
    workload: &Workload,
) -> BenchResult<(Series, Series)> {
    let mut thres = Vec::new();
    let mut topk = Vec::new();
    for (s, qs) in workload {
        if qs.is_empty() {
            continue;
        }
        thres.push((*s, avg_petq_io(index, store, QUERY_FRAMES, qs)?));
        topk.push((*s, avg_topk_io(index, store, QUERY_FRAMES, qs)?));
    }
    Ok((
        Series::new(format!("{prefix}-Thres"), thres),
        Series::new(format!("{prefix}-TopK"), topk),
    ))
}

/// Figure 4: L1 vs L2 vs KL as the PDR-tree clustering measure (CRM1).
pub fn fig4(scale: &Scale) -> BenchResult<FigureTable> {
    let (domain, data) = crm::crm1(scale.crm_n, scale.seed);
    let workload = workload_for(&data, scale);
    let mut series = Vec::new();
    for dv in Divergence::ALL {
        let cfg = PdrConfig {
            divergence: dv,
            ..PdrConfig::default()
        };
        let (tree, store) = build_pdr(&domain, &data, cfg)?;
        let (t, k) = petq_topk_series(&format!("CRM1-{}", dv.name()), &tree, &store, &workload)?;
        series.push(t);
        series.push(k);
    }
    Ok(FigureTable::new(
        "fig4",
        "L1 vs L2 vs KL (PDR-tree, CRM1)",
        "selectivity",
        series,
    ))
}

/// Figure 5: inverted index vs PDR-tree on the synthetic datasets.
pub fn fig5(scale: &Scale) -> BenchResult<FigureTable> {
    let mut series = Vec::new();
    for (name, (domain, data)) in [
        ("Uniform", uniform::generate(scale.synth_n, scale.seed)),
        ("Pairwise", pairwise::generate(scale.synth_n, scale.seed)),
    ] {
        let workload = workload_for(&data, scale);
        let (inv, inv_store) = build_inverted(&domain, &data, Strategy::Nra)?;
        let (t, k) = petq_topk_series(&format!("{name}-Inv"), &inv, &inv_store, &workload)?;
        series.push(t);
        series.push(k);
        let (pdr, pdr_store) = build_pdr(&domain, &data, PdrConfig::default())?;
        let (t, k) = petq_topk_series(&format!("{name}-PDR"), &pdr, &pdr_store, &workload)?;
        series.push(t);
        series.push(k);
    }
    Ok(FigureTable::new(
        "fig5",
        "Inverted index vs PDR-tree (synthetic)",
        "selectivity",
        series,
    ))
}

fn crm_figure(
    id: &str,
    name: &str,
    scale: &Scale,
    data: (uncat_core::Domain, Dataset),
) -> BenchResult<FigureTable> {
    let (domain, data) = data;
    let workload = workload_for(&data, scale);
    let mut series = Vec::new();
    let (inv, inv_store) = build_inverted(&domain, &data, Strategy::Nra)?;
    let (t, k) = petq_topk_series(&format!("{name}-Inv"), &inv, &inv_store, &workload)?;
    series.push(t);
    series.push(k);
    let (pdr, pdr_store) = build_pdr(&domain, &data, PdrConfig::default())?;
    let (t, k) = petq_topk_series(&format!("{name}-PDR"), &pdr, &pdr_store, &workload)?;
    series.push(t);
    series.push(k);
    Ok(FigureTable::new(
        id,
        format!("Inverted index vs PDR-tree ({name})"),
        "selectivity",
        series,
    ))
}

/// Figure 6: inverted vs PDR-tree on CRM1.
pub fn fig6(scale: &Scale) -> BenchResult<FigureTable> {
    crm_figure("fig6", "CRM1", scale, crm::crm1(scale.crm_n, scale.seed))
}

/// Figure 7: inverted vs PDR-tree on CRM2 (≈10× costlier than CRM1).
pub fn fig7(scale: &Scale) -> BenchResult<FigureTable> {
    crm_figure("fig7", "CRM2", scale, crm::crm2(scale.crm_n, scale.seed))
}

/// Figure 8: scalability with dataset size (CRM2; inverted grows linearly,
/// the PDR-tree sub-linearly). Measured at 1 % selectivity.
pub fn fig8(scale: &Scale) -> BenchResult<FigureTable> {
    let steps = 5;
    let mut inv_t = Vec::new();
    let mut inv_k = Vec::new();
    let mut pdr_t = Vec::new();
    let mut pdr_k = Vec::new();
    for i in 1..=steps {
        let n = scale.crm_n * i / steps;
        let (domain, data) = crm::crm2(n, scale.seed);
        let queries = queries_from_data(&data, scale.queries, scale.seed ^ 0xBEEF);
        let wl = make_workload(&data, &queries, &[0.01]);
        let qs = &wl[0].1;
        let x = n as f64 / 1000.0; // thousands of tuples, like the paper
        let (inv, inv_store) = build_inverted(&domain, &data, Strategy::Nra)?;
        inv_t.push((x, avg_petq_io(&inv, &inv_store, QUERY_FRAMES, qs)?));
        inv_k.push((x, avg_topk_io(&inv, &inv_store, QUERY_FRAMES, qs)?));
        let (pdr, pdr_store) = build_pdr(&domain, &data, PdrConfig::default())?;
        pdr_t.push((x, avg_petq_io(&pdr, &pdr_store, QUERY_FRAMES, qs)?));
        pdr_k.push((x, avg_topk_io(&pdr, &pdr_store, QUERY_FRAMES, qs)?));
    }
    Ok(FigureTable::new(
        "fig8",
        "Scalability with dataset size (CRM2, 1% selectivity)",
        "ktuples",
        vec![
            Series::new("CRM2-Inv-Thres", inv_t),
            Series::new("CRM2-Inv-TopK", inv_k),
            Series::new("CRM2-PDR-Thres", pdr_t),
            Series::new("CRM2-PDR-TopK", pdr_k),
        ],
    ))
}

/// Figure 9: scalability with domain size (Gen3, 1 % selectivity).
pub fn fig9(scale: &Scale) -> BenchResult<FigureTable> {
    let domains: &[u32] = &[5, 10, 20, 50, 100, 200, 500];
    let mut inv_t = Vec::new();
    let mut inv_k = Vec::new();
    let mut pdr_t = Vec::new();
    let mut pdr_k = Vec::new();
    for &d in domains {
        let (domain, data) = gen3::generate(scale.synth_n, d, scale.seed);
        let queries = queries_from_data(&data, scale.queries, scale.seed ^ 0xBEEF);
        let wl = make_workload(&data, &queries, &[0.01]);
        let qs = &wl[0].1;
        if qs.is_empty() {
            continue;
        }
        let x = d as f64;
        let (inv, inv_store) = build_inverted(&domain, &data, Strategy::Nra)?;
        inv_t.push((x, avg_petq_io(&inv, &inv_store, QUERY_FRAMES, qs)?));
        inv_k.push((x, avg_topk_io(&inv, &inv_store, QUERY_FRAMES, qs)?));
        let (pdr, pdr_store) = build_pdr(&domain, &data, PdrConfig::default())?;
        pdr_t.push((x, avg_petq_io(&pdr, &pdr_store, QUERY_FRAMES, qs)?));
        pdr_k.push((x, avg_topk_io(&pdr, &pdr_store, QUERY_FRAMES, qs)?));
    }
    Ok(FigureTable::new(
        "fig9",
        "Scalability with domain size (Gen3, 1% selectivity)",
        "domain",
        vec![
            Series::new("Gen3-Inv-Thres", inv_t),
            Series::new("Gen3-Inv-TopK", inv_k),
            Series::new("Gen3-PDR-Thres", pdr_t),
            Series::new("Gen3-PDR-TopK", pdr_k),
        ],
    ))
}

/// Figure 10: PDR-tree split algorithm, top-down vs bottom-up. The paper
/// plots Uniform and notes "a similar relative behavior was observed for
/// the other datasets including the real data" — CRM1 series included.
pub fn fig10(scale: &Scale) -> BenchResult<FigureTable> {
    let mut series = Vec::new();
    for (name, domain, data, workload) in [
        {
            let (domain, data) = uniform::generate(scale.synth_n, scale.seed);
            let workload = workload_for(&data, scale);
            ("Uniform", domain, data, workload)
        },
        {
            let (domain, data) = crm::crm1(scale.crm_n, scale.seed);
            let workload = workload_for(&data, scale);
            ("CRM1", domain, data, workload)
        },
    ] {
        for split in [SplitStrategy::TopDown, SplitStrategy::BottomUp] {
            let cfg = PdrConfig {
                split,
                ..PdrConfig::default()
            };
            let (tree, store) = build_pdr(&domain, &data, cfg)?;
            let mut pts = Vec::new();
            for (s, qs) in &workload {
                if !qs.is_empty() {
                    pts.push((*s, avg_petq_io(&tree, &store, QUERY_FRAMES, qs)?));
                }
            }
            series.push(Series::new(
                format!(
                    "{name}-{}-Thres",
                    match split {
                        SplitStrategy::TopDown => "TopDown",
                        SplitStrategy::BottomUp => "BottomUp",
                    }
                ),
                pts,
            ));
        }
    }
    Ok(FigureTable::new(
        "fig10",
        "PDR split: top-down vs bottom-up",
        "selectivity",
        series,
    ))
}

/// Ablation: the four inverted-index search strategies plus NRA (CRM1).
pub fn strategies(scale: &Scale) -> BenchResult<FigureTable> {
    let (domain, data) = crm::crm1(scale.crm_n, scale.seed);
    let workload = workload_for(&data, scale);
    let mut series = Vec::new();
    for strat in Strategy::ALL {
        let (inv, store) = build_inverted(&domain, &data, strat)?;
        // Alongside the I/O series, emit the counters that explain it:
        // postings scanned (the strategies' sorted-access work) and
        // candidates verified (their random-access work), per query.
        let mut io_pts = Vec::new();
        let mut postings_pts = Vec::new();
        let mut verified_pts = Vec::new();
        for (s, qs) in &workload {
            if qs.is_empty() {
                continue;
            }
            let p = profile_petq(&inv, &store, QUERY_FRAMES, qs)?;
            io_pts.push((*s, p.avg_reads));
            postings_pts.push((*s, p.per_query(p.metrics.postings_scanned)));
            verified_pts.push((*s, p.per_query(p.metrics.candidates_verified)));
        }
        series.push(Series::new(strat.name(), io_pts));
        series.push(Series::new(
            format!("{}-postings", strat.name()),
            postings_pts,
        ));
        series.push(Series::new(
            format!("{}-verified", strat.name()),
            verified_pts,
        ));
    }
    Ok(FigureTable::new(
        "strategies",
        "Inverted-index search strategies (CRM1)",
        "selectivity",
        series,
    ))
}

/// Ablation: PDR boundary compression (Gen3, |D| = 200).
pub fn compression(scale: &Scale) -> BenchResult<FigureTable> {
    let (domain, data) = gen3::generate(scale.synth_n, 200, scale.seed);
    let workload = workload_for(&data, scale);
    let mut series = Vec::new();
    for compression in [
        Compression::None,
        Compression::Discretized { bits: 2 },
        Compression::Discretized { bits: 4 },
        Compression::Signature { width: 32 },
    ] {
        let cfg = PdrConfig {
            compression,
            ..PdrConfig::default()
        };
        let (tree, store) = build_pdr(&domain, &data, cfg)?;
        let mut pts = Vec::new();
        for (s, qs) in &workload {
            if !qs.is_empty() {
                pts.push((*s, avg_petq_io(&tree, &store, QUERY_FRAMES, qs)?));
            }
        }
        series.push(Series::new(compression.name(), pts));
    }
    Ok(FigureTable::new(
        "compression",
        "PDR boundary compression (Gen3, |D|=200)",
        "selectivity",
        series,
    ))
}

/// Ablation: per-query buffer size under the paper's clock replacement
/// (CRM1, 1 % selectivity).
pub fn buffer(scale: &Scale) -> BenchResult<FigureTable> {
    use uncat_core::query::EqQuery;
    use uncat_storage::BufferPool;

    let (domain, data) = crm::crm1(scale.crm_n, scale.seed);
    let queries = queries_from_data(&data, scale.queries, scale.seed ^ 0xBEEF);
    let wl = make_workload(&data, &queries, &[0.01]);
    let qs = &wl[0].1;
    let (inv, inv_store) = build_inverted(&domain, &data, Strategy::Nra)?;
    let (pdr, pdr_store) = build_pdr(&domain, &data, PdrConfig::default())?;

    let measure = |index: &dyn UncertainIndex, store: &SharedStore, frames: usize| {
        let mut total: u64 = 0;
        for cq in qs {
            let mut pool = BufferPool::with_capacity(store.clone(), frames);
            index
                .petq(&mut pool, &EqQuery::new(cq.q.clone(), cq.tau))
                .map_err(BenchError::storage("buffer-size probe"))?;
            total += pool.stats().physical_reads;
        }
        Ok::<f64, BenchError>(total as f64 / qs.len() as f64)
    };

    let mut series = Vec::new();
    for (label, index, store) in [
        ("CRM1-Inv-Clock", &inv as &dyn UncertainIndex, &inv_store),
        ("CRM1-PDR-Clock", &pdr as &dyn UncertainIndex, &pdr_store),
    ] {
        let mut pts = Vec::new();
        for &frames in &[25usize, 50, 100, 200, 400] {
            pts.push((frames as f64, measure(index, store, frames)?));
        }
        series.push(Series::new(label, pts));
    }
    Ok(FigureTable::new(
        "buffer",
        "Per-query buffer size and replacement policy (CRM1, 1% selectivity)",
        "frames",
        series,
    ))
}

/// Ablation: PDR build method — incremental insertion vs sort-and-pack
/// bulk loading (CRM1). Reports query I/O at each selectivity.
pub fn bulkload(scale: &Scale) -> BenchResult<FigureTable> {
    let (domain, data) = crm::crm1(scale.crm_n, scale.seed);
    let workload = workload_for(&data, scale);
    let mut series = Vec::new();
    for bulk in [false, true] {
        let store = uncat_storage::InMemoryDisk::shared();
        let mut pool = uncat_storage::BufferPool::with_capacity(store.clone(), 512);
        let tree = if bulk {
            uncat_pdrtree::PdrTree::bulk_build(
                domain.clone(),
                PdrConfig::default(),
                &mut pool,
                data.iter().map(|(t, u)| (*t, u)),
            )
            .map_err(BenchError::storage("bulk-load pdr-tree"))?
        } else {
            uncat_pdrtree::PdrTree::build(
                domain.clone(),
                PdrConfig::default(),
                &mut pool,
                data.iter().map(|(t, u)| (*t, u)),
            )
            .map_err(BenchError::storage("build pdr-tree"))?
        };
        pool.flush()
            .map_err(BenchError::storage("flush pdr-tree"))?;
        drop(pool);
        let label = if bulk {
            "PDR-BulkLoad-Thres"
        } else {
            "PDR-Insert-Thres"
        };
        let mut pts = Vec::new();
        for (s, qs) in &workload {
            if !qs.is_empty() {
                pts.push((*s, avg_petq_io(&tree, &store, QUERY_FRAMES, qs)?));
            }
        }
        series.push(Series::new(label, pts));
    }
    Ok(FigureTable::new(
        "bulkload",
        "PDR build method: incremental vs bulk (CRM1)",
        "selectivity",
        series,
    ))
}

/// Index sizes in pages per dataset and structure (context for every
/// other figure).
pub fn sizes(scale: &Scale) -> BenchResult<FigureTable> {
    let mut inv_pts = Vec::new();
    let mut pdr_pts = Vec::new();
    let mut bulk_pts = Vec::new();
    let sets: Vec<(f64, uncat_core::Domain, Dataset)> = vec![
        (
            1.0,
            uniform::generate(scale.synth_n, scale.seed).0,
            uniform::generate(scale.synth_n, scale.seed).1,
        ),
        (
            2.0,
            pairwise::generate(scale.synth_n, scale.seed).0,
            pairwise::generate(scale.synth_n, scale.seed).1,
        ),
        (
            3.0,
            crm::crm1(scale.crm_n, scale.seed).0,
            crm::crm1(scale.crm_n, scale.seed).1,
        ),
        (
            4.0,
            crm::crm2(scale.crm_n, scale.seed).0,
            crm::crm2(scale.crm_n, scale.seed).1,
        ),
    ];
    for (x, domain, data) in sets {
        let (_, inv_store) = build_inverted(&domain, &data, Strategy::Nra)?;
        inv_pts.push((x, inv_store.num_pages() as f64));
        let (_, pdr_store) = build_pdr(&domain, &data, PdrConfig::default())?;
        pdr_pts.push((x, pdr_store.num_pages() as f64));
        let bulk_store = uncat_storage::InMemoryDisk::shared();
        let mut pool = uncat_storage::BufferPool::with_capacity(bulk_store.clone(), 512);
        let _ = uncat_pdrtree::PdrTree::bulk_build(
            domain.clone(),
            PdrConfig::default(),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .map_err(BenchError::storage("bulk-load pdr-tree"))?;
        pool.flush()
            .map_err(BenchError::storage("flush pdr-tree"))?;
        drop(pool);
        bulk_pts.push((x, bulk_store.num_pages() as f64));
    }
    Ok(FigureTable::new(
        "sizes",
        "Index size in pages (1=Uniform 2=Pairwise 3=CRM1 4=CRM2)",
        "dataset",
        vec![
            Series::new("Inverted", inv_pts),
            Series::new("PDR-Insert", pdr_pts),
            Series::new("PDR-BulkLoad", bulk_pts),
        ],
    ))
}

/// Ablation: PETJ physical plans — index nested loop (probing the
/// PDR-tree) vs block nested loop, varying the outer relation size
/// (CRM1-style data, τ = 0.5).
pub fn joins(scale: &Scale) -> BenchResult<FigureTable> {
    use uncat_query::join::{block_join, index_join, JoinSpec};
    use uncat_query::ScanBaseline;
    use uncat_storage::BufferPool;

    let (domain, data) = crm::crm1(scale.crm_n / 2, scale.seed);
    let store = uncat_storage::InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store.clone(), 512);
    let pdr = uncat_pdrtree::PdrTree::build(
        domain.clone(),
        PdrConfig::default(),
        &mut pool,
        data.iter().map(|(t, u)| (*t, u)),
    )
    .map_err(BenchError::storage("build pdr-tree"))?;
    let scan = ScanBaseline::build(&mut pool, data.iter().map(|(t, u)| (*t, u)))
        .map_err(BenchError::storage("build scan baseline"))?;
    pool.flush()
        .map_err(BenchError::storage("flush join inputs"))?;
    drop(pool);

    let (_, outer_all) = crm::crm1(256, scale.seed ^ 0xA5A5);
    let petj = JoinSpec::Petj { tau: 0.5 };
    let mut inl_pts = Vec::new();
    let mut bnl_pts = Vec::new();
    for &outer_n in &[16usize, 64, 256] {
        let outer: Vec<(u64, uncat_core::Uda)> = outer_all
            .iter()
            .take(outer_n)
            .map(|(t, u)| (1_000_000 + *t, u.clone()))
            .collect();
        let mut p = BufferPool::with_capacity(store.clone(), QUERY_FRAMES);
        let a = index_join(&outer, &pdr, &mut p, petj)
            .map_err(BenchError::storage("index nested-loop join"))?;
        inl_pts.push((outer_n as f64, a.reads() as f64));
        let mut p = BufferPool::with_capacity(store.clone(), QUERY_FRAMES);
        let b = block_join(&outer, &scan, &mut p, petj)
            .map_err(BenchError::storage("block nested-loop join"))?;
        bnl_pts.push((outer_n as f64, b.reads() as f64));
        assert_eq!(a.pairs.len(), b.pairs.len(), "join plans must agree");
    }
    Ok(FigureTable::new(
        "joins",
        "PETJ plans: index vs block nested loop (CRM1, tau=0.5)",
        "outer",
        vec![
            Series::new("INL-PDR", inl_pts),
            Series::new("BNL-Scan", bnl_pts),
        ],
    ))
}

/// Figure: block vs index vs parallel join plans on Zipf-skewed
/// relations (CRM1 inner, Zipf certain-probe outer, inverted index).
///
/// Threshold series plot physical reads per plan. The top-k series plot
/// **postings scanned per probe**: the sequential index plan issues a
/// full top-k probe for every outer tuple (exactly the pre-floor-fix
/// cost), while the parallel plan's shared floor seeds every warm
/// probe's dynamic threshold, so probes stop as early as Lemma 1 allows
/// at θ = floor — the gap between `TopK-Index` and `TopK-Par` is the
/// floor-propagation win, and it widens with the outer relation.
pub fn join(scale: &Scale) -> BenchResult<FigureTable> {
    use uncat_core::query::TopKQuery;
    use uncat_core::Uda;
    use uncat_datagen::zipf::zipf_ranks;
    use uncat_query::join::{block_join, index_join, parallel_join, JoinSpec};
    use uncat_query::{BatchPools, ScanBaseline};
    use uncat_storage::BufferPool;

    const THREADS: usize = 4;
    const K: usize = 10;
    const TAU: f64 = 0.5;

    let (domain, data) = crm::crm1(scale.crm_n / 2, scale.seed);
    let (inv, inv_store) = build_inverted(&domain, &data, Strategy::Nra)?;
    let store = uncat_storage::InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store.clone(), 512);
    let scan = ScanBaseline::build(&mut pool, data.iter().map(|(t, u)| (*t, u)))
        .map_err(BenchError::storage("build scan baseline"))?;
    pool.flush()
        .map_err(BenchError::storage("flush join inputs"))?;
    drop(pool);

    let outer_all: Vec<(u64, Uda)> =
        zipf_ranks(domain.size() as usize, 1.2, 256, scale.seed ^ 0xA5A5)
            .into_iter()
            .enumerate()
            .map(|(i, rank)| {
                (
                    1_000_000 + i as u64,
                    Uda::certain(uncat_core::CatId(rank as u32)),
                )
            })
            .collect();

    let mut block_pts = Vec::new();
    let mut index_pts = Vec::new();
    let mut par_pts = Vec::new();
    let mut topk_index_pts = Vec::new();
    let mut topk_par_pts = Vec::new();
    for &outer_n in &[16usize, 64, 256] {
        let outer = &outer_all[..outer_n];
        let x = outer_n as f64;

        // PETJ: physical reads per plan.
        let petj = JoinSpec::Petj { tau: TAU };
        let mut p = BufferPool::with_capacity(store.clone(), QUERY_FRAMES);
        let b =
            block_join(outer, &scan, &mut p, petj).map_err(BenchError::storage("block join"))?;
        block_pts.push((x, b.reads() as f64));
        let mut p = BufferPool::with_capacity(inv_store.clone(), QUERY_FRAMES);
        let i = index_join(outer, &inv, &mut p, petj).map_err(BenchError::storage("index join"))?;
        index_pts.push((x, i.reads() as f64));
        let pools = BatchPools::shared(&inv_store, QUERY_FRAMES * THREADS, 8);
        let par = parallel_join(outer, &inv, &inv_store, &pools, petj, THREADS)
            .map_err(BenchError::storage("parallel join"))?;
        par_pts.push((x, par.reads() as f64));
        assert_eq!(
            i.pairs.len(),
            par.pairs.len(),
            "parallel plan must agree with sequential"
        );
        assert_eq!(b.pairs.len(), i.pairs.len(), "join plans must agree");

        // PEJ-top-k: probe work (postings scanned) per outer tuple. The
        // sequential baseline probes full top-k every time — the
        // pre-floor-fix plan's exact probe cost.
        let mut p = BufferPool::with_capacity(inv_store.clone(), QUERY_FRAMES);
        for (_, luda) in outer {
            uncat_query::UncertainIndex::top_k(&inv, &mut p, &TopKQuery::new(luda.clone(), K))
                .map_err(BenchError::storage("top-k probe"))?;
        }
        topk_index_pts.push((x, p.metrics().postings_scanned as f64 / outer_n as f64));
        let pools = BatchPools::private(QUERY_FRAMES);
        let par = parallel_join(
            outer,
            &inv,
            &inv_store,
            &pools,
            JoinSpec::PejTopK { k: K },
            THREADS,
        )
        .map_err(BenchError::storage("parallel top-k join"))?;
        topk_par_pts.push((x, par.metrics.postings_scanned as f64 / outer_n as f64));
    }
    Ok(FigureTable::new(
        "join",
        "Join plans: block vs index vs parallel (CRM1, Zipf outer)",
        "outer",
        vec![
            Series::new("Thres-Block-reads", block_pts),
            Series::new("Thres-Index-reads", index_pts),
            Series::new("Thres-Par-reads", par_pts),
            Series::new("TopK-Index-postings", topk_index_pts),
            Series::new("TopK-Par-postings", topk_par_pts),
        ],
    ))
}

/// Ablation: query shape — tuples sampled from the data vs certain-value
/// queries vs uniform-random distributions (CRM1, PDR-tree, τ calibrated
/// to 1% where reachable).
pub fn queryshape(scale: &Scale) -> BenchResult<FigureTable> {
    use uncat_datagen::workload::{certain_queries, random_queries};

    let (domain, data) = crm::crm1(scale.crm_n, scale.seed);
    let (tree, store) = build_pdr(&domain, &data, PdrConfig::default())?;
    let shapes: [(&str, Vec<uncat_core::Uda>); 3] = [
        (
            "sampled",
            queries_from_data(&data, scale.queries, scale.seed),
        ),
        ("certain", certain_queries(&data, scale.queries, scale.seed)),
        (
            "random",
            random_queries(domain.size(), 3, scale.queries, scale.seed),
        ),
    ];
    let mut series = Vec::new();
    for (name, queries) in shapes {
        let wl = make_workload(&data, &queries, &SELECTIVITIES);
        let mut pts = Vec::new();
        for (s, qs) in &wl {
            if !qs.is_empty() {
                pts.push((*s, avg_petq_io(&tree, &store, QUERY_FRAMES, qs)?));
            }
        }
        if !pts.is_empty() {
            series.push(Series::new(name, pts));
        }
    }
    Ok(FigureTable::new(
        "queryshape",
        "Query shape (CRM1, PDR-tree)",
        "selectivity",
        series,
    ))
}

/// Ablation: shared vs private buffer pools on a Zipf-skewed
/// repeated-query batch (CRM1, 1 % selectivity, 4 worker threads).
///
/// Private mode is the paper's model — every query gets its own
/// [`QUERY_FRAMES`]-frame pool, so each repeat of a hot query re-reads
/// its posting pages. Shared mode runs the whole batch against one
/// lock-striped [`uncat_storage::SharedBufferPool`] with the same total
/// frame budget (`QUERY_FRAMES` × threads, 8 shards): hot pages are
/// faulted once per batch, and the gap widens with batch length.
pub fn sharedpool(scale: &Scale) -> BenchResult<FigureTable> {
    use uncat_core::query::EqQuery;
    use uncat_datagen::zipf::zipf_ranks;
    use uncat_query::parallel::{batch_metrics, petq_batch_with};
    use uncat_query::BatchPools;

    const THREADS: usize = 4;
    const SHARDS: usize = 8;

    let (domain, data) = crm::crm1(scale.crm_n, scale.seed);
    let queries = queries_from_data(&data, scale.queries, scale.seed ^ 0xBEEF);
    let wl = make_workload(&data, &queries, &[0.01]);
    let distinct: Vec<EqQuery> = wl[0]
        .1
        .iter()
        .map(|cq| EqQuery::new(cq.q.clone(), cq.tau))
        .collect();
    if distinct.is_empty() {
        return Err(BenchError::Empty {
            what: "1% selectivity calibration",
        });
    }
    let (inv, store) = build_inverted(&domain, &data, Strategy::Nra)?;

    let mut private_pts = Vec::new();
    let mut shared_pts = Vec::new();
    for &len in &[8usize, 16, 32, 64] {
        // A Zipf-skewed repeat mix over the distinct queries: the head
        // query dominates, exactly the traffic a shared cache rewards.
        let batch: Vec<EqQuery> = zipf_ranks(distinct.len(), 1.2, len, scale.seed ^ len as u64)
            .into_iter()
            .map(|r| distinct[r].clone())
            .collect();
        let avg = |pools: &BatchPools| {
            let results = petq_batch_with(&inv, &store, pools, &batch, THREADS);
            let m = batch_metrics(&results);
            m.io.physical_reads as f64 / batch.len() as f64
        };
        private_pts.push((len as f64, avg(&BatchPools::private(QUERY_FRAMES))));
        shared_pts.push((
            len as f64,
            avg(&BatchPools::shared(&store, QUERY_FRAMES * THREADS, SHARDS)),
        ));
    }
    Ok(FigureTable::new(
        "sharedpool",
        "Shared vs private pools on a Zipf repeated-query batch (CRM1, 1% selectivity)",
        "batch",
        vec![
            Series::new("Private-Thres", private_pts),
            Series::new("Shared-Thres", shared_pts),
        ],
    ))
}

/// Every figure/ablation by name. `None` means the name is unknown;
/// `Some(Err(_))` means the figure is known but its sweep failed.
pub fn by_name(name: &str, scale: &Scale) -> Option<BenchResult<FigureTable>> {
    Some(match name {
        "fig4" => fig4(scale),
        "fig5" => fig5(scale),
        "fig6" => fig6(scale),
        "fig7" => fig7(scale),
        "fig8" => fig8(scale),
        "fig9" => fig9(scale),
        "fig10" => fig10(scale),
        "strategies" => strategies(scale),
        "compression" => compression(scale),
        "buffer" => buffer(scale),
        "bulkload" => bulkload(scale),
        "sizes" => sizes(scale),
        "joins" => joins(scale),
        "join" => join(scale),
        "queryshape" => queryshape(scale),
        "sharedpool" => sharedpool(scale),
        _ => return None,
    })
}

/// All known figure/ablation names, in presentation order.
pub const ALL_FIGURES: [&str; 16] = [
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "strategies",
    "compression",
    "buffer",
    "bulkload",
    "sizes",
    "joins",
    "join",
    "queryshape",
    "sharedpool",
];
