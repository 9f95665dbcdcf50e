//! Layer probes: each layer's cost measured from outside, by timing
//! calls into one public function per layer on inputs derived from the
//! `inv_hot` relation (its first 20 000 tuples: `crm1` generates
//! sequentially, so a shorter relation is a prefix of a longer one).
//!
//! Probes are warm unless named otherwise, run on one thread unless
//! named `_2t`, and each loop is one span carrying its call count. A
//! probe that returns answers has them checked once, before timing.

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use crate::adapter::{
    codec_decode, crc32c, crm1, decode_block, encode_block, encode_to_vec, eq_prob, index_join,
    petq_batch_with, zeroed_page, Admission, BTree, BatchPools, Boundary, BufferPool, Compression,
    Dataset, Domain, DurableConfig, DurableIndex, DurableStorage, EqQuery, FileDisk, FileLog,
    HeapFile, InMemoryDisk, InvertedBackend, InvertedIndex, JoinSpec, Match, PageId, PageStore,
    PdrConfig, PdrTree, Planner, QueryService, ScanBaseline, ServiceConfig, SharedBufferPool,
    SharedLog, SharedStore, Strategy, TenantConfig, Uda, UncertainIndex, Wal, WalConfig,
};
use crate::common::RunArgs;
use crate::report::Report;
use crate::stats::{median_f64, median_u64};
use crate::trace::Recorder;
use crate::workload::{check_read, l1, tuple_refs, Kind, QueryPool, Spec};

const PROBE_TUPLES: usize = 20_000;

struct Probe<'a> {
    rec: &'a mut Recorder,
    report: &'a mut Report,
    attempted: u64,
    failed: u64,
}

impl Probe<'_> {
    /// Run `f`, which makes `calls` calls, as one span; nanoseconds per call.
    fn ns_per_call(&mut self, name: &'static str, calls: u64, f: impl FnOnce()) -> f64 {
        let started = Instant::now();
        self.rec.probe(name, calls, f);
        started.elapsed().as_nanos() as f64 / calls as f64
    }

    fn set_ns(&mut self, name: &'static str, calls: u64, f: impl FnOnce()) {
        let ns = self.ns_per_call(name, calls, f);
        self.report.set_n(name, ns, Some(calls as usize));
    }

    /// Like `set_ns` for probes reported in microseconds per call.
    fn set_us(&mut self, name: &'static str, calls: u64, f: impl FnOnce()) {
        let ns = self.ns_per_call(name, calls, f);
        self.report.set_n(name, ns / 1e3, Some(calls as usize));
    }

    /// Median over `reps` runs of `f`, in the unit `scale` converts
    /// seconds to (1.0 for s, 1e3 for ms).
    fn set_median<R>(
        &mut self,
        name: &'static str,
        reps: usize,
        scale: f64,
        mut f: impl FnMut() -> R,
    ) -> R {
        let mut secs = Vec::new();
        let mut last = None;
        self.rec.probe(name, reps as u64, || {
            for _ in 0..reps {
                drop(last.take());
                let started = Instant::now();
                last = Some(f());
                secs.push(started.elapsed().as_secs_f64());
            }
        });
        self.report
            .set_n(name, median_f64(&secs) * scale, Some(reps));
        last.expect("at least one repetition")
    }

    fn check(&mut self, spec: &Spec, matches: &[Match], data: &Dataset) {
        self.attempted += 1;
        let ok = check_read(spec, &spec.expect, matches, |tid| {
            data.get(tid as usize).map(|(_, u)| u)
        });
        self.failed += u64::from(!ok);
    }
}

/// A cheap deterministic index stream, so probes do not time an RNG.
fn lcg(state: &mut u64) -> usize {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33) as usize
}

fn core(p: &mut Probe, data: &Dataset) {
    let n = data.len();
    let calls = 1_000_000u64;
    p.set_ns("core.eq_prob_ns", calls, || {
        let mut acc = 0.0;
        for i in 0..calls as usize {
            acc += eq_prob(black_box(&data[i % 61].1), black_box(&data[i % n].1));
        }
        black_box(acc);
    });
    p.set_ns("core.divergence_l1_ns", calls, || {
        let mut acc = 0.0;
        for i in 0..calls as usize {
            acc += l1(black_box(&data[i % 61].1), black_box(&data[i % n].1));
        }
        black_box(acc);
    });
    let encoded: Vec<Vec<u8>> = data
        .iter()
        .take(4096)
        .map(|(_, u)| encode_to_vec(u))
        .collect();
    let calls = 500_000u64;
    p.set_ns("core.codec_decode_ns", calls, || {
        for i in 0..calls as usize {
            black_box(codec_decode(black_box(&encoded[i % encoded.len()])).expect("decodes"));
        }
    });
}

fn store_with_pages(pages: usize) -> (SharedStore, Vec<PageId>) {
    let store = InMemoryDisk::shared();
    let pids = (0..pages)
        .map(|_| store.allocate().expect("allocate"))
        .collect();
    (store, pids)
}

fn storage(p: &mut Probe, args: &RunArgs, data: &Dataset) {
    let mut page = zeroed_page();
    let mut s = 7u64;
    for b in page.iter_mut() {
        *b = lcg(&mut s) as u8;
    }
    let calls = 20_000u64;
    p.set_ns("storage.crc.crc32c_page_ns", calls, || {
        for _ in 0..calls {
            black_box(crc32c(black_box(&page[..])));
        }
    });

    // The page file: reads come back from the operating system's cache,
    // so this is the sandbox's latency, not a device's.
    let path = args.scratch("probe-pages");
    let disk = FileDisk::create(&path).expect("create the probe page file");
    let pids: Vec<PageId> = (0..256)
        .map(|_| disk.allocate().expect("allocate"))
        .collect();
    let calls = 2_048u64;
    p.set_ns("storage.file_disk.write_ns", calls, || {
        for i in 0..calls as usize {
            disk.write(pids[i % pids.len()], &page).expect("write");
        }
    });
    let calls = 10_000u64;
    p.set_ns("storage.file_disk.read_ns", calls, || {
        let mut s = 11u64;
        for _ in 0..calls {
            disk.read(pids[lcg(&mut s) % pids.len()], &mut page)
                .expect("read");
        }
    });
    drop(disk);
    let _ = std::fs::remove_file(&path);

    // Private pool: 64 resident pages for hits; 1024 pages cycled
    // through 16 frames for misses (every read evicts).
    let (hot, hot_pids) = store_with_pages(64);
    let (cold, cold_pids) = store_with_pages(1024);
    let mut pool = BufferPool::with_capacity(hot.clone(), 128);
    let calls = 1_000_000u64;
    p.set_ns("storage.buffer.hit_ns", calls, || {
        for i in 0..calls as usize {
            black_box(pool.read(hot_pids[i % 64], |b| b[0]).expect("read"));
        }
    });
    let mut pool = BufferPool::with_capacity(cold.clone(), 16);
    let calls = 100_000u64;
    p.set_ns("storage.buffer.miss_ns", calls, || {
        for i in 0..calls as usize {
            black_box(pool.read(cold_pids[i % 1024], |b| b[0]).expect("read"));
        }
    });

    // Shared pool, same shapes; `_2t` is two threads on the same pages,
    // so `2t` minus one-thread is time spent waiting for stripe locks.
    let shared = SharedBufferPool::new(hot, 256, 8);
    let mut handle = shared.handle();
    let calls = 1_000_000u64;
    p.set_ns("storage.shared.pin_hit_ns", calls, || {
        for i in 0..calls as usize {
            black_box(handle.read(hot_pids[i % 64], |b| b[0]).expect("read"));
        }
    });
    p.set_ns("storage.shared.pin_hit_2t_ns", calls, || {
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut handle = shared.handle();
                    barrier.wait();
                    for i in 0..calls as usize {
                        black_box(handle.read(hot_pids[i % 64], |b| b[0]).expect("read"));
                    }
                });
            }
        });
    });
    let shared = SharedBufferPool::new(cold, 16, 8);
    let mut handle = shared.handle();
    let calls = 100_000u64;
    p.set_ns("storage.shared.pin_miss_ns", calls, || {
        for i in 0..calls as usize {
            black_box(handle.read(cold_pids[i % 1024], |b| b[0]).expect("read"));
        }
    });

    // B+tree point lookups and heap-file record access, all resident.
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 2048);
    let mut tree = BTree::<12, 8>::create(&mut pool).expect("create the tree");
    let key = |i: u64| {
        let mut k = [0u8; 12];
        k[4..].copy_from_slice(&i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes());
        k
    };
    for i in 0..50_000u64 {
        tree.insert(&mut pool, &key(i), &i.to_le_bytes())
            .expect("insert");
    }
    let calls = 200_000u64;
    p.set_ns("storage.btree.get_ns", calls, || {
        let mut s = 13u64;
        for _ in 0..calls {
            let k = key((lcg(&mut s) % 50_000) as u64);
            black_box(tree.get(&mut pool, &k).expect("get"));
        }
    });
    let records: Vec<Vec<u8>> = data.iter().map(|(_, u)| encode_to_vec(u)).collect();
    let mut heap = HeapFile::new();
    let mut rids = Vec::with_capacity(records.len());
    p.set_ns("storage.heap.insert_ns", records.len() as u64, || {
        for r in &records {
            rids.push(heap.insert(&mut pool, r).expect("insert"));
        }
    });
    let calls = 200_000u64;
    p.set_ns("storage.heap.get_ns", calls, || {
        let mut s = 17u64;
        for _ in 0..calls {
            black_box(
                heap.get(&mut pool, rids[lcg(&mut s) % rids.len()])
                    .expect("get"),
            );
        }
    });
}

fn wal(p: &mut Probe, args: &RunArgs) {
    let path = args.scratch("probe-wal");
    let _ = std::fs::remove_file(&path);
    let dev: SharedLog = Arc::new(FileLog::open_or_create(&path).expect("create the probe log"));
    // A window that never closes: `append` alone, then `flush` alone.
    let mut wal = Wal::new(
        dev.clone(),
        WalConfig {
            group_commit: usize::MAX,
        },
    );
    let payload = [0xA5u8; 26];
    let calls = 20_000u64;
    p.set_ns("storage.wal.append_ns", calls, || {
        for _ in 0..calls {
            wal.append(&payload).expect("append");
        }
    });
    let mut fsync_ns = Vec::new();
    p.rec.probe("storage.wal.fsync_ns", 200, || {
        for _ in 0..200 {
            wal.append(&payload).expect("append");
            let started = Instant::now();
            wal.flush().expect("flush");
            fsync_ns.push(started.elapsed().as_nanos() as u64);
        }
    });
    p.report.set_n(
        "storage.wal.fsync_ns",
        median_u64(&fsync_ns),
        Some(fsync_ns.len()),
    );
    let records = calls + 200;
    p.set_ns("storage.wal.scan_ns_per_record", records, || {
        let scan = Wal::scan(dev.as_ref()).expect("scan");
        assert_eq!(scan.records.len() as u64, records);
    });
    let _ = std::fs::remove_file(&path);
}

/// Posting runs in stream order (descending probability, ties by tid),
/// cut into full blocks of 256 like the index cuts them.
fn posting_blocks(data: &Dataset, domain_size: u32) -> Vec<Vec<(u64, f32)>> {
    let mut blocks = Vec::new();
    for cat in 0..domain_size {
        let mut list: Vec<(u64, f32)> = data
            .iter()
            .filter_map(|(tid, u)| {
                let prob = u.prob_of(crate::adapter::CatId(cat));
                (prob > 0.0).then_some((*tid, prob))
            })
            .collect();
        list.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        blocks.extend(list.chunks_exact(256).map(<[_]>::to_vec));
    }
    blocks
}

/// The pool's specs of one kind, each with its query object built once.
type Queries<'a, Q> = Vec<(&'a Spec, Q)>;

fn queries<'a, Q>(pool: &'a QueryPool, kind: Kind, build: impl Fn(&Spec) -> Q) -> Queries<'a, Q> {
    pool.specs
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| (s, build(s)))
        .collect()
}

/// Time `answer` over `queries`, `reps` rounds, after one checked round.
fn search_us<Q>(
    p: &mut Probe,
    name: &'static str,
    queries: &[(&Spec, Q)],
    data: &Dataset,
    reps: usize,
    mut answer: impl FnMut(&Q) -> Vec<Match>,
) {
    for (spec, q) in queries {
        let matches = answer(q);
        p.check(spec, &matches, data);
    }
    let calls = (queries.len() * reps) as u64;
    p.set_us(name, calls, || {
        for _ in 0..reps {
            for (_, q) in queries {
                black_box(answer(q));
            }
        }
    });
}

fn petq_queries(pool: &QueryPool) -> Queries<'_, EqQuery> {
    queries(pool, Kind::Petq, Spec::eq_query)
}

#[allow(clippy::too_many_lines)]
fn indexes(p: &mut Probe, data: &Dataset, domain: &Domain, pool: &QueryPool) {
    let tuples = tuple_refs(data);
    let n = data.len() as u64;
    let petq = petq_queries(pool);
    let topk = queries(pool, Kind::TopK, Spec::top_k_query);
    let dstq = queries(pool, Kind::Dstq, Spec::dst_query);

    // --- inverted.block ---
    let blocks = posting_blocks(data, domain.size());
    let postings: u64 = blocks.iter().map(|b| b.len() as u64).sum();
    let reps = 20u64;
    let mut encoded = Vec::new();
    p.set_ns(
        "inverted.block.encode_ns_per_posting",
        postings * reps,
        || {
            for _ in 0..reps {
                encoded = blocks.iter().map(|b| encode_block(black_box(b))).collect();
            }
        },
    );
    p.set_ns(
        "inverted.block.decode_ns_per_posting",
        postings * reps,
        || {
            for _ in 0..reps {
                for bytes in &encoded {
                    black_box(decode_block(black_box(bytes)).expect("decodes"));
                }
            }
        },
    );

    // --- inverted.index, inverted.search, inverted.topk, inverted.dstq ---
    let store = InMemoryDisk::shared();
    let (idx, mut bp) = p.set_median("inverted.index.build_s", 3, 1.0, || {
        let mut bp = BufferPool::with_capacity(store.clone(), 2048);
        let idx = InvertedIndex::build(domain.clone(), &mut bp, tuples.iter().copied())
            .expect("build the inverted index");
        (idx, bp)
    });
    // One fixed query set through all six strategies: the time ranking
    // to set beside the paper's I/O ranking.
    for (name, strategy) in [
        ("inverted.search.brute_us", Strategy::Brute),
        ("inverted.search.hpf_us", Strategy::HighestProbFirst),
        ("inverted.search.row_us", Strategy::RowPruning),
        ("inverted.search.col_us", Strategy::ColumnPruning),
        ("inverted.search.nra_us", Strategy::Nra),
        ("inverted.search.auto_us", Strategy::Auto),
    ] {
        search_us(p, name, &petq, data, 3, |q| {
            idx.petq(&mut bp, q, strategy).expect("petq")
        });
    }
    search_us(p, "inverted.topk.topk_us", &topk, data, 3, |q| {
        idx.top_k(&mut bp, q).expect("top_k")
    });
    search_us(p, "inverted.dstq.dstq_us", &dstq, data, 3, |q| {
        idx.dstq(&mut bp, q).expect("dstq")
    });
    let calls = 100_000u64;
    let plan_queries: Vec<&EqQuery> = petq.iter().map(|(_, q)| q).collect();
    p.set_ns("inverted.cost.plan_petq_ns", calls, || {
        for i in 0..calls as usize {
            black_box(idx.plan_petq(black_box(plan_queries[i % plan_queries.len()])));
        }
    });
    let planner = Planner::for_inverted(&idx);
    p.set_ns("query.planner.plan_petq_ns", calls, || {
        for i in 0..calls as usize {
            black_box(planner.plan_petq(black_box(plan_queries[i % plan_queries.len()])));
        }
    });
    let snapshot = p.set_median("inverted.persist.snapshot_ms", 5, 1e3, || idx.snapshot());
    p.set_median("inverted.persist.open_ms", 5, 1e3, || {
        InvertedIndex::open(&snapshot).expect("open the snapshot")
    });

    // --- query.parallel, query.join: the inverted index behind the trait ---
    let backend = InvertedBackend::with_strategy(idx, Strategy::Auto);
    let batch: Vec<EqQuery> = plan_queries
        .iter()
        .cycle()
        .take(512)
        .map(|&q| q.clone())
        .collect();
    // The batch reads through its own pool: publish the build's pages first.
    bp.flush().expect("flush the index pages");
    let pools = BatchPools::shared(&store, 1024, 8);
    let started = Instant::now();
    let answers = p.rec.probe(
        "query.parallel.petq_batch_qps_2t",
        batch.len() as u64,
        || petq_batch_with(&backend, &store, &pools, &batch, 2),
    );
    let secs = started.elapsed().as_secs_f64();
    p.attempted += answers.len() as u64;
    p.failed += answers.iter().filter(|a| a.is_err()).count() as u64;
    p.report.set_n(
        "query.parallel.petq_batch_qps_2t",
        batch.len() as f64 / secs,
        Some(batch.len()),
    );
    let outer: Vec<(u64, Uda)> = data.iter().take(200).cloned().collect();
    for (name, spec) in [
        ("query.join.petj_ms", JoinSpec::Petj { tau: 0.5 }),
        ("query.join.pej_topk_ms", JoinSpec::PejTopK { k: 100 }),
    ] {
        p.set_median(name, 3, 1e3, || {
            index_join(&outer, &backend, &mut bp, spec)
                .expect("join")
                .pairs
                .len()
        });
    }

    // --- inverted.index mutation, in the plain in-memory store (no WAL) ---
    let mut idx = backend.index;
    let fresh = 2_000u64;
    p.set_us("inverted.index.insert_us", fresh, || {
        for i in 0..fresh {
            idx.insert(&mut bp, n + i, &data[i as usize].1)
                .expect("insert");
        }
    });
    p.set_us("inverted.index.delete_us", fresh, || {
        for i in 0..fresh {
            assert!(idx.delete(&mut bp, n + i).expect("delete"));
        }
    });
    drop((idx, bp));

    // --- pdrtree ---
    let mut boundary = Boundary::empty(Compression::None);
    for (_, u) in data.iter().take(64) {
        boundary.merge_uda(u);
    }
    let calls = 1_000_000u64;
    p.set_ns("pdrtree.boundary.eq_upper_bound_ns", calls, || {
        let mut acc = 0.0;
        for i in 0..calls as usize {
            acc += boundary.eq_upper_bound(black_box(&data[i % n as usize].1));
        }
        black_box(acc);
    });
    let pdr_store = InMemoryDisk::shared();
    p.set_median("pdrtree.bulk.build_s", 1, 1.0, || {
        let mut bp = BufferPool::with_capacity(pdr_store.clone(), 2048);
        PdrTree::bulk_build(
            domain.clone(),
            PdrConfig::default(),
            &mut bp,
            tuples.iter().copied(),
        )
        .expect("bulk-build the tree")
        .len()
    });
    // Built by insertion, as `register_tenant_pdr` builds it.
    let (mut tree, mut bp) = p.set_median("pdrtree.tree.build_s", 1, 1.0, || {
        let mut bp = BufferPool::with_capacity(pdr_store.clone(), 2048);
        let tree = PdrTree::build(
            domain.clone(),
            PdrConfig::default(),
            &mut bp,
            tuples.iter().copied(),
        )
        .expect("build the tree");
        (tree, bp)
    });
    search_us(p, "pdrtree.search.petq_us", &petq, data, 3, |q| {
        tree.petq(&mut bp, q).expect("petq")
    });
    search_us(p, "pdrtree.search.topk_us", &topk, data, 3, |q| {
        tree.top_k(&mut bp, q).expect("top_k")
    });
    search_us(p, "pdrtree.dstq.dstq_us", &dstq, data, 3, |q| {
        tree.dstq(&mut bp, q).expect("dstq")
    });
    let snapshot = tree.snapshot();
    p.set_median("pdrtree.persist.open_ms", 5, 1e3, || {
        PdrTree::open(&snapshot).expect("open the snapshot")
    });
    let fresh = 1_000u64;
    p.set_us("pdrtree.tree.insert_us", fresh, || {
        for i in 0..fresh {
            tree.insert(&mut bp, n + i, &data[i as usize].1)
                .expect("insert");
        }
    });
    drop((tree, bp));

    // --- query.scan: the no-index baseline, which should never move ---
    let mut bp = BufferPool::with_capacity(InMemoryDisk::shared(), 2048);
    let scan = ScanBaseline::build(&mut bp, tuples.iter().copied()).expect("build the scan");
    search_us(
        p,
        "query.scan.petq_us",
        &petq[..16.min(petq.len())],
        data,
        2,
        |q| scan.petq(&mut bp, q).expect("scan"),
    );
}

/// The durable path minus the device: `DurableIndex` over `MemLog` and
/// the in-memory store, group commit 8.
fn durable(p: &mut Probe, data: &Dataset, domain: &Domain) {
    let config = DurableConfig {
        group_commit: 8,
        pool_frames: 4096,
        ..DurableConfig::default()
    };
    let storage = DurableStorage::in_memory();
    let mut idx = DurableIndex::create(storage.clone(), config, |pool| {
        let index =
            InvertedIndex::build(domain.clone(), pool, data.iter().map(|(tid, u)| (*tid, u)))?;
        Ok(InvertedBackend::with_strategy(index, Strategy::Auto))
    })
    .expect("create the durable index");
    let n = data.len() as u64;
    let mut next = n;
    let mut insert_ns = Vec::new();
    let mut checkpoint_ms = Vec::new();
    p.rec.probe("query.durable.insert_us", 5_000, || {
        for round in 0..5 {
            for _ in 0..1_000 {
                let started = Instant::now();
                idx.insert(next, &data[(next % n) as usize].1)
                    .expect("insert");
                insert_ns.push(started.elapsed().as_nanos() as u64);
                next += 1;
            }
            // The last thousand stay un-checkpointed for the reopen below.
            if round < 4 {
                let started = Instant::now();
                idx.checkpoint().expect("checkpoint");
                checkpoint_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
        }
    });
    p.report.set_n(
        "query.durable.insert_us",
        insert_ns.iter().sum::<u64>() as f64 / insert_ns.len() as f64 / 1e3,
        Some(insert_ns.len()),
    );
    p.report.set_n(
        "query.durable.checkpoint_ms",
        median_f64(&checkpoint_ms),
        Some(checkpoint_ms.len()),
    );
    idx.flush_wal().expect("flush the WAL");
    drop(idx);
    let replayed = p.set_median("query.durable.recover_ms_per_krecord", 3, 1e3, || {
        let (_, report): (DurableIndex<InvertedBackend>, _) =
            DurableIndex::open(storage.clone(), config).expect("reopen");
        report.replayed_records
    });
    p.attempted += 1;
    p.failed += u64::from(replayed != 1_000);
}

fn service(p: &mut Probe, data: &Dataset, domain: &Domain, pool: &QueryPool) {
    let gate = Admission::new(400, 4);
    let calls = 1_000_000u64;
    p.set_ns("service.admission.admit_ns", calls, || {
        for _ in 0..calls {
            black_box(gate.admit(black_box(100)).expect("an idle gate admits"));
        }
    });

    // `QueryService::petq` on a one-shard tenant against the same probe
    // run directly on an identical index over an identical pool: the
    // difference is admission, scatter, merge and bookkeeping.
    let store = InMemoryDisk::shared();
    let svc = QueryService::new(store.clone(), ServiceConfig::default());
    svc.register_tenant_inverted(TenantConfig::new("probe"), domain, data, 1, Strategy::Auto)
        .expect("build the tenant");
    let mut build = BufferPool::with_capacity(store.clone(), 128);
    let twin = InvertedIndex::build(
        domain.clone(),
        &mut build,
        data.iter().map(|(t, u)| (*t, u)),
    )
    .expect("build the twin index");
    build.flush().expect("flush the twin");
    let twin = InvertedBackend::with_strategy(twin, Strategy::Auto);
    let shared = SharedBufferPool::new(store, ServiceConfig::default().total_frames, 8);
    let queries = petq_queries(pool);
    let mut extra_ns = Vec::new();
    let calls = (queries.len() * 8) as u64;
    p.rec.probe("service.service.overhead_us", calls, || {
        for round in 0..4 {
            for (_, q) in &queries {
                let started = Instant::now();
                let out = svc.petq("probe", q);
                let ns = started.elapsed().as_nanos() as u64;
                black_box(out.expect("service petq"));
                let started = Instant::now();
                let mut bp = BufferPool::from_handle(shared.handle());
                let out = twin.petq(&mut bp, q);
                let twin_ns = started.elapsed().as_nanos() as u64;
                black_box(out.expect("direct petq"));
                // The first round warms both pools. Each query is its own
                // pair, so what varies from query to query cancels.
                if round > 0 {
                    extra_ns.push(ns as f64 - twin_ns as f64);
                }
            }
        }
    });
    p.report.set_n(
        "service.service.overhead_us",
        median_f64(&extra_ns) / 1e3,
        Some(extra_ns.len()),
    );
}

/// Run every probe. Returns (answers checked, answers wrong).
pub fn run(args: &RunArgs, rec: &mut Recorder, report: &mut Report) -> (u64, u64) {
    let (domain, data) = crm1(args.scale(PROBE_TUPLES), args.seed);
    let pool = QueryPool::build(
        &tuple_refs(&data),
        32,
        &[0.001, 0.01],
        &Kind::READS,
        args.seed,
        2,
    );
    let mut p = Probe {
        rec,
        report,
        attempted: 0,
        failed: 0,
    };
    core(&mut p, &data);
    storage(&mut p, args, &data);
    wal(&mut p, args);
    indexes(&mut p, &data, &domain, &pool);
    durable(&mut p, &data, &domain);
    service(&mut p, &data, &domain, &pool);
    (p.attempted, p.failed)
}
