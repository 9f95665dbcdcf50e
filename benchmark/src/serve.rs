//! The three read workloads through `QueryService`: `inv_hot`,
//! `pdr_hot`, `inv_cold`.
//!
//! Closed loop: the callers are in-process threads that wait for each
//! reply, two of them (the machine's `nproc`; fixed so numbers compare
//! across machines, with `nproc` recorded by `suite`). Tenants get what
//! a user gets by default: `Strategy::Auto`, `PdrConfig::default()`, two
//! data shards, sequential scatter, and `TenantConfig::new`'s admission
//! quota, which two clients never fill, so any reject is a failure.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::adapter::{
    crm1, encoded_len, Dataset, FileDisk, InMemoryDisk, IoStats, QueryService, ServiceConfig,
    ServiceError, ServiceOutcome, SharedStore, Strategy, TenantConfig, PAGE_SIZE,
};
use crate::common::{
    emit_tail, emit_window, peak_rss_mb, trace_overhead_pct, PassCounts, RunArgs, Tally,
};
use crate::probes;
use crate::report::Report;
use crate::trace::Recorder;
use crate::workload::{check_read, read_ops, tuple_refs, Kind, Prepared, QueryPool, ReadMix};

pub const CLIENTS: usize = 2;
const TENANT: &str = "bench";
const DATA_SHARDS: usize = 2;
/// Longer than any window drains: hot clients run ~10^5 ops in 10 s.
const OPS_PER_CLIENT: usize = 1 << 18;

#[derive(Clone, Copy, PartialEq)]
pub enum Backend {
    Inverted,
    Pdr,
}

pub struct ServeParams {
    pub name: &'static str,
    pub backend: Backend,
    pub tuples: usize,
    /// Page file under `out/` instead of the in-memory store.
    pub on_file: bool,
    pub total_frames: usize,
    pub bases: usize,
    pub sels: &'static [f64],
    pub mix: ReadMix,
    pub traced_ops: usize,
}

/// 40 000 tuples: 212 pages inverted, ~300 as a PDR-tree, so the default
/// 1024-frame pool holds either whole. The PDR-tree builds by insertion
/// (~0.1 ms per tuple), which is what caps the size: the tree is built
/// three times per run for `setup_s`.
const HOT: ServeParams = ServeParams {
    name: "inv_hot",
    backend: Backend::Inverted,
    tuples: 40_000,
    on_file: false,
    total_frames: 1024,
    bases: 512,
    sels: &[0.0001, 0.001, 0.01],
    mix: ReadMix {
        petq: 60,
        topk: 30,
        dstq: 10,
    },
    traced_ops: 2000,
};

pub fn params(workload: &str) -> ServeParams {
    match workload {
        "inv_hot" => HOT,
        // Byte-identical data, query pool and op sequence as inv_hot.
        "pdr_hot" => ServeParams {
            name: "pdr_hot",
            backend: Backend::Pdr,
            ..HOT
        },
        // 100 000 tuples are ~530 pages; 64 frames hold ~12 % of them.
        "inv_cold" => ServeParams {
            name: "inv_cold",
            backend: Backend::Inverted,
            tuples: 100_000,
            on_file: true,
            total_frames: 64,
            bases: 512,
            sels: &[0.001, 0.01],
            // No DSTQ: a cold one verifies every posting of the query's
            // lists by random heap fetch, 100-300 ms each, and would be
            // the whole workload.
            mix: ReadMix {
                petq: 70,
                topk: 30,
                dstq: 0,
            },
            traced_ops: 500,
        },
        other => panic!("{other} is not a service workload"),
    }
}

struct Instance {
    svc: QueryService,
    store: SharedStore,
    data: Dataset,
    file: Option<std::path::PathBuf>,
}

impl Instance {
    fn stored_bytes(&self) -> u64 {
        match &self.file {
            Some(path) => std::fs::metadata(path).map_or(0, |m| m.len()),
            None => self.store.num_pages() * PAGE_SIZE as u64,
        }
    }
}

/// Generate the relation, create the store and build the tenant: what a
/// user waits for before the first query.
fn set_up(p: &ServeParams, args: &RunArgs) -> Instance {
    let (domain, data) = crm1(args.scale(p.tuples), args.seed);
    let file = p.on_file.then(|| args.scratch("pages"));
    let store: SharedStore = match &file {
        Some(path) => Arc::new(FileDisk::create(path).expect("create the page file")),
        None => InMemoryDisk::shared(),
    };
    let svc = QueryService::new(
        store.clone(),
        ServiceConfig {
            total_frames: p.total_frames,
            ..ServiceConfig::default()
        },
    );
    let config = TenantConfig::new(TENANT);
    match p.backend {
        Backend::Inverted => {
            svc.register_tenant_inverted(config, &domain, &data, DATA_SHARDS, Strategy::Auto)
        }
        Backend::Pdr => svc.register_tenant_pdr(config, &domain, &data, DATA_SHARDS),
    }
    .expect("build the tenant");
    Instance {
        svc,
        store,
        data,
        file,
    }
}

fn call(svc: &QueryService, query: &Prepared) -> Result<ServiceOutcome, ServiceError> {
    match query {
        Prepared::Petq(q) => svc.petq(TENANT, q),
        Prepared::TopK(q) => svc.top_k(TENANT, q),
        Prepared::Dstq(q) => svc.dstq(TENANT, q),
    }
}

fn call_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Petq => "service.petq",
        Kind::TopK => "service.top_k",
        _ => "service.dstq",
    }
}

struct Bench<'a> {
    inst: &'a Instance,
    pool: &'a QueryPool,
    prepared: &'a [Prepared],
}

impl Bench<'_> {
    /// One operation: the timed call, then the answer check outside it.
    /// With `rec` enabled the call and the check are child spans of the
    /// operation's root; the window runs the same code with it disabled.
    fn step(&self, op: u32, rec: &mut Recorder, tally: &mut Tally, counts: &mut PassCounts) {
        let spec = &self.pool.specs[op as usize];
        let iteration = Instant::now();
        let root = rec.begin(spec.kind.name(), 0);
        let span = rec.begin(call_span(spec.kind), root);
        let started = Instant::now();
        let outcome = call(&self.inst.svc, &self.prepared[op as usize]);
        let ns = started.elapsed().as_nanos() as u64;
        tally.attempted += 1;
        let ok = match outcome {
            Ok(out) => {
                rec.end_with(
                    span,
                    &PassCounts::span_counts(&out.metrics, out.matches.len()),
                );
                counts.metrics.merge(&out.metrics);
                counts.matches += out.matches.len() as u64;
                let check = rec.begin("check", root);
                let uda_of = |tid: u64| self.inst.data.get(tid as usize).map(|(_, u)| u);
                let ok = check_read(spec, &spec.expect, &out.matches, uda_of);
                rec.end(check);
                ok
            }
            Err(_) => {
                rec.end(span);
                false
            }
        };
        rec.end(root);
        if ok {
            tally.samples_ns[spec.kind.index()].push(ns);
        } else {
            tally.failed += 1;
        }
        counts.ops += 1;
        counts.op_ns.push(iteration.elapsed().as_nanos() as u64);
    }

    /// The closed loop: operations in sequence until `length` has passed.
    fn run_until(&self, ops: &[u32], next: &mut usize, length: Duration, tally: &mut Tally) {
        let mut off = Recorder::disabled();
        let mut unused = PassCounts::default();
        let started = Instant::now();
        while started.elapsed() < length {
            self.step(ops[*next % ops.len()], &mut off, tally, &mut unused);
            *next += 1;
        }
    }

    /// One client over the first operations of a sequence, traced when
    /// `rec` is enabled.
    fn pass(&self, ops: &[u32], rec: &mut Recorder, tally: &mut Tally) -> PassCounts {
        let mut counts = PassCounts::default();
        for &op in ops {
            self.step(op, rec, tally, &mut counts);
        }
        counts
    }
}

/// Warm up, then the timed window, both with `CLIENTS` closed-loop
/// clients. Returns the merged tally, the window's wall time and the
/// pool's I/O during the window.
fn window(bench: &Bench, ops: &[Vec<u32>], args: &RunArgs) -> (Tally, f64, IoStats) {
    // The main thread joins each barrier so it can read the pool's
    // counters while every client is parked between warm-up and window.
    let barrier = Barrier::new(CLIENTS + 1);
    std::thread::scope(|scope| {
        let clients: Vec<_> = ops
            .iter()
            .map(|my_ops| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut next = 0;
                    barrier.wait();
                    bench.run_until(my_ops, &mut next, args.warm_up(), &mut Tally::default());
                    barrier.wait();
                    barrier.wait();
                    let mut tally = Tally::default();
                    let started = Instant::now();
                    bench.run_until(my_ops, &mut next, args.window(), &mut tally);
                    (tally, started.elapsed().as_secs_f64())
                })
            })
            .collect();
        barrier.wait();
        barrier.wait();
        let before = bench.inst.svc.pool_stats();
        barrier.wait();
        let mut merged = Tally::default();
        let mut elapsed: f64 = 0.0;
        for client in clients {
            let (tally, secs) = client.join().expect("client thread panicked");
            merged.merge(tally);
            elapsed = elapsed.max(secs);
        }
        let io = bench.inst.svc.pool_stats().since(&before);
        (merged, elapsed, io)
    })
}

pub fn run(args: &RunArgs) -> String {
    let p = params(args.workload);
    let mut report = Report::new(p.name, args.trace);

    let (setup_s, reps, inst) = args.timed_set_up(|| set_up(&p, args));
    report.set_n("setup_s", setup_s, Some(reps));

    // Inputs and expected outputs, all from the seed, before any timing.
    let tuples = tuple_refs(&inst.data);
    let pool = QueryPool::build(&tuples, p.bases, p.sels, &Kind::READS, args.seed, CLIENTS);
    let prepared: Vec<Prepared> = pool.specs.iter().map(|s| s.prepared()).collect();
    let ops: Vec<Vec<u32>> = (0..CLIENTS as u64)
        .map(|c| {
            let seed = args.seed.wrapping_mul(0x9E37_79B9).wrapping_add(c);
            read_ops(&pool, p.mix, OPS_PER_CLIENT, seed)
        })
        .collect();
    let bench = Bench {
        inst: &inst,
        pool: &pool,
        prepared: &prepared,
    };

    let (mut tally, elapsed, io) = window(&bench, &ops, args);
    emit_window(&mut report, &tally, elapsed);
    let user_bytes: usize = inst.data.iter().map(|(_, u)| encoded_len(u)).sum();
    report.set(
        "stored_bytes_per_user_byte",
        inst.stored_bytes() as f64 / user_bytes as f64,
    );

    if args.trace {
        emit_tail(&mut report, &tally);
        let stats = inst.svc.tenant_stats(TENANT).expect("the tenant exists");
        let kops = (stats.completed + stats.rejected).max(1) as f64 / 1e3;
        report.set(
            "service.admission.waits_per_kop",
            stats.metrics.admission_waits as f64 / kops,
        );
        report.set(
            "service.admission.rejects_per_kop",
            stats.rejected as f64 / kops,
        );
        eprintln!(
            "{}: window pool hit rate {:.4}, {} physical reads",
            p.name,
            io.hit_ratio(),
            io.physical_reads
        );

        let first = &ops[0][..p.traced_ops.min(ops[0].len())];
        let untraced = bench.pass(first, &mut Recorder::disabled(), &mut tally);
        let mut rec = Recorder::enabled();
        let traced = bench.pass(first, &mut rec, &mut tally);
        traced.emit(&mut report);
        report.set("trace.overhead_pct", trace_overhead_pct(&untraced, &traced));
        for name in [
            "write_p50_us",
            "write_p95_us",
            "checkpoint_ms",
            "recovery_s",
        ] {
            report.set(name, 0.0);
        }
        let (checked, wrong) = probes::run(args, &mut rec, &mut report);
        tally.attempted += checked;
        tally.failed += wrong;
        let path = args.out_dir.join(format!("{}.trace.jsonl", p.name));
        rec.write_jsonl(&path).expect("write the trace");
        eprintln!(
            "{}: {} spans in {}",
            p.name,
            rec.span_count(),
            path.display()
        );
    }
    report.set(
        "fail_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    report.set("peak_rss_mb", peak_rss_mb());

    let line = report.finish(tally.attempted, tally.failed, true);
    let file = inst.file.clone();
    drop(inst);
    if let Some(path) = file {
        // The page file is scratch; the numbers above are the result.
        let _ = std::fs::remove_file(path);
    }
    line
}
