//! `ingest_mix`: one client on a file-backed `DurableIndex`, half
//! writes, half reads.
//!
//! One client because `DurableIndex` takes `&mut self`. Flush policy,
//! identical on both sides of any comparison: WAL group commit of 8
//! records per fsync, no automatic checkpoints (`checkpoint_every` 0 and
//! a private pool large enough that the dirty-page trigger never
//! fires); the benchmark calls `checkpoint()` itself after every 500
//! mutations so it can time it. After the window it writes until
//! exactly 1 000 mutations are un-checkpointed, flushes the WAL, drops
//! the index, reopens it and checks every acknowledged write.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adapter::{
    crm1, encoded_len, CatId, Dataset, DurableConfig, DurableIndex, DurableStorage, EqQuery,
    InvertedBackend, InvertedIndex, Match, QueryMetrics, Strategy, Uda, WalStats, DOMAIN_SIZE,
};
use crate::common::{
    emit_p50_p95, emit_tail, emit_window, peak_rss_mb, trace_overhead_pct, PassCounts, RunArgs,
    Tally,
};
use crate::probes;
use crate::report::Report;
use crate::stats::median_f64;
use crate::trace::Recorder;
use crate::workload::{
    check_read, draw_read, expect_now, tid_fingerprint, tuple_refs, Kind, Prepared, QueryPool,
    ReadMix, Spec,
};

const PRELOAD: usize = 30_000;
const GROUP_COMMIT: usize = 8;
const CHECKPOINT_EVERY: u64 = 500;
/// The preloaded index is ~270 pages and grows by a few per thousand
/// inserts; 4096 frames keep the no-steal pool's dirty-page trigger
/// (3/4 of the frames) out of reach for any window.
const POOL_FRAMES: usize = 4096;
const UNCHECKPOINTED_AT_REOPEN: u64 = 1_000;
const _: () = assert!(CHECKPOINT_EVERY <= UNCHECKPOINTED_AT_REOPEN);
const REOPENS: usize = 5;
const BASES: usize = 512;
const SELECTIVITY: f64 = 0.001;
const READ_MIX: ReadMix = ReadMix {
    petq: 65,
    topk: 25,
    dstq: 10,
};
/// A read in the window is checked by brute force this often (every
/// read is checked in the one-client passes).
const CHECK_EVERY: u64 = 50;
const OPS: usize = 1 << 18;
const TRACED_OPS: usize = 2_000;

#[derive(Clone, Copy)]
enum Op {
    Read(u32),
    /// Tuple id and the index in the dataset of its new distribution.
    Insert(u64, u32),
    Update(u64, u32),
    Delete(u64),
}

impl Op {
    fn kind(self, pool: &QueryPool) -> Kind {
        match self {
            Op::Read(spec) => pool.specs[spec as usize].kind,
            Op::Insert(..) => Kind::Insert,
            Op::Update(..) => Kind::Update,
            Op::Delete(_) => Kind::Delete,
        }
    }
}

/// The pre-generated sequence: 50 % reads, and writes split insert 60 /
/// update 20 / delete 20 against a simulated live set so that no write
/// can fail. Fresh distributions are the dataset's tuples after the
/// preloaded prefix, in order.
fn gen_ops(pool: &QueryPool, preload: usize, len: usize, seed: u64) -> (Vec<Op>, usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x001A_6E57);
    let mut live: Vec<u64> = (0..preload as u64).collect();
    let mut next_tid = preload as u64;
    let mut next_uda = preload as u32;
    let mut fresh = || {
        next_uda += 1;
        next_uda - 1
    };
    let ops = (0..len)
        .map(|_| {
            if rng.random_range(0..2u32) == 0 {
                return Op::Read(draw_read(pool, READ_MIX, &mut rng));
            }
            let r = rng.random_range(0..100u32);
            if r < 60 || live.len() < preload / 2 {
                live.push(next_tid);
                next_tid += 1;
                Op::Insert(next_tid - 1, fresh())
            } else if r < 80 {
                Op::Update(live[rng.random_range(0..live.len())], fresh())
            } else {
                let at = rng.random_range(0..live.len());
                Op::Delete(live.swap_remove(at))
            }
        })
        .collect();
    (ops, next_uda as usize)
}

struct Files {
    pages: PathBuf,
    wal: PathBuf,
    journal: PathBuf,
    snapshot: PathBuf,
}

impl Files {
    fn new(args: &RunArgs) -> Files {
        Files {
            pages: args.scratch("pages"),
            wal: args.scratch("wal"),
            journal: args.scratch("journal"),
            snapshot: args.scratch("snapshot"),
        }
    }

    fn all(&self) -> [&PathBuf; 4] {
        [&self.pages, &self.wal, &self.journal, &self.snapshot]
    }

    fn remove(&self) {
        for path in self.all() {
            let _ = std::fs::remove_file(path);
        }
    }

    fn bytes(&self) -> u64 {
        self.all()
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum()
    }

    fn storage(&self, create: bool) -> DurableStorage {
        DurableStorage::open_files(
            &self.pages,
            &self.wal,
            &self.journal,
            &self.snapshot,
            create,
        )
        .expect("open the durable files")
    }
}

fn config() -> DurableConfig {
    DurableConfig {
        group_commit: GROUP_COMMIT,
        pool_frames: POOL_FRAMES,
        checkpoint_every: 0,
        ..DurableConfig::default()
    }
}

type Index = DurableIndex<InvertedBackend>;

/// Generate the preload, create the four files, bulk-build the index in
/// the durable pool and publish it with the initial checkpoint.
fn set_up(files: &Files, preload: usize, seed: u64) -> Index {
    files.remove();
    let (domain, data) = crm1(preload, seed);
    DurableIndex::create(files.storage(true), config(), |pool| {
        let index = InvertedIndex::build(domain, pool, data.iter().map(|(tid, u)| (*tid, u)))?;
        Ok(InvertedBackend::with_strategy(index, Strategy::Auto))
    })
    .expect("create the durable index")
}

/// The benchmark's own record of what the index must hold.
struct Truth<'a> {
    all: &'a Dataset,
    /// `uda_of[tid]`: index into `all`, or `None` once deleted.
    uda_of: Vec<Option<u32>>,
}

impl<'a> Truth<'a> {
    fn new(all: &'a Dataset, preload: usize) -> Truth<'a> {
        Truth {
            all,
            uda_of: (0..preload as u32).map(Some).collect(),
        }
    }

    fn get(&self, tid: u64) -> Option<&'a Uda> {
        let at = (*self.uda_of.get(tid as usize)?)?;
        Some(&self.all[at as usize].1)
    }

    fn put(&mut self, tid: u64, uda: Option<u32>) {
        if tid as usize >= self.uda_of.len() {
            self.uda_of.resize(tid as usize + 1, None);
        }
        self.uda_of[tid as usize] = uda;
    }

    fn live(&self) -> Vec<(u64, &'a Uda)> {
        (0..self.uda_of.len() as u64)
            .filter_map(|tid| self.get(tid).map(|u| (tid, u)))
            .collect()
    }
}

struct Client<'a> {
    idx: Index,
    truth: Truth<'a>,
    pool: &'a QueryPool,
    prepared: &'a [Prepared],
    ops: &'a [Op],
    next: usize,
    reads: u64,
    uncheckpointed: u64,
    checkpoint_ms: Vec<f64>,
}

impl Client<'_> {
    fn checked(&self, spec: &Spec, matches: &[Match]) -> bool {
        let now = expect_now(spec, &self.truth.live());
        check_read(spec, &now, matches, |tid| self.truth.get(tid))
    }

    fn checkpoint(&mut self, rec: &mut Recorder) {
        let span = rec.begin("durable.checkpoint", 0);
        let started = Instant::now();
        self.idx.checkpoint().expect("checkpoint");
        self.checkpoint_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        rec.end(span);
        self.uncheckpointed = 0;
    }

    /// One operation: the timed call, then bookkeeping and the answer
    /// check outside it. In a one-client `pass` every read is checked and
    /// runs through the metered twin for its counters.
    fn step(&mut self, rec: &mut Recorder, tally: &mut Tally, counts: &mut PassCounts, pass: bool) {
        let op = self.ops[self.next];
        self.next += 1;
        let kind = op.kind(self.pool);
        let iteration = Instant::now();
        let root = rec.begin(kind.name(), 0);
        tally.attempted += 1;
        let (ns, ok) = match op {
            Op::Read(at) => {
                let spec = &self.pool.specs[at as usize];
                let mut m = QueryMetrics::new();
                let span = rec.begin("durable.read", root);
                let started = Instant::now();
                let result = match (&self.prepared[at as usize], pass) {
                    (Prepared::Petq(q), false) => self.idx.petq(q),
                    (Prepared::TopK(q), false) => self.idx.top_k(q),
                    (Prepared::Dstq(q), false) => self.idx.dstq(q),
                    (Prepared::Petq(q), true) => self.idx.petq_metered(q, &mut m),
                    (Prepared::TopK(q), true) => self.idx.top_k_metered(q, &mut m),
                    (Prepared::Dstq(q), true) => self.idx.dstq_metered(q, &mut m),
                };
                let ns = started.elapsed().as_nanos() as u64;
                let matches = result.as_ref().map_or(0, Vec::len);
                rec.end_with(span, &PassCounts::span_counts(&m, matches));
                counts.metrics.merge(&m);
                counts.matches += matches as u64;
                self.reads += 1;
                let ok = match result {
                    Ok(matches) if pass || self.reads.is_multiple_of(CHECK_EVERY) => {
                        let check = rec.begin("check", root);
                        let ok = self.checked(spec, &matches);
                        rec.end(check);
                        ok
                    }
                    Ok(_) => true,
                    Err(_) => false,
                };
                (ns, ok)
            }
            Op::Insert(tid, at) | Op::Update(tid, at) => {
                let uda = &self.truth.all[at as usize].1;
                let before = self.idx.wal_stats();
                let span = rec.begin("durable.write", root);
                let started = Instant::now();
                let ok = match op {
                    Op::Insert(..) => self.idx.insert(tid, uda).is_ok(),
                    _ => matches!(self.idx.update(tid, uda), Ok(true)),
                };
                let ns = started.elapsed().as_nanos() as u64;
                self.wrote(rec, span, counts, before, encoded_len(uda));
                self.truth.put(tid, Some(at));
                (ns, ok)
            }
            Op::Delete(tid) => {
                let before = self.idx.wal_stats();
                let span = rec.begin("durable.write", root);
                let started = Instant::now();
                let ok = matches!(self.idx.delete(tid), Ok(true));
                let ns = started.elapsed().as_nanos() as u64;
                self.wrote(rec, span, counts, before, 0);
                self.truth.put(tid, None);
                (ns, ok)
            }
        };
        rec.end(root);
        if ok {
            tally.samples_ns[kind.index()].push(ns);
        } else {
            tally.failed += 1;
        }
        counts.ops += 1;
        counts.op_ns.push(iteration.elapsed().as_nanos() as u64);
    }

    /// The closed loop of the warm-up and the window: operations in
    /// sequence, an explicit checkpoint after every 500 mutations.
    /// Returns the seconds it ran.
    fn run_for(&mut self, length: Duration, tally: &mut Tally) -> f64 {
        let mut off = Recorder::disabled();
        let mut unused = PassCounts::default();
        let started = Instant::now();
        while started.elapsed() < length && self.next < self.ops.len() {
            self.step(&mut off, tally, &mut unused, false);
            if self.uncheckpointed >= CHECKPOINT_EVERY {
                self.checkpoint(&mut off);
            }
        }
        started.elapsed().as_secs_f64()
    }

    fn wrote(
        &mut self,
        rec: &mut Recorder,
        span: u32,
        counts: &mut PassCounts,
        before: WalStats,
        user_bytes: usize,
    ) {
        let after = self.idx.wal_stats();
        let appends = after.records_appended - before.records_appended;
        let fsyncs = after.fsyncs - before.fsyncs;
        rec.end_with(span, &[("wal_appends", appends), ("wal_fsyncs", fsyncs)]);
        counts.writes += 1;
        counts.wal_appends += appends;
        counts.wal_fsyncs += fsyncs;
        counts.user_bytes_written += user_bytes as u64;
        self.uncheckpointed += 1;
    }
}

/// After the reopen: the tuple count, and for every category the exact
/// set of tuples with a posting in it — together, every acknowledged
/// write and nothing else. Returns (checks, failures).
fn verify_reopened(idx: &mut Index, truth: &Truth) -> (u64, u64) {
    let live = truth.live();
    let mut failed = u64::from(idx.tuple_count() != live.len() as u64);
    for cat in 0..DOMAIN_SIZE {
        let cat = CatId(cat);
        let want = tid_fingerprint(
            live.iter()
                .filter(|(_, u)| u.prob_of(cat) > 0.0)
                .map(|(tid, _)| *tid),
        );
        let got = idx
            .petq(&EqQuery::new(Uda::certain(cat), 1e-6))
            .map(|ms| tid_fingerprint(ms.iter().map(|m| m.tid)));
        failed += u64::from(got.ok() != Some(want));
    }
    (1 + u64::from(DOMAIN_SIZE), failed)
}

pub fn run(args: &RunArgs) -> String {
    let mut report = Report::new("ingest_mix", args.trace);
    let preload = args.scale(PRELOAD);
    let files = Files::new(args);

    let (setup_s, reps, idx) = args.timed_set_up(|| set_up(&files, preload, args.seed));
    report.set_n("setup_s", setup_s, Some(reps));

    // Reads are calibrated against the preloaded relation; the relation
    // then drifts under them, which is why their answers are recomputed
    // from the live tuples at check time.
    let (_, preloaded) = crm1(preload, args.seed);
    let pool = QueryPool::build(
        &tuple_refs(&preloaded),
        BASES,
        &[SELECTIVITY],
        &Kind::READS,
        args.seed,
        2,
    );
    let prepared: Vec<Prepared> = pool.specs.iter().map(|s| s.prepared()).collect();
    let (ops, tuples_needed) = gen_ops(&pool, preload, OPS, args.seed);
    let (_, all) = crm1(tuples_needed, args.seed);
    let client = |idx: Index| Client {
        idx,
        truth: Truth::new(&all, preload),
        pool: &pool,
        prepared: &prepared,
        ops: &ops,
        next: 0,
        reads: 0,
        uncheckpointed: 0,
        checkpoint_ms: Vec::new(),
    };

    // Warm-up and window run on through one sequence: the state a
    // write leaves is the state the next operation meets.
    let mut c = client(idx);
    let mut off = Recorder::disabled();
    c.run_for(args.warm_up(), &mut Tally::default());
    c.checkpoint_ms.clear();
    let mut tally = Tally::default();
    let elapsed = c.run_for(args.window(), &mut tally);
    emit_window(&mut report, &tally, elapsed);
    let writes = tally.sorted(&Kind::WRITES);
    emit_p50_p95(&mut report, "write_p50_us", "write_p95_us", &writes);
    report.set_n(
        "checkpoint_ms",
        if c.checkpoint_ms.is_empty() {
            0.0
        } else {
            median_f64(&c.checkpoint_ms)
        },
        Some(c.checkpoint_ms.len()),
    );

    // Leave exactly 1 000 mutations for the reopen to replay (the window
    // left fewer than one checkpoint interval).
    while c.uncheckpointed < UNCHECKPOINTED_AT_REOPEN && c.next < ops.len() {
        if matches!(ops[c.next], Op::Read(_)) {
            c.next += 1;
        } else {
            c.step(&mut off, &mut tally, &mut PassCounts::default(), false);
        }
    }
    c.idx.flush_wal().expect("flush the WAL");
    let user_bytes: usize = c.truth.live().iter().map(|(_, u)| encoded_len(u)).sum();

    report.set(
        "stored_bytes_per_user_byte",
        files.bytes() as f64 / user_bytes as f64,
    );

    let Client { idx, truth, .. } = c;
    drop(idx);
    let mut recovery_secs = Vec::new();
    let mut reopened = None;
    for _ in 0..REOPENS {
        drop(reopened.take());
        let started = Instant::now();
        let (idx, recovery): (Index, _) =
            DurableIndex::open(files.storage(false), config()).expect("reopen the index");
        recovery_secs.push(started.elapsed().as_secs_f64());
        tally.attempted += 1;
        tally.failed += u64::from(recovery.replayed_records != UNCHECKPOINTED_AT_REOPEN);
        reopened = Some(idx);
    }
    report.set_n(
        "recovery_s",
        median_f64(&recovery_secs),
        Some(recovery_secs.len()),
    );
    let (checks, wrong) = verify_reopened(reopened.as_mut().expect("reopened"), &truth);
    tally.attempted += checks;
    tally.failed += wrong;
    drop(reopened);

    if args.trace {
        emit_tail(&mut report, &tally);
        // No admission gate in front of a DurableIndex.
        report.set("service.admission.waits_per_kop", 0.0);
        report.set("service.admission.rejects_per_kop", 0.0);

        // The passes replay the sequence from its start, each on a
        // freshly set-up index: a write cannot be applied twice.
        let n = TRACED_OPS.min(ops.len());
        let pass = |rec: &mut Recorder, tally: &mut Tally| {
            let mut c = client(set_up(&files, preload, args.seed));
            let mut counts = PassCounts::default();
            let wal_before = std::fs::metadata(&files.wal).map_or(0, |m| m.len());
            for _ in 0..n {
                c.step(rec, tally, &mut counts, true);
            }
            c.idx.flush_wal().expect("flush the WAL");
            let wal_after = std::fs::metadata(&files.wal).map_or(0, |m| m.len());
            counts.wal_bytes = wal_after.saturating_sub(wal_before);
            c.checkpoint(rec);
            counts
        };
        let untraced = pass(&mut off, &mut tally);
        let mut rec = Recorder::enabled();
        let traced = pass(&mut rec, &mut tally);
        traced.emit(&mut report);
        report.set("trace.overhead_pct", trace_overhead_pct(&untraced, &traced));
        let (checked, wrong) = probes::run(args, &mut rec, &mut report);
        tally.attempted += checked;
        tally.failed += wrong;
        let path = args.out_dir.join("ingest_mix.trace.jsonl");
        rec.write_jsonl(&path).expect("write the trace");
        eprintln!(
            "ingest_mix: {} spans in {}",
            rec.span_count(),
            path.display()
        );
    }
    report.set(
        "fail_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    report.set("peak_rss_mb", peak_rss_mb());
    files.remove();
    report.finish(tally.attempted, tally.failed, true)
}
