//! What both runners (service workloads, `ingest_mix`) share: the run's
//! arguments, per-kind latency tallies, and the counters of a traced pass.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::adapter::QueryMetrics;
use crate::report::Report;
use crate::stats::{quantile, supported};
use crate::workload::Kind;

pub struct RunArgs {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Ten times less data and a short warm-up, for smoke runs.
    pub quick: bool,
    /// `benchmark/out`: page files, WAL, traces.
    pub out_dir: PathBuf,
}

impl RunArgs {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    pub fn warm_up(&self) -> Duration {
        Duration::from_secs_f64(if self.quick { 0.3 } else { 1.0 })
    }

    pub fn scale(&self, tuples: usize) -> usize {
        if self.quick {
            tuples / 10
        } else {
            tuples
        }
    }

    /// Set up at least three times (a traced or quick run: once), and
    /// keep going for up to a second or fifteen times when set-up is
    /// quick, because a 20 ms build is the noisiest thing measured here.
    /// Returns the median in seconds, the count, and the last instance;
    /// each instance is dropped before the next is built.
    pub fn timed_set_up<T>(&self, mut set_up: impl FnMut() -> T) -> (f64, usize, T) {
        let at_least = if self.trace || self.quick { 1 } else { 3 };
        let mut secs = Vec::new();
        let mut instance = None;
        let started = Instant::now();
        while secs.len() < at_least
            || (at_least > 1 && secs.len() < 15 && started.elapsed() < Duration::from_secs(1))
        {
            drop(instance.take());
            let rep = Instant::now();
            instance = Some(set_up());
            secs.push(rep.elapsed().as_secs_f64());
        }
        (
            crate::stats::median_f64(&secs),
            secs.len(),
            instance.expect("at least one set-up"),
        )
    }

    /// A file under `out_dir` that no concurrent run of another workload
    /// or seed shares.
    pub fn scratch(&self, what: &str) -> PathBuf {
        self.out_dir
            .join(format!("{}-{}-{what}", self.workload, self.seed))
    }
}

/// What one client measured: exact per-operation latencies by kind.
#[derive(Default)]
pub struct Tally {
    pub samples_ns: [Vec<u64>; Kind::COUNT],
    pub attempted: u64,
    /// Errors, admission rejects and wrong answers.
    pub failed: u64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        for (mine, theirs) in self.samples_ns.iter_mut().zip(other.samples_ns) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn correct_ops(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn sorted(&self, kinds: &[Kind]) -> Vec<u64> {
        let mut all: Vec<u64> = kinds
            .iter()
            .flat_map(|k| self.samples_ns[k.index()].iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

/// Report `sorted_ns`'s median and 95th percentile in microseconds under
/// the two names. Every run must print every metric, so a percentile
/// without ten samples beyond it is still printed, with a warning: the
/// workloads are sized so that a full-length run never takes this path.
pub fn emit_p50_p95(report: &mut Report, p50: &'static str, p95: &'static str, sorted_ns: &[u64]) {
    if sorted_ns.is_empty() {
        // The workload does not run this kind of operation.
        report.set_n(p50, 0.0, Some(0));
        report.set_n(p95, 0.0, Some(0));
        return;
    }
    if !supported(sorted_ns.len(), 0.95) {
        eprintln!(
            "warning: {p95} has {} samples, fewer than ten beyond the percentile",
            sorted_ns.len()
        );
    }
    let n = Some(sorted_ns.len());
    report.set_n(p50, quantile(sorted_ns, 0.5) as f64 / 1e3, n);
    report.set_n(p95, quantile(sorted_ns, 0.95) as f64 / 1e3, n);
}

/// The window's numbers every workload reports the same way: throughput
/// and per-kind latencies.
pub fn emit_window(report: &mut Report, tally: &Tally, elapsed_secs: f64) {
    report.set_n(
        "qps",
        tally.correct_ops() as f64 / elapsed_secs,
        Some(tally.correct_ops() as usize),
    );
    for (kind, p50, p95) in [
        (Kind::Petq, "petq_p50_us", "petq_p95_us"),
        (Kind::TopK, "topk_p50_us", "topk_p95_us"),
        (Kind::Dstq, "dstq_p50_us", "dstq_p95_us"),
    ] {
        emit_p50_p95(report, p50, p95, &tally.sorted(&[kind]));
    }
}

/// The ungated tail of the window over every kind of operation.
pub fn emit_tail(report: &mut Report, tally: &Tally) {
    let all = tally.sorted(&[Kind::READS, Kind::WRITES].concat());
    let n = Some(all.len());
    report.set_n(
        "service.service.p99_us",
        quantile(&all, 0.99) as f64 / 1e3,
        n,
    );
    report.set_n(
        "service.service.max_us",
        quantile(&all, 1.0) as f64 / 1e3,
        n,
    );
}

/// Counters summed over a traced pass. One client over a fixed
/// operation list, so everything but cache-dependent I/O repeats exactly.
#[derive(Default)]
pub struct PassCounts {
    pub ops: u64,
    pub matches: u64,
    pub metrics: QueryMetrics,
    pub writes: u64,
    pub wal_appends: u64,
    pub wal_fsyncs: u64,
    pub wal_bytes: u64,
    pub user_bytes_written: u64,
    /// Whole-iteration time per operation (call + check + tracing).
    pub op_ns: Vec<u64>,
}

impl PassCounts {
    pub fn emit(&self, report: &mut Report) {
        let m = &self.metrics;
        let per_op = |v: u64| v as f64 / self.ops.max(1) as f64;
        let per_match = |v: u64| v as f64 / self.matches.max(1) as f64;
        report.set(
            "storage.shared.logical_reads_per_op",
            per_op(m.io.logical_reads),
        );
        report.set(
            "storage.shared.physical_reads_per_op",
            per_op(m.io.physical_reads),
        );
        report.set("storage.shared.hit_rate", m.io.hit_ratio());
        report.set(
            "inverted.postings_scanned_per_op",
            per_op(m.postings_scanned),
        );
        report.set("inverted.blocks_decoded_per_op", per_op(m.blocks_decoded));
        report.set("inverted.blocks_skipped_per_op", per_op(m.blocks_skipped));
        report.set(
            "inverted.candidates_verified_per_op",
            per_op(m.candidates_verified),
        );
        report.set("inverted.postings_per_match", per_match(m.postings_scanned));
        report.set(
            "inverted.plan_fallbacks_per_kop",
            per_op(m.plan_fallbacks) * 1e3,
        );
        report.set("pdrtree.nodes_visited_per_op", per_op(m.nodes_visited));
        report.set("pdrtree.nodes_pruned_per_op", per_op(m.nodes_pruned));
        report.set(
            "pdrtree.leaf_entries_per_match",
            per_match(m.leaf_entries_examined),
        );
        let per_write = |v: u64| v as f64 / self.writes.max(1) as f64;
        report.set("storage.wal.appends_per_write", per_write(self.wal_appends));
        report.set("storage.wal.fsyncs_per_write", per_write(self.wal_fsyncs));
        report.set(
            "storage.wal.bytes_per_user_byte",
            self.wal_bytes as f64 / self.user_bytes_written.max(1) as f64,
        );
    }

    /// The counters a span carries for one call.
    pub fn span_counts(m: &QueryMetrics, matches: usize) -> [(&'static str, u64); 11] {
        [
            ("matches", matches as u64),
            ("logical_reads", m.io.logical_reads),
            ("physical_reads", m.io.physical_reads),
            ("postings_scanned", m.postings_scanned),
            ("blocks_decoded", m.blocks_decoded),
            ("blocks_skipped", m.blocks_skipped),
            ("candidates_verified", m.candidates_verified),
            ("plan_fallbacks", m.plan_fallbacks),
            ("nodes_visited", m.nodes_visited),
            ("nodes_pruned", m.nodes_pruned),
            ("leaf_entries_examined", m.leaf_entries_examined),
        ]
    }
}

/// `trace.overhead_pct`: how much dearer an operation's whole iteration
/// is with spans recorded, by the two passes' medians.
pub fn trace_overhead_pct(untraced: &PassCounts, traced: &PassCounts) -> f64 {
    let base = crate::stats::median_u64(&untraced.op_ns);
    (crate::stats::median_u64(&traced.op_ns) - base) / base * 100.0
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
