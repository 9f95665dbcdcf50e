//! Latency tracing: per-query span trees and mergeable latency histograms.
//!
//! The counter layer ([`crate::QueryMetrics`]) answers *how much work* a
//! query did; this module answers *where the time went*. It is built from
//! three pieces, all dependency-free:
//!
//! * [`Clock`] — a nanosecond time source. [`MonotonicClock`] wraps
//!   `std::time::Instant`; [`FakeClock`] is a deterministic counter so
//!   tier-1 tests can pin exact span shapes without ever asserting on real
//!   wall-clock durations.
//! * [`Span`]s — one record per traced phase ([`Phase`]), carrying a
//!   parent link so the records of one query form a tree (plan → posting
//!   scan → verification, …). Recording is two clock reads and one `Vec`
//!   push per span.
//! * [`LatencyHistogram`] — log₂-bucketed durations with p50/p95/p99/max.
//!   Histograms merge by field-wise addition, so per-worker histograms
//!   from a parallel batch sum *exactly* to the batch histogram, the same
//!   additivity contract `QueryMetrics` counters obey.
//!
//! The whole subsystem is opt-in per query: a disabled [`Tracer`] is a
//! single `None` check on every instrumentation point — no clock read, no
//! allocation, no counter update (see `docs/METRICS.md`, "Timing").

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic nanosecond time source.
///
/// Shared behind `Arc<dyn Clock>` so one clock can time every pool and
/// worker of a batch on a common origin.
pub trait Clock: Send + Sync {
    /// Nanoseconds since the clock's origin. Must never decrease.
    fn now_ns(&self) -> u64;
}

/// Real time: nanoseconds since the clock was created
/// (`std::time::Instant` underneath, so it is monotonic).
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Deterministic clock for tests: time advances only when told to, or by
/// a fixed step per reading (`auto_step`), never by wall time. Atomic so
/// one instance can serve parallel workers.
#[derive(Debug, Default)]
pub struct FakeClock {
    now: AtomicU64,
    auto_step: u64,
}

impl FakeClock {
    /// A clock stuck at 0 until advanced.
    pub fn new() -> FakeClock {
        FakeClock::default()
    }

    /// A clock that advances itself by `step_ns` on every reading — every
    /// traced interval then has a positive, reproducible duration.
    pub fn auto(step_ns: u64) -> FakeClock {
        FakeClock {
            now: AtomicU64::new(0),
            auto_step: step_ns,
        }
    }

    /// Advance the clock by `ns`.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for FakeClock {
    fn now_ns(&self) -> u64 {
        self.now.fetch_add(self.auto_step, Ordering::Relaxed)
    }
}

/// The traced execution phases. One query produces a tree of these, rooted
/// at [`Phase::Query`] (or [`Phase::Mutation`] on the durable write path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Phase {
    /// Root span of a read query.
    Query,
    /// Query preparation: opening posting cursors, seeding frontiers.
    Plan,
    /// Sequential posting-list consumption (brute / row / column pruning).
    PostingScan,
    /// Sorted-frontier upkeep in highest-prob-first drains.
    FrontierMaintenance,
    /// The NRA drain loop: bound maintenance and candidate sweeps.
    NraDrain,
    /// Random-access candidate verification against the tuple heap.
    Verification,
    /// Probing one side of a join for one outer tuple/pair.
    JoinProbe,
    /// PDR-tree node traversal (threshold or best-first).
    TreeTraversal,
    /// Full tuple-heap scan (KL's DSTQ plan, or the one scan that fills
    /// an inverted index's norm column).
    HeapScan,
    /// Root span of a durable mutation (insert/delete).
    Mutation,
    /// Checkpoint: writing and syncing the redo journal.
    CheckpointJournal,
    /// Checkpoint: installing dirty pages into the durable store.
    CheckpointInstall,
    /// Checkpoint: committing the snapshot.
    CheckpointCommit,
    /// Checkpoint: WAL reset and epoch roll.
    CheckpointReset,
}

impl Phase {
    /// Stable display name (used by the tree renderer and Chrome export).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Query => "query",
            Phase::Plan => "plan",
            Phase::PostingScan => "posting_scan",
            Phase::FrontierMaintenance => "frontier_maintenance",
            Phase::NraDrain => "nra_drain",
            Phase::Verification => "verification",
            Phase::JoinProbe => "join_probe",
            Phase::TreeTraversal => "tree_traversal",
            Phase::HeapScan => "heap_scan",
            Phase::Mutation => "mutation",
            Phase::CheckpointJournal => "checkpoint_journal",
            Phase::CheckpointInstall => "checkpoint_install",
            Phase::CheckpointCommit => "checkpoint_commit",
            Phase::CheckpointReset => "checkpoint_reset",
        }
    }
}

/// Handle to an open span. [`SpanId::NONE`] is the disabled-tracer
/// sentinel: ending it is a no-op, so instrumentation points never need
/// to branch on whether tracing is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The "no span" sentinel returned by a disabled tracer.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// One recorded phase interval. `parent` is the index of the enclosing
/// span in [`QueryTrace::spans`] (`u32::MAX` for a root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was being done.
    pub phase: Phase,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Start time, clock nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 until the span is ended).
    pub dur_ns: u64,
}

impl Span {
    /// Whether this span has no parent.
    pub fn is_root(&self) -> bool {
        self.parent == u32::MAX
    }
}

/// Number of log₂ buckets in a [`LatencyHistogram`]: bucket `i` holds
/// durations whose bit length is `i`, i.e. `[2^(i-1), 2^i)` ns for
/// `i ≥ 1` and the single value 0 for bucket 0. 64 buckets cover the full
/// `u64` nanosecond range (≈ 584 years), so recording can never overflow
/// into a sentinel bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A mergeable latency histogram with power-of-two nanosecond buckets.
///
/// Quantile estimates return the *upper edge* of the bucket holding the
/// requested rank, so an estimate is never below the true quantile and
/// overshoots by less than the bucket width (a factor of 2). `max` and
/// `sum`/`count` are exact. Merging adds every field; it is associative
/// and commutative, so any grouping of per-worker histograms produces the
/// identical batch histogram.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// The bucket index a duration falls into (its bit length).
    pub fn bucket_of(ns: u64) -> usize {
        (u64::BITS - ns.leading_zeros()) as usize
    }

    /// Inclusive upper edge of bucket `i` in nanoseconds.
    pub fn bucket_upper(i: usize) -> u64 {
        if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns).min(HISTOGRAM_BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded durations (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Exact maximum recorded duration (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Upper-edge estimate of quantile `q` in `[0, 1]`. Returns 0 for an
    /// empty histogram. The estimate is ≥ the exact quantile and within
    /// the containing bucket's width of it; the top bucket reports the
    /// exact max instead of its open upper edge.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median estimate (upper-edge, see [`quantile_ns`](Self::quantile_ns)).
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Field-wise merge: `self` becomes the histogram of both inputs'
    /// samples. Associative and commutative.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Per-bucket counts (index = bit length of the duration).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }
}

/// The boundary-crossing histograms a trace collects alongside its spans:
/// each buffer-pool physical read/write and each WAL append/fsync is one
/// sample. Merging is field-wise, like [`crate::QueryMetrics::merge`].
#[derive(Debug, Clone, Default)]
pub struct TraceHistograms {
    /// Buffer-pool operations that performed ≥ 1 physical page read.
    pub buffer_read: LatencyHistogram,
    /// Buffer-pool operations that performed ≥ 1 physical page write
    /// (eviction write-back or flush).
    pub buffer_write: LatencyHistogram,
    /// WAL appends (group commit included; an append that triggered an
    /// fsync carries the fsync time).
    pub wal_append: LatencyHistogram,
    /// WAL appends/flushes that performed a durable sync. The sampled
    /// duration is the whole append call, so `wal_fsync` isolates *which*
    /// operations paid for a sync, not sync time net of buffering.
    pub wal_fsync: LatencyHistogram,
}

impl TraceHistograms {
    /// Merge another trace's histograms into this one (field-wise).
    pub fn merge(&mut self, other: &TraceHistograms) {
        self.buffer_read.merge(&other.buffer_read);
        self.buffer_write.merge(&other.buffer_write);
        self.wal_append.merge(&other.wal_append);
        self.wal_fsync.merge(&other.wal_fsync);
    }

    /// Total nanoseconds spent in buffer-pool physical I/O (reads +
    /// writes): the time the span tree must account for.
    pub fn io_total_ns(&self) -> u64 {
        self.buffer_read
            .sum_ns()
            .saturating_add(self.buffer_write.sum_ns())
    }

    /// Named views of the four histograms, display order.
    pub fn named(&self) -> [(&'static str, &LatencyHistogram); 4] {
        [
            ("buffer_read", &self.buffer_read),
            ("buffer_write", &self.buffer_write),
            ("wal_append", &self.wal_append),
            ("wal_fsync", &self.wal_fsync),
        ]
    }
}

/// Live recording state: only exists while a tracer is enabled, so the
/// disabled path carries one machine word.
#[derive(Debug)]
struct TraceState {
    clock: Arc<dyn Clock>,
    spans: Vec<Span>,
    stack: Vec<u32>,
    hist: TraceHistograms,
}

impl std::fmt::Debug for dyn Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Clock")
    }
}

/// Per-query span/histogram recorder. Disabled by default; every method
/// on a disabled tracer is a branch on `None` and nothing else — no clock
/// read, no allocation (the zero-overhead contract, tested in
/// `trace::tests` and `tests/trace.rs`).
#[derive(Debug, Default)]
pub struct Tracer {
    state: Option<Box<TraceState>>,
}

impl Tracer {
    /// A disabled tracer (the default for every pool).
    pub fn disabled() -> Tracer {
        Tracer { state: None }
    }

    /// An enabled tracer recording against `clock`.
    pub fn enabled(clock: Arc<dyn Clock>) -> Tracer {
        Tracer {
            state: Some(Box::new(TraceState {
                clock,
                spans: Vec::new(),
                stack: Vec::new(),
                hist: TraceHistograms::default(),
            })),
        }
    }

    /// Whether spans and histograms are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Open a span of `phase` under the innermost open span.
    pub fn begin(&mut self, phase: Phase) -> SpanId {
        let Some(state) = self.state.as_deref_mut() else {
            return SpanId::NONE;
        };
        let parent = state.stack.last().copied().unwrap_or(u32::MAX);
        let id = state.spans.len() as u32;
        state.spans.push(Span {
            phase,
            parent,
            start_ns: state.clock.now_ns(),
            dur_ns: 0,
        });
        state.stack.push(id);
        SpanId(id)
    }

    /// Close span `id` (and any spans opened inside it and not yet
    /// closed). A [`SpanId::NONE`] is ignored, as is an id that was
    /// already closed.
    pub fn end(&mut self, id: SpanId) {
        let Some(state) = self.state.as_deref_mut() else {
            return;
        };
        if id == SpanId::NONE {
            return;
        }
        let Some(pos) = state.stack.iter().rposition(|&s| s == id.0) else {
            return;
        };
        let now = state.clock.now_ns();
        // Closing an outer span force-closes unclosed inner ones at the
        // same instant, keeping the tree well-nested on early return.
        for &open in &state.stack[pos..] {
            let span = &mut state.spans[open as usize];
            span.dur_ns = now.saturating_sub(span.start_ns);
        }
        state.stack.truncate(pos);
    }

    /// The current clock reading, or `None` when disabled. Call sites
    /// timing a foreign operation (a WAL append) bracket it with two
    /// `now_ns` calls and feed [`record_wal`](Self::record_wal).
    pub fn now_ns(&self) -> Option<u64> {
        self.state.as_deref().map(|s| s.clock.now_ns())
    }

    /// Record a buffer-pool operation that performed physical I/O.
    pub fn record_io(&mut self, dur_ns: u64, read: bool, write: bool) {
        if let Some(state) = self.state.as_deref_mut() {
            if read {
                state.hist.buffer_read.record(dur_ns);
            }
            if write {
                state.hist.buffer_write.record(dur_ns);
            }
        }
    }

    /// Record a WAL append; `synced` marks the appends that performed a
    /// durable sync (group-commit leaders).
    pub fn record_wal(&mut self, dur_ns: u64, synced: bool) {
        if let Some(state) = self.state.as_deref_mut() {
            state.hist.wal_append.record(dur_ns);
            if synced {
                state.hist.wal_fsync.record(dur_ns);
            }
        }
    }

    /// Record a standalone WAL sync (an explicit flush with no append).
    pub fn record_wal_sync(&mut self, dur_ns: u64) {
        if let Some(state) = self.state.as_deref_mut() {
            state.hist.wal_fsync.record(dur_ns);
        }
    }

    /// Finish recording: close any open spans and return the trace,
    /// leaving the tracer disabled. `None` if the tracer was disabled.
    pub fn take(&mut self) -> Option<QueryTrace> {
        let mut state = self.state.take()?;
        if !state.stack.is_empty() {
            let now = state.clock.now_ns();
            for &open in &state.stack {
                let span = &mut state.spans[open as usize];
                span.dur_ns = now.saturating_sub(span.start_ns);
            }
            state.stack.clear();
        }
        Some(QueryTrace {
            spans: state.spans,
            hist: state.hist,
        })
    }
}

/// The finished trace of one query: a span tree plus the I/O and WAL
/// latency histograms collected while it ran.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// Recorded spans; a span's `parent` indexes into this vector.
    pub spans: Vec<Span>,
    /// Boundary-crossing latency histograms.
    pub hist: TraceHistograms,
}

impl QueryTrace {
    /// Total traced time: the summed duration of root spans.
    pub fn total_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.is_root())
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Self time of span `i`: its duration minus its children's.
    pub fn self_ns(&self, i: usize) -> u64 {
        let child_total: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent as usize == i)
            .map(|s| s.dur_ns)
            .sum();
        self.spans[i].dur_ns.saturating_sub(child_total)
    }

    /// Merge another trace into this one: spans are appended (parent
    /// links re-based) and histograms added. Used to fold per-worker
    /// traces into a batch trace.
    pub fn merge(&mut self, other: &QueryTrace) {
        let base = self.spans.len() as u32;
        for s in &other.spans {
            let mut s = *s;
            if s.parent != u32::MAX {
                s.parent += base;
            }
            self.spans.push(s);
        }
        self.hist.merge(&other.hist);
    }

    /// Render the span tree, one line per span with total and self time,
    /// followed by the histogram summary. The tree is indented by depth;
    /// sibling order is recording order.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.is_root() {
                roots.push(i);
            } else {
                children[s.parent as usize].push(i);
            }
        }
        let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&r| (r, 0)).collect();
        while let Some((i, depth)) = stack.pop() {
            let s = &self.spans[i];
            let _ = writeln!(
                out,
                "{:indent$}{:<22} total {:>12}  self {:>12}",
                "",
                s.phase.name(),
                fmt_ns(s.dur_ns),
                fmt_ns(self.self_ns(i)),
                indent = depth * 2,
            );
            for &c in children[i].iter().rev() {
                stack.push((c, depth + 1));
            }
        }
        let io = self.hist.io_total_ns();
        let _ = writeln!(
            out,
            "traced total {}  buffer-pool i/o {}",
            fmt_ns(self.total_ns()),
            fmt_ns(io)
        );
        for (name, h) in self.hist.named() {
            if h.count() > 0 {
                let _ = writeln!(
                    out,
                    "  {:<12} n={:<6} p50 {:>10} p95 {:>10} p99 {:>10} max {:>10}",
                    name,
                    h.count(),
                    fmt_ns(h.p50_ns()),
                    fmt_ns(h.p95_ns()),
                    fmt_ns(h.p99_ns()),
                    fmt_ns(h.max_ns())
                );
            }
        }
        out
    }

    /// Serialize as a Chrome trace-event JSON array (`chrome://tracing`,
    /// Perfetto): complete events (`"ph":"X"`) with microsecond
    /// timestamps.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.is_root() { -1 } else { s.parent as i64 };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"uncat\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":{{\"span\":{},\"parent\":{}}}}}",
                s.phase.name(),
                s.start_ns as f64 / 1000.0,
                s.dur_ns as f64 / 1000.0,
                i,
                parent,
            );
        }
        out.push(']');
        out
    }
}

/// Human-readable nanosecond count (`999ns`, `12.3µs`, `4.56ms`, `1.23s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fake_clock_is_deterministic() {
        let c = FakeClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(5);
        assert_eq!(c.now_ns(), 5);
        let auto = FakeClock::auto(10);
        assert_eq!(auto.now_ns(), 0);
        assert_eq!(auto.now_ns(), 10);
        assert_eq!(auto.now_ns(), 20);
    }

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(1023), 10);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), 64 - 1 + 1);
    }

    #[test]
    fn quantiles_bound_exact_values_within_bucket_width() {
        let mut h = LatencyHistogram::new();
        let mut vals: Vec<u64> = (1..=1000u64).map(|i| i * 7 + 3).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.5, 0.95, 0.99] {
            let exact = vals[((q * vals.len() as f64).ceil() as usize).max(1) - 1];
            let est = h.quantile_ns(q);
            assert!(est >= exact, "q={q}: estimate {est} < exact {exact}");
            assert!(
                est < exact.saturating_mul(2).max(2),
                "q={q}: estimate {est} ≥ 2×exact {exact}"
            );
        }
        assert_eq!(h.max_ns(), *vals.last().unwrap());
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn merge_equals_recording_all_samples_in_one_histogram() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for i in 0..500u64 {
            let v = i * i % 10_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.buckets(), both.buckets());
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum_ns(), both.sum_ns());
        assert_eq!(a.max_ns(), both.max_ns());
        assert_eq!(a.p99_ns(), both.p99_ns());
    }

    #[test]
    fn span_tree_nests_and_self_times_add_up() {
        let clock = Arc::new(FakeClock::new());
        let mut t = Tracer::enabled(clock.clone());
        let root = t.begin(Phase::Query);
        clock.advance(10);
        let plan = t.begin(Phase::Plan);
        clock.advance(30);
        t.end(plan);
        let scan = t.begin(Phase::PostingScan);
        clock.advance(50);
        t.end(scan);
        clock.advance(10);
        t.end(root);
        let trace = t.take().unwrap();
        assert!(!t.is_enabled());
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[0].phase, Phase::Query);
        assert!(trace.spans[0].is_root());
        assert_eq!(trace.spans[1].parent, 0);
        assert_eq!(trace.spans[2].parent, 0);
        assert_eq!(trace.spans[0].dur_ns, 100);
        assert_eq!(trace.spans[1].dur_ns, 30);
        assert_eq!(trace.spans[2].dur_ns, 50);
        assert_eq!(trace.self_ns(0), 20);
        // Children's totals plus the parent's self time equal the total.
        assert_eq!(trace.total_ns(), 100);
    }

    #[test]
    fn ending_an_outer_span_closes_inner_spans() {
        let clock = Arc::new(FakeClock::new());
        let mut t = Tracer::enabled(clock.clone());
        let root = t.begin(Phase::Query);
        let inner = t.begin(Phase::Verification);
        clock.advance(40);
        t.end(root); // inner never explicitly ended
        let trace = t.take().unwrap();
        assert_eq!(trace.spans[1].dur_ns, 40);
        assert_eq!(trace.spans[0].dur_ns, 40);
        let _ = inner;
    }

    #[test]
    fn disabled_tracer_records_nothing_and_allocates_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(std::mem::size_of::<Tracer>(), std::mem::size_of::<usize>());
        let id = t.begin(Phase::Query);
        assert_eq!(id, SpanId::NONE);
        t.record_io(100, true, false);
        t.record_wal(100, true);
        t.end(id);
        assert!(t.now_ns().is_none());
        assert!(t.take().is_none());
    }

    #[test]
    fn trace_merge_rebases_parents_and_sums_histograms() {
        let clock = Arc::new(FakeClock::auto(1));
        let mut t1 = Tracer::enabled(clock.clone());
        let r = t1.begin(Phase::Query);
        let c = t1.begin(Phase::Plan);
        t1.end(c);
        t1.end(r);
        t1.record_io(10, true, false);
        let mut trace = t1.take().unwrap();

        let mut t2 = Tracer::enabled(clock);
        let r2 = t2.begin(Phase::Query);
        t2.end(r2);
        t2.record_io(20, true, true);
        let other = t2.take().unwrap();

        trace.merge(&other);
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[2].parent, u32::MAX);
        assert_eq!(trace.hist.buffer_read.count(), 2);
        assert_eq!(trace.hist.buffer_write.count(), 1);
        assert_eq!(trace.hist.io_total_ns(), 50);
    }

    #[test]
    fn render_and_chrome_export_cover_every_span() {
        let clock = Arc::new(FakeClock::auto(100));
        let mut t = Tracer::enabled(clock);
        let r = t.begin(Phase::Query);
        let v = t.begin(Phase::Verification);
        t.end(v);
        t.end(r);
        t.record_io(64, true, false);
        let trace = t.take().unwrap();
        let tree = trace.render_tree();
        assert!(tree.contains("query"));
        assert!(tree.contains("verification"));
        assert!(tree.contains("buffer_read"));
        let json = trace.to_chrome_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"verification\""));
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
