//! Wall-clock latency sweep → the `BENCH_latency.json` artifact.
//!
//! The figure harness measures *I/O counts* (deterministic, what the
//! paper plots); this module measures *time*. Every (backend, strategy,
//! query-kind) combination runs the same calibrated CRM1 workload,
//! each query against a fresh [`QUERY_FRAMES`]-frame pool (the paper's
//! per-query model), and records per-query wall time into a
//! [`LatencyHistogram`] — the same log₂-bucketed, mergeable histogram
//! the tracer uses, so the artifact's quantile semantics match
//! `docs/METRICS.md` (reported quantile ≥ exact, < 2× exact).
//!
//! The artifact is schema-versioned ([`LATENCY_SCHEMA_VERSION`]) and
//! re-validated by [`validate_report`]; CI runs the sweep at quick
//! scale on every push and fails if the schema or the quantile
//! monotonicity invariant (p50 ≤ p95 ≤ p99 ≤ max) regresses. Absolute
//! numbers are machine-dependent and deliberately *not* asserted.

use uncat_core::query::{EqQuery, TopKQuery};
use uncat_datagen::crm;
use uncat_datagen::workload::{make_workload, queries_from_data, CalibratedQuery, SELECTIVITIES};
use uncat_inverted::Strategy;
use uncat_pdrtree::PdrConfig;
use uncat_query::UncertainIndex;
use uncat_storage::trace::{Clock, LatencyHistogram, MonotonicClock};
use uncat_storage::{BufferPool, SharedStore};

use crate::error::{BenchError, BenchResult};
use crate::json::Json;
use crate::measure::{build_inverted, build_pdr, Scale, QUERY_FRAMES};

/// Version of the `BENCH_latency.json` schema. Bump on any change to
/// the field set or semantics.
pub const LATENCY_SCHEMA_VERSION: u64 = 1;

/// How many passes over the calibrated query set each combination runs
/// (more samples per histogram than one pass would give).
const ROUNDS: usize = 3;

/// One (backend, strategy, query-kind) cell of the sweep.
#[derive(Debug)]
pub struct LatencyRun {
    /// `"inverted"` or `"pdr"`.
    pub backend: &'static str,
    /// Inverted search strategy name, or `"tree"` for the PDR-tree.
    pub strategy: &'static str,
    /// `"petq"` (threshold) or `"topk"`.
    pub kind: &'static str,
    /// `"private"` (the paper's fresh pool per query — cold reads every
    /// time) or `"shared"` (one pool reused across the cell — warm).
    pub pool: &'static str,
    /// Per-query wall times.
    pub hist: LatencyHistogram,
}

/// The whole sweep, ready to serialize.
#[derive(Debug)]
pub struct LatencyReport {
    /// Dataset identifier (always CRM1 today).
    pub dataset: &'static str,
    /// Tuples in the dataset.
    pub tuples: usize,
    /// Distinct calibrated queries per pass.
    pub queries: usize,
    /// Passes over the query set per cell.
    pub rounds: usize,
    /// One entry per (backend, strategy, kind).
    pub runs: Vec<LatencyRun>,
}

/// Run the latency sweep at the given scale.
pub fn latency_sweep(scale: &Scale) -> BenchResult<LatencyReport> {
    let (domain, data) = crm::crm1(scale.crm_n, scale.seed);
    let queries = queries_from_data(&data, scale.queries, scale.seed ^ 0xBEEF);
    let workload = make_workload(&data, &queries, &SELECTIVITIES);
    let flat: Vec<&CalibratedQuery> = workload.iter().flat_map(|(_, qs)| qs.iter()).collect();
    if flat.is_empty() {
        return Err(BenchError::Empty {
            what: "latency-sweep calibration",
        });
    }
    let clock = MonotonicClock::new();

    let mut runs = Vec::new();
    for strat in Strategy::ALL {
        let (inv, store) = build_inverted(&domain, &data, strat)?;
        for kind in ["petq", "topk"] {
            for pool in ["private", "shared"] {
                runs.push(time_cell(
                    "inverted",
                    strat.name(),
                    kind,
                    pool,
                    &inv,
                    &store,
                    &flat,
                    &clock,
                )?);
            }
        }
    }
    let (pdr, store) = build_pdr(&domain, &data, PdrConfig::default())?;
    for kind in ["petq", "topk"] {
        for pool in ["private", "shared"] {
            runs.push(time_cell(
                "pdr", "tree", kind, pool, &pdr, &store, &flat, &clock,
            )?);
        }
    }

    Ok(LatencyReport {
        dataset: "crm1",
        tuples: data.len(),
        queries: flat.len(),
        rounds: ROUNDS,
        runs,
    })
}

#[allow(clippy::too_many_arguments)]
fn time_cell(
    backend: &'static str,
    strategy: &'static str,
    kind: &'static str,
    pool_mode: &'static str,
    index: &impl UncertainIndex,
    store: &SharedStore,
    queries: &[&CalibratedQuery],
    clock: &MonotonicClock,
) -> BenchResult<LatencyRun> {
    let mut hist = LatencyHistogram::new();
    // Shared mode reuses one pool across the whole cell, so repeated
    // pages stay warm; private mode is the paper's cold fresh pool per
    // query. The time difference between the two is the cache's worth
    // in wall-clock terms.
    let mut shared_pool = BufferPool::with_capacity(store.clone(), QUERY_FRAMES);
    for _ in 0..ROUNDS {
        for cq in queries {
            let mut private_pool;
            let pool = if pool_mode == "shared" {
                &mut shared_pool
            } else {
                private_pool = BufferPool::with_capacity(store.clone(), QUERY_FRAMES);
                &mut private_pool
            };
            let t0 = clock.now_ns();
            match kind {
                "petq" => {
                    index
                        .petq(pool, &EqQuery::new(cq.q.clone(), cq.tau))
                        .map_err(BenchError::storage("latency petq probe"))?;
                }
                _ => {
                    index
                        .top_k(pool, &TopKQuery::new(cq.q.clone(), cq.k))
                        .map_err(BenchError::storage("latency top-k probe"))?;
                }
            }
            hist.record(clock.now_ns().saturating_sub(t0));
        }
    }
    Ok(LatencyRun {
        backend,
        strategy,
        kind,
        pool: pool_mode,
        hist,
    })
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Serialize a report to the schema-versioned JSON artifact shape.
pub fn report_to_json(report: &LatencyReport) -> Json {
    let runs = report
        .runs
        .iter()
        .map(|run| {
            Json::Obj(vec![
                ("backend".into(), Json::Str(run.backend.into())),
                ("strategy".into(), Json::Str(run.strategy.into())),
                ("kind".into(), Json::Str(run.kind.into())),
                ("pool".into(), Json::Str(run.pool.into())),
                ("count".into(), Json::Num(run.hist.count() as f64)),
                ("mean_us".into(), Json::Num(run.hist.mean_ns() / 1_000.0)),
                ("p50_us".into(), Json::Num(us(run.hist.p50_ns()))),
                ("p95_us".into(), Json::Num(us(run.hist.p95_ns()))),
                ("p99_us".into(), Json::Num(us(run.hist.p99_ns()))),
                ("max_us".into(), Json::Num(us(run.hist.max_ns()))),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "schema_version".into(),
            Json::Num(LATENCY_SCHEMA_VERSION as f64),
        ),
        ("dataset".into(), Json::Str(report.dataset.into())),
        ("tuples".into(), Json::Num(report.tuples as f64)),
        ("queries".into(), Json::Num(report.queries as f64)),
        ("rounds".into(), Json::Num(report.rounds as f64)),
        ("runs".into(), Json::Arr(runs)),
    ])
}

/// Validate a parsed `BENCH_latency.json` document against the schema:
/// version match, required keys, positive sample counts, quantile
/// monotonicity (p50 ≤ p95 ≤ p99 ≤ max), and coverage of both backends.
pub fn validate_report(doc: &Json) -> BenchResult<()> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or_else(|| BenchError::schema("missing schema_version"))?;
    if version != LATENCY_SCHEMA_VERSION as f64 {
        return Err(BenchError::schema(format!(
            "schema_version {version} != {LATENCY_SCHEMA_VERSION}"
        )));
    }
    for key in ["dataset", "tuples", "queries", "rounds"] {
        if doc.get(key).is_none() {
            return Err(BenchError::schema(format!("missing top-level key {key:?}")));
        }
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| BenchError::schema("missing runs array"))?;
    if runs.is_empty() {
        return Err(BenchError::schema("runs array is empty"));
    }
    let mut saw_inverted = false;
    let mut saw_pdr = false;
    for (i, run) in runs.iter().enumerate() {
        for key in ["strategy", "kind", "pool"] {
            if run.get(key).and_then(Json::as_str).is_none() {
                return Err(BenchError::schema(format!("run {i}: missing {key:?}")));
            }
        }
        match run.get("backend").and_then(Json::as_str) {
            Some("inverted") => saw_inverted = true,
            Some("pdr") => saw_pdr = true,
            other => {
                return Err(BenchError::schema(format!(
                    "run {i}: bad backend {other:?}"
                )))
            }
        }
        let num = |key: &str| -> BenchResult<f64> {
            run.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| BenchError::schema(format!("run {i}: missing number {key:?}")))
        };
        if num("count")? <= 0.0 {
            return Err(BenchError::schema(format!("run {i}: count must be > 0")));
        }
        num("mean_us")?;
        let (p50, p95, p99, max) = (
            num("p50_us")?,
            num("p95_us")?,
            num("p99_us")?,
            num("max_us")?,
        );
        if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
            return Err(BenchError::schema(format!(
                "run {i}: quantiles not monotone (p50={p50} p95={p95} p99={p99} max={max})"
            )));
        }
    }
    if !saw_inverted || !saw_pdr {
        return Err(BenchError::schema(
            "runs must cover both the inverted and pdr backends",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structural only: a synthetic report must serialize to a document
    /// its own validator accepts, and survive a parse round trip. No
    /// wall-clock numbers are asserted (tier-1 stays deterministic).
    #[test]
    fn synthetic_report_roundtrips_and_validates() {
        let mut h = LatencyHistogram::new();
        for ns in [100, 200, 400, 800, 10_000] {
            h.record(ns);
        }
        let report = LatencyReport {
            dataset: "crm1",
            tuples: 10,
            queries: 5,
            rounds: 1,
            runs: vec![
                LatencyRun {
                    backend: "inverted",
                    strategy: "nra",
                    kind: "petq",
                    pool: "private",
                    hist: h.clone(),
                },
                LatencyRun {
                    backend: "pdr",
                    strategy: "tree",
                    kind: "topk",
                    pool: "shared",
                    hist: h,
                },
            ],
        };
        let doc = report_to_json(&report);
        validate_report(&doc).expect("own artifact validates");
        let reparsed = Json::parse(&doc.render_pretty()).expect("parse artifact");
        validate_report(&reparsed).expect("reparsed artifact validates");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let ok = report_to_json(&LatencyReport {
            dataset: "crm1",
            tuples: 1,
            queries: 1,
            rounds: 1,
            runs: vec![LatencyRun {
                backend: "inverted",
                strategy: "nra",
                kind: "petq",
                pool: "private",
                hist: {
                    let mut h = LatencyHistogram::new();
                    h.record(1);
                    h
                },
            }],
        });
        // Missing the pdr backend.
        assert!(validate_report(&ok).is_err());

        // Wrong version.
        let mut wrong = ok.clone();
        if let Json::Obj(fields) = &mut wrong {
            fields[0].1 = Json::Num(999.0);
        }
        assert!(matches!(
            validate_report(&wrong),
            Err(BenchError::Schema { .. })
        ));

        // Non-monotone quantiles.
        let text = r#"{"schema_version":1,"dataset":"x","tuples":1,"queries":1,"rounds":1,
            "runs":[{"backend":"inverted","strategy":"nra","kind":"petq","pool":"private",
                     "count":1,"mean_us":1,"p50_us":9,"p95_us":2,"p99_us":3,"max_us":4},
                    {"backend":"pdr","strategy":"tree","kind":"petq","pool":"private",
                     "count":1,"mean_us":1,"p50_us":1,"p95_us":2,"p99_us":3,"max_us":4}]}"#;
        let doc = Json::parse(text).unwrap();
        assert!(validate_report(&doc).is_err());
    }
}
