//! The benchmark checked against its own contract: the committed
//! `BENCHMARK.json` is what the tables generate and stays inside the
//! pipeline's limits, and a `--quick` pass over every workload prints
//! exactly the metrics the file names, with every answer right.

use std::path::{Path, PathBuf};
use std::process::Command;

use uncat_benchmark::json::Json;
use uncat_benchmark::report;

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn committed_manifest() -> Json {
    let path = package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is at the repository root");
    assert_eq!(
        text,
        report::manifest().pretty(),
        "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh manifest > BENCHMARK.json`"
    );
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("every entry has a name")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn manifest_matches_the_tables_and_the_limits() {
    let doc = committed_manifest();
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let (workloads, e2e, layers) = (
        names(&doc, "workloads"),
        names(&doc, "end_to_end"),
        names(&doc, "per_layer"),
    );
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let mut all: Vec<&String> = workloads.iter().chain(&e2e).chain(&layers).collect();
    assert!(all.iter().all(|n| well_formed(n)), "a name is malformed");
    all.sort();
    all.dedup();
    assert_eq!(
        all.len(),
        workloads.len() + e2e.len() + layers.len(),
        "a name is used twice"
    );
    assert!(e2e.iter().any(|n| n == "setup_s"));
    for w in doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let why = w.get("why").and_then(Json::as_str).expect("a why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
    {
        let bound = m.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
}

fn metric_names(run: &Json) -> Vec<String> {
    run.get("metrics")
        .and_then(Json::as_obj)
        .expect("a metrics object")
        .iter()
        .map(|(name, _)| name.clone())
        .collect()
}

/// Every workload, end to end and traced, at a tenth of the data and
/// one-second windows.
#[test]
fn quick_suite_prints_the_metrics_the_manifest_names() {
    let doc = committed_manifest();
    let out = package_dir().join("out").join("test-suite.json");
    let status = Command::new(env!("CARGO_BIN_EXE_uncat-benchmark"))
        .arg("--dir")
        .arg(package_dir())
        .args(["--quick", "--seconds", "1", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("the benchmark binary runs");
    assert!(status.success(), "the quick suite failed: {status}");

    let suite = Json::parse(&std::fs::read_to_string(&out).expect("the suite wrote its file"))
        .expect("the suite file parses");
    for key in ["seed", "git_commit", "nproc", "cpu_model", "rustc"] {
        assert!(suite.get(key).is_some(), "the suite file records {key}");
    }
    assert_eq!(
        suite.get("claim"),
        Some(&Json::Null),
        "no performance claim"
    );
    let runs = suite.get("runs").and_then(Json::as_arr).expect("runs");
    let workloads = names(&doc, "workloads");
    assert_eq!(runs.len(), 2 * workloads.len());
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .expect("a workload");
        assert!(workloads.iter().any(|w| w == workload));
        assert_eq!(
            run.get("correct"),
            Some(&Json::Bool(true)),
            "{workload} answered wrong"
        );
        assert_eq!(run.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(
            run.get("attempted")
                .and_then(Json::as_f64)
                .expect("attempted")
                >= 1.0
        );
        let traced = run.get("trace") == Some(&Json::Bool(true));
        let expected = names(&doc, if traced { "per_layer" } else { "end_to_end" });
        assert_eq!(metric_names(run), expected, "{workload} trace={traced}");
        if traced {
            assert!(trace_file(workload).exists(), "{workload} wrote no trace");
        }
    }
}

fn trace_file(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.trace.jsonl"))
}
