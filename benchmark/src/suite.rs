//! The one command a person runs: every workload in its own process (so
//! `peak_rss_mb` is per workload), end-to-end runs first, then one traced
//! run each, every metric printed as `workload metric value unit`, and
//! the whole set written as one JSON file `compare` can read.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::compare;
use crate::json::Json;
use crate::report::{RUN_SECONDS, WORKLOADS};
use crate::serve::CLIENTS;

pub struct SuiteArgs {
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out: Option<PathBuf>,
    /// End-to-end runs per workload, at seeds `seed..seed + reps`.
    pub reps: u64,
    /// Two sets of end-to-end runs of the same code, compared.
    pub aa: bool,
}

impl SuiteArgs {
    pub fn new(dir: PathBuf) -> SuiteArgs {
        SuiteArgs {
            dir,
            seed: 42,
            seconds: RUN_SECONDS as f64,
            quick: false,
            out: None,
            reps: 1,
            aa: false,
        }
    }
}

fn capture(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn machine(args: &SuiteArgs) -> Vec<(String, Json)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("quick".into(), Json::Bool(args.quick)),
        ("clients".into(), Json::Num(CLIENTS as f64)),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("cpu_model".into(), Json::Str(cpu)),
        ("rustc".into(), Json::Str(capture("rustc", &["-V"]))),
        (
            "git_commit".into(),
            Json::Str(capture("git", &["rev-parse", "HEAD"])),
        ),
    ]
}

/// Run one workload in a child process; pass its metric lines through
/// and return its result line as a record. `Err` if it did not finish.
fn run_one(args: &SuiteArgs, workload: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("--dir")
        .arg(&args.dir)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().ok_or("no output")?;
    for line in lines {
        println!("{line}");
    }
    let result = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let Json::Obj(mut pairs) = result else {
        return Err(format!("{workload}: the result line is not an object"));
    };
    pairs.insert(0, ("trace".into(), Json::Bool(trace)));
    pairs.insert(0, ("seed".into(), Json::Num(seed as f64)));
    pairs.insert(0, ("workload".into(), Json::str(workload)));
    Ok(Json::Obj(pairs))
}

fn run_set(args: &SuiteArgs, traced: bool, path: &Path) -> Result<bool, String> {
    let mut runs = Vec::new();
    for w in WORKLOADS {
        for rep in 0..args.reps {
            runs.push(run_one(args, w.name, args.seed + rep, false)?);
        }
    }
    if traced {
        for w in WORKLOADS {
            runs.push(run_one(args, w.name, args.seed, true)?);
        }
    }
    let all_correct = runs
        .iter()
        .all(|r| r.get("correct") == Some(&Json::Bool(true)));
    let mut doc = machine(args);
    doc.push(("claim".into(), Json::Null));
    doc.push(("runs".into(), Json::Arr(runs)));
    std::fs::write(path, Json::Obj(doc).pretty()).map_err(|e| e.to_string())?;
    eprintln!("wrote {}", path.display());
    Ok(all_correct)
}

/// Exit code: 0 when every answer was right (and, with `--aa`, no metric
/// of the second set is worse than the first by more than its bound).
pub fn run(args: &SuiteArgs) -> Result<i32, String> {
    let out_dir = args.dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let first = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join(format!("suite-{}.json", args.seed)));
    let mut ok = run_set(args, true, &first)?;
    if args.aa {
        let second = first.with_extension("aa.json");
        ok &= run_set(args, false, &second)?;
        ok &= compare::run(&first, &second)? == 0;
    }
    if !ok {
        eprintln!("FAILED: a wrong answer, an error, or a metric out of its bound");
    }
    Ok(if ok { 0 } else { 1 })
}
