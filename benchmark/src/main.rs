//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! uncat-benchmark --dir benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//! uncat-benchmark --dir benchmark [--seed N] [--seconds S] [--quick] [--reps N] [--aa] [--out FILE]
//! uncat-benchmark compare A.json B.json
//! uncat-benchmark manifest
//! ```
//!
//! The first form is one run of one workload: it prints each metric as
//! `workload metric value unit` and, as its last line, the result object
//! the pipeline reads. The second runs every workload that way, each in
//! its own process.

use std::path::PathBuf;
use std::process::ExitCode;

use uncat_benchmark::common::RunArgs;
use uncat_benchmark::report::{self, WORKLOADS};
use uncat_benchmark::suite::SuiteArgs;
use uncat_benchmark::{compare, ingest, serve, suite};

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: run.sh --workload <{}> --seed N --seconds S --trace 0|1 [--quick]\n       \
         run.sh [--seed N] [--seconds S] [--quick] [--reps N] [--aa] [--out FILE]\n       \
         run.sh compare A.json B.json\n       run.sh manifest",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut dir = PathBuf::from("benchmark");
    let mut workload = None;
    let mut trace = false;
    let mut seconds = None;
    let mut positional = Vec::new();
    let mut suite = SuiteArgs::new(dir.clone());

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if !arg.starts_with("--") {
            positional.push(arg);
            continue;
        }
        let value = match arg.as_str() {
            "--quick" => {
                suite.quick = true;
                continue;
            }
            "--aa" => {
                suite.aa = true;
                continue;
            }
            "--dir" | "--workload" | "--seed" | "--seconds" | "--trace" | "--reps" | "--out" => {
                match argv.next() {
                    Some(value) => value,
                    None => return usage(&format!("{arg} needs a value")),
                }
            }
            _ => return usage(&format!("unknown flag {arg}")),
        };
        let bad = || usage(&format!("bad {arg} {value}"));
        match arg.as_str() {
            "--dir" => dir = PathBuf::from(&value),
            "--workload" => workload = Some(value.clone()),
            "--out" => suite.out = Some(PathBuf::from(&value)),
            "--seed" => match value.parse() {
                Ok(seed) => suite.seed = seed,
                Err(_) => return bad(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => seconds = Some(s),
                _ => return bad(),
            },
            "--reps" => match value.parse::<u64>() {
                Ok(n) if n >= 1 => suite.reps = n,
                _ => return bad(),
            },
            _ => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return bad(),
            },
        }
    }
    suite.dir = dir.clone();
    suite.seconds = seconds.unwrap_or(if suite.quick {
        2.0
    } else {
        report::RUN_SECONDS as f64
    });

    let outcome = match (positional.first().map(String::as_str), workload) {
        (Some("manifest"), _) => {
            print!("{}", report::manifest().pretty());
            Ok(0)
        }
        (Some("compare"), _) if positional.len() == 3 => {
            compare::run(positional[1].as_ref(), positional[2].as_ref()).map(|worse| worse.min(1))
        }
        (Some(other), _) => return usage(&format!("unexpected argument {other}")),
        (None, Some(name)) => {
            let Some(def) = WORKLOADS.iter().find(|w| w.name == name) else {
                return usage(&format!("unknown workload {name}"));
            };
            let out_dir = dir.join("out");
            if let Err(e) = std::fs::create_dir_all(&out_dir) {
                eprintln!("error: cannot create {}: {e}", out_dir.display());
                return ExitCode::FAILURE;
            }
            let args = RunArgs {
                workload: def.name,
                seed: suite.seed,
                seconds: suite.seconds,
                trace,
                quick: suite.quick,
                out_dir,
            };
            let line = match def.name {
                "ingest_mix" => ingest::run(&args),
                _ => serve::run(&args),
            };
            // A wrong answer is reported in the line (`correct`, `failed`),
            // not by the exit code: the pipeline reads the line.
            println!("{line}");
            Ok(0)
        }
        (None, None) => suite::run(&suite),
    };
    match outcome {
        Ok(code) => ExitCode::from(code as u8),
        Err(problem) => {
            eprintln!("error: {problem}");
            ExitCode::FAILURE
        }
    }
}
