//! `compare A.json B.json`: for every (workload, end-to-end metric), is
//! B better, within the bound, worse, or unresolved against A?
//!
//! Each side's value is the median of its end-to-end runs (a suite file
//! holds one per `--reps`). "Unresolved" means the runs of one side
//! spread (interquartile distance over median, the quartiles Python's
//! `statistics.quantiles(n=4)` gives) wider than the metric's bound, so
//! a difference of that size cannot be told from noise. Every ratio is
//! printed with its base, one row per workload and metric.

use std::path::Path;

use crate::json::Json;
use crate::report::{END_TO_END, WORKLOADS};
use crate::stats::{median_f64, quartiles};

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Values of `metric` over the end-to-end runs of `workload`.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace") == Some(&Json::Bool(false)))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Interquartile distance as a share of the median; 0 for a single run.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median_f64(values)
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

/// `worse_by`: how much worse B's median is than A's, as a share of A's.
pub fn verdict(worse_by: f64, spread_a: f64, spread_b: f64, bound: f64) -> Verdict {
    let noise = spread_a.max(spread_b);
    if noise > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > noise.max(bound / 3.0) {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Print the table; the return value is the number of "worse" rows.
pub fn run(a_path: &Path, b_path: &Path) -> Result<i32, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("# A = {}", a_path.display());
    println!("# B = {}", b_path.display());
    println!("workload metric A_median B_median B/A spread_A spread_B bound verdict");
    let mut worse = 0;
    for w in WORKLOADS {
        for m in END_TO_END {
            let (va, vb) = (values(&a, w.name, m.name), values(&b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{} {} - - - - - {} missing", w.name, m.name, m.bound);
                continue;
            }
            let (ma, mb) = (median_f64(&va), median_f64(&vb));
            let worse_by = if m.better == "lower" {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let (sa, sb) = (spread(&va), spread(&vb));
            let v = verdict(worse_by, sa, sb, m.bound);
            worse += i32::from(v == Verdict::Worse);
            println!(
                "{} {} {ma:.6} {mb:.6} {:.4} {sa:.4} {sb:.4} {} {}",
                w.name,
                m.name,
                mb / ma,
                m.bound,
                match v {
                    Verdict::Better => "better",
                    Verdict::Within => "within_bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.02, 0.01, 0.01, 0.10), Verdict::Within);
        assert_eq!(verdict(0.12, 0.01, 0.01, 0.10), Verdict::Worse);
        assert_eq!(verdict(-0.08, 0.01, 0.02, 0.10), Verdict::Better);
        assert_eq!(verdict(-0.02, 0.01, 0.01, 0.10), Verdict::Within);
        assert_eq!(verdict(0.30, 0.15, 0.01, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
