//! Exact order statistics over raw samples. Nothing here buckets: every
//! quantile is read off the sorted per-op sample vector.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `q` has at least ten samples beyond it, the rule under which
/// a percentile is a measurement and not the maximum in disguise.
pub fn supported(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0
}

pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn median_u64(values: &[u64]) -> f64 {
    median_f64(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// First and third quartile by the "exclusive" method, which is what
/// Python's `statistics.quantiles(values, n=4)` computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = p * (v.len() + 1) as f64;
        let i = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = (pos - i as f64).clamp(0.0, 1.0);
        v[i - 1] + (v[i] - v[i - 1]) * frac
    };
    (at(0.25), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), 50);
        assert_eq!(quantile(&s, 0.95), 95);
        assert_eq!(quantile(&s, 1.0), 100);
        assert_eq!(quantile(&[7], 0.5), 7);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(supported(200, 0.95));
        assert!(!supported(199, 0.95));
        assert!(supported(20, 0.5));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median_f64(&v), 5.5);
    }
}
