//! Order statistics for latency samples.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it; with fewer, one outlier decides the number. The median is
//! always reported (it needs one sample).

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// 1-based nearest rank of the `p` percentile (`0 < p <= 1`) in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps `0.9 * 100` from rounding up to rank 91.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`
/// percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank percentile, with no sample-count rule.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    Some(v[rank(v.len(), p) - 1])
}

/// Nearest-rank tail percentile, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    percentile(samples, p)
}

/// Smallest sample count whose `p` tail percentile can be reported.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .expect("some count always qualifies for p < 1")
}

/// `"p50 12.3 ms (n=215)"`-style label used in the human report.
pub fn describe(label: &str, value: Option<f64>, n: usize, unit: &str) -> String {
    match value {
        Some(v) => format!("{label} {v:.3} {unit} (n={n})"),
        None if n == 0 => format!("{label} n/a (n=0)"),
        None => format!("{label} n/a (n={n}, needs {MIN_BEYOND} beyond)"),
    }
}
