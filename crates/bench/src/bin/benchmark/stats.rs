//! Order statistics for the report: medians and quartiles over runs, and
//! the tail percentile a sample supports.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default exclusive method) so the spreads printed here are the ones a
//! reader recomputes from the raw values in the report.

pub use echelon_cluster::metrics::percentile;

/// Candidate tail percentiles, highest first, with their labels.
const TAILS: [(f64, &str); 5] = [
    (0.999, "p99.9"),
    (0.99, "p99"),
    (0.95, "p95"),
    (0.9, "p90"),
    (0.5, "p50"),
];

/// Samples a percentile must leave beyond it before it counts as
/// supported by the sample.
const MIN_BEYOND: usize = 10;

/// The highest of the candidate percentiles with at least ten samples
/// beyond its nearest rank in a sample of `n`, as `(p, label)`. Falls
/// back to the median when even that is unsupported.
pub fn tail_percentile(n: usize) -> (f64, &'static str) {
    TAILS
        .into_iter()
        .find(|&(p, _)| {
            let rank = ((n as f64) * p).ceil() as usize;
            n.saturating_sub(rank.max(1)) >= MIN_BEYOND
        })
        .unwrap_or(TAILS[TAILS.len() - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, averaging the middle pair of an even sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them. A single value is
/// its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}
