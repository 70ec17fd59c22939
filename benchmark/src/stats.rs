//! Order statistics for the benchmark's samples.
//!
//! Two families, kept apart on purpose:
//!
//! * Within one run, latency percentiles use the nearest-rank rule: the
//!   reported value is always an observed sample.
//! * Across runs, the spread of a metric is the distance between the
//!   first and third quartile as Python's `statistics.quantiles(values,
//!   n=4)` computes them (the "exclusive" method), so `compare` agrees
//!   with any script that checks the same runs with Python.

/// Samples a reported tail percentile must have beyond it. A p99 thus
/// needs at least 1,000 samples, a p90 at least 100.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The 1-based nearest rank of percentile `p` (to a tenth) among `n`
/// samples. Integer arithmetic, so that 99.9 % of 10,000 is rank 9,990
/// and not the 9,991 that `0.999 * 10_000.0` rounds up to.
fn rank(p: f64, n: usize) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of all samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// Percentile `p` by nearest rank, refused (`None`) unless at least
/// [`TAIL_SAMPLES_BEYOND`] samples lie beyond it.
pub fn tail(sorted: &[f64], p: f64) -> Option<f64> {
    let v = nearest_rank(sorted, p)?;
    (sorted.len() - rank(p, sorted.len()) >= TAIL_SAMPLES_BEYOND).then_some(v)
}

/// The p99 by nearest rank, refused below 1,000 samples.
pub fn p99(sorted: &[f64]) -> Option<f64> {
    tail(sorted, 99.0)
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_SAMPLES_BEYOND`] samples beyond it, for `n` samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= TAIL_SAMPLES_BEYOND && n - rank(p, n) >= TAIL_SAMPLES_BEYOND)
}

/// Returns `values` sorted ascending (NaNs are not expected and sort
/// last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median as `statistics.median` gives it: the middle sample, or
/// the mean of the two middle samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, the quartiles computed as
/// `statistics.quantiles(values, n=4)` does. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    let med = median(&v)?;
    if n == 1 {
        return Some((v[0], med, v[0]));
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), med, cut(3)))
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_observed_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&v, 101.0), None);
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let small: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(p99(&small), None);
        let big: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(p99(&big), Some(990.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred, 90.0), Some(90.0));
        assert_eq!(tail(&hundred[..99], 90.0), None);
    }

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
