//! Order statistics for the benchmark's timings.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it: with fewer, the
//! figure is set by a handful of runs of the scheduler and does not
//! repeat.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles the benchmark is willing to report, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Linear-interpolated percentile (`p` in 0..=100) of `sorted`, which
/// must be ascending. Empty input gives NaN so a missing sample set can
/// never pass for a measurement.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts a copy of `values` ascending (NaN last, so it surfaces in the
/// maximum rather than hiding in the middle).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Percentile of unsorted `values`.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// Median of unsorted `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
#[must_use]
pub fn supports(n: usize, p: f64) -> bool {
    // The nudge keeps 10 000 × 0.1% from rounding down to 9.
    (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize >= MIN_BEYOND
}

/// The highest tail percentile `n` samples support, if any.
#[must_use]
pub fn highest_supported(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| supports(n, p))
}

/// First and third quartile as `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), so spreads computed here agree with the
/// ones the benchmark is accepted by. Needs at least two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n.saturating_sub(1).max(1));
        let frac = pos - j as f64;
        v[j - 1] + (v[j.min(n - 1)] - v[j - 1]) * frac
    };
    (at(0.25), at(0.75))
}

/// Inter-quartile distance as a share of the median.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        // 500 samples: 25 beyond p95, 5 beyond p99.
        assert_eq!(highest_supported(500), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(39), None);
        assert!(supports(500, 95.0) && !supports(500, 99.0));
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 75.0), 4.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
