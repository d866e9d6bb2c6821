//! Sample collection with percentile statistics.

use core::fmt;

use crate::Cdf;

/// Collects `f64` samples and answers the distribution queries the paper's
/// figures need (mean, min/max, arbitrary percentiles, box-plot stats).
///
/// Percentile queries sort lazily: the sorted order is cached and only
/// rebuilt after new samples arrive, so interleaving `record` and
/// `percentile` stays `O(n log n)` amortised rather than per call.
///
/// # Examples
///
/// ```
/// use odr_metrics::Summary;
///
/// let mut s = Summary::new();
/// for v in 1..=100 {
///     s.record(v as f64);
/// }
/// assert_eq!(s.count(), 100);
/// assert!((s.mean() - 50.5).abs() < 1e-9);
/// assert_eq!(s.percentile(50.0), 50.5);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: Vec<f64>,
    dirty: bool,
}

/// The five box-plot statistics reported by Figures 10 and 11:
/// 1st percentile, 25th percentile, mean, 75th percentile, 99th percentile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoxStats {
    /// 1st percentile (the paper's tail metric for FPS).
    pub p1: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 99th percentile (the paper's tail metric for latency).
    pub p99: f64,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Summary::default()
    }

    /// Adds one sample. Non-finite values are rejected and counted as if
    /// never recorded (simulation code never produces them; this guards
    /// analysis code that divides by measured durations).
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.samples.push(value);
            self.dirty = true;
        }
    }

    /// Adds every sample from `values`.
    pub(crate) fn record_all<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.record(v);
        }
    }

    /// Returns the number of recorded samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Returns the arithmetic mean, or 0.0 for an empty summary.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Returns the (population) standard deviation, or 0.0 if fewer than two
    /// samples were recorded.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .samples
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / self.samples.len() as f64;
        var.sqrt()
    }

    /// Returns the smallest sample, or 0.0 for an empty summary.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Returns the largest sample, or 0.0 for an empty summary.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Returns the `p`-th percentile (0–100) by linear interpolation between
    /// closest ranks, or 0.0 for an empty summary.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    #[must_use]
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        self.interpolate(p)
    }

    /// [`Summary::percentile`] for a `p` already known to lie in
    /// `[0, 100]`.
    fn interpolate(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.sorted.len();
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        // `rank` lies in [0, n − 1], so both ranks are in bounds.
        match (self.sorted.get(lo), self.sorted.get(hi)) {
            (Some(&only), _) if n == 1 => only,
            (Some(&a), Some(&b)) => a + (b - a) * frac,
            _ => 0.0,
        }
    }

    /// Returns the five box-plot statistics of Figures 10/11.
    #[must_use]
    pub fn box_stats(&mut self) -> BoxStats {
        BoxStats {
            p1: self.interpolate(1.0),
            p25: self.interpolate(25.0),
            mean: self.mean(),
            p75: self.interpolate(75.0),
            p99: self.interpolate(99.0),
        }
    }

    fn ensure_sorted(&mut self) {
        if self.dirty || self.sorted.len() != self.samples.len() {
            self.sorted = self.samples.clone();
            self.sorted.sort_by(f64::total_cmp);
            self.dirty = false;
        }
    }
}

impl From<Summary> for Cdf {
    /// The summary's samples as a CDF, moving the sorted cache instead of
    /// copying and sorting again (both order by `f64::total_cmp`, and
    /// `record` already dropped what `Cdf::from_samples` would).
    fn from(mut summary: Summary) -> Cdf {
        summary.ensure_sorted();
        Cdf::from_sorted(summary.sorted)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} min={:.3} max={:.3}",
            self.count(),
            self.mean(),
            self.min(),
            self.max()
        )
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        s.record_all(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let mut s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn mean_min_max() {
        let mut s: Summary = [2.0, 4.0, 6.0].into_iter().collect();
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 6.0);
        assert_eq!(s.percentile(0.0), 2.0);
        assert_eq!(s.percentile(100.0), 6.0);
    }

    #[test]
    fn percentile_interpolates() {
        let mut s: Summary = [0.0, 10.0].into_iter().collect();
        assert_eq!(s.percentile(50.0), 5.0);
        assert_eq!(s.percentile(25.0), 2.5);
    }

    #[test]
    fn percentiles_after_interleaved_records() {
        let mut s = Summary::new();
        s.record(1.0);
        assert_eq!(s.percentile(50.0), 1.0);
        s.record(3.0);
        assert_eq!(s.percentile(50.0), 2.0);
        s.record(2.0);
        assert_eq!(s.percentile(50.0), 2.0);
    }

    #[test]
    fn rejects_non_finite() {
        let mut s = Summary::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(5.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 5.0);
    }

    #[test]
    fn std_dev_matches_hand_computation() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn box_stats_ordering() {
        let mut s: Summary = (0..1000).map(|i| i as f64).collect();
        let b = s.box_stats();
        assert!(b.p1 <= b.p25 && b.p25 <= b.p75 && b.p75 <= b.p99);
        assert!((b.mean - 499.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_out_of_range_panics() {
        let mut s = Summary::new();
        s.record(1.0);
        let _ = s.percentile(101.0);
    }
}
