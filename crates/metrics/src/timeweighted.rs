//! Time-weighted averaging of continuously varying quantities.

use odr_simtime::SimTime;

/// Accumulates a piecewise-constant signal (DRAM miss rate, power draw,
/// stage utilisation, ...) and reports its time-weighted mean.
///
/// Call [`TimeWeighted::set`] whenever the signal changes; the value is
/// weighted by how long it was held.
///
/// # Examples
///
/// ```
/// use odr_metrics::TimeWeighted;
/// use odr_simtime::SimTime;
///
/// let mut w = TimeWeighted::new(SimTime::ZERO, 0.0);
/// w.set(SimTime::from_secs(1), 10.0); // 0.0 held for 1 s
/// w.set(SimTime::from_secs(3), 0.0);  // 10.0 held for 2 s
/// assert!((w.mean(SimTime::from_secs(4)) - 5.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    start: SimTime,
    last_change: SimTime,
    current: f64,
    weighted_sum: f64,
    peak: f64,
}

impl TimeWeighted {
    /// Creates an accumulator holding `initial` from time `start`.
    #[must_use]
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            start,
            last_change: start,
            current: initial,
            weighted_sum: 0.0,
            peak: initial,
        }
    }

    /// Changes the signal to `value` at time `now`.
    ///
    /// Times must be non-decreasing; out-of-order updates are clamped to the
    /// latest seen time.
    pub fn set(&mut self, now: SimTime, value: f64) {
        let now = now.max(self.last_change);
        self.weighted_sum += self.current * (now - self.last_change).as_secs_f64();
        self.last_change = now;
        self.current = value;
        self.peak = self.peak.max(value);
    }

    /// Returns the current value of the signal.
    #[must_use]
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Returns the largest value the signal ever held.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Returns the time-weighted mean over `[start, end]`, or the current
    /// value if no time has elapsed.
    #[must_use]
    pub fn mean(&self, end: SimTime) -> f64 {
        let end = end.max(self.last_change);
        let total = (end - self.start).as_secs_f64();
        if total <= 0.0 {
            return self.current;
        }
        let sum = self.weighted_sum + self.current * (end - self.last_change).as_secs_f64();
        sum / total
    }
}

/// A finalised, mergeable view of a [`TimeWeighted`] signal: the integral
/// `∫ signal dt` over the measured span, the span itself, and the peak.
///
/// Combining aggregates from concurrently running sessions adds the
/// integrals — the integral of a sum of signals is the sum of the
/// integrals — so fleet-level totals (total power, total active streams)
/// stay exact without replaying either signal. Spans take the maximum
/// (sessions run over the same simulated interval), and peaks add: the
/// sum of per-signal peaks is a safe upper bound on the combined
/// signal's peak.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeWeightedAgg {
    /// `∫ signal dt` over the span, in value·seconds.
    pub integral: f64,
    /// Span covered, in seconds.
    pub span_secs: f64,
    /// Upper bound on the combined signal's peak.
    pub peak: f64,
}

impl TimeWeightedAgg {
    /// Combines two aggregates. Commutative; associative up to f64
    /// rounding, so fleet reduction fixes an explicit (session-index)
    /// order to stay bit-identical regardless of thread count.
    #[must_use]
    pub fn merge(self, other: TimeWeightedAgg) -> TimeWeightedAgg {
        TimeWeightedAgg {
            integral: self.integral + other.integral,
            span_secs: self.span_secs.max(other.span_secs),
            peak: self.peak + other.peak,
        }
    }

    /// Mean of the combined signal over the span, or 0.0 for an empty
    /// span.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.span_secs <= 0.0 {
            return 0.0;
        }
        self.integral / self.span_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_signal_mean_is_value() {
        let w = TimeWeighted::new(SimTime::ZERO, 7.5);
        assert_eq!(w.mean(SimTime::from_secs(10)), 7.5);
    }

    #[test]
    fn zero_elapsed_returns_current() {
        let w = TimeWeighted::new(SimTime::ZERO, 3.0);
        assert_eq!(w.mean(SimTime::ZERO), 3.0);
    }

    #[test]
    fn weighted_mean() {
        let mut w = TimeWeighted::new(SimTime::ZERO, 1.0);
        w.set(SimTime::from_secs(2), 4.0); // 1.0 × 2 s
        let m = w.mean(SimTime::from_secs(4)); // + 4.0 × 2 s
        assert!((m - 2.5).abs() < 1e-12);
    }

    #[test]
    fn peak_tracks_maximum() {
        let mut w = TimeWeighted::new(SimTime::ZERO, 1.0);
        w.set(SimTime::from_secs(1), 9.0);
        w.set(SimTime::from_secs(2), 2.0);
        assert_eq!(w.peak(), 9.0);
        assert_eq!(w.current(), 2.0);
    }

    #[test]
    fn out_of_order_updates_clamp() {
        let mut w = TimeWeighted::new(SimTime::ZERO, 1.0);
        w.set(SimTime::from_secs(2), 5.0);
        w.set(SimTime::from_secs(1), 3.0); // clamped to t=2
        let m = w.mean(SimTime::from_secs(4));
        // 1.0 for 2 s then 3.0 for 2 s (the 5.0 was held for zero time).
        assert!((m - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nonzero_start() {
        let mut w = TimeWeighted::new(SimTime::from_secs(10), 2.0);
        w.set(SimTime::from_secs(12), 6.0);
        let m = w.mean(SimTime::from_secs(14));
        assert!((m - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merged_aggregates_sum_signals() {
        // Two constant signals over the same 10 s span: the merged mean is
        // the sum of the individual means (total power across sessions).
        let constant = |value: f64| TimeWeightedAgg {
            integral: value * 10.0,
            span_secs: 10.0,
            peak: value,
        };
        let (a, b) = (constant(30.0), constant(12.5));
        let m = a.merge(b);
        assert!((m.mean() - 42.5).abs() < 1e-12);
        assert_eq!(m.peak, 42.5);
        // Identity under the default (empty) aggregate.
        let id = TimeWeightedAgg::default();
        assert_eq!(m.merge(id), m);
        // Commutative.
        assert_eq!(a.merge(b), b.merge(a));
    }
}
