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
    #[inline]
    pub fn set(&mut self, now: SimTime, value: f64) {
        let now = now.max(self.last_change);
        // A zero signal adds `±0.0`, which leaves every sum but `-0.0`
        // unchanged, and one that starts at `+0.0` never becomes `-0.0`:
        // skipping the product changes no bit.
        if self.current != 0.0 {
            self.weighted_sum += self.current * now.secs_since(self.last_change);
        }
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

    /// `set` as it was before a zero signal skipped its product.
    fn set_by_multiplying(w: &mut TimeWeighted, now: SimTime, value: f64) {
        let now = now.max(w.last_change);
        w.weighted_sum += w.current * now.secs_since(w.last_change);
        w.last_change = now;
        w.current = value;
        w.peak = w.peak.max(value);
    }

    #[test]
    fn skipping_a_zero_hold_changes_no_bit() {
        let mut rng = odr_simtime::Rng::new(41);
        for run in 0..300 {
            let start = SimTime::from_nanos(rng.below(3_000_000_000));
            let mut fast = TimeWeighted::new(start, 0.0);
            let mut reference = fast.clone();
            let mut now = start;
            for _ in 0..rng.below(500) {
                // Repeated instants and steps back (clamped) are common;
                // spans cross a second either side.
                now = match rng.below(8) {
                    0..=2 => now,
                    3 => SimTime::from_nanos(now.as_nanos().saturating_sub(rng.below(5_000))),
                    4 => now.add_nanos(1_000_000_000 + rng.below(2_000_000_000)),
                    _ => now.add_nanos(rng.below(3_000_000)),
                };
                // Mostly the 0/1 utilisation flips, plus negative zeros,
                // negatives and fractions.
                let value = match rng.below(6) {
                    0 | 1 => 0.0,
                    2 => 1.0,
                    3 => -0.0,
                    4 => -rng.next_f64(),
                    _ => rng.next_f64() * 100.0,
                };
                fast.set(now, value);
                set_by_multiplying(&mut reference, now, value);
                assert_eq!(
                    fast.weighted_sum.to_bits(),
                    reference.weighted_sum.to_bits(),
                    "run {run}"
                );
            }
            let end = now.add_nanos(rng.below(2) * rng.below(2_000_000_000));
            assert_eq!(
                fast.mean(end).to_bits(),
                reference.mean(end).to_bits(),
                "run {run}"
            );
            assert_eq!(fast.peak().to_bits(), reference.peak().to_bits());
            assert_eq!(fast.last_change, reference.last_change);
        }
    }

    #[test]
    fn nonzero_start() {
        let mut w = TimeWeighted::new(SimTime::from_secs(10), 2.0);
        w.set(SimTime::from_secs(12), 6.0);
        let m = w.mean(SimTime::from_secs(14));
        assert!((m - 4.0).abs() < 1e-12);
    }
}
