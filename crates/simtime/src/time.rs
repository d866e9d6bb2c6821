//! Virtual clock instants.

use core::{
    fmt,
    ops::{Add, AddAssign, Sub},
    time::Duration,
};

/// An instant on the simulation clock, measured in nanoseconds since the
/// start of the simulation.
///
/// `SimTime` is a plain `u64` under the hood, so comparisons and arithmetic
/// are cheap and total. Spans between instants are expressed with
/// [`core::time::Duration`].
///
/// # Examples
///
/// ```
/// use odr_simtime::{Duration, SimTime};
///
/// let t = SimTime::ZERO + Duration::from_millis(16);
/// assert_eq!(t.as_nanos(), 16_000_000);
/// assert_eq!(t - SimTime::ZERO, Duration::from_millis(16));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as an "infinitely far"
    /// sentinel for deadlines.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from nanoseconds since simulation start.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from whole seconds since simulation start.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Returns the instant as nanoseconds since simulation start.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional seconds since simulation start.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the instant as fractional milliseconds since simulation start.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the span from `earlier` to `self`, or [`Duration::ZERO`] if
    /// `earlier` is actually later (saturating, never panics).
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    #[must_use]
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(duration_nanos(d)))
    }
}

/// Converts a [`Duration`] to whole nanoseconds, saturating at `u64::MAX`.
///
/// Simulations in this workspace never run anywhere near 584 years of virtual
/// time, so saturation is a theoretical safety net rather than an expected
/// path.
#[must_use]
pub fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Converts fractional seconds to a [`Duration`], clamping negatives (and
/// NaN or infinity) to zero and saturating at [`Duration::MAX`]; never
/// panics.
///
/// Workload models produce durations through floating-point math; tiny
/// negative results from subtraction are clamped rather than panicking.
/// In range the result is exactly `Duration::from_secs_f64(secs)`.
#[must_use]
pub fn secs_f64(secs: f64) -> Duration {
    if secs <= 0.0 || !secs.is_finite() {
        Duration::ZERO
    } else {
        Duration::try_from_secs_f64(secs).unwrap_or(Duration::MAX)
    }
}

/// Converts fractional milliseconds to a [`Duration`], clamping negatives to
/// zero.
#[must_use]
pub fn millis_f64(ms: f64) -> Duration {
    secs_f64(ms / 1e3)
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        self.saturating_add(rhs)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    /// Returns the span between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when ordering is not guaranteed.
    fn sub(self, rhs: SimTime) -> Duration {
        debug_assert!(rhs <= self, "SimTime subtraction went negative");
        Duration::from_nanos(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(duration_nanos(rhs)))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn add_and_subtract_roundtrip() {
        let t = SimTime::ZERO + Duration::from_micros(1500);
        assert_eq!(t.as_nanos(), 1_500_000);
        assert_eq!(t - SimTime::ZERO, Duration::from_micros(1500));
        assert_eq!(
            t - Duration::from_micros(500),
            SimTime::from_nanos(1_000_000)
        );
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(b.saturating_since(a), Duration::from_nanos(10));
    }

    #[test]
    fn saturating_add_at_max() {
        assert_eq!(SimTime::MAX + Duration::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn sub_duration_saturates_at_zero() {
        assert_eq!(
            SimTime::from_nanos(5) - Duration::from_nanos(10),
            SimTime::ZERO
        );
    }

    #[test]
    fn secs_f64_clamps_negative_and_nan() {
        assert_eq!(secs_f64(-1.0), Duration::ZERO);
        assert_eq!(secs_f64(f64::NAN), Duration::ZERO);
        assert_eq!(secs_f64(0.25), Duration::from_millis(250));
    }

    #[test]
    fn secs_f64_saturates_past_duration_max() {
        assert_eq!(secs_f64(1e300), Duration::MAX);
        assert_eq!(secs_f64(f64::MAX), Duration::MAX);
        assert_eq!(secs_f64(Duration::MAX.as_secs_f64() * 2.0), Duration::MAX);
    }

    #[test]
    fn secs_f64_in_range_is_from_secs_f64() {
        let mut rng = crate::Rng::new(3);
        for _ in 0..10_000 {
            // Magnitudes from a nanosecond to ~30 years, both ends of the
            // rounding range.
            let secs = rng.next_f64() * 10f64.powi(rng.below(18) as i32 - 9);
            if secs > 0.0 {
                assert_eq!(secs_f64(secs), Duration::from_secs_f64(secs), "{secs}");
            }
        }
        for secs in [1e-9, 0.5e-9, 1.0, 16.666_666e-3, 1e9, 1.8e19] {
            assert_eq!(secs_f64(secs), Duration::from_secs_f64(secs), "{secs}");
        }
    }

    #[test]
    fn millis_f64_converts() {
        assert_eq!(millis_f64(16.6).as_nanos(), 16_600_000);
    }

    #[test]
    fn ordering_is_by_instant() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
    }

    #[test]
    fn display_formats_millis() {
        let t = SimTime::from_nanos(1_234_000);
        assert_eq!(format!("{t}"), "1.234ms");
    }
}
