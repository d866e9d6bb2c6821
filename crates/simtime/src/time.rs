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

    /// Returns the span from `earlier` to `self`, or [`Duration::ZERO`] if
    /// `earlier` is actually later (saturating, never panics).
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Returns the span from `earlier` to `self` in fractional seconds, or
    /// 0 if `earlier` is actually later: exactly
    /// `self.saturating_since(earlier).as_secs_f64()`, through
    /// [`nanos_to_secs`].
    #[inline]
    #[must_use]
    pub fn secs_since(self, earlier: SimTime) -> f64 {
        nanos_to_secs(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    #[must_use]
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(duration_nanos(d)))
    }

    /// Adds whole nanoseconds, saturating at [`SimTime::MAX`].
    #[inline]
    #[must_use]
    pub fn add_nanos(self, nanos: u64) -> SimTime {
        SimTime(self.0.saturating_add(nanos))
    }

    /// Adds fractional nanoseconds, rounded by [`round_nanos`]: where the
    /// DES arms a timer, its one rounding.
    #[inline]
    #[must_use]
    pub fn add_nanos_f64(self, nanos: f64) -> SimTime {
        self.add_nanos(round_nanos(nanos))
    }

    /// Returns the whole nanoseconds from `earlier` to `self`, or 0 if
    /// `earlier` is actually later.
    #[inline]
    #[must_use]
    pub fn nanos_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
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

/// 2⁵²: from here up to 2⁵³ an `f64` holds exactly the integers.
const INTEGRAL: f64 = 4_503_599_627_370_496.0;

/// Rounds fractional nanoseconds to the nearest whole nanosecond, ties to
/// even, clamping negatives (and NaN) to zero and saturating at
/// `u64::MAX`; never panics. This is where the DES's simulated time is
/// rounded, once per armed timer ([`SimTime::add_nanos_f64`]): stage work,
/// contention re-plans, input gaps and link times stay `f64` nanoseconds
/// up to here.
///
/// Below 2⁵², `s = nanos + 2⁵²` rounds `nanos` to an integer (an `f64` in
/// `[2⁵², 2⁵³]` holds only integers, and the addition rounds ties to
/// even), and `s − 2⁵²` is read off `s`'s bits rather than converted: in
/// `[2⁵², 2⁵³)` the exponent is fixed and the mantissa counts integers, so
/// `bits(s) − bits(2⁵²) = s − 2⁵²`. The one `s` outside that range is
/// 2⁵³ itself, reached when `nanos` just below 2⁵² rounds up; its
/// mantissa carries into the exponent and the difference is 2⁵² there
/// too. From 2⁵² up every `f64` is an integer, and `as` saturates.
#[inline]
#[must_use]
pub fn round_nanos(nanos: f64) -> u64 {
    if nanos >= INTEGRAL {
        nanos as u64
    } else if nanos > 0.0 {
        (nanos + INTEGRAL).to_bits() - INTEGRAL.to_bits()
    } else {
        0
    }
}

/// Converts fractional seconds to whole nanoseconds, rounding to the
/// nearest, clamping negatives (and NaN) to zero and saturating at
/// `u64::MAX`; never panics. This is where float seconds from the edges
/// that keep them (the regulators, RVS, set-up) become simulation time,
/// rounded exactly as `Duration::try_from_secs_f64` rounds; [`secs_f64`]
/// rounds the same way into a `Duration` (saturating at [`Duration::MAX`]
/// instead).
///
/// The common case takes [`round_nanos`]' integer path and only the rest
/// goes through `Duration::try_from_secs_f64`, which rounds the exact
/// `secs · 10⁹`. With `p = secs · 1e9` rounded to an `f64` and
/// `0 < p < 2⁵²`, `r = round_nanos(p)` is `(p + 2⁵²) − 2⁵²` and `p − r` is
/// exact. When `|p − r| < 0.5`, `r` is the nearest integer to the *exact*
/// product too: below 2⁵² the half-integers `r ± 0.5` are `f64`s, rounding
/// is monotone, and `p` lies strictly between them, so the product it was
/// rounded from does as well. A `p` not above 0 (zero, negatives, NaN) is
/// 0, as std's clamp makes it; a positive `secs` never underflows to it.
/// Ties (`p` a half-integer), `p ≥ 2⁵²` and `+∞` take the std path, so the
/// result is exactly `duration_nanos(Duration::try_from_secs_f64(secs))`.
#[inline]
#[must_use]
pub fn secs_to_nanos(secs: f64) -> u64 {
    match rounded_nanos(secs) {
        Some(nanos) => nanos,
        None => duration_nanos(secs_f64_std(secs)),
    }
}

/// Converts whole nanoseconds to fractional seconds: exactly
/// `Duration::from_nanos(nanos).as_secs_f64()`, without the `Duration`.
/// [`SimTime::secs_since`] is it for the span between two instants.
///
/// `Duration::as_secs_f64` is `secs as f64 + nanos as f64 / 1e9`. Below a
/// second `secs` is 0, and `0.0 + x` is `x` for every `x ≥ 0`, so the
/// result is `nanos as f64 / 1e9` (a `u64` below 10⁹ is an exact `f64`).
/// From a second up the two-part sum rounds twice, unlike one division,
/// so std computes it.
#[inline]
#[must_use]
pub fn nanos_to_secs(nanos: u64) -> f64 {
    if nanos < 1_000_000_000 {
        nanos as f64 / 1e9
    } else {
        Duration::from_nanos(nanos).as_secs_f64()
    }
}

/// Converts fractional seconds to a [`Duration`], rounding as
/// [`secs_to_nanos`] does, clamping negatives (and NaN or infinity) to
/// zero and saturating at [`Duration::MAX`]; never panics.
#[must_use]
pub fn secs_f64(secs: f64) -> Duration {
    match rounded_nanos(secs) {
        Some(nanos) => Duration::from_nanos(nanos),
        None => secs_f64_std(secs),
    }
}

/// [`secs_to_nanos`]'s integer path: `None` where std must decide.
#[inline]
fn rounded_nanos(secs: f64) -> Option<u64> {
    let p = secs * 1e9;
    if p > 0.0 && p < INTEGRAL {
        let s = p + INTEGRAL;
        if (p - (s - INTEGRAL)).abs() < 0.5 {
            return Some(s.to_bits() - INTEGRAL.to_bits());
        }
    }
    (p <= 0.0 || p.is_nan()).then_some(0)
}

/// std's rounding, with [`secs_f64`]'s clamps around it.
#[cold]
#[expect(clippy::disallowed_methods, reason = "std's reference conversion")]
fn secs_f64_std(secs: f64) -> Duration {
    if secs <= 0.0 || !secs.is_finite() {
        Duration::ZERO
    } else {
        Duration::try_from_secs_f64(secs).unwrap_or(Duration::MAX)
    }
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
        write!(f, "{:.3}ms", self.0 as f64 / 1e6)
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

    /// The integer path against std's exact conversion, on the inputs it
    /// must decline (ties, huge, tiny, non-finite) as well as on the ones
    /// it takes, in both shapes: `secs_f64`'s `Duration` and
    /// `secs_to_nanos`' nanoseconds.
    #[test]
    fn secs_to_nanos_and_secs_f64_are_from_secs_f64() {
        // std's rounding, with `secs_f64`'s clamps around it.
        let reference = |secs: f64| {
            if secs > 0.0 && secs.is_finite() {
                Duration::try_from_secs_f64(secs).unwrap_or(Duration::MAX)
            } else {
                Duration::ZERO
            }
        };
        let check = |secs: f64| {
            assert_eq!(secs_f64(secs), reference(secs), "{secs:e}");
            assert_eq!(
                secs_to_nanos(secs),
                duration_nanos(secs_f64(secs)),
                "{secs:e}"
            );
        };
        let around = |secs: f64| [secs.next_down(), secs, secs.next_up()];
        let mut rng = crate::Rng::new(3);
        for _ in 0..1_000_000 {
            // Every bit pattern: both signs, NaNs, infinities, subnormals.
            check(f64::from_bits(rng.next_u64()));
            // The range the models draw from.
            check(rng.next_f64() * 100.0);
        }
        for _ in 0..10_000 {
            // Magnitudes from a nanosecond to ~30 years, both ends of the
            // rounding range.
            let secs = rng.next_f64() * 10f64.powi(rng.below(18) as i32 - 9);
            assert_eq!(secs_f64(secs), Duration::from_secs_f64(secs), "{secs}");
            check(secs);
            // Subnormals.
            check(f64::from_bits(rng.below(1 << 52)));
            // Past `u64` nanoseconds (~584 years) up to `Duration::MAX`.
            check(1.8e10 * 10f64.powf(rng.next_f64() * 9.1));
        }
        // Half-nanosecond ties, where the product's last bit decides.
        for k in 0..100_000u32 {
            around((f64::from(k) + 0.5) * 1e-9)
                .into_iter()
                .for_each(check);
        }
        // Where the integer path ends, and the smallest inputs.
        let edges = [INTEGRAL / 1e9, f64::MIN_POSITIVE, 5e-324, 0.5e-9, 1e-9];
        for edge in edges {
            around(edge).into_iter().for_each(check);
        }
        // `p` just below 2⁵², where `p + 2⁵²` rounds up to 2⁵³: the
        // mantissa carries into the exponent, and the bit difference is
        // still the integer.
        assert_eq!((2.0 * INTEGRAL).to_bits() - INTEGRAL.to_bits(), 1 << 52);
        let mut carries = 0;
        let mut secs = INTEGRAL / 1e9;
        for _ in 0..64 {
            secs = secs.next_down();
            let p = secs * 1e9;
            if p < INTEGRAL && p + INTEGRAL == 2.0 * INTEGRAL {
                carries += 1;
            }
            check(secs);
        }
        assert!(carries > 0, "no input reached the 2⁵³ carry");
        for secs in [1e-9, 0.5e-9, 1.0, 16.666_666e-3, 1e9, 1.8e19] {
            assert_eq!(secs_f64(secs), Duration::from_secs_f64(secs), "{secs}");
        }
    }

    #[test]
    fn secs_to_nanos_rounds_to_the_nearest_nanosecond() {
        assert_eq!(secs_to_nanos(16.6e-3), 16_600_000);
        assert_eq!(secs_to_nanos(-1.0), 0);
        assert_eq!(secs_to_nanos(f64::NAN), 0);
        assert_eq!(secs_to_nanos(1e300), u64::MAX);
        assert_eq!(secs_to_nanos(0.0), 0);
        assert_eq!(secs_to_nanos(-0.0), 0);
    }

    /// `round_nanos` against std's ties-to-even rounding, whose `as u64`
    /// clamps below 0 and at `u64::MAX` and maps NaN to 0, as
    /// `round_nanos` does.
    #[test]
    fn round_nanos_rounds_to_the_nearest_tie_to_even() {
        let check = |nanos: f64| {
            assert_eq!(
                round_nanos(nanos),
                nanos.round_ties_even() as u64,
                "{nanos:e}"
            );
        };
        let around = |nanos: f64| [nanos.next_down(), nanos, nanos.next_up()];
        let two_64 = 18_446_744_073_709_551_616.0;
        let edges = [
            0.0,
            -0.0,
            -1.0,
            -0.5,
            f64::MIN_POSITIVE,
            5e-324,
            0.5,
            1.0,
            1.5,
            2.5,
            INTEGRAL,
            INTEGRAL - 0.5,
            2.0 * INTEGRAL,
            two_64,
            f64::MAX,
        ];
        for edge in edges {
            around(edge).into_iter().for_each(check);
        }
        for special in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            check(special);
        }
        // Ties go to the even neighbour on both sides of 2⁵².
        assert_eq!([0.5, 1.5, 2.5, 3.5].map(round_nanos), [0, 2, 2, 4]);
        assert_eq!(round_nanos(INTEGRAL - 0.5), 1 << 52);
        assert_eq!(round_nanos(INTEGRAL - 1.5), (1 << 52) - 2);
        assert_eq!(round_nanos(INTEGRAL + 1.0), (1 << 52) + 1);
        assert_eq!(round_nanos(two_64), u64::MAX);
        assert_eq!(round_nanos(f64::INFINITY), u64::MAX);
        assert_eq!([-0.0, -3.0, f64::NAN].map(round_nanos), [0; 3]);
        let mut rng = crate::Rng::new(9);
        for k in 0..100_000u32 {
            // Every bit pattern, and the stage times the DES draws.
            check(f64::from_bits(rng.next_u64()));
            check(rng.next_f64() * 1e8);
            around(f64::from(k) + 0.5).into_iter().for_each(check);
        }
    }

    #[test]
    fn add_nanos_f64_and_nanos_since_saturate() {
        let t = SimTime::from_nanos(7);
        assert_eq!(t.add_nanos_f64(2.5), SimTime::from_nanos(9));
        assert_eq!(t.add_nanos_f64(-4.0), t);
        assert_eq!(SimTime::MAX.add_nanos_f64(1.0), SimTime::MAX);
        assert_eq!(t.add_nanos_f64(1e300), SimTime::MAX);
        assert_eq!(SimTime::from_nanos(12).nanos_since(t), 5);
        assert_eq!(t.nanos_since(SimTime::from_nanos(12)), 0);
    }

    /// `secs_since` against `Duration`'s `as_secs_f64`, bit for bit, at
    /// the edges of its two formulas and over random spans in both
    /// orders.
    #[test]
    fn secs_since_is_the_durations_as_secs_f64() {
        let check = |a: SimTime, b: SimTime| {
            assert_eq!(
                a.secs_since(b).to_bits(),
                a.saturating_since(b).as_secs_f64().to_bits(),
                "{a:?} since {b:?}"
            );
        };
        let spans = [
            0,
            1,
            999_999_999,
            1_000_000_000,
            1_000_000_001,
            1 << 53,
            u64::MAX,
        ];
        for d in spans {
            for base in [0, 1, 123_456_789_012] {
                let earlier = SimTime::from_nanos(base);
                let later = earlier.add_nanos(d);
                check(later, earlier);
                check(earlier, later);
            }
        }
        let mut rng = crate::Rng::new(5);
        for _ in 0..1_000_000 {
            let a = SimTime::from_nanos(rng.next_u64());
            // Spans of any size, and the sub-second and few-second ones
            // the simulations measure.
            let b = match rng.below(3) {
                0 => SimTime::from_nanos(rng.next_u64()),
                1 => a.add_nanos(rng.below(1_000_000_000)),
                _ => a.add_nanos(rng.below(1 << 40)),
            };
            check(a, b);
            check(b, a);
        }
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
