//! Deterministic random numbers and the distributions used by the workload
//! models.
//!
//! The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA'14): tiny, fast,
//! passes BigCrush when used as a 64-bit stream, and — crucially for a
//! reproduction artifact — trivial to re-implement bit-exactly anywhere.
//! Every simulated component receives its own [`Rng::fork`]ed stream so that
//! adding a component never perturbs the draws seen by another.

use core::time::Duration;

use crate::time::secs_f64;

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// A seedable, splittable pseudo-random generator (SplitMix64).
///
/// # Examples
///
/// ```
/// use odr_simtime::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Forked streams are independent of the parent's subsequent draws.
/// let mut fork = a.fork(7);
/// let _ = fork.next_u64();
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
    /// Cached second output of the last Box-Muller transform.
    gauss_spare: Option<f64>,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng {
            state: seed,
            gauss_spare: None,
        }
    }

    /// Derives an independent child stream.
    ///
    /// The child seed mixes the parent seed with `stream` through the same
    /// avalanche function as the generator itself, so children with distinct
    /// `stream` ids are decorrelated from each other and from the parent.
    /// Forking does not advance the parent.
    #[must_use]
    pub fn fork(&self, stream: u64) -> Rng {
        Rng::new(mix(self.state ^ mix(stream.wrapping_mul(GOLDEN_GAMMA))))
    }

    /// Returns the next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix(self.state)
    }

    /// Returns a uniform draw from `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer from `[0, n)` using Lemire's unbiased
    /// multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire 2019: rejection happens with probability < 2^-64 * n, i.e.
        // essentially never for the small `n` used here.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Draws from a standard normal via the Box-Muller transform.
    #[inline]
    pub(crate) fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Reject u1 == 0 so the logarithm stays finite.
        let mut u1 = self.next_f64();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.next_f64();
        }
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = core::f64::consts::TAU * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Draws from `N(mean, std^2)`.
    #[inline]
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.standard_normal()
    }

    /// Draws from a log-normal with the given parameters of the *underlying*
    /// normal (i.e. `exp(N(mu, sigma^2))`).
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Draws from an exponential distribution with the given rate (events
    /// per unit).
    ///
    /// Workload models validate their rates at construction, so a
    /// non-positive `rate` is a logic bug: debug builds assert, release
    /// builds return `0.0` (an immediate event) rather than unwinding
    /// the DES hot loop.
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0, "exponential rate must be positive");
        if !(rate > 0.0) {
            return 0.0;
        }
        let mut u = self.next_f64();
        while u <= f64::MIN_POSITIVE {
            u = self.next_f64();
        }
        -u.ln() / rate
    }

    /// Draws from a Pareto distribution with scale `xm` and shape `alpha`.
    ///
    /// Used for the heavy spike tail of frame processing times.
    ///
    /// As with [`Rng::exponential`], non-positive parameters are a logic
    /// bug caught by debug builds; release builds return `xm` (the
    /// distribution's lower bound) rather than unwinding.
    #[inline]
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        debug_assert!(
            xm > 0.0 && alpha > 0.0,
            "pareto parameters must be positive"
        );
        if !(xm > 0.0 && alpha > 0.0) {
            return xm;
        }
        let mut u = self.next_f64();
        while u <= f64::MIN_POSITIVE {
            u = self.next_f64();
        }
        xm / u.powf(1.0 / alpha)
    }

    /// Draws a duration whose length in seconds is log-normally distributed
    /// around `median` with multiplicative spread `sigma` (of the underlying
    /// normal).
    pub fn lognormal_duration(&mut self, median: Duration, sigma: f64) -> Duration {
        let secs = self.lognormal(median.as_secs_f64().max(1e-12).ln(), sigma);
        secs_f64(secs)
    }
}

/// The SplitMix64 finalizer (a strong 64-bit avalanche function).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for SplitMix64 seeded with 1234567,
        // cross-checked against the public-domain C implementation.
        let mut r = Rng::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn forked_streams_differ() {
        let parent = Rng::new(99);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn fork_does_not_advance_parent() {
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        let _ = a.fork(10);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let x = r.below(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut r = Rng::new(11);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.normal(5.0, 2.0);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let mut r = Rng::new(13);
        let mut xs: Vec<f64> = (0..50_001).map(|_| r.lognormal(2.0f64.ln(), 0.5)).collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[xs.len() / 2];
        assert!((median - 2.0).abs() < 0.05, "median {median}");
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut r = Rng::new(17);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn pareto_never_below_scale() {
        let mut r = Rng::new(19);
        for _ in 0..10_000 {
            assert!(r.pareto(3.0, 2.5) >= 3.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(23);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.1));
    }

    #[test]
    fn lognormal_duration_positive() {
        let mut r = Rng::new(29);
        for _ in 0..1000 {
            let d = r.lognormal_duration(Duration::from_millis(10), 0.4);
            assert!(d > Duration::ZERO);
            assert!(d < Duration::from_secs(1));
        }
    }
}
