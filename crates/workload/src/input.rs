//! User-input arrival model.

use odr_simtime::{Rng, SimTime};

/// Generates the stream of *priority* user inputs (clicks, key presses,
/// deliberate headset gestures) for one session.
///
/// Section 5.3 of the paper observes that ordinary players produce well
/// under 250 actions per minute, i.e. fewer than ~5 priority inputs per
/// second, and that high-frequency position/posture *polling* events are
/// combined by the applications themselves and therefore are neither
/// prioritised nor measured for motion-to-photon latency. Accordingly this
/// model emits only the deliberate inputs, as a Poisson process with a
/// per-benchmark rate in the paper's observed 2–5 Hz band (average 3.6).
///
/// # Examples
///
/// ```
/// use odr_simtime::{Rng, SimTime};
/// use odr_workload::InputModel;
///
/// let model = InputModel::new(4.0);
/// let mut rng = Rng::new(1);
/// let first = model.next_after(SimTime::ZERO, &mut rng);
/// let second = model.next_after(first, &mut rng);
/// assert!(second > first);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct InputModel {
    /// Mean priority inputs per second.
    pub rate_hz: f64,
}

impl InputModel {
    /// Creates a model emitting `rate_hz` priority inputs per second.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive.
    #[must_use]
    pub fn new(rate_hz: f64) -> Self {
        assert!(rate_hz > 0.0, "input rate must be positive");
        InputModel { rate_hz }
    }

    /// Returns the arrival time of the next input strictly after `now`.
    #[inline]
    pub fn next_after(&self, now: SimTime, rng: &mut Rng) -> SimTime {
        let gap = rng.exponential(self.rate_hz).max(1e-4);
        now.add_secs_f64(gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_respected() {
        let m = InputModel::new(3.6);
        let mut rng = Rng::new(21);
        let mut t = SimTime::ZERO;
        let mut count = 0u32;
        while t < SimTime::from_secs(1000) {
            t = m.next_after(t, &mut rng);
            count += 1;
        }
        let rate = f64::from(count) / 1000.0;
        assert!((rate - 3.6).abs() < 0.2, "rate {rate}");
    }

    #[test]
    fn arrivals_strictly_increase() {
        let m = InputModel::new(5.0);
        let mut rng = Rng::new(23);
        let mut t = SimTime::ZERO;
        for _ in 0..1000 {
            let next = m.next_after(t, &mut rng);
            assert!(next > t);
            t = next;
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = InputModel::new(0.0);
    }
}
