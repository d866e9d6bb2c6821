//! Baseline interval-based regulation (the paper's Int60/Int30/IntMax).

use odr_simtime::{time::secs_f64, Duration, SimTime};

/// Fixed-grid interval pacing in the application main loop (Section 2,
/// "interval-based" FPS regulation): each frame's rendering is delayed so
/// it starts at the beginning of a regular interval.
///
/// # Examples
///
/// ```
/// use odr_core::IntervalPacer;
/// use odr_simtime::Duration;
///
/// let p = IntervalPacer::new(50.0);
/// // Frames start on a 20 ms grid.
/// assert_eq!(p.interval(), Duration::from_millis(20));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct IntervalPacer {
    interval: Duration,
}

impl IntervalPacer {
    /// Creates a pacer targeting `target_fps`.
    ///
    /// # Panics
    ///
    /// Panics if `target_fps` is not strictly positive.
    #[must_use]
    pub fn new(target_fps: f64) -> Self {
        assert!(target_fps > 0.0, "target FPS must be positive");
        IntervalPacer {
            interval: secs_f64(1.0 / target_fps),
        }
    }

    /// The pacing interval.
    #[must_use]
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Returns when a frame that is ready at `now` may start rendering:
    /// `now` itself if it falls exactly on a grid boundary, otherwise the
    /// next boundary, or [`SimTime::MAX`] if that is past any
    /// representable instant.
    #[must_use]
    pub(crate) fn frame_start(&mut self, now: SimTime) -> SimTime {
        // The interval is validated positive at construction, so the
        // checked remainder never misses; an (impossible) zero interval
        // degenerates to "start immediately".
        let iv = odr_simtime::time::duration_nanos(self.interval);
        let nanos = now.as_nanos();
        let rem = nanos.checked_rem(iv).unwrap_or(0);
        if rem == 0 {
            now
        } else {
            SimTime::from_nanos((nanos - rem).saturating_add(iv))
        }
    }
}

/// The FPS-maximising adaptation of interval regulation (IntMax,
/// Section 4.1): the cloud reduces its rendering rate to match the
/// *observed* client rate.
///
/// The mechanism is a ratchet, which is exactly why the paper finds IntMax
/// converges to a low rate: the client estimate arrives late (one network
/// round trip) and smoothed, and since the client can never decode faster
/// than the cloud renders, the estimate only chases the interval downward.
/// Each spike pushes the interval up quickly; the deliberately slow
/// recovery (the paper: IntMax "cannot re-adjust its rendering rate when a
/// sudden increase of processing time passes") wins back almost nothing.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveIntervalPacer {
    pacer: IntervalPacer,
    /// Smoothed client-rate estimate in frames per second.
    client_fps_estimate: f64,
    /// EWMA weight for new feedback.
    gain: f64,
    /// Relative FPS shortfall below the current pace that counts as a
    /// still-existing gap and triggers an immediate back-off.
    tolerance: f64,
    /// Fractional interval reduction applied per gap-free feedback — the
    /// slow probe back toward higher rates.
    recovery: f64,
    /// Hard floor on the interval (the initial, unregulated-capability
    /// estimate).
    min_interval: Duration,
}

impl AdaptiveIntervalPacer {
    /// Creates an adaptive pacer that starts at `initial_fps` (the cloud's
    /// unregulated capability).
    ///
    /// # Panics
    ///
    /// Panics if `initial_fps` is not strictly positive.
    #[must_use]
    pub fn new(initial_fps: f64) -> Self {
        assert!(initial_fps > 0.0, "initial FPS must be positive");
        AdaptiveIntervalPacer {
            pacer: IntervalPacer::new(initial_fps),
            client_fps_estimate: initial_fps,
            gain: 0.25,
            tolerance: 0.05,
            recovery: 0.02,
            min_interval: secs_f64(1.0 / initial_fps),
        }
    }

    /// The pace in frames per second implied by the current interval.
    #[cfg(test)]
    pub(crate) fn pace_fps(&self) -> f64 {
        1.0 / self.pacer.interval().as_secs_f64()
    }

    /// Feeds back a client-side FPS measurement (delivered over the
    /// network, so inherently stale).
    ///
    /// If the client fell measurably short of the pace (a still-existing
    /// FPS gap), the pace backs off to the client estimate immediately.
    /// Otherwise the pacer probes slightly faster. The asymmetry — fast
    /// back-off, slow probe through a stale, smoothed estimate — is the
    /// ratchet that leaves IntMax far below the achievable rate once
    /// processing-time spikes keep re-triggering back-offs (Section 4.1).
    pub fn on_client_feedback(&mut self, client_fps: f64) {
        if !(client_fps.is_finite() && client_fps > 0.0) {
            return;
        }
        self.client_fps_estimate =
            (1.0 - self.gain) * self.client_fps_estimate + self.gain * client_fps;

        let current = self.pacer.interval().as_secs_f64();
        let pace = 1.0 / current;
        let next = if self.client_fps_estimate < pace * (1.0 - self.tolerance) {
            // Still-existing gap: match the client rate immediately.
            1.0 / self.client_fps_estimate
        } else {
            // No gap observed: probe slightly faster.
            current * (1.0 - self.recovery)
        };
        let next = next.max(self.min_interval.as_secs_f64());
        // `next` is clamped to the positive `min_interval`.
        self.pacer = IntervalPacer {
            interval: secs_f64(next),
        };
    }

    /// Returns when a frame ready at `now` may start rendering.
    #[must_use]
    pub(crate) fn frame_start(&mut self, now: SimTime) -> SimTime {
        self.pacer.frame_start(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_alignment() {
        let mut p = IntervalPacer::new(100.0); // 10 ms grid
        assert_eq!(p.frame_start(SimTime::ZERO), SimTime::ZERO);
        assert_eq!(
            p.frame_start(SimTime::from_nanos(10_000_000)),
            SimTime::from_nanos(10_000_000)
        );
        assert_eq!(
            p.frame_start(SimTime::from_nanos(10_000_001)),
            SimTime::from_nanos(20_000_000)
        );
        assert_eq!(
            p.frame_start(SimTime::from_nanos(19_999_999)),
            SimTime::from_nanos(20_000_000)
        );
    }

    #[test]
    fn a_tiny_positive_target_saturates_instead_of_panicking() {
        let mut p = IntervalPacer::new(1e-300);
        assert_eq!(p.interval(), Duration::MAX);
        // Past tick 0, the next tick is beyond any representable instant.
        assert_eq!(p.frame_start(SimTime::from_nanos(1)), SimTime::MAX);
        // So is the tick after a late instant on a coarse grid.
        let mut p = IntervalPacer::new(1.0 / 9.0e9);
        assert_eq!(
            p.frame_start(SimTime::from_nanos(u64::MAX - 1)),
            SimTime::MAX
        );
    }

    #[test]
    fn sixty_fps_interval() {
        let p = IntervalPacer::new(60.0);
        let ms = p.interval().as_secs_f64() * 1e3;
        assert!((ms - 16.666).abs() < 0.01, "interval {ms} ms");
    }

    #[test]
    fn adaptive_backs_off_fast() {
        let mut a = AdaptiveIntervalPacer::new(100.0);
        // Client suddenly reports 50 fps.
        for _ in 0..20 {
            a.on_client_feedback(50.0);
        }
        assert!(a.pace_fps() < 55.0, "fps {}", a.pace_fps());
    }

    #[test]
    fn adaptive_recovers_slowly() {
        let mut a = AdaptiveIntervalPacer::new(100.0);
        for _ in 0..20 {
            a.on_client_feedback(50.0);
        }
        let slow = a.pace_fps();
        // The client now keeps up perfectly; after the same number of
        // feedbacks the probe has recovered only a small fraction.
        for _ in 0..20 {
            let pace = a.pace_fps();
            a.on_client_feedback(pace);
        }
        let recovered = a.pace_fps();
        assert!(recovered > slow);
        assert!(recovered < 75.0, "recovered too fast: {recovered}");
    }

    #[test]
    fn adaptive_ratchet_under_repeated_spikes() {
        // Mostly the client matches the pace, but every few feedbacks a
        // spike knocks the client rate down. The ratchet must trend the
        // pace down far below the capability.
        let mut a = AdaptiveIntervalPacer::new(100.0);
        for round in 0..200 {
            let pace_fps = a.pace_fps();
            if round % 5 == 4 {
                a.on_client_feedback(pace_fps * 0.6); // spike window
            } else {
                a.on_client_feedback(pace_fps); // keeping up exactly
            }
        }
        assert!(a.pace_fps() < 60.0, "ratchet failed: {}", a.pace_fps());
    }

    #[test]
    fn adaptive_never_exceeds_initial() {
        let mut a = AdaptiveIntervalPacer::new(80.0);
        for _ in 0..100 {
            a.on_client_feedback(500.0);
        }
        assert!(a.pace_fps() <= 80.0 + 1e-9, "fps {}", a.pace_fps());
    }

    #[test]
    fn adaptive_ignores_bad_feedback() {
        let mut a = AdaptiveIntervalPacer::new(100.0);
        let before = a.pacer.interval();
        a.on_client_feedback(f64::NAN);
        a.on_client_feedback(-5.0);
        a.on_client_feedback(0.0);
        assert_eq!(a.pacer.interval(), before);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_initial_panics() {
        let _ = AdaptiveIntervalPacer::new(0.0);
    }
}
