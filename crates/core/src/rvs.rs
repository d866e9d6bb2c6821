//! Remote VSync (RVS) — the Liu et al. MobiSys'18 baseline (Section 2,
//! Section 4.1).
//!
//! RVS extends display VSync across the network: after decoding a frame,
//! the client measures the time difference between the end of decoding and
//! the *next vblank* of its display, and sends that difference to the
//! cloud, which delays rendering the next frame by `cc × diff` (the
//! empirically tuned "low-pass filter" constant `cc` compensates for the
//! feedback arriving a full uplink late).

use odr_simtime::{
    time::{nanos_to_secs, secs_to_nanos},
    SimTime,
};

/// Client-side vblank clock: vblanks fire at `t = k / refresh_hz`.
#[derive(Clone, Copy, Debug)]
pub struct VblankClock {
    /// The refresh period in nanoseconds, saturating at `u64::MAX`.
    period: u64,
}

impl VblankClock {
    /// Creates a clock for a display refreshing at `refresh_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `refresh_hz` is not strictly positive.
    #[must_use]
    pub fn new(refresh_hz: f64) -> Self {
        assert!(refresh_hz > 0.0, "refresh rate must be positive");
        VblankClock {
            period: secs_to_nanos(1.0 / refresh_hz),
        }
    }

    /// The first vblank at or after `now`.
    #[must_use]
    pub fn next_vblank(&self, now: SimTime) -> SimTime {
        // The refresh rate is validated positive at construction, so
        // the checked remainder never misses; an (impossible) zero
        // period degenerates to "vblank now".
        let p = self.period;
        let nanos = now.as_nanos();
        let rem = nanos.checked_rem(p).unwrap_or(0);
        if rem == 0 {
            now
        } else {
            SimTime::from_nanos(nanos - rem + p)
        }
    }

    /// The nanoseconds from `decode_end` to the next vblank — the
    /// quantity RVS feeds back to the cloud.
    #[must_use]
    pub fn nanos_to_vblank(&self, decode_end: SimTime) -> u64 {
        self.next_vblank(decode_end)
            .as_nanos()
            .saturating_sub(decode_end.as_nanos())
    }
}

/// Cloud-side RVS state: scales the latest feedback by `cc` and applies it
/// as a delay before the next frame's rendering.
///
/// # Examples
///
/// ```
/// use odr_core::RvsRegulator;
/// use odr_simtime::SimTime;
///
/// let rvs = RvsRegulator::new(100.0, 0.3);
/// // The client's display refreshes every 10 ms.
/// let vblank = rvs.clock().next_vblank(SimTime::from_nanos(3_000_000));
/// assert_eq!(vblank, SimTime::from_nanos(10_000_000));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct RvsRegulator {
    clock: VblankClock,
    cc: f64,
    feedback_weight: f64,
    /// The latest feedback, in nanoseconds.
    latest_diff: u64,
    latest_feedback_lag: u64,
}

impl RvsRegulator {
    /// Creates a regulator for a client display at `refresh_hz` with
    /// low-pass constant `cc`.
    ///
    /// # Panics
    ///
    /// Panics if `cc` is outside `(0, 1]`.
    #[must_use]
    pub fn new(refresh_hz: f64, cc: f64) -> Self {
        assert!(cc > 0.0 && cc <= 1.0, "cc must be in (0, 1]");
        RvsRegulator {
            clock: VblankClock::new(refresh_hz),
            cc,
            feedback_weight: 0.5,
            latest_diff: 0,
            latest_feedback_lag: 0,
        }
    }

    /// Sets the weight of the feedback-path overhead term (see
    /// [`RvsRegulator::render_delay`]). The paper's Section 4.1 analysis
    /// attributes RVS's FPS loss to this "long feedback path"; the weight
    /// captures how much of the (stale) feedback lag leaks into the pacing
    /// of the next frame.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative.
    #[must_use]
    pub(crate) fn with_feedback_weight(mut self, weight: f64) -> Self {
        assert!(weight >= 0.0, "feedback weight must be non-negative");
        self.feedback_weight = weight;
        self
    }

    /// The client-side vblank clock for this configuration.
    #[must_use]
    pub fn clock(&self) -> VblankClock {
        self.clock
    }

    /// Records a decode-to-vblank difference received from the client,
    /// together with the age of that measurement (time from the referenced
    /// frame's rendering to the feedback's arrival at the cloud — one whole
    /// pipeline traversal plus an uplink), both in nanoseconds.
    pub fn on_feedback(&mut self, diff_ns: u64, feedback_lag_ns: u64) {
        self.latest_diff = diff_ns;
        self.latest_feedback_lag = feedback_lag_ns;
    }

    /// The delay to apply before rendering the next frame:
    /// `cc × diff + feedback_weight × feedback_lag`.
    ///
    /// The first term is the paper's phase correction (10 ms feedback →
    /// ~3 ms delay in Figure 5c). The second models the cost of pacing on
    /// stale feedback: the longer the feedback path, the further the next
    /// render is pushed out, which is why RVS stays below the refresh rate
    /// on a 60 Hz display and below NoReg's rate on a 240 Hz display.
    /// In nanoseconds, rounded as [`secs_to_nanos`] rounds.
    #[must_use]
    pub(crate) fn render_delay(&self) -> u64 {
        secs_to_nanos(
            nanos_to_secs(self.latest_diff) * self.cc
                + nanos_to_secs(self.latest_feedback_lag) * self.feedback_weight,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_simtime::Duration;

    #[test]
    fn vblank_grid_60hz() {
        let c = VblankClock::new(60.0);
        let t = SimTime::from_nanos(20_000_000); // 20 ms
        let v = c.next_vblank(t);
        // Next 60 Hz vblank after 20 ms is at 2/60 s ≈ 33.333 ms.
        assert!((v.as_secs_f64() * 1e3 - 33.333).abs() < 0.01);
    }

    #[test]
    fn vblank_on_boundary_is_now() {
        let c = VblankClock::new(100.0);
        let t = SimTime::from_nanos(30_000_000);
        assert_eq!(c.next_vblank(t), t);
        assert_eq!(c.nanos_to_vblank(t), 0);
    }

    #[test]
    fn time_to_vblank_bounded_by_period() {
        let c = VblankClock::new(240.0);
        for i in 0..1000u64 {
            let t = SimTime::from_nanos(i * 1_731_917);
            assert!(c.nanos_to_vblank(t) <= c.period);
        }
    }

    #[test]
    fn feedback_is_scaled_by_cc() {
        let mut r = RvsRegulator::new(60.0, 0.3).with_feedback_weight(0.0);
        assert_eq!(r.render_delay(), 0);
        r.on_feedback(10_000_000, 20_000_000);
        assert_eq!(r.render_delay(), 3_000_000);
        r.on_feedback(4_000_000, 20_000_000);
        assert_eq!(r.render_delay(), 1_200_000);
    }

    #[test]
    fn feedback_lag_adds_overhead() {
        let mut r = RvsRegulator::new(240.0, 0.3).with_feedback_weight(0.5);
        r.on_feedback(2_000_000, 20_000_000);
        // 0.3 × 2 ms + 0.5 × 20 ms = 10.6 ms.
        assert_eq!(r.render_delay(), 10_600_000);
    }

    #[test]
    fn longer_feedback_path_means_longer_delay() {
        let mut lan = RvsRegulator::new(60.0, 0.3);
        let mut wan = RvsRegulator::new(60.0, 0.3);
        lan.on_feedback(5_000_000, 18_000_000);
        wan.on_feedback(5_000_000, 45_000_000);
        assert!(wan.render_delay() > lan.render_delay());
    }

    #[test]
    fn higher_refresh_gives_smaller_diffs() {
        let c60 = VblankClock::new(60.0);
        let c240 = VblankClock::new(240.0);
        let t = SimTime::from_nanos(1_234_567);
        assert!(c240.nanos_to_vblank(t) <= c60.nanos_to_vblank(t));
    }

    #[test]
    fn the_nanosecond_delay_is_the_duration_delay() {
        let mut rng = odr_simtime::Rng::new(37);
        for weight in [0.0, 0.12, 0.35, 0.5] {
            let mut r = RvsRegulator::new(60.0, 0.3).with_feedback_weight(weight);
            for _ in 0..20_000 {
                // Feedback on both sides of a second.
                let span = |rng: &mut odr_simtime::Rng| match rng.below(3) {
                    0 => 1_000_000_000 + rng.below(4_000_000_000),
                    _ => rng.below(1_000_000_000),
                };
                let (diff, lag) = (span(&mut rng), span(&mut rng));
                r.on_feedback(diff, lag);
                // The delay as it was computed before, through `Duration`.
                let before = odr_simtime::time::secs_f64(
                    Duration::from_nanos(diff).as_secs_f64() * 0.3
                        + Duration::from_nanos(lag).as_secs_f64() * weight,
                );
                let at = SimTime::from_nanos(rng.below(1 << 40));
                assert_eq!(at.add_nanos(r.render_delay()), at + before);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cc must be in")]
    fn cc_out_of_range_panics() {
        let _ = RvsRegulator::new(60.0, 1.5);
    }
}
