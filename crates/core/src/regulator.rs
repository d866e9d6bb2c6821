//! ODR's FPS regulator — Algorithm 1 of the paper — and its proxy loop.

use odr_obs::{names, track, Event, Recorder};
use odr_simtime::{time::secs_f64, Duration, SimTime};

use crate::spec::{FpsGoal, RegulationSpec};

/// The accumulated-delay pacing loop the server proxy runs around frame
/// encoding (Algorithm 1).
///
/// After each frame, the regulator accumulates
/// `acc_delay += interval − processing_time`. A positive balance means the
/// proxy is running ahead of the FPS target and must sleep for the balance;
/// a negative balance means it is behind and must *accelerate*: keep
/// processing back-to-back, with no sleep, until the debt is repaid. This
/// accelerate-and-delay symmetry is what distinguishes ODR from
/// delay-only regulators and lets it meet the target over every small
/// window despite processing-time spikes (Section 5.2).
///
/// # Examples
///
/// ```
/// use core::time::Duration;
/// use odr_core::FpsRegulator;
///
/// let mut reg = FpsRegulator::new(60.0); // 16.67 ms interval
///
/// // A fast frame: sleep the remainder of the interval.
/// let sleep = reg.on_frame_processed(Duration::from_millis(10));
/// assert!(sleep > Duration::from_millis(6) && sleep < Duration::from_millis(7));
///
/// // A 30 ms spike puts us ~13 ms in debt...
/// assert_eq!(reg.on_frame_processed(Duration::from_millis(30)), Duration::ZERO);
/// // ...so the next fast frame is NOT delayed (acceleration).
/// assert_eq!(reg.on_frame_processed(Duration::from_millis(10)), Duration::ZERO);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FpsRegulator {
    /// Expected per-frame interval; `None` disables pacing (ODRMax).
    interval: Option<Duration>,
    /// Accumulated delay in seconds. Positive: ahead of target (sleep).
    /// Negative: behind target (accelerate).
    acc_delay: f64,
    /// Floor on `acc_delay`; `f64::NEG_INFINITY` reproduces Algorithm 1
    /// exactly. See [`FpsRegulator::with_max_debt`].
    debt_floor: f64,
    /// When `false`, negative balances are clamped to zero — the delay-only
    /// ablation, which degenerates to interval-style pacing.
    accelerate: bool,
    frames: u64,
    slept: f64,
}

impl FpsRegulator {
    /// Creates a regulator for `target_fps` frames per second.
    ///
    /// # Panics
    ///
    /// Panics if `target_fps` is not strictly positive.
    #[must_use]
    pub fn new(target_fps: f64) -> Self {
        assert!(target_fps > 0.0, "target FPS must be positive");
        FpsRegulator {
            interval: Some(secs_f64(1.0 / target_fps)),
            acc_delay: 0.0,
            debt_floor: f64::NEG_INFINITY,
            accelerate: true,
            frames: 0,
            slept: 0.0,
        }
    }

    /// Creates a no-op regulator: never sleeps. Used for the ODRMax goal,
    /// where the multi-buffers alone pace the pipeline to the slowest
    /// stage.
    #[must_use]
    pub fn unlimited() -> Self {
        FpsRegulator {
            interval: None,
            acc_delay: 0.0,
            debt_floor: f64::NEG_INFINITY,
            accelerate: true,
            frames: 0,
            slept: 0.0,
        }
    }

    /// Bounds how much acceleration debt may accumulate, as a number of
    /// intervals. Algorithm 1 is unbounded; a bound prevents a pathological
    /// multi-second stall (e.g. a network outage) from turning into an
    /// equally long full-speed sprint.
    ///
    /// # Panics
    ///
    /// Panics if `intervals` is not strictly positive.
    #[must_use]
    pub fn with_max_debt(mut self, intervals: f64) -> Self {
        assert!(intervals > 0.0, "debt bound must be positive");
        if let Some(iv) = self.interval {
            self.debt_floor = -(iv.as_secs_f64() * intervals);
        }
        self
    }

    /// Disables acceleration: a negative balance is forgotten instead of
    /// repaid. This is the delay-only ablation that reproduces the failure
    /// mode of interval-based regulation (Section 4.1).
    #[must_use]
    pub fn delay_only(mut self) -> Self {
        self.accelerate = false;
        self
    }

    /// Reports that one frame took `processing` to handle and returns how
    /// long the proxy must now sleep (possibly zero).
    pub fn on_frame_processed(&mut self, processing: Duration) -> Duration {
        self.frames += 1;
        let Some(interval) = self.interval else {
            return Duration::ZERO;
        };
        let time_diff = interval.as_secs_f64() - processing.as_secs_f64();
        self.acc_delay += time_diff;
        if !self.accelerate {
            self.acc_delay = self.acc_delay.max(0.0);
        }
        self.acc_delay = self.acc_delay.max(self.debt_floor);
        if self.acc_delay > 0.0 {
            let sleep = self.acc_delay;
            self.acc_delay = 0.0;
            self.slept += sleep;
            secs_f64(sleep)
        } else {
            Duration::ZERO
        }
    }

    /// [`FpsRegulator::on_frame_processed`] plus an observability record:
    /// emits the post-frame `acc_delay` balance as a counter sample and a
    /// delay/accelerate instant describing the decision, stamped `now_ns`
    /// on the regulator track. The regulation arithmetic is exactly the
    /// unrecorded method's — recording never changes a decision.
    pub(crate) fn on_frame_processed_recorded(
        &mut self,
        processing: Duration,
        now_ns: u64,
        recorder: &dyn Recorder,
    ) -> Duration {
        let sleep = self.on_frame_processed(processing);
        if recorder.enabled() {
            recorder.record(Event::counter(
                now_ns,
                track::REGULATOR,
                names::REG_ACC_DELAY,
                self.acc_delay,
            ));
            if sleep > Duration::ZERO {
                recorder.record(
                    Event::instant(now_ns, track::REGULATOR, names::REG_DELAY)
                        .with_value(sleep.as_secs_f64()),
                );
            } else if self.acc_delay < 0.0 {
                recorder.record(
                    Event::instant(now_ns, track::REGULATOR, names::REG_ACCELERATE)
                        .with_value(-self.acc_delay),
                );
            }
        }
        sleep
    }

    /// PriorityFrame hook: the regulator sleep for the current frame is
    /// cancelled; the skipped delay is *not* forgotten, it stays in the
    /// balance so the long-run FPS target is unaffected.
    pub fn cancel_pending_sleep(&mut self, remaining: Duration) {
        self.acc_delay += remaining.as_secs_f64();
        self.slept -= remaining.as_secs_f64();
    }

    /// [`FpsRegulator::cancel_pending_sleep`] plus an observability record
    /// of the cancellation and the balance it restored.
    pub(crate) fn cancel_pending_sleep_recorded(
        &mut self,
        remaining: Duration,
        now_ns: u64,
        recorder: &dyn Recorder,
    ) {
        self.cancel_pending_sleep(remaining);
        if recorder.enabled() {
            recorder.record(
                Event::instant(now_ns, track::REGULATOR, names::REG_CANCEL)
                    .with_value(remaining.as_secs_f64()),
            );
            recorder.record(Event::counter(
                now_ns,
                track::REGULATOR,
                names::REG_ACC_DELAY,
                self.acc_delay,
            ));
        }
    }

    /// The configured interval, if any.
    #[must_use]
    pub fn interval(&self) -> Option<Duration> {
        self.interval
    }

    /// Current accumulated balance in seconds (positive = ahead).
    #[must_use]
    pub fn balance_secs(&self) -> f64 {
        self.acc_delay
    }

    /// Number of frames reported.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Total time spent sleeping, in seconds.
    #[must_use]
    pub fn total_slept_secs(&self) -> f64 {
        self.slept
    }
}

/// Algorithm 1 as the proxy loop steps it, in [`SimTime`] nanoseconds;
/// the simulator and the served proxy thread both drive this one object.
/// An iteration runs from the end of the last delay until the frame
/// leaves the proxy, so waiting for a late frame counts: acceleration
/// repays render stalls too, not only slow encodes (Figure 5d).
#[derive(Clone, Copy, Debug)]
pub struct ProxyCycle {
    regulator: FpsRegulator,
    /// The iteration's start; during a delay, the delay's end.
    start: SimTime,
}

impl ProxyCycle {
    /// The proxy loop of `spec` from `start`: ODR with a target regulates
    /// (debt bounded at 30 intervals, delay-only without acceleration);
    /// nothing else ever delays.
    ///
    /// # Panics
    ///
    /// Panics if the ODR target is not strictly positive.
    #[must_use]
    pub fn new(spec: RegulationSpec, start: SimTime) -> Self {
        let regulator = match spec {
            RegulationSpec::Odr {
                goal: FpsGoal::Target(fps),
                options,
            } => {
                let r = FpsRegulator::new(fps).with_max_debt(30.0);
                if options.accelerate {
                    r
                } else {
                    r.delay_only()
                }
            }
            _ => FpsRegulator::unlimited(),
        };
        ProxyCycle { regulator, start }
    }

    /// The frame left the proxy at `now`. Returns when the delay before
    /// the next iteration ends, or `None` to go on at once; a delay that
    /// a waiting PriorityFrame would sit behind is skipped and stays in
    /// the balance.
    pub fn frame_out(
        &mut self,
        now: SimTime,
        priority_waiting: bool,
        recorder: &dyn Recorder,
    ) -> Option<SimTime> {
        let (processing, at) = (now.saturating_since(self.start), now.as_nanos());
        let delay = self
            .regulator
            .on_frame_processed_recorded(processing, at, recorder);
        self.start = now;
        if delay.is_zero() {
            return None;
        }
        if priority_waiting {
            self.regulator
                .cancel_pending_sleep_recorded(delay, at, recorder);
            return None;
        }
        self.start = now + delay;
        Some(self.start)
    }

    /// The delay ran out at `now`; the next iteration starts.
    pub fn woke(&mut self, now: SimTime) {
        self.start = now;
    }

    /// A PriorityFrame or a close cut the delay at `now`: what was left of
    /// it goes back into the balance, and the next iteration starts.
    pub fn cut(&mut self, now: SimTime, recorder: &dyn Recorder) {
        let left = self.start.saturating_since(now);
        self.regulator
            .cancel_pending_sleep_recorded(left, now.as_nanos(), recorder);
        self.start = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_obs::NullRecorder;

    const MS: Duration = Duration::from_millis(1);

    fn ms(n: u64) -> Duration {
        MS * u32::try_from(n).expect("small")
    }

    #[test]
    fn a_tiny_positive_target_saturates_instead_of_panicking() {
        let r = FpsRegulator::new(1e-300);
        assert_eq!(r.interval(), Some(Duration::MAX));
    }

    #[test]
    fn fast_frames_sleep_remainder() {
        let mut r = FpsRegulator::new(100.0); // 10 ms interval
        let sleep = r.on_frame_processed(ms(4));
        assert_eq!(sleep, ms(6));
        assert_eq!(r.balance_secs(), 0.0);
    }

    #[test]
    fn exact_interval_never_sleeps() {
        let mut r = FpsRegulator::new(100.0);
        for _ in 0..100 {
            assert_eq!(r.on_frame_processed(ms(10)), Duration::ZERO);
        }
    }

    #[test]
    fn spike_is_repaid_by_acceleration() {
        let mut r = FpsRegulator::new(100.0);
        // 30 ms spike: 20 ms debt.
        assert_eq!(r.on_frame_processed(ms(30)), Duration::ZERO);
        // Two 4 ms frames repay 6 ms each: still in debt, no sleep.
        assert_eq!(r.on_frame_processed(ms(4)), Duration::ZERO);
        assert_eq!(r.on_frame_processed(ms(4)), Duration::ZERO);
        // Debt is now 20 − 12 = 8 ms; a 4 ms frame clears 6 more...
        assert_eq!(r.on_frame_processed(ms(4)), Duration::ZERO);
        // ...leaving 2 ms; the next 4 ms frame flips the balance positive
        // by 4 ms and sleeps it.
        assert_eq!(r.on_frame_processed(ms(4)), ms(4));
    }

    #[test]
    fn long_run_rate_meets_target_under_spikes() {
        // Alternating 2 ms and 22 ms frames (mean 12 ms < 16.6 ms): the
        // regulator must average exactly 60 fps.
        let mut r = FpsRegulator::new(60.0);
        let mut elapsed = 0.0;
        let n = 10_000;
        for i in 0..n {
            let work = if i % 2 == 0 { ms(2) } else { ms(22) };
            elapsed += work.as_secs_f64();
            elapsed += r.on_frame_processed(work).as_secs_f64();
        }
        let fps = f64::from(n) / elapsed;
        assert!((fps - 60.0).abs() < 0.1, "fps {fps}");
    }

    #[test]
    fn delay_only_misses_target_under_spikes() {
        // Same workload, delay-only: every spike's overrun is lost, so the
        // achieved FPS falls below 60 (the Int60 failure mode).
        let mut r = FpsRegulator::new(60.0).delay_only();
        let mut elapsed = 0.0;
        let n = 10_000;
        for i in 0..n {
            let work = if i % 2 == 0 { ms(2) } else { ms(22) };
            elapsed += work.as_secs_f64();
            elapsed += r.on_frame_processed(work).as_secs_f64();
        }
        let fps = f64::from(n) / elapsed;
        assert!(fps < 58.0, "fps {fps}");
    }

    #[test]
    fn unlimited_never_sleeps() {
        let mut r = FpsRegulator::unlimited();
        assert_eq!(r.on_frame_processed(ms(1)), Duration::ZERO);
        assert_eq!(r.on_frame_processed(ms(100)), Duration::ZERO);
        assert_eq!(r.interval(), None);
    }

    #[test]
    fn debt_floor_caps_sprint() {
        let mut r = FpsRegulator::new(100.0).with_max_debt(2.0); // floor −20 ms
                                                                 // A 500 ms stall would be 490 ms of debt unbounded.
        assert_eq!(r.on_frame_processed(ms(500)), Duration::ZERO);
        assert!((r.balance_secs() + 0.020).abs() < 1e-12);
        // Repaying 20 ms takes two 0 ms frames at 10 ms credit each.
        assert_eq!(r.on_frame_processed(Duration::ZERO), Duration::ZERO);
        assert_eq!(r.on_frame_processed(Duration::ZERO), Duration::ZERO);
        // Now balanced: next instant frame sleeps a full interval.
        assert_eq!(r.on_frame_processed(Duration::ZERO), ms(10));
    }

    #[test]
    fn cancel_pending_sleep_preserves_balance() {
        let mut r = FpsRegulator::new(100.0);
        let sleep = r.on_frame_processed(ms(2)); // 8 ms sleep granted
        assert_eq!(sleep, ms(8));
        // A priority frame arrives 3 ms into the sleep: 5 ms remain.
        r.cancel_pending_sleep(ms(5));
        assert!((r.balance_secs() - 0.005).abs() < 1e-12);
        // The balance is paid back on the next frame.
        let next = r.on_frame_processed(ms(10));
        assert_eq!(next, ms(5));
    }

    #[test]
    fn counters_track_activity() {
        let mut r = FpsRegulator::new(50.0);
        r.on_frame_processed(ms(10));
        r.on_frame_processed(ms(10));
        assert_eq!(r.frames(), 2);
        assert!((r.total_slept_secs() - 0.020).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "target FPS must be positive")]
    fn zero_fps_panics() {
        let _ = FpsRegulator::new(0.0);
    }

    /// 64 FPS: every interval and work time below is a binary fraction
    /// of a second, so the balance arithmetic is exact.
    const IV: Duration = Duration::from_micros(15_625);
    const WORK: Duration = Duration::from_nanos(3_906_250);

    fn odr64() -> ProxyCycle {
        ProxyCycle::new(RegulationSpec::odr(FpsGoal::Target(64.0)), SimTime::ZERO)
    }

    fn at(d: Duration) -> SimTime {
        SimTime::ZERO + d
    }

    #[test]
    fn a_fast_frame_is_delayed_by_the_rest_of_the_interval() {
        let mut c = odr64();
        assert_eq!(c.frame_out(at(WORK), false, &NullRecorder), Some(at(IV)));
        c.woke(at(IV));
        assert_eq!(
            c.frame_out(at(IV + WORK), false, &NullRecorder),
            Some(at(IV * 2))
        );
    }

    #[test]
    fn a_stall_of_k_intervals_is_repaid_by_k_minus_one_undelayed_frames() {
        let mut c = odr64();
        // The first frame leaves 4 intervals after the iteration began
        // (waiting for a late render counts)...
        let late = at(IV * 4);
        assert_eq!(c.frame_out(late, false, &NullRecorder), None);
        // ...so the 3 intervals of debt let 3 more go at once...
        for _ in 0..3 {
            assert_eq!(c.frame_out(late, false, &NullRecorder), None);
        }
        // ...and the next is delayed a whole interval.
        assert_eq!(c.frame_out(late, false, &NullRecorder), Some(late + IV));
    }

    #[test]
    fn a_waiting_priority_frame_skips_the_delay_and_keeps_the_balance() {
        let mut c = odr64();
        assert_eq!(c.frame_out(at(WORK), true, &NullRecorder), None);
        // The skipped delay is paid after the next frame: both frames
        // together take two intervals.
        assert_eq!(
            c.frame_out(at(WORK * 2), false, &NullRecorder),
            Some(at(IV * 2))
        );
    }

    #[test]
    fn a_cut_restores_exactly_what_was_left_of_the_delay() {
        let mut c = odr64();
        assert_eq!(c.frame_out(at(WORK), false, &NullRecorder), Some(at(IV)));
        // Cut at 2 × WORK, with IV − 2 × WORK left: the next frame's delay
        // gets it back, and the pair still spans two intervals.
        c.cut(at(WORK * 2), &NullRecorder);
        assert!((c.regulator.balance_secs() - (IV - WORK * 2).as_secs_f64()).abs() < 1e-15);
        assert_eq!(
            c.frame_out(at(WORK * 3), false, &NullRecorder),
            Some(at(IV * 2))
        );
    }

    #[test]
    fn only_odr_with_a_target_regulates() {
        let delays = |spec| {
            let mut c = ProxyCycle::new(spec, SimTime::ZERO);
            c.frame_out(at(WORK), false, &NullRecorder)
        };
        assert_eq!(
            delays(RegulationSpec::odr(FpsGoal::Target(64.0))),
            Some(at(IV))
        );
        for spec in [
            RegulationSpec::NoReg,
            RegulationSpec::interval(64.0),
            RegulationSpec::rvs(FpsGoal::Target(64.0)),
            RegulationSpec::odr(FpsGoal::Max),
        ] {
            assert_eq!(delays(spec), None, "{spec}");
        }
    }

    #[test]
    fn recorded_variant_matches_unrecorded_and_emits_events() {
        use odr_obs::{names, Kind, Recorder, RingRecorder};

        let ring = RingRecorder::default();
        let mut plain = FpsRegulator::new(100.0).with_max_debt(30.0);
        let mut recorded =
            ProxyCycle::new(RegulationSpec::odr(FpsGoal::Target(100.0)), SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for work in [ms(4), ms(30), ms(4)] {
            now += work;
            let delay = plain.on_frame_processed(work);
            let until = recorded.frame_out(now, false, &ring);
            assert_eq!(
                until,
                (!delay.is_zero()).then(|| now + delay),
                "recording must not change decisions"
            );
            if let Some(until) = until {
                now = until;
                recorded.woke(now);
            }
        }
        assert_eq!(plain.balance_secs(), recorded.regulator.balance_secs());

        let events = ring.drain().events;
        // Every frame samples acc_delay; decisions add delay/accelerate.
        let samples = events
            .iter()
            .filter(|e| e.kind == Kind::Counter && e.name == names::REG_ACC_DELAY)
            .count();
        assert_eq!(samples, 3);
        assert!(events.iter().any(|e| e.name == names::REG_DELAY));
        assert!(events.iter().any(|e| e.name == names::REG_ACCELERATE));
    }

    #[test]
    fn recorded_cancel_emits_priority_cancel() {
        use odr_obs::{names, Recorder, RingRecorder};

        let ring = RingRecorder::default();
        let mut c = ProxyCycle::new(RegulationSpec::odr(FpsGoal::Target(100.0)), SimTime::ZERO);
        // 8 ms of delay until 10 ms; cut at 5 ms, 5 ms left.
        let until = c.frame_out(SimTime::ZERO + ms(2), false, &ring);
        assert_eq!(until, Some(SimTime::ZERO + ms(10)));
        c.cut(SimTime::ZERO + ms(5), &ring);
        assert!((c.regulator.balance_secs() - 0.005).abs() < 1e-12);
        let events = ring.drain().events;
        assert!(events.iter().any(|e| e.name == names::REG_CANCEL));
    }
}
