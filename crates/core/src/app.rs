//! The application loop as a step machine: pacing, ODR's room rule and
//! PriorityFrame (Section 5.3), written once for the simulator and the
//! served render thread (DESIGN.md §18.10).

use odr_simtime::SimTime;

use crate::{
    pacer::{AdaptiveIntervalPacer, IntervalPacer},
    rvs::RvsRegulator,
    FpsGoal, RegulationSpec,
};

/// PriorityFrame's half inside the 3D application (the paper hooks
/// `XNextEvent`): it remembers the oldest input since the last frame
/// began, and the next frame to begin answers it. A burst of inputs is
/// combined onto the oldest, whose motion-to-photon latency the frame
/// determines.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PriorityGate {
    pending: Option<u64>,
}

impl PriorityGate {
    /// Input `id` reached the application.
    fn input_arrived(&mut self, id: u64) {
        self.pending.get_or_insert(id);
    }

    /// A frame begins: it answers the pending input, if any.
    fn begin_frame(&mut self) -> Option<u64> {
        self.pending.take()
    }
}

/// When the next frame may start: at once (NoReg, ODR), on a fixed grid
/// (Int30/Int60), on the grid client feedback ratchets (IntMax), or after
/// the feedback-scaled delay on the client's vblank grid (RVS).
#[derive(Clone, Copy, Debug)]
enum Pacer {
    Free,
    Grid(IntervalPacer),
    IntMax(AdaptiveIntervalPacer),
    Rvs(RvsRegulator),
}

/// Where the loop stands between two [`AppCycle::next`] calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// The next frame starts at once, room or not: the first one, or the
    /// answer to an input that made Mul-Buf1's frame obsolete.
    Now,
    Rendering,
    /// Waiting out the pacing delay until this instant.
    Paced(SimTime),
    /// Waiting for room in Mul-Buf1.
    Blocked,
}

/// What the application does next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppStep {
    /// Start a frame now.
    Render {
        /// The oldest input it answers, if it is a PriorityFrame.
        priority: Option<u64>,
    },
    /// Sleep until this instant, then step again.
    WaitUntil(SimTime),
    /// Wait for room in Mul-Buf1 or for an input, then step again.
    WaitForRoom,
}

/// The application's main loop in [`SimTime`] nanoseconds. The driver
/// asks [`next`](AppCycle::next) what to do whenever the loop comes
/// round and reports every input that reaches the application to
/// [`input`](AppCycle::input); it owns durations, buffers and threads.
#[derive(Clone, Copy, Debug)]
pub struct AppCycle {
    pacer: Pacer,
    /// ODR's room rule: render only into a free Mul-Buf1 slot.
    blocking: bool,
    /// PriorityFrame: inputs mark frames and flush obsolete ones.
    priority: bool,
    gate: PriorityGate,
    phase: Phase,
}

impl AppCycle {
    /// The application loop of `spec`. IntMax starts its ratchet at
    /// `render_hz`, the unregulated rendering rate; RVS weighs its stale
    /// feedback by `rvs_weight`. No other regulation reads either.
    ///
    /// # Panics
    ///
    /// Panics if the spec's pacer rejects its parameters.
    #[must_use]
    pub fn new(spec: RegulationSpec, render_hz: f64, rvs_weight: f64) -> Self {
        let pacer = match spec {
            RegulationSpec::NoReg | RegulationSpec::Odr { .. } => Pacer::Free,
            RegulationSpec::Interval(FpsGoal::Target(fps)) => Pacer::Grid(IntervalPacer::new(fps)),
            RegulationSpec::Interval(FpsGoal::Max) => {
                Pacer::IntMax(AdaptiveIntervalPacer::new(render_hz))
            }
            RegulationSpec::Rvs { goal, cc } => Pacer::Rvs(
                RvsRegulator::new(RegulationSpec::rvs_refresh_hz(goal), cc)
                    .with_feedback_weight(rvs_weight),
            ),
        };
        let (blocking, priority) = match spec {
            RegulationSpec::Odr { options, .. } => {
                (options.blocking_buffers, options.priority_frames)
            }
            _ => (false, false),
        };
        AppCycle {
            pacer,
            blocking,
            priority,
            gate: PriorityGate::default(),
            phase: Phase::Now,
        }
    }

    /// What the loop does at `now`, with `room` saying whether Mul-Buf1
    /// has a free slot. A pacing delay, once decided, stands until it
    /// ends; a full Mul-Buf1 is rendered into only after an input
    /// flushed it.
    pub fn next(&mut self, now: SimTime, room: bool) -> AppStep {
        match self.phase {
            Phase::Paced(at) if now < at => return AppStep::WaitUntil(at),
            Phase::Rendering | Phase::Blocked if self.blocking && !room => {
                self.phase = Phase::Blocked;
                return AppStep::WaitForRoom;
            }
            Phase::Rendering | Phase::Blocked => {
                let at = self.frame_start(now);
                if at > now {
                    self.phase = Phase::Paced(at);
                    return AppStep::WaitUntil(at);
                }
            }
            Phase::Now | Phase::Paced(_) => {}
        }
        self.phase = Phase::Rendering;
        AppStep::Render {
            priority: self.gate.begin_frame(),
        }
    }

    /// Input `id` reached the application. Returns `true` when it found
    /// the loop waiting for room: Mul-Buf1's pending frame is obsolete
    /// *now*, so the driver flushes it and steps again. Without
    /// PriorityFrame an input changes nothing here.
    pub fn input(&mut self, id: u64) -> bool {
        if !self.priority {
            return false;
        }
        self.gate.input_arrived(id);
        let flush = self.phase == Phase::Blocked;
        if flush {
            self.phase = Phase::Now;
        }
        flush
    }

    /// The RVS pacer, for the client's feedback and vblank clock.
    pub fn rvs(&mut self) -> Option<&mut RvsRegulator> {
        match &mut self.pacer {
            Pacer::Rvs(rvs) => Some(rvs),
            _ => None,
        }
    }

    /// The IntMax pacer, for the client's FPS feedback.
    pub fn int_max(&mut self) -> Option<&mut AdaptiveIntervalPacer> {
        match &mut self.pacer {
            Pacer::IntMax(pacer) => Some(pacer),
            _ => None,
        }
    }

    /// When a frame ready at `now` may start under the pacer.
    fn frame_start(&mut self, now: SimTime) -> SimTime {
        match &mut self.pacer {
            Pacer::Free => now,
            Pacer::Grid(pacer) => pacer.frame_start(now),
            Pacer::IntMax(pacer) => pacer.frame_start(now),
            Pacer::Rvs(rvs) => rvs.clock().next_vblank(now.add_nanos(rvs.render_delay())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OdrOptions;

    fn ms(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000_000)
    }

    fn render(priority: Option<u64>) -> AppStep {
        AppStep::Render { priority }
    }

    fn odr_max() -> AppCycle {
        AppCycle::new(RegulationSpec::odr(FpsGoal::Max), f64::NAN, f64::NAN)
    }

    #[test]
    fn refresh_frames_are_not_priority() {
        let mut g = PriorityGate::default();
        for _ in 0..10 {
            assert!(g.begin_frame().is_none());
        }
    }

    #[test]
    fn input_makes_next_frame_priority() {
        let mut g = PriorityGate::default();
        g.input_arrived(1);
        assert_eq!(g.begin_frame(), Some(1));
        assert_eq!(g.begin_frame(), None);
    }

    #[test]
    fn burst_inputs_are_combined_onto_oldest() {
        let mut g = PriorityGate::default();
        g.input_arrived(1);
        g.input_arrived(2);
        g.input_arrived(3);
        // The frame answers the burst; latency is measured from input 1.
        assert_eq!(g.begin_frame(), Some(1));
        assert_eq!(g.begin_frame(), None);
    }

    #[test]
    fn noreg_always_renders() {
        let mut app = AppCycle::new(RegulationSpec::NoReg, f64::NAN, f64::NAN);
        for t in [0, 1, 7, 7, 30] {
            assert_eq!(app.next(ms(t), false), render(None));
            // Inputs ride frames as tags, never as PriorityFrames.
            assert!(!app.input(t));
        }
    }

    #[test]
    fn interval_renders_frame_zero_at_once_then_on_the_grid() {
        // 100 FPS: a 10 ms grid.
        let mut app = AppCycle::new(RegulationSpec::interval(100.0), f64::NAN, f64::NAN);
        // The first frame starts when the loop first comes round, on the
        // grid or not.
        assert_eq!(app.next(SimTime::from_nanos(3), true), render(None));
        // A frame done at 4 ms waits for the 10 ms tick...
        assert_eq!(app.next(ms(4), true), AppStep::WaitUntil(ms(10)));
        // ...a wake before it (a spurious one) waits on...
        assert_eq!(app.next(ms(9), true), AppStep::WaitUntil(ms(10)));
        // ...and at the tick, or after it, the frame starts.
        assert_eq!(
            app.next(ms(10) + odr_simtime::Duration::from_nanos(5), true),
            render(None)
        );
        // A frame done exactly on a tick starts at once.
        assert_eq!(app.next(ms(20), true), render(None));
        assert_eq!(app.next(ms(21), false), AppStep::WaitUntil(ms(30)));
    }

    #[test]
    fn odr_without_room_waits_for_room() {
        let mut app = odr_max();
        assert_eq!(app.next(ms(0), true), render(None));
        assert_eq!(app.next(ms(5), false), AppStep::WaitForRoom);
        assert_eq!(app.next(ms(6), false), AppStep::WaitForRoom);
        assert_eq!(app.next(ms(8), true), render(None));
    }

    #[test]
    fn an_input_at_a_blocked_app_flushes_then_renders_its_answer() {
        let mut app = odr_max();
        assert_eq!(app.next(ms(0), true), render(None));
        assert_eq!(app.next(ms(5), false), AppStep::WaitForRoom);
        assert!(app.input(4), "the frame in Mul-Buf1 is obsolete");
        assert!(!app.input(5), "one flush per wait");
        // Mul-Buf1 still looks full to the driver: the flush is the room.
        assert_eq!(app.next(ms(6), false), render(Some(4)));
        assert_eq!(app.next(ms(9), false), AppStep::WaitForRoom);
    }

    #[test]
    fn an_input_during_a_render_waits_for_the_next_frame_and_for_room() {
        let mut app = odr_max();
        assert_eq!(app.next(ms(0), true), render(None));
        assert!(!app.input(2), "nothing to flush while rendering");
        assert_eq!(app.next(ms(5), false), AppStep::WaitForRoom);
        assert_eq!(app.next(ms(7), true), render(Some(2)));
        assert_eq!(app.next(ms(9), true), render(None));
    }

    #[test]
    fn odr_max_no_pri_neither_flushes_nor_marks() {
        let spec = RegulationSpec::odr_no_priority(FpsGoal::Max);
        let mut app = AppCycle::new(spec, f64::NAN, f64::NAN);
        assert_eq!(app.next(ms(0), true), render(None));
        assert_eq!(app.next(ms(5), false), AppStep::WaitForRoom);
        assert!(!app.input(1));
        assert_eq!(app.next(ms(6), false), AppStep::WaitForRoom);
        assert_eq!(app.next(ms(8), true), render(None));
    }

    #[test]
    fn a_burst_of_inputs_is_combined_onto_the_oldest() {
        let mut app = odr_max();
        assert_eq!(app.next(ms(0), true), render(None));
        for id in [3, 4, 5] {
            app.input(id);
        }
        assert_eq!(app.next(ms(2), true), render(Some(3)));
        assert_eq!(app.next(ms(4), true), render(None));
    }

    #[test]
    fn without_blocking_buffers_odr_never_waits_for_room() {
        let spec = RegulationSpec::Odr {
            goal: FpsGoal::Max,
            options: OdrOptions {
                blocking_buffers: false,
                ..OdrOptions::default()
            },
        };
        let mut app = AppCycle::new(spec, f64::NAN, f64::NAN);
        assert_eq!(app.next(ms(0), false), render(None));
        assert!(!app.input(1), "a render never blocks, so nothing flushes");
        assert_eq!(app.next(ms(3), false), render(Some(1)));
    }

    #[test]
    fn rvs_and_int_max_pace_on_their_feedback() {
        let spec = RegulationSpec::rvs(FpsGoal::Target(100.0));
        let mut app = AppCycle::new(spec, f64::NAN, 0.0);
        assert!(app.int_max().is_none());
        assert_eq!(app.next(ms(0), true), render(None));
        // No feedback yet: the next vblank.
        assert_eq!(app.next(ms(4), true), AppStep::WaitUntil(ms(10)));
        assert_eq!(app.next(ms(10), true), render(None));
        // 10 ms to vblank × cc 0.3 = 3 ms: from 21 ms, the 30 ms vblank.
        if let Some(rvs) = app.rvs() {
            rvs.on_feedback(10_000_000, 0);
        }
        assert_eq!(app.next(ms(21), true), AppStep::WaitUntil(ms(30)));

        let spec = RegulationSpec::Interval(FpsGoal::Max);
        let mut app = AppCycle::new(spec, 100.0, f64::NAN);
        assert!(app.rvs().is_none());
        assert_eq!(app.next(ms(0), true), render(None));
        assert_eq!(app.next(ms(4), true), AppStep::WaitUntil(ms(10)));
        for _ in 0..20 {
            if let Some(pacer) = app.int_max() {
                pacer.on_client_feedback(50.0);
            }
        }
        // The ratchet backed off to ≈ 50 FPS: the grid is ≈ 20 ms now.
        assert_eq!(app.next(ms(10), true), render(None));
        match app.next(ms(11), true) {
            AppStep::WaitUntil(at) => assert!(at > ms(18) && at <= ms(22), "{at:?}"),
            other => panic!("{other:?}"),
        }
    }
}
