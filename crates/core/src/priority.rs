//! PriorityFrame — input-triggered frame prioritisation (Section 5.3).

/// Tracks pending user inputs on the application side and decides which
/// frames are *priority frames*.
///
/// The paper's PriorityFrame has two halves. The half inside the 3D
/// application (implemented there by hooking `XNextEvent`) detects user
/// input and, when one is pending, cancels the rendering delay so the
/// responding frame renders immediately. This type is that detector: the
/// pipeline calls [`PriorityGate::input_arrived`] when an input reaches
/// the application, and [`PriorityGate::begin_frame`] when a frame starts
/// rendering — which consumes the pending inputs and marks the frame as a
/// priority frame carrying the *oldest* unconsumed input (the one whose
/// motion-to-photon latency the frame determines).
///
/// The proxy-side half (no delays for priority frames, obsolete-frame
/// flush) is driven by the pipeline from the frame's priority tag.
///
/// # Examples
///
/// ```
/// use odr_core::PriorityGate;
///
/// let mut gate = PriorityGate::new();
/// assert!(gate.begin_frame().is_none()); // internal refresh frame
///
/// gate.input_arrived(7);
/// assert_eq!(gate.begin_frame(), Some(7)); // priority frame for input 7
/// assert!(gate.begin_frame().is_none());   // consumed
/// ```
#[derive(Clone, Debug, Default)]
pub struct PriorityGate {
    /// Oldest unconsumed input's id.
    pending: Option<u64>,
    priority_frames: u64,
}

impl PriorityGate {
    /// Creates a gate with no pending input.
    #[must_use]
    pub fn new() -> Self {
        PriorityGate::default()
    }

    /// Records that input `id` reached the application.
    ///
    /// If an earlier input is still pending (the application has not
    /// started a frame since), the inputs are *combined*: the frame will
    /// answer both, and latency is measured from the oldest — matching the
    /// pending-input combining the paper's benchmarks already perform.
    pub fn input_arrived(&mut self, id: u64) {
        if self.pending.is_none() {
            self.pending = Some(id);
        }
    }

    /// Called when the application starts simulating/rendering a frame.
    /// Consumes the pending input, if any, and returns its id: the new
    /// frame is the priority frame answering that input.
    pub fn begin_frame(&mut self) -> Option<u64> {
        let taken = self.pending.take();
        if taken.is_some() {
            self.priority_frames += 1;
        }
        taken
    }

    /// Frames marked as priority frames.
    #[must_use]
    pub fn priority_frames(&self) -> u64 {
        self.priority_frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refresh_frames_are_not_priority() {
        let mut g = PriorityGate::new();
        for _ in 0..10 {
            assert!(g.begin_frame().is_none());
        }
        assert_eq!(g.priority_frames(), 0);
    }

    #[test]
    fn input_makes_next_frame_priority() {
        let mut g = PriorityGate::new();
        g.input_arrived(1);
        assert_eq!(g.begin_frame(), Some(1));
        assert_eq!(g.priority_frames(), 1);
    }

    #[test]
    fn burst_inputs_are_combined_onto_oldest() {
        let mut g = PriorityGate::new();
        g.input_arrived(1);
        g.input_arrived(2);
        g.input_arrived(3);
        // The frame answers the burst; latency is measured from input 1.
        assert_eq!(g.begin_frame(), Some(1));
        assert_eq!(g.begin_frame(), None);
    }
}
