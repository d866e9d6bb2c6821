//! The multi-buffer *swap protocol* as a sequential specification: every
//! transition of the producer/consumer/priority/close protocol over the
//! DES's own [`FrameQueue`], with no synchronisation in it.
//!
//! [`SwapState`] says what each operation of [`crate::SyncQueue`] means
//! when nothing else is running: whether a publish is accepted, must
//! wait, or is rejected by close, and whether a pop yields a frame, must
//! wait, or observes a drained closed queue. The real engine
//! ([`crate::atomic_swap`]) is a lock-free slot exchange that shares no
//! code with it, which is the point: `tests/differential.rs` runs
//! arbitrary schedules through both and compares every outcome, and the
//! simulator's multi-buffers are the same `FrameQueue`, so the simulated
//! and the real swap agree by construction on drops and occupancy.
//!
//! The outcome vocabulary ([`TryPublish`], [`TryPop`]) is shared with the
//! engine, which is what makes the comparison an `assert_eq!`.

use crate::queue::{FrameQueue, FullPolicy, Publish};

/// Outcome of one publish attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPublish<T> {
    /// Frame accepted (stored, or it replaced the newest in overwrite
    /// mode). The driver must signal "data available" to waiting poppers.
    Accepted,
    /// The queue is closed; the frame is discarded and the producer must
    /// stop.
    Closed,
    /// Blocking mode and the buffer is full: the frame is handed back and
    /// the driver must wait for "space available", then retry.
    MustWait(T),
}

/// Outcome of one pop attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPop<T> {
    /// The oldest pending frame. The driver must signal "space
    /// available" to waiting publishers.
    Frame(T),
    /// The queue is closed and fully drained: the consumer must stop.
    Drained,
    /// Nothing pending yet: the driver must wait for "data available",
    /// then retry.
    MustWait,
}

/// The specification's whole state: the pure [`FrameQueue`] plus the
/// closed flag.
#[derive(Debug)]
pub struct SwapState<T> {
    queue: FrameQueue<T>,
    closed: bool,
}

impl<T> SwapState<T> {
    /// Creates the protocol state for the one-frame multi-buffer with the
    /// given full-buffer policy.
    #[must_use]
    pub fn new(policy: FullPolicy) -> Self {
        SwapState {
            queue: FrameQueue::one_slot(policy),
            closed: false,
        }
    }

    /// One publish transition. See [`TryPublish`] for driver obligations.
    pub fn try_publish(&mut self, frame: T) -> TryPublish<T> {
        if self.closed {
            return TryPublish::Closed;
        }
        match self.queue.publish(frame) {
            Publish::Stored | Publish::ReplacedNewest => TryPublish::Accepted,
            Publish::WouldBlock(returned) => TryPublish::MustWait(returned),
        }
    }

    /// One pop transition. See [`TryPop`] for driver obligations.
    pub fn try_pop(&mut self) -> TryPop<T> {
        match self.queue.pop() {
            Some(frame) => TryPop::Frame(frame),
            None if self.closed => TryPop::Drained,
            None => TryPop::MustWait,
        }
    }

    /// The PriorityFrame transition: flush the pending (obsolete) frame
    /// and store this one; never waits. Returns the number of frames
    /// flushed (0 or 1), or `None` if the queue is closed (frame
    /// discarded). On `Some`, the driver must signal *both* "data
    /// available" (the new frame) and "space available" (the flush may
    /// have freed the slot).
    pub fn try_publish_priority(&mut self, frame: T) -> Option<usize> {
        if self.closed {
            return None;
        }
        let flushed = self.queue.flush_obsolete();
        let outcome = self.queue.publish(frame);
        debug_assert!(matches!(outcome, Publish::Stored));
        Some(flushed)
    }

    /// Marks the queue closed. The driver must wake *all* waiters on both
    /// conditions so blocked producers observe `Closed` and blocked
    /// consumers drain then observe `Drained`.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Returns `true` once [`SwapState::close`] has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Number of pending frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if no frames are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total frames dropped by overwrites or priority flushes.
    #[must_use]
    pub fn drops(&self) -> u64 {
        self.queue.drops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_publish_hands_frame_back_when_full() {
        let mut s = SwapState::new(FullPolicy::Block);
        assert_eq!(s.try_publish(1u32), TryPublish::Accepted);
        assert_eq!(s.try_publish(2), TryPublish::MustWait(2));
        assert_eq!(s.try_pop(), TryPop::Frame(1));
        assert_eq!(s.try_publish(2), TryPublish::Accepted);
    }

    #[test]
    fn pop_distinguishes_wait_from_drained() {
        let mut s: SwapState<u32> = SwapState::new(FullPolicy::Block);
        assert_eq!(s.try_pop(), TryPop::MustWait);
        s.close();
        assert_eq!(s.try_pop(), TryPop::Drained);
    }

    #[test]
    fn close_rejects_publishes_but_drains_pops() {
        let mut s = SwapState::new(FullPolicy::Block);
        assert_eq!(s.try_publish(7u32), TryPublish::Accepted);
        s.close();
        assert_eq!(s.try_publish(8), TryPublish::Closed);
        assert_eq!(s.try_publish_priority(9), None);
        assert_eq!(s.try_pop(), TryPop::Frame(7));
        assert_eq!(s.try_pop(), TryPop::Drained);
    }

    #[test]
    fn priority_flushes_then_stores() {
        let mut s = SwapState::new(FullPolicy::Block);
        s.try_publish(1u32);
        assert_eq!(s.try_publish_priority(99), Some(1));
        assert_eq!(s.try_pop(), TryPop::Frame(99));
        assert_eq!(s.drops(), 1);
    }

    #[test]
    fn overwrite_mode_never_waits() {
        let mut s = SwapState::new(FullPolicy::Overwrite);
        assert_eq!(s.try_publish(1u32), TryPublish::Accepted);
        assert_eq!(s.try_publish(2), TryPublish::Accepted);
        assert_eq!(s.try_pop(), TryPop::Frame(2));
        assert_eq!(s.drops(), 1);
    }
}
