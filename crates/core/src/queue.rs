//! The multi-buffer state machine (Mul-Buf1 / Mul-Buf2 of Section 5.1).
//!
//! [`FrameQueue`] is the *pure* core of ODR's multi-buffering: a bounded
//! frame buffer whose producer either blocks (ODR) or overwrites the newest
//! pending frame (classic triple-buffer / NoReg behaviour), plus the
//! PriorityFrame flush. It contains no synchronisation so the
//! discrete-event simulator can drive it directly, and
//! [`crate::SwapState`] wraps it as the sequential specification the
//! real-time [`crate::SyncQueue`] is tested against; that queue runs on
//! its own lock-free engine, [`crate::atomic_swap::AtomicSwap`].

/// Outcome of publishing a frame into a [`FrameQueue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Publish<T> {
    /// The frame was stored; the producer may continue immediately.
    Stored,
    /// The buffer was full and the queue is in blocking mode: the frame is
    /// handed back to the producer, which must wait for a pop and
    /// re-publish — this is the "3D application pauses its rendering until
    /// the buffers are swapped" rule of Section 5.1.
    WouldBlock(T),
    /// The buffer was full and the queue is in overwriting mode: the newest
    /// pending frame was discarded to make room (excessive rendering). The
    /// drop counter was incremented.
    ReplacedNewest,
}

/// What a full buffer does to a new frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FullPolicy {
    /// Producer blocks — ODR's multi-buffer swap synchronisation.
    Block,
    /// Newest pending frame is replaced — unregulated pipelines discard
    /// excessive frames here.
    Overwrite,
}

/// A bounded FIFO frame buffer with ODR's swap semantics.
///
/// Capacity 1 models the paper's front/back buffer pair exactly: the
/// "front" buffer is the frame the consumer currently holds (already
/// popped), the "back" buffer is the single queue slot. Larger capacities
/// are used by the buffer-depth ablation.
///
/// # Examples
///
/// ```
/// use odr_core::{FrameQueue, Publish};
/// use odr_core::queue::FullPolicy;
///
/// let mut q: FrameQueue<u32> = FrameQueue::new(1, FullPolicy::Block);
/// assert_eq!(q.publish(10), Publish::Stored);
/// assert_eq!(q.publish(11), Publish::WouldBlock(11)); // producer pauses
/// assert_eq!(q.pop(), Some(10));                      // consumer swap
/// assert_eq!(q.publish(11), Publish::Stored);         // producer resumes
/// ```
#[derive(Clone, Debug)]
pub struct FrameQueue<T> {
    slots: std::collections::VecDeque<T>,
    capacity: usize,
    policy: FullPolicy,
    drops: u64,
}

impl<T> FrameQueue<T> {
    /// Creates a queue holding at most `capacity` pending frames.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, policy: FullPolicy) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        FrameQueue {
            slots: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            policy,
            drops: 0,
        }
    }

    /// The one-slot queue [`crate::SwapState`] wraps: [`FrameQueue::new`]
    /// at capacity 1, without the check that capacity cannot fail.
    pub(crate) fn one_slot(policy: FullPolicy) -> Self {
        FrameQueue {
            slots: std::collections::VecDeque::with_capacity(1),
            capacity: 1,
            policy,
            drops: 0,
        }
    }

    /// Offers a frame to the queue. See [`Publish`] for the outcomes.
    pub fn publish(&mut self, frame: T) -> Publish<T> {
        if self.slots.len() < self.capacity {
            self.slots.push_back(frame);
            return Publish::Stored;
        }
        match self.policy {
            FullPolicy::Block => Publish::WouldBlock(frame),
            FullPolicy::Overwrite => {
                // The newest pending frame is the obsolete one: it was
                // rendered but will never be shown. Replace it.
                self.slots.pop_back();
                self.slots.push_back(frame);
                self.drops += 1;
                Publish::ReplacedNewest
            }
        }
    }

    /// Takes the oldest pending frame (the consumer's buffer swap).
    pub fn pop(&mut self) -> Option<T> {
        self.slots.pop_front()
    }

    /// Returns the oldest pending frame without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&T> {
        self.slots.front()
    }

    /// PriorityFrame flush: discards every pending frame (they are obsolete
    /// once an input-triggered frame exists) and returns how many were
    /// dropped. The drop counter is incremented accordingly.
    pub fn flush_obsolete(&mut self) -> usize {
        let n = self.slots.len();
        self.slots.clear();
        self.drops += n as u64;
        n
    }

    /// Returns `true` if a publish would store immediately.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.slots.len() < self.capacity
    }

    /// Returns the number of pending frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if no frames are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Returns the queue capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total frames ever discarded (by overwrite or priority flush) — the
    /// paper's "excessive frames".
    #[must_use]
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_queue_rejects_when_full() {
        let mut q = FrameQueue::new(1, FullPolicy::Block);
        assert_eq!(q.publish(1), Publish::Stored);
        assert_eq!(q.publish(2), Publish::WouldBlock(2));
        assert_eq!(q.len(), 1);
        assert_eq!(q.drops(), 0);
        // The rejected frame was handed back: popping yields only the
        // first frame.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overwrite_queue_replaces_newest() {
        let mut q = FrameQueue::new(2, FullPolicy::Overwrite);
        q.publish(1);
        q.publish(2);
        assert_eq!(q.publish(3), Publish::ReplacedNewest);
        assert_eq!(q.drops(), 1);
        // Frame 2 was the obsolete one; order is preserved.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn fifo_order() {
        let mut q = FrameQueue::new(4, FullPolicy::Block);
        for i in 0..4 {
            assert_eq!(q.publish(i), Publish::Stored);
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn flush_obsolete_counts_drops() {
        let mut q = FrameQueue::new(3, FullPolicy::Block);
        q.publish("a");
        q.publish("b");
        assert_eq!(q.flush_obsolete(), 2);
        assert!(q.is_empty());
        assert_eq!(q.drops(), 2);
        assert_eq!(q.flush_obsolete(), 0);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = FrameQueue::new(2, FullPolicy::Block);
        assert_eq!(q.peek(), None);
        q.publish(7);
        q.publish(8);
        assert_eq!(q.peek(), Some(&7));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.peek(), Some(&8));
    }

    #[test]
    fn has_space_tracks_occupancy() {
        let mut q = FrameQueue::new(1, FullPolicy::Block);
        assert!(q.has_space());
        q.publish(());
        assert!(!q.has_space());
        q.pop();
        assert!(q.has_space());
    }

    #[test]
    fn a_full_queue_blocks_or_replaces_by_policy() {
        let mut q = FrameQueue::new(1, FullPolicy::Block);
        q.publish(1);
        assert_eq!(q.publish(2), Publish::WouldBlock(2)); // not accepted
        assert_eq!(q.pop(), Some(1));

        let mut q = FrameQueue::new(1, FullPolicy::Overwrite);
        q.publish(1);
        assert_eq!(q.publish(2), Publish::ReplacedNewest); // accepted
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: FrameQueue<u8> = FrameQueue::new(0, FullPolicy::Block);
    }
}
