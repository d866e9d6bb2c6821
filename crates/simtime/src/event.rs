//! A totally-ordered discrete-event queue.

use crate::time::SimTime;

/// A pending event under its packed key `time << 64 | seq`.
#[derive(Clone, Copy, Debug)]
struct Entry<E> {
    key: u128,
    event: E,
}

/// A discrete-event priority queue with deterministic tie-breaking.
///
/// Events scheduled for the same instant pop in insertion order, so a
/// simulation driven by this queue is fully reproducible: no iteration-order
/// or hash-seed effects can leak in. Each event is keyed by its fire time
/// and a sequence number from one counter, packed as `time << 64 | seq`,
/// and the queue is a binary min-heap of `Copy` entries over those keys.
///
/// The live heap is the prefix `heap[..len]`; cells past it are kept
/// capacity, so once a queue has reached its working depth a push
/// overwrites a cell and [`reset`](Self::reset) frees nothing. Growth is
/// one `#[cold]` function. Measured on `sim_study`'s workloads, a 10 s
/// pipeline session (InMind, 720p, private cloud; NoReg, Int60, RVS60,
/// ODR60) pushes 883–1,717 events and holds at most 4 (RVS60; 3 under
/// the others), about 2 at a push, while a 30 s cluster round (64 nodes,
/// 40 arrivals/s) pushes its 1,529–1,607 events, every arrival up front,
/// and holds up to 1,197.
///
/// # Examples
///
/// ```
/// use odr_simtime::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// q.push(SimTime::from_nanos(10), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: Vec<Entry<E>>,
    len: usize,
    next_seq: u64,
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let key = u128::from(time.as_nanos()) << 64 | u128::from(self.take_seq());
        let entry = Entry { key, event };
        let at = self.len;
        match self.heap.get_mut(at) {
            Some(cell) => *cell = entry,
            None => self.grow(entry),
        }
        self.len = at + 1;
        if let Some(live) = self.heap.get_mut(..=at) {
            sift_up(live, at, entry);
        }
    }

    /// Growth slow path: every kept cell is live. Out of line so the
    /// steady state stays allocation-free.
    #[cold]
    fn grow(&mut self, entry: Entry<E>) {
        debug_assert_eq!(self.len, self.heap.len());
        self.heap.push(entry);
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.len = self.len.checked_sub(1)?;
        let (&mut last, rest) = self.heap.get_mut(..=self.len)?.split_last_mut()?;
        let top = match rest.first() {
            Some(&top) => {
                sift_down(rest, last);
                top
            }
            None => last,
        };
        Some((SimTime::from_nanos((top.key >> 64) as u64), top.event))
    }

    /// Returns the key of the earliest pending event, packed as
    /// `time << 64 | seq` so that one `u128` compare orders keys.
    #[must_use]
    pub fn peek_key(&self) -> Option<u128> {
        self.heap.first().filter(|_| self.len > 0).map(|e| e.key)
    }

    /// Draws the sequence number the next [`push`](Self::push) would have
    /// been given, for a timer its owner keeps beside the queue: compared
    /// by packed key against [`peek_key`](Self::peek_key), the timer fires
    /// exactly where an event pushed at this instant would have popped.
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Returns the number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the queue to its freshly-constructed state — empty, sequence
    /// counter at zero — while keeping its capacity, so a simulation run on
    /// a recycled queue is bit-identical to one run on a new queue.
    pub fn reset(&mut self) {
        self.len = 0;
        self.next_seq = 0;
    }
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// Moves `entry` from `hole` towards the root of `heap` while its parent
/// is later, and writes it where it stops.
fn sift_up<E: Copy>(heap: &mut [Entry<E>], mut hole: usize, entry: Entry<E>) {
    while hole > 0 {
        let parent = (hole - 1) / 2;
        let Some(&up) = heap.get(parent).filter(|p| p.key > entry.key) else {
            break;
        };
        if let Some(cell) = heap.get_mut(hole) {
            *cell = up;
        }
        hole = parent;
    }
    if let Some(cell) = heap.get_mut(hole) {
        *cell = entry;
    }
}

/// Fills the hole at the root of `heap` with `entry`: walks the hole down
/// along the lesser child to a leaf, then sifts `entry` up from there.
/// `entry` came from the bottom, so it rarely climbs far, and the walk
/// down makes one compare per level instead of two.
fn sift_down<E: Copy>(heap: &mut [Entry<E>], entry: Entry<E>) {
    let mut hole = 0;
    let mut left = 1;
    // Both children at once: one bounds check per level.
    while let Some([l, r]) = heap.get(left..left + 2) {
        let (child, down) = if r.key < l.key {
            (left + 1, *r)
        } else {
            (left, *l)
        };
        if let Some(cell) = heap.get_mut(hole) {
            *cell = down;
        }
        hole = child;
        left = 2 * hole + 1;
    }
    if let Some(&l) = heap.get(left) {
        if let Some(cell) = heap.get_mut(hole) {
            *cell = l;
        }
        hole = left;
    }
    sift_up(heap, hole, entry);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), 5);
        q.push(SimTime::from_nanos(1), 1);
        q.push(SimTime::from_nanos(3), 3);
        let order: Vec<u64> = core::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    /// The same pushes and sequence draws give the same `(time, seq)`
    /// stream on a reset queue as on a fresh one.
    #[test]
    fn a_reset_queue_numbers_events_like_a_fresh_one() {
        let script = |q: &mut EventQueue<u32>| {
            q.push(SimTime::from_nanos(7), 0);
            let seq = q.take_seq();
            q.push(SimTime::from_nanos(7), 1);
            q.push(SimTime::from_nanos(3), 2);
            let mut stream = vec![(7, seq)];
            while let Some(key) = q.peek_key() {
                stream.push(((key >> 64) as u64, key as u64));
                q.pop();
            }
            stream
        };
        let mut used = EventQueue::new();
        for i in 0..64 {
            used.push(SimTime::from_nanos(i), 0);
        }
        for _ in 0..32 {
            used.pop();
        }
        used.reset();
        assert!(used.is_empty());
        assert_eq!(used.pop(), None);
        let fresh = script(&mut EventQueue::new());
        assert_eq!(fresh, vec![(7, 1), (3, 3), (7, 0), (7, 2)]);
        assert_eq!(script(&mut used), fresh);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(30), "c");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
    }
}
