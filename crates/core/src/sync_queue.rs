//! Thread-safe multi-buffer for the real-time runtime.
//!
//! [`SyncQueue`] gives real producer and consumer threads exactly the
//! paper's swap semantics: the producer blocks while the buffer is full
//! (ODR mode) or replaces the newest pending frame (unregulated mode),
//! the consumer blocks while it is empty, and a priority publish
//! flushes obsolete frames and jumps the queue.
//!
//! One engine runs both policies: the
//! [`crate::atomic_swap::AtomicSwap`] slot-exchange queue. Overwrite
//! mode never takes a lock; blocking mode parks on an eventcount
//! ([`crate::gate::Gate`]) only on the `MustWait` edge, which is where
//! the paper's convergence argument needs a stage to pause. This file
//! adds the one thing the engine must not do itself, observability: the
//! engine's `try_publish` / `try_pop` are pinned allocation-, block- and
//! panic-free in `hotpaths.txt`, and recording an event is none of
//! those.
//!
//! The engine's step machines are the ones the `odr-check` model checker
//! explores, wait edge included (DESIGN.md §13), so the protocol
//! verified there is the protocol running here; what each operation
//! means sequentially is pinned against [`crate::swap::SwapState`] by
//! `tests/differential.rs`.
//!
//! Single producer, single consumer; [`SyncQueue::publish_priority`]
//! belongs to the producer thread.

use std::sync::Arc;

use odr_obs::{names, Event, MonoClock, Recorder};

use crate::atomic_swap::AtomicSwap;
use crate::queue::FullPolicy;
use crate::swap::{TryPop, TryPublish};

/// Observability attachment for a [`SyncQueue`]: where (and on which
/// trace lane) the queue records its swap waits, overwrite drops and
/// priority flushes.
pub struct QueueObs {
    /// Destination sink, shared with the rest of the pipeline.
    pub recorder: Arc<dyn Recorder>,
    /// Trace track identifying this queue (e.g. `odr_obs::track::BUF1`).
    pub track: u32,
    /// Timestamp source — the runtime's shared monotonic origin.
    pub clock: MonoClock,
}

impl QueueObs {
    fn record(&self, event: Event) {
        self.recorder.record(event);
    }

    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }
}

/// A bounded, closable, multi-buffer channel between two pipeline threads.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use odr_core::SyncQueue;
///
/// let q = Arc::new(SyncQueue::new_blocking(1));
/// let producer = {
///     let q = Arc::clone(&q);
///     std::thread::spawn(move || {
///         for i in 0..100 {
///             q.publish_blocking(i);
///         }
///         q.close();
///     })
/// };
/// let mut got = Vec::new();
/// while let Some(v) = q.pop_blocking() {
///     got.push(v);
/// }
/// producer.join().unwrap();
/// assert_eq!(got, (0..100).collect::<Vec<_>>());
/// ```
pub struct SyncQueue<T> {
    swap: AtomicSwap<T>,
    /// Optional observability sink (see [`SyncQueue::with_obs`]).
    obs: Option<QueueObs>,
}

impl<T> SyncQueue<T> {
    fn with_policy(capacity: usize, policy: FullPolicy) -> Self {
        SyncQueue {
            swap: AtomicSwap::new(capacity, policy),
            obs: None,
        }
    }

    /// Attaches an observability sink: swap waits become `wait_space` /
    /// `wait_data` spans, overwrite drops become `swap.drop` instants and
    /// priority flushes `swap.priority_flush` instants, all on the
    /// attachment's track. A disabled recorder is discarded outright so
    /// the untraced hot path stays branch-on-`None`.
    #[must_use]
    pub fn with_obs(mut self, obs: QueueObs) -> Self {
        self.obs = if obs.recorder.enabled() {
            Some(obs)
        } else {
            None
        };
        self
    }

    /// Creates a queue whose producer blocks when `capacity` frames are
    /// pending (ODR multi-buffer mode).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new_blocking(capacity: usize) -> Self {
        Self::with_policy(capacity, FullPolicy::Block)
    }

    /// Creates a queue whose producer overwrites the newest pending frame
    /// when full (unregulated mode — excessive frames are dropped here).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new_overwriting(capacity: usize) -> Self {
        Self::with_policy(capacity, FullPolicy::Overwrite)
    }

    /// Records an overwrite-drop instant when a publish displaced frames.
    fn record_drop(&self, dropped: u64) {
        if dropped > 0 {
            if let Some(obs) = &self.obs {
                obs.record(
                    Event::instant(obs.now_ns(), obs.track, names::SWAP_DROP)
                        .with_value(dropped as f64),
                );
            }
        }
    }

    /// Opens a `wait_*` span.
    fn begin_wait(&self, name: &'static str) {
        if let Some(obs) = &self.obs {
            obs.record(Event::begin(obs.now_ns(), obs.track, name));
        }
    }

    /// Closes a `wait_*` span if one was opened.
    fn end_wait(&self, waited: bool, name: &'static str) {
        if waited {
            if let Some(obs) = &self.obs {
                obs.record(Event::end(obs.now_ns(), obs.track, name));
            }
        }
    }

    /// Publishes a frame, blocking while the buffer is full (in blocking
    /// mode). Returns `false` if the queue was closed (frame discarded).
    pub fn publish_blocking(&self, frame: T) -> bool {
        let published = self
            .swap
            .publish_blocking_with(frame, || self.begin_wait(names::WAIT_SPACE));
        self.end_wait(published.waited, names::WAIT_SPACE);
        if published.accepted {
            self.record_drop(published.dropped);
        }
        published.accepted
    }

    /// One non-blocking publish transition: `MustWait` hands the frame
    /// back instead of parking. Emits no wait spans (nothing waits);
    /// drop instants are still recorded.
    pub fn try_publish(&self, frame: T) -> TryPublish<T> {
        let drops_before = self.swap.drops();
        let outcome = self.swap.try_publish(frame);
        if matches!(outcome, TryPublish::Accepted) {
            // Single-producer contract: no publish raced this one, so
            // the counter delta is this call's drops.
            self.record_drop(self.swap.drops() - drops_before);
        }
        outcome
    }

    /// Pops the oldest frame, blocking while the buffer is empty. Returns
    /// `None` once the queue is closed *and* drained.
    pub fn pop_blocking(&self) -> Option<T> {
        let (frame, waited) = self
            .swap
            .pop_blocking_with(|| self.begin_wait(names::WAIT_DATA));
        self.end_wait(waited, names::WAIT_DATA);
        frame
    }

    /// Attempts to pop without blocking.
    pub fn try_pop(&self) -> Option<T> {
        self.swap.try_pop()
    }

    /// One non-blocking pop transition with the protocol's full
    /// vocabulary (`Drained` vs `MustWait`), which is what the
    /// differential test compares against the sequential specification.
    pub fn try_pop_outcome(&self) -> TryPop<T> {
        self.swap.try_pop_outcome()
    }

    /// Priority publish: flushes every pending (obsolete) frame and stores
    /// this one, never blocking. Returns the number of frames flushed, or
    /// `None` if the queue was closed. Must be called from the producer
    /// thread.
    pub fn publish_priority(&self, frame: T) -> Option<usize> {
        let flushed = self.swap.publish_priority(frame)?;
        if flushed > 0 {
            if let Some(obs) = &self.obs {
                obs.record(
                    Event::instant(obs.now_ns(), obs.track, names::SWAP_FLUSH)
                        .with_value(flushed as f64),
                );
            }
        }
        Some(flushed)
    }

    /// Closes the queue: producers stop, consumers drain then get `None`.
    pub fn close(&self) {
        self.swap.close();
    }

    /// Returns `true` if the queue has been closed.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.swap.is_closed()
    }

    /// Total frames dropped by overwrites or priority flushes.
    #[must_use]
    pub fn drops(&self) -> u64 {
        self.swap.drops()
    }

    /// Current number of pending frames. Head and tail are read one
    /// after the other, so with the other thread running this is a
    /// snapshot that may count a frame the consumer has since taken; it
    /// never exceeds the capacity, and it is exact when nothing runs
    /// concurrently.
    #[must_use]
    pub fn len(&self) -> usize {
        self.swap.len()
    }

    /// Returns `true` if no frames are pending (a snapshot, see
    /// [`SyncQueue::len`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if a publish would find a free slot. Only the
    /// consumer takes frames out and only the producer puts them in, so
    /// for the single producer a `true` stays true until its own next
    /// publish: that publish never parks and `try_publish` never returns
    /// `MustWait` (it may spin for the few instructions a consumer needs
    /// to finish recycling the slot). A `false` may be stale by the time
    /// it is read.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.swap.len() < self.swap.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::{sync::Arc, thread, time::Duration};

    #[test]
    fn spsc_transfers_all_frames_in_order() {
        let q = Arc::new(SyncQueue::new_blocking(2));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..10_000u32 {
                    assert!(q.publish_blocking(i));
                }
                q.close();
            })
        };
        let mut expected = 0u32;
        while let Some(v) = q.pop_blocking() {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, 10_000);
        producer.join().expect("producer");
        assert_eq!(q.drops(), 0);
    }

    #[test]
    fn overwriting_queue_drops_under_slow_consumer() {
        let q = Arc::new(SyncQueue::new_overwriting(1));
        for i in 0..100u32 {
            assert!(q.publish_blocking(i));
        }
        // Only the most recent frame survives.
        assert_eq!(q.try_pop(), Some(99));
        assert_eq!(q.drops(), 99);
    }

    #[test]
    fn close_unblocks_producer() {
        let q = Arc::new(SyncQueue::new_blocking(1));
        assert!(q.publish_blocking(1u8));
        let blocked = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.publish_blocking(2))
        };
        thread::sleep(Duration::from_millis(50));
        q.close();
        assert!(
            !blocked.join().expect("thread"),
            "publish after close must fail"
        );
    }

    #[test]
    fn close_unblocks_consumer_after_drain() {
        let q = Arc::new(SyncQueue::new_blocking(4));
        q.publish_blocking(1u8);
        q.close();
        assert_eq!(q.pop_blocking(), Some(1));
        assert_eq!(q.pop_blocking(), None);
    }

    #[test]
    fn priority_publish_flushes_obsolete() {
        let q = SyncQueue::new_blocking(3);
        q.publish_blocking(1u8);
        q.publish_blocking(2);
        assert_eq!(q.publish_priority(99), Some(2));
        assert_eq!(q.try_pop(), Some(99));
        assert_eq!(q.try_pop(), None);
        assert_eq!(q.drops(), 2);
    }

    #[test]
    fn priority_publish_on_closed_queue_fails() {
        let q: SyncQueue<u8> = SyncQueue::new_blocking(1);
        q.close();
        assert_eq!(q.publish_priority(1), None);
        assert!(q.is_closed());
    }

    #[test]
    fn try_pop_on_empty_is_none() {
        let q: SyncQueue<u8> = SyncQueue::new_blocking(1);
        assert_eq!(q.try_pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn try_publish_hands_frame_back_when_full() {
        let q = SyncQueue::new_blocking(1);
        assert!(q.has_space());
        assert_eq!(q.try_publish(1u8), TryPublish::Accepted);
        assert!(!q.has_space());
        assert_eq!(q.try_publish(2), TryPublish::MustWait(2));
        assert_eq!(q.try_pop_outcome(), TryPop::Frame(1));
        assert!(q.has_space());
        assert_eq!(q.try_pop_outcome(), TryPop::MustWait);
        q.close();
        assert_eq!(q.try_pop_outcome(), TryPop::Drained);
    }

    /// The guarantee `spawn_app_stage` leans on: room seen by the single
    /// producer is still there at its next publish, whatever the
    /// consumer is in the middle of.
    #[test]
    fn space_seen_by_the_producer_stays_until_it_publishes() {
        const ROUNDS: u32 = 100_000;
        for capacity in [1, 2] {
            let q = Arc::new(SyncQueue::new_blocking(capacity));
            let consumer = {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut popped = 0u32;
                    loop {
                        match q.try_pop_outcome() {
                            TryPop::Frame(_) => popped += 1,
                            TryPop::MustWait => std::hint::spin_loop(),
                            TryPop::Drained => return popped,
                        }
                    }
                })
            };
            for round in 0..ROUNDS {
                while !q.has_space() {
                    std::hint::spin_loop();
                }
                assert_eq!(
                    q.try_publish(round),
                    TryPublish::Accepted,
                    "capacity {capacity}, round {round}"
                );
            }
            q.close();
            assert_eq!(consumer.join().expect("consumer"), ROUNDS);
            assert_eq!(q.drops(), 0);
        }
    }

    #[test]
    fn obs_records_drops_flushes_and_waits() {
        use odr_obs::{names, track, Kind, MonoClock, Recorder, RingRecorder};

        let rec = Arc::new(RingRecorder::default());
        let obs = |rec: &Arc<RingRecorder>| QueueObs {
            recorder: Arc::clone(rec) as Arc<dyn Recorder>,
            track: track::BUF1,
            clock: MonoClock::start(),
        };

        // Overwrite drop and priority flush, single-threaded.
        let q = SyncQueue::new_overwriting(1).with_obs(obs(&rec));
        assert!(q.publish_blocking(1u8));
        assert!(q.publish_blocking(2)); // replaces frame 1 → swap.drop
        assert_eq!(q.publish_priority(9), Some(1)); // flushes frame 2
        let events = rec.drain().events;
        assert!(events
            .iter()
            .any(|e| e.name == names::SWAP_DROP && e.value == 1.0));
        assert!(events
            .iter()
            .any(|e| e.name == names::SWAP_FLUSH && e.value == 1.0));

        // The span opens just before the first park, so once the ring
        // holds an event the other thread is on its wait edge.
        let on_wait_edge = || {
            while rec.is_empty() {
                thread::yield_now();
            }
        };
        // (begins, ends) of one wait span name in what the ring holds.
        let spans = |name: &'static str| {
            let events = rec.drain().events;
            let count = |kind: Kind| {
                events
                    .iter()
                    .filter(|e| e.kind == kind && e.name == name)
                    .count()
            };
            (count(Kind::SpanBegin), count(Kind::SpanEnd), events.len())
        };

        // A blocked producer opens and closes a wait_space span.
        let q = Arc::new(SyncQueue::new_blocking(1).with_obs(obs(&rec)));
        assert!(q.publish_blocking(1u8));
        let blocked = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.publish_blocking(2))
        };
        on_wait_edge();
        assert_eq!(q.pop_blocking(), Some(1));
        assert!(blocked.join().expect("producer"));
        assert_eq!(spans(names::WAIT_SPACE), (1, 1, 2));

        // A parked consumer leaves exactly one balanced wait_data span.
        let parked = {
            let q = Arc::clone(&q);
            thread::spawn(move || (q.pop_blocking(), q.pop_blocking()))
        };
        // The first pop finds frame 2 and records nothing.
        on_wait_edge();
        assert!(q.publish_blocking(3));
        assert_eq!(parked.join().expect("consumer"), (Some(2), Some(3)));
        assert_eq!(spans(names::WAIT_DATA), (1, 1, 2));

        // A producer parked on a full queue that is then closed still
        // closes its span, and reports the frame as not delivered.
        assert!(q.publish_blocking(4));
        let blocked = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.publish_blocking(5))
        };
        on_wait_edge();
        q.close();
        assert!(!blocked.join().expect("producer"));
        assert_eq!(spans(names::WAIT_SPACE), (1, 1, 2));
    }

    #[test]
    fn backpressure_paces_producer() {
        // A slow consumer forces the producer's throughput down to its own:
        // the multi-buffer synchronisation the paper relies on.
        let q = Arc::new(SyncQueue::new_blocking(1));
        let produced = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let producer = {
            let q = Arc::clone(&q);
            let produced = Arc::clone(&produced);
            thread::spawn(move || {
                while q.publish_blocking(()) {
                    produced.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            })
        };
        let mut consumed = 0;
        for _ in 0..20 {
            thread::sleep(Duration::from_millis(2));
            if q.pop_blocking().is_some() {
                consumed += 1;
            }
        }
        q.close();
        while q.pop_blocking().is_some() {}
        producer.join().expect("producer");
        let produced = produced.load(std::sync::atomic::Ordering::Relaxed);
        // Producer can be at most consumed + capacity + 1 in flight ahead.
        assert!(
            produced <= consumed + 3,
            "produced {produced}, consumed {consumed}"
        );
    }
}
