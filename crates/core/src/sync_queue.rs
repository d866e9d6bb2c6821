//! Thread-safe multi-buffer for the real-time runtime.
//!
//! [`SyncQueue`] gives real producer and consumer threads exactly the
//! paper's swap semantics: the producer blocks while the buffer is full
//! (ODR mode) or replaces the newest pending frame (unregulated mode),
//! the consumer blocks while it is empty, and a priority publish
//! flushes obsolete frames and jumps the queue. Two engines implement
//! that contract:
//!
//! * **Locked** — the pure [`crate::swap::SwapState`] protocol under a
//!   `std::sync` mutex/condvar pair; every transition decision lives in
//!   [`crate::swap`], this file only turns `MustWait` outcomes into
//!   condvar waits and `Accepted`/`Frame` outcomes into notifications.
//! * **Lockfree** — the [`crate::atomic_swap::AtomicSwap`] slot-exchange
//!   queue (feature `lockfree-swap`, default on): overwrite mode runs
//!   fully lock-free; blocking mode parks on an eventcount gate only on
//!   the `MustWait` edge.
//!
//! The default constructors route overwrite-mode queues through the
//! lock-free engine when the feature is on; blocking-mode queues keep
//! the locked engine (its condvar semantics are the ones the paper's
//! convergence argument was verified against; the lock-free blocking
//! path is available via [`SyncQueue::new_lockfree`]). Both engines are
//! explored by the `odr-check` model checkers — the mutex/condvar
//! protocol by the virtual-sync model, the atomic protocol by the
//! atomics-aware model — so the protocol verified there is the protocol
//! running here.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use odr_obs::{names, Event, MonoClock, Recorder};

#[cfg(feature = "lockfree-swap")]
use crate::atomic_swap::AtomicSwap;
use crate::error::{OdrError, OdrResult};
use crate::queue::FullPolicy;
use crate::swap::{SwapState, TryPop, TryPublish};

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

/// The synchronisation engine behind a [`SyncQueue`].
enum Engine<T> {
    /// Mutex/condvar around the pure swap protocol.
    Locked {
        state: Mutex<SwapState<T>>,
        /// Signalled when a frame is popped (space available).
        space: Condvar,
        /// Signalled when a frame is published (data available).
        data: Condvar,
    },
    /// Lock-free slot exchange (gates only on the `MustWait` edges).
    #[cfg(feature = "lockfree-swap")]
    Lockfree(AtomicSwap<T>),
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
    engine: Engine<T>,
    /// Optional observability sink (see [`SyncQueue::with_obs`]).
    obs: Option<QueueObs>,
}

/// A poisoned lock means another pipeline thread panicked while holding
/// it. The protocol state itself is a plain state machine left in a
/// consistent state by every transition, so we keep going rather than
/// propagate the panic into unrelated threads.
fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl<T> SyncQueue<T> {
    fn locked_engine(capacity: usize, policy: FullPolicy) -> Engine<T> {
        Engine::Locked {
            state: Mutex::new(SwapState::new(capacity, policy)),
            space: Condvar::new(),
            data: Condvar::new(),
        }
    }

    fn with_policy(capacity: usize, policy: FullPolicy) -> Self {
        // Overwrite mode is the pipeline's hot, drop-tolerant path; it
        // goes lock-free when the feature is on. Blocking mode keeps
        // the condvar engine by default.
        #[cfg(feature = "lockfree-swap")]
        if policy == FullPolicy::Overwrite {
            return SyncQueue {
                engine: Engine::Lockfree(AtomicSwap::new(capacity, policy)),
                obs: None,
            };
        }
        SyncQueue {
            engine: Self::locked_engine(capacity, policy),
            obs: None,
        }
    }

    /// Creates a queue on the mutex/condvar engine regardless of policy
    /// or features — the reference engine for differential tests and
    /// the locked-vs-lock-free benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new_locked(capacity: usize, policy: FullPolicy) -> Self {
        SyncQueue {
            engine: Self::locked_engine(capacity, policy),
            obs: None,
        }
    }

    /// Creates a queue on the lock-free engine regardless of policy —
    /// blocking mode parks on the eventcount gate instead of a condvar.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[cfg(feature = "lockfree-swap")]
    #[must_use]
    pub fn new_lockfree(capacity: usize, policy: FullPolicy) -> Self {
        SyncQueue {
            engine: Engine::Lockfree(AtomicSwap::new(capacity, policy)),
            obs: None,
        }
    }

    /// Returns `true` if this queue runs on the lock-free engine.
    #[must_use]
    pub fn uses_lockfree(&self) -> bool {
        match &self.engine {
            Engine::Locked { .. } => false,
            #[cfg(feature = "lockfree-swap")]
            Engine::Lockfree(_) => true,
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

    /// Fallible form of [`SyncQueue::new_blocking`]: rejects a zero
    /// capacity instead of panicking.
    pub fn try_new_blocking(capacity: usize) -> OdrResult<Self> {
        if capacity == 0 {
            return Err(OdrError::invalid_config(
                "capacity",
                "multi-buffer capacity must be at least 1",
            ));
        }
        Ok(Self::with_policy(capacity, FullPolicy::Block))
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

    /// Fallible form of [`SyncQueue::new_overwriting`]: rejects a zero
    /// capacity instead of panicking.
    pub fn try_new_overwriting(capacity: usize) -> OdrResult<Self> {
        if capacity == 0 {
            return Err(OdrError::invalid_config(
                "capacity",
                "multi-buffer capacity must be at least 1",
            ));
        }
        Ok(Self::with_policy(capacity, FullPolicy::Overwrite))
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
        match &self.engine {
            Engine::Locked { state, space, data } => {
                let mut guard = relock(state.lock());
                let mut frame = frame;
                let drops_before = guard.drops();
                let mut waited = false;
                loop {
                    match guard.try_publish(frame) {
                        TryPublish::Accepted => {
                            data.notify_one();
                            self.end_wait(waited, names::WAIT_SPACE);
                            self.record_drop(guard.drops() - drops_before);
                            return true;
                        }
                        TryPublish::Closed => {
                            self.end_wait(waited, names::WAIT_SPACE);
                            return false;
                        }
                        TryPublish::MustWait(returned) => {
                            frame = returned;
                            if !waited {
                                waited = true;
                                self.begin_wait(names::WAIT_SPACE);
                            }
                            guard = relock(space.wait(guard));
                        }
                    }
                }
            }
            #[cfg(feature = "lockfree-swap")]
            Engine::Lockfree(q) => {
                let published =
                    q.publish_blocking_with(frame, || self.begin_wait(names::WAIT_SPACE));
                self.end_wait(published.waited, names::WAIT_SPACE);
                if published.accepted {
                    self.record_drop(published.dropped);
                }
                published.accepted
            }
        }
    }

    /// One non-blocking publish transition: `MustWait` hands the frame
    /// back instead of parking. Emits no wait spans (nothing waits);
    /// drop instants are still recorded.
    pub fn try_publish(&self, frame: T) -> TryPublish<T> {
        match &self.engine {
            Engine::Locked { state, data, .. } => {
                let mut guard = relock(state.lock());
                let drops_before = guard.drops();
                let outcome = guard.try_publish(frame);
                if matches!(outcome, TryPublish::Accepted) {
                    data.notify_one();
                    self.record_drop(guard.drops() - drops_before);
                }
                outcome
            }
            #[cfg(feature = "lockfree-swap")]
            Engine::Lockfree(q) => {
                let drops_before = q.drops();
                let outcome = q.try_publish(frame);
                if matches!(outcome, TryPublish::Accepted) {
                    // Single-producer contract: no publish raced this
                    // one, so the counter delta is this call's drops.
                    self.record_drop(q.drops() - drops_before);
                }
                outcome
            }
        }
    }

    /// Pops the oldest frame, blocking while the buffer is empty. Returns
    /// `None` once the queue is closed *and* drained.
    pub fn pop_blocking(&self) -> Option<T> {
        match &self.engine {
            Engine::Locked { state, space, data } => {
                let mut guard = relock(state.lock());
                let mut waited = false;
                loop {
                    match guard.try_pop() {
                        TryPop::Frame(frame) => {
                            space.notify_one();
                            self.end_wait(waited, names::WAIT_DATA);
                            return Some(frame);
                        }
                        TryPop::Drained => {
                            self.end_wait(waited, names::WAIT_DATA);
                            return None;
                        }
                        TryPop::MustWait => {
                            if !waited {
                                waited = true;
                                self.begin_wait(names::WAIT_DATA);
                            }
                            guard = relock(data.wait(guard));
                        }
                    }
                }
            }
            #[cfg(feature = "lockfree-swap")]
            Engine::Lockfree(q) => {
                let (frame, waited) = q.pop_blocking_with(|| self.begin_wait(names::WAIT_DATA));
                self.end_wait(waited, names::WAIT_DATA);
                frame
            }
        }
    }

    /// Attempts to pop without blocking.
    pub fn try_pop(&self) -> Option<T> {
        match self.try_pop_outcome() {
            TryPop::Frame(frame) => Some(frame),
            TryPop::Drained | TryPop::MustWait => None,
        }
    }

    /// One non-blocking pop transition with the protocol's full
    /// vocabulary (`Drained` vs `MustWait`), for differential testing
    /// of the two engines.
    pub fn try_pop_outcome(&self) -> TryPop<T> {
        match &self.engine {
            Engine::Locked { state, space, .. } => {
                let mut guard = relock(state.lock());
                let outcome = guard.try_pop();
                if matches!(outcome, TryPop::Frame(_)) {
                    space.notify_one();
                }
                outcome
            }
            #[cfg(feature = "lockfree-swap")]
            Engine::Lockfree(q) => q.try_pop_outcome(),
        }
    }

    /// Priority publish: flushes every pending (obsolete) frame and stores
    /// this one, never blocking. Returns the number of frames flushed, or
    /// `None` if the queue was closed. On the lock-free engine this must
    /// be called from the producer thread.
    pub fn publish_priority(&self, frame: T) -> Option<usize> {
        let flushed = match &self.engine {
            Engine::Locked { state, space, data } => {
                let mut guard = relock(state.lock());
                let flushed = guard.try_publish_priority(frame)?;
                data.notify_one();
                space.notify_one();
                flushed
            }
            #[cfg(feature = "lockfree-swap")]
            Engine::Lockfree(q) => q.publish_priority(frame)?,
        };
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
        match &self.engine {
            Engine::Locked { state, space, data } => {
                let mut guard = relock(state.lock());
                guard.close();
                data.notify_all();
                space.notify_all();
            }
            #[cfg(feature = "lockfree-swap")]
            Engine::Lockfree(q) => q.close(),
        }
    }

    /// Returns `true` if the queue has been closed.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        match &self.engine {
            Engine::Locked { state, .. } => relock(state.lock()).is_closed(),
            #[cfg(feature = "lockfree-swap")]
            Engine::Lockfree(q) => q.is_closed(),
        }
    }

    /// Total frames dropped by overwrites or priority flushes.
    #[must_use]
    pub fn drops(&self) -> u64 {
        match &self.engine {
            Engine::Locked { state, .. } => relock(state.lock()).drops(),
            #[cfg(feature = "lockfree-swap")]
            Engine::Lockfree(q) => q.drops(),
        }
    }

    /// Current number of pending frames (advisory on the lock-free
    /// engine, exact on the locked one).
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.engine {
            Engine::Locked { state, .. } => relock(state.lock()).len(),
            #[cfg(feature = "lockfree-swap")]
            Engine::Lockfree(q) => q.len(),
        }
    }

    /// Returns `true` if no frames are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if a publish would find a free slot. Only the
    /// consumer takes frames out, so for the single producer a `true`
    /// stays true until its own next publish.
    #[must_use]
    pub fn has_space(&self) -> bool {
        match &self.engine {
            Engine::Locked { state, .. } => {
                let guard = relock(state.lock());
                guard.len() < guard.capacity()
            }
            #[cfg(feature = "lockfree-swap")]
            Engine::Lockfree(q) => q.len() < q.capacity(),
        }
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

    #[cfg(feature = "lockfree-swap")]
    #[test]
    fn default_overwriting_queue_is_lockfree() {
        assert!(SyncQueue::<u8>::new_overwriting(1).uses_lockfree());
        assert!(!SyncQueue::<u8>::new_blocking(1).uses_lockfree());
        assert!(!SyncQueue::<u8>::new_locked(1, FullPolicy::Overwrite).uses_lockfree());
        assert!(SyncQueue::<u8>::new_lockfree(1, FullPolicy::Block).uses_lockfree());
    }

    #[cfg(feature = "lockfree-swap")]
    #[test]
    fn lockfree_blocking_queue_transfers_in_order() {
        let q = Arc::new(SyncQueue::new_lockfree(2, FullPolicy::Block));
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
        for q in [
            SyncQueue::new_locked(1, FullPolicy::Block),
            #[cfg(feature = "lockfree-swap")]
            SyncQueue::new_lockfree(1, FullPolicy::Block),
        ] {
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
    }

    #[test]
    fn poisoned_lock_does_not_wedge_the_queue() {
        let q = Arc::new(SyncQueue::new_blocking(2));
        let poisoner = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                match &q.engine {
                    Engine::Locked { state, .. } => {
                        let _guard = relock(state.lock());
                        panic!("poison the mutex on purpose");
                    }
                    #[cfg(feature = "lockfree-swap")]
                    Engine::Lockfree(_) => unreachable!("blocking queues use the locked engine"),
                }
            })
        };
        assert!(poisoner.join().is_err());
        // All entry points still work on the poisoned mutex.
        assert!(q.publish_blocking(5u8));
        assert_eq!(q.pop_blocking(), Some(5));
        q.close();
        assert_eq!(q.pop_blocking(), None);
    }

    #[test]
    fn try_constructors_reject_zero_capacity() {
        assert!(SyncQueue::<u8>::try_new_blocking(1).is_ok());
        assert!(SyncQueue::<u8>::try_new_blocking(0).is_err());
        assert!(SyncQueue::<u8>::try_new_overwriting(2).is_ok());
        let err = match SyncQueue::<u8>::try_new_overwriting(0) {
            Ok(_) => panic!("zero capacity must be rejected"),
            Err(err) => err,
        };
        assert!(err.to_string().contains("capacity"), "{err}");
    }

    #[cfg(feature = "obs")]
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

        // A blocked producer opens and closes a wait_space span.
        let q = Arc::new(SyncQueue::new_blocking(1).with_obs(obs(&rec)));
        assert!(q.publish_blocking(1u8));
        let blocked = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.publish_blocking(2))
        };
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop_blocking(), Some(1));
        assert!(blocked.join().expect("producer"));
        let events = rec.drain().events;
        let begins = events
            .iter()
            .filter(|e| e.kind == Kind::SpanBegin && e.name == names::WAIT_SPACE)
            .count();
        let ends = events
            .iter()
            .filter(|e| e.kind == Kind::SpanEnd && e.name == names::WAIT_SPACE)
            .count();
        assert_eq!((begins, ends), (1, 1));
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
