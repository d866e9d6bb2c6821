//! [`Gate`]: the eventcount every wakeable wait parks on.
//!
//! The gate is the blocking edge of code that otherwise never takes a
//! lock. A signaller changes some state of its own (publishes a frame,
//! sends an input, closes a queue) and *rings* the gate; a waiter parks
//! until the state it is waiting for holds. The gate knows nothing about
//! that state: it only guarantees that a ring is never lost between the
//! waiter's last look at the state and its park.
//!
//! Two users share it: the `MustWait` edges of
//! [`crate::atomic_swap::AtomicSwap`], and the real-thread runtime, whose
//! per-session gate turns the renderer's wait for buffer room and the
//! regulator's sleep into waits an input or a shutdown can cut short
//! (DESIGN.md §18).
//!
//! # Protocol
//!
//! 1. waiter: `prepare_wait` (waiter count up, SeqCst fence, read the
//!    epoch);
//! 2. waiter: recheck the state — if it still says wait, `park` (or
//!    `park_until`) on the epoch read in step 1; either way finish with
//!    `cancel_wait`;
//! 3. signaller: write the state, then [`Gate::signal_all`] (SeqCst
//!    fence, check the waiter count, and only if someone waits take the
//!    lock, bump the epoch and notify).
//!
//! The two SeqCst fences make the classic Dekker argument go through:
//! either the signaller sees the waiter count (and bumps the epoch the
//! waiter read, so its park returns at once), or the waiter's recheck
//! sees the new state (and never parks). [`Gate::wait_until`] runs steps
//! 1 and 2 around a caller-supplied predicate; the swap engine, whose
//! recheck is a protocol step of its own, runs them by hand.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A poisoned lock means another pipeline thread panicked while holding
/// it; the gate's epoch counter is always consistent, so we keep going.
fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// An eventcount. The signalling fast path (no waiters) is a fence plus
/// one load and touches no lock; see the module docs for the protocol.
#[derive(Debug, Default)]
pub struct Gate {
    waiters: AtomicU64,
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl Gate {
    /// A gate nobody waits on.
    #[must_use]
    pub fn new() -> Self {
        Gate::default()
    }

    /// Registers this thread as a waiter and returns the epoch to park
    /// on. Must be balanced by [`Gate::cancel_wait`] (after the park, or
    /// instead of it).
    pub(crate) fn prepare_wait(&self) -> u64 {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        *relock(self.epoch.lock())
    }

    /// Deregisters this thread as a waiter.
    pub(crate) fn cancel_wait(&self) {
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Parks until the epoch moves past `seen`.
    pub(crate) fn park(&self, seen: u64) {
        let mut epoch = relock(self.epoch.lock());
        while *epoch == seen {
            epoch = relock(self.cv.wait(epoch));
        }
    }

    /// Parks until the epoch moves past `seen` or `deadline` passes.
    /// Returns `true` when the gate was rung, `false` at the deadline.
    pub(crate) fn park_until(&self, seen: u64, deadline: Instant) -> bool {
        let mut epoch = relock(self.epoch.lock());
        while *epoch == seen {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            epoch = match self.cv.wait_timeout(epoch, left) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        true
    }

    /// Wakes every parked waiter. Cheap when nobody waits: the fast
    /// path is a fence plus one load, and the locked epoch bump lives
    /// out of line so wait-free callers stay free of blocking effects (a
    /// waiter being parked is the one case where taking the epoch lock
    /// is the point).
    pub fn signal_all(&self) {
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        self.signal_slow();
    }

    /// The contended wake: bump the epoch under the lock and notify.
    #[cold]
    fn signal_slow(&self) {
        let mut epoch = relock(self.epoch.lock());
        *epoch = epoch.wrapping_add(1);
        drop(epoch);
        self.cv.notify_all();
    }

    /// Waits until `ready()` holds, or until `deadline` if there is one:
    /// the prepare / recheck / park protocol around a predicate. Returns
    /// `true` as soon as `ready()` does, `false` at the deadline.
    ///
    /// Whoever makes `ready()` true must call [`Gate::signal_all`]
    /// afterwards. `ready` runs on this thread, at least once and again
    /// after every ring, and takes no lock of the gate's, so it may have
    /// side effects (draining a channel, say).
    pub fn wait_until(&self, deadline: Option<Instant>, mut ready: impl FnMut() -> bool) -> bool {
        loop {
            // Nothing to wait for: skip the waiter count and the lock.
            if ready() {
                return true;
            }
            let seen = self.prepare_wait();
            if ready() {
                self.cancel_wait();
                return true;
            }
            let rung = match deadline {
                Some(deadline) => self.park_until(seen, deadline),
                None => {
                    self.park(seen);
                    true
                }
            };
            self.cancel_wait();
            if !rung {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    /// Far enough away that reaching it means the test hung.
    fn never() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    #[test]
    fn ring_between_prepare_and_park_is_not_lost() {
        let gate = Gate::new();
        let seen = gate.prepare_wait();
        // The signaller runs after the waiter registered but before it
        // parks: it sees the waiter count and bumps the epoch.
        gate.signal_all();
        gate.park(seen); // would hang forever on a lost wake-up
        assert!(gate.park_until(seen, never()));
        gate.cancel_wait();
    }

    #[test]
    fn ring_without_waiters_takes_the_fast_path() {
        let gate = Gate::new();
        gate.signal_all();
        assert_eq!(*relock(gate.epoch.lock()), 0, "nobody waited: no bump");
        let seen = gate.prepare_wait();
        gate.signal_all();
        assert_eq!(*relock(gate.epoch.lock()), seen + 1);
        gate.cancel_wait();
    }

    #[test]
    fn park_until_times_out_without_a_ring() {
        let gate = Gate::new();
        let seen = gate.prepare_wait();
        let deadline = Instant::now() + Duration::from_millis(20);
        assert!(!gate.park_until(seen, deadline));
        assert!(Instant::now() >= deadline);
        gate.cancel_wait();
        // A deadline already behind us never parks at all.
        assert!(!gate.wait_until(Some(Instant::now()), || false));
    }

    #[test]
    fn park_until_returns_true_on_a_ring() {
        let gate = Arc::new(Gate::new());
        let flag = Arc::new(AtomicBool::new(false));
        let ringer = {
            let gate = Arc::clone(&gate);
            let flag = Arc::clone(&flag);
            thread::spawn(move || {
                flag.store(true, Ordering::Relaxed);
                gate.signal_all();
            })
        };
        // Whatever the interleaving, the waiter sees the flag or the ring.
        assert!(gate.wait_until(Some(never()), || flag.load(Ordering::Relaxed)));
        ringer.join().expect("ringer");
        assert_eq!(gate.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn two_thread_ping_pong_never_hangs() {
        const ROUNDS: u64 = 100_000;
        // `turn` counts completed half-rounds: even is ping's move, odd
        // is pong's. Each side waits for its turn, moves, and rings.
        let gate = Arc::new(Gate::new());
        let turn = Arc::new(AtomicU64::new(0));
        let pong = {
            let gate = Arc::clone(&gate);
            let turn = Arc::clone(&turn);
            thread::spawn(move || {
                for round in 0..ROUNDS {
                    let mine = 2 * round + 1;
                    assert!(
                        gate.wait_until(Some(never()), || { turn.load(Ordering::Relaxed) == mine })
                    );
                    turn.store(mine + 1, Ordering::Relaxed);
                    gate.signal_all();
                }
            })
        };
        for round in 0..ROUNDS {
            let mine = 2 * round;
            assert!(gate.wait_until(Some(never()), || turn.load(Ordering::Relaxed) == mine));
            turn.store(mine + 1, Ordering::Relaxed);
            gate.signal_all();
        }
        pong.join().expect("pong");
        assert_eq!(turn.load(Ordering::Relaxed), 2 * ROUNDS);
    }
}
