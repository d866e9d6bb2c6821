//! Stage workers that outlive their sessions.
//!
//! Every thread a served session runs on is a worker from one of three
//! process-wide sets, one per kind: the app stage's, the proxy stage's,
//! and plain ones for the socket loops ([`spawn`]).
//! A session hands each of its loops to a parked worker of the right
//! kind and joins the [`Job`] it gets back; the worker then parks again
//! for the next session, instead of exiting. Only when none of its kind
//! is parked is a thread spawned, so each set grows to the most workers
//! of its kind that were ever busy at once, and stays there.
//!
//! A worker keeps one value between jobs, `K`, which each job gets by
//! `&mut`: the app and proxy workers keep their session's frame buffers
//! in it, so the next session at the same size reuses them, and the
//! memory they hold is the memory the next session needs, on the thread
//! that will touch it (DESIGN.md §17.6). A job that panics drops what
//! its worker kept; the worker goes on to the next job.
//!
//! A worker parks itself *before* its job's join returns: whoever joined
//! a session's jobs finds their workers parked, so a session that starts
//! right after another has departed reuses them instead of spawning.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::thread;

use crate::stages::{AppKept, ProxyKept};

/// The app stage's workers; each keeps its last session's depth plane and
/// pixel pool.
pub(crate) static APP: Workers<Option<AppKept>> = Workers::new();

/// The proxy stage's workers; each keeps its last session's encoder and
/// payload pool.
pub(crate) static PROXY: Workers<Option<ProxyKept>> = Workers::new();

/// The socket loops' workers, which keep nothing.
static PLAIN: Workers<()> = Workers::new();

/// Runs `job` on a plain worker.
pub fn spawn(job: impl FnOnce() + Send + 'static) -> Job {
    PLAIN.run(move |()| job())
}

/// One job, handed to a worker with what the worker kept.
type Task<K> = Box<dyn FnOnce(&mut K) + Send>;

/// A task and where its outcome goes.
struct Work<K> {
    task: Task<K>,
    done: mpsc::Sender<thread::Result<()>>,
}

/// One kind's parked workers, each reached through the sender of its own
/// channel; the most recently parked is taken first.
pub(crate) struct Workers<K> {
    idle: Mutex<Vec<mpsc::Sender<Work<K>>>>,
}

impl<K: Default + 'static> Workers<K> {
    const fn new() -> Self {
        Workers {
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The parked workers; the stack stays valid whatever a holder of the
    /// lock was doing when it panicked.
    fn idle(&self) -> MutexGuard<'_, Vec<mpsc::Sender<Work<K>>>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands `task` to a parked worker, or to a new one if none is.
    pub(crate) fn run(&'static self, task: impl FnOnce(&mut K) + Send + 'static) -> Job {
        let (done, outcome) = mpsc::channel();
        let work = Work {
            task: Box::new(task),
            done,
        };
        let parked = self.idle().pop();
        match parked {
            // A parked worker never leaves its loop, so the send cannot
            // fail; if it did, the dropped work would fail the join.
            Some(worker) => {
                let _ = worker.send(work);
            }
            None => {
                #[expect(clippy::disallowed_methods, reason = "where session threads spawn")]
                thread::spawn(move || self.serve(work));
            }
        }
        Job {
            outcome,
            finished: None,
        }
    }

    /// A worker's loop: run a job, park, deliver its outcome, wait for
    /// the next.
    fn serve(&'static self, first: Work<K>) {
        let (me, inbox) = mpsc::channel();
        let mut kept = K::default();
        let mut next = first;
        loop {
            let Work { task, done } = next;
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| task(&mut kept)));
            if outcome.is_err() {
                kept = K::default();
            }
            // Park, then deliver: once the join has returned, this worker
            // is there for the next job.
            self.idle().push(me.clone());
            let _ = done.send(outcome);
            // `me` lives as long as this loop, so the channel never
            // disconnects.
            let Ok(work) = inbox.recv() else { return };
            next = work;
        }
    }
}

/// A job running on a worker; [`Job::join`] waits for its outcome.
pub struct Job {
    outcome: mpsc::Receiver<thread::Result<()>>,
    finished: Option<thread::Result<()>>,
}

impl Job {
    /// Waits for the job to finish; by then its worker is parked.
    ///
    /// # Errors
    ///
    /// The panic's payload, if the job panicked.
    pub fn join(self) -> thread::Result<()> {
        match self.finished {
            Some(outcome) => outcome,
            None => self
                .outcome
                .recv()
                .unwrap_or_else(|_| Err(Box::new("worker lost"))),
        }
    }

    /// Whether the job has finished, without waiting.
    pub fn is_finished(&mut self) -> bool {
        if self.finished.is_none() {
            self.finished = match self.outcome.try_recv() {
                Ok(outcome) => Some(outcome),
                Err(mpsc::TryRecvError::Empty) => None,
                Err(mpsc::TryRecvError::Disconnected) => Some(Err(Box::new("worker lost"))),
            };
        }
        self.finished.is_some()
    }
}

/// `slot`'s contents if `fits` says they fit; otherwise what `make`
/// builds, once what was there has been dropped.
pub(crate) fn reuse<K>(
    slot: &mut Option<K>,
    fits: impl FnOnce(&K) -> bool,
    make: impl FnOnce() -> K,
) -> &mut K {
    if !slot.as_ref().is_some_and(fits) {
        *slot = None;
    }
    slot.get_or_insert_with(make)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A kind of its own, so no other test's jobs land on its workers.
    static COUNTERS: Workers<Option<Vec<u64>>> = Workers::new();

    #[test]
    fn a_panicking_job_drops_what_it_kept_and_the_next_job_runs() {
        let first = COUNTERS.run(|kept| kept.get_or_insert_with(Vec::new).push(1));
        assert!(first.join().is_ok());
        let second = COUNTERS.run(|kept| {
            assert_eq!(
                kept.as_deref(),
                Some(&[1][..]),
                "the worker kept its vector"
            );
            kept.get_or_insert_with(Vec::new).push(2);
            panic!("a stage panicked");
        });
        let payload = second.join().expect_err("the panic reaches the join");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"a stage panicked"));
        let (seen_tx, seen) = mpsc::channel();
        let third = COUNTERS.run(move |kept| {
            let _ = seen_tx.send(kept.clone());
        });
        assert!(third.join().is_ok());
        assert_eq!(
            seen.recv().ok(),
            Some(None),
            "the panicked job's vector was dropped"
        );
        assert_eq!(COUNTERS.idle().len(), 1, "one worker ran all three jobs");
    }

    #[test]
    fn a_worker_is_parked_when_its_join_returns() {
        static PARKED: Workers<()> = Workers::new();
        for _ in 0..100 {
            let mut job = PARKED.run(|()| {});
            while !job.is_finished() {
                thread::yield_now();
            }
            assert!(job.join().is_ok());
            assert_eq!(PARKED.idle().len(), 1);
        }
    }
}
