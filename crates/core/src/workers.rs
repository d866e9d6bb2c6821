//! Threads that outlive their jobs: the one way the workspace's libraries
//! get a thread (DESIGN.md §17.6).
//!
//! A worker runs a job, parks, and takes the next job of its set instead
//! of exiting; a thread is spawned only when none of the set is parked.
//! It keeps one value between jobs, `K`, lent to each job by `&mut` (the
//! stage workers of `odr-runtime` keep their frame buffers in it); a job
//! that panics drops it. A worker parks *before* its job's join returns,
//! so whoever joined a job finds its worker parked. Which worker runs a
//! job never reaches the job's result.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::thread;

/// The plain workers, which keep nothing.
static PLAIN: Workers<()> = Workers::new();

/// Runs `job` on a plain worker.
pub fn spawn<T: Send + 'static>(job: impl FnOnce() -> T + Send + 'static) -> Job<T> {
    PLAIN.run(move |()| job())
}

/// One job, handed to a worker with what the worker kept and the way to
/// park it: the job runs, parks the worker, then delivers its outcome.
type Task<K> = Box<dyn FnOnce(&mut K, &dyn Fn()) + Send>;

/// One set's parked workers, each reached through the sender of its own
/// channel; the most recently parked is taken first.
#[derive(Default)]
pub struct Workers<K> {
    idle: Mutex<Vec<mpsc::Sender<Task<K>>>>,
}

impl<K: Default + 'static> Workers<K> {
    /// A set with no worker yet; the first job spawns one.
    #[must_use]
    pub const fn new() -> Self {
        Workers {
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The parked workers; the stack stays valid whatever a holder of the
    /// lock was doing when it panicked.
    fn idle(&self) -> MutexGuard<'_, Vec<mpsc::Sender<Task<K>>>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands `job` to a parked worker, or to a new one if none is.
    pub fn run<T: Send + 'static>(
        &'static self,
        job: impl FnOnce(&mut K) -> T + Send + 'static,
    ) -> Job<T> {
        let (done, outcome) = mpsc::channel();
        let task: Task<K> = Box::new(move |kept, park| {
            let result = panic::catch_unwind(AssertUnwindSafe(|| job(kept)));
            if result.is_err() {
                *kept = K::default();
            }
            // Park, then deliver: once the join has returned, this worker
            // is there for the next job.
            park();
            let _ = done.send(result);
        });
        let parked = self.idle().pop();
        match parked {
            // A parked worker never leaves its loop, so the send cannot
            // fail; if it did, the dropped task would fail the join.
            Some(worker) => {
                let _ = worker.send(task);
            }
            None => {
                #[expect(clippy::disallowed_methods, reason = "the one place threads spawn")]
                thread::spawn(move || self.serve(task));
            }
        }
        Job {
            outcome,
            finished: None,
        }
    }

    /// A worker's loop: run a task, which parks this worker, then wait for
    /// the next.
    fn serve(&'static self, first: Task<K>) {
        let (me, inbox) = mpsc::channel();
        let mut kept = K::default();
        let mut next = first;
        loop {
            next(&mut kept, &|| self.idle().push(me.clone()));
            // `me` lives as long as this loop, so the channel never
            // disconnects.
            let Ok(task) = inbox.recv() else { return };
            next = task;
        }
    }
}

/// A job running on a worker; [`Job::join`] waits for its outcome.
pub struct Job<T> {
    outcome: mpsc::Receiver<thread::Result<T>>,
    finished: Option<thread::Result<T>>,
}

impl<T> Job<T> {
    /// Waits for the job to finish; by then its worker is parked.
    ///
    /// # Errors
    ///
    /// The panic's payload, if the job panicked.
    pub fn join(self) -> thread::Result<T> {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A set of its own, so no other test's jobs land on its workers.
    static COUNTERS: Workers<Option<Vec<u64>>> = Workers::new();

    thread_local! {
        /// Set by the first job, so a later one can tell it runs on the
        /// same thread.
        static MARKED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    #[test]
    fn a_panicking_job_drops_what_it_kept_and_its_worker_runs_the_next() {
        let first = COUNTERS.run(|kept| {
            MARKED.set(true);
            kept.get_or_insert_with(Vec::new).push(1);
        });
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
        // The job's value reaches the join: what the worker kept, and
        // whether it is the thread the first job marked.
        let third = COUNTERS.run(|kept| (kept.clone(), MARKED.get()));
        assert_eq!(
            third.join().ok(),
            Some((None, true)),
            "the panicked job's vector was dropped, on the same worker"
        );
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
