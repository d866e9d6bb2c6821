//! Monotonic-offset wall clock for the realtime runtime path.
//!
//! Simulated components never touch this module — their timestamps come
//! from `odr_simtime::SimTime`, which is deterministic by construction. The
//! real four-thread runtime has no sim clock, so it stamps events with
//! nanoseconds since a shared [`MonoClock`] origin instead. Keeping the
//! only wall-clock read in this one module lets `clippy.toml` ban
//! `Instant::now` everywhere else.

use std::time::Instant;

/// A copyable origin for monotonic nanosecond timestamps.
///
/// All threads of one runtime share a single origin (the clock is `Copy`),
/// so their per-thread rings merge onto one timeline.
#[derive(Clone, Copy, Debug)]
pub struct MonoClock {
    origin: Instant,
}

impl MonoClock {
    /// Starts a clock at "now"; timestamps are measured from this origin.
    #[must_use]
    #[expect(clippy::disallowed_methods, reason = "the runtime's one trace clock")]
    pub fn start() -> MonoClock {
        MonoClock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the origin, saturating at `u64::MAX`
    /// (which is ~584 years — effectively never).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        let nanos = self.origin.elapsed().as_nanos();
        u64::try_from(nanos).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let clock = MonoClock::start();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn copies_share_the_origin() {
        let clock = MonoClock::start();
        let copy = clock;
        std::thread::sleep(std::time::Duration::from_millis(1));
        // Both copies have advanced past zero from the same origin.
        assert!(clock.now_ns() >= 1_000_000);
        assert!(copy.now_ns() >= 1_000_000);
    }
}
