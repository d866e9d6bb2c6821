//! Recording sinks: the [`Recorder`] trait object, a bounded ring buffer,
//! and the no-op null sink used when observability is disabled.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::event::Event;

/// Default ring capacity: 65 536 events (~3 MiB), enough for several
/// minutes of per-frame spans at 60 FPS before the ring starts shedding
/// its oldest entries.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Everything a recorder held when it was drained.
#[derive(Clone, Debug, Default)]
pub struct Drained {
    /// Recorded events, in insertion order.
    pub events: Vec<Event>,
    /// Events shed because the ring was full (oldest-first eviction).
    pub dropped: u64,
}

impl Drained {
    /// Concatenates another drain into this one (used to merge per-thread
    /// rings; sort by timestamp afterwards, e.g. via
    /// [`crate::ObsReport::from_drained`]).
    pub fn merge(&mut self, other: Drained) {
        self.events.extend(other.events);
        self.dropped += other.dropped;
    }
}

/// A sink for [`Event`]s.
///
/// Producers hold `&dyn Recorder` (or `Arc<dyn Recorder>` across threads)
/// so the disabled path is a [`NullRecorder`] behind the same vtable: no
/// generics leak into pipeline types, and callers can skip even event
/// construction by checking [`Recorder::enabled`] first.
pub trait Recorder: Send + Sync {
    /// `true` when recorded events are actually kept. Producers use this to
    /// skip argument evaluation on the disabled path.
    fn enabled(&self) -> bool;

    /// Records one event. Must be cheap and must never block on anything
    /// but its own short internal lock.
    fn record(&self, event: Event);

    /// Takes everything recorded so far, leaving the sink empty. The
    /// default (for sinks that keep nothing) returns an empty drain.
    fn drain(&self) -> Drained {
        Drained::default()
    }

    /// Drains everything recorded so far into `into`, appending to its
    /// event list and shed counter. Equivalent to
    /// `into.merge(self.drain())` but lets sinks skip the intermediate
    /// [`Drained`]; repeated incremental drains followed by a final one
    /// accumulate exactly what a single shutdown drain would have
    /// returned (minus anything the ring shed in between, which the
    /// `dropped` counter still accounts for).
    fn drain_into(&self, into: &mut Drained) {
        into.merge(self.drain());
    }

    /// The ring behind this sink, if it is one, so that a per-frame
    /// producer (`odr_core::ProxyCycle`) can look it up once and then
    /// record without a virtual call; `None` for a sink that keeps
    /// nothing.
    fn ring(&self) -> Option<&RingRecorder> {
        None
    }
}

/// The no-op sink: drops every event, reports itself disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}
}

/// A `&'static` no-op sink, handy where a `&dyn Recorder` is needed but no
/// allocation is wanted.
pub static NULL_RECORDER: NullRecorder = NullRecorder;

/// A bounded, thread-safe ring buffer of events.
///
/// When full it evicts the oldest event and counts it in
/// [`Drained::dropped`], so a runaway producer degrades the trace window
/// instead of memory. Capture is switched off at run time by handing
/// producers a [`NullRecorder`] instead.
#[derive(Debug)]
pub struct RingRecorder {
    inner: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl RingRecorder {
    /// Creates a ring holding at most `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> RingRecorder {
        let capacity = capacity.max(1);
        RingRecorder {
            inner: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity.min(DEFAULT_CAPACITY)),
                capacity,
                dropped: 0,
            }),
        }
    }

    /// Recovers the guard from a poisoned lock: the ring holds plain data,
    /// so observing a panicked writer's partial state is safe.
    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().events.is_empty()
    }
}

impl Default for RingRecorder {
    fn default() -> RingRecorder {
        RingRecorder::new(DEFAULT_CAPACITY)
    }
}

impl Recorder for RingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn ring(&self) -> Option<&RingRecorder> {
        Some(self)
    }

    fn record(&self, event: Event) {
        let mut ring = self.lock();
        if ring.events.len() >= ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    fn drain(&self) -> Drained {
        let mut ring = self.lock();
        let dropped = ring.dropped;
        ring.dropped = 0;
        Drained {
            events: ring.events.drain(..).collect(),
            dropped,
        }
    }

    fn drain_into(&self, into: &mut Drained) {
        let mut ring = self.lock();
        into.dropped += ring.dropped;
        ring.dropped = 0;
        into.events.extend(ring.events.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{names, track};

    fn ev(ts: u64) -> Event {
        Event::instant(ts, track::APP, names::PRESENT)
    }

    #[test]
    fn null_recorder_is_disabled_and_empty() {
        let r = NullRecorder;
        assert!(!r.enabled());
        r.record(ev(1));
        let d = r.drain();
        assert!(d.events.is_empty());
        assert_eq!(d.dropped, 0);
    }

    #[test]
    fn ring_keeps_insertion_order() {
        let r = RingRecorder::new(8);
        assert!(r.enabled());
        for ts in 0..5 {
            r.record(ev(ts));
        }
        let d = r.drain();
        assert_eq!(d.dropped, 0);
        let stamps: Vec<u64> = d.events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(stamps, vec![0, 1, 2, 3, 4]);
        assert!(r.is_empty());
    }

    #[test]
    fn full_ring_sheds_oldest_and_counts() {
        let r = RingRecorder::new(3);
        for ts in 0..10 {
            r.record(ev(ts));
        }
        assert_eq!(r.len(), 3);
        let d = r.drain();
        assert_eq!(d.dropped, 7);
        let stamps: Vec<u64> = d.events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(stamps, vec![7, 8, 9]);
        // Drain resets the shed counter.
        assert_eq!(r.drain().dropped, 0);
    }

    #[test]
    fn incremental_drain_matches_shutdown_drain_byte_for_byte() {
        // Two rings fed the identical event stream; one is drained
        // incrementally mid-stream (the live-telemetry path), the other
        // only at shutdown. The merged incremental capture must render
        // to exactly the same JSONL bytes as the one-shot drain.
        let live = RingRecorder::new(4); // small: forces shedding too
        let shutdown = RingRecorder::new(4);
        let mut acc = Drained::default();
        for ts in 0..14 {
            live.record(ev(ts));
            shutdown.record(ev(ts));
            if ts % 5 == 4 {
                live.drain_into(&mut acc);
            }
        }
        live.drain_into(&mut acc);
        let once = shutdown.drain();
        // Shedding only happens between drains, so the incremental path
        // keeps MORE events; equality of the shared invariants is what
        // the contract promises: same total observed, same ordering.
        assert_eq!(acc.events.len() as u64 + acc.dropped, 14);
        assert_eq!(once.events.len() as u64 + once.dropped, 14);
        let stamps: Vec<u64> = acc.events.iter().map(|e| e.ts_ns).collect();
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        assert_eq!(stamps, sorted, "incremental drain preserves order");

        // With capacity ample enough that nothing sheds, the two paths
        // are byte-identical through the JSONL exporter.
        let live = RingRecorder::new(64);
        let shutdown = RingRecorder::new(64);
        let mut acc = Drained::default();
        for ts in 0..14 {
            live.record(ev(ts));
            shutdown.record(ev(ts));
            if ts % 5 == 4 {
                live.drain_into(&mut acc);
            }
        }
        live.drain_into(&mut acc);
        let incremental = crate::ObsReport::from_drained(acc);
        let oneshot = crate::ObsReport::from_drained(shutdown.drain());
        assert_eq!(
            crate::export::to_jsonl(&incremental),
            crate::export::to_jsonl(&oneshot),
            "drain-then-merge must be byte-identical to shutdown-only drain"
        );
    }

    #[test]
    fn merge_concatenates_drains() {
        let mut a = Drained {
            events: vec![ev(1)],
            dropped: 2,
        };
        a.merge(Drained {
            events: vec![ev(2), ev(3)],
            dropped: 1,
        });
        assert_eq!(a.events.len(), 3);
        assert_eq!(a.dropped, 3);
    }
}
