//! The drained, analysed form of a run's observability data.

use crate::counters::Counters;
use crate::event::Event;
use crate::recorder::{Drained, Recorder};
use crate::stall::{find_stalls, Stall, DEFAULT_STALL_FACTOR};

/// Everything observability knows about one finished run: the (possibly
/// ring-truncated) event list sorted by timestamp, per-stage counters, and
/// detected stalls.
///
/// Attached to `odr_pipeline::Report`; `odr-fleet` folds only the
/// [`Counters`] (events do not survive the per-session reduction). A
/// disabled run carries the [`ObsReport::disabled`] value, which is
/// `Default` — report equality and rendering are unaffected by
/// observability being off.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Whether recording was active for the run.
    pub enabled: bool,
    /// Recorded events, stably sorted by `ts_ns` (producer order breaks
    /// ties, which keeps merged multi-recorder traces deterministic).
    pub events: Vec<Event>,
    /// Events the ring shed because it was full.
    pub dropped: u64,
    /// Per-stage totals folded from `events`, including stall counts.
    pub counters: Counters,
    /// Spans flagged by the stall detector at
    /// [`DEFAULT_STALL_FACTOR`], sorted by start time.
    pub stalls: Vec<Stall>,
}

impl ObsReport {
    /// The report of a run that recorded nothing.
    #[must_use]
    pub fn disabled() -> ObsReport {
        ObsReport::default()
    }

    /// Analyses a drained event list: sorts it, folds counters, runs the
    /// stall detector and folds stall counts into the counter table.
    #[must_use]
    pub(crate) fn from_drained(mut drained: Drained) -> ObsReport {
        drained.events.sort_by_key(|e| e.ts_ns);
        let stalls = find_stalls(&drained.events, DEFAULT_STALL_FACTOR);
        let mut counters = Counters::from_events(&drained.events);
        for stall in &stalls {
            counters.entry(stall.name).stalls += 1;
        }
        ObsReport {
            enabled: true,
            events: drained.events,
            dropped: drained.dropped,
            counters,
            stalls,
        }
    }

    /// Drains a recorder and analyses the result; a disabled recorder
    /// yields [`ObsReport::disabled`].
    #[must_use]
    pub fn from_recorder(recorder: &dyn Recorder) -> ObsReport {
        if !recorder.enabled() {
            return ObsReport::disabled();
        }
        ObsReport::from_drained(recorder.drain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{names, track};
    use crate::recorder::{NullRecorder, RingRecorder};

    #[test]
    fn disabled_report_is_default_and_empty() {
        let r = ObsReport::disabled();
        assert!(!r.enabled);
        assert!(r.events.is_empty());
        assert!(r.counters.is_empty());
        assert!(r.stalls.is_empty());
    }

    #[test]
    fn null_recorder_drains_to_disabled() {
        let r = ObsReport::from_recorder(&NullRecorder);
        assert!(!r.enabled);
    }

    #[test]
    fn from_drained_sorts_and_folds() {
        let drained = Drained {
            events: vec![
                Event::end(10, track::APP, names::RENDER),
                Event::begin(2, track::APP, names::RENDER),
            ],
            dropped: 0,
        };
        let r = ObsReport::from_drained(drained);
        assert!(r.enabled);
        assert_eq!(r.events[0].ts_ns, 2);
        let render = r.counters.get(names::RENDER).copied().unwrap_or_default();
        assert_eq!((render.begun, render.completed), (1, 1));
    }

    #[test]
    fn ring_recorder_round_trips_and_counts_stalls() {
        let ring = RingRecorder::default();
        let mut t = 0;
        for _ in 0..30 {
            ring.record(Event::begin(t, track::PROXY, names::ENCODE));
            t += 1_000;
            ring.record(Event::end(t, track::PROXY, names::ENCODE));
        }
        ring.record(Event::begin(t, track::PROXY, names::ENCODE));
        ring.record(Event::end(t + 50_000, track::PROXY, names::ENCODE));
        let r = ObsReport::from_recorder(&ring);
        assert_eq!(r.stalls.len(), 1);
        assert_eq!(
            r.counters.get(names::ENCODE).map(|c| c.stalls),
            Some(1),
            "stall count folds into the stage row"
        );
    }
}
