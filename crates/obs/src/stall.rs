//! Post-hoc stall detection: flag spans that ran far longer than their
//! stage's typical time.
//!
//! The detector is purely a function of the drained event list, so it adds
//! zero cost to the hot path and is trivially deterministic: same events,
//! same stalls.

use std::collections::{BTreeMap, VecDeque};

use crate::event::{Event, Kind};

/// Default stall threshold: a span is a stall when it exceeds 4× the
/// median duration of its (track, name) population.
pub(crate) const DEFAULT_STALL_FACTOR: f64 = 4.0;

/// Minimum spans a stage must have before stalls are reported for it;
/// below this the median is too noisy to accuse anything.
pub(crate) const MIN_STALL_SAMPLES: usize = 16;

/// One flagged overrun.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stall {
    /// Track the span ran on.
    pub track: u32,
    /// Stage name.
    pub name: &'static str,
    /// Span start, nanoseconds since the trace origin.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
    /// The stage's median span duration the threshold was computed from.
    pub median_ns: u64,
}

/// Pairs `SpanBegin`/`SpanEnd` events per (track, name) in FIFO order,
/// computes each stage's median span, and returns every span longer than
/// `factor ×` that median, sorted by start time (ties by track then name).
///
/// Expects `events` sorted by `ts_ns` (as [`crate::ObsReport`] guarantees);
/// unmatched begins and ends are ignored. Stages with fewer than
/// [`MIN_STALL_SAMPLES`] spans are never flagged.
#[must_use]
pub(crate) fn find_stalls(events: &[Event], factor: f64) -> Vec<Stall> {
    // FIFO begin queues and completed spans per (track, name); BTreeMap so
    // the iteration below is deterministic.
    let mut open: BTreeMap<(u32, &'static str), VecDeque<u64>> = BTreeMap::new();
    let mut spans: BTreeMap<(u32, &'static str), Vec<(u64, u64)>> = BTreeMap::new();
    for ev in events {
        let key = (ev.track, ev.name);
        match ev.kind {
            Kind::SpanBegin => open.entry(key).or_default().push_back(ev.ts_ns),
            Kind::SpanEnd => {
                if let Some(start) = open.get_mut(&key).and_then(VecDeque::pop_front) {
                    spans
                        .entry(key)
                        .or_default()
                        .push((start, ev.ts_ns.saturating_sub(start)));
                }
            }
            Kind::Instant | Kind::Counter => {}
        }
    }

    let mut stalls = Vec::new();
    for ((track, name), stage_spans) in &spans {
        if stage_spans.len() < MIN_STALL_SAMPLES {
            continue;
        }
        let mut durations: Vec<u64> = stage_spans.iter().map(|(_, d)| *d).collect();
        durations.sort_unstable();
        // Upper median; for stall thresholds the half-sample bias of the
        // even case is irrelevant. `len / 2 < len` for the non-empty
        // populations that reach here, so the lookup always hits.
        let Some(&median_ns) = durations.get(durations.len() / 2) else {
            continue;
        };
        let threshold = (median_ns as f64) * factor;
        for (start_ns, duration_ns) in stage_spans {
            if (*duration_ns as f64) > threshold {
                stalls.push(Stall {
                    track: *track,
                    name,
                    start_ns: *start_ns,
                    duration_ns: *duration_ns,
                    median_ns,
                });
            }
        }
    }
    stalls.sort_by_key(|s| (s.start_ns, s.track, s.name));
    stalls
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{names, track};

    /// `count` spans of `normal_ns` plus one of `spike_ns`, back to back.
    fn spans(count: usize, normal_ns: u64, spike_ns: u64) -> Vec<Event> {
        let mut events = Vec::new();
        let mut t = 0;
        for _ in 0..count {
            events.push(Event::begin(t, track::APP, names::RENDER));
            t += normal_ns;
            events.push(Event::end(t, track::APP, names::RENDER));
        }
        events.push(Event::begin(t, track::APP, names::RENDER));
        events.push(Event::end(t + spike_ns, track::APP, names::RENDER));
        events
    }

    #[test]
    fn spike_over_threshold_is_flagged() {
        let events = spans(30, 1_000, 10_000);
        let stalls = find_stalls(&events, DEFAULT_STALL_FACTOR);
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].duration_ns, 10_000);
        assert_eq!(stalls[0].median_ns, 1_000);
        assert_eq!(stalls[0].name, names::RENDER);
    }

    #[test]
    fn uniform_spans_produce_no_stalls() {
        let events = spans(30, 1_000, 1_000);
        assert!(find_stalls(&events, DEFAULT_STALL_FACTOR).is_empty());
    }

    #[test]
    fn small_samples_are_never_accused() {
        let events = spans(4, 1_000, 50_000);
        assert!(find_stalls(&events, DEFAULT_STALL_FACTOR).is_empty());
    }

    #[test]
    fn unmatched_ends_are_ignored() {
        let events = [
            Event::end(5, track::APP, names::RENDER),
            Event::begin(10, track::APP, names::RENDER),
        ];
        assert!(find_stalls(&events, DEFAULT_STALL_FACTOR).is_empty());
    }

    #[test]
    fn tracks_are_independent_populations() {
        // Slow decodes must not raise the render median.
        let mut events = spans(30, 1_000, 10_000);
        let mut t = 0;
        for _ in 0..30 {
            events.push(Event::begin(t, track::CLIENT, names::DECODE));
            t += 100_000;
            events.push(Event::end(t, track::CLIENT, names::DECODE));
        }
        let stalls = find_stalls(&events, DEFAULT_STALL_FACTOR);
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].track, track::APP);
    }
}
