//! Per-frame stage traces: a view of a captured run's obs spans.

use odr_obs::{names, Event, Kind};
use odr_simtime::SimTime;

use crate::scratch::FrameLanes;

/// One frame's stage windows (Figures 4 and 5), folded out of the run's
/// obs spans when [`crate::ExperimentConfig::obs`] is set.
///
/// A window is the frame's begin and end span in that stage; a stage the
/// frame never entered, or had not left when the run ended, is `None`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrameTrace {
    /// Frame number.
    pub id: u64,
    /// Whether the frame was a priority frame.
    pub priority: bool,
    /// Render start / end.
    pub render: Option<(SimTime, SimTime)>,
    /// Copy start / end in the proxy.
    pub copy: Option<(SimTime, SimTime)>,
    /// Encode start / end in the proxy.
    pub encode: Option<(SimTime, SimTime)>,
    /// Submission to the downlink and arrival at the client.
    pub transmit: Option<(SimTime, SimTime)>,
    /// Decode start / end at the client.
    pub decode: Option<(SimTime, SimTime)>,
    /// Encoded size in bytes.
    pub size: u64,
    /// `true` if the frame was discarded before reaching the client.
    pub dropped: bool,
}

impl FrameTrace {
    /// Render duration in milliseconds, if rendered.
    #[must_use]
    pub fn render_ms(&self) -> Option<f64> {
        self.render.map(|(s, e)| (e - s).as_secs_f64() * 1e3)
    }

    /// Encode duration in milliseconds, if encoded.
    #[must_use]
    pub fn encode_ms(&self) -> Option<f64> {
        self.encode.map(|(s, e)| (e - s).as_secs_f64() * 1e3)
    }

    /// Transmission (submit → arrival) duration in milliseconds, if sent.
    #[must_use]
    pub fn transmit_ms(&self) -> Option<f64> {
        self.transmit.map(|(s, e)| (e - s).as_secs_f64() * 1e3)
    }

    /// Decode duration in milliseconds, if decoded.
    #[must_use]
    pub(crate) fn decode_ms(&self) -> Option<f64> {
        self.decode.map(|(s, e)| (e - s).as_secs_f64() * 1e3)
    }

    /// The stage windows, in the order of [`STAGES`].
    pub(crate) fn windows_mut(&mut self) -> [&mut Option<(SimTime, SimTime)>; 5] {
        [
            &mut self.render,
            &mut self.copy,
            &mut self.encode,
            &mut self.transmit,
            &mut self.decode,
        ]
    }
}

/// The span names that fill a [`FrameTrace`]'s windows, in their order.
pub(crate) const STAGES: [&str; 5] = [
    names::RENDER,
    names::COPY,
    names::ENCODE,
    names::TRANSMIT,
    names::DECODE,
];

/// The end a window holds while its span is open.
const OPEN: SimTime = SimTime::MAX;

/// Folds a run's obs spans into one row per [`FrameLanes::alloc`]: the id,
/// priority, size and dropped flag from the lanes, each stage window from
/// the span with that frame's id. `events` is the time-sorted capture of
/// [`odr_obs::ObsReport::events`], in which a span's begin comes first.
pub(crate) fn traces_from_spans(lanes: &FrameLanes, events: &[Event]) -> Vec<FrameTrace> {
    let mut traces: Vec<FrameTrace> = lanes
        .frames()
        .map(|frame| FrameTrace {
            id: frame.id(),
            priority: lanes.is_priority(frame),
            size: lanes.size(frame),
            dropped: lanes.is_dropped(frame),
            ..FrameTrace::default()
        })
        .collect();
    for e in events {
        let row = e.id.and_then(|id| traces.get_mut(id as usize));
        let stage = STAGES.iter().position(|&name| name == e.name);
        let Some(window) = row
            .zip(stage)
            .and_then(|(t, i)| t.windows_mut().into_iter().nth(i))
        else {
            continue;
        };
        let at = SimTime::from_nanos(e.ts_ns);
        match (e.kind, window.as_mut()) {
            (Kind::SpanBegin, _) => *window = Some((at, OPEN)),
            (Kind::SpanEnd, Some((_, end))) => *end = at,
            _ => {}
        }
    }
    for window in traces.iter_mut().flat_map(FrameTrace::windows_mut) {
        *window = window.filter(|&(_, end)| end != OPEN);
    }
    traces
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_simtime::Duration;

    #[test]
    fn trace_durations() {
        let t0 = SimTime::from_secs(1);
        let trace = FrameTrace {
            render: Some((t0, t0 + Duration::from_millis(5))),
            encode: Some((t0, t0 + Duration::from_millis(10))),
            transmit: None,
            ..FrameTrace::default()
        };
        assert_eq!(trace.render_ms(), Some(5.0));
        assert_eq!(trace.encode_ms(), Some(10.0));
        assert_eq!(trace.transmit_ms(), None);
        assert_eq!(trace.decode_ms(), None);
    }
}
