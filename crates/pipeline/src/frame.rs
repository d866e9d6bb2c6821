//! Per-frame stage traces.

use odr_simtime::SimTime;

/// Per-frame stage timestamps collected when tracing is enabled
/// (Figures 4 and 5).
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
    pub fn decode_ms(&self) -> Option<f64> {
        self.decode.map(|(s, e)| (e - s).as_secs_f64() * 1e3)
    }
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
