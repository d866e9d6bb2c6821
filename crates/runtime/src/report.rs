//! What the client of a real-time session measured.

use odr_metrics::Summary;

/// Wall-clock measurements taken at the client end of one session, where
/// the paper measures quality. Everything here is counted or timed by the
/// client itself; what only the server knows (frames rendered, encoded,
/// dropped) travels in its farewell report, not here.
#[derive(Clone, Debug, Default)]
pub struct RuntimeReport {
    /// Wall-clock seconds from the end of the handshake to the end of the
    /// stream.
    pub elapsed_secs: f64,
    /// Frames decoded and displayed.
    pub frames_displayed: u64,
    /// Of those, frames that arrived flagged as PriorityFrames.
    pub priority_frames: u64,
    /// Inputs sent.
    pub inputs: u64,
    /// Motion-to-photon latency samples in milliseconds.
    pub mtp_ms: Summary,
    /// Inter-display intervals in milliseconds (frame pacing at the
    /// client).
    pub display_intervals_ms: Summary,
    /// Encoded payload bytes received.
    pub bytes_sent: u64,
}

impl RuntimeReport {
    /// Client display rate in frames per second.
    #[must_use]
    pub fn client_fps(&self) -> f64 {
        self.frames_displayed as f64 / self.elapsed_secs.max(1e-9)
    }

    /// Mean motion-to-photon latency in milliseconds.
    #[must_use]
    pub fn mtp_mean_ms(&self) -> f64 {
        self.mtp_ms.mean()
    }

    /// Frame-pacing coefficient of variation at the client (0 = perfectly
    /// regular delivery).
    #[must_use]
    pub fn pacing_cv(&self) -> f64 {
        let mean = self.display_intervals_ms.mean();
        if mean <= 0.0 {
            return 0.0;
        }
        self.display_intervals_ms.std_dev() / mean
    }

    /// Average video bitrate in megabits per second.
    #[must_use]
    pub fn bitrate_mbps(&self) -> f64 {
        self.bytes_sent as f64 * 8.0 / self.elapsed_secs.max(1e-9) / 1e6
    }
}
