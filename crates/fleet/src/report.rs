//! Per-session extraction and fleet-level reduction.

use odr_metrics::Cdf;
use odr_pipeline::{ExperimentConfig, Report};

/// The measurements one session contributes to the fleet.
///
/// Extracted from a full [`Report`] as soon as the session finishes so
/// worker threads hand back compact, already-sorted sketches instead of
/// frame traces.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// Session index within the fleet.
    pub index: u32,
    /// RNG seed the session ran with.
    pub seed: u64,
    /// Per-window client FPS distribution.
    pub fps_cdf: Cdf,
    /// Motion-to-photon latency distribution in milliseconds.
    pub mtp_cdf: Cdf,
    /// Mean client FPS.
    pub client_fps: f64,
    /// Mean MtP latency in milliseconds.
    pub mtp_mean_ms: f64,
    /// Mean server power in watts.
    pub power_w: f64,
    /// Energy over the measured span in joules.
    pub energy_j: f64,
    /// Fraction of windows meeting the FPS target.
    pub target_satisfaction: f64,
    /// Per-stage memory-stream busy fractions, in
    /// [`odr_memsim::MemClient::ALL`] order (AppLogic, Render, Copy,
    /// Encode).
    pub utilisation: [f64; 4],
    /// Frames rendered in the measurement span.
    pub frames_rendered: u64,
    /// Frames displayed at the client.
    pub frames_displayed: u64,
    /// Frames discarded (excessive rendering).
    pub frames_dropped: u64,
    /// Priority frames produced.
    pub priority_frames: u64,
    /// User inputs issued.
    pub inputs: u64,
    /// Per-stage observability counters (empty when the session ran with
    /// capture off). Sessions hand back counters, never raw event logs,
    /// so a fleet's memory stays bounded.
    pub obs: odr_obs::Counters,
}

impl SessionOutcome {
    /// Extracts the fleet-relevant sketches from one session's report.
    #[must_use]
    pub(crate) fn from_report(index: u32, cfg: &ExperimentConfig, report: Report) -> Self {
        let measured_secs = cfg.duration.as_secs_f64();
        SessionOutcome {
            index,
            seed: cfg.seed,
            fps_cdf: Cdf::from_samples(report.client_fps_windows.iter().copied()),
            mtp_cdf: Cdf::from(report.mtp_ms),
            client_fps: report.client_fps,
            mtp_mean_ms: report.mtp_stats.mean,
            power_w: report.memory.power_w,
            energy_j: report.memory.power_w * measured_secs,
            target_satisfaction: report.target_satisfaction,
            utilisation: report.memory.utilisation,
            frames_rendered: report.frames_rendered,
            frames_displayed: report.frames_displayed,
            frames_dropped: report.frames_dropped,
            priority_frames: report.priority_frames,
            inputs: report.inputs,
            obs: report.obs.counters,
        }
    }
}

/// One line of the fleet report's per-session table.
#[derive(Clone, Copy, Debug)]
pub struct SessionRow {
    /// Session index.
    pub index: u32,
    /// RNG seed the session ran with.
    pub seed: u64,
    /// Mean client FPS.
    pub client_fps: f64,
    /// Mean MtP latency in milliseconds.
    pub mtp_mean_ms: f64,
    /// Mean server power in watts.
    pub power_w: f64,
    /// Energy over the measured span in joules.
    pub energy_j: f64,
    /// Fraction of windows meeting the FPS target.
    pub target_satisfaction: f64,
}

/// The fleet's aggregate view of N sessions.
///
/// Every field is produced by an index-ordered fold over the per-session
/// outcomes, so two runs of the same fleet agree bit-for-bit regardless
/// of worker-pool size.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Label of the shared experiment shape.
    pub label: String,
    /// Number of sessions simulated.
    pub sessions: u32,
    /// Client FPS distribution over every window of every session.
    pub fps_cdf: Cdf,
    /// MtP latency distribution (ms) over every input of every session.
    pub mtp_cdf: Cdf,
    /// Per-session energy distribution (J); one sample per session.
    pub energy_cdf: Cdf,
    /// Sum of per-session mean powers in watts (fleet draw).
    pub total_power_w: f64,
    /// Total fleet energy over the measured span in joules.
    pub total_energy_j: f64,
    /// Mean per-session target satisfaction.
    pub mean_satisfaction: f64,
    /// Expected concurrently active memory streams: the sum of every
    /// session's per-stage busy fractions (the quantity
    /// [`odr_pipeline::colocation`]'s mean-field model predicts).
    pub des_streams: f64,
    /// Sum of per-session busy fractions by stage, in
    /// [`odr_memsim::MemClient::ALL`] order.
    pub busy: [f64; 4],
    /// Sum of per-session GPU (render-stage) busy fractions.
    pub gpu_busy: f64,
    /// Frames rendered across the fleet.
    pub frames_rendered: u64,
    /// Frames displayed across the fleet.
    pub frames_displayed: u64,
    /// Frames discarded across the fleet.
    pub frames_dropped: u64,
    /// Priority frames across the fleet.
    pub priority_frames: u64,
    /// Inputs across the fleet.
    pub inputs: u64,
    /// Observability counters summed across the fleet in session-index
    /// order (empty when sessions ran with capture off). Deliberately not
    /// part of [`to_text`](FleetReport::to_text): enabling capture must
    /// not change the rendered report.
    pub obs: odr_obs::Counters,
    /// Per-session table, in session-index order.
    pub per_session: Vec<SessionRow>,
}

impl FleetReport {
    /// Folds per-session outcomes (already sorted by session index) into
    /// the fleet report. The fold order is part of the determinism
    /// contract: floating-point sums happen in index order.
    #[must_use]
    pub fn reduce(label: String, outcomes: &[SessionOutcome]) -> FleetReport {
        let mut fps_cdf = Cdf::from_samples([]);
        let mut mtp_cdf = Cdf::from_samples([]);
        let mut report = FleetReport {
            label,
            sessions: outcomes.len() as u32,
            fps_cdf: Cdf::from_samples([]),
            mtp_cdf: Cdf::from_samples([]),
            energy_cdf: Cdf::from_samples([]),
            total_power_w: 0.0,
            total_energy_j: 0.0,
            mean_satisfaction: 0.0,
            des_streams: 0.0,
            busy: [0.0; 4],
            gpu_busy: 0.0,
            frames_rendered: 0,
            frames_displayed: 0,
            frames_dropped: 0,
            priority_frames: 0,
            inputs: 0,
            obs: odr_obs::Counters::default(),
            per_session: Vec::with_capacity(outcomes.len()),
        };
        for o in outcomes {
            fps_cdf = fps_cdf.merge(&o.fps_cdf);
            mtp_cdf = mtp_cdf.merge(&o.mtp_cdf);
            report.total_power_w += o.power_w;
            report.total_energy_j += o.energy_j;
            report.mean_satisfaction += o.target_satisfaction;
            report.des_streams += o.utilisation.iter().sum::<f64>();
            for (total, stage) in report.busy.iter_mut().zip(o.utilisation) {
                *total += stage;
            }
            report.gpu_busy += o.utilisation[1];
            report.frames_rendered += o.frames_rendered;
            report.frames_displayed += o.frames_displayed;
            report.frames_dropped += o.frames_dropped;
            report.priority_frames += o.priority_frames;
            report.inputs += o.inputs;
            report.obs.absorb(&o.obs);
            report.per_session.push(SessionRow {
                index: o.index,
                seed: o.seed,
                client_fps: o.client_fps,
                mtp_mean_ms: o.mtp_mean_ms,
                power_w: o.power_w,
                energy_j: o.energy_j,
                target_satisfaction: o.target_satisfaction,
            });
        }
        if !outcomes.is_empty() {
            report.mean_satisfaction /= outcomes.len() as f64;
        }
        report.energy_cdf = Cdf::from_samples(outcomes.iter().map(|o| o.energy_j));
        report.fps_cdf = fps_cdf;
        report.mtp_cdf = mtp_cdf;
        report
    }

    /// Renders the report as deterministic plain text: same fleet, same
    /// bytes, regardless of thread count. The CI differential pipes this
    /// through `cmp`.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "fleet {} sessions={}", self.label, self.sessions);
        let _ = writeln!(out, "fps      {}", cdf_line(&self.fps_cdf));
        let _ = writeln!(out, "mtp_ms   {}", cdf_line(&self.mtp_cdf));
        let _ = writeln!(out, "energy_j {}", cdf_line(&self.energy_cdf));
        let _ = writeln!(
            out,
            "totals rendered={} displayed={} dropped={} priority={} inputs={}",
            self.frames_rendered,
            self.frames_displayed,
            self.frames_dropped,
            self.priority_frames,
            self.inputs
        );
        let _ = writeln!(
            out,
            "power_w={:.3} energy_j={:.1} streams={:.4} gpu_busy={:.4} satisfaction={:.4}",
            self.total_power_w,
            self.total_energy_j,
            self.des_streams,
            self.gpu_busy,
            self.mean_satisfaction
        );
        for row in &self.per_session {
            let _ = writeln!(
                out,
                "session {:>3} seed={:016x} fps={:8.3} mtp_ms={:8.3} power_w={:7.3} energy_j={:9.1} sat={:.4}",
                row.index,
                row.seed,
                row.client_fps,
                row.mtp_mean_ms,
                row.power_w,
                row.energy_j,
                row.target_satisfaction
            );
        }
        out
    }
}

/// Formats a CDF's tails and quartiles on one line.
fn cdf_line(cdf: &Cdf) -> String {
    format!(
        "n={:6} p1={:9.3} p25={:9.3} p50={:9.3} p75={:9.3} p99={:9.3}",
        cdf.len(),
        cdf.quantile(0.01),
        cdf.quantile(0.25),
        cdf.quantile(0.50),
        cdf.quantile(0.75),
        cdf.quantile(0.99)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(index: u32, power: f64) -> SessionOutcome {
        SessionOutcome {
            index,
            seed: u64::from(index) * 7,
            fps_cdf: Cdf::from_samples([59.0 + f64::from(index), 60.0]),
            mtp_cdf: Cdf::from_samples([30.0, 40.0 + f64::from(index)]),
            client_fps: 60.0,
            mtp_mean_ms: 35.0,
            power_w: power,
            energy_j: power * 10.0,
            target_satisfaction: 0.9,
            utilisation: [0.2, 0.4, 0.1, 0.1],
            frames_rendered: 600,
            frames_displayed: 590,
            frames_dropped: 10,
            priority_frames: 5,
            inputs: 20,
            obs: {
                let mut c = odr_obs::Counters::default();
                c.entry("render").begun = 600;
                c.entry("render").drops = 10;
                c
            },
        }
    }

    #[test]
    fn reduce_sums_and_merges() {
        let outcomes = [outcome(0, 50.0), outcome(1, 70.0)];
        let r = FleetReport::reduce("test".into(), &outcomes);
        assert_eq!(r.sessions, 2);
        assert_eq!(r.fps_cdf.len(), 4);
        assert_eq!(r.mtp_cdf.len(), 4);
        assert_eq!(r.energy_cdf.len(), 2);
        assert!((r.total_power_w - 120.0).abs() < 1e-12);
        assert!((r.total_energy_j - 1200.0).abs() < 1e-12);
        assert!((r.des_streams - 1.6).abs() < 1e-12);
        assert!((r.gpu_busy - 0.8).abs() < 1e-12);
        assert_eq!(r.frames_rendered, 1200);
        assert_eq!(r.per_session.len(), 2);
        assert!((r.mean_satisfaction - 0.9).abs() < 1e-12);
        let render = r.obs.get("render").copied().unwrap_or_default();
        assert_eq!(render.begun, 1200);
        assert_eq!(render.drops, 20);
    }

    #[test]
    fn empty_fleet_reduces_to_zeros() {
        let r = FleetReport::reduce("empty".into(), &[]);
        assert_eq!(r.sessions, 0);
        assert!(r.fps_cdf.is_empty());
        assert_eq!(r.mean_satisfaction, 0.0);
        assert!(r.to_text().contains("sessions=0"));
    }

    #[test]
    fn to_text_lists_every_session() {
        let outcomes = [outcome(0, 50.0), outcome(1, 70.0), outcome(2, 60.0)];
        let r = FleetReport::reduce("t".into(), &outcomes);
        let text = r.to_text();
        assert_eq!(text.lines().filter(|l| l.starts_with("session")).count(), 3);
        assert_eq!(text, r.to_text());
    }
}
