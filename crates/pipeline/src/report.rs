//! Experiment results.

use odr_memsim::MemoryReport;
use odr_metrics::{summary::BoxStats, Summary};

use crate::frame::FrameTrace;

/// Everything one simulated run measures; the union of the quantities the
/// paper's tables and figures report.
#[derive(Clone, Debug)]
pub struct Report {
    /// Label of the run ("IM/720p/Priv ODR60").
    pub label: String,
    /// Mean cloud rendering FPS (1-second windows).
    pub render_fps: f64,
    /// Mean proxy encoding FPS.
    pub encode_fps: f64,
    /// Mean client (decoding) FPS.
    pub client_fps: f64,
    /// Per-window client FPS distribution (Figure 10 box stats).
    pub client_fps_stats: BoxStats,
    /// Raw per-window client FPS samples, in window order. Fleet
    /// aggregation builds mergeable CDFs from these; a serial run can
    /// ignore them.
    pub client_fps_windows: Vec<f64>,
    /// Average windowed FPS gap: rendering minus client (Table 2).
    pub fps_gap_avg: f64,
    /// Maximum windowed FPS gap (Table 2).
    pub fps_gap_max: f64,
    /// Motion-to-photon latency distribution in milliseconds
    /// (Figures 6, 9b, 11).
    pub mtp_ms: Summary,
    /// MtP box stats (mean + tails).
    pub mtp_stats: BoxStats,
    /// Fraction of 200 ms windows meeting the FPS target (Section 5.2);
    /// 1.0 when the goal is Max.
    pub target_satisfaction: f64,
    /// Coefficient of variation of the inter-display intervals (frame
    /// pacing: 0 = perfectly regular delivery).
    pub pacing_cv: f64,
    /// Fraction of inter-display intervals longer than twice the median —
    /// perceptible stutter events.
    pub stutter_rate: f64,
    /// DRAM / IPC / power metrics (Figures 7, 12, 13).
    pub memory: MemoryReport,
    /// Mean downlink goodput in Mb/s (Section 6.6 bandwidth note).
    pub net_goodput_mbps: f64,
    /// Mean downlink queueing delay in milliseconds (the congestion
    /// signal).
    pub net_queue_delay_ms: f64,
    /// Frames rendered in the measurement span.
    pub frames_rendered: u64,
    /// Frames displayed at the client in the measurement span.
    pub frames_displayed: u64,
    /// Frames discarded (buffer overwrites + priority flushes).
    pub frames_dropped: u64,
    /// Frames decoded but never shown because a newer frame replaced them
    /// before their presentation slot (VSync/FreeSync modes only).
    pub display_drops: u64,
    /// Priority frames produced.
    pub priority_frames: u64,
    /// User inputs issued.
    pub inputs: u64,
    /// Events the DES fired: event-queue pops plus stage-job completions
    /// (0 for a non-cloud run, which has no event loop). What a simulated
    /// frame costs the host; printed by no renderer.
    pub events: u64,
    /// One row per frame begun, folded from [`Report::obs`]'s stage spans
    /// when [`ExperimentConfig::obs`] is set; empty otherwise.
    ///
    /// [`ExperimentConfig::obs`]: crate::ExperimentConfig::obs
    pub traces: Vec<FrameTrace>,
    /// Structured observability capture (stage spans, drops, regulator
    /// decisions), populated when [`ExperimentConfig::obs`] is set;
    /// [`ObsReport::disabled`] otherwise. Never feeds the scalar metrics
    /// above, so enabling it cannot change a report's rendered text.
    ///
    /// [`ExperimentConfig::obs`]: crate::ExperimentConfig::obs
    /// [`ObsReport::disabled`]: odr_obs::ObsReport::disabled
    pub obs: odr_obs::ObsReport,
}

/// Computes (coefficient of variation, stutter-event rate) from a series
/// of inter-display intervals in milliseconds, reordering them.
///
/// The stutter rate counts intervals longer than twice the median — the
/// classic perceptible-hitch heuristic.
#[must_use]
pub(crate) fn pacing_stats(intervals_ms: &mut [f64]) -> (f64, f64) {
    if intervals_ms.len() < 2 {
        return (0.0, 0.0);
    }
    let n = intervals_ms.len() as f64;
    let mean = intervals_ms.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        return (0.0, 0.0);
    }
    let var = intervals_ms
        .iter()
        .map(|x| (x - mean) * (x - mean))
        .sum::<f64>()
        / n;
    let cv = var.sqrt() / mean;
    // The sums above are taken in recorded order; only then is the slice
    // reordered. `total_cmp` is a total order in which equal means equal
    // bits, so the selected element is the one a full sort puts at
    // `len / 2`. At least two intervals reach here, so `len / 2 < len` and
    // the selection cannot panic.
    let mid = intervals_ms.len() / 2;
    let (_, &mut median, _) = intervals_ms.select_nth_unstable_by(mid, f64::total_cmp);
    let stutters = intervals_ms.iter().filter(|&&x| x > 2.0 * median).count();
    (cv, stutters as f64 / n)
}

impl Report {
    /// Mean MtP latency in milliseconds.
    #[must_use]
    pub fn mtp_mean_ms(&self) -> f64 {
        self.mtp_stats.mean
    }

    /// One-line summary used by the harness output.
    #[must_use]
    pub fn one_line(&self) -> String {
        format!(
            "{:<28} render {:7.1} fps | client {:7.1} fps | gap {:6.1}/{:6.1} | MtP {:8.1} ms | {:6.1} W",
            self.label,
            self.render_fps,
            self.client_fps,
            self.fps_gap_avg,
            self.fps_gap_max,
            self.mtp_stats.mean,
            self.memory.power_w
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `pacing_stats` as it was before the median was selected: a sorted
    /// copy, read at `len / 2`.
    fn pacing_stats_by_sorting(intervals_ms: &[f64]) -> (f64, f64) {
        if intervals_ms.len() < 2 {
            return (0.0, 0.0);
        }
        let n = intervals_ms.len() as f64;
        let mean = intervals_ms.iter().sum::<f64>() / n;
        if mean <= 0.0 {
            return (0.0, 0.0);
        }
        let var = intervals_ms
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / n;
        let cv = var.sqrt() / mean;
        let mut sorted = intervals_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let stutters = intervals_ms.iter().filter(|&&x| x > 2.0 * median).count();
        (cv, stutters as f64 / n)
    }

    #[test]
    fn the_selected_median_is_the_sorted_one() {
        let mut rng = odr_simtime::Rng::new(29);
        // Few distinct values, so duplicates are common, with both zeros.
        let values = [0.0, -0.0, 1.5, 16.6, 16.7, 16.7, 33.3, 50.0, -2.0];
        for run in 0..2_000 {
            // Odd and even lengths, from the empty series up.
            let len = rng.below(40) as usize;
            let intervals: Vec<f64> = (0..len)
                .map(|_| match rng.below(3) {
                    0 => rng.next_f64() * 40.0,
                    _ => values[rng.below(values.len() as u64) as usize],
                })
                .collect();
            let (cv, stutter) = pacing_stats_by_sorting(&intervals);
            let mut selected = intervals.clone();
            let (got_cv, got_stutter) = pacing_stats(&mut selected);
            assert_eq!(got_cv.to_bits(), cv.to_bits(), "run {run}: {intervals:?}");
            assert_eq!(got_stutter.to_bits(), stutter.to_bits(), "run {run}");
            if len > 0 {
                let mut sorted = intervals.clone();
                sorted.sort_by(f64::total_cmp);
                let mut picked = intervals.clone();
                let (_, &mut median, _) = picked.select_nth_unstable_by(len / 2, f64::total_cmp);
                assert_eq!(median.to_bits(), sorted[len / 2].to_bits(), "run {run}");
            }
        }
    }
}
