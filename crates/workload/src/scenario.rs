//! Evaluation scenarios: benchmark × resolution × platform.
//!
//! The per-benchmark base parameters below are calibrated so that an
//! *unregulated* simulated pipeline on the private-cloud platform at 720p
//! reproduces the paper's measured rates (Figures 1, 3, 10a): e.g. InMind
//! rendering at ~189 FPS while the client decodes ~93 FPS, IMHOTEP showing
//! the largest FPS gap, Red Eclipse the highest client FPS. Resolution and
//! platform are expressed as multiplicative factors on those bases, the
//! same way the paper treats them (same binaries, different pixel counts
//! and hardware).

use odr_memsim::{MemoryParams, PowerParams};
use odr_netsim::LinkParams;
use odr_simtime::Duration;

use crate::{
    benchmark::Benchmark,
    frame::{FrameModel, FrameSizeModel},
    input::InputModel,
    stage::StageModel,
};

/// Output resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// 1280 × 720.
    R720p,
    /// 1920 × 1080.
    R1080p,
}

impl Resolution {
    /// Both resolutions, in the paper's order.
    pub const ALL: [Resolution; 2] = [Resolution::R720p, Resolution::R1080p];

    /// Frame width in pixels.
    #[must_use]
    pub fn width(self) -> u32 {
        match self {
            Resolution::R720p => 1280,
            Resolution::R1080p => 1920,
        }
    }

    /// Frame height in pixels.
    #[must_use]
    pub fn height(self) -> u32 {
        match self {
            Resolution::R720p => 720,
            Resolution::R1080p => 1080,
        }
    }

    /// The paper's FPS target for this resolution (60 at 720p, 30 at
    /// 1080p).
    #[must_use]
    pub fn fps_target(self) -> f64 {
        match self {
            Resolution::R720p => 60.0,
            Resolution::R1080p => 30.0,
        }
    }

    /// Short label ("720p" / "1080p").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Resolution::R720p => "720p",
            Resolution::R1080p => "1080p",
        }
    }

    /// Rendering-time scale relative to 720p (sub-linear in pixel count:
    /// vertex work is resolution-independent).
    fn render_scale(self) -> f64 {
        match self {
            Resolution::R720p => 1.0,
            Resolution::R1080p => 1.55,
        }
    }

    /// Framebuffer-copy scale (linear in pixel count).
    fn copy_scale(self) -> f64 {
        match self {
            Resolution::R720p => 1.0,
            Resolution::R1080p => 2.25,
        }
    }

    /// Encoding-time scale (slightly sub-linear in pixel count).
    fn encode_scale(self) -> f64 {
        match self {
            Resolution::R720p => 1.0,
            Resolution::R1080p => 1.8,
        }
    }

    /// Decoding-time scale.
    fn decode_scale(self) -> f64 {
        match self {
            Resolution::R720p => 1.0,
            Resolution::R1080p => 1.9,
        }
    }

    /// Encoded-size scale.
    fn size_scale(self) -> f64 {
        match self {
            Resolution::R720p => 1.0,
            Resolution::R1080p => 1.85,
        }
    }
}

/// Deployment platform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Platform {
    /// The paper's private cloud: i7-7820x + GTX 1080Ti, 1 Gb/s LAN,
    /// ~2 ms RTT.
    PrivateCloud,
    /// Google Compute Engine n1-highcpu-16 + Tesla P4, WAN path with
    /// ~25 ms RTT and bounded per-flow throughput.
    Gce,
    /// Local (non-cloud) execution on the client machine — used by the
    /// user-study baseline. No proxy, no network.
    NonCloud,
}

impl Platform {
    /// Short label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Platform::PrivateCloud => "Priv",
            Platform::Gce => "GCE",
            Platform::NonCloud => "NonCloud",
        }
    }

    /// Render-time factor relative to the private cloud's GTX 1080Ti.
    fn render_factor(self) -> f64 {
        match self {
            Platform::PrivateCloud => 1.0,
            // Tesla P4 is close on these workloads (several are CPU-bound).
            Platform::Gce => 1.05,
            // The user-study client machine runs the game natively with
            // local quality settings and enough GPU headroom to sustain
            // the 60 Hz display (the study's NonCloud baseline showed
            // essentially no stutter).
            Platform::NonCloud => 0.75,
        }
    }

    /// Encode-time factor (the 16-core GCE Xeon encodes faster).
    fn encode_factor(self) -> f64 {
        match self {
            Platform::PrivateCloud => 1.0,
            Platform::Gce => 0.75,
            Platform::NonCloud => 1.0,
        }
    }

    /// The frame downlink (cloud → client).
    #[must_use]
    pub fn downlink(self) -> LinkParams {
        match self {
            Platform::PrivateCloud => LinkParams::private_cloud(),
            Platform::Gce => LinkParams::public_cloud(),
            Platform::NonCloud => LinkParams {
                latency: Duration::ZERO,
                jitter_sigma: 0.0,
                bandwidth_bps: 1e12,
                buffer_cap_bytes: None,
                loss_prob: 0.0,
            },
        }
    }

    /// The input uplink (client → cloud). Inputs are tiny, so only latency
    /// matters; the uplink never congests.
    #[must_use]
    pub fn uplink(self) -> LinkParams {
        let down = self.downlink();
        LinkParams {
            latency: down.latency,
            jitter_sigma: down.jitter_sigma,
            bandwidth_bps: 20e6,
            buffer_cap_bytes: None,
            loss_prob: 0.0,
        }
    }
}

/// Per-benchmark calibration record (base values at 720p, private cloud).
struct Calibration {
    render_median_ms: f64,
    render_sigma: f64,
    render_spike_p: f64,
    render_spike_xm: f64,
    render_spike_alpha: f64,
    encode_median_ms: f64,
    size_kb: f64,
    input_hz: f64,
    gpu_power_w: f64,
    ipc_base: f64,
}

fn calibration(benchmark: Benchmark) -> Calibration {
    // Targets (NoReg, 720p private cloud, including the ~1.13× memory
    // contention slowdown the pipeline applies):
    //   render FPS: STK 160, 0AD 145, RE 210, D2 140, IM 189, ITP ~170
    //   client FPS: STK 125, 0AD 105, RE 135, D2 100, IM  93, ITP   66
    match benchmark {
        Benchmark::SuperTuxKart => Calibration {
            render_median_ms: 4.52,
            render_sigma: 0.30,
            render_spike_p: 0.06,
            render_spike_xm: 2.5,
            render_spike_alpha: 2.5,
            encode_median_ms: 4.76,
            size_kb: 78.0,
            input_hz: 4.5,
            gpu_power_w: 80.0,
            ipc_base: 1.30,
        },
        Benchmark::ZeroAd => Calibration {
            render_median_ms: 4.66,
            render_sigma: 0.35,
            render_spike_p: 0.08,
            render_spike_xm: 2.5,
            render_spike_alpha: 2.5,
            encode_median_ms: 5.71,
            size_kb: 84.0,
            input_hz: 3.0,
            gpu_power_w: 68.0,
            ipc_base: 0.98,
        },
        Benchmark::RedEclipse => Calibration {
            render_median_ms: 3.54,
            render_sigma: 0.30,
            render_spike_p: 0.05,
            render_spike_xm: 2.5,
            render_spike_alpha: 2.5,
            encode_median_ms: 4.57,
            size_kb: 72.0,
            input_hz: 5.0,
            gpu_power_w: 92.0,
            ipc_base: 1.11,
        },
        Benchmark::Dota2 => Calibration {
            render_median_ms: 4.73,
            render_sigma: 0.40,
            render_spike_p: 0.08,
            render_spike_xm: 2.5,
            render_spike_alpha: 2.5,
            encode_median_ms: 6.07,
            size_kb: 86.0,
            input_hz: 4.0,
            gpu_power_w: 72.0,
            ipc_base: 0.85,
        },
        Benchmark::InMind => Calibration {
            render_median_ms: 2.94,
            render_sigma: 0.40,
            render_spike_p: 0.12,
            render_spike_xm: 2.8,
            render_spike_alpha: 2.2,
            encode_median_ms: 6.64,
            size_kb: 84.0,
            input_hz: 2.5,
            gpu_power_w: 88.0,
            ipc_base: 0.26,
        },
        Benchmark::Imhotep => Calibration {
            render_median_ms: 2.98,
            render_sigma: 0.35,
            render_spike_p: 0.15,
            render_spike_xm: 3.0,
            render_spike_alpha: 2.2,
            encode_median_ms: 10.17,
            size_kb: 84.0,
            input_hz: 2.0,
            gpu_power_w: 160.0,
            ipc_base: 0.65,
        },
    }
}

/// One evaluation scenario: a benchmark at a resolution on a platform.
///
/// # Examples
///
/// ```
/// use odr_workload::{Benchmark, Platform, Resolution, Scenario};
///
/// let s = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
/// let fm = s.frame_model();
/// // Unregulated, InMind renders much faster than the proxy encodes.
/// assert!(fm.render.mean_rate_hz() > 1e3 / (fm.copy.mean_ms() + fm.encode.mean_ms()));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// The benchmark application.
    pub benchmark: Benchmark,
    /// Output resolution.
    pub resolution: Resolution,
    /// Deployment platform.
    pub platform: Platform,
}

impl Scenario {
    /// Creates a scenario.
    #[must_use]
    pub fn new(benchmark: Benchmark, resolution: Resolution, platform: Platform) -> Self {
        Scenario {
            benchmark,
            resolution,
            platform,
        }
    }

    /// Human-readable label, e.g. `"IM/720p/Priv"`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.benchmark.short(),
            self.resolution.label(),
            self.platform.label()
        )
    }

    /// A stable id used to derive RNG streams.
    #[must_use]
    pub fn stream_id(&self) -> u64 {
        let res = match self.resolution {
            Resolution::R720p => 0,
            Resolution::R1080p => 1,
        };
        let plat = match self.platform {
            Platform::PrivateCloud => 0,
            Platform::Gce => 1,
            Platform::NonCloud => 2,
        };
        self.benchmark.stream_id() * 100 + res * 10 + plat
    }

    /// The calibrated per-frame cost model for this scenario.
    #[must_use]
    pub fn frame_model(&self) -> FrameModel {
        let c = calibration(self.benchmark);
        let render = StageModel::new(c.render_median_ms, c.render_sigma)
            .with_spikes(c.render_spike_p, c.render_spike_xm, c.render_spike_alpha)
            .scaled(self.resolution.render_scale() * self.platform.render_factor());
        let copy = StageModel::new(1.0, 0.15).scaled(self.resolution.copy_scale());
        let encode = StageModel::new(c.encode_median_ms, 0.25)
            .with_spikes(0.05, 2.0, 3.0)
            .scaled(self.resolution.encode_scale() * self.platform.encode_factor());
        let decode = StageModel::new(2.2, 0.20)
            .with_spikes(0.03, 2.0, 3.0)
            .scaled(self.resolution.decode_scale());
        let size = FrameSizeModel::new(c.size_kb * 1e3, 0.22, 150, 2.5)
            .scaled(self.resolution.size_scale());
        FrameModel {
            render,
            copy,
            encode,
            decode,
            size,
        }
    }

    /// The calibrated input model for this scenario.
    #[must_use]
    pub fn input_model(&self) -> InputModel {
        InputModel::new(calibration(self.benchmark).input_hz)
    }

    /// The frame downlink for this platform.
    #[must_use]
    pub fn downlink(&self) -> LinkParams {
        self.platform.downlink()
    }

    /// The input uplink for this platform.
    #[must_use]
    pub fn uplink(&self) -> LinkParams {
        self.platform.uplink()
    }

    /// DRAM model parameters (per-benchmark IPC baseline).
    #[must_use]
    pub fn memory_params(&self) -> MemoryParams {
        MemoryParams {
            ipc_base: calibration(self.benchmark).ipc_base,
            ..MemoryParams::default()
        }
    }

    /// Wall-power model parameters (per-benchmark GPU render power).
    #[must_use]
    pub fn power_params(&self) -> PowerParams {
        PowerParams {
            idle_w: 85.0,
            app_w: 12.0,
            render_w: calibration(self.benchmark).gpu_power_w,
            copy_w: 8.0,
            encode_w: 20.0,
            util_exponent: 0.35,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn priv720(b: Benchmark) -> Scenario {
        Scenario::new(b, Resolution::R720p, Platform::PrivateCloud)
    }

    #[test]
    fn render_rates_match_paper_ordering() {
        // Red Eclipse renders fastest; DoTA 2 slowest among the games.
        let rate = |b| priv720(b).frame_model().render.mean_rate_hz();
        assert!(rate(Benchmark::RedEclipse) > rate(Benchmark::SuperTuxKart));
        assert!(rate(Benchmark::SuperTuxKart) > rate(Benchmark::Dota2));
    }

    #[test]
    fn inmind_rates_near_figure3() {
        // Figure 3: InMind NoReg renders ~189 FPS, encodes/decodes ~93 FPS.
        // Base rates exclude the contention slowdown the pipeline adds
        // under unregulated load; the unregulated proxy overlaps the most
        // concurrent activity (~1.25× contention slowdown the pipeline
        // adds, so base render ≈ 189 × 1.11 ≈ 210 and proxy ≈ 103.
        let fm = priv720(Benchmark::InMind).frame_model();
        let render = fm.render.mean_rate_hz();
        assert!((190.0..=230.0).contains(&render), "render {render}");
        let proxy = 1e3 / (fm.copy.mean_ms() + fm.encode.mean_ms());
        assert!((105.0..=125.0).contains(&proxy), "proxy {proxy}");
    }

    #[test]
    fn every_benchmark_overrenders_unregulated() {
        // The excessive-rendering premise: rendering outpaces the proxy.
        for b in Benchmark::ALL {
            let fm = priv720(b).frame_model();
            let proxy = 1e3 / (fm.copy.mean_ms() + fm.encode.mean_ms());
            assert!(
                fm.render.mean_rate_hz() > proxy + 20.0,
                "{b} render {} vs proxy {proxy}",
                fm.render.mean_rate_hz()
            );
        }
    }

    #[test]
    fn gce_unregulated_load_congests_downlink() {
        // The Section 6.4 congestion effect requires NoReg's offered load
        // to exceed GCE capacity at both resolutions for every benchmark.
        for b in Benchmark::ALL {
            for r in Resolution::ALL {
                let s = Scenario::new(b, r, Platform::Gce);
                let offered = s.frame_model().unregulated_offered_bps();
                let capacity = s.downlink().bandwidth_bps;
                assert!(
                    offered > capacity,
                    "{}: {offered:.0} <= {capacity:.0}",
                    s.label()
                );
            }
        }
    }

    #[test]
    fn gce_regulated_load_fits_downlink() {
        // ...while the 60/30 FPS targets must fit (ODR meets QoS on GCE).
        for b in Benchmark::ALL {
            for r in Resolution::ALL {
                let s = Scenario::new(b, r, Platform::Gce);
                let bps = r.fps_target() * s.frame_model().size.mean_bytes() * 8.0;
                let capacity = s.downlink().bandwidth_bps;
                assert!(
                    bps < capacity * 0.95,
                    "{}: {bps:.0} vs {capacity:.0}",
                    s.label()
                );
            }
        }
    }

    #[test]
    fn private_cloud_never_congests() {
        for b in Benchmark::ALL {
            for r in Resolution::ALL {
                let s = Scenario::new(b, r, Platform::PrivateCloud);
                let offered = s.frame_model().unregulated_offered_bps();
                assert!(offered < s.downlink().bandwidth_bps * 0.5, "{}", s.label());
            }
        }
    }

    #[test]
    fn bandwidth_in_paper_band_at_60fps() {
        // Section 6.6: ODR used 15–60 Mb/s depending on configuration.
        for b in Benchmark::ALL {
            let s = priv720(b);
            let mbps = 60.0 * s.frame_model().size.mean_bytes() * 8.0 / 1e6;
            assert!((15.0..=60.0).contains(&mbps), "{}: {mbps}", s.label());
        }
    }

    #[test]
    fn resolution_scales_costs_up() {
        let lo = priv720(Benchmark::SuperTuxKart).frame_model();
        let hi = Scenario::new(
            Benchmark::SuperTuxKart,
            Resolution::R1080p,
            Platform::PrivateCloud,
        )
        .frame_model();
        assert!(hi.render.mean_ms() > lo.render.mean_ms());
        assert!(hi.encode.mean_ms() > lo.encode.mean_ms());
        assert!(hi.copy.mean_ms() > lo.copy.mean_ms());
        assert!(hi.size.mean_bytes() > lo.size.mean_bytes());
    }

    #[test]
    fn input_rates_in_paper_band() {
        // Section 5.3: 2–5 priority inputs per second, average ≈ 3.6.
        let rates: Vec<f64> = Benchmark::ALL
            .iter()
            .map(|&b| priv720(b).input_model().rate_hz)
            .collect();
        for &r in &rates {
            assert!((2.0..=5.0).contains(&r));
        }
        let avg = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!((3.0..=4.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn imhotep_has_highest_power() {
        // Figure 13: IMHOTEP draws the most power (264 W unregulated).
        let itp = priv720(Benchmark::Imhotep).power_params();
        for b in Benchmark::ALL {
            if b != Benchmark::Imhotep {
                assert!(priv720(b).power_params().render_w < itp.render_w);
            }
        }
    }

    #[test]
    fn stream_ids_unique_across_grid() {
        let mut ids = Vec::new();
        for b in Benchmark::ALL {
            for r in Resolution::ALL {
                for p in [Platform::PrivateCloud, Platform::Gce, Platform::NonCloud] {
                    ids.push(Scenario::new(b, r, p).stream_id());
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 36);
    }

    #[test]
    fn labels_are_stable() {
        let s = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::Gce);
        assert_eq!(s.label(), "IM/720p/GCE");
    }
}
