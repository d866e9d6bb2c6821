//! Ablations of ODR's design choices (DESIGN.md §5).
//!
//! These are not in the paper (except ODRMax-noPri, Table 2) but probe the
//! load-bearing decisions: blocking vs overwriting multi-buffers, the
//! accelerate half of Algorithm 1, and buffer depth.

use odr_core::{FpsGoal, OdrOptions, RegulationSpec};
use odr_pipeline::{run_experiment, ExperimentConfig, Report};
use odr_workload::{Benchmark, Platform, Resolution, Scenario};

use crate::{pad, Settings};

fn run(settings: &Settings, spec: RegulationSpec) -> Report {
    let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
    let cfg = ExperimentConfig::builder(scenario, spec)
        .duration(settings.duration)
        .seed(settings.seed)
        .build();
    run_experiment(&cfg)
}

/// Ablation A — blocking vs overwriting buffers: without blocking, ODR
/// degenerates toward NoReg's gap behaviour.
#[must_use]
pub(crate) fn ablation_blocking(settings: &Settings) -> String {
    let mut out = String::from("Ablation: blocking vs overwriting multi-buffers (IM, 720p priv)\n");
    out.push_str("config           gap avg   gap max   client FPS\n");
    for (label, blocking) in [("ODRMax-block", true), ("ODRMax-noBlk", false)] {
        let spec = RegulationSpec::Odr {
            goal: FpsGoal::Max,
            options: OdrOptions {
                blocking_buffers: blocking,
                ..OdrOptions::default()
            },
        };
        let r = run(settings, spec);
        out.push_str(&format!(
            "{} {:>8.1} {:>9.1} {:>12.1}\n",
            pad(label, 16),
            r.fps_gap_avg,
            r.fps_gap_max,
            r.client_fps
        ));
    }
    out
}

/// Ablation B — accelerate-and-delay vs delay-only regulation: delay-only
/// reproduces the Int60 failure to hold the target.
#[must_use]
pub(crate) fn ablation_accelerate(settings: &Settings) -> String {
    let mut out =
        String::from("Ablation: Algorithm 1 acceleration on/off (IM, 720p priv, 60 FPS goal)\n");
    out.push_str("config           client FPS   windows meeting target\n");
    for (label, accelerate) in [("ODR60-accel", true), ("ODR60-noAcc", false)] {
        let spec = RegulationSpec::Odr {
            goal: FpsGoal::Target(60.0),
            options: OdrOptions {
                accelerate,
                ..OdrOptions::default()
            },
        };
        let r = run(settings, spec);
        out.push_str(&format!(
            "{} {:>10.1} {:>18.1}%\n",
            pad(label, 16),
            r.client_fps,
            r.target_satisfaction * 100.0
        ));
    }
    out
}

/// ODRMax with `depth`-deep multi-buffers.
fn depth_spec(depth: usize) -> RegulationSpec {
    RegulationSpec::Odr {
        goal: FpsGoal::Max,
        options: OdrOptions {
            buffer_depth: depth,
            ..OdrOptions::default()
        },
    }
}

/// Ablation C — multi-buffer depth: deeper buffers smooth throughput but
/// add queueing latency inside the host (bufferbloat in miniature).
#[must_use]
pub(crate) fn ablation_depth(settings: &Settings) -> String {
    let mut out = String::from("Ablation: multi-buffer depth (IM, 720p priv, ODRMax)\n");
    out.push_str("depth   client FPS   MtP mean(ms)   gap avg\n");
    for depth in [1usize, 2, 4, 8] {
        let r = run(settings, depth_spec(depth));
        out.push_str(&format!(
            "{:<7} {:>10.1} {:>13.1} {:>9.1}\n",
            depth, r.client_fps, r.mtp_stats.mean, r.fps_gap_avg
        ));
    }
    out
}

/// Ablation D — regulator debt bound: Algorithm 1 unbounded vs bounded
/// catch-up after long stalls.
#[must_use]
pub(crate) fn ablation_priority(settings: &Settings) -> String {
    let mut out = String::from("Ablation: PriorityFrame on/off (IM, 720p priv, ODRMax)\n");
    out.push_str("config           MtP mean(ms)   MtP p99(ms)   gap avg\n");
    for (label, spec) in [
        ("ODRMax", RegulationSpec::odr(FpsGoal::Max)),
        (
            "ODRMax-noPri",
            RegulationSpec::odr_no_priority(FpsGoal::Max),
        ),
    ] {
        let r = run(settings, spec);
        out.push_str(&format!(
            "{} {:>12.1} {:>13.1} {:>9.1}\n",
            pad(label, 16),
            r.mtp_stats.mean,
            r.mtp_stats.p99,
            r.fps_gap_avg
        ));
    }
    out
}

/// Extension study — client presentation models (the paper's Section 5.2
/// future-work pointer): fixed 60 Hz VSync vs variable refresh.
#[must_use]
pub(crate) fn ablation_display(settings: &Settings) -> String {
    use odr_pipeline::ClientDisplay;
    let mut out = String::from(
        "Extension: client display models (IM, 720p priv, ODRMax)
",
    );
    out.push_str(
        "display          shown FPS   MtP mean(ms)   stutter rate   display drops
",
    );
    let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
    let modes = [
        ("Immediate", ClientDisplay::Immediate),
        ("VSync-60", ClientDisplay::VSync { refresh_hz: 60.0 }),
        ("VSync-144", ClientDisplay::VSync { refresh_hz: 144.0 }),
        ("FreeSync-144", ClientDisplay::FreeSync { max_hz: 144.0 }),
    ];
    for (label, display) in modes {
        let cfg = ExperimentConfig::builder(scenario, RegulationSpec::odr(FpsGoal::Max))
            .duration(settings.duration)
            .seed(settings.seed)
            .display(display)
            .build();
        let r = odr_pipeline::run_experiment(&cfg);
        out.push_str(&format!(
            "{} {:>9.1} {:>13.1} {:>13.3} {:>14}
",
            pad(label, 16),
            r.client_fps,
            r.mtp_stats.mean,
            r.stutter_rate,
            r.display_drops
        ));
    }
    out
}

/// Renders every ablation.
#[must_use]
pub fn all_ablations(settings: &Settings) -> String {
    let mut out = String::new();
    out.push_str(&ablation_blocking(settings));
    out.push('\n');
    out.push_str(&ablation_accelerate(settings));
    out.push('\n');
    out.push_str(&ablation_depth(settings));
    out.push('\n');
    out.push_str(&ablation_priority(settings));
    out.push('\n');
    out.push_str(&ablation_display(settings));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_ablation_orders_modes() {
        let text = ablation_display(&Settings::quick());
        let rows: Vec<Vec<f64>> = text
            .lines()
            .skip(2)
            .map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .map(|v| v.parse().expect("f64"))
                    .collect()
            })
            .collect();
        let (immediate, vsync60, _vsync144, freesync) = (&rows[0], &rows[1], &rows[2], &rows[3]);
        // VSync-60 caps the shown rate; FreeSync-144 does not.
        assert!(vsync60[0] <= 60.5, "vsync60 fps {}", vsync60[0]);
        assert!(freesync[0] > 75.0, "freesync fps {}", freesync[0]);
        // Fixed-rate VSync adds presentation latency over Immediate.
        assert!(
            vsync60[1] > immediate[1],
            "{} vs {}",
            vsync60[1],
            immediate[1]
        );
    }

    #[test]
    fn blocking_ablation_shows_degeneration() {
        let text = ablation_blocking(&Settings::quick());
        let gaps: Vec<f64> = text
            .lines()
            .skip(2)
            .map(|l| {
                l.split_whitespace()
                    .nth(1)
                    .expect("gap")
                    .parse()
                    .expect("f64")
            })
            .collect();
        assert!(
            gaps[1] > gaps[0] + 10.0,
            "overwrite mode must reopen the gap: {gaps:?}"
        );
    }

    #[test]
    fn accelerate_ablation_shows_fps_loss() {
        let text = ablation_accelerate(&Settings::quick());
        let fps: Vec<f64> = text
            .lines()
            .skip(2)
            .map(|l| {
                l.split_whitespace()
                    .nth(1)
                    .expect("fps")
                    .parse()
                    .expect("f64")
            })
            .collect();
        assert!(fps[0] > fps[1] + 1.0, "delay-only must lose FPS: {fps:?}");
    }

    /// Deep buffers add latency on average. One 8 s run cannot show it
    /// (depth 8 beats depth 1 in only 14 to 18 of these 20 seeds, by the
    /// normal sampler's realisation), so the test pools the mean MtP of
    /// `SEEDS` consecutive seeds per depth.
    #[test]
    fn depth_ablation_increases_latency() {
        const SEEDS: u64 = 20;
        let quick = Settings::quick();
        let mtp = |depth: usize| -> Vec<f64> {
            (0..SEEDS)
                .map(|i| {
                    let settings = Settings {
                        seed: quick.seed + i,
                        ..quick
                    };
                    run(&settings, depth_spec(depth)).mtp_stats.mean
                })
                .collect()
        };
        let (shallow, deep) = (mtp(1), mtp(8));
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&deep) > mean(&shallow),
            "deep buffers must add latency: depth 1 {shallow:?}, depth 8 {deep:?}"
        );
    }
}
