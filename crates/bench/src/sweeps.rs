//! Parameter sweeps: where the crossovers fall.
//!
//! The paper's evaluation fixes two network operating points (1 Gb/s LAN,
//! ~45 Mb/s WAN). These sweeps chart the space in between:
//!
//! * [`sweep_bandwidth`] — at what path capacity does the unregulated
//!   pipeline tip into congestion collapse, and where does ODR's QoS stop
//!   being achievable?
//! * [`sweep_target`] — how far can the FPS target be pushed before the
//!   regulator can no longer hold it (the feasibility frontier)?

use odr_core::{FpsGoal, RegulationSpec};
use odr_netsim::LinkParams;
use odr_pipeline::{run_experiment, ExperimentConfig, Report};
use odr_workload::{Benchmark, Platform, Resolution, Scenario};

use crate::Settings;

/// Runs one InMind experiment against a GCE-like path with the given
/// downlink capacity.
fn run_at_bandwidth(settings: &Settings, spec: RegulationSpec, mbps: f64) -> Report {
    let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::Gce);
    let cfg = ExperimentConfig::builder(scenario, spec)
        .duration(settings.duration)
        .seed(settings.seed)
        .build();
    // Override only the downlink capacity; keep the WAN latency/buffers.
    let link = LinkParams {
        bandwidth_bps: mbps * 1e6,
        ..scenario.downlink()
    };
    run_experiment_with_downlink(&cfg, link)
}

/// `run_experiment` with a custom downlink. Exposed through the sim's
/// config override hook.
fn run_experiment_with_downlink(cfg: &ExperimentConfig, link: LinkParams) -> Report {
    run_experiment(&ExperimentConfig {
        downlink_override: Some(link),
        ..*cfg
    })
}

/// The bandwidth crossover sweep (IM, 720p, WAN latency).
#[must_use]
pub fn sweep_bandwidth(settings: &Settings) -> String {
    let mut out = String::from("Sweep: downlink capacity vs QoS (IM, 720p, 25 ms-RTT path)\n");
    out.push_str("Mb/s    NoReg fps  NoReg MtP(ms)   ODR60 fps  ODR60 MtP(ms)  ODR60 ok?\n");
    for mbps in [20.0, 30.0, 40.0, 50.0, 70.0, 100.0, 150.0, 300.0] {
        let noreg = run_at_bandwidth(settings, RegulationSpec::NoReg, mbps);
        let odr = run_at_bandwidth(settings, RegulationSpec::odr(FpsGoal::Target(60.0)), mbps);
        let ok = odr.client_fps >= 57.0 && odr.mtp_stats.mean <= 100.0;
        out.push_str(&format!(
            "{:<7.0} {:>9.1} {:>13.0} {:>11.1} {:>13.1} {:>9}\n",
            mbps,
            noreg.client_fps,
            noreg.mtp_stats.mean,
            odr.client_fps,
            odr.mtp_stats.mean,
            if ok { "yes" } else { "NO" }
        ));
    }
    out.push_str(
        "NoReg's MtP collapses wherever its offered load exceeds capacity;\n\
         ODR60 needs only its target bitrate and keeps MtP flat above that point.\n",
    );
    out
}

/// The FPS-target feasibility sweep (IM, 720p private cloud).
#[must_use]
pub fn sweep_target(settings: &Settings) -> String {
    let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
    let mut out = String::from("Sweep: ODR target feasibility (IM, 720p private cloud)\n");
    out.push_str("target  client fps  windows met  verdict\n");
    for target in [30.0, 45.0, 60.0, 75.0, 90.0, 105.0, 120.0] {
        let cfg = ExperimentConfig::builder(scenario, RegulationSpec::odr(FpsGoal::Target(target)))
            .duration(settings.duration)
            .seed(settings.seed)
            .build();
        let r = run_experiment(&cfg);
        let held = r.client_fps >= target - 1.0;
        out.push_str(&format!(
            "{:<7.0} {:>10.1} {:>11.1}% {:>9}\n",
            target,
            r.client_fps,
            r.target_satisfaction * 100.0,
            if held { "held" } else { "infeasible" }
        ));
    }
    out.push_str(
        "The frontier sits at the proxy's contended capability (~95-105 fps for IM):\n\
         beyond it the regulator degrades gracefully to the achievable rate.\n",
    );
    out
}

/// The path-loss robustness sweep (IM, 720p, WAN path at 100 Mb/s so
/// capacity is not the confound).
#[must_use]
pub fn sweep_loss(settings: &Settings) -> String {
    let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::Gce);
    let mut out = String::from(
        "Sweep: path loss vs QoS (IM, 720p, 100 Mb/s WAN path)
",
    );
    out.push_str(
        "loss%   NoReg fps  NoReg MtP(ms)   ODR60 fps  ODR60 MtP(ms)
",
    );
    for loss in [0.0, 0.005, 0.01, 0.02, 0.05] {
        let link = LinkParams {
            bandwidth_bps: 100e6,
            loss_prob: loss,
            ..scenario.downlink()
        };
        let run = |spec: RegulationSpec| {
            let cfg = ExperimentConfig::builder(scenario, spec)
                .duration(settings.duration)
                .seed(settings.seed)
                .downlink_override(link)
                .build();
            run_experiment(&cfg)
        };
        let noreg = run(RegulationSpec::NoReg);
        let odr = run(RegulationSpec::odr(FpsGoal::Target(60.0)));
        out.push_str(&format!(
            "{:<7.1} {:>9.1} {:>13.1} {:>11.1} {:>13.1}
",
            loss * 100.0,
            noreg.client_fps,
            noreg.mtp_stats.mean,
            odr.client_fps,
            odr.mtp_stats.mean
        ));
    }
    out.push_str(
        "Retransmission head-of-line blocking taxes the unregulated firehose harder\n\
         than ODR's paced stream: more frames in flight sit behind every loss.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_sweep_finds_the_crossover() {
        // Longer than quick(): under heavy congestion an input's answering
        // frame needs several seconds to cross the queue at all.
        let settings = Settings {
            duration: odr_simtime::Duration::from_secs(25),
            ..Settings::quick()
        };
        let text = sweep_bandwidth(&settings);
        let rows: Vec<(f64, f64, f64)> = text
            .lines()
            .skip(2)
            .take(8)
            .map(|l| {
                let mut it = l.split_whitespace();
                let mbps: f64 = it.next().expect("mbps").parse().expect("f64");
                let noreg_fps: f64 = it.next().expect("fps").parse().expect("f64");
                let noreg_mtp: f64 = it.next().expect("mtp").parse().expect("f64");
                (mbps, noreg_fps, noreg_mtp)
            })
            .collect();
        // At low capacity NoReg congests (seconds of latency); at very high
        // capacity it does not.
        assert!(rows[0].2 > 500.0, "low-bw NoReg MtP {}", rows[0].2);
        assert!(
            rows.last().expect("rows").2 < 200.0,
            "high-bw NoReg MtP {}",
            rows.last().expect("rows").2
        );
    }

    #[test]
    fn loss_sweep_taxes_noreg_harder() {
        let text = sweep_loss(&Settings::quick());
        let rows: Vec<Vec<f64>> = text
            .lines()
            .skip(2)
            .take(5)
            .map(|l| {
                l.split_whitespace()
                    .map(|v| v.parse().expect("f64"))
                    .collect()
            })
            .collect();
        // Zero-loss row: both healthy.
        assert!(rows[0][2] < 120.0, "zero-loss NoReg MtP {}", rows[0][2]);
        // 5% loss: NoReg latency inflates well beyond ODR's.
        let last = rows.last().expect("rows");
        assert!(
            last[2] > last[4] * 1.2,
            "NoReg {} vs ODR {} at 5% loss",
            last[2],
            last[4]
        );
        // And loss costs ODR itself only a handful of ms.
        assert!(last[4] < rows[0][4] + 15.0, "ODR at 5% loss: {}", last[4]);
    }

    #[test]
    fn target_sweep_shows_feasibility_frontier() {
        let text = sweep_target(&Settings::quick());
        assert!(text.contains("held"));
        assert!(text.contains("infeasible"));
        // 120 fps exceeds InMind's proxy capability: the last row must be
        // infeasible, the first (30) held.
        let lines: Vec<&str> = text.lines().skip(2).take(7).collect();
        assert!(lines[0].ends_with("held"), "{}", lines[0]);
        assert!(lines[6].ends_with("infeasible"), "{}", lines[6]);
    }
}
