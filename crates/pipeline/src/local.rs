//! Local (non-cloud) execution — the user study's NonCloud baseline.
//!
//! The 3D application runs on the client machine with classic VSync double
//! buffering on a 60 Hz display: rendering starts at a vblank, the finished
//! frame is displayed at the next vblank after rendering completes, and the
//! next frame starts one refresh period after the previous frame started
//! (or at the display vblank, whichever is later). There is no proxy, no
//! encoding and no network; motion-to-photon latency is input → next frame
//! start → render → vblank.

use odr_core::rvs::VblankClock;
use odr_memsim::{MemClient, MemoryModel};
use odr_metrics::{Summary, WindowedRate};
use odr_simtime::{Duration, Rng, SimTime};

use crate::{config::ExperimentConfig, report::Report};

/// The display refresh rate of the user-study client ("an ordinary 60 Hz
/// display", Section 6.7).
pub(crate) const LOCAL_REFRESH_HZ: f64 = 60.0;

/// Runs the local-execution pipeline and produces a [`Report`] of the same
/// shape as the cloud simulations (network metrics are zero).
#[must_use]
pub(crate) fn run_local(cfg: &ExperimentConfig) -> Report {
    let scenario = cfg.scenario;
    let frame_model = scenario.frame_model();
    let input_model = scenario.input_model();
    let clock = VblankClock::new(LOCAL_REFRESH_HZ);

    let root = Rng::new(cfg.seed).fork(scenario.stream_id());
    let mut rng_render = root.fork(1);
    let mut rng_input = root.fork(6);
    let mut mem = MemoryModel::new(
        scenario.memory_params(),
        scenario.power_params(),
        SimTime::ZERO,
    );

    let warmup = SimTime::ZERO + cfg.warmup;
    let end = SimTime::ZERO + cfg.total_time();

    // Pre-generate the input arrivals (local: no uplink, inputs reach the
    // application instantly).
    let mut inputs: Vec<SimTime> = Vec::new();
    let mut t = SimTime::ZERO;
    loop {
        t = input_model.next_after(t, &mut rng_input);
        if t >= end {
            break;
        }
        inputs.push(t);
    }

    let mut display_rate = WindowedRate::new(Duration::from_secs(1));
    let mut mtp_ms = Summary::new();
    let mut answered = 0usize;
    let mut frames: u64 = 0;
    let mut last_display: Option<SimTime> = None;
    let mut display_intervals_ms: Vec<f64> = Vec::new();

    let mut now = SimTime::ZERO;
    while now < end {
        let start = clock.next_vblank(now);
        if start >= end {
            break;
        }
        // Inputs that arrived before this frame began are applied to it.
        let mut applied = answered;
        while applied < inputs.len() && inputs[applied] <= start {
            applied += 1;
        }

        mem.set_active(start, &[MemClient::AppLogic, MemClient::Render], true);
        let dur = odr_simtime::time::secs_f64(
            frame_model.render.sample(&mut rng_render).as_secs_f64() * mem.slowdown(),
        );
        let render_end = start + dur;
        mem.set_active(render_end, &[MemClient::AppLogic, MemClient::Render], false);

        // Swap at the first vblank strictly after rendering completes.
        let display = clock.next_vblank(render_end + Duration::from_nanos(1));

        if display >= warmup && display < end {
            frames += 1;
            display_rate.record(SimTime::from_nanos(display.as_nanos() - warmup.as_nanos()));
            if let Some(last) = last_display {
                display_intervals_ms.push(display.saturating_since(last).as_secs_f64() * 1e3);
            }
            last_display = Some(display);
        }
        // This frame's photons answer every input applied to it.
        while answered < applied {
            let created = inputs[answered];
            if created >= warmup && display < end {
                mtp_ms.record(display.saturating_since(created).as_secs_f64() * 1e3);
            }
            answered += 1;
        }

        // Next frame begins at the swap (double buffering under VSync).
        now = display;
    }

    let measured_end = SimTime::from_nanos(end.as_nanos() - warmup.as_nanos());
    let mut client_summary = display_rate.summary(measured_end);
    let memory = mem.report(end);
    let mut mtp = mtp_ms.clone();
    let mtp_stats = mtp.box_stats();
    Report {
        label: cfg.label(),
        render_fps: display_rate.mean_rate(measured_end),
        encode_fps: 0.0,
        client_fps: display_rate.mean_rate(measured_end),
        client_fps_stats: client_summary.box_stats(),
        client_fps_windows: display_rate.rates(measured_end),
        fps_gap_avg: 0.0,
        fps_gap_max: 0.0,
        mtp_ms,
        mtp_stats,
        target_satisfaction: 1.0,
        pacing_cv: crate::report::pacing_stats(&display_intervals_ms).0,
        stutter_rate: crate::report::pacing_stats(&display_intervals_ms).1,
        memory,
        net_goodput_mbps: 0.0,
        net_queue_delay_ms: 0.0,
        frames_rendered: frames,
        frames_displayed: frames,
        frames_dropped: 0,
        display_drops: 0,
        priority_frames: 0,
        inputs: inputs.len() as u64,
        events: 0,
        traces: Vec::new(),
        // Local execution has no pipeline stages to observe.
        obs: odr_obs::ObsReport::disabled(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_core::RegulationSpec;
    use odr_workload::{Benchmark, Platform, Resolution, Scenario};

    fn local_cfg(b: Benchmark) -> ExperimentConfig {
        ExperimentConfig::builder(
            Scenario::new(b, Resolution::R1080p, Platform::NonCloud),
            RegulationSpec::NoReg,
        )
        .duration(Duration::from_secs(30))
        .build()
    }

    #[test]
    fn local_runs_near_vsync_rate() {
        let r = run_local(&local_cfg(Benchmark::InMind));
        assert!(
            r.client_fps > 45.0 && r.client_fps <= 60.5,
            "fps {}",
            r.client_fps
        );
        assert_eq!(r.fps_gap_avg, 0.0);
    }

    #[test]
    fn local_latency_is_tens_of_ms() {
        let r = run_local(&local_cfg(Benchmark::SuperTuxKart));
        assert!(r.mtp_stats.mean > 10.0, "mtp {}", r.mtp_stats.mean);
        assert!(r.mtp_stats.mean < 60.0, "mtp {}", r.mtp_stats.mean);
        assert!(r.inputs > 50);
    }

    #[test]
    fn local_is_deterministic() {
        let a = run_local(&local_cfg(Benchmark::RedEclipse));
        let b = run_local(&local_cfg(Benchmark::RedEclipse));
        assert_eq!(a.client_fps.to_bits(), b.client_fps.to_bits());
        assert_eq!(a.mtp_stats.mean.to_bits(), b.mtp_stats.mean.to_bits());
    }
}
