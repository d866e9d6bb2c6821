//! Cross-crate integration tests: the paper's headline claims, checked
//! end-to-end through the public facade.

use cloud3d_odr::odr::OdrOptions;
use cloud3d_odr::prelude::*;

fn cfg(
    benchmark: Benchmark,
    resolution: Resolution,
    platform: Platform,
    spec: RegulationSpec,
    secs: u64,
) -> ExperimentConfig {
    ExperimentConfig::builder(Scenario::new(benchmark, resolution, platform), spec)
        .duration(Duration::from_secs(secs))
        .build()
}

/// Section 6.3: ODR meets the 60 FPS target on every benchmark at 720p on
/// the private cloud.
#[test]
fn odr60_meets_target_on_every_benchmark() {
    for benchmark in Benchmark::ALL {
        let r = run_experiment(&cfg(
            benchmark,
            Resolution::R720p,
            Platform::PrivateCloud,
            RegulationSpec::odr(FpsGoal::Target(60.0)),
            40,
        ));
        assert!(
            (59.0..=66.0).contains(&r.client_fps),
            "{benchmark}: client fps {}",
            r.client_fps
        );
        assert!(r.fps_gap_avg < 6.0, "{benchmark}: gap {}", r.fps_gap_avg);
    }
}

/// Section 6.3: ODR meets the 30 FPS target at 1080p on GCE — the harder
/// public-cloud configuration.
#[test]
fn odr30_meets_target_on_gce_1080p() {
    for benchmark in [Benchmark::InMind, Benchmark::Dota2, Benchmark::Imhotep] {
        let r = run_experiment(&cfg(
            benchmark,
            Resolution::R1080p,
            Platform::Gce,
            RegulationSpec::odr(FpsGoal::Target(30.0)),
            40,
        ));
        assert!(
            (28.5..=34.0).contains(&r.client_fps),
            "{benchmark}: client fps {}",
            r.client_fps
        );
    }
}

/// Section 6.2 / Table 2: unregulated pipelines have gaps of tens to
/// hundreds of frames; ODR cuts them to a few frames.
#[test]
fn odr_removes_the_fps_gap() {
    let noreg = run_experiment(&cfg(
        Benchmark::Imhotep,
        Resolution::R720p,
        Platform::PrivateCloud,
        RegulationSpec::NoReg,
        40,
    ));
    let odr = run_experiment(&cfg(
        Benchmark::Imhotep,
        Resolution::R720p,
        Platform::PrivateCloud,
        RegulationSpec::odr(FpsGoal::Max),
        40,
    ));
    assert!(noreg.fps_gap_avg > 60.0, "NoReg gap {}", noreg.fps_gap_avg);
    assert!(odr.fps_gap_avg < 6.0, "ODR gap {}", odr.fps_gap_avg);
    assert!(odr.frames_dropped < noreg.frames_dropped / 10);
}

/// Section 6.4: on the public cloud, no regulation congests the downlink
/// into multi-second MtP latency; ODR keeps it around the paper's 100 ms
/// bar (more than 90 % lower).
#[test]
fn gce_congestion_collapse_and_odr_rescue() {
    let noreg = run_experiment(&cfg(
        Benchmark::InMind,
        Resolution::R720p,
        Platform::Gce,
        RegulationSpec::NoReg,
        60,
    ));
    let odr = run_experiment(&cfg(
        Benchmark::InMind,
        Resolution::R720p,
        Platform::Gce,
        RegulationSpec::odr(FpsGoal::Target(60.0)),
        60,
    ));
    assert!(
        noreg.mtp_stats.mean > 1000.0,
        "NoReg MtP {}",
        noreg.mtp_stats.mean
    );
    assert!(odr.mtp_stats.mean < 100.0, "ODR MtP {}", odr.mtp_stats.mean);
    assert!(
        odr.mtp_stats.mean < noreg.mtp_stats.mean * 0.08,
        "less than 92% reduction"
    );
    assert!(noreg.net_queue_delay_ms > 500.0, "no queueing under NoReg?");
    assert!(
        odr.net_queue_delay_ms < 20.0,
        "ODR queued: {}",
        odr.net_queue_delay_ms
    );
}

/// Section 6.3: ODRMax's better memory efficiency yields *higher* client
/// FPS than no regulation (averaged across the suite).
#[test]
fn odrmax_beats_noreg_on_client_fps() {
    let mut noreg_sum = 0.0;
    let mut odr_sum = 0.0;
    for benchmark in Benchmark::ALL {
        noreg_sum += run_experiment(&cfg(
            benchmark,
            Resolution::R720p,
            Platform::PrivateCloud,
            RegulationSpec::NoReg,
            40,
        ))
        .client_fps;
        odr_sum += run_experiment(&cfg(
            benchmark,
            Resolution::R720p,
            Platform::PrivateCloud,
            RegulationSpec::odr(FpsGoal::Max),
            40,
        ))
        .client_fps;
    }
    assert!(
        odr_sum > noreg_sum * 1.01,
        "ODRMax {odr_sum:.1} vs NoReg {noreg_sum:.1} (summed)"
    );
}

/// Section 6.5: ODR improves DRAM efficiency and cuts power vs NoReg.
#[test]
fn odr_improves_efficiency() {
    let noreg = run_experiment(&cfg(
        Benchmark::InMind,
        Resolution::R720p,
        Platform::PrivateCloud,
        RegulationSpec::NoReg,
        40,
    ));
    let odr60 = run_experiment(&cfg(
        Benchmark::InMind,
        Resolution::R720p,
        Platform::PrivateCloud,
        RegulationSpec::odr(FpsGoal::Target(60.0)),
        40,
    ));
    assert!(odr60.memory.miss_rate_pct < noreg.memory.miss_rate_pct - 3.0);
    assert!(odr60.memory.read_time_ns < noreg.memory.read_time_ns * 0.93);
    assert!(odr60.memory.ipc > noreg.memory.ipc * 1.05);
    assert!(odr60.memory.power_w < noreg.memory.power_w * 0.90);
}

/// Section 5.3 / Table 2: PriorityFrame lowers MtP latency at the cost of
/// a slightly larger (but still small) FPS gap.
#[test]
fn priority_frames_trade_gap_for_latency() {
    let with_pri = run_experiment(&cfg(
        Benchmark::InMind,
        Resolution::R720p,
        Platform::PrivateCloud,
        RegulationSpec::odr(FpsGoal::Max),
        60,
    ));
    let no_pri = run_experiment(&cfg(
        Benchmark::InMind,
        Resolution::R720p,
        Platform::PrivateCloud,
        RegulationSpec::odr_no_priority(FpsGoal::Max),
        60,
    ));
    assert!(
        with_pri.mtp_stats.mean < no_pri.mtp_stats.mean - 1.0,
        "priority {} vs no-priority {}",
        with_pri.mtp_stats.mean,
        no_pri.mtp_stats.mean
    );
    assert!(with_pri.fps_gap_avg > no_pri.fps_gap_avg);
    assert!(with_pri.fps_gap_avg < 6.0);
    assert!(with_pri.priority_frames > 0);
    assert_eq!(no_pri.priority_frames, 0);
}

/// Section 4.1: the baselines fail the way the paper says — Int60 misses
/// the target, IntMax ratchets far below the achievable rate, RVS stays
/// below its refresh rate.
#[test]
fn baselines_fail_like_the_paper_says() {
    let run = |spec| {
        run_experiment(&cfg(
            Benchmark::InMind,
            Resolution::R720p,
            Platform::PrivateCloud,
            spec,
            60,
        ))
    };
    let noreg = run(RegulationSpec::NoReg);
    let int60 = run(RegulationSpec::interval(60.0));
    let intmax = run(RegulationSpec::Interval(FpsGoal::Max));
    let rvs60 = run(RegulationSpec::rvs(FpsGoal::Target(60.0)));
    let rvsmax = run(RegulationSpec::rvs(FpsGoal::Max));

    assert!(int60.client_fps < 59.0, "Int60 {}", int60.client_fps);
    assert!(
        intmax.client_fps < noreg.client_fps * 0.75,
        "IntMax {}",
        intmax.client_fps
    );
    assert!(rvs60.client_fps < 58.0, "RVS60 {}", rvs60.client_fps);
    assert!(
        rvsmax.client_fps < noreg.client_fps * 0.95,
        "RVSMax {}",
        rvsmax.client_fps
    );
    // But they do all remove the gap.
    for r in [&int60, &intmax, &rvs60, &rvsmax] {
        assert!(r.fps_gap_avg < 5.0, "{}: gap {}", r.label, r.fps_gap_avg);
    }
}

/// The ablations: every ODR mechanism is load-bearing.
#[test]
fn odr_mechanisms_are_load_bearing() {
    let run = |options: OdrOptions, goal: FpsGoal| {
        run_experiment(&cfg(
            Benchmark::InMind,
            Resolution::R720p,
            Platform::PrivateCloud,
            RegulationSpec::Odr { goal, options },
            40,
        ))
    };
    // Without blocking buffers, the gap reopens.
    let no_block = run(
        OdrOptions {
            blocking_buffers: false,
            ..OdrOptions::default()
        },
        FpsGoal::Max,
    );
    assert!(
        no_block.fps_gap_avg > 30.0,
        "no-block gap {}",
        no_block.fps_gap_avg
    );

    // Without acceleration, the 60 FPS target is missed.
    let no_acc = run(
        OdrOptions {
            accelerate: false,
            ..OdrOptions::default()
        },
        FpsGoal::Target(60.0),
    );
    assert!(no_acc.client_fps < 59.0, "no-acc fps {}", no_acc.client_fps);
}

/// The QoE pipeline end to end: simulated QoS in, study outcomes out.
#[test]
fn qoe_ranks_odr_above_noreg_on_gce() {
    let sample = |spec| {
        let r = run_experiment(&cfg(
            Benchmark::RedEclipse,
            Resolution::R1080p,
            Platform::Gce,
            spec,
            40,
        ));
        QoeSample {
            client_fps: r.client_fps,
            fps_p1: r.client_fps_stats.p1,
            mtp_mean_ms: r.mtp_stats.mean,
            mtp_p99_ms: r.mtp_stats.p99,
            pacing_cv: r.pacing_cv,
            stutter_rate: r.stutter_rate,
        }
    };
    let panel = Panel::new(30, 1);
    let noreg = panel.evaluate(&sample(RegulationSpec::NoReg));
    let odr = panel.evaluate(&sample(RegulationSpec::odr(FpsGoal::Max)));
    assert!(
        odr.mean_rating > noreg.mean_rating + 2.0,
        "ODR {} vs NoReg {}",
        odr.mean_rating,
        noreg.mean_rating
    );
    assert!(
        noreg.lag.0 > 20,
        "congested NoReg must be laggy: {:?}",
        noreg.lag
    );
}
