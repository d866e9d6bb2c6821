//! The fleet determinism contract, enforced bit-for-bit.
//!
//! Two differentials pin the engine's semantics:
//!
//! * **threads differential** — the same fleet on 1, 2 and 8 worker
//!   threads must produce byte-identical reports (scheduling must not
//!   leak into results);
//! * **serial differential** — a fleet of one session must agree with a
//!   plain `run_experiment` call on every metric (the fleet layer must
//!   add nothing and lose nothing).

use odr_core::{FpsGoal, RegulationSpec, SimOptions};
use odr_fleet::{run_fleet, session_seed, FleetConfig, FleetReport};
use odr_pipeline::{run_experiment, ExperimentConfig};
use odr_simtime::Duration;
use odr_workload::{Benchmark, Platform, Resolution, Scenario};

fn base(spec: RegulationSpec) -> ExperimentConfig {
    ExperimentConfig::builder(
        Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud),
        spec,
    )
    .duration(Duration::from_secs(4))
    .build()
}

fn run_on(threads: usize, base: ExperimentConfig, sessions: u32) -> FleetReport {
    run_fleet(&FleetConfig {
        sim: SimOptions::new().with_threads(threads),
        ..FleetConfig::new(base, sessions)
    })
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let base = base(RegulationSpec::odr(FpsGoal::Target(60.0)));
    let one = run_on(1, base, 8);
    let two = run_on(2, base, 8);
    let eight = run_on(8, base, 8);

    // The rendered report — what the CI differential compares — must be
    // byte-identical.
    let text = one.to_text();
    assert_eq!(text, two.to_text(), "1-thread vs 2-thread report differs");
    assert_eq!(text, eight.to_text(), "1-thread vs 8-thread report differs");

    // And the underlying floats, down to the bit pattern.
    for other in [&two, &eight] {
        assert_eq!(bits(one.fps_cdf.samples()), bits(other.fps_cdf.samples()));
        assert_eq!(bits(one.mtp_cdf.samples()), bits(other.mtp_cdf.samples()));
        assert_eq!(
            bits(one.energy_cdf.samples()),
            bits(other.energy_cdf.samples())
        );
        assert_eq!(one.total_power_w.to_bits(), other.total_power_w.to_bits());
        assert_eq!(one.total_energy_j.to_bits(), other.total_energy_j.to_bits());
        assert_eq!(one.des_streams.to_bits(), other.des_streams.to_bits());
        assert_eq!(
            one.mean_satisfaction.to_bits(),
            other.mean_satisfaction.to_bits()
        );
        assert_eq!(one.frames_rendered, other.frames_rendered);
        assert_eq!(one.frames_displayed, other.frames_displayed);
        assert_eq!(one.frames_dropped, other.frames_dropped);
    }
}

#[test]
fn unregulated_fleet_is_deterministic_too() {
    // NoReg produces far more frames (and drops) — the heavier event
    // stream must still reduce identically.
    let base = base(RegulationSpec::NoReg);
    assert_eq!(run_on(1, base, 4).to_text(), run_on(4, base, 4).to_text());
}

#[test]
fn fleet_of_one_matches_the_serial_run() {
    let base = base(RegulationSpec::odr(FpsGoal::Target(60.0)));
    let serial = run_experiment(&base);
    let fleet = run_on(8, base, 1);

    // Session 0's seed is the base seed — same simulation, same numbers.
    assert_eq!(fleet.per_session.len(), 1);
    let row = &fleet.per_session[0];
    assert_eq!(row.seed, base.seed);
    assert_eq!(row.client_fps.to_bits(), serial.client_fps.to_bits());
    assert_eq!(row.mtp_mean_ms.to_bits(), serial.mtp_stats.mean.to_bits());
    assert_eq!(row.power_w.to_bits(), serial.memory.power_w.to_bits());
    assert_eq!(
        row.target_satisfaction.to_bits(),
        serial.target_satisfaction.to_bits()
    );
    assert_eq!(fleet.frames_rendered, serial.frames_rendered);
    assert_eq!(fleet.frames_displayed, serial.frames_displayed);
    assert_eq!(fleet.frames_dropped, serial.frames_dropped);
    assert_eq!(fleet.priority_frames, serial.priority_frames);
    assert_eq!(fleet.inputs, serial.inputs);
    assert_eq!(
        bits(fleet.fps_cdf.samples()),
        {
            let mut w = serial.client_fps_windows.clone();
            w.sort_by(f64::total_cmp);
            bits(&w)
        },
        "fleet FPS CDF must hold exactly the serial run's windows"
    );
    assert_eq!(fleet.mtp_cdf.len(), serial.mtp_ms.count());
}

#[test]
fn distinct_sessions_see_distinct_randomness() {
    // Different seeds must actually decorrelate the sessions: with jitter
    // in the frame model, per-session MtP means should not all collide.
    let fleet = run_fleet(&FleetConfig::new(
        base(RegulationSpec::odr(FpsGoal::Target(60.0))),
        4,
    ));
    let mtp0 = fleet.per_session[0].mtp_mean_ms;
    assert!(
        fleet
            .per_session
            .iter()
            .skip(1)
            .any(|s| (s.mtp_mean_ms - mtp0).abs() > 1e-9),
        "all sessions produced identical MtP — seeds are not decorrelating"
    );
    // And the derivation itself must be reproducible.
    for row in &fleet.per_session {
        assert_eq!(row.seed, session_seed(fleet.per_session[0].seed, row.index));
    }
}
