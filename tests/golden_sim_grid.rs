//! One digest over a grid of simulated sessions: everything a `Sim` run
//! computes, across platforms, benchmarks, resolutions, every regulation
//! family, several seeds and both capture modes.
//!
//! The constant was made by the code *before* stage-job completions left
//! the event queue (DESIGN.md §14.5), so it pins that the queue-plus-timers
//! loop fires events in the order the all-in-the-queue loop did. A change
//! that moves it changed what a simulation computes; print the new value
//! with `cargo test --test golden_sim_grid -- --nocapture`.

use cloud3d_odr::prelude::*;

const GRID_DIGEST: u64 = 0x5154_8425_9044_3d6a;

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn specs() -> [RegulationSpec; 7] {
    [
        RegulationSpec::NoReg,
        RegulationSpec::interval(60.0),
        RegulationSpec::Interval(FpsGoal::Max),
        RegulationSpec::rvs(FpsGoal::Target(60.0)),
        RegulationSpec::odr(FpsGoal::Target(60.0)),
        RegulationSpec::odr(FpsGoal::Max),
        RegulationSpec::odr(FpsGoal::Target(30.0)),
    ]
}

#[test]
fn grid_of_336_runs_matches_the_parent_made_digest() {
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut runs = 0;
    for platform in [Platform::PrivateCloud, Platform::Gce] {
        for benchmark in [Benchmark::InMind, Benchmark::SuperTuxKart] {
            for resolution in [Resolution::R720p, Resolution::R1080p] {
                for spec in specs() {
                    for seed in 1..=3u64 {
                        for captured in [false, true] {
                            let display = if captured {
                                ClientDisplay::VSync { refresh_hz: 60.0 }
                            } else {
                                ClientDisplay::Immediate
                            };
                            let scenario = Scenario::new(benchmark, resolution, platform);
                            let r = run_experiment(
                                &ExperimentConfig::builder(scenario, spec)
                                    .duration(Duration::from_secs(8))
                                    .seed(seed)
                                    .trace(captured)
                                    .obs(captured)
                                    .display(display)
                                    .build(),
                            );
                            let text = format!(
                                "{}\n{:?}\n{:?}\n{} {} {} {} {} {}\n{:?}\n{}\n",
                                r.one_line(),
                                r.mtp_stats,
                                r.memory,
                                r.frames_rendered,
                                r.frames_displayed,
                                r.frames_dropped,
                                r.display_drops,
                                r.priority_frames,
                                r.inputs,
                                r.traces,
                                to_jsonl(&r.obs),
                            );
                            digest.update(text.as_bytes());
                            runs += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(runs, 336);
    assert_eq!(
        digest.0, GRID_DIGEST,
        "the grid digest is {:#018x}: a simulation computes something else than it did",
        digest.0
    );
}
