//! One digest over a grid of simulated sessions: everything a `Sim` run
//! computes, across platforms, benchmarks, resolutions, every regulation
//! family, several seeds and both capture modes.
//!
//! The constant was first made by the code *before* stage-job completions
//! left the event queue (DESIGN.md §14.5), pinning that the
//! queue-plus-timers loop fires events in the order the all-in-the-queue
//! loop did; it was re-made three times since: when normal draws moved from
//! Box-Muller to the ziggurat (a new realisation of the same
//! distributions), when stage work, re-plans and the DRAM and link
//! integrals stayed in nanoseconds (the same events in the same order,
//! timestamps up to 53 ns apart), and when trace rows became a fold of the
//! obs spans (a window ending after the run is none; both digests moved).
//! A change that moves it changed what a simulation computes; the failure
//! message prints the new value.
//!
//! A second digest folds only the run's structure: the frame, drop,
//! priority and input counts, each trace row's id, flags and size, and
//! each obs event's track, kind, name and id, with no time value. A change
//! that only moves timestamps (a new rounding of the same arithmetic)
//! re-pins `GRID_DIGEST` and leaves `STRUCTURE_DIGEST` where it is: the
//! same events fire in the same order.

use std::fmt::Write as _;

use cloud3d_odr::prelude::*;

const GRID_DIGEST: u64 = 0x88f7_945c_9741_c2c6;
const STRUCTURE_DIGEST: u64 = 0x67a5_91c5_a6ae_bec3;

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

/// The run with every time value left out.
fn shape(r: &Report) -> String {
    let counts = [
        r.frames_rendered,
        r.frames_displayed,
        r.frames_dropped,
        r.display_drops,
        r.priority_frames,
        r.inputs,
    ];
    let mut text = format!("{counts:?}\n");
    for t in &r.traces {
        let stages = [t.render, t.copy, t.encode, t.transmit, t.decode].map(|s| s.is_some());
        let _ = writeln!(
            text,
            "{} {} {} {stages:?} {}",
            t.id, t.priority, t.dropped, t.size
        );
    }
    for e in &r.obs.events {
        let _ = writeln!(text, "{} {:?} {} {:?}", e.track, e.kind, e.name, e.id);
    }
    text
}

#[test]
fn grid_of_336_runs_matches_the_parent_made_digest() {
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut structure = Fnv(0xcbf2_9ce4_8422_2325);
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
                            structure.update(shape(&r).as_bytes());
                            runs += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(runs, 336);
    assert_eq!(
        structure.0, STRUCTURE_DIGEST,
        "the structure digest is {:#018x}: a simulation fires other events",
        structure.0
    );
    assert_eq!(
        digest.0, GRID_DIGEST,
        "the grid digest is {:#018x}: a simulation computes something else than it did",
        digest.0
    );
}
