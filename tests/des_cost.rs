//! What a DES event costs (DESIGN.md §14.5): the work the simulator's
//! substrate stopped re-deriving is gone, not moved, and what replaced it
//! computes the same bits.

use cloud3d_odr::memsim::{MemClient, MemoryModel};
use cloud3d_odr::prelude::*;

/// The live model looks its values up in a table built once per session;
/// the `*_for_streams` closed forms are what the table is built from and
/// what the mean-field colocation solve evaluates directly. For every set
/// of active clients and every scenario's parameters (they differ in the
/// per-benchmark IPC) the two agree bit for bit: held for exactly one
/// second, a level's time-weighted mean is the level itself.
#[test]
fn memory_table_equals_the_closed_forms_for_every_active_set() {
    for benchmark in Benchmark::ALL {
        let scenario = Scenario::new(benchmark, Resolution::R720p, Platform::PrivateCloud);
        let params = scenario.memory_params();
        for set in 0u32..16 {
            let mut mem = MemoryModel::new(params, scenario.power_params(), SimTime::ZERO);
            for (bit, client) in MemClient::ALL.into_iter().enumerate() {
                mem.set_active(SimTime::ZERO, &[client], set & (1 << bit) != 0);
            }
            let streams = f64::from(set.count_ones());
            let report = mem.report(SimTime::from_secs(1));
            let miss_pct = params.miss_rate_for_streams(streams) * 100.0;
            let pairs = [
                (
                    "slowdown",
                    mem.slowdown(),
                    params.slowdown_for_streams(streams),
                ),
                (
                    "read time",
                    report.read_time_ns,
                    params.read_time_for_streams(streams),
                ),
                ("ipc", report.ipc, params.ipc_for_streams(streams)),
                ("miss rate", report.miss_rate_pct, miss_pct),
            ];
            for (what, table, closed_form) in pairs {
                assert_eq!(
                    table.to_bits(),
                    closed_form.to_bits(),
                    "{benchmark:?}, active set {set:#06b}, {what}: {table} vs {closed_form}"
                );
            }
        }
    }
}

fn ten_seconds(spec: RegulationSpec) -> Report {
    let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
    run_experiment(
        &ExperimentConfig::builder(scenario, spec)
            .duration(Duration::from_secs(10))
            .build(),
    )
}

/// A re-planned stage job leaves no stale completion behind to pop, and a
/// cancelled proxy sleep no stale wake: with the completions in the queue
/// a NoReg session fired 12.9 events per rendered frame and an ODR60
/// session 17.5; with the wakes in it, ODR60 fired 10.09. Now 4.35 and
/// 10.07, and each ceiling is that plus 3 %.
#[test]
fn events_per_rendered_frame_stay_under_their_ceilings() {
    for (spec, ceiling) in [
        (RegulationSpec::NoReg, 4.5),
        (RegulationSpec::odr(FpsGoal::Target(60.0)), 10.4),
    ] {
        let report = ten_seconds(spec);
        let per_frame = report.events as f64 / report.frames_rendered as f64;
        assert!(
            report.frames_rendered > 0 && per_frame <= ceiling,
            "{}: {} events / {} frames = {per_frame:.2} > {ceiling}",
            report.label,
            report.events,
            report.frames_rendered
        );
        assert_eq!(report.events, ten_seconds(spec).events, "{}", report.label);
    }
}
