//! The VR angle: action-intensive VR wants motion-to-photon under ~25 ms
//! (Section 3 of the paper). Can a cloud-rendered VR app get there, and
//! what does each regulation spend of that budget?
//!
//! Runs the two VR benchmarks (InMind, IMHOTEP) on the private cloud —
//! the paper's edge-deployment case, the only plausible home for VR —
//! and breaks the latency budget down.
//!
//! Run with `cargo run --release --example vr_latency_budget`.

use cloud3d_odr::prelude::*;

fn main() {
    const VR_BUDGET_MS: f64 = 25.0;
    println!(
        "VR motion-to-photon budget check ({} ms, action-intensive VR), 720p private cloud\n",
        VR_BUDGET_MS
    );
    println!(
        "{:<6} {:<8} {:>10} {:>10} {:>12} | within budget?",
        "bench", "config", "MtP mean", "MtP p99", "client FPS"
    );

    for benchmark in [Benchmark::InMind, Benchmark::Imhotep] {
        let scenario = Scenario::new(benchmark, Resolution::R720p, Platform::PrivateCloud);
        for spec in [
            RegulationSpec::NoReg,
            RegulationSpec::interval(60.0),
            RegulationSpec::odr(FpsGoal::Max),
        ] {
            let report = run_experiment(
                &ExperimentConfig::builder(scenario, spec)
                    .duration(Duration::from_secs(60))
                    .build(),
            );
            let mean_ok = report.mtp_stats.mean <= VR_BUDGET_MS;
            let tail_ok = report.mtp_stats.p99 <= VR_BUDGET_MS * 2.0;
            println!(
                "{:<6} {:<8} {:>8.1}ms {:>8.1}ms {:>12.1} | {}",
                benchmark.short(),
                spec.label(),
                report.mtp_stats.mean,
                report.mtp_stats.p99,
                report.client_fps,
                match (mean_ok, tail_ok) {
                    (true, true) => "yes",
                    (true, false) => "mean only (p99 over)",
                    _ => "no",
                }
            );
        }
    }

    println!(
        "\nEven at the edge, the full pipeline (render+copy+encode+wire+decode) eats most\n\
         of a 25 ms VR budget: PriorityFrame recovers the queueing share (ODRMax beats\n\
         NoReg) but the paper's conclusion stands — strict VR needs every stage trimmed,\n\
         while the 100 ms action-game budget is met with margin."
    );
}
