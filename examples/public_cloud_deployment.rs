//! The paper's headline feasibility claim: with ODR, interactive 3D
//! applications can run on a *conventional public cloud* and still meet
//! 60 FPS / 100 ms QoS.
//!
//! Simulates all six Pictor benchmarks at 720p against the GCE platform
//! model (45 Mb/s effective path, ~25 ms RTT, deep buffers) under no
//! regulation and under ODR60, and checks the QoS verdict per benchmark.
//! Unregulated, the excessive frame stream congests the path and
//! motion-to-photon latency explodes to seconds; ODR's backpressure keeps
//! the queue empty.
//!
//! Run with `cargo run --release --example public_cloud_deployment`.

use cloud3d_odr::prelude::*;

fn main() {
    println!("720p deployment on the public-cloud platform (GCE model), 60 s each\n");
    println!(
        "{:<6} | {:>10} {:>10} {:>6} | {:>10} {:>10} {:>6} | verdict",
        "bench", "NoReg fps", "MtP ms", "Mb/s", "ODR60 fps", "MtP ms", "Mb/s"
    );

    let mut all_pass = true;
    for benchmark in Benchmark::ALL {
        let scenario = Scenario::new(benchmark, Resolution::R720p, Platform::Gce);
        let run = |spec: RegulationSpec| {
            run_experiment(
                &ExperimentConfig::builder(scenario, spec)
                    .duration(Duration::from_secs(60))
                    .build(),
            )
        };
        let noreg = run(RegulationSpec::NoReg);
        let odr = run(RegulationSpec::odr(FpsGoal::Target(60.0)));

        // The paper's action-game QoS bar: 60 FPS and 100 ms.
        let pass = odr.client_fps >= 58.0 && odr.mtp_stats.mean <= 100.0;
        all_pass &= pass;
        println!(
            "{:<6} | {:>10.1} {:>10.0} {:>6.0} | {:>10.1} {:>10.1} {:>6.0} | {}",
            benchmark.short(),
            noreg.client_fps,
            noreg.mtp_stats.mean,
            noreg.net_goodput_mbps,
            odr.client_fps,
            odr.mtp_stats.mean,
            odr.net_goodput_mbps,
            if pass {
                "MEETS 60fps/100ms"
            } else {
                "misses QoS"
            }
        );
    }

    println!(
        "\n{}",
        if all_pass {
            "ODR makes the public-cloud deployment feasible: every benchmark meets QoS."
        } else {
            "Some benchmarks missed QoS — see the table."
        }
    );
}
