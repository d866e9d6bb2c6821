//! The data-centre angle of the paper's motivation: excessive rendering
//! wastes *capacity*, not just watts. When ODR releases the CPU/GPU cycles
//! spent on discarded frames, a fixed server fleet can host more sessions.
//!
//! For each regulation this example measures per-session resource
//! utilisation (GPU = render activity; CPU = app + copy + encode) under a
//! 60 FPS QoS goal on every benchmark, counts how many copies of each
//! measured session one server admits under the SLO the cluster and the
//! server enforce (`capacity_sessions`: the co-location model's fixed
//! point, DRAM contention included), and compares the energy per hosted
//! session.
//!
//! Run with `cargo run --release --example server_consolidation`.

use cloud3d_odr::memsim::MemClient;
use cloud3d_odr::pipeline::colocation::{capacity_sessions, ServerCapacity, SessionLoad, Slo};
use cloud3d_odr::prelude::*;

fn main() {
    println!("per-session utilisation and consolidation, 720p private cloud, 60 s each\n");
    println!(
        "{:<8} {:>9} {:>9} {:>14} {:>16} {:>14}",
        "config", "GPU util", "CPU util", "sessions/srv", "W per session", "client FPS"
    );

    let (capacity, slo) = (ServerCapacity::default(), Slo::default());
    let mut rows = Vec::new();
    for spec in [
        RegulationSpec::NoReg,
        RegulationSpec::interval(60.0),
        RegulationSpec::rvs(FpsGoal::Target(60.0)),
        RegulationSpec::odr(FpsGoal::Target(60.0)),
    ] {
        // Average the six benchmarks, as a mixed-tenancy fleet would see.
        let mut gpu = 0.0;
        let mut cpu = 0.0;
        let mut power = 0.0;
        let mut fps = 0.0;
        let mut sessions = 0.0;
        for benchmark in Benchmark::ALL {
            let scenario = Scenario::new(benchmark, Resolution::R720p, Platform::PrivateCloud);
            let report = run_experiment(
                &ExperimentConfig::builder(scenario, spec)
                    .duration(Duration::from_secs(60))
                    .build(),
            );
            let u = report.memory.utilisation;
            gpu += u[client_index(MemClient::Render)];
            cpu += u[client_index(MemClient::AppLogic)]
                + u[client_index(MemClient::Copy)]
                + u[client_index(MemClient::Encode)];
            power += report.memory.power_w;
            fps += report.client_fps;
            let mem = scenario.memory_params();
            let load = SessionLoad::measured(&mem, u, report.client_fps, report.mtp_mean_ms());
            sessions += f64::from(capacity_sessions(&capacity, &mem, &slo, &load, 32));
        }
        let n = Benchmark::ALL.len() as f64;
        let (gpu, cpu, power, fps, sessions) =
            (gpu / n, cpu / n / 3.0, power / n, fps / n, sessions / n);
        let w_per_session = power / sessions;
        println!(
            "{:<8} {:>8.0}% {:>8.0}% {:>14.1} {:>15.1}W {:>14.1}",
            spec.label(),
            gpu * 100.0,
            cpu * 100.0,
            sessions,
            w_per_session,
            fps
        );
        rows.push((spec.label(), sessions, w_per_session));
    }

    let noreg = &rows[0];
    let odr = rows.iter().find(|(l, _, _)| l == "ODR60").expect("ODR row");
    println!(
        "\nODR60 hosts {:.1}x the sessions per server and spends {:.0}% less energy per \
         session than NoReg,\nwhile NoReg burns its GPU on frames nobody sees.",
        odr.1 / noreg.1,
        (1.0 - odr.2 / noreg.2) * 100.0
    );
}

/// Index of a [`MemClient`] within [`MemClient::ALL`] (report ordering).
fn client_index(client: MemClient) -> usize {
    MemClient::ALL
        .iter()
        .position(|&c| c == client)
        .expect("known client")
}
