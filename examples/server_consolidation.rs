//! The data-centre angle of the paper's motivation: excessive rendering
//! wastes *capacity*, not just watts. When ODR releases the CPU/GPU cycles
//! spent on discarded frames, a fixed server fleet can host more sessions.
//!
//! For each regulation this example measures per-session resource
//! utilisation (GPU = render activity; CPU = app + copy + encode) under a
//! 60 FPS QoS goal, derives how many sessions one server sustains before
//! its bottleneck resource saturates (with 10 % headroom), and compares
//! the energy per delivered session.
//!
//! Run with `cargo run --release --example server_consolidation`.

use cloud3d_odr::memsim::MemClient;
use cloud3d_odr::pipeline::colocation::{ColocationModel, ServerCapacity};
use cloud3d_odr::prelude::*;

fn main() {
    println!("per-session utilisation and consolidation, 720p private cloud, 60 s each\n");
    println!(
        "{:<8} {:>9} {:>9} {:>14} {:>16} {:>14}",
        "config", "GPU util", "CPU util", "sessions/srv", "W per session", "client FPS"
    );

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
        }
        let n = Benchmark::ALL.len() as f64;
        let (gpu, cpu, power, fps) = (gpu / n, cpu / n / 3.0, power / n, fps / n);
        // A session needs its bottleneck resource; pack until 90 % busy.
        let sessions = (0.90 / gpu.max(cpu)).floor().max(1.0);
        let w_per_session = power / sessions;
        println!(
            "{:<8} {:>8.0}% {:>8.0}% {:>14.0} {:>15.1}W {:>14.1}",
            spec.label(),
            gpu * 100.0,
            cpu * 100.0,
            sessions,
            w_per_session,
            fps
        );
        rows.push((spec.label(), sessions, w_per_session));
    }

    // The mean-field co-location model (validated against the simulator)
    // gives the same answer per benchmark with contention feedback.
    println!("\nmean-field capacity (sessions/server at 60 FPS, DRAM contention included):");
    for benchmark in Benchmark::ALL {
        let scenario = Scenario::new(benchmark, Resolution::R720p, Platform::PrivateCloud);
        let model = ColocationModel::new(scenario, 60.0, ServerCapacity::default());
        let n = model.capacity_sessions(16);
        let at_n = model.evaluate(n.max(1));
        println!(
            "  {:<4} {} sessions (slowdown {:.2}, gpu {:.0}%, cpu {:.0}%, {:.0} W)",
            benchmark.short(),
            n,
            at_n.state.slowdown,
            at_n.state.gpu_load * 100.0,
            at_n.state.cpu_load * 100.0,
            at_n.power_w
        );
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
