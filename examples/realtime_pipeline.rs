//! Drive the *real* pipeline: software renderer → video codec → TCP
//! socket → decoding client, with ODR's blocking multi-buffers between
//! the stages — against wall-clock time, not simulation.
//!
//! Each configuration is one session served over loopback TCP: the server
//! renders an animated 3D scene at 320×180 and streams it through the
//! codec, the client replays user inputs and measures at its end of the
//! socket. Compares NoReg with ODR (30 FPS target): the unregulated run
//! renders far more frames than the client ever sees.
//!
//! Run with `cargo run --release --example realtime_pipeline`.

use cloud3d_odr::prelude::*;
use std::time::Duration as StdDuration;

fn main() {
    println!("running the real-time pipeline for 4 s per configuration...\n");

    let configs = [
        ("NoReg", Regulation::NoReg),
        ("ODRMax", Regulation::Odr { target_fps: None }),
        (
            "ODR30",
            Regulation::Odr {
                target_fps: Some(30.0),
            },
        ),
    ];

    println!(
        "{:<8} {:>11} {:>11} {:>8} {:>9} {:>11} {:>9}",
        "config", "render fps", "client fps", "drops", "MtP(ms)", "bitrate", "priority"
    );
    for (label, regulation) in configs {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                exit_after: Some(1),
                ..ServeConfig::default()
            },
        )
        .expect("bind a loopback port");
        let outcome = run_client(&ClientConfig {
            connect: server.addr().to_string(),
            session: SessionConfig {
                regulation,
                ..SessionConfig::default()
            },
            duration: StdDuration::from_secs(4),
            input_rate_hz: 3.6,
            seed: 7,
        })
        .expect("client run");
        server.join().expect("server drain");
        let (Some(farewell), Some(render_fps)) = (outcome.departure, outcome.render_fps()) else {
            panic!("the server's farewell report never arrived");
        };
        println!(
            "{:<8} {:>11.1} {:>11.1} {:>8} {:>9.1} {:>8.2}Mb/s {:>9}",
            label,
            render_fps,
            outcome.report.client_fps(),
            farewell.frames_dropped,
            outcome.report.mtp_mean_ms(),
            outcome.report.bitrate_mbps(),
            farewell.priority_frames
        );
    }

    println!(
        "\nNoReg renders frames the client never sees (drops > 0); ODR's blocking \
         multi-buffers\npace rendering to the delivered rate, and priority frames answer \
         inputs immediately."
    );
}
