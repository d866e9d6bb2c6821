//! End-to-end loopback: a real server, real sockets, real clients.
//!
//! These are the tests that close the sim-to-real loop: the serving
//! stack must carry concurrent sessions over 127.0.0.1, honour
//! admission, drain gracefully, regulate each session the way its
//! regulation says, and — for an uncontended regulated session — land
//! where the simulator says it should. The client, for its part, must
//! take its session with it when it gives up, and must not guess what
//! the server counted when the farewell never came.

use std::net::{TcpListener, TcpStream};
use std::sync::RwLock;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use odr_client::{outcome_to_text, run_client, ClientConfig, ClientOutcome};
use odr_cluster::Slo;
use odr_codec::Decoder;
use odr_core::{FpsGoal, OdrError, RegulationSpec};
use odr_pipeline::{run_experiment, ExperimentConfig};
use odr_runtime::Regulation;
use odr_serve::wire::{read_message, write_frame, write_message, FrameHeader, Message, VERSION};
use odr_serve::{AcceptInfo, DepartureReport, ServeConfig, Server, SessionConfig};
use odr_workload::{Benchmark, Platform, Resolution, Scenario};

/// The tests of this file run on parallel threads, and one of them
/// asserts the latency of an *uncontended* session: it takes this lock
/// for writing, the others for reading, so it has the cores to itself.
static HOST: RwLock<()> = RwLock::new(());

/// A small, cheap session every machine can render comfortably.
fn small_session(regulation: Regulation) -> SessionConfig {
    SessionConfig {
        width: 160,
        height: 96,
        regulation,
        quant_bits: 2,
        base_objects: 6,
        object_swing: 6,
    }
}

#[test]
fn four_concurrent_clients_complete_and_depart() {
    let _shared = HOST.read().unwrap_or_else(|e| e.into_inner());
    let telemetry = std::env::temp_dir().join(format!("odr-loopback-{}.jsonl", std::process::id()));
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            max_sessions: 8,
            exit_after: Some(4),
            telemetry: Some(telemetry.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    let clients: Vec<_> = (0..4)
        .map(|i| {
            let connect = addr.clone();
            thread::spawn(move || {
                run_client(&ClientConfig {
                    connect,
                    session: small_session(Regulation::Odr {
                        target_fps: Some(30.0),
                    }),
                    duration: Duration::from_millis(1200),
                    input_rate_hz: 3.0,
                    seed: 100 + i,
                })
            })
        })
        .collect();
    let outcomes: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread").expect("client run"))
        .collect();
    let report = server.join().expect("server drain");

    assert_eq!(report.admitted, 4);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.departures.len(), 4, "{report:?}");
    // The server streamed its sessions' stage events while it served.
    let streamed = std::fs::read_to_string(&telemetry).expect("telemetry stream");
    let _ = std::fs::remove_file(&telemetry);
    assert!(streamed.contains("\"name\":\"encode\""));
    for out in &outcomes {
        assert!(
            out.report.frames_displayed > 0,
            "client saw no frames: {:?}",
            out.report
        );
        let departure = out.departure.expect("farewell REPORT arrived");
        assert!(departure.frames_sent >= out.report.frames_displayed);
        assert!(out.report.inputs > 0);
    }
    // Departures on the server side are the same sessions the clients saw.
    let mut server_sessions: Vec<u32> = report.departures.iter().map(|d| d.session).collect();
    let mut client_sessions: Vec<u32> = outcomes.iter().map(|o| o.accept.session).collect();
    server_sessions.sort_unstable();
    client_sessions.sort_unstable();
    assert_eq!(server_sessions, client_sessions);
}

#[test]
fn admission_rejects_beyond_the_session_cap() {
    let _shared = HOST.read().unwrap_or_else(|e| e.into_inner());
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            max_sessions: 1,
            exit_after: Some(1),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    // First client holds the only slot for its whole session.
    let holder = {
        let connect = addr.clone();
        thread::spawn(move || {
            run_client(&ClientConfig {
                connect,
                session: small_session(Regulation::Odr {
                    target_fps: Some(30.0),
                }),
                duration: Duration::from_millis(900),
                input_rate_hz: 2.0,
                seed: 1,
            })
        })
    };
    thread::sleep(Duration::from_millis(250));
    let refused = run_client(&ClientConfig {
        connect: addr,
        session: small_session(Regulation::Odr {
            target_fps: Some(30.0),
        }),
        duration: Duration::from_millis(300),
        input_rate_hz: 0.0,
        seed: 2,
    });
    let err = refused.expect_err("second session must be refused");
    assert!(matches!(err, OdrError::Admission { .. }), "{err}");
    assert!(err.to_string().contains("session cap"), "{err}");

    holder.join().expect("holder thread").expect("holder run");
    let report = server.join().expect("server drain");
    assert_eq!(report.admitted, 1);
    assert_eq!(report.rejected, 1);
}

/// The acceptance bar from the issue: a real, uncontended ODR60 session
/// must land within a stated tolerance of the simulator's prediction
/// for the same regulation.
///
/// Tolerance: ±35% on client FPS. The simulator models the paper's
/// calibrated scenario hardware while the loopback session renders a
/// tiny raster scene on whatever CI machine runs the tests, so the
/// comparison is about regulation behaviour (does ODR hold its target
/// rather than run flat out or collapse), not hardware fidelity.
#[test]
fn uncontended_odr60_agrees_with_the_simulator() {
    let _alone = HOST.write().unwrap_or_else(|e| e.into_inner());
    let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
    let sim = run_experiment(
        &ExperimentConfig::builder(scenario, RegulationSpec::odr(FpsGoal::Target(60.0)))
            .duration(Duration::from_secs(10))
            .seed(7)
            .build(),
    );

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            max_sessions: 2,
            exit_after: Some(1),
            scenario,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut outcome = run_client(&ClientConfig {
        connect: server.addr().to_string(),
        session: small_session(Regulation::Odr {
            target_fps: Some(60.0),
        }),
        duration: Duration::from_millis(2500),
        input_rate_hz: 4.0,
        seed: 11,
    })
    .expect("client run");
    let report = server.join().expect("server drain");
    assert_eq!(report.admitted, 1);

    let real_fps = outcome.report.client_fps();
    let sim_fps = sim.client_fps;
    let tolerance = 0.35;
    assert!(
        (real_fps - sim_fps).abs() <= tolerance * sim_fps,
        "real client FPS {real_fps:.1} vs simulated {sim_fps:.1} \
         (tolerance ±{:.0}%)",
        tolerance * 100.0
    );
    // MtP must be sane for an interactive session: positive samples,
    // mean below the SLO bound the admission check enforces (250 ms).
    assert!(outcome.report.mtp_ms.count() > 0, "no MtP samples");
    let mtp_mean = outcome.report.mtp_mean_ms();
    assert!(
        mtp_mean > 0.0 && mtp_mean < 250.0,
        "client MtP mean {mtp_mean:.1} ms out of range"
    );
    // PriorityFrame: an input is answered inside one target interval,
    // not after the regulator has slept one out (DESIGN.md §18).
    let mtp_p50 = outcome.report.mtp_ms.percentile(50.0);
    assert!(
        mtp_p50 < 1000.0 / 60.0,
        "client MtP p50 {mtp_p50:.1} ms: the regulator delay is on the input path"
    );
    // The admission fixed point predicted roughly the target too.
    assert!(
        (outcome.accept.predicted_fps - 60.0).abs() <= 10.0,
        "admission predicted {:.1} fps",
        outcome.accept.predicted_fps
    );
}

/// One row per regulation mechanism: a session served over loopback must
/// show the behaviour the mechanism exists for. The bands are wide on
/// purpose — they separate "regulated" from "not", on any host and in an
/// unoptimised build; NoReg's over-rendering needs a slow consumer and is
/// pinned against a stalled socket in `odr-serve`'s `teardown.rs`.
#[test]
fn each_regulation_does_its_job_on_the_served_path() {
    struct Row {
        regulation: Regulation,
        input_rate_hz: f64,
        millis: u64,
        check: fn(&mut ClientOutcome, DepartureReport),
    }
    let odr = |fps| Regulation::Odr {
        target_fps: Some(fps),
    };
    // Inputs ride frames as tags under every regulation, but only ODR
    // makes PriorityFrames: the flag the client counts is the one the
    // server's app loop decided.
    fn no_priority_frames(out: &ClientOutcome, server: DepartureReport) {
        assert!(out.report.mtp_ms.count() > 0, "no tagged frame: {out:?}");
        assert_eq!(out.report.priority_frames, 0, "{out:?}");
        assert_eq!(server.priority_frames, 0, "{server:?}");
    }
    let rows = [
        Row {
            // Tagged frames are not PriorityFrames.
            regulation: Regulation::NoReg,
            input_rate_hz: 8.0,
            millis: 1200,
            check: |out, server| no_priority_frames(out, server),
        },
        Row {
            // Multi-buffering alone: rendering outpaces display only by
            // the frames in flight plus priority flushes.
            regulation: Regulation::Odr { target_fps: None },
            input_rate_hz: 3.6,
            millis: 1200,
            check: |out, server| {
                let in_flight = 4 + server.priority_frames;
                assert!(
                    server.frames_rendered <= out.report.frames_displayed + in_flight,
                    "rendered {} vs displayed {} (+{in_flight})",
                    server.frames_rendered,
                    out.report.frames_displayed
                );
                // Unpaced, the host delivers more than the paced rows'
                // band allows: staying inside it is the regulator's doing.
                let fps = out.report.client_fps();
                assert!(fps > 36.0, "unpaced client fps {fps}");
            },
        },
        Row {
            // Algorithm 1 paces delivery to the target, evenly.
            regulation: odr(30.0),
            input_rate_hz: 0.0,
            millis: 1500,
            check: |out, _| {
                let fps = out.report.client_fps();
                assert!((22.5..=36.0).contains(&fps), "client fps {fps}");
                assert!(out.report.display_intervals_ms.count() > 10);
                let mean = out.report.display_intervals_ms.mean();
                assert!((20.0..=50.0).contains(&mean), "mean interval {mean} ms");
                let cv = out.report.pacing_cv();
                assert!(cv < 1.5, "pacing cv {cv}");
            },
        },
        Row {
            // Interval pacing throttles the application loop itself, and
            // inputs do not cut it.
            regulation: Regulation::Interval { fps: 30.0 },
            input_rate_hz: 8.0,
            millis: 1500,
            check: |out, server| {
                let fps = out.render_fps().expect("farewell");
                assert!((21.0..=36.0).contains(&fps), "render fps {fps}");
                no_priority_frames(out, server);
            },
        },
        Row {
            // Inputs come back as MtP samples.
            regulation: odr(30.0),
            input_rate_hz: 8.0,
            millis: 1200,
            check: |out, server| {
                assert!(out.report.inputs > 0 && server.inputs > 0, "{out:?}");
                assert!(out.report.mtp_ms.count() > 0, "no MtP samples: {out:?}");
                assert!(out.report.mtp_mean_ms() < 1000.0);
            },
        },
        Row {
            // PriorityFrame end to end: an input wakes the parked
            // renderer and cuts the regulator's delay, at the cost of the
            // one stale frame in Mul-Buf1 and of nothing in the long-run
            // rate.
            regulation: odr(60.0),
            input_rate_hz: 10.0,
            millis: 2500,
            check: |out, server| {
                let samples = out.report.mtp_ms.count();
                assert!(samples >= 10, "only {samples} MtP samples");
                // Service time plus loopback: far below the frame
                // interval, where a regulator delay slept out would put it.
                let mtp_p50 = out.report.mtp_ms.percentile(50.0);
                assert!(mtp_p50 < 1000.0 / 60.0, "MtP p50 {mtp_p50:.1} ms");
                // The cut delays stay in the balance, so the rate holds.
                let fps = out.report.client_fps();
                assert!((54.0..=66.0).contains(&fps), "client fps {fps:.1}");
                // One flushed frame per input, not two: the renderer was
                // waiting for room, not holding a second stale frame.
                assert!(
                    server.frames_rendered - server.frames_encoded <= server.priority_frames + 4,
                    "{server:?}"
                );
                // Every PriorityFrame the renderer made reaches the client
                // flagged, bar one answer still in flight at teardown.
                let client = out.report.priority_frames;
                assert!(
                    client > 0
                        && client <= server.priority_frames
                        && client + 1 >= server.priority_frames,
                    "client saw {client} PriorityFrames, server made {}",
                    server.priority_frames
                );
            },
        },
    ];
    // Rates and a latency are asserted: the rows run one at a time, with
    // the host to themselves.
    let _alone = HOST.write().unwrap_or_else(|e| e.into_inner());
    for row in rows {
        eprintln!("{:?} with {} inputs/s", row.regulation, row.input_rate_hz);
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                exit_after: Some(1),
                ..ServeConfig::default()
            },
        )
        .expect("bind");
        let mut outcome = run_client(&ClientConfig {
            connect: server.addr().to_string(),
            session: small_session(row.regulation),
            duration: Duration::from_millis(row.millis),
            input_rate_hz: row.input_rate_hz,
            seed: 7,
        })
        .expect("client run");
        let report = server.join().expect("server drain");
        assert_eq!(report.departures.len(), 1, "{report:?}");
        let farewell = outcome.departure.expect("farewell REPORT arrived");
        assert!(outcome.report.frames_displayed > 10, "{outcome:?}");
        assert!(outcome.report.bytes_sent > 0);
        (row.check)(&mut outcome, farewell);
    }
}

/// An Interval session's frame 0 is tick 0 of its pacing grid: it is
/// rendered as the session starts, not one whole interval later, and the
/// frames after it keep to the grid (the simulator's
/// `IntervalPacer::frame_start(ZERO)` is `ZERO`). At 10 FPS a skipped
/// tick 0 is 100 ms nobody can miss.
#[test]
fn an_interval_session_shows_its_first_frame_at_once() {
    const INTERVAL_MS: f64 = 100.0;
    let _alone = HOST.write().unwrap_or_else(|e| e.into_inner());
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            exit_after: Some(1),
            // Int10 is the point, not a violation.
            slo: Slo {
                min_fps: 5.0,
                ..Slo::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let session = small_session(Regulation::Interval {
        fps: 1e3 / INTERVAL_MS,
    });
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    write_message(&mut stream, &Message::Hello { version: VERSION }).expect("hello");
    write_message(&mut stream, &Message::Config(session)).expect("config");
    match read_message(&mut stream).expect("accept") {
        Some(Message::Accept(_)) => {}
        other => panic!("expected ACCEPT, got {other:?}"),
    }
    let accepted = Instant::now();
    let mut decoder = Decoder::new(session.width, session.height);
    let mut decoded_at = Vec::new();
    while decoded_at.len() < 6 {
        match read_message(&mut stream).expect("frame") {
            Some(Message::Frame { payload, .. }) => {
                decoder.decode(&payload).expect("decode");
                decoded_at.push(accepted.elapsed().as_secs_f64() * 1e3);
            }
            other => panic!("expected FRAME, got {other:?}"),
        }
    }
    write_message(&mut stream, &Message::Bye).expect("bye");
    while !matches!(read_message(&mut stream), Ok(None) | Err(_)) {}
    server.join().expect("server drain");

    assert!(
        decoded_at[0] < INTERVAL_MS / 2.0,
        "first frame {:.1} ms after ACCEPT: tick 0 was skipped ({decoded_at:?})",
        decoded_at[0]
    );
    for gap in decoded_at.windows(2).map(|w| w[1] - w[0]) {
        assert!(
            (gap - INTERVAL_MS).abs() <= 20.0,
            "inter-frame gap {gap:.1} ms off the {INTERVAL_MS} ms grid ({decoded_at:?})"
        );
    }
}

/// A stand-in server: accepts one connection, completes the handshake as
/// session 2 of a one-resident server, then lets `script` speak.
fn fake_server(script: impl FnOnce(&mut TcpStream) + Send + 'static) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = thread::spawn(move || {
        let (mut peer, _) = listener.accept().expect("accept");
        peer.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        for expected in ["HELLO", "CONFIG"] {
            read_message(&mut peer).expect(expected).expect(expected);
        }
        let accept = AcceptInfo {
            session: 2,
            residents: 1,
            slowdown: 1.0,
            predicted_fps: 60.0,
            predicted_mtp_ms: 20.0,
        };
        write_message(&mut peer, &Message::Accept(accept)).expect("accept");
        script(&mut peer);
    });
    (addr, server)
}

/// A client that gives up mid-session closes the connection on its way
/// out: the server sees EOF at once instead of inputs from a detached
/// thread until the session's `duration` has run out.
#[test]
fn a_failed_client_takes_its_session_with_it() {
    let _shared = HOST.read().unwrap_or_else(|e| e.into_inner());
    let (connect, server) = fake_server(|peer| {
        // A FRAME whose payload is no bitstream.
        let garbage = [0xFF_u8; 16];
        let header = FrameHeader {
            seq: 0,
            input_id: 0,
            client_ts_ns: 0,
            flags: 0,
            payload_len: garbage.len() as u32,
        };
        write_frame(peer, &header, &garbage).expect("frame");
        let sent = Instant::now();
        // Inputs already under way may still arrive; then the stream
        // ends (EOF, or a reset for the bytes the client never read).
        let limit = Duration::from_secs(1);
        while sent.elapsed() < limit && matches!(read_message(peer), Ok(Some(_))) {}
        assert!(
            sent.elapsed() < limit,
            "the client gave up but its session was still up {:?} later",
            sent.elapsed()
        );
    });
    let err = run_client(&ClientConfig {
        connect,
        session: small_session(Regulation::NoReg),
        duration: Duration::from_secs(30),
        input_rate_hz: 20.0,
        seed: 3,
    })
    .expect_err("a corrupt frame must fail the run");
    assert!(matches!(err, OdrError::Protocol { .. }), "{err}");
    if let Err(panic) = server.join() {
        std::panic::resume_unwind(panic);
    }
}

/// Without the server's farewell REPORT, what only the server can count
/// is unknown — not "rendered exactly what was displayed, dropped none".
#[test]
fn a_lost_farewell_is_not_guessed() {
    let _shared = HOST.read().unwrap_or_else(|e| e.into_inner());
    let (connect, server) = fake_server(|peer| {
        write_message(peer, &Message::Bye).expect("bye");
    });
    let outcome = run_client(&ClientConfig {
        connect,
        session: small_session(Regulation::NoReg),
        duration: Duration::from_millis(200),
        input_rate_hz: 0.0,
        seed: 3,
    })
    .expect("client run");
    server.join().expect("fake server");
    assert!(outcome.departure.is_none());
    assert_eq!(outcome.render_fps(), None);
    assert_eq!(outcome.fps_gap(), None);
    let text = outcome_to_text(&outcome);
    assert!(text.starts_with("session #2, 1 resident,"), "{text}");
    assert!(text.contains("render FPS                 n/a\n"), "{text}");
    assert!(text.contains("frames shown/dropped  0 / n/a\n"), "{text}");
    assert!(!text.contains("server:"), "{text}");
}
