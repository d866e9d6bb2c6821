//! Session teardown under load: no departure may hang.
//!
//! Regression for a writer that left its loop on the stop flag and then
//! joined the proxy without closing Mul-Buf2: a proxy holding one encoded
//! frame while the buffer held another waited for space that nobody would
//! ever make, the session never departed, and `ServerHandle::shutdown()`
//! never returned. Unregulated (NoReg) sessions hit it about once in 1 500
//! teardowns; a client that stops reading before it says BYE hits it
//! every time, because the stalled socket parks the writer, the full
//! buffer parks the proxy, and the BYE is seen while both are parked.
//! That stalled cycle is also where NoReg's excessive rendering is
//! pinned: with the consumer stopped by real socket backpressure, the
//! renderer keeps rendering into an overwriting Mul-Buf1 whatever the
//! host's speed or the build profile.
//!
//! Also here, because they are about the same cascade: a session that
//! says BYE while its proxy is in a regulator delay departs at once, not
//! when the delay has run out; and a stop request (`shutdown()`, `Drop`,
//! the last `exit_after` departure) wakes an accept loop that is blocked
//! in `accept()` with nobody connecting.
//!
//! And the handshake that precedes all of it: a peer that trickles its
//! HELLO a byte at a time is held to the handshake's total bound, not to
//! a per-read one it would never exceed, and so cannot pin a connection
//! thread that `shutdown()` joins.
//!
//! Every wait in here is bounded: socket operations time out, and the
//! test thread gives each phase a hard deadline.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use odr_pipeline::colocation::ServerCapacity;
use odr_runtime::Regulation;
use odr_serve::wire::{
    encode, read_message, write_message, DepartureReport, Message, SessionConfig, VERSION,
};
use odr_serve::{ServeConfig, Server, ServerHandle};

/// The tests of this file run on parallel threads, and one of them
/// asserts a duration of a millisecond or two: it takes this lock for
/// writing, the others (one of which keeps every core busy for seconds)
/// for reading, so it has the host to itself.
static HOST: RwLock<()> = RwLock::new(());

/// Per-socket-operation timeout: a server that stops talking fails the
/// cycle instead of hanging it.
const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// The server's bound on a whole handshake (`HANDSHAKE_TIMEOUT`, 2 s)
/// plus a second of slack for this host.
const HANDSHAKE_BOUND: Duration = Duration::from_secs(3);

/// How long the stalled reader stays away. Loopback sockets buffer some
/// 5 MB before a writer blocks; an unoptimised 640×360 NoReg session
/// produces that in two to three seconds.
const STALL: Duration = Duration::from_secs(4);

fn noreg_session(width: u32, height: u32) -> SessionConfig {
    SessionConfig {
        width,
        height,
        regulation: Regulation::NoReg,
        quant_bits: 0,
        base_objects: 12,
        object_swing: 12,
    }
}

fn serve() -> ServerHandle {
    serve_until(None)
}

/// A server that stops by itself after `exit_after` departures, if given.
fn serve_until(exit_after: Option<u64>) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            max_sessions: 8,
            exit_after,
            // Wide, so admission never turns a cycle away.
            capacity: ServerCapacity {
                gpu: 64.0,
                cpu_threads: 256.0,
                ..ServerCapacity::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind")
}

/// Connects, shakes hands and reads `frames` frames.
fn open_session(addr: &str, cfg: SessionConfig, frames: usize) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(OP_TIMEOUT)).expect("timeout");
    stream.set_write_timeout(Some(OP_TIMEOUT)).expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    write_message(&mut stream, &Message::Hello { version: VERSION }).expect("hello");
    write_message(&mut stream, &Message::Config(cfg)).expect("config");
    match read_message(&mut stream).expect("accept") {
        Some(Message::Accept(_)) => {}
        other => panic!("expected ACCEPT, got {other:?}"),
    }
    let mut seen = 0;
    while seen < frames {
        match read_message(&mut stream).expect("frame") {
            Some(Message::Frame { .. }) => seen += 1,
            other => panic!("expected FRAME, got {other:?}"),
        }
    }
    stream
}

/// Reads until the server's closing BYE (or EOF); the REPORT among it,
/// if there was one.
fn drain_to_farewell(stream: &mut TcpStream) -> Option<DepartureReport> {
    let mut report = None;
    loop {
        match read_message(stream).expect("farewell") {
            Some(Message::Frame { .. }) => {}
            Some(Message::Report(farewell)) => report = Some(farewell),
            Some(Message::Bye) | None => return report,
            Some(other) => panic!("unexpected message during teardown: {other:?}"),
        }
    }
}

/// One connect → `frames` frames → (optional stall) → BYE → farewell
/// cycle. Returns how long the farewell took from the BYE, and the
/// session's REPORT.
fn cycle(
    addr: &str,
    cfg: SessionConfig,
    frames: usize,
    stall: Duration,
) -> (Duration, DepartureReport) {
    let mut stream = open_session(addr, cfg, frames);
    // Not reading lets the socket fill: the writer parks mid-write, the
    // proxy parks on a full Mul-Buf2.
    thread::sleep(stall);
    let said_bye = Instant::now();
    write_message(&mut stream, &Message::Bye).expect("bye");
    let report = drain_to_farewell(&mut stream).expect("session departed without a REPORT");
    (said_bye.elapsed(), report)
}

/// Connects and trickles a valid HELLO + CONFIG at one byte per 300 ms,
/// so every read the server makes returns well inside any per-read
/// timeout, until the server hangs up; `connected` is called once the
/// second byte is out (the server has long accepted the connection by
/// then).
/// Returns how long the server put up with it.
///
/// # Panics
///
/// Panics if the server is still listening when the last byte has gone
/// out (some eleven seconds on), or answers.
fn trickle_until_dropped(addr: &str, mut connected: impl FnMut()) -> Duration {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // The wait for the server's EOF is also the gap between two bytes.
    let gap = Duration::from_millis(300);
    stream.set_read_timeout(Some(gap)).expect("timeout");
    let mut handshake = encode(&Message::Hello { version: VERSION });
    handshake.extend(encode(&Message::Config(noreg_session(160, 96))));
    let started = Instant::now();
    for (sent, byte) in handshake.iter().enumerate() {
        if stream.write_all(&[*byte]).is_err() {
            return started.elapsed();
        }
        if sent == 1 {
            connected();
        }
        match stream.read(&mut [0u8; 1]) {
            Ok(0) => return started.elapsed(),
            Ok(_) => break, // an answer: the handshake was let through
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return started.elapsed(), // reset: dropped all the same
        }
    }
    panic!(
        "a handshake trickled over {:.1?} was let through",
        started.elapsed()
    );
}

/// Runs `work` on a thread of its own and panics if it is not done by
/// `deadline`. The worker is never joined after a timeout, and a hung
/// server is only ever owned by a worker — a panic here unwinds nothing
/// that would wait for it — so a hang fails the test instead of hanging
/// it too.
fn within<T: Send + 'static>(
    deadline: Duration,
    what: &str,
    work: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let _ = done_tx.send(work());
    });
    match done_rx.recv_timeout(deadline) {
        Ok(value) => value,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: still running after {deadline:?}"),
        // The worker panicked: pass its message on.
        Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("worker finished without sending"),
        },
    }
}

#[test]
fn noreg_teardowns_and_shutdown_in_flight_never_hang() {
    let _shared = HOST.read().unwrap_or_else(|e| e.into_inner());
    within(Duration::from_secs(240), "teardown suite", || {
        let server = serve();
        let addr = server.addr().to_string();
        let started = Instant::now();

        // 300 unpaced cycles, two connections at a time.
        let churn = {
            let addr = addr.clone();
            move || {
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        let addr = addr.clone();
                        thread::spawn(move || {
                            for _ in 0..150 {
                                cycle(&addr, noreg_session(160, 96), 3, Duration::ZERO);
                            }
                        })
                    })
                    .collect();
                for worker in workers {
                    if let Err(panic) = worker.join() {
                        std::panic::resume_unwind(panic);
                    }
                }
            }
        };
        within(Duration::from_secs(120), "300 NoReg cycles", churn);

        // The same with a reader that stalls until the socket is full:
        // the parked-proxy state, on purpose. While it lasts nothing is
        // sent, and NoReg renders on regardless.
        {
            let addr = addr.clone();
            let (_, stalled) = within(Duration::from_secs(30), "stalled-reader cycle", move || {
                cycle(&addr, noreg_session(640, 360), 3, STALL)
            });
            assert!(stalled.frames_rendered > stalled.frames_sent, "{stalled:?}");
            assert!(stalled.frames_dropped > 0, "no drops: {stalled:?}");
        }

        // shutdown() with two sessions streaming flat out and nobody
        // saying BYE: the server's stop flag must drain them.
        let mut live: Vec<TcpStream> = (0..2)
            .map(|_| open_session(&addr, noreg_session(320, 180), 5))
            .collect();
        let report = within(
            Duration::from_secs(30),
            "shutdown with frames in flight",
            move || server.shutdown().expect("shutdown"),
        );
        for stream in &mut live {
            assert!(
                drain_to_farewell(stream).is_some(),
                "drained session sent no REPORT"
            );
        }
        assert_eq!(report.admitted, 300 + 1 + 2, "{report:?}");
        assert_eq!(report.rejected, 0);
        assert_eq!(
            report.departures.len() as u64,
            report.admitted,
            "a session never departed"
        );
        eprintln!(
            "teardown: {} sessions in {:.1?}",
            report.admitted,
            started.elapsed()
        );
    });
}

#[test]
fn bye_cuts_the_regulator_delay_short() {
    const TARGET_FPS: f64 = 30.0;
    let _alone = HOST.write().unwrap_or_else(|e| e.into_inner());
    within(Duration::from_secs(60), "ODR30 teardowns", || {
        let server = serve();
        let addr = server.addr().to_string();
        let session = SessionConfig {
            regulation: Regulation::Odr {
                target_fps: Some(TARGET_FPS),
            },
            ..noreg_session(160, 96)
        };
        // `cycle` says BYE the moment a frame has arrived, which is when
        // the proxy has just begun the delay that follows it: a cascade
        // that waits delays out takes a whole interval or two, every time.
        let mut farewells: Vec<Duration> = (0..5)
            .map(|_| cycle(&addr, session, 3, Duration::ZERO).0)
            .collect();
        farewells.sort_unstable();
        let median = farewells[farewells.len() / 2];
        assert!(
            median < Duration::from_secs_f64(0.5 / TARGET_FPS),
            "BYE to end of stream took {farewells:?}: waiting out the regulator delay"
        );
        let report = server.shutdown().expect("shutdown");
        assert_eq!(report.departures.len(), 5, "{report:?}");
    });
}

#[test]
fn stop_requests_wake_the_blocked_accept_loop() {
    let _shared = HOST.read().unwrap_or_else(|e| e.into_inner());
    // Nobody ever connects: only the stop request's own wake-up can get
    // the loop out of `accept()`.
    within(
        Duration::from_secs(20),
        "shutdown of an idle server",
        || {
            let report = serve().shutdown().expect("shutdown");
            assert_eq!(report.admitted, 0);
        },
    );
    within(Duration::from_secs(20), "drop of an idle server", || {
        drop(serve());
    });
    // The departure that completes `exit_after` is the stop request.
    within(Duration::from_secs(30), "join() with exit_after", || {
        let server = serve_until(Some(1));
        cycle(
            &server.addr().to_string(),
            noreg_session(160, 96),
            3,
            Duration::ZERO,
        );
        let report = server.join().expect("join");
        assert_eq!(report.admitted, 1);
        assert_eq!(report.departures.len(), 1, "{report:?}");
    });
}

#[test]
fn a_trickled_handshake_is_dropped_within_the_handshake_bound() {
    let _shared = HOST.read().unwrap_or_else(|e| e.into_inner());
    let server = serve();
    let addr = server.addr().to_string();
    let held = within(Duration::from_secs(20), "trickled handshake", move || {
        trickle_until_dropped(&addr, || {})
    });
    assert!(
        held <= HANDSHAKE_BOUND,
        "a slow-loris HELLO was read for {held:.1?}"
    );
    let report = server.shutdown().expect("shutdown");
    assert_eq!((report.admitted, report.rejected), (0, 0), "{report:?}");
}

#[test]
fn shutdown_does_not_wait_for_a_trickling_handshake() {
    let _shared = HOST.read().unwrap_or_else(|e| e.into_inner());
    let server = serve();
    let addr = server.addr().to_string();
    let (connected_tx, connected) = mpsc::channel();
    // Never joined: at most it trickles its eleven seconds out.
    thread::spawn(move || {
        trickle_until_dropped(&addr, || {
            let _ = connected_tx.send(());
        })
    });
    connected
        .recv_timeout(OP_TIMEOUT)
        .expect("the peer never connected");
    let report = within(
        HANDSHAKE_BOUND,
        "shutdown while a peer trickles",
        move || server.shutdown().expect("shutdown"),
    );
    assert_eq!(report.admitted, 0, "{report:?}");
}
