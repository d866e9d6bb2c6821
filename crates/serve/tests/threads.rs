//! A server's threads outlive it: a second server spawns none.
//!
//! Every thread a server runs on — its accept loop, and for each session
//! the connection's writer, the reader, the app and the proxy stage — is
//! a worker that parks when its job is done and is handed the next job
//! of its kind (`odr_core::workers`). Here one server serves two sessions
//! at once and shuts down; a second server then serves two sessions of
//! the same size. While it serves, and after its own shutdown, the
//! process has exactly as many threads as after the first shutdown.
//!
//! This file holds one test on purpose: `/proc/self/task` counts every
//! thread of the process, a parallel test's included.

use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use odr_pipeline::colocation::ServerCapacity;
use odr_runtime::Regulation;
use odr_serve::wire::{read_message, write_message, Message, SessionConfig, VERSION};
use odr_serve::{ServeConfig, Server};

/// Per-socket-operation timeout: a server that stops talking fails the
/// test instead of hanging it.
const OP_TIMEOUT: Duration = Duration::from_secs(10);

const SESSION: SessionConfig = SessionConfig {
    width: 160,
    height: 96,
    regulation: Regulation::Odr {
        target_fps: Some(60.0),
    },
    quant_bits: 2,
    base_objects: 6,
    object_swing: 6,
};

/// The process's threads, once the count has held still for 20 ms: a
/// joined thread can still be listed for a moment after its join.
fn settled_threads() -> usize {
    let count = || {
        std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .count()
    };
    let mut last = count();
    for _ in 0..100 {
        thread::sleep(Duration::from_millis(20));
        let now = count();
        if now == last {
            return now;
        }
        last = now;
    }
    last
}

/// Connects, shakes hands and reads three frames.
fn open_session(addr: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(OP_TIMEOUT)).expect("timeout");
    stream.set_write_timeout(Some(OP_TIMEOUT)).expect("timeout");
    write_message(&mut stream, &Message::Hello { version: VERSION }).expect("hello");
    write_message(&mut stream, &Message::Config(SESSION)).expect("config");
    for _ in 0..4 {
        match read_message(&mut stream).expect("accept or frame") {
            Some(Message::Accept(_) | Message::Frame { .. }) => {}
            other => panic!("expected ACCEPT and FRAMEs, got {other:?}"),
        }
    }
    stream
}

/// Says BYE and reads up to the server's closing BYE.
fn close_session(mut stream: TcpStream) {
    write_message(&mut stream, &Message::Bye).expect("bye");
    loop {
        match read_message(&mut stream).expect("farewell") {
            Some(Message::Frame { .. } | Message::Report(_)) => {}
            Some(Message::Bye) | None => return,
            Some(other) => panic!("unexpected message during teardown: {other:?}"),
        }
    }
}

/// Binds a server, serves two sessions at once and shuts it down;
/// `serving` is called while both sessions stream.
fn serve_two(serving: impl FnOnce()) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            capacity: ServerCapacity {
                gpu: 64.0,
                cpu_threads: 256.0,
                ..ServerCapacity::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let sessions = [open_session(&addr), open_session(&addr)];
    serving();
    for stream in sessions {
        close_session(stream);
    }
    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.departures.len(), 2, "{report:?}");
}

#[test]
fn a_second_server_serves_on_the_first_ones_workers() {
    serve_two(|| {});
    let parked = settled_threads();
    serve_two(|| {
        assert_eq!(
            settled_threads(),
            parked,
            "threads spawned for the second server's accept loop and sessions"
        );
    });
    assert_eq!(
        settled_threads(),
        parked,
        "threads left behind by the second server"
    );
}
