//! Admission turns away a frame larger than the one it prices.
//!
//! The server prices every session at its scenario's resolution (720p by
//! default), while a CONFIG may ask for up to `MAX_DIMENSION` squared; at
//! 8192 × 8192 one session's depth plane, pixel plane and encoder
//! reference are 268 MB each. A CONFIG with more pixels than the
//! scenario's resolution is rejected before admission, with a REJECT that
//! names the bound.

use std::net::TcpStream;
use std::time::Duration;

use odr_pipeline::colocation::ServerCapacity;
use odr_runtime::Regulation;
use odr_serve::wire::{read_message, write_message, Message, SessionConfig, VERSION};
use odr_serve::{ServeConfig, Server};

/// Per-socket-operation timeout: a server that stops talking fails the
/// test instead of hanging it.
const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// Shakes hands for a `width`×`height` session; the server's verdict,
/// and the BYE sent after an ACCEPT.
fn verdict(addr: &str, width: u32, height: u32) -> Message {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(OP_TIMEOUT)).expect("timeout");
    write_message(&mut stream, &Message::Hello { version: VERSION }).expect("hello");
    let session = SessionConfig {
        width,
        height,
        regulation: Regulation::Odr {
            target_fps: Some(30.0),
        },
        ..SessionConfig::default()
    };
    write_message(&mut stream, &Message::Config(session)).expect("config");
    let verdict = read_message(&mut stream)
        .expect("verdict")
        .expect("a verdict before EOF");
    if matches!(verdict, Message::Accept(_)) {
        write_message(&mut stream, &Message::Bye).expect("bye");
        while !matches!(
            read_message(&mut stream),
            Ok(Some(Message::Bye) | None) | Err(_)
        ) {}
    }
    verdict
}

#[test]
fn a_frame_larger_than_the_priced_resolution_is_rejected() {
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
    assert!(
        matches!(verdict(&addr, 1280, 720), Message::Accept(_)),
        "a 720p session on a 720p server"
    );
    for (width, height) in [(1281, 720), (8192, 8192)] {
        match verdict(&addr, width, height) {
            Message::Reject { reason } => assert!(
                reason.contains(&format!("frame {width}x{height}")) && reason.contains("1280x720"),
                "{reason}"
            ),
            other => panic!("{width}x{height} on a 720p server: {other:?}"),
        }
    }
    let report = server.shutdown().expect("shutdown");
    assert_eq!((report.admitted, report.rejected), (1, 2), "{report:?}");
}
