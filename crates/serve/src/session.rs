//! One admitted session: the ODR pipeline with a socket transport.
//!
//! The server-side stages are [`odr_runtime::stages`] — the app render
//! loop and the proxy encode/regulate loop, connected by the
//! Mul-Buf1/Mul-Buf2 [`SyncQueue`]s — between two framing tasks:
//!
//! * the **writer** (this thread) pops Mul-Buf2 and writes
//!   `FrameHeader` + payload to the socket. `write_all` on a full socket
//!   blocks, which stalls the pop, which fills Mul-Buf2, which stalls
//!   (ODR) or overwrites (NoReg) upstream — socket backpressure maps
//!   onto the buffers' [`FullPolicy`] and is never absorbed by an
//!   unbounded queue;
//! * the **reader** decodes client messages incrementally, forwarding
//!   [`InputEvent`]s into the app stage (the event itself is the frame
//!   tag, so the client's send timestamp rides through to the frame
//!   header and MtP is measured entirely on the client's clock) and
//!   initiating shutdown on BYE, EOF, or a protocol violation.
//!
//! The reader also owns the wake-ups: after every input it forwards it
//! rings the session's [`SessionGate`], which is what the app stage (no
//! room in Mul-Buf1) and the proxy stage (regulator delay) are parked
//! on, so an input is rendered and encoded as soon as its bytes are
//! decoded, not at the next frame interval (DESIGN.md §18).
//!
//! Shutdown is a cascade: whoever stops first (reader on BYE/EOF, writer
//! on a dead socket, the server on drain) sets the session stop flag,
//! closes Mul-Buf1 and rings the gate; the app exits on the closed
//! queue, the proxy — woken out of whatever delay it was in — drains and
//! closes Mul-Buf2, the writer drains and exits. A writer that leaves
//! first (stop flag, dead socket) closes Mul-Buf2 on its way out, so a
//! proxy parked on the full buffer is released rather than joined
//! forever. The departing session then writes its [`DepartureReport`]
//! and a final BYE. The one poll left is the reader's socket timeout
//! ([`READ_POLL`]): that is how an idle session notices a *server-wide*
//! stop, and no frame waits on it.
//!
//! [`SyncQueue`]: odr_core::SyncQueue
//! [`FullPolicy`]: odr_core::FullPolicy

use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use odr_core::{workers, OdrError, OdrResult, SyncQueue};
use odr_obs::MonoClock;
use odr_runtime::stages::{
    make_recorder, mul_bufs, spawn_app_stage, spawn_proxy_stage, AppStage, ProxyStage, RawFrame,
    SessionGate,
};

use crate::telemetry::Registry;
use crate::wire::{
    decode_within, read_message_within, write_frame, write_message, DepartureReport, FrameHeader,
    InputEvent, Message, SessionConfig, FLAG_PRIORITY, FLAG_TAGGED, MAX_CLIENT_BODY,
};

/// Read-poll granularity of the reader task: how quickly a session
/// notices a server-wide stop when the client is idle.
const READ_POLL: Duration = Duration::from_millis(50);

/// Writer-side socket timeout: a client that stops reading stalls the
/// pipeline (that is the backpressure contract), but a *dead* client
/// must not hold the session forever — after this long the write errors
/// and the session drains.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the handshake (HELLO + CONFIG) may take before the
/// connection is dropped.
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// A socket whose reads all end by one `deadline`. A socket read timeout
/// bounds each `read` call, not the message being read, so a peer that
/// trickles one byte per call would never time out; this sets what is
/// left of the deadline as the timeout before every call instead.
struct ReadUntil<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for ReadUntil<'_> {
    #[expect(clippy::disallowed_methods, reason = "a socket read deadline")]
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads the client's opening HELLO + CONFIG. The two together must
/// arrive within [`HANDSHAKE_TIMEOUT`] of the call, so neither a silent
/// connection nor one that trickles bytes can pin the per-connection
/// thread (which `ServerHandle::shutdown` joins), and a length prefix
/// longer than [`MAX_CLIENT_BODY`] ends it before anything is sized by it.
#[expect(clippy::disallowed_methods, reason = "a socket read deadline")]
pub(crate) fn handshake(stream: &mut TcpStream) -> OdrResult<SessionConfig> {
    let mut stream = ReadUntil {
        stream,
        deadline: Instant::now() + HANDSHAKE_TIMEOUT,
    };
    match read_message_within(&mut stream, MAX_CLIENT_BODY)? {
        Some(Message::Hello { .. }) => {}
        Some(other) => return Err(OdrError::protocol(format!("expected HELLO, got {other:?}"))),
        None => return Err(OdrError::protocol("connection closed before HELLO")),
    }
    match read_message_within(&mut stream, MAX_CLIENT_BODY)? {
        Some(Message::Config(cfg)) => Ok(cfg),
        Some(other) => Err(OdrError::protocol(format!(
            "expected CONFIG, got {other:?}"
        ))),
        None => Err(OdrError::protocol("connection closed before CONFIG")),
    }
}

/// Stops the app loop, releases any publisher stuck on a full Mul-Buf1,
/// and wakes the stages out of their parks to see it.
fn start_cascade(stop: &AtomicBool, buf1: &SyncQueue<RawFrame<InputEvent>>, wake: &SessionGate) {
    stop.store(true, Ordering::Relaxed);
    buf1.close();
    wake.ring();
}

/// Incremental reader loop: decodes messages from `stream` as bytes
/// arrive (tolerating read timeouts mid-message), forwards inputs (and
/// rings `wake` for each), and triggers the shutdown cascade on
/// BYE/EOF/violation/server stop. A length prefix longer than
/// [`MAX_CLIENT_BODY`] is a violation as soon as it is read, so `pending`
/// never holds more than one read and one message's worth. Returns the
/// number of inputs it forwarded.
fn reader_loop(
    mut stream: TcpStream,
    buf1: Arc<SyncQueue<RawFrame<InputEvent>>>,
    wake: Arc<SessionGate>,
    input_tx: mpsc::Sender<InputEvent>,
    session_stop: Arc<AtomicBool>,
    server_stop: Arc<AtomicBool>,
) -> u64 {
    let mut inputs = 0;
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    'outer: loop {
        if session_stop.load(Ordering::Relaxed) || server_stop.load(Ordering::Relaxed) {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // EOF: client went away.
            Ok(n) => {
                pending.extend_from_slice(&chunk[..n]);
                let mut consumed = 0;
                loop {
                    match decode_within(&pending[consumed..], MAX_CLIENT_BODY) {
                        Ok(Some((Message::Input(ev), used))) => {
                            consumed += used;
                            inputs += 1;
                            if input_tx.send(ev).is_err() {
                                break 'outer;
                            }
                            wake.ring();
                        }
                        Ok(Some((Message::Bye, _))) => break 'outer,
                        Ok(Some((_, _))) | Err(_) => break 'outer, // protocol violation
                        Ok(None) => break,
                    }
                }
                pending.drain(..consumed);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    start_cascade(&session_stop, &buf1, &wake);
    inputs
}

/// Runs one admitted session to completion on the calling thread.
///
/// Returns the session's final accounting (also written to the client as
/// a REPORT message before the closing BYE).
///
/// # Errors
///
/// [`OdrError::Io`] when socket setup fails, [`OdrError::Thread`] when a
/// stage thread panics.
pub(crate) fn run_session(
    mut stream: TcpStream,
    session: u32,
    cfg: SessionConfig,
    server_stop: Arc<AtomicBool>,
    telemetry: Option<&Registry>,
) -> OdrResult<DepartureReport> {
    #[expect(clippy::disallowed_methods, reason = "the session's wall-clock length")]
    let start = Instant::now();
    let clock = MonoClock::start();
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(READ_POLL))
        .map_err(|e| OdrError::io("socket", e))?;
    stream
        .set_write_timeout(Some(WRITE_TIMEOUT))
        .map_err(|e| OdrError::io("socket", e))?;
    let reader_stream = stream.try_clone().map_err(|e| OdrError::io("socket", e))?;

    // Capture is on exactly when something drains the rings.
    let obs = telemetry.is_some();
    let rec_app = make_recorder(obs);
    let rec_proxy = make_recorder(obs);
    let rec_queues = make_recorder(obs);
    if let Some(tele) = telemetry {
        tele.register(Arc::clone(&rec_app));
        tele.register(Arc::clone(&rec_proxy));
        tele.register(Arc::clone(&rec_queues));
    }

    let (buf1, buf2) = mul_bufs::<InputEvent>(cfg.regulation, &rec_queues, clock);
    let (input_tx, input_rx) = mpsc::channel::<InputEvent>();
    let wake = Arc::new(SessionGate::default());

    let session_stop = Arc::new(AtomicBool::new(false));
    let rendered = Arc::new(AtomicU64::new(0));
    let encoded = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    let priority_n = Arc::new(AtomicU64::new(0));

    let reader = {
        let buf1 = Arc::clone(&buf1);
        let wake = Arc::clone(&wake);
        let session_stop = Arc::clone(&session_stop);
        let server_stop = Arc::clone(&server_stop);
        workers::spawn(move || {
            reader_loop(
                reader_stream,
                buf1,
                wake,
                input_tx,
                session_stop,
                server_stop,
            )
        })
    };

    #[expect(clippy::disallowed_methods, reason = "the one pipeline is built here")]
    let app = spawn_app_stage(AppStage {
        width: cfg.width,
        height: cfg.height,
        base_objects: cfg.base_objects,
        object_swing: cfg.object_swing,
        regulation: cfg.regulation,
        start,
        stop: Arc::clone(&session_stop),
        input_rx,
        out: Arc::clone(&buf1),
        wake: Arc::clone(&wake),
        rendered: Arc::clone(&rendered),
        priority_frames: Arc::clone(&priority_n),
        recorder: Arc::clone(&rec_app),
        clock,
    });
    let proxy = spawn_proxy_stage(ProxyStage {
        width: cfg.width,
        height: cfg.height,
        quant_bits: cfg.quant_bits,
        regulation: cfg.regulation,
        input: Arc::clone(&buf1),
        wake: Arc::clone(&wake),
        output: Arc::clone(&buf2),
        encoded: Arc::clone(&encoded),
        dropped: Arc::clone(&dropped),
        recorder: Arc::clone(&rec_proxy),
        clock,
    });

    // --- Writer: Mul-Buf2 → socket, backpressure through write_all ----
    let mut frames_sent = 0u64;
    let mut bytes_sent = 0u64;
    while let Some(frame) = buf2.pop_blocking() {
        let (input_id, client_ts_ns, tagged) = match frame.tag {
            Some(ev) => (ev.id, ev.client_ts_ns, FLAG_TAGGED),
            None => (0, 0, 0),
        };
        let header = FrameHeader {
            seq: frame.seq,
            input_id,
            client_ts_ns,
            flags: tagged | if frame.priority { FLAG_PRIORITY } else { 0 },
            payload_len: frame.data.len() as u32,
        };
        if write_frame(&mut stream, &header, &frame.data).is_err() {
            break; // dead socket: drain and depart
        }
        frames_sent += 1;
        bytes_sent += frame.data.len() as u64;
        if server_stop.load(Ordering::Relaxed) || session_stop.load(Ordering::Relaxed) {
            break;
        }
    }

    // --- Shutdown cascade ---------------------------------------------
    // Nobody pops Mul-Buf2 from here on: close it as well, or a proxy
    // holding an encoded frame while it is full waits for space forever.
    start_cascade(&session_stop, &buf1, &wake);
    buf2.close();
    // Every stage is joined before the first panic is reported, so none
    // is still running when the session returns.
    let joined = [("app", app.join()), ("proxy", proxy.join())];
    let inputs = reader
        .join()
        .map_err(|_| OdrError::thread("reader", "panicked"));
    if let Some((name, _)) = joined.iter().find(|(_, outcome)| outcome.is_err()) {
        return Err(OdrError::thread(name, "panicked"));
    }

    let report = DepartureReport {
        session,
        frames_rendered: rendered.load(Ordering::Relaxed),
        frames_encoded: encoded.load(Ordering::Relaxed),
        frames_sent,
        frames_dropped: buf1.drops() + buf2.drops() + dropped.load(Ordering::Relaxed),
        priority_frames: priority_n.load(Ordering::Relaxed),
        inputs: inputs?,
        bytes_sent,
        elapsed_ms: start.elapsed().as_millis() as u64,
    };
    // Best-effort farewell: the client may already be gone.
    let _ = write_message(&mut stream, &Message::Report(report));
    let _ = write_message(&mut stream, &Message::Bye);
    let _ = stream.shutdown(Shutdown::Both);
    Ok(report)
}
