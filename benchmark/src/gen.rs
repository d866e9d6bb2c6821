//! The load generator: the benchmark's own thin client.
//!
//! Built only from the serving layer's public wire functions and the
//! codec's public decoder. One thread drives one connection: it reads
//! with a timeout, parses complete messages out of an incremental receive
//! buffer, decodes every frame and checks it. Motion-to-photon is
//! `now − stamp` after decode, on the generator's clock, the stamp being
//! the time the input was *due* (open loop), not when it was written.
//!
//! Open-loop inputs are written by a second, sleeping thread per
//! connection ([`write_inputs`]): a socket read timeout is rounded up to
//! the kernel's tick (4–10 ms here), which made a single thread write its
//! inputs that late. `thread::sleep` wakes within a millisecond nineteen
//! times in twenty on the sizing guest (spinning up to the due time was
//! tried and is no better: the spinner gets preempted instead).

use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use odr_simtime::Rng;

use odr_codec::Decoder;
use odr_serve::wire::{self, DepartureReport, InputEvent, Message, SessionConfig};

use crate::trace::{TraceId, Tracer};

/// Longest a session waits for any single thing (connect, ACCEPT, the
/// next frame, the farewell) before it is counted as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// Bytes asked of the socket per read.
const READ_CHUNK: usize = 64 * 1024;

/// Shortest read timeout handed to the socket (zero means "forever").
const MIN_READ_TIMEOUT: Duration = Duration::from_micros(200);

/// A frame the client displayed.
#[derive(Clone, Copy, Debug)]
pub struct FrameEvent {
    /// When decode finished (the frame is "on screen").
    pub at: Instant,
    /// Input-due to decode-done, for frames that answer an input.
    pub mtp_ms: Option<f64>,
}

/// What the receive buffer yielded.
enum Incoming {
    Message(Message),
    Eof,
    Wake,
}

/// What [`Session::next_event`] came back with.
#[derive(Debug)]
pub enum Event {
    /// A frame was received, decoded and checked.
    Frame(FrameEvent),
    /// The server's final accounting arrived.
    Report(DepartureReport),
    /// BYE or end of stream.
    Closed,
    /// Nothing happened before the wake time.
    Wake,
}

/// One client session over one connection.
pub struct Session {
    /// Generator-side session number (the trace identifier).
    pub number: u32,
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Vec<u8>,
    decoder: Decoder,
    frame_bytes: usize,
    epoch: Instant,
    /// The stamp input `id` carries (or will carry), by id.
    stamps: Vec<u64>,
    last_seq: Option<u64>,
    /// `read` calls since the last frame completed: `(entered, returned)`.
    reads: Vec<(Instant, Instant)>,
    /// The `decode` call that produced the latest message.
    parsed: (Instant, Instant),
    frame_started: Instant,
    /// Frames received and decoded over the session's life.
    pub frames: u64,
    /// Inputs written over the session's life.
    pub inputs: u64,
    /// Checks that failed (decode error, `seq` not increasing, a tag that
    /// echoes no input we sent, wrong decoded size).
    pub bad_frames: u64,
    /// Record a span set per frame (the traced segment of a traced run);
    /// lifecycle spans are recorded whenever the tracer is on.
    pub trace_frames: bool,
    /// The session's root span.
    pub root: Option<u32>,
    /// When `connect()` was called.
    pub opened_at: Instant,
    /// When ACCEPT arrived.
    pub accepted_at: Instant,
}

impl Session {
    /// Connects, sends HELLO + CONFIG and waits for ACCEPT.
    ///
    /// # Errors
    ///
    /// A one-line reason: transport failure, refusal (with the server's
    /// reason), protocol violation or timeout. The caller counts it as a
    /// failed session.
    pub fn open(
        addr: SocketAddr,
        cfg: SessionConfig,
        number: u32,
        epoch: Instant,
        tracer: &mut Tracer,
    ) -> Result<Session, String> {
        let id = TraceId::Session(number);
        let opened_at = Instant::now();
        let root = tracer.push("session", opened_at, opened_at, None, id);
        let stream =
            TcpStream::connect_timeout(&addr, OP_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
        let connected_at = Instant::now();
        tracer.push("session.connect", opened_at, connected_at, root, id);
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_write_timeout(Some(OP_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let mut session = Session {
            number,
            stream,
            buf: Vec::with_capacity(2 * READ_CHUNK),
            chunk: vec![0; READ_CHUNK],
            decoder: Decoder::new(cfg.width, cfg.height),
            frame_bytes: cfg.width as usize * cfg.height as usize * 4,
            epoch,
            stamps: Vec::new(),
            last_seq: None,
            reads: Vec::new(),
            parsed: (connected_at, connected_at),
            frame_started: connected_at,
            frames: 0,
            inputs: 0,
            bad_frames: 0,
            trace_frames: true,
            root,
            opened_at,
            accepted_at: connected_at,
        };
        let hello = Message::Hello {
            version: wire::VERSION,
        };
        wire::write_message(&mut session.stream, &hello)
            .and_then(|()| wire::write_message(&mut session.stream, &Message::Config(cfg)))
            .map_err(|e| format!("handshake write: {e}"))?;
        let deadline = connected_at + OP_TIMEOUT;
        match session.next_message(deadline)? {
            Incoming::Message(Message::Accept(_)) => {}
            Incoming::Message(Message::Reject { reason }) => {
                return Err(format!("refused: {reason}"))
            }
            Incoming::Message(other) => return Err(format!("expected ACCEPT, got {other:?}")),
            Incoming::Eof => return Err("closed before ACCEPT".into()),
            Incoming::Wake => return Err("no ACCEPT before the timeout".into()),
        }
        session.accepted_at = Instant::now();
        session.frame_started = session.accepted_at;
        session.reads.clear();
        tracer.push(
            "session.handshake",
            connected_at,
            session.accepted_at,
            root,
            id,
        );
        Ok(session)
    }

    /// Writes one INPUT stamped `due` from this thread (closed loop: the
    /// input is due when the frame that prompts it arrives).
    ///
    /// # Errors
    ///
    /// The transport's reason when the write fails or times out.
    pub fn send_input(&mut self, due: Instant) -> Result<(), String> {
        let event = InputEvent {
            id: self.stamps.len() as u64,
            client_ts_ns: stamp_ns(self.epoch, due),
        };
        wire::write_message(&mut self.stream, &Message::Input(event))
            .map_err(|e| format!("input write: {e}"))?;
        self.stamps.push(event.client_ts_ns);
        self.inputs += 1;
        Ok(())
    }

    /// Hands the write side to an input thread that will send one INPUT
    /// per entry of `due`, in order, ids counting from zero.
    ///
    /// # Errors
    ///
    /// The transport's reason when the socket cannot be cloned.
    pub fn open_loop(&mut self, due: &[Instant]) -> Result<TcpStream, String> {
        self.stamps = due.iter().map(|&at| stamp_ns(self.epoch, at)).collect();
        self.stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))
    }

    /// Tells the server to stop (the session then drains and says
    /// goodbye; keep calling [`Session::next_event`] until `Closed`).
    ///
    /// # Errors
    ///
    /// The transport's reason when the write fails.
    pub fn send_bye(&mut self) -> Result<(), String> {
        wire::write_message(&mut self.stream, &Message::Bye).map_err(|e| format!("bye write: {e}"))
    }

    /// The next complete message, reading until `wake_at` at the latest.
    fn next_message(&mut self, wake_at: Instant) -> Result<Incoming, String> {
        loop {
            let parse_started = Instant::now();
            match wire::decode(&self.buf) {
                Ok(Some((msg, used))) => {
                    self.parsed = (parse_started, Instant::now());
                    self.buf.drain(..used);
                    return Ok(Incoming::Message(msg));
                }
                Ok(None) => {}
                Err(e) => return Err(format!("malformed message: {e:?}")),
            }
            let now = Instant::now();
            if now >= wake_at {
                return Ok(Incoming::Wake);
            }
            self.stream
                .set_read_timeout(Some((wake_at - now).max(MIN_READ_TIMEOUT)))
                .map_err(|e| format!("read timeout: {e}"))?;
            let got = self.stream.read(&mut self.chunk);
            self.reads.push((now, Instant::now()));
            match got {
                // A clean close lands on a message boundary; anything
                // else was cut mid-message.
                Ok(0) if self.buf.is_empty() => return Ok(Incoming::Eof),
                Ok(0) => return Err("stream ended mid-message".into()),
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// The next thing that happens on the connection, or `Wake` once
    /// `wake_at` passes. Frames are decoded, checked and traced here.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations; a frame that merely
    /// fails a check is counted in [`Session::bad_frames`] instead.
    pub fn next_event(&mut self, wake_at: Instant, tracer: &mut Tracer) -> Result<Event, String> {
        let msg = match self.next_message(wake_at)? {
            Incoming::Wake => return Ok(Event::Wake),
            Incoming::Eof => return Ok(Event::Closed),
            Incoming::Message(msg) => msg,
        };
        match msg {
            Message::Frame { header, payload } => {
                let decoded = self.decoder.decode(&payload);
                let at = Instant::now();
                self.frames += 1;
                let mut ok = matches!(&decoded, Ok(rgba) if rgba.len() == self.frame_bytes);
                ok &= self.last_seq.is_none_or(|last| header.seq > last);
                self.last_seq = Some(header.seq);
                let mut mtp = None;
                if header.tagged() {
                    // The tag must echo an input this session sent.
                    let stamp = header.client_ts_ns;
                    if self.stamps.get(header.input_id as usize) == Some(&stamp) {
                        mtp = Some(
                            at.saturating_duration_since(self.epoch + Duration::from_nanos(stamp)),
                        );
                    } else {
                        ok = false;
                    }
                }
                if !ok {
                    self.bad_frames += 1;
                }
                if self.trace_frames && tracer.enabled() {
                    let id = TraceId::Frame {
                        session: self.number,
                        seq: header.seq,
                    };
                    let frame = tracer.push("client.frame", self.frame_started, at, self.root, id);
                    for &(from, to) in &self.reads {
                        tracer.push("client.read_wait", from, to, frame, id);
                    }
                    tracer.push("client.wire_parse", self.parsed.0, self.parsed.1, frame, id);
                    tracer.push("client.decode", self.parsed.1, at, frame, id);
                    if let Some(mtp) = mtp {
                        tracer.push("client.mtp", at - mtp, at, None, id);
                    }
                }
                self.reads.clear();
                self.frame_started = at;
                Ok(Event::Frame(FrameEvent {
                    at,
                    mtp_ms: mtp.map(|d| d.as_secs_f64() * 1e3),
                }))
            }
            Message::Report(report) => Ok(Event::Report(report)),
            Message::Bye => Ok(Event::Closed),
            other => Err(format!("unexpected message mid-session: {other:?}")),
        }
    }

    /// Sends BYE and reads until the server has said goodbye: any frames
    /// still in flight, then REPORT, BYE and end of stream.
    ///
    /// # Errors
    ///
    /// As [`Session::next_event`], plus a timeout when the farewell does
    /// not finish within [`OP_TIMEOUT`].
    pub fn close(mut self, inputs_by_thread: u64, tracer: &mut Tracer) -> Result<Closed, String> {
        self.inputs += inputs_by_thread;
        let displayed = self.frames;
        self.send_bye()?;
        let bye_at = Instant::now();
        let deadline = bye_at + OP_TIMEOUT;
        let mut report = None;
        loop {
            match self.next_event(deadline, tracer)? {
                Event::Frame(_) => {}
                Event::Report(r) => report = Some(r),
                Event::Closed => break,
                Event::Wake => return Err("no farewell before the timeout".into()),
            }
        }
        // The server closes the socket right after its BYE; wait for the
        // end of stream so teardown covers the whole server side.
        match self.next_message(deadline)? {
            Incoming::Eof => {}
            Incoming::Message(other) => return Err(format!("message after BYE: {other:?}")),
            Incoming::Wake => return Err("no end of stream before the timeout".into()),
        }
        let closed_at = Instant::now();
        let _ = self.stream.shutdown(Shutdown::Both);
        let id = TraceId::Session(self.number);
        tracer.push("session.drain", bye_at, closed_at, self.root, id);
        tracer.close(self.root, closed_at);
        Ok(Closed {
            displayed,
            received: self.frames,
            inputs: self.inputs,
            bad_frames: self.bad_frames,
            teardown_ms: (closed_at - bye_at).as_secs_f64() * 1e3,
            report,
        })
    }
}

fn stamp_ns(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// The open-loop input schedule of connection `conn`: Poisson arrivals at
/// `rate_hz` from `from` until `until`, a function of the seed alone — the
/// server's pace never moves an input.
#[must_use]
pub fn input_schedule(seed: u64, conn: u32, rate_hz: f64, span: Duration) -> Vec<Duration> {
    let mut rng = Rng::new(seed).fork(u64::from(conn));
    let mut at = Duration::ZERO;
    let mut due = Vec::new();
    loop {
        at += Duration::from_secs_f64(rng.exponential(rate_hz));
        if at >= span {
            return due;
        }
        due.push(at);
    }
}

/// What the input thread did.
#[derive(Clone, Debug, Default)]
pub struct InputsWritten {
    /// Inputs written.
    pub sent: u64,
    /// When each was due and how late it was written, in milliseconds.
    pub lateness_ms: Vec<(Instant, f64)>,
    /// CPU seconds the thread used.
    pub cpu_secs: f64,
}

/// Body of the input thread: sleeps until each input is due, writes it
/// stamped with its due time, and records how late it woke. Stops early
/// when `stop` is set or the socket dies.
pub fn write_inputs(
    mut stream: TcpStream,
    epoch: Instant,
    due: &[Instant],
    stop: &AtomicBool,
) -> InputsWritten {
    let cpu0 = crate::procstat::thread_cpu_secs();
    let mut out = InputsWritten::default();
    for (id, &at) in due.iter().enumerate() {
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let woke = Instant::now();
        let event = InputEvent {
            id: id as u64,
            client_ts_ns: stamp_ns(epoch, at),
        };
        if wire::write_message(&mut stream, &Message::Input(event)).is_err() {
            break;
        }
        out.sent += 1;
        out.lateness_ms
            .push((at, woke.saturating_duration_since(at).as_secs_f64() * 1e3));
    }
    if let (Some(a), Some(b)) = (cpu0, crate::procstat::thread_cpu_secs()) {
        out.cpu_secs = b - a;
    }
    out
}

/// A session that ended cleanly.
#[derive(Clone, Copy, Debug)]
pub struct Closed {
    /// Frames displayed before BYE was sent.
    pub displayed: u64,
    /// Frames received in all, those drained after BYE included.
    pub received: u64,
    /// Inputs written.
    pub inputs: u64,
    /// Frames that failed a check.
    pub bad_frames: u64,
    /// BYE written to end of stream.
    pub teardown_ms: f64,
    /// The server's accounting, when the REPORT arrived.
    pub report: Option<DepartureReport>,
}

impl Closed {
    /// Operations that failed in this session: bad frames, a missing
    /// REPORT, and a `frames_sent` that disagrees with what arrived.
    #[must_use]
    pub fn failures(&self) -> u64 {
        let accounting = match self.report {
            Some(r) => {
                u64::from(r.frames_sent != self.received) + u64::from(r.inputs != self.inputs)
            }
            None => 1,
        };
        self.bad_frames + accounting
    }
}
