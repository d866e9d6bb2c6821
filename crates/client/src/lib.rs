//! odr-client: the thin replaying client for the `odr-serve` surface.
//!
//! The client holds no pipeline: it speaks the wire protocol
//! ([`odr_serve::wire`]), replays a seeded Poisson input trace stamped
//! with its own monotonic clock, decodes the frames the server pushes,
//! and measures quality where the paper measures it — at the client.
//! FPS is decoded-frames over wall time; MtP is `now − stamp` for every
//! frame carrying an input tag, entirely on the client's clock (the
//! stamp made the round trip inside the frame header, so no clock
//! synchronisation is needed). The result is a [`RuntimeReport`] of what
//! the client itself measured, next to the server's farewell accounting
//! when it arrived, so a real session diffs directly against the
//! simulator's prediction for the same scenario and regulation.
//!
//! Together with `odr-serve` this *is* the real-time pipeline:
//! `Server::bind("127.0.0.1:0", …)` plus [`run_client`] runs every stage
//! of the paper's Figure 2 on real threads over a real socket.

// `disallowed_types` stays denied: an input trace replays from its seed.
#![allow(clippy::disallowed_methods, reason = "it paces inputs in real time")]

use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use odr_codec::Decoder;
use odr_core::workers::{self, Job};
use odr_core::{OdrError, OdrResult};
use odr_obs::MonoClock;
use odr_runtime::RuntimeReport;
use odr_serve::wire::{
    read_message, write_message, AcceptInfo, DepartureReport, InputEvent, Message, SessionConfig,
    VERSION,
};

/// Any silence on the downlink longer than this means the server died;
/// the client gives up rather than hanging.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One client run: where to connect, what session to request, and the
/// shape of the replayed input trace.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Server address, e.g. `"127.0.0.1:7401"`.
    pub connect: String,
    /// Session parameters sent in CONFIG.
    pub session: SessionConfig,
    /// How long to stay connected before sending BYE.
    pub duration: Duration,
    /// Mean input rate of the replayed Poisson trace (0 = no inputs).
    pub input_rate_hz: f64,
    /// Trace seed; equal seeds replay identical traces.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect: String::from("127.0.0.1:7401"),
            session: SessionConfig::default(),
            duration: Duration::from_secs(5),
            input_rate_hz: 2.0,
            seed: 1,
        }
    }
}

/// Everything one client session produced.
#[derive(Clone, Debug)]
pub struct ClientOutcome {
    /// The server's admission verdict (fixed-point prediction included).
    pub accept: AcceptInfo,
    /// What the client measured.
    pub report: RuntimeReport,
    /// The server's final accounting, if the farewell REPORT arrived.
    /// Everything only the server can count comes from here and nowhere
    /// else: a lost farewell reads as "unknown", never as a guess.
    pub departure: Option<DepartureReport>,
}

impl ClientOutcome {
    /// Cloud rendering rate in frames per second, over the client's
    /// elapsed time; `None` without the server's farewell.
    #[must_use]
    pub fn render_fps(&self) -> Option<f64> {
        self.departure
            .map(|d| d.frames_rendered as f64 / self.report.elapsed_secs.max(1e-9))
    }

    /// The FPS gap: rendering rate minus client rate, clamped at zero;
    /// `None` without the server's farewell.
    #[must_use]
    pub fn fps_gap(&self) -> Option<f64> {
        self.render_fps()
            .map(|render| (render - self.report.client_fps()).max(0.0))
    }
}

/// Replays the input trace: seeded Poisson gaps, each INPUT stamped with
/// the client's monotonic clock, then BYE at the deadline. Returns the
/// number of inputs sent.
fn input_loop(
    mut stream: TcpStream,
    deadline: Instant,
    rate_hz: f64,
    seed: u64,
    clock: MonoClock,
) -> u64 {
    let mut rng = odr_simtime::Rng::new(seed);
    let mut sent = 0u64;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let remaining = deadline - now;
        if rate_hz > 0.0 {
            let gap = odr_simtime::time::secs_f64(rng.exponential(rate_hz).min(3600.0));
            thread::sleep(gap.min(remaining));
            if Instant::now() >= deadline {
                break;
            }
            let event = InputEvent {
                id: sent,
                client_ts_ns: clock.now_ns(),
            };
            if write_message(&mut stream, &Message::Input(event)).is_err() {
                break;
            }
            sent += 1;
        } else {
            // No inputs requested: just wait out the session in chunks
            // so a dead connection is noticed eventually.
            thread::sleep(remaining.min(Duration::from_millis(100)));
        }
    }
    let _ = write_message(&mut stream, &Message::Bye);
    let _ = stream.flush();
    sent
}

/// Decodes and measures the downlink until the server's farewell. The
/// caller fills in what this loop cannot see (`elapsed_secs`, `inputs`).
fn measure(
    stream: &mut TcpStream,
    session: &SessionConfig,
    clock: MonoClock,
) -> OdrResult<(RuntimeReport, Option<DepartureReport>)> {
    let mut decoder = Decoder::new(session.width, session.height);
    let mut report = RuntimeReport::default();
    let mut last_display: Option<Instant> = None;
    let mut departure: Option<DepartureReport> = None;
    loop {
        match read_message(stream)? {
            Some(Message::Frame { header, payload }) => {
                decoder
                    .decode(&payload)
                    .map_err(|e| OdrError::protocol(format!("frame {}: {e}", header.seq)))?;
                report.frames_displayed += 1;
                report.bytes_sent += payload.len() as u64;
                if header.priority() {
                    report.priority_frames += 1;
                }
                if header.tagged() {
                    let rtt_ns = clock.now_ns().saturating_sub(header.client_ts_ns);
                    report.mtp_ms.record(rtt_ns as f64 / 1e6);
                }
                let now = Instant::now();
                if let Some(prev) = last_display {
                    report
                        .display_intervals_ms
                        .record((now - prev).as_secs_f64() * 1e3);
                }
                last_display = Some(now);
            }
            Some(Message::Report(farewell)) => departure = Some(farewell),
            Some(Message::Bye) | None => return Ok((report, departure)),
            Some(other) => {
                return Err(OdrError::protocol(format!(
                    "unexpected message mid-session: {other:?}"
                )))
            }
        }
    }
}

/// Connects, negotiates a session, replays inputs, and measures the
/// stream until the server's farewell.
///
/// # Errors
///
/// [`OdrError::Io`] for transport failures, [`OdrError::Protocol`] for
/// malformed or unexpected messages, [`OdrError::Admission`] when the
/// server rejects the session (the server's reason is preserved).
/// Whichever it is, the connection is closed before this returns: the
/// server sees EOF at once and stops rendering for a client that gave up.
pub fn run_client(cfg: &ClientConfig) -> OdrResult<ClientOutcome> {
    let mut stream =
        TcpStream::connect(&cfg.connect).map_err(|e| OdrError::io(cfg.connect.clone(), e))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| OdrError::io("socket", e))?;

    // --- Handshake ----------------------------------------------------
    write_message(&mut stream, &Message::Hello { version: VERSION })?;
    write_message(&mut stream, &Message::Config(cfg.session))?;
    let accept = match read_message(&mut stream)? {
        Some(Message::Accept(info)) => info,
        Some(Message::Reject { reason }) => return Err(OdrError::admission(reason)),
        Some(other) => {
            return Err(OdrError::protocol(format!(
                "expected ACCEPT or REJECT, got {other:?}"
            )))
        }
        None => return Err(OdrError::protocol("connection closed during handshake")),
    };

    // --- Replay + measure ---------------------------------------------
    let clock = MonoClock::start();
    let start = Instant::now();
    let input_stream = stream.try_clone().map_err(|e| OdrError::io("socket", e))?;
    let input: Job<u64> = {
        let deadline = start + cfg.duration;
        let rate = cfg.input_rate_hz;
        let seed = cfg.seed;
        workers::spawn(move || input_loop(input_stream, deadline, rate, seed, clock))
    };
    let measured = measure(&mut stream, &cfg.session, clock);
    let elapsed = start.elapsed();
    // However the stream ended, the session is over. The input thread
    // writes to a clone of this socket, so a plain drop would leave the
    // connection up; closing both directions shows the server EOF now
    // and fails that thread's next write, which ends it.
    let _ = stream.shutdown(Shutdown::Both);
    let (mut report, departure) = measured?;
    report.elapsed_secs = elapsed.as_secs_f64();
    report.inputs = input.join().unwrap_or(0);
    Ok(ClientOutcome {
        accept,
        report,
        departure,
    })
}

/// Renders a client outcome in the simulator's report style for
/// side-by-side diffing.
#[must_use]
pub fn outcome_to_text(out: &ClientOutcome) -> String {
    let r = &out.report;
    let mut mtp = r.mtp_ms.clone();
    let mtp_p99 = mtp.percentile(99.0);
    let or_na = |known: Option<String>| known.unwrap_or_else(|| String::from("n/a"));
    let mut text = String::new();
    text.push_str(&format!(
        "session #{}, {} resident, predicted fps {:.1} / MtP {:.1} ms (slowdown {:.2})\n",
        out.accept.session,
        out.accept.residents,
        out.accept.predicted_fps,
        out.accept.predicted_mtp_ms,
        out.accept.slowdown
    ));
    text.push_str(&format!("client FPS          {:>10.1}\n", r.client_fps()));
    text.push_str(&format!(
        "render FPS          {:>10}\n",
        or_na(out.render_fps().map(|fps| format!("{fps:.1}")))
    ));
    text.push_str(&format!(
        "MtP mean/p99 (ms)   {:>6.1} / {:.1}\n",
        r.mtp_mean_ms(),
        mtp_p99
    ));
    text.push_str(&format!("pacing CV           {:>10.3}\n", r.pacing_cv()));
    text.push_str(&format!(
        "bitrate             {:>6.2} Mb/s\n",
        r.bitrate_mbps()
    ));
    text.push_str(&format!(
        "frames shown/dropped  {} / {}\n",
        r.frames_displayed,
        or_na(out.departure.map(|d| d.frames_dropped.to_string()))
    ));
    text.push_str(&format!("priority frames     {:>10}\n", r.priority_frames));
    text.push_str(&format!("inputs sent         {:>10}\n", r.inputs));
    if let Some(d) = out.departure {
        text.push_str(&format!(
            "server: rendered {} encoded {} sent {} dropped {} in {} ms\n",
            d.frames_rendered, d.frames_encoded, d.frames_sent, d.frames_dropped, d.elapsed_ms
        ));
    }
    text
}
