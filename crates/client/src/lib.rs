//! odr-client: the thin replaying client for the `odr-serve` surface.
//!
//! The client holds no pipeline: it speaks the wire protocol
//! ([`odr_serve::wire`]), replays a seeded Poisson input trace stamped
//! with its own monotonic clock, decodes the frames the server pushes,
//! and measures quality where the paper measures it — at the client.
//! FPS is decoded-frames over wall time; MtP is `now − stamp` for every
//! frame carrying an input tag, entirely on the client's clock (the
//! stamp made the round trip inside the frame header, so no clock
//! synchronisation is needed). The result is the runtime's own
//! [`RuntimeReport`], so a real session diffs directly against the
//! simulator's prediction for the same scenario and regulation.

use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use odr_codec::Decoder;
use odr_core::{OdrError, OdrResult};
use odr_metrics::Summary;
use odr_obs::{MonoClock, ObsReport};
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
    /// Client-side measurements in the runtime's report shape.
    pub report: RuntimeReport,
    /// The server's final accounting, if the farewell REPORT arrived.
    pub departure: Option<DepartureReport>,
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
            let gap = Duration::from_secs_f64(rng.exponential(rate_hz).min(3600.0));
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

/// Connects, negotiates a session, replays inputs, and measures the
/// stream until the server's farewell.
///
/// # Errors
///
/// [`OdrError::Io`] for transport failures, [`OdrError::Protocol`] for
/// malformed or unexpected messages, [`OdrError::Admission`] when the
/// server rejects the session (the server's reason is preserved).
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
    let input: JoinHandle<u64> = {
        let deadline = start + cfg.duration;
        let rate = cfg.input_rate_hz;
        let seed = cfg.seed;
        thread::spawn(move || input_loop(input_stream, deadline, rate, seed, clock))
    };

    let mut decoder = Decoder::new(cfg.session.width, cfg.session.height);
    let mut displayed = 0u64;
    let mut priority_seen = 0u64;
    let mut bytes = 0u64;
    let mut mtp_ms = Summary::new();
    let mut display_intervals_ms = Summary::new();
    let mut last_display: Option<Instant> = None;
    let mut departure: Option<DepartureReport> = None;
    loop {
        match read_message(&mut stream)? {
            Some(Message::Frame { header, payload }) => {
                decoder
                    .decode_in_place(&payload)
                    .map_err(|e| OdrError::protocol(format!("frame {}: {e}", header.seq)))?;
                displayed += 1;
                bytes += payload.len() as u64;
                if header.priority() {
                    priority_seen += 1;
                }
                if header.tagged() {
                    let rtt_ns = clock.now_ns().saturating_sub(header.client_ts_ns);
                    mtp_ms.record(rtt_ns as f64 / 1e6);
                }
                let now = Instant::now();
                if let Some(prev) = last_display {
                    display_intervals_ms.record((now - prev).as_secs_f64() * 1e3);
                }
                last_display = Some(now);
            }
            Some(Message::Report(report)) => departure = Some(report),
            Some(Message::Bye) | None => break,
            Some(other) => {
                return Err(OdrError::protocol(format!(
                    "unexpected message mid-session: {other:?}"
                )))
            }
        }
    }
    let elapsed = start.elapsed();
    let inputs = input.join().unwrap_or(0);
    let _ = stream.shutdown(Shutdown::Both);

    let report = RuntimeReport {
        elapsed_secs: elapsed.as_secs_f64(),
        frames_rendered: departure.map_or(displayed, |d| d.frames_rendered),
        frames_encoded: departure.map_or(displayed, |d| d.frames_encoded),
        frames_displayed: displayed,
        frames_dropped: departure.map_or(0, |d| d.frames_dropped),
        priority_frames: departure.map_or(priority_seen, |d| d.priority_frames),
        inputs,
        mtp_ms,
        display_intervals_ms,
        bytes_sent: bytes,
        // The PSNR source never crosses the wire; fidelity is the
        // simulator's concern, not the transport's.
        mean_psnr_db: f64::INFINITY,
        obs: ObsReport::disabled(),
    };
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
    let mut text = String::new();
    text.push_str(&format!(
        "session {} of {} resident, predicted fps {:.1} / MtP {:.1} ms (slowdown {:.2})\n",
        out.accept.session,
        out.accept.residents,
        out.accept.predicted_fps,
        out.accept.predicted_mtp_ms,
        out.accept.slowdown
    ));
    text.push_str(&format!("client FPS          {:>10.1}\n", r.client_fps()));
    text.push_str(&format!("render FPS          {:>10.1}\n", r.render_fps()));
    text.push_str(&format!(
        "MtP mean/p99 (ms)   {:>6.1} / {:.1}\n",
        r.mtp_mean_ms(),
        mtp_p99
    ));
    text.push_str(&format!("pacing CV           {:>10.3}\n", r.pacing_cv()));
    text.push_str(&format!("bitrate             {:>6.2} Mb/s\n", r.bitrate_mbps()));
    text.push_str(&format!(
        "frames shown/dropped  {} / {}\n",
        r.frames_displayed, r.frames_dropped
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
