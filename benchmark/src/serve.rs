//! The three serving workloads: `serve_paced`, `serve_saturated`,
//! `serve_churn`.
//!
//! Server and generator share the process: the server is
//! `odr_serve::Server::bind("127.0.0.1:0", …)`, stopped with
//! `ServerHandle::shutdown()` (never `join()`, which waits on departures
//! only and so hangs on a refused session). Traffic crosses the host
//! loopback. Two connections — fixed at two so numbers compare across
//! hosts — each with a reader thread and, for open-loop inputs, a
//! sleeping input thread.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use odr_pipeline::colocation::ServerCapacity;
use odr_runtime::Regulation;
use odr_serve::wire::{DepartureReport, SessionConfig};
use odr_serve::{ServeConfig, ServeReport, Server, ServerHandle};

use crate::gen::{input_schedule, write_inputs, Event, Session, OP_TIMEOUT};
use crate::procstat;
use crate::stats;
use crate::trace::{TraceId, Tracer};
use crate::Outcome;

/// Connections (and generator threads). The sizing host has two cores.
pub const CONNECTIONS: u32 = 2;

/// The first seconds of every measured session are warm-up: caches fill,
/// the codec sends its intra frame, the regulator's balance settles.
pub const WARMUP: Duration = Duration::from_secs(2);

/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPS: u32 = 9;

/// Mean rate of each session's open-loop Poisson input schedule.
const INPUT_RATE_HZ: f64 = 10.0;

/// Frames a churn session displays before it says BYE: 67 ms of
/// streaming at [`CHURN_FPS`], so that the lifecycle around it (about
/// 10 ms here) is a visible share of every cycle.
const CHURN_FRAMES: u64 = 20;

/// Pace of a churn session. The issue asked for `Regulation::NoReg`;
/// unpaced sessions deadlock the server about once in 1500 teardowns
/// (see README, "Found while building this"), which no benchmark run may
/// do. Interval pacing keeps what NoReg was chosen for — Mul-Buf1 is
/// `SyncQueue::new_overwriting`, the lock-free engine — while leaving the
/// pipeline idle between frames, where the deadlock cannot form.
const CHURN_FPS: f64 = 300.0;

/// Longest the server may take to drain at shutdown before the run gives
/// up on it and counts a failure.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(15);

/// The displayed frame after which a churn session sends its one input.
const CHURN_INPUT_AT: u64 = 10;

/// A serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `serve_paced`
    Paced,
    /// `serve_saturated`
    Saturated,
    /// `serve_churn`
    Churn,
}

impl Kind {
    /// The serving workload called `name`, if there is one.
    #[must_use]
    pub fn named(name: &str) -> Option<Kind> {
        match name {
            "serve_paced" => Some(Kind::Paced),
            "serve_saturated" => Some(Kind::Saturated),
            "serve_churn" => Some(Kind::Churn),
            _ => None,
        }
    }

    /// What each of the two sessions asks the server for.
    #[must_use]
    pub fn session(self) -> SessionConfig {
        let (width, height, regulation) = match self {
            Kind::Paced => (
                320,
                180,
                Regulation::Odr {
                    target_fps: Some(60.0),
                },
            ),
            Kind::Saturated => (1280, 720, Regulation::Odr { target_fps: None }),
            Kind::Churn => (320, 180, Regulation::Interval { fps: CHURN_FPS }),
        };
        SessionConfig {
            width,
            height,
            regulation,
            quant_bits: 2,
            base_objects: 12,
            object_swing: 12,
        }
    }
}

/// Segments the measured window is cut into. Rates are taken per
/// segment and the median reported, so a burst of interference from the
/// host costs one segment, not the run. At the default 21 s a segment is
/// 7 s, one period of the scene's complexity swing, so every segment
/// renders the same mix of frames. The traced run records per-frame spans
/// in the middle segment only: traced over the two untraced segments
/// around it, within one run, is `trace.overhead_ratio`.
pub const SEGMENTS: usize = 3;

/// The measured part of a run.
#[derive(Clone, Debug)]
pub struct Window {
    /// Start of the first segment (end of warm-up).
    pub start: Instant,
    /// Length of each segment.
    pub segment: Duration,
    /// Whether the middle segment records per-frame spans.
    pub trace: bool,
}

impl Window {
    /// A window of `seconds` starting at `start`.
    #[must_use]
    pub fn new(start: Instant, seconds: f64, trace: bool) -> Window {
        Window {
            start,
            segment: Duration::from_secs_f64(seconds / SEGMENTS as f64),
            trace,
        }
    }

    /// Where segment `k` starts; `boundary(SEGMENTS)` is the end.
    #[must_use]
    pub fn boundary(&self, k: usize) -> Instant {
        self.start + self.segment * k as u32
    }

    /// When measuring stops.
    #[must_use]
    pub fn end(&self) -> Instant {
        self.boundary(SEGMENTS)
    }

    /// The segment `at` falls in, `None` during warm-up and after the end.
    #[must_use]
    pub fn index(&self, at: Instant) -> Option<usize> {
        let offset = at.checked_duration_since(self.start)?;
        let i = (offset.as_nanos() / self.segment.as_nanos().max(1)) as usize;
        (i < SEGMENTS).then_some(i)
    }

    /// Whether per-frame spans are recorded at `at`.
    #[must_use]
    pub fn traced(&self, at: Instant) -> bool {
        self.trace && self.index(at).is_some_and(traced_segment)
    }
}

/// Whether segment `i` of a traced run records spans.
#[must_use]
pub fn traced_segment(i: usize) -> bool {
    i == SEGMENTS / 2
}

/// A CPU clock sampled the first time each segment boundary is passed.
struct CpuMarks {
    read: fn() -> Option<f64>,
    marks: Vec<Option<f64>>,
}

impl CpuMarks {
    fn new(read: fn() -> Option<f64>) -> CpuMarks {
        CpuMarks {
            read,
            marks: Vec::with_capacity(SEGMENTS + 1),
        }
    }

    fn sample(&mut self, window: &Window, now: Instant) {
        while self.marks.len() <= SEGMENTS && now >= window.boundary(self.marks.len()) {
            self.marks.push((self.read)());
        }
    }

    /// CPU seconds used inside each segment (zero where a mark is
    /// missing: the thread ended early).
    fn per_segment(&self) -> Vec<f64> {
        (0..SEGMENTS)
            .map(|i| match (self.marks.get(i), self.marks.get(i + 1)) {
                (Some(Some(a)), Some(Some(b))) => b - a,
                _ => 0.0,
            })
            .collect()
    }
}

/// What one segment of the window saw.
#[derive(Clone, Debug, Default)]
pub struct Acc {
    /// Frames displayed.
    pub frames: u64,
    /// Motion-to-photon samples.
    pub mtp_ms: Vec<f64>,
    /// Gaps between consecutive displayed frames of one session.
    pub intervals_ms: Vec<f64>,
    /// How late each input was written, against when it was due.
    pub lateness_ms: Vec<f64>,
    /// `connect()` to first frame decoded, per session started.
    pub setup_ms: Vec<f64>,
    /// BYE written to end of stream, per session ended.
    pub teardown_ms: Vec<f64>,
    /// Sessions that ran from connect to end of stream.
    pub cycles: u64,
    /// CPU seconds the generator's own threads used.
    pub gen_cpu_secs: f64,
}

impl Acc {
    fn absorb(&mut self, other: Acc) {
        self.frames += other.frames;
        self.mtp_ms.extend(other.mtp_ms);
        self.intervals_ms.extend(other.intervals_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.setup_ms.extend(other.setup_ms);
        self.teardown_ms.extend(other.teardown_ms);
        self.cycles += other.cycles;
        self.gen_cpu_secs += other.gen_cpu_secs;
    }
}

/// Everything one generator thread brings back.
pub struct ThreadOutcome {
    accs: Vec<Acc>,
    /// When each session it opened displayed its first frame.
    first_frames: Vec<Instant>,
    sessions_attempted: u64,
    sessions_failed: u64,
    frames_received: u64,
    frames_displayed: u64,
    inputs: u64,
    /// Failed checks inside sessions that otherwise completed.
    failures: u64,
    reports: Vec<DepartureReport>,
    tracer: Tracer,
    errors: Vec<String>,
}

impl ThreadOutcome {
    fn new(tracer: Tracer) -> ThreadOutcome {
        ThreadOutcome {
            accs: vec![Acc::default(); SEGMENTS],
            first_frames: Vec::new(),
            sessions_attempted: 0,
            sessions_failed: 0,
            frames_received: 0,
            frames_displayed: 0,
            inputs: 0,
            failures: 0,
            reports: Vec::new(),
            tracer,
            errors: Vec::new(),
        }
    }

    fn record_cpu(&mut self, marks: &CpuMarks) {
        for (acc, secs) in self.accs.iter_mut().zip(marks.per_segment()) {
            acc.gen_cpu_secs += secs;
        }
    }

    fn absorb(&mut self, other: ThreadOutcome) {
        for (mine, theirs) in self.accs.iter_mut().zip(other.accs) {
            mine.absorb(theirs);
        }
        self.first_frames.extend(other.first_frames);
        self.sessions_attempted += other.sessions_attempted;
        self.sessions_failed += other.sessions_failed;
        self.frames_received += other.frames_received;
        self.frames_displayed += other.frames_displayed;
        self.inputs += other.inputs;
        self.failures += other.failures;
        self.reports.extend(other.reports);
        self.tracer.absorb(other.tracer);
        self.errors.extend(other.errors);
    }
}

/// What a generator thread needs to know.
#[derive(Clone)]
struct Ctx {
    addr: SocketAddr,
    session: SessionConfig,
    epoch: Instant,
    window: Window,
    seed: u64,
    /// Session number of connection 0's first session; numbers identify
    /// sessions in the trace and are never reused within a run.
    first_session: u32,
    /// Whether spans are kept at all (lifecycle spans always are, in a
    /// traced run; per-frame spans only where the window says so).
    trace: bool,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Reads events until the session's first frame is on screen.
fn first_frame(s: &mut Session, tracer: &mut Tracer) -> Result<Instant, String> {
    match s.next_event(s.accepted_at + OP_TIMEOUT, tracer)? {
        Event::Frame(f) => {
            tracer.push(
                "session.first_frame",
                s.accepted_at,
                f.at,
                s.root,
                TraceId::Session(s.number),
            );
            Ok(f.at)
        }
        Event::Wake => Err("no first frame before the timeout".into()),
        Event::Report(_) | Event::Closed => Err("closed before the first frame".into()),
    }
}

/// One streaming session for the whole window: open-loop Poisson inputs
/// from a sleeping input thread, every frame decoded here, BYE at the end.
fn stream_thread(ctx: &Ctx, conn: u32) -> ThreadOutcome {
    let mut out = ThreadOutcome::new(Tracer::new(false, ctx.epoch));
    out.sessions_attempted = 1;
    let mut tracer = Tracer::new(ctx.trace, ctx.epoch);
    let number = ctx.first_session + conn;
    let result = (|| -> Result<(), String> {
        let mut s = Session::open(ctx.addr, ctx.session, number, ctx.epoch, &mut tracer)?;
        s.trace_frames = false;
        let first = first_frame(&mut s, &mut tracer)?;
        out.first_frames.push(first);
        let end = ctx.window.end();
        let due: Vec<Instant> = input_schedule(
            ctx.seed,
            conn,
            INPUT_RATE_HZ,
            end.saturating_duration_since(first),
        )
        .into_iter()
        .map(|offset| first + offset)
        .collect();
        let input_stream = s.open_loop(&due)?;
        let stop = AtomicBool::new(false);
        let (streamed, written) = thread::scope(|scope| {
            let inputs = scope.spawn(|| write_inputs(input_stream, ctx.epoch, &due, &stop));
            let streamed = (|| -> Result<(), String> {
                let mut last = first;
                let mut cpu = CpuMarks::new(procstat::thread_cpu_secs);
                loop {
                    let now = Instant::now();
                    cpu.sample(&ctx.window, now);
                    if now >= end {
                        break;
                    }
                    s.trace_frames = ctx.window.traced(now);
                    match s.next_event(end, &mut tracer)? {
                        Event::Frame(f) => {
                            if let Some(i) = ctx.window.index(f.at) {
                                let acc = &mut out.accs[i];
                                acc.frames += 1;
                                acc.mtp_ms.extend(f.mtp_ms);
                                if ctx.window.index(last) == Some(i) {
                                    acc.intervals_ms.push(ms(f.at - last));
                                }
                            }
                            last = f.at;
                        }
                        Event::Wake => {}
                        Event::Report(_) | Event::Closed => {
                            return Err("server ended the session early".into())
                        }
                    }
                }
                out.record_cpu(&cpu);
                Ok(())
            })();
            stop.store(true, Ordering::Relaxed);
            (streamed, inputs.join())
        });
        streamed?;
        let written = written.map_err(|_| "input thread panicked".to_string())?;
        // The input thread's CPU is the generator's too: a few hundred
        // short writes, spread evenly over the segments.
        for acc in &mut out.accs {
            acc.gen_cpu_secs += written.cpu_secs / SEGMENTS as f64;
        }
        for (at, late) in written.lateness_ms {
            if let Some(i) = ctx.window.index(at) {
                out.accs[i].lateness_ms.push(late);
            }
        }
        s.trace_frames = false;
        let closed = s.close(written.sent, &mut tracer)?;
        out.frames_received = closed.received;
        out.frames_displayed = closed.displayed;
        out.inputs = closed.inputs;
        out.failures = closed.failures();
        out.reports.extend(closed.report);
        Ok(())
    })();
    if let Err(e) = result {
        out.sessions_failed = 1;
        out.errors.push(format!("connection {conn}: {e}"));
    }
    out.tracer = tracer;
    out
}

/// One churn connection: connect, stream [`CHURN_FRAMES`] frames with one
/// input on the way, BYE, wait for the farewell, reconnect — a closed
/// loop, so a slower server is offered fewer sessions.
fn churn_thread(ctx: &Ctx, conn: u32) -> ThreadOutcome {
    let mut out = ThreadOutcome::new(Tracer::new(false, ctx.epoch));
    let mut tracer = Tracer::new(ctx.trace, ctx.epoch);
    let end = ctx.window.end();
    let mut cpu = CpuMarks::new(procstat::thread_cpu_secs);
    let mut cycle = 0u32;
    loop {
        let now = Instant::now();
        cpu.sample(&ctx.window, now);
        if now >= end {
            break;
        }
        out.sessions_attempted += 1;
        let number = ctx.first_session + conn + CONNECTIONS * cycle;
        cycle += 1;
        let result = (|| -> Result<(), String> {
            let mut s = Session::open(ctx.addr, ctx.session, number, ctx.epoch, &mut tracer)?;
            s.trace_frames = ctx.window.traced(now);
            let first = first_frame(&mut s, &mut tracer)?;
            let mut frames = vec![first];
            let mut mtp = None;
            let mut late = None;
            while (frames.len() as u64) < CHURN_FRAMES {
                if frames.len() as u64 == CHURN_INPUT_AT {
                    // Due when the frame that prompts it came on screen.
                    let due = frames[frames.len() - 1];
                    late = Some(ms(due.elapsed()));
                    s.send_input(due)?;
                }
                match s.next_event(Instant::now() + OP_TIMEOUT, &mut tracer)? {
                    Event::Frame(f) => {
                        frames.push(f.at);
                        mtp = mtp.or(f.mtp_ms);
                    }
                    Event::Wake => return Err("no frame before the timeout".into()),
                    Event::Report(_) | Event::Closed => {
                        return Err("server ended the session early".into())
                    }
                }
            }
            let opened_at = s.opened_at;
            let closed = s.close(0, &mut tracer)?;
            out.first_frames.push(first);
            for pair in frames.windows(2) {
                if let Some(i) = ctx.window.index(pair[1]) {
                    out.accs[i].intervals_ms.push(ms(pair[1] - pair[0]));
                }
            }
            for at in frames {
                if let Some(i) = ctx.window.index(at) {
                    out.accs[i].frames += 1;
                }
            }
            if let Some(i) = ctx.window.index(first) {
                out.accs[i].setup_ms.push(ms(first - opened_at));
            }
            if let Some(i) = ctx.window.index(Instant::now()) {
                let acc = &mut out.accs[i];
                acc.mtp_ms.extend(mtp);
                acc.lateness_ms.extend(late);
                acc.teardown_ms.push(closed.teardown_ms);
                acc.cycles += 1;
            }
            out.frames_received += closed.received;
            out.frames_displayed += closed.displayed;
            out.inputs += closed.inputs;
            out.failures += closed.failures();
            out.reports.extend(closed.report);
            Ok(())
        })();
        if let Err(e) = result {
            out.sessions_failed += 1;
            out.errors.push(format!("session {number}: {e}"));
            // A server that refuses or drops every session would otherwise
            // be hammered in a tight loop until the window ends.
            thread::sleep(Duration::from_millis(50));
        }
    }
    out.record_cpu(&cpu);
    out.tracer = tracer;
    out
}

/// Binds a server wide enough that the two fixed sessions are always
/// admitted (with the default ceiling a second NoReg or ODRMax session
/// is refused for CPU load), leaving the admission check itself in play.
fn bind() -> Result<ServerHandle, String> {
    let cfg = ServeConfig {
        max_sessions: 8,
        capacity: ServerCapacity {
            gpu: 64.0,
            cpu_threads: 256.0,
            ..ServerCapacity::default()
        },
        ..ServeConfig::default()
    };
    Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))
}

/// `ServerHandle::shutdown()` with a deadline: a session that never
/// drains must cost the run a failure, not hang it. On timeout the
/// draining thread is left behind; the process exits soon after.
fn shutdown(server: ServerHandle) -> Result<ServeReport, String> {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(server.shutdown());
    });
    match rx.recv_timeout(SHUTDOWN_TIMEOUT) {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(format!("shutdown: {e}")),
        Err(_) => Err(format!("server did not drain within {SHUTDOWN_TIMEOUT:?}")),
    }
}

/// One generator thread per connection, joined; panics become failures.
fn drive(ctx: &Ctx, body: fn(&Ctx, u32) -> ThreadOutcome) -> ThreadOutcome {
    let mut all = ThreadOutcome::new(Tracer::new(ctx.trace, ctx.epoch));
    thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| scope.spawn(move || body(ctx, conn)))
            .collect();
        for (conn, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(outcome) => all.absorb(outcome),
                Err(_) => {
                    all.sessions_attempted += 1;
                    all.sessions_failed += 1;
                    all.errors.push(format!("generator thread {conn} panicked"));
                }
            }
        }
    });
    all
}

/// Server-side accounting that must agree with what the generator saw.
fn server_failures(report: &ServeReport, gen: &ThreadOutcome) -> u64 {
    let sessions_ok = gen.sessions_attempted - gen.sessions_failed;
    report.rejected
        + u64::from(report.admitted != gen.sessions_attempted)
        + u64::from(report.departures.len() as u64 != report.admitted)
        + u64::from(gen.reports.len() as u64 != sessions_ok)
}

/// One set-up: bind, both sessions connect, shake hands, are admitted and
/// display a first frame; then everything is torn down again. Returns the
/// seconds from before `bind` to the later of the two first frames.
fn setup_once(
    kind: Kind,
    rep: u32,
    epoch: Instant,
    trace: bool,
) -> Result<(f64, ThreadOutcome), String> {
    let started = Instant::now();
    let server = bind()?;
    let ctx = Ctx {
        addr: server.addr(),
        session: kind.session(),
        epoch,
        // An empty window: the streaming thread opens, shows its first
        // frame, and closes.
        window: Window::new(started, 0.0, false),
        seed: 0,
        first_session: rep * CONNECTIONS,
        trace,
    };
    let mut gen = drive(&ctx, stream_thread);
    let report = shutdown(server)?;
    gen.failures += server_failures(&report, &gen);
    match gen.first_frames.iter().max() {
        Some(&shown) if gen.first_frames.len() == CONNECTIONS as usize => {
            Ok(((shown - started).as_secs_f64(), gen))
        }
        _ => Err(format!("set-up failed: {}", gen.errors.join("; "))),
    }
}

/// The measured run: what the generator saw, the process's CPU seconds per
/// segment, and how many sessions the server turned away.
struct Measured {
    gen: ThreadOutcome,
    process_cpu: Vec<f64>,
    rejected: u64,
}

/// Binds a server, drives the workload through warm-up and the window,
/// and shuts the server down again.
fn measure(kind: Kind, seed: u64, window: &Window, epoch: Instant) -> Result<Measured, String> {
    let server = bind()?;
    let ctx = Ctx {
        addr: server.addr(),
        session: kind.session(),
        epoch,
        window: window.clone(),
        seed,
        first_session: SETUP_REPS * CONNECTIONS,
        trace: window.trace,
    };
    let body = if kind == Kind::Churn {
        churn_thread
    } else {
        stream_thread
    };
    let (mut gen, process_cpu) = thread::scope(|scope| {
        let gen = scope.spawn(|| drive(&ctx, body));
        // The main thread reads the process's CPU clock at every segment
        // boundary; it sleeps in between and costs nothing.
        let mut cpu = CpuMarks::new(procstat::process_cpu_secs);
        for k in 0..=SEGMENTS {
            thread::sleep(window.boundary(k).saturating_duration_since(Instant::now()));
            cpu.sample(window, Instant::now());
        }
        let gen = gen.join().expect("drive() catches generator panics");
        (gen, cpu.per_segment())
    });
    let mut rejected = 0;
    match shutdown(server) {
        Ok(report) => {
            gen.failures += server_failures(&report, &gen);
            rejected = report.rejected;
        }
        Err(e) => {
            gen.failures += 1;
            gen.errors.push(e);
        }
    }
    Ok(Measured {
        gen,
        process_cpu,
        rejected,
    })
}

/// Runs a serving workload for `seconds` (after warm-up) and reports it.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool, epoch: Instant) -> Outcome {
    let mut outcome = Outcome::new(false, epoch);
    let mut all = ThreadOutcome::new(Tracer::new(trace, epoch));

    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        match setup_once(kind, rep, epoch, trace) {
            Ok((secs, gen)) => {
                setups.push(secs);
                // An empty window: no samples, but the sessions, frames,
                // failures and lifecycle spans all count.
                all.absorb(gen);
            }
            Err(e) => {
                all.sessions_attempted += u64::from(CONNECTIONS);
                all.sessions_failed += u64::from(CONNECTIONS);
                all.errors.push(e);
            }
        }
    }

    let window = Window::new(Instant::now() + WARMUP, seconds, trace);
    let measured = measure(kind, seed, &window, epoch).unwrap_or_else(|e| {
        all.failures += 1;
        all.errors.push(e);
        Measured {
            gen: ThreadOutcome::new(Tracer::new(false, epoch)),
            process_cpu: vec![0.0; SEGMENTS],
            rejected: 0,
        }
    });
    let Measured {
        gen: main,
        process_cpu,
        rejected,
    } = measured;
    let reports = main.reports.clone();
    let displayed = main.frames_displayed;
    all.absorb(main);

    outcome.attempted = all.sessions_attempted + all.frames_received + all.inputs;
    outcome.failed = all.sessions_failed + all.failures;
    outcome.errors = all.errors.clone();

    // Pooled samples for the latency percentiles; per-segment rates.
    let pool = |accs: &[Acc]| {
        let mut pooled = Acc::default();
        for acc in accs {
            pooled.absorb(acc.clone());
        }
        pooled
    };
    let whole = pool(&all.accs);
    let segment_secs = window.segment.as_secs_f64().max(1e-9);
    let frame_rates: Vec<f64> = all
        .accs
        .iter()
        .map(|a| a.frames as f64 / segment_secs)
        .collect();
    let cpu_per_frame: Vec<f64> = all
        .accs
        .iter()
        .zip(&process_cpu)
        .map(|(a, process)| (process - a.gen_cpu_secs) * 1e3 / a.frames as f64)
        .collect();
    let secs = seconds.max(1e-9);
    let rendered: u64 = reports.iter().map(|r| r.frames_rendered).sum();
    let latency = if kind == Kind::Churn {
        &whole.setup_ms
    } else {
        &whole.mtp_ms
    };
    outcome.note(format!(
        "{} latency samples ({}), {} frames in the window, {} sessions, {} set-ups",
        latency.len(),
        if kind == Kind::Churn {
            "connect to first frame"
        } else {
            "input due to frame decoded"
        },
        whole.frames,
        all.sessions_attempted,
        setups.len(),
    ));
    outcome.e2e("latency_p50_ms", stats::median(latency));
    outcome.e2e("frames_per_s", stats::median(&frame_rates));
    outcome.e2e("server_cpu_ms_per_frame", stats::median(&cpu_per_frame));
    outcome.e2e("render_per_display", rendered as f64 / displayed as f64);
    outcome.e2e("peak_rss_mb", procstat::peak_rss_mb().unwrap_or(f64::NAN));
    outcome.e2e("setup_s", stats::median(&setups));

    // The names the issue gave these figures, per workload.
    match kind {
        Kind::Paced | Kind::Saturated => {
            outcome.alias("mtp_p50_ms", "ms", stats::median(&whole.mtp_ms));
            outcome.alias("mtp_p95_ms", "ms", stats::percentile(&whole.mtp_ms, 95.0));
            outcome.alias(
                "client_fps",
                "1/s",
                whole.frames as f64 / secs / f64::from(CONNECTIONS),
            );
            outcome.alias(
                "frame_interval_p95_ms",
                "ms",
                stats::percentile(&whole.intervals_ms, 95.0),
            );
        }
        Kind::Churn => {
            outcome.alias("session_setup_p50_ms", "ms", stats::median(&whole.setup_ms));
            outcome.alias(
                "session_teardown_p50_ms",
                "ms",
                stats::median(&whole.teardown_ms),
            );
            outcome.alias("sessions_per_s", "1/s", whole.cycles as f64 / secs);
        }
    }
    outcome.note(match stats::highest_supported(latency.len()) {
        Some(p) => format!(
            "latency p{p}: {:.6} ms (the highest percentile with {} samples beyond it)",
            stats::percentile(latency, p),
            stats::MIN_BEYOND
        ),
        None => format!(
            "too few latency samples for any tail percentile ({} beyond it)",
            stats::MIN_BEYOND
        ),
    });

    if trace {
        let t = &all.tracer;
        let per_frame = |name: &str| {
            let (total, _) = t.total_ms(name);
            total / t.total_ms("client.frame").1 as f64
        };
        outcome.layer(
            "client.read_wait_ms_per_frame",
            per_frame("client.read_wait"),
        );
        outcome.layer(
            "client.wire_parse_us_per_frame",
            per_frame("client.wire_parse") * 1e3,
        );
        outcome.layer("client.decode_ms_per_frame", per_frame("client.decode"));
        outcome.layer("client.mtp_p50_ms", stats::median(&whole.mtp_ms));
        outcome.layer("client.mtp_p95_ms", stats::percentile(&whole.mtp_ms, 95.0));
        outcome.layer("client.mtp_samples", whole.mtp_ms.len() as f64);
        outcome.layer(
            "client.frame_interval_p95_ms",
            stats::percentile(&whole.intervals_ms, 95.0),
        );
        outcome.layer(
            "gen.input_lateness_p95_ms",
            stats::percentile(&whole.lateness_ms, 95.0),
        );
        for (metric, span) in [
            ("session.connect_ms", "session.connect"),
            ("session.handshake_ms", "session.handshake"),
            ("session.first_frame_ms", "session.first_frame"),
            ("session.drain_ms", "session.drain"),
        ] {
            outcome.layer(metric, stats::median(&t.durations_ms(span)));
        }
        let sum = |f: fn(&DepartureReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
        outcome.layer("serve.rejected", rejected as f64);
        outcome.layer("serve.frames_rendered", sum(|r| r.frames_rendered));
        outcome.layer("serve.frames_encoded", sum(|r| r.frames_encoded));
        outcome.layer("serve.frames_sent", sum(|r| r.frames_sent));
        outcome.layer("serve.frames_dropped", sum(|r| r.frames_dropped));
        outcome.layer("serve.priority_frames", sum(|r| r.priority_frames));
        outcome.layer("serve.bytes_sent", sum(|r| r.bytes_sent));
        // Traced over untraced, within this one run: latency for the
        // open-loop workloads, time per frame for the closed loop.
        let primary = |acc: Acc| match kind {
            Kind::Churn => 1.0 / acc.frames as f64,
            _ => stats::median(&acc.mtp_ms),
        };
        let side = |traced: bool| {
            let segments = all
                .accs
                .iter()
                .enumerate()
                .filter(|&(i, _)| traced_segment(i) == traced);
            primary(pool(
                &segments.map(|(_, acc)| acc.clone()).collect::<Vec<Acc>>(),
            ))
        };
        // The closed loop compares time per frame, and its untraced side
        // is two segments long.
        let ratio = match kind {
            Kind::Churn => side(true) / side(false) / (SEGMENTS - 1) as f64,
            _ => side(true) / side(false),
        };
        outcome.layer("trace.overhead_ratio", ratio);
    }
    outcome.tracer = all.tracer;
    outcome
}
