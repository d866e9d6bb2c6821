//! The discrete-event simulation engine for cloud deployments.
//!
//! One `Sim` instance models the five logical threads of the paper's
//! Figure 2 system — 3D application (+GPU), server proxy (copy + encode),
//! network sender, client decoder, and the input/feedback paths — as state
//! machines driven by one total `(time, seq)` order over an event queue
//! and one timer per stage beside it (DESIGN.md §14.5). All
//! regulation behaviour comes from `odr-core`, down to the app loop
//! ([`odr_core::AppCycle`]) and the proxy's Algorithm 1
//! ([`odr_core::ProxyCycle`]), which the served render and proxy threads
//! step too; the handlers here own only durations, buffers and events:
//!
//! * **NoReg / Int / RVS**: the app publishes into an *overwriting*
//!   Mul-Buf1 (excessive frames are dropped there) and the proxy writes
//!   straight to the downlink socket, blocking only when the socket buffer
//!   fills. Int paces the app on a fixed grid, IntMax on the adaptive
//!   ratchet, RVS on the vblank grid plus the feedback-scaled delay.
//! * **ODR**: Mul-Buf1 and Mul-Buf2 are *blocking* queues; the app only
//!   renders when a back buffer is free, the proxy runs Algorithm 1 around
//!   encoding, and the network sender transmits one frame at a time
//!   (pausing the proxy, and transitively the app, when the wire is the
//!   slowest stage). An input that reaches an app waiting for room flushes
//!   the obsolete frame in Mul-Buf1 at once; its PriorityFrame cancels the
//!   proxy's sleep.

use odr_core::{
    queue::FullPolicy, AppCycle, AppStep, FrameQueue, ProxyCycle, Publish, RegulationSpec,
    SlabEventQueue,
};
use odr_memsim::{MemClient, MemoryModel};
use odr_metrics::{FpsGap, Summary, WindowedRate};
use odr_obs::{names, track, Event as ObsEvent, NullRecorder, ObsReport, Recorder, RingRecorder};
use odr_netsim::Link;
use odr_simtime::{Duration, Rng, SimTime};
use odr_workload::{FrameModel, InputModel, Platform, Scenario};

use crate::{
    config::{ClientDisplay, ExperimentConfig},
    frame::FrameTrace,
    local,
    report::Report,
    scratch::{FrameRef, SessionScratch},
};

/// Runs one experiment to completion and returns its report.
///
/// Deterministic: the same config (including seed) yields an identical
/// report.
///
/// # Examples
///
/// ```
/// use odr_core::{FpsGoal, RegulationSpec};
/// use odr_pipeline::{run_experiment, ExperimentConfig};
/// use odr_simtime::Duration;
/// use odr_workload::{Benchmark, Platform, Resolution, Scenario};
///
/// let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
/// let cfg = ExperimentConfig::builder(scenario, RegulationSpec::odr(FpsGoal::Target(60.0)))
///     .duration(Duration::from_secs(20))
///     .build();
/// let report = run_experiment(&cfg);
/// assert!((report.client_fps - 60.0).abs() < 3.0);
/// ```
#[must_use]
pub fn run_experiment(cfg: &ExperimentConfig) -> Report {
    run_experiment_with(cfg, &mut SessionScratch::new())
}

/// Runs one experiment reusing caller-owned scratch buffers.
///
/// Identical to [`run_experiment`] in every observable way — `scratch`
/// is reset on entry, and a recycled scratch produces a bit-identical
/// report — but steady-state fleet workers avoid re-allocating the event
/// queue, frame lanes and metric buffers for every session.
#[must_use]
pub fn run_experiment_with(cfg: &ExperimentConfig, scratch: &mut SessionScratch) -> Report {
    if cfg.scenario.platform == Platform::NonCloud {
        return local::run_local(cfg);
    }
    scratch.reset();
    Sim::new(cfg, scratch).run()
}

/// A message in flight between the simulated threads. What a stage waits
/// for itself — a job's completion, a pacing or regulator sleep, a socket
/// write, the sender's serialisation, a decode — is that stage's timer
/// instead (`Stage`).
#[derive(Debug)]
pub(crate) enum Event {
    /// The app may evaluate pacing and start its next cycle.
    AppWake,
    FrameArrived {
        frame: FrameRef,
    },
    InputCreated,
    InputAtServer {
        id: u64,
    },
    RvsFeedback {
        diff: Duration,
        lag: Duration,
    },
    IntMaxFeedback {
        fps: f64,
    },
    /// Client-side 500 ms FPS measurement tick (IntMax feedback source).
    ClientFpsTick,
    /// A scheduled client presentation (VSync vblank or FreeSync pacing).
    Present,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProxyState {
    WaitingFrame,
    Copying,
    Encoding,
    /// Waiting for space in Mul-Buf2 (ODR only); the encoded frame is
    /// parked in `Sim::parked_frame`.
    BlockedOnBuffer,
    /// Blocked in the socket write (baselines only).
    BlockedOnSocket,
    /// In Algorithm 1's delay; the proxy's timer is its end.
    Sleeping,
}

/// Which proxy stage a [`Job`] is executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProxyPhase {
    Copy,
    Encode,
}

/// An in-flight, contention-sensitive stage execution.
///
/// `remaining` is measured in *base work seconds* (the sampled duration at
/// slowdown 1.0); the wall-clock completion is re-planned every time the
/// DRAM contention level changes, so a stage that overlaps more concurrent
/// activity genuinely takes longer — Section 4.3's mechanism.
///
/// The completion is its stage's timer, not a queue entry: a re-plan
/// overwrites the timer and leaves nothing behind to pop.
#[derive(Clone, Copy, Debug)]
struct Job {
    frame: FrameRef,
    /// Base work left, in seconds.
    remaining: f64,
    /// Slowdown in effect since `last`.
    rate: f64,
    last: SimTime,
    started: SimTime,
}

/// A position in the simulation's total order: fire time, then the
/// sequence number drawn from the event queue when it was scheduled.
type EventKey = (SimTime, u64);

/// The key of a timer with nothing pending.
const NEVER: EventKey = (SimTime::MAX, u64::MAX);

/// A simulated thread that waits on one thing at a time, and so keeps one
/// timer beside the event queue instead of pushing into it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// The render job, or the pacing delay before it.
    App,
    /// The copy or encode job, or the regulator sleep or blocked socket
    /// write after it.
    Proxy,
    /// The ODR sender serialising a frame onto the wire.
    Sender,
    /// The client decoding a frame.
    Decoder,
}

impl Stage {
    /// Every stage, in `Sim::timers` order.
    const ALL: [Stage; 4] = [Stage::App, Stage::Proxy, Stage::Sender, Stage::Decoder];
}

/// Which event source fires next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    Queue,
    Stage(Stage),
}

/// The least of the queue head and the stage timers. Sequence numbers
/// are unique, so there are no ties to break.
fn earliest(queue: Option<EventKey>, timers: &[EventKey; 4]) -> Option<(EventKey, Source)> {
    let mut next = (queue.unwrap_or(NEVER), Source::Queue);
    for (stage, &due) in Stage::ALL.into_iter().zip(timers) {
        if due < next.0 {
            next = (due, Source::Stage(stage));
        }
    }
    (next.0 != NEVER).then_some(next)
}

struct Sim<'a> {
    cfg: ExperimentConfig,
    frame_model: FrameModel,
    input_model: InputModel,
    /// Whether Mul-Buf2 + the paced sender exist (ODR only).
    use_buf2: bool,

    /// Worker-owned pooled state: event slab, frame lanes, decode queue,
    /// input log, display intervals and trace rows.
    scratch: &'a mut SessionScratch,

    now: SimTime,
    end: SimTime,
    warmup: SimTime,

    rng_render: Rng,
    rng_copy: Rng,
    rng_encode: Rng,
    rng_decode: Rng,
    rng_size: Rng,
    rng_input: Rng,

    // Application: the loop's decisions are `app`'s, its durations ours.
    app: AppCycle,
    /// The last step was [`AppStep::WaitForRoom`]: a pop re-steps it.
    app_waits_for_room: bool,
    last_input_at_app: Option<u64>,
    mul_buf1: FrameQueue<FrameRef>,

    /// When each stage's timer fires, indexed by `Stage as usize`; `NEVER`
    /// when the stage waits on nothing timed.
    timers: [EventKey; 4],
    // In-flight contention-coupled stage executions: while one exists,
    // its stage's timer is its completion.
    render_job: Option<Job>,
    proxy_job: Option<(ProxyPhase, Job)>,

    // Proxy.
    proxy_state: ProxyState,
    cycle: ProxyCycle,
    parked_frame: Option<FrameRef>,
    mul_buf2: FrameQueue<FrameRef>,

    // Network.
    downlink: Link,
    uplink: Link,

    // Client.
    /// The frame being decoded; the decoder's timer is its completion.
    decoding: Option<FrameRef>,
    window_decodes: u64,
    last_display: Option<SimTime>,
    /// Frame awaiting its presentation slot (VSync/FreeSync only).
    pending_present: Option<FrameRef>,
    present_scheduled: bool,
    /// Vblank grid for `ClientDisplay::VSync`, built once at session
    /// setup so the per-frame present path never re-validates the rate.
    vsync_clock: Option<odr_core::rvs::VblankClock>,
    display_drops: u64,

    // Inputs.
    next_input_id: u64,
    answered_upto: u64,

    // Measurement.
    mem: MemoryModel,
    render_rate: WindowedRate,
    encode_rate: WindowedRate,
    gap: FpsGap,
    satisfaction: WindowedRate,
    mtp_ms: Summary,
    frames_rendered: u64,
    frames_displayed: u64,
    priority_frames: u64,
    /// Events fired: queue pops plus stage timers.
    events: u64,

    /// Observability sink: a ring recorder when `cfg.obs` is set, the
    /// no-op recorder otherwise (every emission site checks `enabled()`
    /// first, so the disabled path never constructs an event).
    recorder: Box<dyn Recorder>,
}

impl<'a> Sim<'a> {
    fn new(cfg: &ExperimentConfig, scratch: &'a mut SessionScratch) -> Self {
        let scenario: Scenario = cfg.scenario;
        let frame_model = scenario.frame_model();
        let input_model = scenario.input_model();
        // Mul-Buf1 blocks under ODR (unless ablated) and overwrites otherwise.
        let (buf1_policy, depth) = match cfg.spec {
            RegulationSpec::Odr { options, .. } if options.blocking_buffers => {
                (FullPolicy::Block, options.buffer_depth)
            }
            RegulationSpec::Odr { options, .. } => (FullPolicy::Overwrite, options.buffer_depth),
            _ => (FullPolicy::Overwrite, 1),
        };
        // IntMax starts at the cloud's rendering capability. The paper
        // tuned RVS's low-pass parameters per configuration (Section 5.4);
        // mirror that with a per-platform feedback weight — the WAN path
        // needs a smaller weight or the stale-feedback delay overwhelms the
        // pacing entirely.
        let rvs_weight = match scenario.platform {
            Platform::Gce => 0.12,
            _ => 0.35,
        };
        let app = AppCycle::new(cfg.spec, frame_model.render.mean_rate_hz(), rvs_weight);

        let root = Rng::new(cfg.seed).fork(scenario.stream_id());
        let mem = MemoryModel::new(
            scenario.memory_params(),
            scenario.power_params(),
            SimTime::ZERO,
        );

        let window = Duration::from_secs(1);
        Sim {
            frame_model,
            input_model,
            scratch,
            now: SimTime::ZERO,
            end: SimTime::ZERO + cfg.total_time(),
            warmup: SimTime::ZERO + cfg.warmup,
            rng_render: root.fork(1),
            rng_copy: root.fork(2),
            rng_encode: root.fork(3),
            rng_decode: root.fork(4),
            rng_size: root.fork(5),
            rng_input: root.fork(6),
            app,
            app_waits_for_room: false,
            timers: [NEVER; 4],
            render_job: None,
            proxy_job: None,
            last_input_at_app: None,
            mul_buf1: FrameQueue::new(depth, buf1_policy),
            proxy_state: ProxyState::WaitingFrame,
            cycle: ProxyCycle::new(cfg.spec, SimTime::ZERO),
            parked_frame: None,
            mul_buf2: FrameQueue::new(depth, FullPolicy::Block),
            downlink: Link::new(cfg.downlink(), root.fork(7)),
            uplink: Link::new(scenario.uplink(), root.fork(8)),
            decoding: None,
            window_decodes: 0,
            last_display: None,
            pending_present: None,
            present_scheduled: false,
            vsync_clock: match cfg.display {
                ClientDisplay::VSync { refresh_hz } => {
                    Some(odr_core::rvs::VblankClock::new(refresh_hz))
                }
                _ => None,
            },
            display_drops: 0,
            next_input_id: 0,
            answered_upto: 0,
            mem,
            render_rate: WindowedRate::new(window),
            encode_rate: WindowedRate::new(window),
            gap: FpsGap::new(window),
            satisfaction: WindowedRate::new(Duration::from_millis(200)),
            mtp_ms: Summary::new(),
            frames_rendered: 0,
            frames_displayed: 0,
            priority_frames: 0,
            events: 0,
            recorder: if cfg.obs {
                Box::new(RingRecorder::default())
            } else {
                Box::new(NullRecorder)
            },
            use_buf2: matches!(cfg.spec, RegulationSpec::Odr { .. }),
            cfg: *cfg,
        }
    }

    /// Records one observability event; no-op when capture is off.
    fn obs(&self, event: ObsEvent) {
        if self.recorder.enabled() {
            self.recorder.record(event);
        }
    }

    /// The current sim time as the observability timestamp.
    fn obs_now(&self) -> u64 {
        self.now.as_nanos()
    }

    fn run(mut self) -> Report {
        self.scratch.events.push(SimTime::ZERO, Event::AppWake);
        let first_input = self
            .input_model
            .next_after(SimTime::ZERO, &mut self.rng_input);
        self.scratch.events.push(first_input, Event::InputCreated);
        if self.app.int_max().is_some() {
            self.scratch.events.push(
                SimTime::ZERO + Duration::from_millis(500),
                Event::ClientFpsTick,
            );
        }

        while let Some(((t, _), source)) = earliest(self.scratch.events.peek_key(), &self.timers) {
            if t > self.end {
                break;
            }
            self.now = t;
            self.events += 1;
            match source {
                Source::Queue => {
                    if let Some((_, event)) = self.scratch.events.pop() {
                        self.dispatch(event);
                    }
                }
                Source::Stage(stage) => self.fire(stage),
            }
        }
        self.now = self.end;
        self.finalize()
    }

    /// Runs what `stage`'s timer was set for, after clearing it.
    fn fire(&mut self, stage: Stage) {
        self.disarm(stage);
        match stage {
            Stage::App if self.render_job.is_some() => self.on_render_done(),
            Stage::App => self.app_cycle(),
            Stage::Proxy if self.proxy_job.is_some() => self.on_proxy_stage_done(),
            Stage::Proxy => self.on_proxy_wake(),
            Stage::Sender => self.sender_take(),
            Stage::Decoder => {
                if let Some(frame) = self.decoding.take() {
                    self.on_decode_done(frame);
                }
            }
        }
    }

    /// Sets `stage`'s timer to fire at `at`, keyed where an event pushed
    /// now would pop.
    fn arm(&mut self, stage: Stage, at: SimTime) {
        let due = (at, self.scratch.events.take_seq());
        if let Some(timer) = self.timers.get_mut(stage as usize) {
            *timer = due;
        }
    }

    fn disarm(&mut self, stage: Stage) {
        if let Some(timer) = self.timers.get_mut(stage as usize) {
            *timer = NEVER;
        }
    }

    fn armed(&self, stage: Stage) -> bool {
        self.timers
            .get(stage as usize)
            .is_some_and(|&due| due != NEVER)
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::AppWake => self.app_cycle(),
            Event::FrameArrived { frame } => self.on_frame_arrived(frame),
            Event::InputCreated => self.on_input_created(),
            Event::InputAtServer { id } => self.on_input_at_server(id),
            Event::RvsFeedback { diff, lag } => {
                if let Some(rvs) = self.app.rvs() {
                    rvs.on_feedback(diff, lag);
                }
            }
            Event::IntMaxFeedback { fps } => {
                if let Some(pacer) = self.app.int_max() {
                    pacer.on_client_feedback(fps);
                }
            }
            Event::ClientFpsTick => self.on_client_fps_tick(),
            Event::Present => self.on_scheduled_present(),
        }
    }

    // ------------------------------------------------------------------
    // Application side.
    // ------------------------------------------------------------------

    /// Steps the app loop: it renders, sleeps out its pacing on the app
    /// timer, or waits for room in Mul-Buf1 with nothing armed.
    fn app_cycle(&mut self) {
        let step = self.app.next(self.now, self.mul_buf1.has_space());
        self.app_waits_for_room = step == AppStep::WaitForRoom;
        match step {
            AppStep::Render { priority } => self.app_render_begin(priority),
            AppStep::WaitUntil(start) => self.arm(Stage::App, start),
            AppStep::WaitForRoom => {}
        }
    }

    fn app_render_begin(&mut self, priority_input: Option<u64>) {
        self.priority_frames += u64::from(priority_input.is_some());
        let frame = self
            .scratch
            .lanes
            .alloc(priority_input, self.last_input_at_app);
        if self.cfg.trace {
            let priority = self.scratch.lanes.is_priority(frame);
            self.scratch.traces.push(FrameTrace {
                id: frame.id(),
                priority,
                ..FrameTrace::default()
            });
        }
        self.obs(ObsEvent::begin(self.obs_now(), track::APP, names::RENDER).with_id(frame.id()));
        let base = self.frame_model.render.sample(&mut self.rng_render);
        self.set_mem(&[MemClient::AppLogic, MemClient::Render], true);
        self.render_job = Some(self.new_job(Stage::App, frame, base));
    }

    /// Creates a job for `base` seconds of work at the current contention
    /// level and sets `stage`'s timer to its completion.
    fn new_job(&mut self, stage: Stage, frame: FrameRef, base: Duration) -> Job {
        let remaining = base.as_secs_f64();
        let rate = self.mem.slowdown();
        self.arm(
            stage,
            self.now + odr_simtime::time::secs_f64(remaining * rate),
        );
        Job {
            frame,
            remaining,
            rate,
            last: self.now,
            started: self.now,
        }
    }

    /// Flips memory clients and re-plans every in-flight job at the new
    /// contention level (Section 4.3's feedback loop), render before proxy.
    /// App logic and rendering always flip together, in one call, so the
    /// jobs are re-planned once, at the final level (DESIGN.md §14.5 has
    /// why that is bit-identical to flipping them one by one).
    fn set_mem(&mut self, clients: &[MemClient], active: bool) {
        self.mem.set_active(self.now, clients, active);
        let slowdown = self.mem.slowdown();
        let now = self.now;
        let events = &mut self.scratch.events;
        let [app, proxy, ..] = &mut self.timers;
        if let Some(job) = self.render_job.as_mut() {
            replan(job, app, now, slowdown, events);
        }
        if let Some((_, job)) = self.proxy_job.as_mut() {
            replan(job, proxy, now, slowdown, events);
        }
    }

    fn on_render_done(&mut self) {
        let Some(job) = self.render_job.take() else {
            return;
        };
        let frame = job.frame;
        self.scratch.lanes.set_render_end(frame, self.now);
        let started = job.started;
        self.obs(ObsEvent::end(self.obs_now(), track::APP, names::RENDER).with_id(frame.id()));
        self.trace_update(frame.id(), |t, now| t.render = Some((started, now)));
        self.set_mem(&[MemClient::AppLogic, MemClient::Render], false);
        if self.now >= self.warmup {
            self.frames_rendered += 1;
            let t = self.metric_time();
            self.render_rate.record(t);
            self.gap.producer.record(t);
        }

        // Publish into Mul-Buf1.
        let is_priority = self.scratch.lanes.is_priority(frame);
        if is_priority {
            // PriorityFrame: unsent frames rendered earlier are obsolete.
            self.flush_buf1_obsolete();
            let stored = matches!(self.mul_buf1.publish(frame), Publish::Stored);
            debug_assert!(stored, "flush must have made room");
        } else {
            match self.mul_buf1.publish(frame) {
                Publish::Stored => {}
                Publish::ReplacedNewest => self.mark_dropped_newest_before(frame.id()),
                Publish::WouldBlock(_) => {
                    // Space was checked before rendering began and the app
                    // is the only producer, so this cannot fire; if the
                    // invariant ever broke, dropping the frame beats
                    // unwinding the pipeline mid-step.
                    debug_assert!(false, "Mul-Buf1 filled while the app held the back buffer");
                }
            }
        }

        // Wake the proxy if it is waiting for a frame, or cancel its
        // regulator sleep for a priority frame.
        match self.proxy_state {
            ProxyState::WaitingFrame => self.proxy_take_next(),
            ProxyState::Sleeping if is_priority => {
                self.cycle.cut(self.now, self.recorder.as_ref());
                self.disarm(Stage::Proxy);
                self.proxy_take_next();
            }
            _ => {}
        }

        // Continue the app loop.
        self.app_cycle();
    }

    /// Marks the overwritten (newest pending before `new_id`) frame's trace
    /// as dropped. The overwriting publish already accounted the drop.
    fn mark_dropped_newest_before(&mut self, new_id: u64) {
        self.obs(ObsEvent::instant(
            self.obs_now(),
            track::BUF1,
            names::RENDER_DROP,
        ));
        if self.cfg.trace {
            // The replaced frame is the one with the largest id below
            // `new_id` that never reached the proxy.
            if let Some(t) = self
                .scratch
                .traces
                .iter_mut()
                .rev()
                .find(|t| t.id < new_id && t.copy.is_none())
            {
                t.dropped = true;
            }
        }
    }

    fn flush_buf1_obsolete(&mut self) {
        if self.cfg.trace {
            let ids: Vec<u64> = {
                let mut q = self.mul_buf1.clone();
                core::iter::from_fn(move || q.pop()).map(|f| f.id()).collect()
            };
            for id in ids {
                if let Some(t) = self.scratch.traces.iter_mut().find(|t| t.id == id) {
                    t.dropped = true;
                }
            }
        }
        let flushed = self.mul_buf1.flush_obsolete();
        if flushed > 0 {
            self.obs(
                ObsEvent::instant(self.obs_now(), track::BUF1, names::RENDER_FLUSH)
                    .with_value(flushed as f64),
            );
        }
    }

    // ------------------------------------------------------------------
    // Proxy side.
    // ------------------------------------------------------------------

    fn proxy_take_next(&mut self) {
        match self.mul_buf1.pop() {
            Some(frame) => {
                // Popping freed a back buffer: unblock the app.
                if self.app_waits_for_room {
                    self.app_cycle();
                }
                self.obs(
                    ObsEvent::begin(self.obs_now(), track::PROXY, names::COPY).with_id(frame.id()),
                );
                let base = self.frame_model.copy.sample(&mut self.rng_copy);
                self.set_mem(&[MemClient::Copy], true);
                self.proxy_job = Some((ProxyPhase::Copy, self.new_job(Stage::Proxy, frame, base)));
                self.proxy_state = ProxyState::Copying;
            }
            None => self.proxy_state = ProxyState::WaitingFrame,
        }
    }

    fn on_proxy_stage_done(&mut self) {
        let Some((phase, job)) = self.proxy_job.take() else {
            return;
        };
        let frame = job.frame;
        let started = job.started;
        match phase {
            ProxyPhase::Copy => {
                self.obs(
                    ObsEvent::end(self.obs_now(), track::PROXY, names::COPY).with_id(frame.id()),
                );
                self.obs(
                    ObsEvent::begin(self.obs_now(), track::PROXY, names::ENCODE)
                        .with_id(frame.id()),
                );
                self.trace_update(frame.id(), |t, now| t.copy = Some((started, now)));
                // Two re-plans, not one: down a level and back up does not
                // round like staying put.
                self.set_mem(&[MemClient::Copy], false);
                let base = self.frame_model.encode.sample(&mut self.rng_encode);
                self.set_mem(&[MemClient::Encode], true);
                self.proxy_job =
                    Some((ProxyPhase::Encode, self.new_job(Stage::Proxy, frame, base)));
                self.proxy_state = ProxyState::Encoding;
            }
            ProxyPhase::Encode => {
                self.obs(
                    ObsEvent::end(self.obs_now(), track::PROXY, names::ENCODE).with_id(frame.id()),
                );
                self.trace_update(frame.id(), |t, now| t.encode = Some((started, now)));
                self.on_encode_done(frame);
            }
        }
    }

    fn on_encode_done(&mut self, frame: FrameRef) {
        self.set_mem(&[MemClient::Encode], false);
        let size = self.frame_model.size.sample(&mut self.rng_size, frame.id());
        self.scratch.lanes.set_size(frame, size);
        self.trace_size(frame.id(), size);
        if self.now >= self.warmup {
            let t = self.metric_time();
            self.encode_rate.record(t);
        }

        if self.use_buf2 {
            let is_priority = self.scratch.lanes.is_priority(frame);
            if is_priority {
                // Unsent frames in Mul-Buf2 are obsolete too.
                self.flush_buf2_obsolete();
            }
            match self.mul_buf2.publish(frame) {
                Publish::Stored => {
                    self.sender_take();
                    self.proxy_finish_cycle();
                }
                Publish::WouldBlock(f) => {
                    self.parked_frame = Some(f);
                    self.proxy_state = ProxyState::BlockedOnBuffer;
                }
                Publish::ReplacedNewest => {
                    // Mul-Buf2 is a blocking queue, so a publish never
                    // replaces; if that invariant ever broke, continuing
                    // the proxy cycle beats unwinding mid-step.
                    debug_assert!(false, "Mul-Buf2 is a blocking queue");
                    self.sender_take();
                    self.proxy_finish_cycle();
                }
            }
        } else {
            // Baselines: blocking write straight into the downlink socket.
            let delivery = self.downlink.send(self.now, size);
            self.obs(
                ObsEvent::begin(self.obs_now(), track::NET, names::TRANSMIT).with_id(frame.id()),
            );
            self.trace_update(frame.id(), |t, now| {
                t.transmit = Some((now, delivery.arrival));
            });
            self.scratch
                .events
                .push(delivery.arrival, Event::FrameArrived { frame });
            if delivery.accepted > self.now {
                self.proxy_state = ProxyState::BlockedOnSocket;
                self.arm(Stage::Proxy, delivery.accepted);
            } else {
                self.proxy_finish_cycle();
            }
        }
    }

    fn flush_buf2_obsolete(&mut self) {
        if self.cfg.trace {
            let ids: Vec<u64> = {
                let mut q = self.mul_buf2.clone();
                core::iter::from_fn(move || q.pop()).map(|f| f.id()).collect()
            };
            for id in ids {
                if let Some(t) = self.scratch.traces.iter_mut().find(|t| t.id == id) {
                    t.dropped = true;
                }
            }
        }
        let flushed = self.mul_buf2.flush_obsolete();
        if flushed > 0 {
            self.obs(
                ObsEvent::instant(self.obs_now(), track::BUF2, names::ENCODE_FLUSH)
                    .with_value(flushed as f64),
            );
        }
    }

    /// The frame left the proxy: Algorithm 1 delays the next iteration
    /// (or not) before the next frame is swapped in.
    fn proxy_finish_cycle(&mut self) {
        let priority_waiting = self
            .mul_buf1
            .peek()
            .is_some_and(|f| self.scratch.lanes.is_priority(*f));
        match self
            .cycle
            .frame_out(self.now, priority_waiting, self.recorder.as_ref())
        {
            Some(until) => {
                self.proxy_state = ProxyState::Sleeping;
                self.arm(Stage::Proxy, until);
            }
            None => self.proxy_take_next(),
        }
    }

    /// A regulator sleep ran out or a blocked socket write returned; a
    /// cancelled sleep cleared the timer and never gets here.
    fn on_proxy_wake(&mut self) {
        match self.proxy_state {
            ProxyState::BlockedOnSocket => self.proxy_finish_cycle(),
            ProxyState::Sleeping => {
                self.cycle.woke(self.now);
                self.proxy_take_next();
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // ODR network sender.
    // ------------------------------------------------------------------

    /// Hands the next frame to the wire unless one is still serialising
    /// (the sender's timer is armed until it has).
    fn sender_take(&mut self) {
        if self.armed(Stage::Sender) {
            return;
        }
        if let Some(frame) = self.mul_buf2.pop() {
            // Popping freed Mul-Buf2 space: resume a blocked proxy.
            if self.proxy_state == ProxyState::BlockedOnBuffer {
                if let Some(parked) = self.parked_frame.take() {
                    let stored = matches!(self.mul_buf2.publish(parked), Publish::Stored);
                    debug_assert!(stored);
                    self.proxy_finish_cycle();
                }
            }
            let delivery = self.downlink.send(self.now, self.scratch.lanes.size(frame));
            self.obs(
                ObsEvent::begin(self.obs_now(), track::NET, names::TRANSMIT).with_id(frame.id()),
            );
            self.trace_update(frame.id(), |t, now| {
                t.transmit = Some((now, delivery.arrival));
            });
            self.scratch
                .events
                .push(delivery.arrival, Event::FrameArrived { frame });
            // The sender thread paces at wire speed: it hands the next
            // frame to the NIC only when this one has fully serialised.
            self.arm(Stage::Sender, delivery.tx_end);
        }
    }

    // ------------------------------------------------------------------
    // Client side.
    // ------------------------------------------------------------------

    fn on_frame_arrived(&mut self, frame: FrameRef) {
        self.obs(ObsEvent::end(self.obs_now(), track::NET, names::TRANSMIT).with_id(frame.id()));
        self.scratch.decode_queue.push_back(frame);
        if self.decoding.is_none() {
            self.start_decode();
        }
    }

    fn start_decode(&mut self) {
        if let Some(frame) = self.scratch.decode_queue.pop_front() {
            self.decoding = Some(frame);
            self.obs(
                ObsEvent::begin(self.obs_now(), track::CLIENT, names::DECODE).with_id(frame.id()),
            );
            let dur = self.frame_model.decode.sample(&mut self.rng_decode);
            self.trace_update(frame.id(), |t, now| t.decode = Some((now, now + dur)));
            self.arm(Stage::Decoder, self.now + dur);
        }
    }

    fn on_decode_done(&mut self, frame: FrameRef) {
        self.obs(ObsEvent::end(self.obs_now(), track::CLIENT, names::DECODE).with_id(frame.id()));
        self.window_decodes += 1;

        // RVS feedback: decode-to-vblank difference, sent upstream.
        if let Some(rvs) = self.app.rvs() {
            let diff = rvs.clock().time_to_vblank(self.now);
            let delivery = self.uplink.send(self.now, 64);
            let lag = delivery
                .arrival
                .saturating_since(self.scratch.lanes.render_end(frame));
            self.scratch
                .events
                .push(delivery.arrival, Event::RvsFeedback { diff, lag });
        }

        self.client_present(frame);

        if !self.scratch.decode_queue.is_empty() {
            self.start_decode();
        }
    }

    /// Routes a decoded frame to the configured presentation model.
    fn client_present(&mut self, frame: FrameRef) {
        match self.cfg.display {
            ClientDisplay::Immediate => self.present_now(frame),
            ClientDisplay::VSync { .. } => {
                // Coalesce: a newer decode before the vblank replaces the
                // pending frame, which is then never shown.
                if self.pending_present.replace(frame).is_some() {
                    self.display_drops += 1;
                    self.obs(ObsEvent::instant(
                        self.obs_now(),
                        track::CLIENT,
                        names::PRESENT_DROP,
                    ));
                }
                if !self.present_scheduled {
                    // The clock exists whenever the display is VSync (built
                    // in `Sim::new` from the same config).
                    let Some(clock) = self.vsync_clock else {
                        return;
                    };
                    let vblank = clock.next_vblank(self.now + Duration::from_nanos(1));
                    self.scratch.events.push(vblank, Event::Present);
                    self.present_scheduled = true;
                }
            }
            ClientDisplay::FreeSync { max_hz } => {
                let min_gap = odr_simtime::time::secs_f64(1.0 / max_hz);
                let earliest = self
                    .last_display
                    .map_or(self.now, |t| (t + min_gap).max(self.now));
                if earliest > self.now {
                    if self.pending_present.replace(frame).is_some() {
                        self.display_drops += 1;
                        self.obs(ObsEvent::instant(
                            self.obs_now(),
                            track::CLIENT,
                            names::PRESENT_DROP,
                        ));
                    }
                    if !self.present_scheduled {
                        self.scratch.events.push(earliest, Event::Present);
                        self.present_scheduled = true;
                    }
                } else {
                    self.present_now(frame);
                }
            }
        }
    }

    fn on_scheduled_present(&mut self) {
        self.present_scheduled = false;
        if let Some(frame) = self.pending_present.take() {
            self.present_now(frame);
        }
    }

    /// The frame reaches the user's eyes: record display metrics and
    /// answer inputs (motion-to-*photon* ends here).
    fn present_now(&mut self, frame: FrameRef) {
        self.obs(
            ObsEvent::instant(self.obs_now(), track::CLIENT, names::PRESENT).with_id(frame.id()),
        );
        if self.now >= self.warmup {
            self.frames_displayed += 1;
            let t = self.metric_time();
            self.gap.consumer.record(t);
            self.satisfaction.record(t);
            if let Some(last) = self.last_display {
                self.scratch
                    .display_intervals_ms
                    .push(self.now.saturating_since(last).as_secs_f64() * 1e3);
            }
        }
        self.last_display = Some(self.now);

        // Motion-to-photon: this frame answers every input applied to the
        // app state before it was simulated.
        if let Some(upto) = self.scratch.lanes.answers_upto(frame) {
            while self.answered_upto <= upto {
                let Ok(idx) = usize::try_from(self.answered_upto) else {
                    break; // unreachable on 64-bit targets
                };
                // Every answered id was pushed by `on_input_created`
                // before the frame that answers it was simulated.
                let Some(&created) = self.scratch.input_created.get(idx) else {
                    break;
                };
                if created >= self.warmup {
                    self.mtp_ms
                        .record(self.now.saturating_since(created).as_secs_f64() * 1e3);
                }
                self.answered_upto += 1;
            }
        }
    }

    fn on_client_fps_tick(&mut self) {
        let fps = self.window_decodes as f64 * 2.0; // 500 ms window
        self.window_decodes = 0;
        let delivery = self.uplink.send(self.now, 64);
        self.scratch
            .events
            .push(delivery.arrival, Event::IntMaxFeedback { fps });
        self.scratch
            .events
            .push(self.now + Duration::from_millis(500), Event::ClientFpsTick);
    }

    // ------------------------------------------------------------------
    // Inputs.
    // ------------------------------------------------------------------

    fn on_input_created(&mut self) {
        let id = self.next_input_id;
        self.next_input_id += 1;
        self.scratch.input_created.push(self.now);
        let delivery = self.uplink.send(self.now, 128);
        self.scratch
            .events
            .push(delivery.arrival, Event::InputAtServer { id });
        let next = self.input_model.next_after(self.now, &mut self.rng_input);
        self.scratch.events.push(next, Event::InputCreated);
    }

    fn on_input_at_server(&mut self, id: u64) {
        self.last_input_at_app = Some(id);
        // ODR app-side hook: an input at an app waiting for room makes
        // Mul-Buf1's frame obsolete and cancels the wait, so the
        // input-triggered frame renders immediately.
        if self.app.input(id) {
            self.flush_buf1_obsolete();
            self.app_cycle();
        }
    }

    // ------------------------------------------------------------------
    // Helpers and finalisation.
    // ------------------------------------------------------------------

    /// Metric timestamps are shifted so the measurement span starts at
    /// window zero.
    fn metric_time(&self) -> SimTime {
        SimTime::from_nanos(self.now.as_nanos() - self.warmup.as_nanos())
    }

    fn trace_update(&mut self, id: u64, f: impl FnOnce(&mut FrameTrace, SimTime)) {
        if self.cfg.trace {
            let now = self.now;
            if let Some(t) = self.scratch.traces.iter_mut().rev().find(|t| t.id == id) {
                f(t, now);
            }
        }
    }

    fn trace_size(&mut self, id: u64, size: u64) {
        self.trace_update(id, |t, _| t.size = size);
    }

    fn finalize(mut self) -> Report {
        let measured_end = self.metric_time();
        let gap_stats = self.gap.stats(measured_end);
        let mut client_summary = self.gap.consumer.summary(measured_end);
        let target_satisfaction = match self.cfg.spec.goal().target() {
            Some(t) => self.satisfaction.fraction_meeting(measured_end, t),
            None => 1.0,
        };
        let memory = self.mem.report(self.now);
        let mut mtp = self.mtp_ms.clone();
        let mtp_stats = mtp.box_stats();
        let (pacing_cv, stutter_rate) =
            crate::report::pacing_stats(&self.scratch.display_intervals_ms);
        let obs = ObsReport::from_recorder(self.recorder.as_ref());
        Report {
            label: self.cfg.label(),
            render_fps: self.render_rate.mean_rate(measured_end),
            encode_fps: self.encode_rate.mean_rate(measured_end),
            client_fps: self.gap.consumer.mean_rate(measured_end),
            client_fps_stats: client_summary.box_stats(),
            client_fps_windows: self.gap.consumer.rates(measured_end),
            fps_gap_avg: gap_stats.avg,
            fps_gap_max: gap_stats.max,
            mtp_ms: self.mtp_ms,
            mtp_stats,
            target_satisfaction,
            pacing_cv,
            stutter_rate,
            memory,
            net_goodput_mbps: self.downlink.goodput_mbps(self.now),
            net_queue_delay_ms: self.downlink.mean_queue_delay_ms(),
            frames_rendered: self.frames_rendered,
            frames_displayed: self.frames_displayed,
            frames_dropped: self.mul_buf1.drops() + self.mul_buf2.drops(),
            display_drops: self.display_drops,
            priority_frames: self.priority_frames,
            inputs: self.next_input_id,
            events: self.events,
            traces: std::mem::take(&mut self.scratch.traces),
            obs,
        }
    }
}

/// Advances a job's progress to `now` and, if the contention level
/// changed, re-rates it and moves its completion `due` to where an event
/// pushed now for the new deadline would pop.
fn replan(
    job: &mut Job,
    due: &mut EventKey,
    now: SimTime,
    slowdown: f64,
    events: &mut SlabEventQueue<Event>,
) {
    if (job.rate - slowdown).abs() < 1e-12 {
        return;
    }
    let elapsed = now.saturating_since(job.last).as_secs_f64();
    job.remaining = (job.remaining - elapsed / job.rate).max(0.0);
    job.last = now;
    job.rate = slowdown;
    *due = (
        now + odr_simtime::time::secs_f64(job.remaining * slowdown),
        events.take_seq(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_core::FpsGoal;
    use odr_workload::{Benchmark, Resolution};

    fn cfg(spec: RegulationSpec) -> ExperimentConfig {
        let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
        ExperimentConfig::builder(scenario, spec)
            .duration(Duration::from_secs(30))
            .build()
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000_000)
    }

    /// Which source fires first, given the queue and one stage's timer.
    fn first(q: &SlabEventQueue<Event>, stage: Stage, due: EventKey) -> Option<Source> {
        let mut timers = [NEVER; 4];
        timers[stage as usize] = due;
        earliest(q.peek_key(), &timers).map(|(_, source)| source)
    }

    #[test]
    fn a_stage_timer_and_an_event_due_together_fire_in_scheduling_order() {
        let t = SimTime::from_nanos(1_000);
        for stage in Stage::ALL {
            // The event was pushed before the timer was set...
            let mut q = SlabEventQueue::new();
            q.push(t, Event::AppWake);
            let due = (t, q.take_seq());
            assert_eq!(first(&q, stage, due), Some(Source::Queue), "{stage:?}");
            // ...and after it.
            let mut q = SlabEventQueue::new();
            let due = (t, q.take_seq());
            q.push(t, Event::AppWake);
            assert_eq!(first(&q, stage, due), Some(Source::Stage(stage)));
        }
        // Between stages the same rule holds, and time comes first.
        let mut q = SlabEventQueue::<Event>::new();
        let mut timers = [NEVER; 4];
        for stage in [Stage::Decoder, Stage::Sender, Stage::Proxy, Stage::App] {
            timers[stage as usize] = (t, q.take_seq());
        }
        let pick = |timers: &[EventKey; 4]| earliest(None, timers).map(|(_, source)| source);
        assert_eq!(pick(&timers), Some(Source::Stage(Stage::Decoder)));
        timers[Stage::Decoder as usize].0 = t + Duration::from_nanos(1);
        assert_eq!(pick(&timers), Some(Source::Stage(Stage::Sender)));
        assert_eq!(earliest(None, &[NEVER; 4]), None);
    }

    #[test]
    fn a_replan_to_an_earlier_time_beats_an_event_queued_before_it() {
        let mut scratch = SessionScratch::new();
        let mut job = Job {
            frame: scratch.lanes.alloc(None, None),
            remaining: 0.004,
            rate: 2.0,
            last: SimTime::ZERO,
            started: SimTime::ZERO,
        };
        let mut due = (ms(8), scratch.events.take_seq());
        let q = &mut scratch.events;
        q.push(ms(6), Event::AppWake);
        assert_eq!(first(q, Stage::App, due), Some(Source::Queue));
        // Unchanged contention: nothing moves, no sequence number is drawn.
        replan(&mut job, &mut due, ms(2), 2.0, q);
        assert_eq!(due, (ms(8), 0));
        // Contention falls at 2 ms: 3 ms of base work are left, at rate 1.
        replan(&mut job, &mut due, ms(2), 1.0, q);
        assert_eq!(due, (ms(5), 2));
        assert_eq!(first(q, Stage::App, due), Some(Source::Stage(Stage::App)));
    }

    #[test]
    fn a_cancelled_proxy_sleep_never_fires() {
        let mut scratch = SessionScratch::new();
        let mut sim = Sim::new(
            &cfg(RegulationSpec::odr(FpsGoal::Target(60.0))),
            &mut scratch,
        );
        // A frame leaves the proxy 2 ms into its iteration, so Algorithm 1
        // delays the next one past 10 ms; at 4 ms a priority frame
        // finishes rendering.
        sim.now = ms(2);
        sim.proxy_finish_cycle();
        assert_eq!(sim.proxy_state, ProxyState::Sleeping);
        let wake = sim.timers[Stage::Proxy as usize];
        assert!(wake.0 > ms(10));
        sim.now = ms(4);
        let frame = sim.scratch.lanes.alloc(Some(0), Some(0));
        sim.render_job = Some(sim.new_job(Stage::App, frame, Duration::ZERO));
        sim.fire(Stage::App);
        // The sleep is cancelled and the proxy copies the frame at once:
        // its timer is the copy's completion, and the wake is nowhere.
        assert_eq!(sim.proxy_state, ProxyState::Copying);
        assert!(matches!(sim.proxy_job, Some((ProxyPhase::Copy, job)) if job.frame == frame));
        assert!(sim.timers[Stage::Proxy as usize].0 < wake.0);
        assert!(!sim.timers.contains(&wake));
        assert!(sim.scratch.events.is_empty());
    }

    #[test]
    fn a_rearmed_wake_overtakes_nothing_queued_before_it() {
        let mut scratch = SessionScratch::new();
        let mut sim = Sim::new(&cfg(RegulationSpec::NoReg), &mut scratch);
        sim.arm(Stage::Proxy, ms(10));
        sim.scratch.events.push(ms(5), Event::InputCreated);
        let next = |sim: &Sim| earliest(sim.scratch.events.peek_key(), &sim.timers);
        // Moved up to the queued event's instant, the wake still fires
        // after it: it was set later.
        sim.arm(Stage::Proxy, ms(5));
        assert!(matches!(next(&sim), Some(((t, _), Source::Queue)) if t == ms(5)));
        // Strictly earlier, it fires first.
        sim.arm(Stage::Proxy, ms(4));
        assert_eq!(
            next(&sim).map(|(_, source)| source),
            Some(Source::Stage(Stage::Proxy))
        );
        sim.disarm(Stage::Proxy);
        assert!(matches!(next(&sim), Some((_, Source::Queue))));
    }

    #[test]
    fn noreg_has_large_gap() {
        let r = run_experiment(&cfg(RegulationSpec::NoReg));
        assert!(r.render_fps > 150.0, "render {}", r.render_fps);
        assert!(
            r.client_fps > 80.0 && r.client_fps < 115.0,
            "client {}",
            r.client_fps
        );
        assert!(r.fps_gap_avg > 60.0, "gap {}", r.fps_gap_avg);
        assert!(r.frames_dropped > 1000, "drops {}", r.frames_dropped);
    }

    #[test]
    fn odr_max_removes_gap() {
        let r = run_experiment(&cfg(RegulationSpec::odr(FpsGoal::Max)));
        assert!(r.fps_gap_avg < 6.0, "gap {}", r.fps_gap_avg);
        assert!(r.client_fps > 85.0, "client {}", r.client_fps);
    }

    #[test]
    fn odr60_meets_target() {
        let r = run_experiment(&cfg(RegulationSpec::odr(FpsGoal::Target(60.0))));
        assert!(r.client_fps >= 59.5, "client {}", r.client_fps);
        assert!(r.client_fps <= 66.0, "client {}", r.client_fps);
        assert!(r.fps_gap_avg < 6.0, "gap {}", r.fps_gap_avg);
        // Deep spike windows are repaid in the following window; the
        // overwhelming majority of 200 ms windows meet the target.
        assert!(
            r.target_satisfaction > 0.90,
            "satisfaction {}",
            r.target_satisfaction
        );
    }

    #[test]
    fn int60_misses_target() {
        let r = run_experiment(&cfg(RegulationSpec::interval(60.0)));
        assert!(r.client_fps < 59.0, "client {}", r.client_fps);
        assert!(r.render_fps < 60.5, "render {}", r.render_fps);
    }

    #[test]
    fn vsync_display_caps_rate_and_adds_latency() {
        let base = cfg(RegulationSpec::odr(FpsGoal::Max));
        let immediate = run_experiment(&base);
        let vsync = run_experiment(&ExperimentConfig {
            display: crate::ClientDisplay::VSync { refresh_hz: 60.0 },
            ..base
        });
        assert!(
            immediate.client_fps > 80.0,
            "immediate {}",
            immediate.client_fps
        );
        assert!(vsync.client_fps <= 60.5, "vsync {}", vsync.client_fps);
        assert!(vsync.display_drops > 0, "coalescing must drop frames");
        assert!(
            vsync.mtp_stats.mean > immediate.mtp_stats.mean,
            "vsync {} vs immediate {}",
            vsync.mtp_stats.mean,
            immediate.mtp_stats.mean
        );
        assert_eq!(immediate.display_drops, 0);
    }

    #[test]
    fn freesync_display_tracks_arrival_up_to_its_cap() {
        let base = cfg(RegulationSpec::odr(FpsGoal::Max));
        let shown_on = |display| run_experiment(&ExperimentConfig { display, ..base });
        let fast_panel = shown_on(crate::ClientDisplay::FreeSync { max_hz: 144.0 });
        let slow_panel = shown_on(crate::ClientDisplay::FreeSync { max_hz: 48.0 });
        // A 144 Hz panel never paces a <100 FPS stream...
        assert!(fast_panel.client_fps > 80.0, "{}", fast_panel.client_fps);
        // ...while a 48 Hz cap does.
        assert!(slow_panel.client_fps <= 48.5, "{}", slow_panel.client_fps);
        // And the variable-refresh panel presents with less added latency
        // than fixed 60 Hz VSync.
        let vsync = shown_on(crate::ClientDisplay::VSync { refresh_hz: 144.0 });
        assert!(fast_panel.mtp_stats.mean <= vsync.mtp_stats.mean + 0.5);
    }

    #[test]
    fn priority_frames_render_immediately_after_input() {
        // With PriorityFrame, the frame answering an input must begin
        // rendering almost immediately after the input reaches the app
        // (the buffer-swap wait is cancelled), and reach the client faster
        // than the pipeline's average inter-frame pace.
        let r = run_experiment(&ExperimentConfig {
            trace: true,
            ..cfg(RegulationSpec::odr(FpsGoal::Target(60.0)))
        });
        let priority: Vec<_> = r.traces.iter().filter(|t| t.priority).collect();
        assert!(!priority.is_empty(), "no priority frames traced");
        // Every decoded priority frame crossed render->decode within a
        // pipeline traversal, with no regulator sleeps in between: bound
        // it by a generous per-stage budget.
        let mut checked = 0;
        for t in &priority {
            let (Some((rs, _)), Some((_, de))) = (t.render, t.decode) else {
                continue;
            };
            let transit_ms = (de - rs).as_secs_f64() * 1e3;
            assert!(transit_ms < 80.0, "priority frame took {transit_ms} ms");
            checked += 1;
        }
        assert!(checked > 5, "too few decoded priority frames: {checked}");
    }

    #[test]
    fn obs_disabled_report_is_empty_and_unchanged() {
        let base = cfg(RegulationSpec::odr(FpsGoal::Target(60.0)));
        let plain = run_experiment(&base);
        let observed = run_experiment(&ExperimentConfig { obs: true, ..base });
        assert!(!plain.obs.enabled);
        assert!(plain.obs.events.is_empty());
        // Scalar metrics must not move when capture is on.
        assert_eq!(plain.client_fps.to_bits(), observed.client_fps.to_bits());
        assert_eq!(plain.frames_rendered, observed.frames_rendered);
        assert_eq!(plain.frames_dropped, observed.frames_dropped);
        assert_eq!(plain.one_line(), observed.one_line());
    }

    #[test]
    fn obs_capture_covers_every_stage() {
        use odr_obs::names;
        let r = run_experiment(&ExperimentConfig {
            obs: true,
            ..cfg(RegulationSpec::odr(FpsGoal::Target(60.0)))
        });
        assert!(r.obs.enabled);
        assert!(!r.obs.events.is_empty());
        for stage in [
            names::RENDER,
            names::COPY,
            names::ENCODE,
            names::TRANSMIT,
            names::DECODE,
            names::PRESENT,
        ] {
            let c = r.obs.counters.get(stage).copied().unwrap_or_default();
            assert!(c.begun > 0, "no {stage} events captured");
        }
        // ODR60 on this workload delays most cycles: the regulator track
        // must show its decisions.
        let delays = r
            .obs
            .counters
            .get(names::REG_DELAY)
            .copied()
            .unwrap_or_default();
        assert!(delays.begun > 0, "no regulator delays captured");
    }

    #[test]
    fn obs_capture_is_deterministic() {
        let base = ExperimentConfig {
            obs: true,
            ..cfg(RegulationSpec::odr(FpsGoal::Max))
        };
        let a = run_experiment(&base);
        let b = run_experiment(&base);
        assert_eq!(odr_obs::to_jsonl(&a.obs), odr_obs::to_jsonl(&b.obs));
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_experiment(&cfg(RegulationSpec::odr(FpsGoal::Max)));
        let b = run_experiment(&cfg(RegulationSpec::odr(FpsGoal::Max)));
        assert_eq!(a.client_fps.to_bits(), b.client_fps.to_bits());
        assert_eq!(a.mtp_stats.mean.to_bits(), b.mtp_stats.mean.to_bits());
        assert_eq!(a.frames_rendered, b.frames_rendered);
    }
}
