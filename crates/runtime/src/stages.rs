//! The server-side pipeline stage loops.
//!
//! A served session (`odr-serve`) is two of these threads between its
//! socket reader and its socket writer: the application render loop and
//! the proxy encode/regulate loop, joined by Mul-Buf1 and handing encoded
//! frames to the writer through Mul-Buf2. Both are generic over the
//! input-tag type `T` that rides each frame from input arrival to
//! presentation; the server uses the wire's input event (input id + the
//! client's own send timestamp), so MtP is measured on the client's clock
//! and no cross-host clock sync is needed.
//!
//! Neither loop decides its regulation itself: the renderer steps
//! [`AppCycle`] (pacing, ODR's room rule, PriorityFrame) and the proxy
//! steps [`ProxyCycle`] (Algorithm 1), as the simulator does, and each
//! only carries out what its machine returns (DESIGN.md §18.9–§18.10).
//! What stays here is the threads' half: buffers, parks, drop accounting.
//!
//! No wait in these loops is a fixed sleep. Under ODR the renderer waits
//! for room in Mul-Buf1 *before* it renders, and the proxy's regulator
//! delay is a timed park; both park on the session's [`SessionGate`],
//! which the transport rings for every input and at shutdown, and which
//! the renderer rings for every PriorityFrame. An input therefore wakes
//! the renderer at once and makes the stale frame in Mul-Buf1 obsolete
//! there and then: the proxy discards it if it pops it first, the
//! answer's priority publish flushes it otherwise (the renderer holds no
//! second, pre-rendered one). The ring after that publish cuts the
//! proxy's delay short with the balance preserved — PriorityFrame as the
//! simulator models it (DESIGN.md §18). Interval pacing parks on the same
//! gate, so a closing session stops rendering at once instead of one
//! frame later.
//!
//! Frame buffers are *loaned* down the pipeline and handed back, not
//! allocated and dropped: the proxy returns each [`RawFrame::rgba`] to
//! the application stage once it is encoded, and the transport returns
//! each [`EncodedFrame::data`] to the proxy once it is sent, through a
//! [`BufferPool`] each. The pools are complete from the start, so no
//! stage allocates per frame; only a frame dropped inside a multi-buffer
//! (overwrite or priority flush) frees its buffer, and the stage that
//! next finds its pool empty grows a replacement (DESIGN.md §17).

use std::{
    sync::{
        atomic::{AtomicBool, AtomicU64, Ordering},
        mpsc, Arc, Mutex, MutexGuard, PoisonError,
    },
    thread::{self, JoinHandle},
    time::{Duration, Instant},
};

use odr_core::{AppCycle, AppStep, Gate, ProxyCycle, QueueObs, SyncQueue};
use odr_obs::{names, track, Event as ObsEvent, MonoClock, NullRecorder, Recorder, RingRecorder};
use odr_raster::{Framebuffer, Rasterizer, Scene};
use odr_simtime::SimTime;

use crate::Regulation;

/// A fresh ring recorder when capture is requested, the no-op recorder
/// otherwise.
#[must_use]
pub fn make_recorder(enabled: bool) -> Arc<dyn Recorder> {
    if enabled {
        Arc::new(RingRecorder::default())
    } else {
        Arc::new(NullRecorder)
    }
}

/// Buffers one stage can have out on loan at once: one being filled, one
/// pending in the multi-buffer (both run at capacity 1), one being
/// consumed downstream.
const IN_FLIGHT: usize = 3;

/// The frame buffers that circulate between a stage and the one
/// downstream of it: the producer [`take`](BufferPool::take)s one per
/// frame, the consumer [`give`](BufferPool::give)s it back when done.
///
/// A pool is created holding every buffer it will ever need, at full
/// capacity, so a frame never waits for the allocator. Buffers come back
/// out most-recently-returned first: the one still warm in cache is
/// reused, and a buffer the pipeline never needed in flight is never
/// touched, so it costs address space but no memory.
#[derive(Clone)]
pub struct BufferPool {
    spare: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl BufferPool {
    /// A pool of buffers with room for `capacity` bytes each.
    fn new(capacity: usize) -> Self {
        let spare = (0..IN_FLIGHT)
            .map(|_| Vec::with_capacity(capacity))
            .collect();
        BufferPool {
            spare: Arc::new(Mutex::new(spare)),
        }
    }

    /// A pool of [`RawFrame::rgba`] buffers for `width`×`height` frames.
    #[must_use]
    pub fn for_rgba(width: u32, height: u32) -> Self {
        BufferPool::new(width as usize * height as usize * 4)
    }

    /// A pool of [`EncodedFrame::data`] buffers, each with room for the
    /// largest bitstream a `width`×`height` frame can encode to.
    #[must_use]
    pub fn for_encoded(width: u32, height: u32) -> Self {
        BufferPool::new(odr_codec::max_encoded_len(width, height))
    }

    /// The spare buffers; the stack stays valid whatever a holder of the
    /// lock was doing when it panicked.
    fn spare(&self) -> MutexGuard<'_, Vec<Vec<u8>>> {
        self.spare.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a buffer out on loan. The pool runs dry only after a
    /// multi-buffer dropped a frame (overwrite, priority flush) and its
    /// buffer with it; the empty `Vec` handed out then grows on first
    /// use and joins the pool when it is given back.
    #[must_use]
    pub fn take(&self) -> Vec<u8> {
        self.spare().pop().unwrap_or_default()
    }

    /// Hands a buffer back. The pool never holds more than a stage can
    /// have in flight; a buffer beyond that is freed.
    pub fn give(&self, buffer: Vec<u8>) {
        let mut spare = self.spare();
        if spare.len() < IN_FLIGHT {
            spare.push(buffer);
        }
    }
}

/// What every wakeable wait of one session parks on: the renderer's wait
/// for room in Mul-Buf1, its interval pacing, and the proxy's regulator
/// delay.
///
/// Whoever changes something one of those waits looks at rings it
/// afterwards: the transport after sending an input down
/// [`AppStage::input_rx`] and after closing Mul-Buf1; the stages do
/// their own ringing (the proxy after it takes a frame out of Mul-Buf1,
/// the renderer after a PriorityFrame went in). Ringing with nobody
/// parked costs a fence and a load.
#[derive(Debug, Default)]
pub struct SessionGate {
    gate: Gate,
    /// `seq + 1` of the newest PriorityFrame published into Mul-Buf1, 0
    /// before the first. A priority publish flushes everything older, so
    /// while this is ahead of the proxy's last pop, that frame is the
    /// head of Mul-Buf1.
    priority_mark: AtomicU64,
    /// The `seq` of the first frame rendered after an input reached the
    /// renderer while it waited for room: every frame before it is
    /// obsolete, and the proxy discards one it pops.
    obsolete_below: AtomicU64,
}

impl SessionGate {
    /// Wakes the session's parked stages to look again.
    pub fn ring(&self) {
        self.gate.signal_all();
    }

    /// Whether a PriorityFrame newer than frame `seq` waits in Mul-Buf1.
    fn priority_after(&self, seq: u64) -> bool {
        self.priority_mark.load(Ordering::Acquire) > seq + 1
    }
}

/// A rendered frame travelling from the application to the proxy stage,
/// tagged with the oldest input it answers (if any).
pub struct RawFrame<T> {
    /// Render sequence number.
    pub seq: u64,
    /// Tag of the oldest input applied to this frame.
    pub tag: Option<T>,
    /// Whether the frame is a PriorityFrame, as [`AppCycle`] decided.
    pub priority: bool,
    /// Raw RGBA pixels.
    pub rgba: Vec<u8>,
}

/// An encoded frame leaving the proxy stage, bound for the transport.
pub struct EncodedFrame<T> {
    /// Render sequence number, carried through from [`RawFrame::seq`].
    pub seq: u64,
    /// Tag of the oldest input this frame answers.
    pub tag: Option<T>,
    /// Whether the frame was flushed as a PriorityFrame.
    pub priority: bool,
    /// Encoded payload bytes.
    pub data: Vec<u8>,
}

/// A session's two multi-buffers, Mul-Buf1 (application → proxy) and
/// Mul-Buf2 (proxy → transport), both one frame deep.
///
/// This is where the paper's first mechanism is decided: under ODR
/// Mul-Buf1 blocks, so the renderer converges to the proxy's rate; under
/// every other regulation it overwrites, and the excess frames are
/// rendered and dropped. Mul-Buf2 always blocks, which is how transport
/// backpressure reaches the proxy. Both record on `recorder`, on
/// [`track::BUF1`] and [`track::BUF2`].
#[must_use]
#[allow(clippy::type_complexity)]
pub fn mul_bufs<T>(
    regulation: Regulation,
    recorder: &Arc<dyn Recorder>,
    clock: MonoClock,
) -> (Arc<SyncQueue<RawFrame<T>>>, Arc<SyncQueue<EncodedFrame<T>>>) {
    let obs = |track| QueueObs {
        recorder: Arc::clone(recorder),
        track,
        clock,
    };
    let buf1 = match regulation {
        Regulation::Odr { .. } => SyncQueue::new_blocking(1),
        _ => SyncQueue::new_overwriting(1),
    };
    (
        Arc::new(buf1.with_obs(obs(track::BUF1))),
        Arc::new(SyncQueue::new_blocking(1).with_obs(obs(track::BUF2))),
    )
}

/// Everything the application/render stage needs to run.
pub struct AppStage<T> {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Baseline scene complexity (object count).
    pub base_objects: u32,
    /// Complexity swing (see [`odr_raster::Scene`]).
    pub object_swing: u32,
    /// Regulation under test ([`AppCycle::new`] maps it to this loop).
    pub regulation: Regulation,
    /// The run's start instant (interval pacing phase reference).
    pub start: Instant,
    /// Cooperative stop flag; the loop also exits when `out` closes.
    pub stop: Arc<AtomicBool>,
    /// Pending user inputs; the first tag received in a frame's batch
    /// rides the frame (senders stamp in arrival order, so the first is
    /// the oldest). The sender rings [`AppStage::wake`] after each one.
    pub input_rx: mpsc::Receiver<T>,
    /// The app→proxy multi-buffer (Mul-Buf1). Whoever closes it rings
    /// [`AppStage::wake`] afterwards.
    pub out: Arc<SyncQueue<RawFrame<T>>>,
    /// The session's gate, shared with [`ProxyStage::wake`].
    pub wake: Arc<SessionGate>,
    /// Where [`RawFrame::rgba`] buffers come from; shared with
    /// [`ProxyStage::rgba_pool`], which gives them back.
    pub rgba_pool: BufferPool,
    /// Incremented once per rendered frame.
    pub rendered: Arc<AtomicU64>,
    /// Incremented once per PriorityFrame rendered.
    pub priority_frames: Arc<AtomicU64>,
    /// Observability sink for render spans.
    pub recorder: Arc<dyn Recorder>,
    /// Shared wall-clock origin for event timestamps.
    pub clock: MonoClock,
}

/// Spawns the application/render loop on its own thread.
///
/// The loop steps [`AppCycle`], as the simulator does, and carries out
/// what it says: render the procedural scene and publish the frame into
/// `out` (a PriorityFrame with a priority publish), or park on the session
/// gate until the pacing tick or until there is room or an input. An
/// input that finds it waiting for room marks the frame in Mul-Buf1
/// obsolete. It exits when `stop` is set or the queue closes.
pub fn spawn_app_stage<T: Send + 'static>(stage: AppStage<T>) -> JoinHandle<()> {
    thread::spawn(move || {
        let AppStage {
            width,
            height,
            base_objects,
            object_swing,
            regulation,
            start,
            stop,
            input_rx,
            out,
            wake,
            rgba_pool,
            rendered,
            priority_frames,
            recorder,
            clock,
        } = stage;
        let ended = || stop.load(Ordering::Relaxed) || out.is_closed();
        let mut app = AppCycle::new(regulation.spec(), f64::NAN, f64::NAN);
        let mut scene = Scene::new(base_objects, object_swing);
        let mut raster = Rasterizer::new();
        let mut fb = Framebuffer::new(width, height);
        let mut seq = 0u64;
        let mut oldest: Option<T> = None;
        loop {
            // Apply the inputs that arrived, each named by the `seq` of the
            // frame its tag (the oldest) rides. One that finds the loop
            // waiting for room makes the frame in Mul-Buf1 obsolete: the
            // proxy discards it if it pops it before the answer flushes it.
            let mut take_inputs = |app: &mut AppCycle| {
                let mut any = false;
                while let Ok(tag) = input_rx.try_recv() {
                    scene.apply_input(0.12);
                    if app.input(seq) {
                        wake.obsolete_below.store(seq, Ordering::Release);
                    }
                    oldest.get_or_insert(tag);
                    any = true;
                }
                any
            };
            take_inputs(&mut app);
            if ended() {
                break;
            }
            // Interval's grid is anchored at `start`.
            let priority = match app.next(SimTime::ZERO + start.elapsed(), out.has_space()) {
                AppStep::Render { priority } => priority.is_some(),
                // Pacing, cut short by the end of the session. A tick past
                // any representable instant (an absurdly low FPS) is a
                // deadline centuries away: the wait lasts until the end.
                AppStep::WaitUntil(at) => {
                    let due = start.checked_add(Duration::from_nanos(at.as_nanos()));
                    wake.gate.wait_until(due, ended);
                    continue;
                }
                // Render on demand: once the frame has somewhere to go, or
                // an input wants an answer now.
                AppStep::WaitForRoom => {
                    // The span a parked `publish_blocking` used to leave.
                    let span = |edge: fn(u64, u32, &'static str) -> ObsEvent| {
                        if recorder.enabled() {
                            recorder.record(edge(clock.now_ns(), track::BUF1, names::WAIT_SPACE));
                        }
                    };
                    span(ObsEvent::begin);
                    wake.gate
                        .wait_until(None, || take_inputs(&mut app) || out.has_space() || ended());
                    span(ObsEvent::end);
                    continue;
                }
            };

            if recorder.enabled() {
                recorder.record(
                    ObsEvent::begin(clock.now_ns(), track::APP, names::RENDER).with_id(seq),
                );
            }
            let t = start.elapsed().as_secs_f32();
            scene.render(&mut raster, &mut fb, t);
            if recorder.enabled() {
                recorder
                    .record(ObsEvent::end(clock.now_ns(), track::APP, names::RENDER).with_id(seq));
            }
            let mut rgba = rgba_pool.take();
            fb.bytes_into(&mut rgba);
            let frame = RawFrame {
                seq,
                tag: oldest.take(),
                priority,
                rgba,
            };
            seq += 1;
            rendered.fetch_add(1, Ordering::Relaxed);

            let alive = if priority {
                priority_frames.fetch_add(1, Ordering::Relaxed);
                let stored = out.publish_priority(frame).is_some();
                // The proxy must not sleep on this frame: mark it (`seq`
                // is already one past it), then ring — the mark is what
                // the woken proxy looks at.
                wake.priority_mark.store(seq, Ordering::Release);
                wake.ring();
                stored
            } else {
                // Under ODR room was found before rendering and only
                // this thread publishes, so this does not park.
                out.publish_blocking(frame)
            };
            if !alive {
                break;
            }
        }
    })
}

/// Everything the proxy (encode + Algorithm 1) stage needs to run.
pub struct ProxyStage<T> {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Codec quantisation (bits dropped per channel).
    pub quant_bits: u8,
    /// Regulation under test (the Algorithm 1 regulator runs here).
    pub regulation: Regulation,
    /// The app→proxy multi-buffer (Mul-Buf1). Whoever closes it rings
    /// [`ProxyStage::wake`] afterwards.
    pub input: Arc<SyncQueue<RawFrame<T>>>,
    /// The session's gate, shared with [`AppStage::wake`].
    pub wake: Arc<SessionGate>,
    /// Where each [`RawFrame::rgba`] goes back to once encoded; shared
    /// with [`AppStage::rgba_pool`].
    pub rgba_pool: BufferPool,
    /// The proxy→transport multi-buffer (Mul-Buf2); closed when the
    /// stage exits.
    pub output: Arc<SyncQueue<EncodedFrame<T>>>,
    /// Where [`EncodedFrame::data`] buffers come from; the transport
    /// holds a clone and gives each one back after writing it.
    pub data_pool: BufferPool,
    /// Incremented once per encoded frame.
    pub encoded: Arc<AtomicU64>,
    /// Incremented once per obsolete frame discarded instead of encoded.
    pub dropped: Arc<AtomicU64>,
    /// Observability sink for encode spans and regulator decisions.
    pub recorder: Arc<dyn Recorder>,
    /// Shared wall-clock origin for event timestamps.
    pub clock: MonoClock,
}

/// Spawns the proxy loop — encode, then Algorithm 1 — on its own thread.
///
/// A frame the renderer marked as a PriorityFrame goes out with a
/// priority publish and a frame an input made obsolete is discarded;
/// everything else flows through the blocking swap, so transport
/// backpressure on `output` stalls this loop and, through Mul-Buf1's
/// policy, regulates or overwrites the renderer. The regulator's delay
/// is a park on the session gate: a PriorityFrame arriving in Mul-Buf1
/// (or already waiting there) and the end of the session cut it short,
/// and what was left of it goes back into the balance.
pub fn spawn_proxy_stage<T: Send + 'static>(stage: ProxyStage<T>) -> JoinHandle<()> {
    thread::spawn(move || {
        let ProxyStage {
            width,
            height,
            quant_bits,
            regulation,
            input,
            wake,
            rgba_pool,
            output,
            data_pool,
            encoded,
            dropped,
            recorder,
            clock,
        } = stage;
        // Only a blocking Mul-Buf1 has a renderer waiting for room.
        let odr = matches!(regulation, Regulation::Odr { .. });
        let mut encoder = odr_codec::Encoder::new(width, height, quant_bits);
        let now = || SimTime::from_nanos(clock.now_ns());
        let mut cycle = ProxyCycle::new(regulation.spec(), now());
        while let Some(raw) = input.pop_blocking() {
            if odr {
                // Room in Mul-Buf1: the renderer may start its next frame.
                wake.ring();
            }
            if raw.seq < wake.obsolete_below.load(Ordering::Acquire) {
                // An input made this frame obsolete: its answer is next.
                dropped.fetch_add(1, Ordering::Relaxed);
                rgba_pool.give(raw.rgba);
                continue;
            }
            if recorder.enabled() {
                recorder.record(
                    ObsEvent::begin(clock.now_ns(), track::PROXY, names::ENCODE).with_id(raw.seq),
                );
            }
            let mut data = data_pool.take();
            encoder.encode_into(&raw.rgba, &mut data);
            if recorder.enabled() {
                recorder.record(
                    ObsEvent::end(clock.now_ns(), track::PROXY, names::ENCODE).with_id(raw.seq),
                );
            }
            encoded.fetch_add(1, Ordering::Relaxed);
            rgba_pool.give(raw.rgba);
            let seq = raw.seq;
            let wire = EncodedFrame {
                seq,
                tag: raw.tag,
                priority: raw.priority,
                data,
            };
            let delivered = if raw.priority {
                output.publish_priority(wire).is_some()
            } else {
                output.publish_blocking(wire)
            };
            if !delivered {
                break;
            }
            // Algorithm 1: delay or accelerate. A priority frame in
            // Mul-Buf1 must not wait out the delay (latency first): it
            // skips or cuts it, with the balance preserved.
            let out = now();
            if let Some(until) = cycle.frame_out(out, wake.priority_after(seq), recorder.as_ref()) {
                let due = Instant::now().checked_add(until.saturating_since(out));
                let cut_short = || wake.priority_after(seq) || input.is_closed();
                if wake.gate.wait_until(due, cut_short) {
                    cycle.cut(now(), recorder.as_ref());
                } else {
                    cycle.woke(now());
                }
            }
        }
        output.close();
    })
}
