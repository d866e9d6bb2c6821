//! The layer replay: every layer's public functions, timed from outside.
//!
//! The same frame recipe the workload streams (resolution, objects,
//! quantisation, target) is driven through each layer on its own, a span
//! around every call for the frame stages and around every batch for the
//! nanosecond-scale ones. This says what each stage *costs*; the traced
//! workload run says where a frame *waited*. The two together are the
//! stage budget: `budget.service_ms` is the replayed service time of one
//! frame, and what is left of the measured motion-to-photon is waiting.

use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use odr_cluster::{NodeState, Resident, Slo};
use odr_codec::{Decoder, Encoder};
use odr_core::arena::SlabEventQueue;
use odr_core::{FidelityMode, FpsRegulator, SyncQueue};
use odr_netsim::{Link, LinkParams};
use odr_obs::{track, Event as ObsEvent, Recorder, RingRecorder};
use odr_pipeline::colocation::ServerCapacity;
use odr_pipeline::{run_experiment, ExperimentConfig};
use odr_raster::{Framebuffer, Rasterizer, Scene};
use odr_runtime::Regulation;
use odr_serve::wire::{self, FrameHeader, Message, SessionConfig};
use odr_serve::{session_load, Admission};
use odr_simtime::{Duration as SimDuration, EventQueue, Rng, SimTime};

use crate::sim;
use crate::stats;
use crate::trace::{TraceId, Tracer};
use crate::Outcome;

/// Longest the frame replay runs; at 1280×720 that is a few dozen frames.
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);
/// Most frames the replay drives, however fast they are.
const REPLAY_FRAMES: usize = 240;
/// Events kept pending while an event queue is timed.
const QUEUE_PENDING: u64 = 1000;

/// Nanoseconds per call of `op`, over `n` calls timed as one span.
fn ns_per_op(tracer: &mut Tracer, name: &'static str, n: u64, mut op: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..n {
        op(i);
    }
    let ended = Instant::now();
    tracer.push(name, started, ended, None, TraceId::Phase("replay"));
    (ended - started).as_nanos() as f64 / n as f64
}

fn simtime_layers(out: &mut Outcome, tracer: &mut Tracer, seed: u64) {
    let mut rng = Rng::new(seed);
    let draws = ns_per_op(tracer, "simtime.rng", 2_000_000, |i| {
        if i % 2 == 0 {
            black_box(rng.next_u64());
        } else {
            black_box(rng.exponential(60.0));
        }
    });
    out.layer("simtime.rng_ns_per_draw", draws);

    // Push one, pop one, with a thousand events pending: an operation is
    // a push or a pop.
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut slab: SlabEventQueue<u64> = SlabEventQueue::new();
    let when = |rng: &mut Rng, base: u64| SimTime::from_nanos(base + rng.below(1_000_000));
    for i in 0..QUEUE_PENDING {
        queue.push(when(&mut rng, 0), i);
        slab.push(when(&mut rng, 0), i);
    }
    let pairs = 500_000;
    let mut now = 0;
    let ns = ns_per_op(tracer, "simtime.event_queue", pairs, |i| {
        queue.push(when(&mut rng, now), i);
        now = black_box(queue.pop()).map_or(now, |(t, _)| t.as_nanos());
    });
    out.layer("simtime.event_queue_ns_per_op", ns / 2.0);
    let mut now = 0;
    let ns = ns_per_op(tracer, "core.slab_queue", pairs, |i| {
        slab.push(when(&mut rng, now), i);
        now = black_box(slab.pop()).map_or(now, |(t, _)| t.as_nanos());
    });
    out.layer("core.slab_queue_ns_per_op", ns / 2.0);
}

fn sampler_layers(out: &mut Outcome, tracer: &mut Tracer, seed: u64) {
    let mut rng = Rng::new(seed).fork(1);
    let mut summary = odr_metrics::Summary::new();
    let ns = ns_per_op(tracer, "metrics.summary_record", 500_000, |_| {
        summary.record(rng.next_f64())
    });
    black_box(summary.count());
    out.layer("metrics.summary_record_ns", ns);

    let mut link = Link::new(LinkParams::private_cloud(), Rng::new(seed).fork(2));
    let ns = ns_per_op(tracer, "netsim.link_send", 500_000, |i| {
        black_box(link.send(SimTime::from_nanos(i * 16_000_000), 20_000));
    });
    out.layer("netsim.link_send_ns", ns);

    let model = sim::scenario().frame_model();
    let ns = ns_per_op(tracer, "workload.stage_sample", 1_000_000, |i| {
        let stage = if i % 2 == 0 {
            &model.render
        } else {
            &model.encode
        };
        black_box(stage.sample(&mut rng));
    });
    out.layer("workload.stage_sample_ns", ns);

    let ring = RingRecorder::new(odr_obs::recorder::DEFAULT_CAPACITY);
    let ns = ns_per_op(tracer, "obs.record", 1_000_000, |i| {
        ring.record(ObsEvent::instant(i, track::APP, odr_obs::names::RENDER).with_id(i));
    });
    black_box(ring.len());
    out.layer("obs.record_ns_per_event", ns);
}

/// The regulator driven with the replay's measured encode times: every
/// sixth frame answers an input (10 Hz of inputs at 60 frames a second)
/// and has its pending sleep cancelled, as the proxy stage does.
fn regulator_layer(
    out: &mut Outcome,
    tracer: &mut Tracer,
    regulation: Regulation,
    encode_ms: &[f64],
) {
    let fresh = || match regulation {
        Regulation::Odr {
            target_fps: Some(fps),
        } => FpsRegulator::new(fps).with_max_debt(30.0),
        _ => FpsRegulator::unlimited(),
    };
    let times: Vec<Duration> = encode_ms
        .iter()
        .map(|&ms| Duration::from_secs_f64(ms / 1e3))
        .collect();
    let mut regulator = fresh();
    let (mut steps, mut cancels, mut slept) = (0u64, 0u64, Duration::ZERO);
    let ns = ns_per_op(tracer, "core.regulator_step", 1_000_000, |i| {
        let sleep = regulator.on_frame_processed(times[i as usize % times.len()]);
        steps += 1;
        if sleep > Duration::ZERO {
            if i % 6 == 0 {
                regulator.cancel_pending_sleep(sleep);
                cancels += 1;
            } else {
                slept += sleep;
            }
        }
    });
    out.layer("core.regulator_ns_per_step", ns);
    out.layer(
        "core.regulator_sleep_ms_per_frame",
        slept.as_secs_f64() * 1e3 / steps as f64,
    );
    out.layer("core.regulator_cancel_ratio", cancels as f64 / steps as f64);
}

/// Two threads over one multi-buffer. Blocking: a strict ping-pong, so
/// each hand-off is publish → the other thread wakes and pops.
/// Overwriting: the producer never waits, so stale frames are dropped.
fn swap_layers(out: &mut Outcome, tracer: &mut Tracer) {
    let span = |tracer: &mut Tracer, name, started| {
        tracer.push(
            name,
            started,
            Instant::now(),
            None,
            TraceId::Phase("replay"),
        );
    };

    let started = Instant::now();
    let there: Arc<SyncQueue<Instant>> = Arc::new(SyncQueue::new_blocking(1));
    let back: Arc<SyncQueue<()>> = Arc::new(SyncQueue::new_blocking(1));
    let handoffs = thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut handoffs = Vec::new();
            while let Some(sent) = there.pop_blocking() {
                handoffs.push(sent.elapsed().as_nanos() as f64);
                if !back.publish_blocking(()) {
                    break;
                }
            }
            handoffs
        });
        for _ in 0..5_000 {
            if !there.publish_blocking(Instant::now()) || back.pop_blocking().is_none() {
                break;
            }
        }
        there.close();
        back.close();
        consumer.join().unwrap_or_default()
    });
    span(tracer, "core.swap_block", started);
    out.layer("core.swap_block_handoff_ns_p50", stats::median(&handoffs));

    let started = Instant::now();
    let published = 200_000u64;
    let queue: Arc<SyncQueue<Instant>> = Arc::new(SyncQueue::new_overwriting(1));
    let handoffs = thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut handoffs = Vec::new();
            while let Some(sent) = queue.pop_blocking() {
                handoffs.push(sent.elapsed().as_nanos() as f64);
            }
            handoffs
        });
        for _ in 0..published {
            queue.publish_blocking(Instant::now());
        }
        queue.close();
        consumer.join().unwrap_or_default()
    });
    span(tracer, "core.swap_overwrite", started);
    out.layer(
        "core.swap_overwrite_handoff_ns_p50",
        stats::median(&handoffs),
    );
    out.layer(
        "core.swap_overwrite_drop_ratio",
        queue.drops() as f64 / published as f64,
    );

    // A PriorityFrame flush: the buffer holds a stale frame, the priority
    // publish discards it and takes its place.
    let started = Instant::now();
    let queue: SyncQueue<u64> = SyncQueue::new_blocking(1);
    let flushes: Vec<f64> = (0..20_000)
        .map(|i| {
            queue.publish_blocking(i);
            let before = Instant::now();
            black_box(queue.publish_priority(i));
            let ns = before.elapsed().as_nanos() as f64;
            black_box(queue.try_pop());
            ns
        })
        .collect();
    span(tracer, "core.swap_priority", started);
    out.layer("core.swap_priority_flush_ns_p50", stats::median(&flushes));
}

/// What the client half of the replay measured.
#[derive(Default)]
struct Received {
    read_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    /// FNV digest of every decoded frame, to compare with the source.
    digests: Vec<sim::Digest>,
    decoded_bytes: u64,
    error: Option<String>,
    tracer: Option<Tracer>,
}

/// The client half: wait for a frame to start arriving, then time the
/// read of the whole message and the decode.
fn receive(
    mut stream: TcpStream,
    cfg: SessionConfig,
    frames: usize,
    mut tracer: Tracer,
) -> Received {
    let mut out = Received::default();
    let mut decoder = Decoder::new(cfg.width, cfg.height);
    let _ = stream.set_read_timeout(Some(crate::gen::OP_TIMEOUT));
    for seq in 0..frames as u64 {
        let id = TraceId::Frame {
            session: u32::MAX,
            seq,
        };
        // Untimed: block until the frame's first byte is readable.
        if let Err(e) = stream.peek(&mut [0u8; 1]) {
            out.error = Some(format!("replay peek: {e}"));
            break;
        }
        let started = Instant::now();
        let payload = match wire::read_message(&mut stream) {
            Ok(Some(Message::Frame { payload, .. })) => payload,
            other => {
                out.error = Some(format!("replay read: expected a frame, got {other:?}"));
                break;
            }
        };
        let read = Instant::now();
        let rgba = match decoder.decode(&payload) {
            Ok(rgba) => rgba,
            Err(e) => {
                out.error = Some(format!("replay decode: {e}"));
                break;
            }
        };
        let decoded = Instant::now();
        tracer.push("serve.wire_read", started, read, None, id);
        tracer.push("codec.decode", read, decoded, None, id);
        out.read_ms.push((read - started).as_secs_f64() * 1e3);
        out.decode_ms.push((decoded - read).as_secs_f64() * 1e3);
        out.decoded_bytes += rgba.len() as u64;
        let mut digest = sim::Digest::new();
        digest.update(&rgba);
        out.digests.push(digest);
    }
    out.tracer = Some(tracer);
    out
}

/// Render → readback → encode → write on this thread, read → decode on a
/// second one, over a loopback socket pair. Returns the encode times (the
/// regulator replay is driven with them) and pushes the stage metrics.
fn frame_replay(
    out: &mut Outcome,
    tracer: &mut Tracer,
    cfg: SessionConfig,
) -> Result<Vec<f64>, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("replay bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("replay addr: {e}"))?;
    let mut tx = TcpStream::connect(addr).map_err(|e| format!("replay connect: {e}"))?;
    let (rx, _) = listener
        .accept()
        .map_err(|e| format!("replay accept: {e}"))?;
    tx.set_nodelay(true)
        .and_then(|()| tx.set_write_timeout(Some(crate::gen::OP_TIMEOUT)))
        .map_err(|e| format!("replay socket: {e}"))?;

    let scene = Scene::new(cfg.base_objects, cfg.object_swing);
    let mut raster = Rasterizer::new();
    let mut fb = Framebuffer::new(cfg.width, cfg.height);
    let mut encoder = Encoder::new(cfg.width, cfg.height, cfg.quant_bits);
    let mask = !0u8 << cfg.quant_bits;

    // How many frames fit the budget: time one, untraced, as warm-up.
    let probe = Instant::now();
    scene.render(&mut raster, &mut fb, 0.0);
    black_box(Encoder::new(cfg.width, cfg.height, cfg.quant_bits).encode(&fb.bytes()));
    let frames = ((REPLAY_BUDGET.as_secs_f64() / probe.elapsed().as_secs_f64()) as usize)
        .clamp(20, REPLAY_FRAMES);

    let (mut render_ms, mut readback_ms, mut encode_ms, mut write_ms) =
        (vec![], vec![], vec![], vec![]);
    let (mut raw_bytes, mut wire_bytes) = (0u64, 0u64);
    let mut sources = Vec::new();
    let reader_tracer = Tracer::new(tracer.enabled(), tracer.epoch());
    let started = Instant::now();
    let received = thread::scope(|scope| {
        let reader = scope.spawn(move || receive(rx, cfg, frames, reader_tracer));
        for seq in 0..frames as u64 {
            let id = TraceId::Frame {
                session: u32::MAX,
                seq,
            };
            let t0 = Instant::now();
            scene.render(&mut raster, &mut fb, seq as f32 / 60.0);
            let t1 = Instant::now();
            let rgba = fb.bytes();
            let t2 = Instant::now();
            let encoded = encoder.encode(&rgba);
            let t3 = Instant::now();
            let header = FrameHeader {
                seq,
                input_id: 0,
                client_ts_ns: 0,
                flags: 0,
                payload_len: encoded.data.len() as u32,
            };
            if let Err(e) = wire::write_frame(&mut tx, &header, &encoded.data) {
                return Err(format!("replay write: {e}"));
            }
            let t4 = Instant::now();
            let root = tracer.push("replay.frame", t0, t4, None, id);
            tracer.push("raster.render", t0, t1, root, id);
            tracer.push("raster.readback", t1, t2, root, id);
            tracer.push("codec.encode", t2, t3, root, id);
            tracer.push("serve.wire_write", t3, t4, root, id);
            let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
            render_ms.push(ms(t0, t1));
            readback_ms.push(ms(t1, t2));
            encode_ms.push(ms(t2, t3));
            write_ms.push(ms(t3, t4));
            raw_bytes += rgba.len() as u64;
            wire_bytes += encoded.data.len() as u64;
            let quantised: Vec<u8> = rgba.iter().map(|&b| b & mask).collect();
            let mut digest = sim::Digest::new();
            digest.update(&quantised);
            sources.push(digest);
        }
        drop(tx);
        reader
            .join()
            .map_err(|_| "replay reader panicked".to_string())
    })?;
    let wall = started.elapsed().as_secs_f64();
    if let Some(e) = received.error {
        return Err(e);
    }
    if let Some(t) = received.tracer {
        tracer.absorb(t);
    }
    out.attempted += frames as u64;
    // Decode must reconstruct the quantised source exactly.
    out.failed += sources
        .iter()
        .zip(&received.digests)
        .filter(|(a, b)| a != b)
        .count() as u64
        + (frames - received.digests.len()) as u64;

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let n = frames as f64;
    let mb = |bytes: u64| bytes as f64 / 1e6;
    let pixels = n * f64::from(cfg.width) * f64::from(cfg.height);
    out.layer("raster.render_ms_per_frame", mean(&render_ms));
    out.layer("raster.readback_ms_per_frame", mean(&readback_ms));
    out.layer(
        "raster.pixels_per_s",
        pixels / (render_ms.iter().sum::<f64>() / 1e3),
    );
    out.layer("codec.encode_ms_per_frame", mean(&encode_ms));
    out.layer(
        "codec.encode_mb_per_s",
        mb(raw_bytes) / (encode_ms.iter().sum::<f64>() / 1e3),
    );
    out.layer("codec.decode_ms_per_frame", mean(&received.decode_ms));
    out.layer(
        "codec.decode_mb_per_s",
        mb(received.decoded_bytes) / (received.decode_ms.iter().sum::<f64>() / 1e3),
    );
    out.layer(
        "codec.compression_ratio",
        raw_bytes as f64 / wire_bytes as f64,
    );
    // What one frame allocates on its way through: the readback `Vec`,
    // the encoder's payload, the wire's copy of it, the decoded frame.
    out.layer(
        "codec.allocs_bytes_per_frame",
        (2 * raw_bytes + 2 * wire_bytes) as f64 / n,
    );
    out.layer("serve.wire_frame_write_us", mean(&write_ms) * 1e3);
    out.layer("serve.wire_frame_read_us", mean(&received.read_ms) * 1e3);
    out.layer("serve.wire_mb_per_s", mb(wire_bytes) / wall);
    let service = mean(&render_ms)
        + mean(&readback_ms)
        + mean(&encode_ms)
        + mean(&write_ms)
        + mean(&received.read_ms)
        + mean(&received.decode_ms);
    out.layer("budget.service_ms", service);
    out.note(format!(
        "replay: {frames} frames at {}x{}, {:.1} KB on the wire each",
        cfg.width,
        cfg.height,
        wire_bytes as f64 / n / 1e3
    ));
    Ok(encode_ms)
}

fn admission_layer(out: &mut Outcome, tracer: &mut Tracer) {
    let scenario = sim::scenario();
    let capacity = ServerCapacity {
        gpu: 64.0,
        cpu_threads: 256.0,
        ..ServerCapacity::default()
    };
    let admission = Admission::new(&scenario, capacity, Slo::default());
    let load = session_load(
        &scenario,
        Regulation::Odr {
            target_fps: Some(60.0),
        },
    );
    for (name, residents) in [
        ("serve.admission_check_us.r0", 0u32),
        ("serve.admission_check_us.r3", 3),
        ("serve.admission_check_us.r7", 7),
    ] {
        let resident: Vec<Resident> = (0..residents)
            .map(|session| Resident { session, load })
            .collect();
        let ns = ns_per_op(tracer, "serve.admission_check", 2_000, |_| {
            let _ = black_box(admission.check(&resident, &load));
        });
        out.layer(name, ns / 1e3);
    }
    let mem = scenario.memory_params();
    let resident: Vec<Resident> = (0..8).map(|session| Resident { session, load }).collect();
    let ns = ns_per_op(tracer, "cluster.solve", 5_000, |_| {
        black_box(NodeState::solve(&capacity, &mem, &resident, Some(&load)));
    });
    out.layer("cluster.solve_us_per_decision", ns / 1e3);
}

fn simulator_layers(out: &mut Outcome, tracer: &mut Tracer, seed: u64) {
    const NAMES: [&str; 4] = [
        "pipeline.sim_frames_per_s.noreg",
        "pipeline.sim_frames_per_s.int60",
        "pipeline.sim_frames_per_s.rvs60",
        "pipeline.sim_frames_per_s.odr60",
    ];
    let phase = TraceId::Phase("replay");
    for (name, (_, spec)) in NAMES.into_iter().zip(sim::policies()) {
        let cfg = ExperimentConfig::builder(sim::scenario(), spec)
            .duration(SimDuration::from_secs(30))
            .seed(seed)
            .build();
        let started = Instant::now();
        let report = tracer.time("pipeline.run_experiment", None, phase, || {
            run_experiment(&cfg)
        });
        out.layer(
            name,
            report.frames_rendered as f64 / started.elapsed().as_secs_f64(),
        );
    }

    let odr60 = sim::policies()[3].1;
    let mut timed_fleet = |sessions: u32, threads: usize, fidelity: FidelityMode| {
        let cfg = odr_fleet::FleetConfig {
            sim: odr_core::SimOptions::new()
                .with_threads(threads)
                .with_fidelity(fidelity),
            ..sim::fleet_config(odr60, seed, sessions, 10, threads)
        };
        let started = Instant::now();
        let report = tracer.time("fleet.run_fleet", None, phase, || {
            odr_fleet::run_fleet(&cfg)
        });
        black_box(report.frames_rendered);
        started.elapsed().as_secs_f64()
    };
    let one = timed_fleet(48, 1, FidelityMode::FullDes);
    let two = timed_fleet(48, 2, FidelityMode::FullDes);
    out.layer("fleet.fulldes_sessions_per_s", 48.0 / two);
    out.layer("fleet.thread_speedup", one / two);
    let analytic = timed_fleet(100_000, 2, FidelityMode::Analytic);
    out.layer("fleet.analytic_sessions_per_s", 100_000.0 / analytic);

    let cfg = sim::cluster_config(seed, 200);
    let started = Instant::now();
    let run = tracer.time("cluster.run_cluster", None, phase, || {
        odr_cluster::run_cluster(&cfg)
    });
    out.layer(
        "cluster.decisions_per_s",
        run.report.arrivals as f64 / started.elapsed().as_secs_f64(),
    );
    out.layer("cluster.admitted", run.report.admitted as f64);
    out.layer("cluster.shed", run.report.shed as f64);
}

/// Runs the whole replay for the frame recipe `cfg` and pushes every
/// layer metric it owns onto `out`.
pub fn replay(out: &mut Outcome, cfg: SessionConfig, seed: u64) {
    let mut spans = Tracer::new(out.tracer.enabled(), out.tracer.epoch());
    let tracer = &mut spans;
    simtime_layers(out, tracer, seed);
    sampler_layers(out, tracer, seed);
    swap_layers(out, tracer);
    match frame_replay(out, tracer, cfg) {
        Ok(encode_ms) => regulator_layer(out, tracer, cfg.regulation, &encode_ms),
        Err(e) => {
            out.failed += 1;
            out.errors.push(e);
        }
    }
    admission_layer(out, tracer);
    simulator_layers(out, tracer, seed);
    out.tracer.absorb(spans);
}
