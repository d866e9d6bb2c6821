//! An input at a blocked served app flushes the stale frame before the
//! answer renders.
//!
//! Under ODR the renderer waits for room in Mul-Buf1 with a finished frame
//! in it. PriorityFrame makes that frame obsolete the moment an input
//! reaches the waiting renderer (DESIGN.md §18.3): only the answer goes
//! downstream. Here an ODRMax app and proxy at 1280×720 fill the pipeline
//! — a frame in Mul-Buf2, one held by the proxy, one in Mul-Buf1, the
//! renderer waiting — and one input arrives. The two frames past Mul-Buf1
//! may go ahead of the answer; the one in it may not.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use odr_core::SyncQueue;
use odr_obs::MonoClock;
use odr_runtime::stages::{
    make_recorder, spawn_app_stage, spawn_proxy_stage, AppStage, BufferPool, EncodedFrame,
    ProxyStage, RawFrame, SessionGate,
};
use odr_runtime::Regulation;

const WIDTH: u32 = 1280;
const HEIGHT: u32 = 720;

#[test]
fn an_input_at_a_blocked_app_flushes_the_stale_frame() {
    let regulation = Regulation::Odr { target_fps: None };
    let buf1: Arc<SyncQueue<RawFrame<u64>>> = Arc::new(SyncQueue::new_blocking(1));
    let buf2: Arc<SyncQueue<EncodedFrame<u64>>> = Arc::new(SyncQueue::new_blocking(1));
    let (input_tx, input_rx) = mpsc::channel::<u64>();
    let wake = Arc::new(SessionGate::default());
    let rgba_pool = BufferPool::for_rgba(WIDTH, HEIGHT);
    let data_pool = BufferPool::for_encoded(WIDTH, HEIGHT);
    let stop = Arc::new(AtomicBool::new(false));
    let rendered = Arc::new(AtomicU64::new(0));
    let clock = MonoClock::start();

    let app = spawn_app_stage(AppStage {
        width: WIDTH,
        height: HEIGHT,
        base_objects: 6,
        object_swing: 6,
        regulation,
        start: Instant::now(),
        stop: Arc::clone(&stop),
        input_rx,
        out: Arc::clone(&buf1),
        wake: Arc::clone(&wake),
        rgba_pool: rgba_pool.clone(),
        rendered: Arc::clone(&rendered),
        priority_frames: Arc::new(AtomicU64::new(0)),
        recorder: make_recorder(false),
        clock,
    });
    let proxy = spawn_proxy_stage(ProxyStage {
        width: WIDTH,
        height: HEIGHT,
        quant_bits: 2,
        regulation,
        input: Arc::clone(&buf1),
        wake: Arc::clone(&wake),
        rgba_pool,
        output: Arc::clone(&buf2),
        data_pool: data_pool.clone(),
        encoded: Arc::new(AtomicU64::new(0)),
        dropped: Arc::new(AtomicU64::new(0)),
        recorder: make_recorder(false),
        clock,
    });

    // Nobody pops Mul-Buf2 yet: the pipeline fills and the renderer waits
    // for room with its third frame in Mul-Buf1. An unoptimised build
    // renders slowly, so wait for that state, not only for the 300 ms.
    thread::sleep(Duration::from_millis(300));
    let filled = Instant::now();
    while !(rendered.load(Ordering::Relaxed) >= 3 && buf1.len() == 1 && buf2.len() == 1) {
        assert!(
            filled.elapsed() < Duration::from_secs(30),
            "pipeline never filled"
        );
        thread::sleep(Duration::from_millis(5));
    }
    input_tx.send(7).expect("app stage running");
    wake.ring();
    thread::sleep(Duration::from_millis(1));

    let mut ahead = Vec::new();
    let answer = loop {
        let frame = buf2.pop_blocking().expect("the answer arrives");
        data_pool.give(frame.data);
        if frame.tag.is_some() {
            break frame.seq;
        }
        ahead.push(frame.seq);
    };

    stop.store(true, Ordering::Relaxed);
    buf1.close();
    buf2.close();
    wake.ring();
    app.join().expect("app stage");
    proxy.join().expect("proxy stage");
    drop(input_tx);

    assert!(
        ahead.len() <= 2,
        "untagged frames {ahead:?} went out ahead of the answer (seq {answer}): \
         the frame in Mul-Buf1 when the input arrived was not flushed"
    );
}
