//! The steady-state frame path allocates nothing.
//!
//! A counting global allocator watches the real stage threads — app →
//! Mul-Buf1 → proxy → Mul-Buf2 → a consumer standing in for the socket
//! writer — under ODR (blocking multi-buffers). Every frame buffer in
//! flight is on loan from a pool made at set-up, so after warm-up two
//! hundred frames must pass without a single call into the allocator from
//! any thread, and no more frame-sized buffers may ever have been created
//! than the two pools hold.
//!
//! This file holds one test on purpose: the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use odr_core::SyncQueue;
use odr_obs::MonoClock;
use odr_runtime::stages::{
    make_recorder, spawn_app_stage, spawn_proxy_stage, AppStage, BufferPool, EncodedFrame,
    ProxyStage, RawFrame, SessionGate,
};
use odr_runtime::Regulation;

const WIDTH: u32 = 160;
const HEIGHT: u32 = 96;
/// One readback buffer; encode buffers are larger still.
const FRAME_BYTES: usize = (WIDTH * HEIGHT * 4) as usize;

/// Calls into the allocator (alloc, zeroed alloc, realloc).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Of those, requests for at least a frame's worth of bytes.
static FRAME_SIZED: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if size >= FRAME_BYTES {
        FRAME_SIZED.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn steady_state_frames_allocate_nothing() {
    const WARM_UP: u64 = 40;
    const MEASURED: u64 = 200;

    let frame_sized_before = FRAME_SIZED.load(Ordering::Relaxed);
    let regulation = Regulation::Odr { target_fps: None };
    let buf1: Arc<SyncQueue<RawFrame<u64>>> = Arc::new(SyncQueue::new_blocking(1));
    let buf2: Arc<SyncQueue<EncodedFrame<u64>>> = Arc::new(SyncQueue::new_blocking(1));
    let (input_tx, input_rx) = mpsc::channel::<u64>();
    let wake = Arc::new(SessionGate::default());
    let rgba_pool = BufferPool::for_rgba(WIDTH, HEIGHT);
    let data_pool = BufferPool::for_encoded(WIDTH, HEIGHT);
    let stop = Arc::new(AtomicBool::new(false));
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
        rendered: Arc::new(AtomicU64::new(0)),
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

    // The consumer: what the session writer does with each frame, minus
    // the socket.
    let mut next_seq = 0;
    let mut bytes = 0usize;
    let mut consume = |frames: u64| {
        for _ in 0..frames {
            let frame = buf2.pop_blocking().expect("pipeline running");
            assert_eq!(frame.seq, next_seq, "ODR drops no frame");
            next_seq += 1;
            bytes += frame.data.len();
            data_pool.give(frame.data);
        }
    };

    // Warm-up: the scene, framebuffer and codec set themselves up and the
    // first intra frame goes by.
    consume(WARM_UP);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    consume(MEASURED); // crosses the second intra frame at 120
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let frame_sized = FRAME_SIZED.load(Ordering::Relaxed) - frame_sized_before;

    stop.store(true, Ordering::Relaxed);
    buf1.close();
    buf2.close();
    wake.ring();
    app.join().expect("app stage");
    proxy.join().expect("proxy stage");
    drop(input_tx);

    assert!(bytes > 0);
    assert_eq!(
        after - before,
        0,
        "{} heap allocations in {MEASURED} steady-state frames",
        after - before
    );
    // Set-up makes three frame-sized allocations that are not loans (the
    // framebuffer's colour and depth planes and the encoder's reference);
    // the two pools hold three buffers each and never grow.
    const SET_UP: u64 = 3;
    assert_eq!(
        frame_sized,
        SET_UP + 2 * 3,
        "a pool outgrew its stage's in-flight count"
    );
}
