//! The steady-state frame path allocates nothing, dropped frames
//! included.
//!
//! A counting global allocator watches the real stage threads — app →
//! Mul-Buf1 → proxy → Mul-Buf2 → a consumer standing in for the socket
//! writer. Every frame buffer in flight is on loan from a pool made at
//! set-up and goes home when it is dropped, wherever that is, so after
//! warm-up two hundred frames must pass without a single call into the
//! allocator from any thread, and no more frame-sized buffers may ever
//! have been created than the two pools hold. Two cases: ODRMax, whose
//! blocking multi-buffers drop nothing, and NoReg behind a consumer that
//! pops a frame only once Mul-Buf1 has overwritten one, so every measured
//! frame comes with a drop. The second case runs at the first one's size
//! on the workers the first one left parked, which kept its pools, depth
//! plane and encoder: it makes no frame-sized allocation at all.
//!
//! This file holds one test on purpose: the counters and the workers are
//! process-wide, so the two cases run one after the other inside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use odr_obs::MonoClock;
use odr_runtime::stages::{
    make_recorder, mul_bufs, spawn_app_stage, spawn_proxy_stage, AppStage, ProxyStage, SessionGate,
};
use odr_runtime::Regulation;

const WIDTH: u32 = 160;
const HEIGHT: u32 = 96;
/// One pixel plane; encode buffers are larger still.
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

/// What one case measured.
struct Steady {
    /// Calls into the allocator over the measured frames.
    allocations: u64,
    /// Frame-sized allocations from before set-up to the end.
    frame_sized: u64,
    /// Frames Mul-Buf1 dropped over the measured frames.
    dropped: u64,
}

const WARM_UP: u64 = 40;
const MEASURED: u64 = 200;

/// Runs `regulation`'s stage threads to a steady state and measures
/// [`MEASURED`] frames.
fn steady_frames(regulation: Regulation) -> Steady {
    let frame_sized_before = FRAME_SIZED.load(Ordering::Relaxed);
    let clock = MonoClock::start();
    let (buf1, buf2) = mul_bufs::<u64>(regulation, &make_recorder(false), clock);
    let (input_tx, input_rx) = mpsc::channel::<u64>();
    let wake = Arc::new(SessionGate::default());
    let stop = Arc::new(AtomicBool::new(false));

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
        output: Arc::clone(&buf2),
        encoded: Arc::new(AtomicU64::new(0)),
        dropped: Arc::new(AtomicU64::new(0)),
        recorder: make_recorder(false),
        clock,
    });

    // The consumer: what the session writer does with each frame, minus
    // the socket. Unregulated, it is a slow client that lets Mul-Buf1
    // overwrite a frame before it takes the next.
    let odr = matches!(regulation, Regulation::Odr { .. });
    let mut last_seq: Option<u64> = None;
    let mut bytes = 0usize;
    let mut consume = |frames: u64| {
        for _ in 0..frames {
            let drops = buf1.drops();
            let frame = buf2.pop_blocking().expect("pipeline running");
            if odr {
                assert_eq!(
                    frame.seq,
                    last_seq.map_or(0, |l| l + 1),
                    "ODR drops no frame"
                );
            }
            assert!(
                last_seq.is_none_or(|l| frame.seq > l),
                "frames out of order"
            );
            last_seq = Some(frame.seq);
            bytes += frame.data.len();
            drop(frame);
            while !odr && buf1.drops() == drops {
                thread::sleep(Duration::from_micros(50));
            }
        }
    };

    // Warm-up: the scene, framebuffer and codec set themselves up and the
    // first intra frame goes by.
    consume(WARM_UP);
    let (before, drops_before) = (ALLOCATIONS.load(Ordering::Relaxed), buf1.drops());
    consume(MEASURED); // crosses the second intra frame at 120
    let (after, drops_after) = (ALLOCATIONS.load(Ordering::Relaxed), buf1.drops());
    let frame_sized = FRAME_SIZED.load(Ordering::Relaxed) - frame_sized_before;

    stop.store(true, Ordering::Relaxed);
    buf1.close();
    buf2.close();
    wake.ring();
    app.join().expect("app stage");
    proxy.join().expect("proxy stage");
    drop(input_tx);
    assert!(bytes > 0);
    Steady {
        allocations: after - before,
        frame_sized,
        dropped: drops_after - drops_before,
    }
}

#[test]
fn steady_state_frames_allocate_nothing() {
    // The first case's set-up makes two frame-sized allocations that are
    // not loans (the framebuffer's depth plane and the encoder's
    // reference), and the two pools hold three buffers each and never
    // grow. The second case's workers kept all eight.
    const SET_UP: u64 = 2;
    for (regulation, name, frame_sized) in [
        (
            Regulation::Odr { target_fps: None },
            "ODRMax",
            SET_UP + 2 * 3,
        ),
        (Regulation::NoReg, "NoReg", 0),
    ] {
        let steady = steady_frames(regulation);
        assert_eq!(
            steady.allocations, 0,
            "{name}: {} heap allocations in {MEASURED} steady-state frames ({} dropped)",
            steady.allocations, steady.dropped
        );
        assert_eq!(
            steady.frame_sized, frame_sized,
            "{name}: a pool outgrew its stage's in-flight count, or a worker did not keep it"
        );
        let odr = matches!(regulation, Regulation::Odr { .. });
        assert!(
            if odr {
                steady.dropped == 0
            } else {
                steady.dropped >= MEASURED
            },
            "{name}: {} frames dropped in {MEASURED}",
            steady.dropped
        );
    }
}
