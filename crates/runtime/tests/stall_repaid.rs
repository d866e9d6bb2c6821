//! A render stall is repaid on the served path.
//!
//! Algorithm 1 counts an iteration from the end of the last delay to the
//! frame leaving the proxy, so the time the proxy waits for a late frame
//! is debt, and the frames after it run back to back until it is repaid
//! (DESIGN.md §18.9). Here an ODR60 proxy thread is fed by a producer that
//! publishes into Mul-Buf1 as fast as there is room, stalls from 200 ms to
//! 500 ms, and resumes until 800 ms. At the bare target rate the 300 ms
//! after the stall carry 18 frames; repaying the ≈ 17 intervals of debt
//! adds about as many again. The bound sits between the two, with room
//! for a loaded 2-core host.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use odr_core::SyncQueue;
use odr_obs::MonoClock;
use odr_runtime::stages::{
    make_recorder, spawn_proxy_stage, BufferPool, EncodedFrame, ProxyStage, RawFrame, SessionGate,
};
use odr_runtime::Regulation;

const WIDTH: u32 = 64;
const HEIGHT: u32 = 36;

#[test]
fn a_render_stall_is_repaid_once_frames_flow_again() {
    let ms = Duration::from_millis;
    let buf1: Arc<SyncQueue<RawFrame<u64>>> = Arc::new(SyncQueue::new_blocking(1));
    let buf2: Arc<SyncQueue<EncodedFrame<u64>>> = Arc::new(SyncQueue::new_blocking(1));
    let wake = Arc::new(SessionGate::default());
    let pixel_pool = BufferPool::for_pixels(WIDTH, HEIGHT);
    let t0 = Instant::now();
    let proxy = spawn_proxy_stage(ProxyStage {
        width: WIDTH,
        height: HEIGHT,
        quant_bits: 2,
        regulation: Regulation::Odr {
            target_fps: Some(60.0),
        },
        input: Arc::clone(&buf1),
        wake: Arc::clone(&wake),
        output: Arc::clone(&buf2),
        data_pool: BufferPool::for_encoded(WIDTH, HEIGHT),
        encoded: Arc::new(AtomicU64::new(0)),
        dropped: Arc::new(AtomicU64::new(0)),
        recorder: make_recorder(false),
        clock: MonoClock::start(),
    });
    // The socket writer's stand-in: when each frame left Mul-Buf2.
    let writer = thread::spawn(move || {
        let mut sent = Vec::new();
        while buf2.pop_blocking().is_some() {
            sent.push(t0.elapsed());
        }
        sent
    });

    // The renderer's stand-in: as fast as Mul-Buf1 has room, except
    // during the stall.
    let mut seq = 0;
    while t0.elapsed() < ms(800) {
        if (ms(200)..ms(500)).contains(&t0.elapsed()) {
            thread::sleep(ms(500).saturating_sub(t0.elapsed()));
        }
        let mut pixels = pixel_pool.take();
        pixels.resize(WIDTH as usize * HEIGHT as usize, 0xff80_8080);
        if !buf1.publish_blocking(RawFrame {
            seq,
            tag: None,
            priority: false,
            pixels,
        }) {
            break;
        }
        seq += 1;
    }
    buf1.close();
    wake.ring();
    proxy.join().expect("proxy stage");
    let sent = writer.join().expect("writer");

    let after = sent
        .iter()
        .filter(|t| (ms(500)..ms(800)).contains(*t))
        .count();
    assert!(
        after >= 26,
        "{after} frames left in the 300 ms after a 300 ms stall \
         (18 is the bare 60 FPS rate: the stall was not repaid)"
    );
}
