//! PriorityFrame end to end, on the in-process [`System`]: an input wakes
//! the parked renderer and cuts the regulator's delay, at the cost of the
//! one stale frame in Mul-Buf1 and of nothing in the long-run rate.
//!
//! This file holds one test on purpose: it asserts a latency and a frame
//! rate, and test binaries run one at a time, so it has the host's cores
//! to itself (the unit tests beside `System` run a dozen pipelines at
//! once).

use std::time::Duration;

use odr_runtime::{Regulation, RuntimeConfig, System};

#[test]
fn an_input_preempts_the_paced_pipeline() {
    let mut r = System::new(RuntimeConfig {
        width: 160,
        height: 96,
        duration: Duration::from_millis(2500),
        regulation: Regulation::Odr {
            target_fps: Some(60.0),
        },
        base_objects: 4,
        object_swing: 4,
        input_rate_hz: 10.0,
        ..RuntimeConfig::default()
    })
    .run()
    .expect("pipeline run");
    assert!(r.mtp_ms.count() >= 10, "too few MtP samples: {r:?}");
    // Service time plus the 2 ms modelled link: far below the frame
    // interval, where a regulator delay slept out would put it.
    let mtp_p50 = r.mtp_ms.percentile(50.0);
    assert!(mtp_p50 < 1000.0 / 60.0, "MtP p50 {mtp_p50:.1} ms");
    // The cut delays stay in the balance, so the rate holds.
    let fps = r.client_fps();
    assert!((54.0..=66.0).contains(&fps), "client fps {fps:.1}");
    // One flushed frame per input, not two: the renderer was waiting for
    // room, not holding a second stale frame.
    assert!(
        r.frames_rendered - r.frames_encoded <= r.priority_frames + 4,
        "rendered {} encoded {} priority {}",
        r.frames_rendered,
        r.frames_encoded,
        r.priority_frames
    );
}
