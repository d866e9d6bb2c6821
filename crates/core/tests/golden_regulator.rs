//! Golden traces for Algorithm 1.
//!
//! Each test replays a scripted frame-time series through
//! [`FpsRegulator`] and compares the full `(processing, sleep, balance)`
//! trace against a checked-in snapshot. The traces pin the regulator's
//! observable semantics — sleep amounts, acceleration after spikes,
//! balance bookkeeping around cancelled sleeps — so any behavioural
//! drift shows up as a readable diff, not a silently shifted average.
//!
//! Regenerate after an *intended* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p odr-core --test golden_regulator
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use odr_core::FpsRegulator;

/// Deterministic scripted frame times: steady ~9–13 ms frames with a
/// 30 ms spike every 16th frame (an LCG supplies the jitter so the
/// series is fixed forever, independent of any RNG crate).
fn scripted_frame_times_us() -> Vec<u64> {
    let mut state = 0x1234_5678_9abc_def0_u64;
    (0..64)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let jitter = (state >> 33) % 4000;
            let base = if i % 16 == 7 { 30_000 } else { 9_000 };
            base + jitter
        })
        .collect()
}

/// Runs `frames` through `reg`, cancelling half of every granted sleep
/// on frames where `cancel_on(i)` — the PriorityFrame path — and
/// renders one trace line per frame.
fn trace(mut reg: FpsRegulator, frames: &[u64], cancel_on: fn(usize) -> bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "frame  proc_us  sleep_us  cancelled_us  balance_s");
    for (i, &proc_us) in frames.iter().enumerate() {
        let sleep = reg.on_frame_processed(Duration::from_micros(proc_us));
        let mut cancelled = Duration::ZERO;
        if cancel_on(i) && sleep > Duration::ZERO {
            cancelled = sleep / 2;
            reg.cancel_pending_sleep(cancelled);
        }
        let _ = writeln!(
            out,
            "{:>5}  {:>7}  {:>8}  {:>12}  {:+.9}",
            i,
            proc_us,
            sleep.as_micros(),
            cancelled.as_micros(),
            reg.balance_secs()
        );
    }
    let _ = writeln!(
        out,
        "total  frames={} slept_s={:.9}",
        reg.frames(),
        reg.total_slept_secs()
    );
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "regulator trace drifted from {}; if the change is intended, \
         regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

fn never(_: usize) -> bool {
    false
}

#[test]
fn golden_trace_odr60() {
    let t = trace(FpsRegulator::new(60.0), &scripted_frame_times_us(), never);
    assert_matches_golden("regulator_odr60.txt", &t);
}

#[test]
fn golden_trace_odr30() {
    let t = trace(FpsRegulator::new(30.0), &scripted_frame_times_us(), never);
    assert_matches_golden("regulator_odr30.txt", &t);
}

#[test]
fn golden_trace_odrmax_never_sleeps() {
    let t = trace(FpsRegulator::unlimited(), &scripted_frame_times_us(), never);
    assert_matches_golden("regulator_odrmax.txt", &t);
    for line in t.lines().skip(1).filter(|l| l.starts_with(' ')) {
        let sleep: &str = line.split_whitespace().nth(2).expect("sleep column");
        assert_eq!(sleep, "0", "ODRMax must never sleep: {line}");
    }
}

#[test]
fn golden_trace_accelerate_after_spike() {
    // The Section 5.2 sequence: fast frames, one 40 ms spike, then fast
    // frames again. The trace must show zero sleeps while the debt is
    // repaid and a final return to steady pacing.
    let frames: Vec<u64> = vec![
        10_000, 10_000, 40_000, 10_000, 10_000, 10_000, 10_000, 10_000, 10_000, 10_000,
    ];
    let t = trace(FpsRegulator::new(60.0), &frames, never);
    assert_matches_golden("regulator_spike.txt", &t);
}

#[test]
fn golden_trace_priority_cancellation() {
    // Every fourth granted sleep is half-cancelled by a priority frame;
    // the skipped delay must reappear in the balance, not vanish.
    let t = trace(FpsRegulator::new(60.0), &scripted_frame_times_us(), |i| {
        i % 4 == 3
    });
    assert_matches_golden("regulator_priority_cancel.txt", &t);
}
