//! Golden-file test for the observability exporters (`odr-obs`).
//!
//! A short ODR60 run with capture enabled is exported as a Chrome
//! `trace_event` JSON file and as JSONL, and compared byte-for-byte
//! against checked-in snapshots. The whole chain — simulation, event
//! capture (sim-time-stamped), export formatting — is seed-deterministic,
//! so any diff means the simulator's event stream or the export format
//! changed; both deserve a deliberate snapshot update:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```

use std::path::PathBuf;

use cloud3d_odr::prelude::*;

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
        "trace drifted from {}; if the change is intended, \
         regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

fn odr60_report(obs: bool) -> Report {
    run_experiment(
        &ExperimentConfig::builder(
            Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud),
            RegulationSpec::odr(FpsGoal::Target(60.0)),
        )
        .duration(Duration::from_secs(1))
        .seed(7)
        .obs(obs)
        .build(),
    )
}

/// Capture is a run-time switch, and off keeps nothing: the recorder the
/// served pipeline gets is disabled and drains empty, and a simulated
/// run that did not ask for capture reports none.
#[test]
fn capture_off_at_run_time_keeps_nothing() {
    use cloud3d_odr::obs::{names, track, Event};

    let recorder = cloud3d_odr::runtime::stages::make_recorder(false);
    assert!(!recorder.enabled());
    recorder.record(Event::instant(1, track::APP, names::PRESENT));
    let drained = recorder.drain();
    assert!(drained.events.is_empty());
    assert_eq!(drained.dropped, 0);

    let report = odr60_report(false);
    assert!(!report.obs.enabled);
    assert!(report.obs.events.is_empty());
}

#[test]
fn golden_chrome_trace() {
    let report = odr60_report(true);
    assert!(report.obs.enabled, "capture was requested");
    assert!(!report.obs.events.is_empty(), "ODR60 must emit spans");
    assert_matches_golden("trace_odr60.chrome.json", &to_chrome_trace(&report.obs));
}

#[test]
fn golden_jsonl_trace() {
    let report = odr60_report(true);
    assert_matches_golden("trace_odr60.jsonl", &to_jsonl(&report.obs));
}

/// A serde-free validity check of the Chrome trace: balanced braces and
/// brackets outside string literals, the `traceEvents` envelope, and
/// B/E span pairing per track.
#[test]
fn chrome_trace_is_well_formed_json() {
    let text = to_chrome_trace(&odr60_report(true).obs);
    assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
    assert!(text.ends_with("\n]}\n"));

    let (mut braces, mut brackets) = (0i64, 0i64);
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => braces += 1,
            '}' => braces -= 1,
            '[' => brackets += 1,
            ']' => brackets -= 1,
            _ => {}
        }
        assert!(braces >= 0 && brackets >= 0, "closer before opener");
    }
    assert!(!in_string, "unterminated string literal");
    assert_eq!((braces, brackets), (0, 0), "unbalanced JSON nesting");

    // Every line between the envelope is one event object; spans must
    // nest properly, so running B-minus-E depth per tid never dips
    // below zero and ends at zero.
    let mut depth: std::collections::BTreeMap<String, i64> = std::collections::BTreeMap::new();
    for line in text.lines().filter(|l| l.contains("\"ph\":")) {
        let tid = line
            .split("\"tid\":")
            .nth(1)
            .and_then(|r| r.split([',', '}']).next())
            .expect("tid field")
            .to_string();
        let d = depth.entry(tid).or_insert(0);
        if line.contains("\"ph\":\"B\"") {
            *d += 1;
        } else if line.contains("\"ph\":\"E\"") {
            *d -= 1;
            assert!(*d >= 0, "span end without begin: {line}");
        }
    }
    for (tid, d) in depth {
        assert_eq!(d, 0, "unbalanced spans on tid {tid}");
    }
}
