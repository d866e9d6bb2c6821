//! Golden-file test for `odr_pipeline::export`.
//!
//! A short captured ODR60 run's per-frame traces are serialised and
//! compared byte-for-byte against a checked-in snapshot. Everything in
//! the chain — simulation, span capture and its fold into rows, CSV
//! formatting — is seed-deterministic, so any diff here means either the
//! simulator's behaviour or the export format changed; both deserve a
//! deliberate snapshot update:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_export
//! ```

use std::path::PathBuf;

use odr_core::{FpsGoal, RegulationSpec};
use odr_pipeline::export::traces_to_csv;
use odr_pipeline::{run_experiment, ExperimentConfig};
use odr_simtime::Duration;
use odr_workload::{Benchmark, Platform, Resolution, Scenario};

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
        "export CSV drifted from {}; if the change is intended, \
         regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

#[test]
fn golden_trace_csv() {
    let report = run_experiment(
        &ExperimentConfig::builder(
            Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud),
            RegulationSpec::odr(FpsGoal::Target(60.0)),
        )
        .duration(Duration::from_secs(3))
        .seed(7)
        .obs(true)
        .build(),
    );
    assert_matches_golden("export_traces_odr60.csv", &traces_to_csv(&report.traces));
}
