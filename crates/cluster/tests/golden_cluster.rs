//! Golden report of a saturated cluster run.
//!
//! 16 nodes cannot hold 20 arrivals/s of the paper's policy mix, so most
//! arrivals are retried and many are shed, and the kill at 10 s displaces
//! a full node into a full pool: the retry storm, re-placement after a
//! failure and first-fit's scan order all leave bytes here. The
//! decisions were generated by the commit before the control plane
//! started keeping its admission answers between membership changes; a
//! diff means a decision moved.
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p odr-cluster --test golden_cluster
//! ```

use std::path::PathBuf;

use odr_cluster::{run_cluster, ChurnConfig, ClusterConfig, PolicyMix};
use odr_simtime::{Duration, SimTime};
use odr_workload::{Benchmark, Platform, Resolution, Scenario};

#[test]
fn saturated_report_is_golden() {
    let cfg = ClusterConfig::builder(
        Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud),
        ChurnConfig::new(20.0, PolicyMix::paper()),
    )
    .nodes(16)
    .horizon(Duration::from_secs(30))
    .kill(SimTime::from_secs(10), 3)
    .measure(false)
    .build();
    let actual = run_cluster(&cfg).report.to_text();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/saturated.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &actual).expect("write golden");
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
        "cluster report drifted from {}; if the change is intended, \
         regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}
