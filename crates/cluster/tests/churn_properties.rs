//! Property-based tests over the cluster engine's determinism and
//! conservation invariants.
//!
//! The strategy engine is the std-only shim in `shims/proptest` so the
//! suite runs fully offline. See shims/README.md.

use odr_cluster::{
    assert_conservation, run_cluster, ChurnConfig, ClusterConfig, PolicyChoice, PolicyMix,
};
use odr_core::{FpsGoal, RegulationSpec};
use odr_simtime::Duration;
use odr_workload::{Benchmark, Platform, Resolution, Scenario};
use proptest::prelude::*;

fn scenario() -> Scenario {
    Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud)
}

/// The mix of `picks`: (index into five specs, arrival weight) pairs.
/// A spec may repeat, and each repeat is its own mix choice.
fn mix(picks: &[(usize, u64)]) -> PolicyMix {
    let specs = [
        RegulationSpec::odr(FpsGoal::Target(60.0)),
        RegulationSpec::odr(FpsGoal::Target(30.0)),
        RegulationSpec::odr(FpsGoal::Max),
        RegulationSpec::Interval(FpsGoal::Target(60.0)),
        RegulationSpec::NoReg,
    ];
    PolicyMix::new(
        picks
            .iter()
            .map(|&(i, weight)| PolicyChoice {
                spec: specs[i],
                weight,
            })
            .collect(),
    )
}

/// A small, fast cluster run (prediction only — measurement determinism
/// is covered by the engine's own thread-sweep test).
fn small_cfg(seed: u64, nodes: u32, rate: f64, mix: PolicyMix) -> ClusterConfig {
    let churn = ChurnConfig::new(rate, mix).with_mean_session(Duration::from_secs(6));
    ClusterConfig::builder(scenario(), churn)
        .nodes(nodes)
        .horizon(Duration::from_secs(12))
        .calibration(Duration::from_secs(1))
        .seed(seed)
        .measure(false)
        .build()
}

proptest! {
    /// Replaying the exact same configuration yields a byte-identical
    /// report, whatever the seed, pool size, load or policy mix
    /// (repeated specs included) — and every run satisfies
    /// the session-conservation identities.
    #[test]
    fn same_seed_replay_is_byte_identical(
        seed in any::<u64>(),
        nodes in 1u32..4,
        rate in 0.2f64..1.6,
        picks in prop::collection::vec((0usize..5, 1u64..4), 1..4),
    ) {
        let cfg = small_cfg(seed, nodes, rate, mix(&picks));
        let a = run_cluster(&cfg);
        let b = run_cluster(&cfg);
        assert_conservation(&a.report);
        prop_assert_eq!(a.report.to_text(), b.report.to_text());
        prop_assert_eq!(format!("{:?}", a.obs), format!("{:?}", b.obs));
    }
}
